import argparse
import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from superkw.classical import catalog
from superkw.cli import main
from superkw.lsafile import LsaParseError, parse_lsa, write_lsa
from superkw.report import OracleCache, oracle_factors

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("lsa")
    out = {}
    for name, p, k, fname in [
        ("gl(1|1)", 3, 1, "gl11.lsa"),
        ("osp(1|2)", 3, 1, "osp12.lsa"),
        ("2dim-solvable", 5, 1, "solv2.lsa"),
        ("odd-heisenberg", 3, 1, "oddheis.lsa"),
        ("heisenberg", 3, 1, "heis.lsa"),
    ]:
        ent = catalog(name, p, k)
        path = base / fname
        path.write_text(write_lsa(ent.algebra, ent.triangular))
        out[fname.split(".")[0]] = str(path)
    return out


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# parsing


def test_parse_rejects_missing_header():
    with pytest.raises(LsaParseError):
        parse_lsa("field p=3 k=1\nbasis a even\n")


def test_parse_rejects_bad_coefficient():
    text = "superkw-lsa v1\nfield p=3 k=1\nbasis a even\nbracket a a a:7\n"
    with pytest.raises(LsaParseError) as exc:
        parse_lsa(text)
    assert "line 4" in str(exc.value)


def test_parse_rejects_odd_before_even():
    text = "superkw-lsa v1\nfield p=3 k=1\nbasis y odd\nbasis a even\n"
    with pytest.raises(LsaParseError):
        parse_lsa(text)


EVEN3 = "superkw-lsa v1\nfield p=3 k=1\nbasis a even\nbasis b even\nbasis c even\n"
ODD2 = "superkw-lsa v1\nfield p=3 k=1\nbasis a even\nbasis x odd\nbasis y odd\n"


def test_parse_sign_rule_consistency():
    # (canonical file, a file with reversed lines): a (j, i) line follows
    # the sign rule, -1 = 2 mod 3 on an even pair and +1 on an odd one
    for canonical, text in [
        (EVEN3 + "bracket a b c:1\n", EVEN3 + "bracket a b c:1\nbracket b a c:2\n"),
        # reversed only, on an even pair and on an odd pair
        (EVEN3 + "bracket a b c:1\n", EVEN3 + "bracket b a c:2\n"),
        (ODD2 + "bracket x y a:1\n", ODD2 + "bracket y x a:1\n"),
        # the reversed line before its forward line
        (EVEN3 + "bracket a b c:1\n", EVEN3 + "bracket b a c:2\nbracket a b c:1\n"),
        # an odd self-bracket keeps its own value
        (ODD2 + "bracket x x a:1\nbracket x y a:2\n", ODD2 + "bracket y x a:2\nbracket x x a:1\n"),
    ]:
        structure = parse_lsa(text).algebra.structure
        assert np.array_equal(structure, parse_lsa(canonical).algebra.structure)
    assert structure[1, 1, 0] == 1  # [x, x] = a, in the last file
    # a reversed line that disagrees is named by its own line number
    for text, line_no in [
        (EVEN3 + "bracket a b c:1\nbracket b a c:1\n", 7),
        (EVEN3 + "bracket b a c:1\nbracket a b c:1\n", 6),
        (ODD2 + "bracket x y a:1\nbracket y x a:2\n", 7),
    ]:
        with pytest.raises(LsaParseError) as exc:
            parse_lsa(text)
        assert exc.value.line_no == line_no and f"line {line_no}:" in str(exc.value)


def test_parse_k2_scalars():
    text = (
        "superkw-lsa v1\nfield p=3 k=2\n"
        "basis a even\nbasis b even\nbasis c even\n"
        "bracket a b c:1,2\n"
    )
    af = parse_lsa(text)
    assert af.algebra.field.q == 9
    assert af.algebra.structure[0, 1, 2] == af.algebra.field.undigits([1, 2])


def test_roundtrip_catalog(files):
    for key in files:
        text = Path(files[key]).read_text()
        af = parse_lsa(text)
        assert write_lsa(af.algebra, af.triangular) == text


# ---------------------------------------------------------------------------
# commands and exit codes


def test_validate_ok(files):
    code, out = run_cli(["validate", files["gl11"]])
    assert code == 0
    assert "OK" in out


def test_validate_catches_mutation(files, tmp_path):
    text = Path(files["gl11"]).read_text()
    # flip one Cartan component of [e, f] consistently on both sides
    bad = text.replace("bracket E12 E21 E11:1 E22:1", "bracket E12 E21 E11:2 E22:1")
    pth = tmp_path / "bad.lsa"
    pth.write_text(bad)
    code, out = run_cli(["validate", str(pth)])
    assert code == 1
    assert "super-jacobi" in out


def test_validate_parse_error_exit3(tmp_path):
    pth = tmp_path / "broken.lsa"
    pth.write_text("superkw-lsa v1\nfield p=3 k=1\nbasis a even\nbracket a a a:9\n")
    code, _ = run_cli(["validate", str(pth)])
    assert code == 3


def test_validate_huge_prime_field_exit3(tmp_path):
    # 2^61 - 1 is prime but too large for exact int64 arithmetic: the size
    # bound rejects it before any trial division
    pth = tmp_path / "huge.lsa"
    pth.write_text("superkw-lsa v1\nfield p=2305843009213693951 k=1\nbasis a even\n")
    start = time.perf_counter()
    code, _ = run_cli(["validate", str(pth)])
    assert code == 3
    assert time.perf_counter() - start < 1


def test_missing_file_exit3():
    code, _ = run_cli(["validate", "/nonexistent/path.lsa"])
    assert code == 3


def test_mdim_gl11(files):
    code, out = run_cli(["mdim", files["gl11"]])
    assert code == 0
    assert "M = 3^0*2^1 = 2" in out


def test_mdim_abelian(tmp_path):
    text = "superkw-lsa v1\nfield p=3 k=1\nbasis a even\npmap a\n"
    pth = tmp_path / "ab.lsa"
    pth.write_text(text)
    code, out = run_cli(["mdim", str(pth)])
    assert code == 0
    assert "M = 3^0*2^0 = 1" in out


def test_mdim_osp(files):
    code, out = run_cli(["mdim", files["osp12"]])
    assert code == 0
    assert "M = 3^1*2^1 = 6" in out


def test_mdim_over_the_scan_cap_exit2(files, monkeypatch, capsys):
    # gl(1|1) has 3^2 = 9 characters, over a scan cap of 3: one stderr line
    # that names the cap and points at random sampling
    from superkw import chargeom

    monkeypatch.setattr(chargeom, "SCAN_CAP", 3)
    code = main(["mdim", files["gl11"]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert "scan cap of 3" in err and "--strategy random" in err
    assert main(["mdim", files["gl11"], "--strategy", "random", "--samples", "4"]) == 0


def test_conjecture_gl11(files, tmp_path):
    rep = tmp_path / "rep.json"
    code, _ = run_cli(["conjecture", files["gl11"], "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["conjecture"]["status"] == "agree"
    assert doc["conjecture"]["max_factor_dim"] == {"value": 2, "provenance": "oracle"}
    assert doc["scan"]["exhaustive"] is True
    # provenance tags are everywhere on the numbers that matter
    for rec in doc["per_chi"]:
        assert rec["predicted_dim"]["provenance"] == "predicted"
        assert rec["factor_dims"]["provenance"] == "oracle"


def test_conjecture_oddheis(files, tmp_path):
    rep = tmp_path / "rep.json"
    code, _ = run_cli(["conjecture", files["oddheis"], "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["conjecture"]["mdim_value"]["value"] == 2
    assert doc["conjecture"]["status"] == "agree"


def test_solvable_irr_cmd(files):
    code, out = run_cli(["solvable-irr", files["solv2"], "--chi", "0,1"])
    assert code == 0
    assert "dim = 5" in out


def test_solvable_irr_torus_takes_the_first_weight(tmp_path):
    # an 8-dim torus over GF(3) has 3^8 one-dimensional weights at chi = 0,
    # more than the weight-list cap; the base route needs only the first
    names = [f"t{i}" for i in range(1, 9)]
    lines = ["superkw-lsa v1", "field p=3 k=1"]
    lines += [f"basis {t} even" for t in names]
    lines += [f"pmap {t} {t}:1" for t in names]
    path = tmp_path / "torus8.lsa"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(["solvable-irr", str(path), "--chi", ",".join(["0"] * 8)])
    assert code == 0
    assert "dim = 1 " in out


def test_baby_verma_cmd():
    code, out = run_cli(
        ["baby-verma", "--algebra", "gl(1|1)", "--p", "3", "--chi", "0,0",
         "--lam", "1,0"]
    )
    assert code == 0
    assert "dim = 2" in out
    assert "irreducible = True" in out


def test_baby_verma_bad_weight_exit3():
    code, _ = run_cli(
        ["baby-verma", "--algebra", "gl(1|1)", "--p", "3", "--chi", "1,1",
         "--lam", "0,0"]
    )
    assert code == 3


@pytest.mark.parametrize("field", [["--p", "4"], ["--p", "3", "--k", "0"]])
def test_baby_verma_bad_field_exit3(field, capsys):
    code = main(["baby-verma", "--algebra", "gl(1|1)", *field, "--chi", "0,0",
                 "--lam", "0,0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "catalog error" in err and "Traceback" not in err


def test_penv_cmd(tmp_path):
    text = (
        "superkw-lsa v1\nfield p=3 k=1\n"
        "basis x even\nbasis y1 even\nbasis y2 even\nbasis y3 even\n"
        "bracket x y1 y2:1\nbracket x y2 y3:1\nbracket x y3 y1:1\n"
    )
    pth = tmp_path / "cyc.lsa"
    pth.write_text(text)
    code, out = run_cli(["penv", str(pth)])
    assert code == 0
    assert "added_even = 1" in out
    # the emitted envelope file parses back and has 5 basis elements
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#")) + "\n"
    af = parse_lsa(body)
    assert af.algebra.n == 5
    assert af.algebra.restricted
    assert af.algebra.validate() == []


def test_budget_exit2(files):
    code, _ = run_cli(["conjecture", files["gl11"], "--budget", "10"])
    assert code == 2


# ---------------------------------------------------------------------------
# determinism and the cache


def test_determinism_byte_identical(files, tmp_path):
    pairs = [
        ["validate", files["gl11"]],
        ["mdim", files["osp12"]],
        ["conjecture", files["oddheis"], "--seed", "5"],
        ["solvable-irr", files["solv2"], "--chi", "0,3", "--seed", "2"],
        ["baby-verma", "--algebra", "sl(2)", "--p", "5", "--chi", "0,0,0",
         "--lam", "2"],
    ]
    for args in pairs:
        c1, o1 = run_cli(args)
        c2, o2 = run_cli(args)
        assert c1 == c2
        assert o1 == o2, args


def test_cache_hit_equals_recompute(files, tmp_path):
    af = parse_lsa(Path(files["gl11"]).read_text())
    g = af.algebra
    h = af.content_hash()
    chi = np.array([1, 0], dtype=np.int64)
    cache = OracleCache(str(tmp_path / "cache.json"))
    first = oracle_factors(g, chi, 0, 4000, cache, h)
    assert cache.hits == 0
    again = oracle_factors(g, chi, 0, 4000, cache, h)
    assert cache.hits == 1
    assert first == again
    cache.save()
    fresh = OracleCache(str(tmp_path / "cache.json"))
    third = oracle_factors(g, chi, 0, 4000, fresh, h)
    assert fresh.hits == 1
    assert third == first
    # recompute without the cache agrees
    bare = oracle_factors(g, chi, 0, 4000, None, h)
    assert bare == first


def test_cache_key_sensitivity(monkeypatch):
    import superkw.report as report

    k1 = OracleCache.key("abc", np.array([1, 0]), 0, 4000)
    k2 = OracleCache.key("abc", np.array([0, 1]), 0, 4000)
    k3 = OracleCache.key("abc", np.array([1, 0]), 1, 4000)
    k4 = OracleCache.key("abd", np.array([1, 0]), 0, 4000)
    k5 = OracleCache.key("abc", np.array([1, 0]), 0, 4001)
    # a payload written under another layout is never served
    monkeypatch.setattr(report, "CACHE_SCHEMA", report.CACHE_SCHEMA + 1)
    k6 = OracleCache.key("abc", np.array([1, 0]), 0, 4000)
    assert len({k1, k2, k3, k4, k5, k6}) == 6


def test_chi_out_of_range_exit3(files):
    code, _ = run_cli(["solvable-irr", files["solv2"], "--chi", "0,9"])
    assert code == 3


def test_solvable_irr_oracle_over_budget_exit2(capsys):
    # at chi = (2, 0) the weight needs a degree-5 extension, beyond the
    # default cap, and the oracle's 25-dim regular module is over budget 5
    code = main(["solvable-irr", str(ALGEBRAS / "solv2_p5.lsa"), "--chi", "2,0",
                 "--budget", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("budget:") and "oracle budget is insufficient" in err
    assert "Traceback" not in err


def test_corrupt_cache_exit3(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"abc": [1, 2')
    code = main(["conjecture", files["oddheis"], "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    bad.write_text("[1, 2]")
    assert main(["conjecture", files["oddheis"], "--cache", str(bad)]) == 3


def test_malformed_cache_entry_exit3(tmp_path, capsys):
    # an entry at a valid key that is not a payload oracle_factors writes
    # is refused, not served: neither a traceback nor a false verdict
    heis = str(ALGEBRAS / "heis_p3.lsa")
    path = tmp_path / "c.json"
    assert main(["conjecture", heis, "--cache", str(path)]) == 0
    good = json.loads(path.read_text())
    key = sorted(good)[0]
    factor = {"dim": 3, "superdim": [3, 0], "endo_even": 1, "endo_odd": 0, "geometric_dim": 3}
    for entry in [{"dims": [3]},
                  {"dims": [1], "geometric_dims": [999], "factors": []},
                  {"dims": [3], "geometric_dims": [999], "factors": [factor]},
                  {"dims": [3.0], "geometric_dims": [3], "factors": [factor]},
                  {"dims": [3], "geometric_dims": [3], "factors": [dict(factor, endo_even=True)]},
                  {"dims": [3], "geometric_dims": [3], "factors": [dict(factor, superdim=[2, 0])]},
                  {"dims": [3], "geometric_dims": [1], "factors": [dict(factor, geometric_dim=1)]},
                  {"dims": [3], "geometric_dims": [3], "factors": [[3]]},
                  {"dims": [4], "geometric_dims": [3], "factors": [factor]},
                  [3]]:
        path.write_text(json.dumps(dict(good, **{key: entry})))
        capsys.readouterr()
        code = main(["conjecture", heis, "--cache", str(path)])
        out, err = capsys.readouterr()
        assert code == 3, entry
        assert out == "" and "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "malformed" in err


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["mdim", "{latin1}"],
    ["mdim", "{heis}", "--report", "{dir}/missing/out.txt"],
    ["conjecture", "{oddheis}", "--cache", "{dir}"],
    ["conjecture", "{oddheis}", "--cache", "{dir}/missing/c.json"],
    # the descent needs a solvable algebra: refused before any construction
    ["solvable-irr", "{algebras}/sl2_p5.lsa", "--chi", "1,0,0"],
    ["solvable-irr", "{algebras}/osp1_2_p3.lsa", "--chi", "1,0,0"],
])
def test_unreadable_input_or_unwritable_output_exit3(files, tmp_path, argv, capsys):
    latin1 = tmp_path / "latin1.lsa"
    latin1.write_bytes(b"superkw-lsa v1\n# caf\xe9\n")
    code = main([a.format(dir=tmp_path, latin1=latin1, algebras=ALGEBRAS, **files)
                 for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_cache_save_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = OracleCache(str(path))
    cache.put("k", {"dims": [1]})
    cache.save()
    assert json.loads(path.read_text()) == {"k": {"dims": [1]}}

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    cache.put("k2", {"dims": [2]})
    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        cache.save()
    # the old file is intact and no temporary file is left behind
    assert json.loads(path.read_text()) == {"k": {"dims": [1]}}
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_meataxe_failure_exit2(files, monkeypatch, capsys):
    import superkw.modules as modules

    def give_up(M, seed):
        raise modules.MeataxeFailure(
            "graded Meataxe could not certify a verdict after 64 attempts")

    monkeypatch.setattr(modules, "_find_proper_submodule", give_up)
    code = main(["conjecture", files["oddheis"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "could not certify" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["validate", "{heis}", "--bogus"],
    ["solvable-irr", "{heis}"],               # --chi missing
    ["mdim", "{heis}", "--seed", "x"],
    ["validate", "{heis}", "--ext-cap", "3"],  # read by no validation
    ["validate", "{heis}", "--budget", "1"],   # validation builds no module
    ["mdim", "{heis}", "--budget", "60000"],   # the scan's cap is fixed
    ["penv", "{heis}", "--seed", "9"],         # the envelope is deterministic
    [],
    ["conjecture", "{heis}", "--ext-cap", "3"],  # read by no step of the scan
    ["mdim", "{heis}", "--strategy", "random", "--samples", "0"],
    ["mdim", "{heis}", "--samples", "-2"],
    ["mdim", "{heis}", "--samples", "x"],
    ["solvable-irr", "{heis}", "--chi", "1,0,0", "--ext-cap", "0"],
    ["solvable-irr", "{heis}", "--chi", "1,0,0", "--ext-cap", "-1"],
    ["conjecture", "{heis}", "--strategy", "random", "--samples", "-4"],
    ["conjecture", "{heis}", "--samples", "0"],
    ["validate", "{oddheis}", "--seed", "-1"],
    ["mdim", "{oddheis}", "--seed", "-1"],
    ["conjecture", "{oddheis}", "--seed", "-1"],
])
def test_usage_error_exit3(files, argv, capsys):
    code = main([a.format(**files) for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert "usage:" in err and "Traceback" not in err


def test_conjecture_on_unrestricted_algebra_exit3(tmp_path, capsys):
    # no pmap lines: validate and mdim run, conjecture refuses before the
    # scan and solvable-irr before any construction
    pth = tmp_path / "unrestricted.lsa"
    pth.write_text("superkw-lsa v1\nfield p=3 k=1\nbasis h even\nbasis x even\n"
                   "bracket h x x:1\n")
    assert main(["validate", str(pth)]) == 0
    assert main(["mdim", str(pth)]) == 0
    capsys.readouterr()
    code = main(["conjecture", str(pth)])
    captured = capsys.readouterr()
    assert code == 3
    assert "restricted" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    code = main(["solvable-irr", str(pth), "--chi", "1,0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "restricted" in captured.err and "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1 and captured.out == ""


def test_conjecture_random_samples_reported(files, capsys):
    # the lower bound on --samples leaves valid counts as they were
    code = main(["conjecture", files["oddheis"], "--strategy", "random",
                 "--samples", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["scan"]["samples"] == 2


def test_help_exit0(capsys):
    assert main(["--help"]) == 0
    assert main(["solvable-irr", "--help"]) == 0
    assert "--ext-cap" in capsys.readouterr().out


def test_ext_cap_only_where_read():
    from superkw.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    have = sorted(name for name, sp in sub.choices.items()
                  if "--ext-cap" in sp._option_string_actions)
    assert have == ["solvable-irr"]


def test_seed_and_budget_only_where_read():
    from superkw.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    have = {flag: sorted(name for name, sp in sub.choices.items()
                         if flag in sp._option_string_actions)
            for flag in ("--seed", "--budget")}
    assert have == {
        "--seed": ["baby-verma", "conjecture", "mdim", "solvable-irr", "validate"],
        "--budget": ["baby-verma", "conjecture", "solvable-irr"],
    }


def test_counterexample_exit1_without_traceback(files, monkeypatch, capsys):
    # the two places a CounterexampleError can still come from: a Gram
    # matrix that breaks the grading in the character scan, and a
    # polarization that is not degraded
    import superkw.chargeom as chargeom

    def broken_grams(*args):
        raise chargeom.CounterexampleError("odd Gram block is not symmetric")

    monkeypatch.setattr(chargeom, "_check_grams", broken_grams)
    code = main(["conjecture", files["heis"]])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err == "error: odd Gram block is not symmetric\n"
    monkeypatch.undo()

    monkeypatch.setattr(chargeom, "is_degraded", lambda *args: (False, {"superdim": "(0|0)"}))
    code = main(["solvable-irr", files["gl11"], "--chi", "1,0"])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err == "error: polarization candidate is not degraded: {'superdim': '(0|0)'}\n"
