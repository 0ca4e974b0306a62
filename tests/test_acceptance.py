"""Acceptance suite: one test per criterion, each printing a PASS line with
the quantities that matter.  Everything here is exact arithmetic at fixed
seeds; no tolerances apply anywhere."""

import io
from collections import Counter
from contextlib import redirect_stdout

import numpy as np

from superkw.chargeom import SuperDim, chi_geometry, is_degraded, max_exponents, polarization
from superkw.classical import catalog
from superkw.cli import main as cli_main
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Field
from superkw.lsa import LieSuperAlgebra, is_p_closed
from superkw.lsafile import write_lsa
from superkw.modules import composition_factors
from superkw.penv import minimal_p_envelope, verify_envelope
from superkw.report import chi_verdict, conjecture_report

from conftest import (
    degree_reduction_check,
    is_regular_semisimple,
    lambda_set,
    pair_algebra,
    polarization_module,
    regular_verdict,
    zhao_check,
)


def vec(*vals):
    return np.array(vals, dtype=np.int64)


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_axiom_suite(gl11, osp12, solv2_p5, oddheis_p3, heis_p3):
    entries = [gl11, osp12, solv2_p5, oddheis_p3, heis_p3]
    clean = all(ent.algebra.validate() == [] for ent in entries)

    def mutate(g, kind):
        c = g.structure.copy()
        pm = g.pmap.copy() if g.pmap is not None else None
        f = g.field
        if kind == "skew":
            i, j = _first_nonzero_pair(g)
            c[i, j] = f.neg_arr(c[i, j])  # one side only
        elif kind == "jacobi":
            i, j = _first_nonzero_pair(g)
            l = int(np.nonzero(g.structure[i, j])[0][0])
            c[i, j, l] = f.neg(int(c[i, j, l]))
            sign_neg = (g.parities[i] * g.parities[j]) % 2 == 0
            c[j, i, l] = f.neg(int(c[i, j, l])) if sign_neg else int(c[i, j, l])
        elif kind == "grading":
            if g.t_odd:
                c[0, 0, g.s_even] = 1
            else:
                c = c.copy()
                c[0, 0, 0] = f.add(int(c[0, 0, 0]), 1)  # breaks skew instead
        elif kind == "pmap":
            # corrupt the p-value of a non-central even generator so the
            # mutation cannot accidentally be another legal p-operation
            pm = pm.copy()
            i = next(
                t for t in range(g.s_even)
                if np.any(g.ad_matrix(g.basis_vector(t)))
            )
            pm[i, i] = f.add(int(pm[i, i]), 1)
        elif kind == "pmap-parity":
            pm = pm.copy()
            pm[0, g.s_even] = 1
        return LieSuperAlgebra(g.field, g.names, g.parities, c, pm)

    mutations = [
        (gl11, "skew"), (gl11, "jacobi"), (gl11, "grading"), (gl11, "pmap"),
        (gl11, "pmap-parity"),
        (osp12, "skew"), (osp12, "grading"), (osp12, "pmap"),
        (solv2_p5, "grading"), (solv2_p5, "pmap"),
        (oddheis_p3, "grading"),
        (heis_p3, "pmap"),
    ]
    assert len(mutations) == 12
    caught = []
    for ent, kind in mutations:
        bad = mutate(ent.algebra, kind)
        violations = bad.validate()
        caught.append(bool(violations))
    ok = clean and all(caught)
    report_line(
        1, ok,
        f"catalog validates cleanly; 12/12 targeted mutations caught "
        f"({sum(caught)} with named axioms)",
    )


def _first_nonzero_pair(g):
    for i in range(g.n):
        for j in range(i, g.n):
            if np.any(g.structure[i, j]):
                return i, j
    raise AssertionError("abelian algebra passed to a bracket mutation")


def test_criterion_02_gl11_exhaustive_scan(gl11):
    g = gl11.algebra
    from superkw.lsafile import AlgebraFile

    af = AlgebraFile(g, gl11.triangular)
    doc = conjecture_report(af, seed=0, budget=4000, strategy="exhaustive")
    mdim_pairs = doc["mdim"]["pairs"]
    mval = doc["mdim"]["value"]["value"]
    max_dim = doc["conjecture"]["max_factor_dim"]["value"]
    ok = (
        doc["scan"]["exhaustive"]
        and doc["scan"]["count"] == 9
        and mval == 2
        and mdim_pairs == [[0, 1]]
        and max_dim == 2
        and doc["conjecture"]["status"] == "agree"
        and all(rec["factor_dims"]["value"] and sum(
            rec["factor_dims"]["value"]) == 36 for rec in doc["per_chi"])
    )
    report_line(
        2, ok,
        f"gl(1|1) p=3: M = 2 at (0|1); exhaustive 9-character scan, oracle "
        f"dim 36 each; max factor dim {max_dim}; status {doc['conjecture']['status']}",
    )


def test_criterion_03_odd_heisenberg(oddheis_p3):
    g = oddheis_p3.algebra
    geo = chi_geometry(g, vec(1))
    predicted = geo.value(3)
    rep1 = composition_factors(regular_module(ReducedAlgebra(g, vec(1))).module, 0)
    rep2 = composition_factors(regular_module(ReducedAlgebra(g, vec(2))).module, 0)
    rep0 = composition_factors(regular_module(ReducedAlgebra(g, vec(0))).module, 0)
    mrep = max_exponents(g)
    ok = (
        geo.exp_pair == SuperDim(0, 1)
        and predicted == 2
        and rep1.dims == [2, 2, 2]
        and rep2.dims == [2, 2, 2]
        and rep0.dims == [1] * 6
        and mrep.value(3) == 2
        and max(rep1.geometric_dims + rep0.geometric_dims) == 2
    )
    report_line(
        3, ok,
        "odd Heisenberg p=3: nonzero character gives factors {2,2,2} against "
        "prediction 2^ceil(1/2) = 2; zero character gives six lines; M = 2",
    )


def test_criterion_04_solvable_p5(solv2_p5):
    g = solv2_p5.algebra
    r1 = regular_verdict(g, vec(0, 1))
    r2 = regular_verdict(g, vec(3, 2))
    r0 = regular_verdict(g, vec(0, 0))
    rh = regular_verdict(g, vec(2, 0))
    ok = (
        r1["factor_dims"]["value"] == [5] * 5
        and r1["predicted_dim"]["value"] == 5
        and r1["thm_agrees"]
        and r2["factor_dims"]["value"] == [5] * 5
        and r2["thm_agrees"]
        and all(d == 1 for d in r0["geometric_factor_dims"]["value"])
        and all(d == 1 for d in rh["geometric_factor_dims"]["value"])
    )
    report_line(
        4, ok,
        "2-dim solvable p=5: nonzero chi(x) gives {5:5} agreeing with p^1; "
        "chi(x)=0 characters give geometric lines only",
    )


def test_criterion_05_osp12_zhao():
    ent = catalog("osp(1|2)", 3, k=2)
    g, tri = ent.algebra, ent.triangular
    f = g.field
    # regular semisimple character whose weights are rational over GF(9),
    # i.e. a degree-2 extension of the prime field
    c = next(
        cc for cc in range(1, 9)
        if is_regular_semisimple(g, tri, vec(cc, 0, 0))
        and lambda_set(g, tri, vec(cc, 0, 0)).complete
    )
    chi = vec(c, 0, 0)
    zr = zhao_check(g, tri, chi, seed=0)
    geo = chi_geometry(g, chi)
    divisor = geo.value(3)
    oracle = composition_factors(
        regular_module(ReducedAlgebra(g, chi)).module, 0
    )
    kw = chi_verdict(g, chi, {"dims": oracle.dims, "geometric_dims": oracle.geometric_dims,
                              "factors": []})["kw_divisible"]
    mrep = max_exponents(g)
    from superkw.lsafile import AlgebraFile

    af = AlgebraFile(g, tri)
    doc = conjecture_report(af, seed=0, budget=4000, strategy="random", samples=1)
    ok = (
        zr.weights_found == 3
        and zr.extension_degree == 1  # already over the quadratic extension
        and zr.verma_dims == [6, 6, 6]
        and zr.all_verma_irreducible
        and zr.lemma_bound_ok
        and divisor == 6
        and kw
        and mrep.value(3) == 6
        and doc["conjecture"]["status"] == "agree"
    )
    report_line(
        5, ok,
        f"osp(1|2) p=3 over GF(9): all 3 Verma modules dim 6 irreducible; "
        f"oracle factors {dict(Counter(oracle.dims))} divisible by 6; M = 6; "
        f"conjecture agrees",
    )


def test_criterion_06_sl2_classical_degeneration():
    ent5 = catalog("sl(2)", 5)
    mrep = max_exponents(ent5.algebra)
    ent = catalog("sl(2)", 5, k=2)
    g, tri = ent.algebra, ent.triangular
    f = g.field
    c = next(cc for cc in range(1, 25) if f.add(f.pow(cc, 5), cc) == 0)
    chi = vec(c, 0, 0)
    zr = zhao_check(g, tri, chi, seed=0)
    ok = (
        mrep.value(5) == 5
        and mrep.pairs == [SuperDim(1, 0)]
        and is_regular_semisimple(g, tri, chi)
        and zr.verma_dims == [5] * 5
        and zr.all_verma_irreducible
        and zr.lemma_bound_ok
    )
    report_line(
        6, ok,
        "sl(2) p=5 (odd part zero): M = 5 = p^1, baby Verma dim 5 irreducible "
        "at a regular semisimple character; classical first-KW shape recovered",
    )


def test_criterion_07_polarization_pipeline(gl11):
    g = gl11.algebra
    chi = vec(1, 0)
    P = polarization(g, chi)
    okd, diag = is_degraded(g, chi, P)
    closed = is_p_closed(g, P)
    rep = polarization_module(g, chi)
    oracle = composition_factors(
        regular_module(ReducedAlgebra(g, chi)).module, 0
    )
    ok = (
        SuperDim(*P.superdim) == SuperDim(2, 1)
        and okd
        and closed
        and rep.module.dim == 2
        and rep.irreducible
        and set(oracle.geometric_dims) == {2}
    )
    report_line(
        7, ok,
        "gl(1|1) typical character: polarization (2|1) degraded and p-closed; "
        "induced module dim 2 graded-irreducible, equal to the oracle factor "
        "dimension",
    )


def test_criterion_08_equidim_tension_reported(gl11):
    g = gl11.algebra
    r = regular_verdict(g, vec(0, 0))
    ok = (
        r["predicted_dim"]["value"] == 1
        and sorted(set(r["geometric_factor_dims"]["value"])) == [1, 2]
        and r["thm_agrees"] is False
        and r["equidimensional"] is False
    )
    report_line(
        8, ok,
        "gl(1|1) at chi = 0: the verdict reports factor dims {1,2} and "
        "prediction 1, tension recorded (agrees=False) without failing",
    )


def test_criterion_09_degree_reduction_suite(random_solvable_stream):
    count = 0
    for (h, chi, I, ind) in random_solvable_stream(50):
        okr, checked = degree_reduction_check(h, chi, ind, I)
        assert okr, (h.superdim, list(chi))
        count += 1
    report_line(
        9, count == 50,
        f"filtration congruences hold on {count}/50 seeded random completely "
        "solvable instances inside the (4|2) Borel",
    )


def test_criterion_10_p_envelope():
    F3 = Field(3)
    pairs = [
        (0, 1, [0, 0, 1, 0]),
        (0, 2, [0, 0, 0, 1]),
        (0, 3, [0, 1, 0, 0]),
    ]
    g = pair_algebra(F3, ["x", "y1", "y2", "y3"], [0, 0, 0, 0], pairs, None)
    env = minimal_p_envelope(g)
    viol = verify_envelope(g, env)
    g2 = pair_algebra(F3, ["h", "x"], [0, 0], [(0, 1, [0, 1])], None)
    env2 = minimal_p_envelope(g2)
    ok = (
        env.algebra.n == 5
        and env.added_even == 1
        and viol == []
        and env2.added_even == 0
        and verify_envelope(g2, env2) == []
    )
    report_line(
        10, ok,
        "cyclic-shift algebra p=3: envelope of dimension 5 verifies cleanly; "
        "already-restrictable input adjoins nothing",
    )


def test_criterion_11_determinism(tmp_path):
    files = {}
    for name, p, k, fname in [
        ("gl(1|1)", 3, 1, "gl11.lsa"),
        ("odd-heisenberg", 3, 1, "oddheis.lsa"),
        ("2dim-solvable", 5, 1, "solv2.lsa"),
    ]:
        ent = catalog(name, p, k)
        pth = tmp_path / fname
        pth.write_text(write_lsa(ent.algebra, ent.triangular))
        files[fname.split(".")[0]] = str(pth)
    cyc = tmp_path / "cyc.lsa"
    cyc.write_text(
        "superkw-lsa v1\nfield p=3 k=1\n"
        "basis x even\nbasis y1 even\nbasis y2 even\nbasis y3 even\n"
        "bracket x y1 y2:1\nbracket x y2 y3:1\nbracket x y3 y1:1\n"
    )
    commands = [
        ["validate", files["gl11"], "--seed", "3"],
        ["mdim", files["gl11"], "--seed", "3"],
        ["conjecture", files["oddheis"], "--seed", "3"],
        ["conjecture", files["gl11"], "--seed", "11"],
        ["solvable-irr", files["solv2"], "--chi", "0,1", "--seed", "3"],
        ["baby-verma", "--algebra", "gl(1|1)", "--p", "3", "--chi", "0,0",
         "--lam", "2,1", "--seed", "3"],
        ["penv", str(cyc)],
    ]
    identical = True
    for args in commands:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(args)
            outs.append((code, buf.getvalue()))
        if outs[0] != outs[1]:
            identical = False
    report_line(
        11, identical,
        f"{len(commands)} commands byte-identical across repeated runs at "
        "fixed seeds",
    )
