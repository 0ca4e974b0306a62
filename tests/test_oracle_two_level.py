"""The two-level oracle: the composition factors of the regular module of
U_chi(g) from those of U_chi(g0), each class induced once, through
g0 + V for the odd space V that `lsa.kac_odd_space` finds."""

import os
import re
from functools import lru_cache
from itertools import product as iproduct

import numpy as np
import pytest

from superkw import env, modules, report
from superkw.classical import catalog
from superkw.cli import main
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Field
from superkw.lsa import kac_odd_space
from superkw.lsafile import parse_lsa, parse_lsa_path
from superkw.modules import FactorRecord, composition_factors
from superkw.report import oracle_composition

from conftest import pair_algebra, reference_oracle_composition

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")


# catalog algebras that are not in algebras/, by name
CATALOG = {"gl(1|1) GF(9)": ("gl(1|1)", 3, 2), "sl(2|1)": ("sl(2|1)", 3, 1),
           "gl(2|1)": ("gl(2|1)", 3, 1)}


@lru_cache(maxsize=None)
def _algebra(name):
    if name in CATALOG:
        return catalog(*CATALOG[name]).algebra
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa")).algebra


def _characters(name):
    g = _algebra(name)
    return [pytest.param(name, chi, id=f"{name}-{''.join(map(str, chi))}")
            for chi in iproduct(range(g.field.q), repeat=g.s_even)]


@pytest.mark.parametrize(
    "name,chi",
    _characters("oddheis_p3") + _characters("gl1_1_p3") + _characters("osp1_2_p3"))
def test_two_level_matches_regular_module(name, chi):
    g = _algebra(name)
    chi = np.array(chi, dtype=np.int64)
    ref = composition_factors(regular_module(ReducedAlgebra(g, chi)).module, 0)
    assert oracle_composition(g, chi, 0, 4000).factors == ref.factors


@pytest.mark.parametrize(
    "name,chi",
    _characters("gl1_1_p3") + [
        pytest.param("gl(1|1) GF(9)", (0, 1), id="gl11-gf9-01"),
        pytest.param("sl(2|1)", (0, 0, 0, 0), id="sl21-0000"),
        pytest.param("sl(2|1)", (0, 1, 0, 0), id="sl21-0100"),
        pytest.param("gl(2|1)", (0, 1, 0, 0, 1), id="gl21-01001"),
        pytest.param("gl(2|1)", (1, 0, 0, 1, 1), id="gl21-10011")])
def test_kac_path_matches_induction_from_g0(name, chi):
    # the same sorted records as inducing each class from g0 over all of
    # the odd part.  A count that drops the parity-shifted half misses half
    # the regular module, and so does one that drops the 2^(dim V - 1)
    # weight where dim V = 2 (sl(2|1), gl(2|1)); at chi = 0 the factors
    # (a|b) with a != b tell K(S0) from its parity shift
    g = _algebra(name)
    assert kac_odd_space(g).dim > 0
    chi = np.array(chi, dtype=np.int64)
    ref = reference_oracle_composition(g, chi, 0, 4000)
    assert sum(ref.dims) == g.field.p**g.s_even * 2**g.t_odd
    assert oracle_composition(g, chi, 0, 4000).factors == ref.factors


@pytest.mark.parametrize("name,dim_v", [("gl1_1_p3", 1), ("sl(2|1)", 2), ("gl(2|1)", 2),
                                        ("gl(1|1) GF(9)", 1), ("osp1_2_p3", 0),
                                        ("oddheis_p3", 0), ("heis_p3", 0)])
def test_kac_odd_space_is_odd_g0_stable_and_abelian(name, dim_v):
    g = _algebra(name)
    f, s, n = g.field, g.s_even, g.n
    V = kac_odd_space(g)
    assert V.superdim == (0, dim_v)
    assert not np.any(V.basis[:, :s])
    assert V.contains(g.bracket(f.eye(n)[:s, None], V.basis).reshape(-1, n))
    assert not np.any(g.bracket(V.basis[:, None], V.basis))


def test_kac_path_induces_the_smaller_module(monkeypatch):
    # on gl(2|1) each class S0 of g0 is induced once, to 2^(4 - 2) dim S0
    # dimensions, not 2^4 dim S0
    g = _algebra("gl(2|1)")
    sizes = []
    orig = report.induce

    def spy(g, chi, h, S, budget):
        out = orig(g, chi, h, S, budget)
        sizes.append((S.dim, out.module.dim))
        return out

    monkeypatch.setattr(report, "induce", spy)
    rep = oracle_composition(g, np.array([0, 1, 0, 0, 1]), 0, 4000)
    assert sizes and all(d == 4 * d0 for d0, d in sizes)
    assert sum(rep.dims) == 3**5 * 2**4


def test_two_level_weights_by_multiplicity(monkeypatch):
    # osp(1|2) at chi = (1,1,0): the regular module of g0 = sl(2) has one
    # 9-dim class of multiplicity 3, and its 36-dim induced module holds two
    # 18-dim factors, so the regular module of osp(1|2) holds six
    g = _algebra("osp1_2_p3")
    series0, induced = [], []
    orig_series, orig_factors = report.composition_series, report.composition_factors

    def spy_series(M, seed=0, classes=None):
        out = orig_series(M, seed, classes)
        series0.append(out)
        return out

    def spy_factors(M, seed=0, classes=None):
        out = orig_factors(M, seed, classes)
        induced.append((M.dim, out.factors))
        return out

    monkeypatch.setattr(report, "composition_series", spy_series)
    monkeypatch.setattr(report, "composition_factors", spy_factors)
    rep = oracle_composition(g, (1, 1, 0), 0, 4000)
    [series] = series0
    assert [(K.module.dim, side) for K, side in series] == [(9, 0)] * 3
    assert len({id(K) for K, _ in series}) == 1
    rec = FactorRecord(18, (9, 9), 3, 0, 6)
    assert induced == [(36, [rec, rec])]
    assert rep.factors == [rec] * 6


def test_induced_modules_share_classes(monkeypatch):
    # osp(1|2) at chi = (0,1,2): the first induced module has one 12-dim
    # factor class, and of the two 12-dim factors of the second, one is
    # recognised as that class without a Meataxe certificate
    g = _algebra("osp1_2_p3")
    seen = []
    orig = report.composition_factors

    def spy(M, seed=0, classes=None):
        out = orig(M, seed, classes)
        seen.append((out.dims, len(classes)))
        return out

    certified = []
    orig_meataxe = modules._find_proper_submodule

    def spy_meataxe(M, seed):
        out = orig_meataxe(M, seed)
        if isinstance(out, modules.FactorClass):
            certified.append(M.dim)
        return out

    monkeypatch.setattr(report, "composition_factors", spy)
    monkeypatch.setattr(modules, "_find_proper_submodule", spy_meataxe)
    oracle_composition(g, (0, 1, 2), 0, 4000)
    assert seen == [([12], 1), ([12, 12], 2)]
    assert certified.count(12) == 2


def test_no_identity_induction_without_odd_part(monkeypatch):
    # sl(2) has t = 0, so g0 = g: one regular module, built by the one
    # induction inside `regular_module`, and no induction of its classes
    g = _algebra("sl2_p5")
    inside, direct = [], []
    orig = env.induce

    def spy_env(*args, **kwargs):
        inside.append(args[3].dim)
        return orig(*args, **kwargs)

    def spy_report(*args, **kwargs):
        direct.append(args[3].dim)
        return orig(*args, **kwargs)

    monkeypatch.setattr(env, "induce", spy_env)
    monkeypatch.setattr(report, "induce", spy_report)
    rep = oracle_composition(g, (1, 0, 0), 0, 4000)
    assert inside == [1] and direct == []
    assert sum(rep.dims) == 125


def test_purely_odd_algebra(monkeypatch):
    # g0 = 0: the regular module is decomposed itself, as for t = 0
    g = pair_algebra(Field(3), ["x", "y"], [1, 1], [(0, 1, [0, 0])],
                     pmap_rows=np.zeros((0, 2), dtype=np.int64))
    direct = []
    monkeypatch.setattr(report, "induce", lambda *args, **kwargs: direct.append(args))
    chi = np.zeros(0, dtype=np.int64)
    ref = composition_factors(regular_module(ReducedAlgebra(g, chi)).module, 0)
    assert oracle_composition(g, chi, 0, 4000).factors == ref.factors
    assert direct == [] and len(ref.factors) == 4


# z1, z2 even and y1-y4 odd, [y1, y1] = [y2, y2] = z1 and [y3, y3] = [y4, y4]
# = z2.  At chi = (1, 1) its simple modules are (2|2) and absolutely
# irreducible: each parity side is larger than End_even = GF(3).
# gl1_1_p3's simple modules at (1, 1) are (3|3) with End_even = GF(27), as
# large as their sides
CLIFFORD4 = """superkw-lsa v1
field p=3 k=1
basis z1 even
basis z2 even
basis y1 odd
basis y2 odd
basis y3 odd
basis y4 odd
bracket y1 y1 z1:1
bracket y2 y2 z1:1
bracket y3 y3 z2:1
bracket y4 y4 z2:1
pmap z1
pmap z2
"""


def test_meataxe_failure_names_chi_and_superdim(monkeypatch):
    # with no singular even element found, only the a = 0 last resort is
    # left, which certifies a simple piece only when each of its parity
    # sides is as large as its even commutant; on CLIFFORD4's (2|2) pieces
    # at (1, 1) that is not so, and the Meataxe gives up on the first
    g = parse_lsa(CLIFFORD4).algebra
    assert g.validate() == []
    pieces = []
    meataxe = modules._find_proper_submodule

    def spy(M, seed):
        pieces.append(M)
        return meataxe(M, seed)

    monkeypatch.setattr(modules, "_find_singular_even", lambda M, rng: None)
    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    with pytest.raises(modules.MeataxeFailure) as exc:
        oracle_composition(g, np.array([1, 1]), 0, 4000)
    S = pieces[-1]
    assert S.dim > 1
    msg = str(exc.value)
    assert f"superdimension {S.superdim}" in msg
    assert "chi = [1, 1]" in msg


def test_meataxe_failure_message_from_cli(monkeypatch, capsys, tmp_path):
    path = tmp_path / "clifford4.lsa"
    path.write_text(CLIFFORD4)
    monkeypatch.setattr(modules, "_find_singular_even", lambda M, rng: None)
    code = main(["conjecture", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert re.search(r"superdimension \(\d+, \d+\) at chi = \[\d+, \d+\]", err)
