"""The two-level oracle: the composition factors of the regular module of
U_chi(g) from those of U_chi(g0), each class induced once."""

import os
import re
from functools import lru_cache
from itertools import product as iproduct

import numpy as np
import pytest

from superkw import env, modules, report
from superkw.cli import main
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Field
from superkw.lsafile import parse_lsa_path
from superkw.modules import FactorRecord, composition_factors, composition_factor_modules
from superkw.report import oracle_composition

from conftest import pair_algebra

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")


@lru_cache(maxsize=None)
def _algebra(name):
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
    assert [fac.dim for fac, _ in series] == [9, 9, 9]
    assert len({id(K) for _, K in series}) == 1
    rec = FactorRecord(18, (9, 9), 3, 0, 6)
    assert induced == [(36, [rec, rec])]
    assert rep.factors == [rec] * 6


def test_induced_modules_share_classes(monkeypatch):
    # osp(1|2) at chi = (0,1,2): the first induced module has two 12-dim
    # factor classes, and the 12-dim second one is recognised as one of them
    # without a Meataxe certificate
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
    assert seen == [([12, 12], 2), ([12], 2)]
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


def test_meataxe_failure_names_chi_and_superdim(monkeypatch):
    # with no factor of any polynomial found, no theta can certify a simple
    # module of dimension > 1, and the Meataxe gives up on it
    g = _algebra("gl1_1_p3")
    M = regular_module(ReducedAlgebra(g, np.array([1, 1]))).module
    S = next(fac for fac in composition_factor_modules(M, 0) if fac.dim > 1)
    monkeypatch.setattr(modules, "irreducible_factors", lambda f, m, rng: iter(()))
    with pytest.raises(modules.MeataxeFailure) as exc:
        modules._find_proper_submodule(S, 0)
    msg = str(exc.value)
    assert f"superdimension {S.superdim}" in msg
    assert "chi = [1, 1]" in msg


def test_meataxe_failure_message_from_cli(monkeypatch, capsys):
    monkeypatch.setattr(modules, "irreducible_factors", lambda f, m, rng: iter(()))
    code = main(["conjecture", os.path.join(ALGEBRAS, "gl1_1_p3.lsa")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert re.search(r"superdimension \(\d+, \d+\) at chi = \[\d+, \d+\]", err)
