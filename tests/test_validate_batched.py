"""The batched axiom checks against their loop forms: `p_power` and
`s_corrections` on stacks of vectors, and `validate`'s violation lists
(axiom, witness, message and order) on corrupted copies of the shipped
algebras.  `validate` checks the p-map exactly on the basis and draws
nothing; the scalar rule and the additive expansion that the basis check
implies (Jacobson's theorem) are checked here on seeded samples of
`p_power`, and on p-maps perturbed off their basis values."""

import glob
import os
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkw.classical import catalog
from superkw.gflin import Field
from superkw.lsa import LieSuperAlgebra, centralizer_of
from superkw.lsafile import parse_lsa_path

from conftest import (
    reference_p_power,
    reference_s_corrections,
    reference_validate,
)

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")
NAMES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(ALGEBRAS, "*.lsa")))


@lru_cache(maxsize=None)
def _algebra(name):
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa")).algebra


def _with(g, structure=None, pmap=None):
    return LieSuperAlgebra(g.field, g.names, g.parities,
                           g.structure if structure is None else structure,
                           g.pmap if pmap is None else pmap)


def _jacobi_broken(g, rng):
    """A copy that keeps the grading and the sign rule but changes one
    bracket [x_i, x_j], i < j, by a random vector of the right parity."""
    f, n = g.field, g.n
    c = g.structure.copy()
    while True:
        i, j = sorted(int(a) for a in rng.choice(n, size=2, replace=False))
        target = (g.parities[i] + g.parities[j]) % 2
        v = f.rand(rng, n) * (g.parities == target)
        if np.any(v):
            break
    c[i, j] = f.add_arr(c[i, j], v)
    odd = g.parities[i] * g.parities[j] % 2
    c[j, i] = c[i, j] if odd else f.neg_arr(c[i, j])
    return _with(g, structure=c)


def _raw_random(g, rng):
    """The p-map of g on a random structure tensor: no axiom holds, so
    [x, x] need not vanish for even x."""
    return _with(g, structure=g.field.rand(rng, g.structure.shape))


def _stack(g, rng, rows=24):
    """Random even vectors, with zero rows and one-coordinate rows mixed in."""
    f, n, s = g.field, g.n, g.s_even
    X = np.zeros((rows, n), dtype=np.int64)
    for r in range(rows):
        kind = r % 4
        if kind == 1:
            X[r, int(rng.integers(0, s))] = int(rng.integers(1, f.q))
        elif kind >= 2:
            X[r, :s] = f.rand(rng, s)
    return X


def _variants(name, seed):
    g = _algebra(name)
    rng = np.random.default_rng(seed)
    return [("shipped", g), ("jacobi-broken", _jacobi_broken(g, rng)),
            ("raw", _raw_random(g, rng))]


@pytest.mark.parametrize("name", NAMES)
def test_p_power_rows_match_reference(name):
    for seed in (0, 1):
        for label, g in _variants(name, seed):
            X = _stack(g, np.random.default_rng(seed + 10))
            got = g.p_power(X)
            assert got.shape == X.shape
            for x, row in zip(X, got):
                assert np.array_equal(row, reference_p_power(g, x)), (label, x)
            # a single vector, and a stack of stacks, keep their shapes
            assert np.array_equal(g.p_power(X[3]), got[3])
            assert np.array_equal(g.p_power(X.reshape(2, -1, g.n)), got.reshape(2, -1, g.n))


@pytest.mark.parametrize("name", NAMES)
def test_s_corrections_rows_match_reference(name):
    for seed in (0, 1):
        for label, g in _variants(name, seed):
            rng = np.random.default_rng(seed + 20)
            X, Y = _stack(g, rng), _stack(g, rng)[::-1].copy()
            got = g.s_corrections(X, Y)
            assert got.shape == X.shape
            for x, y, row in zip(X, Y, got):
                assert np.array_equal(row, reference_s_corrections(g, x, y)), (label, x, y)
            assert np.array_equal(g.s_corrections(X[5], Y[5]), got[5])


def _corrupt(g, kind, rng):
    """A copy of g with one corruption of the given kind at a random place,
    or None where g has no place for it."""
    f, n, s = g.field, g.n, g.s_even
    par = g.parities
    if kind == "sign-flip":
        # an odd [x_i, x_i] is its own image under the sign rule
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if (i != j or par[i] == 0) and np.any(g.structure[i, j])]
        if not pairs:
            return None
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        c = g.structure.copy()
        c[i, j] = f.neg_arr(c[i, j])
        return _with(g, structure=c)
    if kind == "jacobi":
        return _jacobi_broken(g, rng)
    if kind == "grading":
        i, j = (int(a) for a in rng.integers(0, n, size=2))
        wrong = np.flatnonzero(par != (par[i] + par[j]) % 2)
        if not len(wrong):
            return None
        c = g.structure.copy()
        c[i, j, int(rng.choice(wrong))] = int(rng.integers(1, f.q))
        return _with(g, structure=c)
    if kind == "p-map-parity":
        if g.t_odd == 0:
            return None
        pm = g.pmap.copy()
        pm[int(rng.integers(0, s)), int(rng.integers(s, n))] = int(rng.integers(1, f.q))
        return _with(g, pmap=pm)
    if kind == "p-map-ad":
        pm = g.pmap.copy()
        v = np.zeros(n, dtype=np.int64)
        v[:s] = f.rand(rng, s)
        i = int(rng.integers(0, s))
        pm[i] = f.add_arr(pm[i], v)
        return _with(g, pmap=pm)
    raise ValueError(kind)


KINDS = ["sign-flip", "jacobi", "grading", "p-map-parity", "p-map-ad"]


def _listing(vs):
    return [(v.axiom, v.witness, v.message) for v in vs]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", NAMES)
def test_validate_matches_reference_on_corruptions(name, kind):
    g = _algebra(name)
    for seed in (0, 1):
        bad = _corrupt(g, kind, np.random.default_rng(seed))
        if bad is None:
            continue
        got = _listing(bad.validate(seed=seed))
        assert got == reference_validate(bad)
        # the witnesses are plain ints, so a printed violation reads as before
        assert all(type(a) is int for _, w, _ in got for a in w)


def test_validate_finds_each_corruption(gl11):
    g = gl11.algebra
    expect = {"sign-flip": "super-skew", "jacobi": "super-jacobi", "grading": "grading",
              "p-map-parity": "pmap-parity", "p-map-ad": "p-map-ad"}
    for kind, axiom in expect.items():
        found = set()
        for seed in range(5):
            found |= {v.axiom for v in _corrupt(g, kind, np.random.default_rng(seed)).validate()}
        assert axiom in found, kind


CATALOG = [("sl(2|1)", 3, 1), ("gl(2|1)", 3, 1), ("gl(1|1)", 3, 2)]
ALL = NAMES + CATALOG


def _label(source):
    return source if isinstance(source, str) else "{}-p{}-k{}".format(*source)


@lru_cache(maxsize=None)
def _any_algebra(source):
    """A shipped file by name, or a catalog entry (name, p, k)."""
    return _algebra(source) if isinstance(source, str) else catalog(*source).algebra


def _even_draws(g, rng, rows):
    X = np.zeros((rows, g.n), dtype=np.int64)
    X[:, :g.s_even] = g.field.rand(rng, (rows, g.s_even))
    return X


def _rule_failures(g, p_power, seed, samples=200):
    """The p-map rules that fail for `p_power` on `samples` seeded draws
    each: "scalar" if (c x)^[p] = c^p x^[p] fails for some draw, then, drawn
    and checked whether or not that failed, "sum" if
    (x + y)^[p] = x^[p] + y^[p] + sum s_i(x, y) fails for some draw.
    `p_power(g, X)` takes a stack of even vectors."""
    f = g.field
    rng = np.random.default_rng(seed)
    X = _even_draws(g, rng, samples)
    C = f.rand(rng, samples)
    out = []
    if np.any(p_power(g, f.mul_arr(C[:, None], X))
              != f.mul_arr(f.pow_arr(C, f.p)[:, None], p_power(g, X))):
        out.append("scalar")
    X, Y = _even_draws(g, rng, samples), _even_draws(g, rng, samples)
    rhs = f.add_arr(f.add_arr(p_power(g, X), p_power(g, Y)), g.s_corrections(X, Y))
    if np.any(p_power(g, f.add_arr(X, Y)) != rhs):
        out.append("sum")
    return out


def _reference_rows(g, X):
    return np.array([reference_p_power(g, x) for x in X], dtype=np.int64).reshape(X.shape)


@pytest.mark.parametrize("source", ALL, ids=_label)
def test_p_map_rules_hold_on_samples(source):
    # the loop-form p-map obeys both rules on 200 draws each, and the
    # batched one agrees with it on every draw
    g = _any_algebra(source)
    checked = []

    def both(g, X):
        got = g.p_power(X)
        assert np.array_equal(got, _reference_rows(g, X))
        checked.append(len(X))
        return got

    assert _rule_failures(g, both, seed=0) == []
    assert sum(checked) == 5 * 200


def _bump(f, x, out):
    """Add 1 to coordinate 0 of out on the rows whose input has coordinate
    0 equal to 1: a p-map that breaks the scalar rule and the additive
    expansion on some draws, row by row."""
    out = out.copy()
    out[..., 0] = f.add_arr(out[..., 0], (np.asarray(x)[..., 0] == 1).astype(np.int64))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_additive_samples_after_scalar_failure(name):
    # the sampled rules catch a p-map that breaks them, and the additive
    # expansion is drawn and checked after the scalar rule has failed
    g = _algebra(name)
    for seed in range(4):
        assert _rule_failures(g, lambda g, X: _bump(g.field, X, g.p_power(X)), seed) \
            == ["scalar", "sum"]
        assert _rule_failures(g, LieSuperAlgebra.p_power, seed) == []


def _centre_even(g):
    """A basis of the even part of the centre of g, as rows."""
    return centralizer_of(g, g.full_space()).even_rows()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(ALL), st.integers(0, 2**32 - 1), st.booleans())
def test_perturbed_p_map_validates_exactly_when_ad_vanishes(source, seed, central):
    # x_i^[p] + w is a p-map value exactly when ad w = 0; then the rules
    # still hold for the new p-map, as Jacobson's theorem says
    g = _any_algebra(source)
    f, s = g.field, g.s_even
    rng = np.random.default_rng(seed)
    i = int(rng.integers(0, s))
    centre = _centre_even(g)
    if central and len(centre):
        w = f.matmul(f.rand(rng, len(centre)), centre)
    else:
        w = _even_draws(g, rng, 1)[0]
    pm = g.pmap.copy()
    pm[i] = f.add_arr(pm[i], w)
    h = _with(g, pmap=pm)
    got = _listing(h.validate())
    if np.any(g.ad_matrix(w)):
        assert got == [("p-map-ad", (i,), f"ad({g.names[i]}^[p]) differs from ad({g.names[i]})^p")]
    else:
        assert got == []
        assert _rule_failures(h, LieSuperAlgebra.p_power, seed, samples=50) == []


@pytest.mark.parametrize("source", ALL, ids=_label)
def test_validate_draws_nothing(source, monkeypatch):
    g = _any_algebra(source)
    bad = _corrupt(g, "p-map-ad", np.random.default_rng(0))
    for h in (g, bad):
        lists = [_listing(h.validate(seed=seed)) for seed in range(4)]
        assert all(got == lists[0] for got in lists)

    def refuse(*args, **kwargs):
        raise AssertionError("validate computed a p-th power or drew a vector")

    monkeypatch.setattr(LieSuperAlgebra, "p_power", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    if isinstance(source, str):
        g = parse_lsa_path(os.path.join(ALGEBRAS, f"{source}.lsa")).algebra
        assert g.validate() == []
    else:
        # the catalog validates what it builds
        assert catalog(*source).algebra.validate() == []


def test_validate_without_samples_or_even_part():
    assert _algebra("osp1_2_p3").validate() == []
    f = Field(3)
    odd_only = LieSuperAlgebra(f, ["a"], [1], np.zeros((1, 1, 1), dtype=np.int64),
                               np.zeros((0, 1), dtype=np.int64))
    assert odd_only.validate() == []


def test_build_large_setup_is_batched(monkeypatch):
    # the set-up of the build-large benchmark workload: catalog sl(2|1) at
    # p = 3 (which validates itself) and validate the GF(9) osp(1|2) file
    calls = []
    matmul = Field.matmul

    def counting(self, a, b):
        calls.append(1)
        return matmul(self, a, b)

    monkeypatch.setattr(Field, "matmul", counting)
    assert catalog("sl(2|1)", 3).algebra.validate() == []
    assert _algebra("osp1_2_p3k2").validate() == []
    assert len(calls) < 1000
