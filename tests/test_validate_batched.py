"""The batched axiom checks against their loop forms: `p_power` and
`s_corrections` on stacks of vectors, and `validate`'s violation lists
(axiom, witness, message and order) on corrupted copies of the shipped
algebras, including the sample stream after a failing scalar rule."""

import glob
import os
from functools import lru_cache

import numpy as np
import pytest

from superkw.classical import catalog
from superkw.gflin import Field
from superkw.lsa import LieSuperAlgebra
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
        assert got == reference_validate(bad, seed=seed)
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


def _bump(f, x, out):
    """Add 1 to coordinate 0 of out on the rows whose input has coordinate
    0 equal to 1: a p-map that breaks the scalar rule and the additive
    expansion on some samples, row by row."""
    out = out.copy()
    out[..., 0] = f.add_arr(out[..., 0], (np.asarray(x)[..., 0] == 1).astype(np.int64))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_additive_samples_after_scalar_failure(name, monkeypatch):
    g = _algebra(name)
    batched = LieSuperAlgebra.p_power
    monkeypatch.setattr(LieSuperAlgebra, "p_power",
                        lambda self, x: _bump(self.field, x, batched(self, x)))
    both = 0
    for seed in range(4):
        got = _listing(g.validate(seed=seed))
        want = reference_validate(
            g, seed=seed, p_power=lambda g, x: _bump(g.field, x, reference_p_power(g, x)))
        assert got == want
        assert got and got[0][0] == "p-map-scalar" and got[0][1][0] < 199
        both += [a for a, _, _ in got] == ["p-map-scalar", "p-map-sum"]
    # the additive rule fails on some seeds, so its witness pins the stream
    assert both


def test_validate_without_samples_or_even_part():
    assert _algebra("osp1_2_p3").validate(samples=0) == []
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
