"""The batched bracket against its loop form: `bracket` on vectors and on
broadcast stacks, and the structural queries built on one bracket table
(`bracket_span`, `is_subalgebra`, `is_ideal`, `centralizer_of`, the table
of `as_subalgebra`, `_mu_stabilizer`), on every shipped algebra
with random graded subspaces, the zero subspace and the whole algebra."""

import glob
import os
from functools import lru_cache

import numpy as np
import pytest

from superkw.chargeom import chi_value
from superkw.lsa import (
    LsaError,
    as_subalgebra,
    bracket_span,
    centralizer_of,
    derived_series,
    is_ideal,
    is_subalgebra,
    restricted_closure,
)
from superkw.lsafile import parse_lsa_path
from superkw.solvable import _mu_stabilizer

from conftest import (
    center,
    graded_span,
    reference_bracket,
    reference_bracket_span,
    reference_centralizer,
    reference_i_chi,
    reference_is_ideal,
    reference_is_subalgebra,
    reference_mu_stabilizer,
    reference_subalgebra_structure,
)

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")
NAMES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(ALGEBRAS, "*.lsa")))


@lru_cache(maxsize=None)
def _algebra(name):
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa")).algebra


def _subspaces(g, rng, count=8):
    """The zero subspace, the whole algebra, and graded spans of a few
    random vectors each."""
    f = g.field
    out = [g.zero_space(), g.full_space()]
    for _ in range(count):
        k = int(rng.integers(1, g.n + 1))
        out.append(graded_span(f, g.s_even, g.n, f.rand(rng, (k, g.n))))
    return out


def _ideals(g, rng, count=3):
    """The zero ideal, the derived series, the center, and the ideals
    generated by a few random vectors (grown with the loop-form span)."""
    out = [g.zero_space()] + derived_series(g) + [center(g)]
    full = g.full_space()
    for _ in range(count):
        cur = graded_span(g.field, g.s_even, g.n, [g.field.rand(rng, g.n)])
        while True:
            grown = cur.sum_with(reference_bracket_span(g, full, cur))
            if grown.dim == cur.dim:
                break
            cur = grown
        out.append(cur)
    return out


def test_shipped_set_is_found():
    # an empty glob would leave every parametrized test below uncollected
    assert len(NAMES) >= 7


@pytest.mark.parametrize("name", NAMES)
def test_bracket_vectors_and_stacks(name):
    g = _algebra(name)
    f = g.field
    rng = np.random.default_rng(1)
    X = f.rand(rng, (5, g.n))
    Y = f.rand(rng, (4, g.n))
    table = g.bracket(X[:, None], Y)
    assert table.shape == (5, 4, g.n)
    for a in range(5):
        for b in range(4):
            ref = reference_bracket(g, X[a], Y[b])
            assert np.array_equal(table[a, b], ref)
            assert np.array_equal(g.bracket(X[a], Y[b]), ref)
    # one vector against a stack, on either side
    assert np.array_equal(g.bracket(X[0], Y), table[0])
    assert np.array_equal(g.bracket(X, Y[0]), table[:, 0])
    # an empty stack gives an empty table
    assert g.bracket(X[:0, None], Y).shape == (0, 4, g.n)
    with pytest.raises(LsaError):
        g.bracket(X[0, :-1], Y[0])
    with pytest.raises(LsaError):
        g.bracket(X[0], np.int64(1))


@pytest.mark.parametrize("name", NAMES)
def test_span_and_closure_queries(name):
    g = _algebra(name)
    rng = np.random.default_rng(2)
    spaces = _subspaces(g, rng)
    closed = [restricted_closure(g, S) for S in spaces]
    for S in spaces + closed:
        assert is_subalgebra(g, S) == reference_is_subalgebra(g, S)
        assert is_ideal(g, S) == reference_is_ideal(g, S)
        assert centralizer_of(g, S) == reference_centralizer(g, S)
        for T in spaces[:4]:
            assert bracket_span(g, S, T) == reference_bracket_span(g, S, T)
            assert bracket_span(g, T, S) == reference_bracket_span(g, T, S)
    # the closures are subalgebras, so some of the checks above were True
    assert all(is_subalgebra(g, S) for S in closed)


@pytest.mark.parametrize("name", NAMES)
def test_as_subalgebra_table(name):
    g = _algebra(name)
    rng = np.random.default_rng(3)
    spaces = _subspaces(g, rng)
    for S in spaces + [restricted_closure(g, S) for S in spaces]:
        ref = reference_subalgebra_structure(g, S)
        if ref is None:
            with pytest.raises(LsaError):
                as_subalgebra(g, S)
        else:
            assert np.array_equal(as_subalgebra(g, S).alg.structure, ref)


@pytest.mark.parametrize("name", NAMES)
def test_stabilizers(name):
    g = _algebra(name)
    f = g.field
    rng = np.random.default_rng(4)
    for I in _ideals(g, rng):
        for _ in range(2):
            chi = f.rand(rng, g.s_even)
            stab = _mu_stabilizer(g, I, chi_value(g, chi, I.basis))
            assert stab == reference_i_chi(g, I, chi)
            # mu is even: zero on the odd rows of I, as the descent uses it
            mu = f.rand(rng, I.dim)
            mu[I.superdim[0]:] = 0
            assert _mu_stabilizer(g, I, mu) == reference_mu_stabilizer(g, I, mu)
