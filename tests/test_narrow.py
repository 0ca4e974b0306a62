"""Action tensors in the field's narrow code dtype: `Field.narrow`, field
products on narrow inputs, every module producer, and the per-generator
subquotient and word steps against the one-block formulas they replace."""

import os

import numpy as np
import pytest

from superkw.classical import baby_verma, catalog
from superkw.env import ReducedAlgebra, character_module, regular_module
from superkw.gflin import Echelon, Field, FieldError
from superkw.lsa import LsaError, Subspace, as_subalgebra
from superkw.lsafile import parse_lsa_path
from superkw.modules import (
    SuperModule,
    _words_applied,
    composition_series,
    quotient_module,
    spin_many,
    submodule_module,
)

from conftest import restrict_module

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")


def _alg(name):
    return parse_lsa_path(os.path.join(ALGEBRAS, name + ".lsa")).algebra


def _regular(name, chi):
    g = _alg(name)
    return regular_module(ReducedAlgebra(g, np.array(chi, dtype=np.int64))).module


# ---------------------------------------------------------------------------
# Field.narrow


@pytest.mark.parametrize("p, k, dtype", [
    (3, 1, np.uint8), (3, 2, np.uint8), (5, 3, np.uint8),
    (3, 7, np.uint16), (3, 11, np.int64),
])
def test_narrow_dtype_follows_from_q(p, k, dtype):
    f = Field(p, k)
    assert f.code_dtype == dtype
    codes = np.array([0, 1, f.q - 1], dtype=np.int64)
    out = f.narrow(codes)
    assert out.dtype == dtype
    assert out.astype(np.int64).tolist() == codes.tolist()


def test_narrow_keeps_an_array_already_narrow():
    f = Field(3)
    a = np.array([[0, 1], [2, 0]], dtype=np.uint8)
    assert f.narrow(a) is a
    assert f.narrow(np.zeros((0, 4), dtype=np.int64)).dtype == np.uint8


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (3, 7), (3, 11)])
def test_narrow_rejects_entries_outside_the_codes(p, k):
    f = Field(p, k)
    for bad in (-1, f.q):
        with pytest.raises(FieldError):
            f.narrow(np.array([0, bad, 1], dtype=np.int64))


def test_a_module_rejects_an_action_outside_the_codes():
    g = _alg("gl1_1_p3")
    # 3 is no code of GF(3); 259 is none either, though as uint8 it would
    # wrap to 3
    for bad in (3, 259, -1):
        with pytest.raises(FieldError):
            SuperModule(alg=g, chi=np.zeros(g.s_even, dtype=np.int64),
                        parities=np.zeros(1, dtype=np.int64),
                        action=np.full((g.n, 1, 1), bad, dtype=np.int64))


# ---------------------------------------------------------------------------
# Field.matmul on narrow inputs


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (3, 7)])
def test_matmul_on_narrow_inputs_equals_int64_inputs(p, k):
    f = Field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    shapes = [
        ((5, 7), (7, 4)),        # matrices
        ((3, 5, 7), (7, 4)),     # a stack times a matrix
        ((3, 5, 7), (3, 7, 2)),  # stacks
        ((5, 7), (7,)),          # matrix times vector
        ((7,), (7, 4)),          # vector times matrix
        ((7,), (7,)),            # vectors
    ]
    for sa, sb in shapes:
        a, b = f.rand(rng, sa), f.rand(rng, sb)
        want = f.matmul(a, b)
        for x, y in ((f.narrow(a), f.narrow(b)), (f.narrow(a), b), (a, f.narrow(b))):
            got = f.matmul(x, y)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# every producer yields the narrow dtype


def _narrow(M):
    return M.action.dtype == M.alg.field.code_dtype


@pytest.mark.parametrize("name, chi", [
    ("gl1_1_p3", (1, 0)), ("heis_p3", (0, 1, 0)), ("osp1_2_p3k2", (1, 0, 0)),
])
def test_every_producer_yields_the_narrow_dtype(name, chi):
    g = _alg(name)
    chi = np.array(chi, dtype=np.int64)
    base = character_module(as_subalgebra(g, g.zero_space()).alg, (), ())
    assert _narrow(base)
    M = regular_module(ReducedAlgebra(g, chi)).module
    assert _narrow(M)
    assert _narrow(M.transpose_module())
    rng = np.random.default_rng(1)
    W = _proper_invariant(M, rng)
    assert _narrow(submodule_module(M, W)) and _narrow(quotient_module(M, W))
    for K, _ in composition_series(M, seed=0):
        assert _narrow(K.module)
    even = g.field.eye(g.n)[: g.s_even]
    h = as_subalgebra(g, Subspace(g.field, g.s_even, g.n, even))
    assert _narrow(restrict_module(M, h))


def test_character_and_induced_modules_are_narrow():
    # the weight line is `character_module`, and the baby Verma module is
    # induced from it, over GF(3) and GF(9)
    for args in (("gl(1|1)", 3, 1), ("osp(1|2)", 3, 2), ("sl(2|1)", 3, 1)):
        e = catalog(*args)
        g, tri = e.algebra, e.triangular
        ind = baby_verma(g, tri, np.zeros(g.s_even, dtype=np.int64),
                         np.zeros(tri.cartan.dim, dtype=np.int64))
        assert _narrow(ind.base) and _narrow(ind.module)
        S = character_module(ind.h.alg, ind.base.chi, np.zeros(ind.h.alg.s_even, dtype=np.int64))
        assert _narrow(S)
        assert np.array_equal(S.action, ind.base.action)


# ---------------------------------------------------------------------------
# the per-generator steps against the one-block formulas


def one_block_submodule(M, W):
    """The action on an invariant W from one product over all generators."""
    f = M.alg.field
    images = f.matmul(M.action, W.basis.T)
    assert not np.any(W.reduce(images.transpose(0, 2, 1).reshape(-1, M.dim)))
    return images[:, W.pivots, :]


def one_block_quotient(M, W):
    """The action on M / W from one reduction of all generators' images."""
    keep = W.complement_columns()
    r, n = len(keep), M.alg.n
    images = M.action[:, :, keep].transpose(0, 2, 1).reshape(n * r, M.dim)
    return W.reduce(images)[:, keep].reshape(n, r, r).transpose(0, 2, 1)


def _proper_invariant(M, rng):
    """The spin of a random vector's image under a random generator: a
    proper nonzero invariant subspace, drawn until one is."""
    f = M.alg.field
    while True:
        v = f.matmul(M.action[rng.integers(0, M.alg.n)], f.rand(rng, M.dim))
        if np.any(v):
            W = spin_many(M, v[None, :])
            if W.dim < M.dim:
                return W


@pytest.mark.parametrize("name, chi", [
    ("heis_p3", (0, 1, 0)), ("heis_p3", (0, 0, 0)),
    ("gl1_1_p3", (1, 0)), ("gl1_1_p3", (0, 0)),
    ("osp1_2_p3k2", (1, 0, 0)),
])
def test_subquotients_equal_the_one_block_formula(name, chi):
    M = _regular(name, chi)
    rng = np.random.default_rng(7)
    for _ in range(4):
        W = _proper_invariant(M, rng)
        assert np.array_equal(submodule_module(M, W).action, one_block_submodule(M, W))
        assert np.array_equal(quotient_module(M, W).action, one_block_quotient(M, W))


def test_submodule_rejects_a_subspace_that_is_not_invariant():
    M = _regular("gl1_1_p3", (1, 0))
    f = M.alg.field
    with pytest.raises(LsaError):
        submodule_module(M, Echelon(f, M.dim, f.eye(M.dim)[1:2]))


def all_generators_words(M, V, levels):
    """`_words_applied` by its first formula: every generator on every word
    of a level, then the images the level keeps."""
    f = M.alg.field
    n, dim, r = M.alg.n, M.dim, V.shape[0]
    out = np.zeros((1 + sum(len(gens) for gens, _ in levels), dim, r), dtype=np.int64)
    out[0] = V.T
    lo, hi = 0, 1
    for gens, srcs in levels:
        images = f.matmul(M.action, out[lo:hi].transpose(1, 0, 2).reshape(dim, -1))
        images = images.reshape(n, dim, hi - lo, r)
        out[hi : hi + len(gens)] = images[gens, :, srcs - lo]
        lo, hi = hi, hi + len(gens)
    return out


@pytest.mark.parametrize("name, chi", [
    ("gl1_1_p3", (1, 0)), ("heis_p3", (0, 1, 0)),
    ("osp1_2_p3", (1, 1, 0)), ("osp1_2_p3k2", (1, 0, 0)),
])
def test_words_applied_equals_the_all_generators_formula(name, chi):
    M = _regular(name, chi)
    f = M.alg.field
    # the unit of the regular module generates it
    levels = spin_many(M, f.eye(M.dim)[:1]).levels
    rng = np.random.default_rng(3)
    for target in (M, M.transpose_module()):
        V = f.rand(rng, (3, M.dim))
        got = _words_applied(target, V, levels)
        assert got.dtype == f.code_dtype
        assert np.array_equal(got, all_generators_words(target, V, levels))
