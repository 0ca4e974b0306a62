"""The incremental echelon kernel and the spin built on it."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Echelon, Field, reduce_vector, rref
from superkw.lsafile import parse_lsa_path
from superkw.modules import spin, spin_many
from superkw.report import conjecture_report, render_report

FIELDS = [Field(3), Field(5), Field(3, 2)]
ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")


@st.composite
def blocks(draw):
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 7))
    # zeros are likely, so that blocks are often dependent on earlier ones
    entry = st.one_of(st.just(0), st.just(0), st.integers(0, f.q - 1))
    shapes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    out = [np.array(draw(st.lists(entry, min_size=r * n, max_size=r * n)),
                    dtype=np.int64).reshape(r, n) for r in shapes]
    return f, n, out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(blocks())
def test_extend_blockwise_equals_rref(case):
    f, n, bl = case
    E = Echelon(f, n)
    seen = np.zeros((0, n), dtype=np.int64)
    for b in bl:
        before = E.dim
        new = E.extend(b)
        seen = np.vstack([seen, b])
        r, piv = rref(f, seen)
        assert np.array_equal(E.basis, r[: len(piv)])
        assert E.pivots == piv
        assert new.shape[0] == E.dim - before
        # the returned rows are rows of the new basis
        for row in new:
            assert any(np.array_equal(row, b_row) for b_row in E.basis)
    probe = np.vstack([seen, np.eye(n, dtype=np.int64)])
    red = E.reduce(probe)
    for v, rv in zip(probe, red):
        assert np.array_equal(rv, reduce_vector(f, E.basis, v))
        c = E.coords(v)
        if np.any(rv):
            assert c is None
        else:
            assert np.array_equal(f.matmul(c[None, :], E.basis).ravel(), v)


def reference_spin(M, rows):
    """Spin by re-echelonizing the whole space after every new vector."""
    f = M.alg.field
    r, piv = rref(f, np.asarray(rows, dtype=np.int64).reshape(-1, M.dim))
    basis = r[: len(piv)]
    fresh = basis
    while fresh.shape[0]:
        cand = np.vstack([f.matmul(fresh, M.action[i].T) for i in range(M.alg.n)])
        new_rows = []
        for row in cand:
            red = reduce_vector(f, basis, row)
            if np.any(red):
                r, piv = rref(f, np.vstack([basis, red[None, :]]))
                basis = r[: len(piv)]
                new_rows.append(red)
        fresh = np.array(new_rows, dtype=np.int64).reshape(-1, M.dim)
    return basis, piv


def _homogeneous(M, rng):
    par = int(rng.integers(0, 2))
    while True:
        v = M.alg.field.rand(rng, M.dim)
        v[M.parities != par] = 0
        if np.any(v):
            return v


@pytest.mark.parametrize("name,chi", [("gl1_1_p3", (0, 0)), ("gl1_1_p3", (1, 0)),
                                      ("osp1_2_p3", (1, 1, 0))])
def test_spin_matches_reference(name, chi):
    g = parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa")).algebra
    M = regular_module(ReducedAlgebra(g, np.array(chi, dtype=np.int64))).module
    rng = np.random.default_rng(11)
    for _ in range(3):
        v = _homogeneous(M, rng)
        W = spin(M, v)
        basis, piv = reference_spin(M, v)
        assert np.array_equal(W.basis, basis) and W.pivots == piv
    rows = np.vstack([_homogeneous(M, rng) for _ in range(2)])
    W = spin_many(M, rows)
    basis, piv = reference_spin(M, rows)
    assert np.array_equal(W.basis, basis) and W.pivots == piv


# sha256 of the rendered seed-0 reports, recorded before spin was rebuilt on
# the incremental kernel; the reduced echelon form is unique, so every basis
# and therefore every random choice of the Meataxe must stay the same
GOLDEN = {
    "oddheis_p3": "432b7972fc47bed66030dce8af960eb71bc7320c4b3d3357e171aa3192493f3f",
    "gl1_1_p3": "98db4cb6094af9c466a76f1ca53ce5c93f5838f343a976da86704534ca8bf6c2",
    # recorded before the polynomial, decomposition, extension and verdict
    # duplicates were merged
    "heis_p3": "76d7da7274d59b9834109c9aa66657d83582d8531f306fe4fb38e81504a2b1d3",
    "solv2_p5": "7cef992dd65eba30398f7b806d86815c802014ee9f8127e302d494285580c8c0",
    # recorded before composition factors were grouped into isomorphism
    # classes
    "osp1_2_p3": "ce099c14e7e1f1660c18cb2b74c3b0d5061aece607148d5f76c52ae3fa7663f2",
    "sl2_p5": "2214411b72013d176c4a2e4fb0f4fa4590dbca1bb007dab1484deba59b3df261",
    "osp1_2_p3k2": "19907857e7eb34f116d5d1f6d524bc3ac53f87397ec6b0ed3c4b9d56b02981d9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name):
    af = parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa"))
    text = render_report(conjecture_report(af, seed=0))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
