"""The incremental echelon kernel and the spin built on it."""

import hashlib
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Echelon, Field, rank, reduce_vector, rref
from superkw.lsafile import parse_lsa_path
from superkw import modules
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
# the second row's residue vanishes in the elimination, so the pivot row of
# the second step comes from the third row
@example((Field(3), 2, [np.array([[1, 0], [2, 0], [0, 1]])]))
def test_extend_blockwise_equals_rref(case):
    f, n, bl = case
    E = Echelon(f, n)
    seen = np.zeros((0, n), dtype=np.int64)
    for b in bl:
        old = E.basis
        took = E.extend(b)
        seen = np.vstack([seen, b])
        r, piv = rref(f, seen)
        assert np.array_equal(E.basis, r[: len(piv)])
        assert E.pivots == piv
        # the rows taken are independent modulo the old space and, with it,
        # span the new one
        assert len(set(took.tolist())) == len(took)
        assert rank(f, np.vstack([old, b[took]])) == len(old) + len(took) == E.dim
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


# sha256 of the rendered seed-0 reports.  A report depends on the Meataxe
# only through the factor records, which do not depend on its random choices:
# a change of which elements and kernels the Meataxe tries must keep these.
# Re-recorded when the unread "ext_cap" key left the report: each report is
# the earlier one, kept since the incremental echelon kernel, with that one
# line removed.
GOLDEN = {
    "oddheis_p3": "7c5f5f32f5202aae1d0de556e7b4a85d30072db5d909f8ebb57c1b04d7633f42",
    "gl1_1_p3": "2b638c0b83e51248f601eb0ae719cd921d54e034fb8df36c931aeba344829c22",
    "heis_p3": "748eb2d3c5ef3466785e3593fbc1535b742b8df4e267331585e485e1a5614fe4",
    "solv2_p5": "c486092dabc50d4b338b569dcd68d696183ee0e22b49417569c3e7ee1215e9ca",
    "osp1_2_p3": "09923922956e1205e7ce2dda84e406eff6fbfbdb041fa8cba71e6e465a2b8171",
    "sl2_p5": "a85213f5897858fa8684e24e0ac65f541304baff2bc4a6127e17a64784170908",
    "osp1_2_p3k2": "a6429d4314d90653d92f8b5dd6bc5f7131d07c29b1c5dbb28cfc7eb3452a4314",
}


# The same at seed 1, which samples other characters than seed 0 on sl2_p5
# and osp1_2_p3k2.  Recorded before the torus scalings joined the restricted
# automorphisms: the oracle runs at fewer representatives since, and these
# must hold.
GOLDEN_SEED1 = {
    "oddheis_p3": "ffe15b77ddf2cb5ed8aa48424f44b96db4b3aee2fae66b40d2e39452d10ecb5b",
    "gl1_1_p3": "c64eac1f2603252e321ccd018cb6e54547f03ccd1d4223acf9bae7ce71554d48",
    "heis_p3": "4b9d61b7a6aaa2a39ce709dda8313a1a2b897533659f0738831af5619566049d",
    "solv2_p5": "e27f1c72a3922539df44a4e4fbaedbf1ce4912f77fc35eb4846fa7360945a471",
    "osp1_2_p3": "b0f11fd774b35246b149ac6f15b3b6d9a96d61a16c7e4c6deb7fc73611bb4950",
    "sl2_p5": "4ff1cb89e7ebb24156693ff78345aaa8a5a121c3f932a52f893cd35c4e699af6",
    "osp1_2_p3k2": "fd9d206883d6f55db40639a5fc812b5007030dbdf8bdccfa4f0493eccb2165bc",
}


def _digest(name, seed):
    af = parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa"))
    text = render_report(conjecture_report(af, seed=seed))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name):
    assert _digest(name, 0) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SEED1))
def test_seed1_report_bytes_unchanged(name):
    assert _digest(name, 1) == GOLDEN_SEED1[name]


# The Meataxe's path in the seed-0 conjecture run: the calls of
# `_find_singular_even`, `spin`, `FactorClass` constructions and
# `FactorClass._maps`.  Which images a spin takes for its standard basis
# changes no Hom or End answer (each is a null space over the kernel rows,
# whose basis depends only on the subspace), so it must change none of
# these counts either.  A 1-dimensional piece takes the one path of every
# piece, to the a = 0 last resort, with two spins (e_0 in the module and in
# its transpose); the End_even decision is made once per piece.
MEATAXE_PATH = {
    "oddheis_p3": (19, 20, 6, 20),
    "gl1_1_p3": (314, 161, 66, 210),
    "heis_p3": (51, 28, 6, 129),
    "solv2_p5": (36, 31, 10, 106),
    "osp1_2_p3": (51, 92, 29, 121),
}


@pytest.mark.parametrize("name", sorted(MEATAXE_PATH))
def test_meataxe_path_is_pinned(monkeypatch, name):
    calls = Counter()

    def counted(owner, attr):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(modules, "_find_singular_even")
    counted(modules, "spin")
    counted(modules.FactorClass, "__init__")
    counted(modules.FactorClass, "_maps")
    conjecture_report(parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa")), seed=0)
    got = tuple(calls[a] for a in ("_find_singular_even", "spin", "__init__", "_maps"))
    assert got == MEATAXE_PATH[name]
