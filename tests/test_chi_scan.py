"""The character layer against its full-Gram, two-pass form: `chi_geometry`
on every character of the shipped algebras and of three catalog algebras,
`max_exponents` for both strategies and across block boundaries, the number
of characters one scan visits, and the scan's checks of the grading."""

import glob
import os
from functools import lru_cache

import numpy as np
import pytest

from superkw import chargeom
from superkw.chargeom import (
    CounterexampleError,
    characters,
    chi_geometry,
    gram_matrix,
    max_exponents,
)
from superkw.classical import catalog
from superkw.gflin import Field, ranks
from superkw.lsa import LieSuperAlgebra
from superkw.lsafile import parse_lsa_path

from conftest import reference_chi_geometry, reference_max_exponents

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")
FILES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(ALGEBRAS, "*.lsa")))
CATALOG = {
    "sl(2|1) p=3": ("sl(2|1)", 3),
    "gl(2|1) p=3": ("gl(2|1)", 3),
    "osp(1|2) p=3 k=2": ("osp(1|2)", 3, 2),
}
NAMES = FILES + list(CATALOG)


@lru_cache(maxsize=None)
def _algebra(label):
    if label in CATALOG:
        return catalog(*CATALOG[label]).algebra
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{label}.lsa")).algebra


def _same_report(got, want):
    assert got.pairs == want.pairs
    assert [w.tolist() for w in got.witnesses] == [w.tolist() for w in want.witnesses]
    assert got.value_exponents == want.value_exponents
    assert (got.exhaustive, got.scanned) == (want.exhaustive, want.scanned)
    assert (got.b0_max, got.b1_max) == (want.b0_max, want.b1_max)
    if want.simultaneous_witness is None:
        assert got.simultaneous_witness is None
    else:
        assert got.simultaneous_witness.tolist() == want.simultaneous_witness.tolist()


@pytest.mark.parametrize("label", NAMES)
def test_chi_geometry_matches_full_gram(label):
    g = _algebra(label)
    for chi in characters(g.field, g.s_even, exhaustive=True):
        got, want = chi_geometry(g, chi), reference_chi_geometry(g, chi)
        assert (got.even_rank, got.odd_rank) == (want.even_rank, want.odd_rank)
        assert got.exp_pair == want.exp_pair
        assert got.max_isotropic == want.max_isotropic
        assert np.array_equal(got.centralizer.basis, want.centralizer.basis)
        assert got.centralizer.pivots == want.centralizer.pivots
        assert np.array_equal(got.even_gram, want.even_gram)
        assert np.array_equal(got.odd_gram, want.odd_gram)


@pytest.mark.parametrize("label", NAMES)
def test_gram_stack_matches_scalar_sums(label):
    """Each Gram matrix of a stack of characters, entry by entry: chi([x_i,
    x_j]) summed in scalar field operations over the even coordinates of the
    bracket, and the same as the Gram matrix of that character alone."""
    g = _algebra(label)
    f, s = g.field, g.s_even
    chis = f.rand(np.random.default_rng(3), (4, s))
    grams = gram_matrix(g, chis)
    assert grams.shape == (4, g.n, g.n)
    for chi, G in zip(chis, grams):
        for i in range(g.n):
            for j in range(g.n):
                want = 0
                for k in range(s):
                    want = f.add(want, f.mul(int(chi[k]), int(g.structure[i, j, k])))
                assert G[i, j] == want
        assert np.array_equal(G, gram_matrix(g, chi))


@pytest.mark.parametrize("label", NAMES)
def test_max_exponents_matches_two_passes(label):
    g = _algebra(label)
    _same_report(max_exponents(g), reference_max_exponents(g))
    for seed in (0, 1):
        got = max_exponents(g, strategy="random", seed=seed, samples=64)
        _same_report(got, reference_max_exponents(g, "random", seed, samples=64))


@pytest.mark.parametrize("label", ["heis_p3", "osp1_2_p3k2"])
def test_one_geometry_per_character(label, monkeypatch):
    """Each character passes through the Gram product and the rank kernel
    once, and the scan computes at most one full geometry per pair of block
    ranks."""
    g = _algebra(label)
    chis, rows, pairs, geometries = [], [], set(), []

    def counted_gram(g, chi):
        chis.extend(map(tuple, chi.tolist()))
        return gram_matrix(g, chi)

    def counted_ranks(f, stack):
        out = ranks(f, stack)
        rows.append(len(stack))
        pairs.update(map(tuple, out.tolist()))
        return out

    def counted_geometry(g, chi):
        geometries.append(tuple(chi))
        return chi_geometry(g, chi)

    monkeypatch.setattr(chargeom, "gram_matrix", counted_gram)
    monkeypatch.setattr(chargeom, "ranks", counted_ranks)
    monkeypatch.setattr(chargeom, "chi_geometry", counted_geometry)
    max_exponents(g)
    assert len(chis) == len(set(chis)) == sum(rows) == g.field.q**g.s_even
    assert len(geometries) <= len(pairs)
    chis.clear()
    rows.clear()
    max_exponents(g, strategy="random", samples=30, seed=1)
    assert len(chis) == sum(rows) == 30


@pytest.mark.parametrize("label", ["heis_p3", "osp1_2_p3k2"])
def test_block_boundaries_keep_the_scan(label, monkeypatch):
    """Blocks of 7 characters put boundaries mid-scan: the report is still
    the two-pass reference, exhaustive and sampled."""
    g = _algebra(label)
    monkeypatch.setattr(chargeom, "SCAN_BLOCK_BYTES", 7 * 8 * g.n * g.n)
    calls = []

    def counted_ranks(f, stack):
        calls.append(len(stack))
        return ranks(f, stack)

    monkeypatch.setattr(chargeom, "ranks", counted_ranks)
    _same_report(max_exponents(g), reference_max_exponents(g))
    assert max(calls) == 7 and len(calls) == -(-g.field.q**g.s_even // 7)
    for seed in (0, 1):
        got = max_exponents(g, strategy="random", seed=seed, samples=64)
        _same_report(got, reference_max_exponents(g, "random", seed, samples=64))


# the faults in the order the checks take them, with the even basis vector
# that chi must not vanish on for the fault to show, and its error
FAULTS = [
    ("mixed", 0, "mixed-parity Gram block is nonzero: chi does not vanish on odd "
                 "brackets, which contradicts the grading"),
    ("alternating", 1, "even Gram block is not alternating"),
    ("symmetric", 2, "odd Gram block is not symmetric"),
]


def _broken_algebra(faults):
    """An algebra over GF(3) with even x1, x2, x3 and odd y1, y2, built
    without `validate`, whose brackets break the grading where `faults`
    says: [x1, y1] = x1 has an even component ("mixed"), [x2, x2] = x2
    makes the even Gram block not alternating ("alternating"), and
    [y1, y2] = x3 with [y2, y1] = 0 makes the odd block not symmetric
    ("symmetric").  Each fault shows at the characters nonzero on its x."""
    structure = np.zeros((5, 5, 5), dtype=np.int64)
    if "mixed" in faults:
        structure[0, 3, 0] = 1
    if "alternating" in faults:
        structure[1, 1, 1] = 1
    if "symmetric" in faults:
        structure[3, 4, 2] = 1
    return LieSuperAlgebra(Field(3), ["x1", "x2", "x3", "y1", "y2"], [0, 0, 0, 1, 1], structure)


@pytest.mark.parametrize("faults", [("mixed",), ("mixed", "alternating", "symmetric")])
@pytest.mark.parametrize("strategy,seed", [("exhaustive", 0), ("random", 0), ("random", 1)])
@pytest.mark.parametrize("block", [2, None], ids=["block2", "one-block"])
def test_scan_raises_at_first_broken_character(faults, strategy, seed, block, monkeypatch):
    """The scan stops at the first character in scan order whose Gram
    matrix breaks the grading, with the error `chi_geometry` gives there:
    past the first block of 2 characters (the mixed fault first shows at
    the tenth character), and ahead of later characters of its block that
    break it in other ways."""
    g = _broken_algebra(faults)
    if block is not None:
        monkeypatch.setattr(chargeom, "SCAN_BLOCK_BYTES", block * 8 * g.n * g.n)
    for chi in characters(g.field, g.s_even, strategy == "exhaustive", 64, seed):
        shown = [msg for fault, x, msg in FAULTS if fault in faults and chi[x]]
        if shown:
            want = shown[0]
            break
    else:
        pytest.fail("no character breaks the grading")
    with pytest.raises(CounterexampleError) as got:
        chi_geometry(g, chi)
    assert str(got.value) == want
    with pytest.raises(CounterexampleError) as got:
        max_exponents(g, strategy=strategy, seed=seed, samples=64)
    assert str(got.value) == want
