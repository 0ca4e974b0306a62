"""The character layer against its full-Gram, two-pass form: `chi_geometry`
on every character of the shipped algebras and of three catalog algebras,
`max_exponents` for both strategies, and the number of characters one scan
visits."""

import glob
import os
from functools import lru_cache

import numpy as np
import pytest

from superkw import chargeom
from superkw.chargeom import characters, chi_geometry, max_exponents
from superkw.classical import catalog
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
def test_max_exponents_matches_two_passes(label):
    g = _algebra(label)
    _same_report(max_exponents(g), reference_max_exponents(g))
    for seed in (0, 1):
        got = max_exponents(g, strategy="random", seed=seed, samples=64)
        _same_report(got, reference_max_exponents(g, "random", seed, samples=64))


@pytest.mark.parametrize("label", ["heis_p3", "osp1_2_p3k2"])
def test_one_geometry_per_character(label, monkeypatch):
    g = _algebra(label)
    calls = []

    def counted(g, chi):
        calls.append(tuple(chi))
        return chi_geometry(g, chi)

    monkeypatch.setattr(chargeom, "chi_geometry", counted)
    max_exponents(g)
    assert len(calls) == len(set(calls)) == g.field.q**g.s_even
    calls.clear()
    max_exponents(g, strategy="random", samples=30, seed=1)
    assert len(calls) == 30

