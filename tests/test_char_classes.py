"""Characters up to restricted automorphisms: the generators exp(t ad x)
and the torus scalings, their exact check, the classes they make on a
scanned set, and one oracle call per class in the conjecture report."""

import glob
import itertools
import math
import os
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkw import chargeom, report
from superkw.chargeom import character_classes, characters
from superkw.classical import catalog
from superkw.gflin import Field
from superkw.lsa import (
    LieSuperAlgebra,
    LsaError,
    _kernel_mod,
    is_restricted_automorphism,
    restricted_automorphisms,
)
from superkw.lsafile import parse_lsa_path
from superkw.report import OracleCache, conjecture_report, oracle_factors, render_report

from conftest import (
    brackets_preserved,
    pmap_preserved,
    reference_ad,
    reference_bracket,
    reference_check,
    reference_diagonal_automorphisms,
)

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")
FILES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(ALGEBRAS, "*.lsa")))
CATALOG = {
    "sl(2|1) p=3": ("sl(2|1)", 3), "gl(2|1) p=3": ("gl(2|1)", 3),
    "gl(1|1) p=3 k=2": ("gl(1|1)", 3, 2),
}
# number of generators (exponentials, torus scalings), and of classes on the
# whole character space
GENERATORS = {
    "gl1_1_p3": (0, 1), "heis_p3": (4, 2), "oddheis_p3": (0, 1), "osp1_2_p3": (4, 1),
    "osp1_2_p3k2": (16, 1), "sl2_p5": (8, 1), "solv2_p5": (4, 1), "sl(2|1) p=3": (4, 2),
    "gl(2|1) p=3": (4, 2), "gl(1|1) p=3 k=2": (0, 1),
}
CLASSES = {
    "gl1_1_p3": 9, "heis_p3": 5, "oddheis_p3": 3, "osp1_2_p3": 5, "osp1_2_p3k2": 11,
    "sl2_p5": 6, "solv2_p5": 6, "sl(2|1) p=3": 12, "gl(2|1) p=3": 36, "gl(1|1) p=3 k=2": 81,
}


@lru_cache(maxsize=None)
def _algebra(label):
    if label in CATALOG:
        return catalog(*CATALOG[label]).algebra
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{label}.lsa")).algebra


# the algebras whose (q - 1)^n diagonal maps are few enough to enumerate
ENUMERABLE = [label for label in sorted(GENERATORS)
              if (_algebra(label).field.q - 1) ** _algebra(label).n <= 2**12]


def _all_characters(g):
    return list(characters(g.field, g.s_even, True))


def reference_exp(g, i, t):
    """exp(t ad x_i) column by column: sum over k < p of t^k / k! ad^k e_j,
    one bracket at a time."""
    f, p = g.field, g.field.p
    x = g.basis_vector(i)
    cols = []
    for j in range(g.n):
        term = g.basis_vector(j)
        col = term.copy()
        for k in range(1, p):
            term = reference_bracket(g, x, term)
            c = f.mul(f.pow(t, k), f.inv(math.factorial(k) % p))
            col = f.add_arr(col, f.mul_arr(c, term))
        cols.append(col)
    return np.array(cols, dtype=np.int64).T


def _nilpotent_even(g):
    p = g.field.p
    out = []
    for i in range(g.s_even):
        ad = reference_ad(g, g.basis_vector(i))
        if np.any(ad) and not np.any(g.field.mat_pow(ad, p)):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# generators and the exact check


@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_generators_are_the_exponentials_and_pass_the_check(label):
    g = _algebra(label)
    gens = restricted_automorphisms(g)
    want = [reference_exp(g, i, t) for i in _nilpotent_even(g) for t in range(1, g.field.q)]
    # every candidate passes, in the order (basis vector, t), and the torus
    # scalings follow the exponentials
    assert (len(want), len(gens) - len(want)) == GENERATORS[label]
    for phi, ref in zip(gens, want):
        assert np.array_equal(phi, ref)
    for phi in gens:
        assert is_restricted_automorphism(g, phi)
        assert reference_check(g, phi)
    for phi in gens[len(want):]:
        assert np.array_equal(phi, np.diag(phi.diagonal()))


def _generated(one, gens, op):
    """The finite group that `gens` make under `op`, from its identity."""
    group, todo = {one}, [one]
    while todo:
        cur = todo.pop()
        for a in gens:
            img = op(cur, a)
            if img not in group:
                group.add(img)
                todo.append(img)
    return group


def _diagonal_group(f, gens):
    """The group that diagonal generators make, as the set of its diagonals."""
    return _generated((1,) * gens.shape[-1], [phi.diagonal() for phi in gens],
                      lambda x, c: tuple(int(v) for v in f.mul_arr(np.array(x), c)))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([2, 4, 6, 8, 12]))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4))
    return n, m, rows


@settings(max_examples=100, derandomize=True, deadline=None)
@given(systems())
def test_kernel_mod_generates_every_solution(case):
    n, m, rows = case
    group = _generated((0,) * n, _kernel_mod(rows, n, m),
                       lambda x, a: tuple((u + v) % m for u, v in zip(x, a)))
    assert group == {a for a in itertools.product(range(m), repeat=n)
                     if all(np.dot(row, a) % m == 0 for row in rows)}


@pytest.mark.parametrize("label", ENUMERABLE)
def test_torus_generators_make_every_diagonal_automorphism(label):
    g = _algebra(label)
    torus = restricted_automorphisms(g)[GENERATORS[label][0]:]
    assert _diagonal_group(g.field, torus) == reference_diagonal_automorphisms(g)


def test_enumerable_algebras():
    # osp1_2_p3k2 has 8^5 diagonal maps; every other label is enumerated
    assert set(GENERATORS) - set(ENUMERABLE) == {"osp1_2_p3k2"}


def test_scaling_that_breaks_the_pmap_is_rejected():
    # a torus t with t^[3] = t over GF(9): t -> ct keeps the (zero) bracket,
    # but (ct)^[3] = c^3 t, so only c in GF(3)* = {1, 2} keeps the p-map
    f = Field(3, 2)
    g = LieSuperAlgebra(f, ["t"], [0], np.zeros((1, 1, 1), dtype=np.int64), np.array([[1]]))
    c = 3  # the generator of GF(9) over GF(3)
    phi = np.array([[c]], dtype=np.int64)
    assert brackets_preserved(g, phi)
    assert not pmap_preserved(g, phi)
    assert not is_restricted_automorphism(g, phi)
    assert reference_diagonal_automorphisms(g) == {(1,), (2,)}
    assert _diagonal_group(f, restricted_automorphisms(g)) == {(1,), (2,)}


def test_scaling_of_h_alone_is_rejected():
    # solv2_p5, [h, x] = x and h^[5] = h: h -> 2h keeps the p-map (2^5 = 2
    # in GF(5)) but not the bracket, as [2h, x] = 2x; x -> cx alone keeps both
    g = _algebra("solv2_p5")
    phi = np.diag([2, 1])
    assert pmap_preserved(g, phi)
    assert not brackets_preserved(g, phi)
    assert not is_restricted_automorphism(g, phi)
    assert reference_diagonal_automorphisms(g) == {(1, c) for c in range(1, 5)}


def test_changed_bracket_entry_is_rejected():
    g = _algebra("heis_p3")  # basis z, x, y with [x, y] = z
    phi = restricted_automorphisms(g)[0].copy()
    phi[1, 1] = 2  # phi(x) = 2x: still graded and invertible
    assert not brackets_preserved(g, phi)
    assert not is_restricted_automorphism(g, phi)


def test_bracket_map_that_breaks_the_pmap_is_rejected():
    # gl(1|1) over GF(9): E11, E22 -> E11 + cI, E22 + cI and E21 -> (1 + 2c) E21
    # keeps every bracket, but (E11 + cI)^[3] = E11 + c^3 I, and c^3 != c
    ent = catalog("gl(1|1)", 3, 2)
    g, f = ent.algebra, ent.algebra.field
    assert g.names == ["E11", "E22", "E12", "E21"]
    c = 3  # the generator of GF(9) over GF(3)
    assert f.pow(c, 3) != c
    one_c = f.add(1, c)
    phi = np.array([
        [one_c, c, 0, 0],
        [c, one_c, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, f.add(1, f.mul(2, c))],
    ], dtype=np.int64)
    assert brackets_preserved(g, phi)
    assert not pmap_preserved(g, phi)
    assert not is_restricted_automorphism(g, phi)


def test_singular_and_ungraded_maps_are_rejected():
    g = _algebra("osp1_2_p3")
    # the zero map keeps brackets and p-map alike
    assert not is_restricted_automorphism(g, np.zeros((g.n, g.n), dtype=np.int64))
    swap = g.field.eye(g.n)[:, ::-1].copy()
    assert not is_restricted_automorphism(g, swap)


def test_no_pmap_no_generators():
    g = _algebra("heis_p3")
    plain = LieSuperAlgebra(g.field, g.names, g.parities, g.structure, None)
    assert restricted_automorphisms(plain).shape == (0, 3, 3)
    with pytest.raises(LsaError):
        is_restricted_automorphism(plain, g.field.eye(3))


# ---------------------------------------------------------------------------
# classes


def reference_orbits(g, chis):
    """The orbit of each character under the generators, by breadth-first
    search one image at a time: a label per character."""
    f, s = g.field, g.s_even
    gens = restricted_automorphisms(g)
    label = {}
    for chi in map(tuple, chis):
        if chi in label:
            continue
        label[chi] = chi
        todo = [chi]
        while todo:
            cur = np.array(todo.pop(), dtype=np.int64)
            for phi in gens:
                img = tuple(int(v) for v in f.matmul(cur, phi[:s, :s]))
                if img not in label:
                    label[img] = chi
                    todo.append(img)
    return [label[tuple(chi)] for chi in map(tuple, chis)]


@pytest.mark.parametrize("label", sorted(CLASSES))
def test_classes_of_the_whole_space_are_the_orbits(label):
    g = _algebra(label)
    chis = _all_characters(g)
    reps = character_classes(g, chis)
    assert len(set(reps)) == CLASSES[label]
    orbit = reference_orbits(g, chis)
    for i, r in enumerate(reps):
        # the representative is the first character of its class
        assert r <= i and reps[r] == r
        assert orbit[i] == orbit[r]
    assert len(set(orbit)) == CLASSES[label]


@pytest.mark.parametrize("label", ["heis_p3", "osp1_2_p3", "sl2_p5"])
def test_classes_of_a_sample_lie_in_orbits(label):
    g = _algebra(label)
    full = _all_characters(g)
    orbit = dict(zip(map(tuple, full), reference_orbits(g, full)))
    sample = full[::-3]  # a subset, not in lexicographic order
    reps = character_classes(g, sample)
    for i, r in enumerate(reps):
        assert r <= i and reps[r] == r
        assert orbit[tuple(sample[i])] == orbit[tuple(sample[r])]
    # an edge between two sampled characters joins their classes
    index = {tuple(chi): i for i, chi in enumerate(sample)}
    for phi in restricted_automorphisms(g):
        for i, chi in enumerate(sample):
            j = index.get(tuple(int(v) for v in g.field.matmul(chi, phi[: g.s_even, : g.s_even])))
            if j is not None:
                assert reps[i] == reps[j]


def test_repeated_character_shares_a_class():
    g = _algebra("gl1_1_p3")  # no generators
    chis = [np.array([1, 2]), np.array([0, 0]), np.array([1, 2])]
    assert character_classes(g, chis) == [0, 1, 0]
    assert character_classes(g, []) == []


@pytest.mark.parametrize("label", ["heis_p3", "solv2_p5", "osp1_2_p3"])
def test_oracle_payload_is_constant_on_classes(label):
    g = _algebra(label)
    s = g.s_even
    moved = 0
    for chi in characters(g.field, s, False, 3, seed=7):
        want = oracle_factors(g, chi, 0, 4000)
        for phi in restricted_automorphisms(g):
            image = g.field.matmul(chi, phi[:s, :s])
            moved += not np.array_equal(image, chi)
            assert oracle_factors(g, image, 0, 4000) == want
    assert moved


# ---------------------------------------------------------------------------
# one oracle call per class in the report


def _count_calls(monkeypatch):
    calls = []
    inner = report.oracle_composition

    def counting(g, chi, seed, budget):
        calls.append(np.array(chi).tolist())
        return inner(g, chi, seed, budget)

    monkeypatch.setattr(report, "oracle_composition", counting)
    return calls


def _parse(name):
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa"))


@pytest.mark.parametrize("name,count", [
    ("heis_p3", 5), ("solv2_p5", 6), ("osp1_2_p3", 5), ("gl1_1_p3", 9), ("oddheis_p3", 3)])
def test_one_oracle_call_per_class(name, count, monkeypatch):
    calls = _count_calls(monkeypatch)
    af = _parse(name)
    doc = conjecture_report(af, seed=0)
    chis = [row["chi"] for row in doc["per_chi"]]
    reps = character_classes(af.algebra, chis)
    assert len(calls) == count
    assert calls == [chis[i] for i, r in enumerate(reps) if r == i]


def test_cache_holds_the_representatives(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch)
    af = _parse("heis_p3")
    path = str(tmp_path / "cache.json")
    cache = OracleCache(path)
    first = render_report(conjecture_report(af, seed=0, cache=cache))
    cache.save()
    h = af.content_hash()
    assert set(OracleCache(path).data) == {OracleCache.key(h, chi, 0, 4000) for chi in calls}
    assert len(calls) == 5
    calls.clear()
    fresh = OracleCache(path)
    again = render_report(conjecture_report(af, seed=0, cache=fresh))
    assert calls == [] and fresh.hits == 5
    assert again == first


def test_geometry_once_per_class(monkeypatch):
    count = [0]
    rows = [0]
    inner = chargeom.chi_geometry
    inner_ranks = chargeom.ranks

    def counting(g, chi):
        count[0] += 1
        return inner(g, chi)

    def counting_ranks(f, stack):
        rows[0] += len(stack)
        return inner_ranks(f, stack)

    monkeypatch.setattr(chargeom, "chi_geometry", counting)
    monkeypatch.setattr(report, "chi_geometry", counting)
    monkeypatch.setattr(chargeom, "ranks", counting_ranks)
    conjecture_report(_parse("osp1_2_p3"), seed=0)
    # the maximal-dimension scan takes the block ranks of all 27 characters
    # and no geometry, then the report takes one geometry per class of the 27
    assert rows[0] == 27
    assert count[0] == 5


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", FILES)
def test_oracle_characters_are_exponential_representatives(name, seed, monkeypatch):
    # the torus scalings only merge classes, so the oracle runs at a subset
    # of the characters it ran at with the exponentials alone, each with the
    # same (chi, seed)
    calls = _count_calls(monkeypatch)
    af = _parse(name)
    doc = conjecture_report(af, seed=seed)
    chis = [row["chi"] for row in doc["per_chi"]]
    g = af.algebra
    exponentials = restricted_automorphisms(g)[: GENERATORS[name][0]]
    monkeypatch.setattr(chargeom, "restricted_automorphisms", lambda g: exponentials)
    reps = character_classes(g, chis)
    assert calls and set(map(tuple, calls)) <= {tuple(chis[i]) for i, r in enumerate(reps) if r == i}
