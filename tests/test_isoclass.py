"""Isomorphism classes in the composition loop: the Hom solve from a class's
certificate that lets a piece inherit a certified factor's class, gives the
class's endomorphism data, and lets the Meataxe decide modules that are not
absolutely irreducible from their even commutant."""

import glob
import os
from collections import Counter
from functools import lru_cache, reduce
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkw import modules
from superkw.classical import catalog
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import (
    Echelon,
    inv_matrix,
    irreducible_factors,
    nullspace,
    poly_deg,
    poly_mod,
    rank,
)
from superkw.lsafile import parse_lsa_path
from superkw.report import conjecture_report
from superkw.modules import (
    SuperModule,
    composition_factors,
    composition_series,
    quotient_module,
    submodule_module,
)

from conftest import (
    composition_factor_modules,
    hom_dims,
    kronecker_endomorphism_dims,
    kronecker_hom_dims,
    meataxe_inputs,
    parity_shift,
    side_module,
)

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")


@lru_cache(maxsize=None)
def _algebra(name):
    if name == "gl(1|1) GF(9)":
        return catalog("gl(1|1)", 3, 2).algebra
    return parse_lsa_path(os.path.join(ALGEBRAS, f"{name}.lsa")).algebra


@lru_cache(maxsize=None)
def _regular(name, chi):
    return regular_module(ReducedAlgebra(_algebra(name), np.array(chi, dtype=np.int64))).module


def _classes(series):
    out = []
    for known, _ in series:
        if all(known is not K for K in out):
            out.append(known)
    return out


def _direct_sum(*mods):
    a = mods[0]
    dim = sum(m.dim for m in mods)
    action = np.zeros((a.alg.n, dim, dim), dtype=np.int64)
    at = 0
    for m in mods:
        action[:, at : at + m.dim, at : at + m.dim] = m.action
        at += m.dim
    return SuperModule(alg=a.alg, chi=a.chi,
                       parities=np.concatenate([m.parities for m in mods]), action=action)


def _random_even_basis_change(M, rng):
    """M conjugated by a random invertible matrix that keeps the parities."""
    f = M.alg.field
    P = np.zeros((M.dim, M.dim), dtype=np.int64)
    for par in (0, 1):
        idx = np.nonzero(M.parities == par)[0]
        while True:
            block = f.rand(rng, (len(idx), len(idx)))
            if rank(f, block) == len(idx):
                break
        P[np.ix_(idx, idx)] = block
    action = f.matmul(inv_matrix(f, P), f.matmul(M.action, P))
    return SuperModule(alg=M.alg, chi=M.chi, parities=M.parities.copy(), action=action)


CERTIFIED = [("osp1_2_p3", (1, 1, 0)), ("gl(1|1) GF(9)", (0, 1)),
             ("gl1_1_p3", (1, 0)), ("heis_p3", (1, 0, 1)), ("osp1_2_p3", (0, 1, 0))]


@pytest.mark.parametrize("name,chi", CERTIFIED)
def test_conjugated_factor_recognised(name, chi):
    rng = np.random.default_rng(17)
    classes = _classes(composition_series(_regular(name, chi), 0))
    assert all(K.cert is not None for K in classes)
    for K in classes:
        for _ in range(2):
            M = _random_even_basis_change(K.module, rng)
            assert M.dim == K.module.dim and any(hom_dims(K, M))
            # the parity shift has the same endomorphism dimensions
            N = parity_shift(M)
            assert N.dim == K.module.dim and any(hom_dims(K, N))


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_gl11_gf9_classes_never_merged(seed):
    series = composition_series(_regular("gl(1|1) GF(9)", (0, 1)), seed)
    classes = _classes(series)
    # three classes alike in dimension, superdimension and nullity
    assert len(classes) == 3
    assert {(K.module.dim, K.module.superdim, len(K.cert.ker)) for K in classes} == {(6, (3, 3), 3)}
    for K in classes:
        for L in classes:
            if K is not L:
                assert not (K.module.dim == L.module.dim and any(hom_dims(L, K.module)))
                assert kronecker_hom_dims(K.module, L.module) == (0, 0)
                assert hom_dims(L, K.module) == (0, 0)
    # every factor is its class's module or that module's parity shift: End
    # is (3, 0), so the maps onto a factor are even on side 0, odd on side 1
    for K, side in series:
        N = side_module(K, side)
        assert kronecker_hom_dims(K.module, N) == ((0, 3) if side else (3, 0))
        assert hom_dims(K, N) == kronecker_hom_dims(K.module, N)
    _check_sides(series, _regular("gl(1|1) GF(9)", (0, 1)))


def _sum_of_smaller(S, facs):
    """A direct sum of factors smaller than S with S's superdimension, or
    None."""
    small = [F for F in facs if F.dim < S.dim]

    def search(start, need):
        if need == (0, 0):
            return []
        for j in range(start, len(small)):
            e, o = small[j].superdim
            if e <= need[0] and o <= need[1]:
                rest = search(j + 1, (need[0] - e, need[1] - o))
                if rest is not None:
                    return [small[j]] + rest
        return None

    parts = search(0, S.superdim)
    return _direct_sum(*parts) if parts else None


def test_same_shape_non_isomorphic_never_accepted():
    sums = 0
    for name, chi in [("gl(1|1) GF(9)", (0, 1)), ("osp1_2_p3", (1, 1, 0)),
                      ("gl1_1_p3", (0, 0)), ("osp1_2_p3", (0, 0, 0))]:
        series = composition_series(_regular(name, chi), 0)
        classes = _classes(series)
        assert classes
        for K in classes:
            S = K.module
            zero = SuperModule(alg=S.alg, chi=S.chi, parities=S.parities.copy(),
                               action=np.zeros_like(S.action))
            # the zero action is S's own only on a trivial 1-dim S
            assert zero.dim == K.module.dim
            assert any(hom_dims(K, zero)) == (not np.any(S.action))
            # the parity shift swaps the even and the odd maps
            ee, eo = K.endo
            assert ee > 0 and hom_dims(K, parity_shift(S)) == (eo, ee)
            M = _sum_of_smaller(S, [side_module(L, side) for L, side in series])
            if M is not None:
                assert M.superdim == S.superdim
                assert not (M.dim == K.module.dim and any(hom_dims(K, M)))
                assert hom_dims(K, M) == (0, 0) == kronecker_hom_dims(S, M)
                sums += 1
    # the 2-dim classes of gl1_1_p3 and the 3- and 5-dim ones of osp1_2_p3
    assert sums >= 3


@pytest.mark.parametrize("name,chi,expect", [("osp1_2_p3", (1, 1, 0), 1),
                                             ("gl(1|1) GF(9)", (0, 1), 3)])
def test_endomorphism_dims_once_per_class(monkeypatch, name, chi, expect):
    calls = []
    orig = modules.endomorphism_dims

    def counting(K):
        calls.append(K.module.dim)
        return orig(K)

    monkeypatch.setattr(modules, "endomorphism_dims", counting)
    for seed in (0, 3):
        calls.clear()
        rep = composition_factors(_regular(name, chi), seed)
        assert len(rep.factors) == 6
        assert len(calls) == expect


def reference_records(M, seed):
    """The composition loop before isomorphism classes: the Meataxe
    certifies every factor, at one seed for every piece, and End is solved
    for every factor."""
    factors, stack = [], [M]
    while stack:
        cur = stack.pop()
        if cur.dim == 0:
            continue
        W = modules._find_proper_submodule(cur, seed)
        if isinstance(W, Echelon):
            stack.append(submodule_module(cur, W))
            stack.append(quotient_module(cur, W))
        else:
            factors.append(cur)
    out = []
    for fac in factors:
        ee, eo = kronecker_endomorphism_dims(fac)
        out.append((fac.dim, fac.superdim, ee, eo, fac.dim // ee))
    return sorted(out)


@st.composite
def characters(draw):
    name = draw(st.sampled_from(["gl1_1_p3", "heis_p3", "osp1_2_p3"]))
    g = _algebra(name)
    chi = tuple(draw(st.integers(0, g.field.p - 1)) for _ in range(g.s_even))
    return name, chi, draw(st.integers(0, 10**6))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(characters())
def test_dedup_matches_reference(case):
    name, chi, seed = case
    M = _regular(name, chi)
    got = [(r.dim, r.superdim, r.endo_even, r.endo_odd, r.geometric_dim)
           for r in composition_factors(M, seed).factors]
    assert sorted(got) == reference_records(M, seed)


@st.composite
def class_cases(draw):
    name = draw(st.sampled_from(["gl1_1_p3", "heis_p3", "solv2_p5", "osp1_2_p3",
                                 "gl(1|1) GF(9)"]))
    g = _algebra(name)
    chi = tuple(draw(st.integers(0, g.field.q - 1)) for _ in range(g.s_even))
    return name, chi, draw(st.integers(0, 10**6))


def _check_sides(series, M):
    """Each factor of a plain Meataxe recursion of M (`meataxe_inputs`) is
    matched to the class of the series that maps onto it, on side 0 when an
    even map does; the series holds each (class, side) as often.  When S has
    an odd endomorphism, S and its parity shift are isomorphic, and every
    factor of the class is on side 0."""
    classes = _classes(series)
    want = Counter()
    for F in meataxe_inputs(M, 0)[1]:
        matches = [(K, kronecker_hom_dims(K.module, F)) for K in classes if K.module.dim == F.dim]
        [(K, hom)] = [(K, hom) for K, hom in matches if hom != (0, 0)]
        want[id(K), 0 if hom[0] else 1] += 1
    assert Counter((id(K), side) for K, side in series) == want


def _check_against_kronecker(M, seed):
    series = composition_series(M, seed)
    for K in _classes(series):
        assert K.endo == kronecker_endomorphism_dims(K.module)
    # every factor, its class's module or that module's parity shift
    for K, side in series:
        N = side_module(K, side)
        assert hom_dims(K, N) == kronecker_hom_dims(K.module, N)
    _check_sides(series, M)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(class_cases())
def test_endo_matches_kronecker(case):
    name, chi, seed = case
    _check_against_kronecker(_regular(name, chi), seed)


@pytest.mark.parametrize("chi", [(0,), (1,), (2,)])
def test_endo_matches_kronecker_oddheis(chi):
    # the 1-dim class at chi = 0 and the (1|1) classes, certified through
    # theta = 0, with an odd endomorphism
    classes = _classes(composition_series(_regular("oddheis_p3", chi), 0))
    assert all(K.cert.recipe == (0, ()) and K.cert.poly == [0, 1] for K in classes)
    assert [K.endo for K in classes] == ([(1, 0)] if chi == (0,) else [(1, 1)])
    _check_against_kronecker(_regular("oddheis_p3", chi), 0)


def test_zero_divisor_of_even_commutant_splits(monkeypatch):
    # a reducible 9-dim (9|0) piece of heis_p3 at chi = (1, 0, 0): f(theta)
    # has a 3-dim kernel, the first vector of it spins to the whole piece,
    # and the even commutant E is 3-dim, as is the kernel, but E is not a
    # field.  Only a zero divisor of E finds the submodule.
    seen, _ = meataxe_inputs(_regular("heis_p3", (1, 0, 0)), 0)
    P = next(N for N in seen if N.superdim == (9, 0))
    assert kronecker_endomorphism_dims(P) == (3, 0)
    orig = modules.FactorClass.random_endomorphism
    dims = []

    def spy(K, rng):
        T, dim_e = orig(K, rng)
        dims.append((len(K.cert.ker), dim_e))
        return T, dim_e

    monkeypatch.setattr(modules.FactorClass, "random_endomorphism", spy)
    for seed in (0, 3, 5, 7):
        dims.clear()
        W = modules._find_proper_submodule(P, seed)
        assert dims == [(3, 3)]
        assert isinstance(W, Echelon) and 0 < W.dim < P.dim
        for row in W.basis:
            assert len({int(P.parities[i]) for i in np.nonzero(row)[0]}) == 1
        assert modules.validate_module(submodule_module(P, W)) == []


@pytest.mark.parametrize("chi", [(0, 4, 8), (0, 8, 4), (7, 1, 7)])
def test_osp12_gf9_decomposes_at_seed_0(chi):
    # at seed 0, the smallest kernels of f(theta) found on a 36-dim (18|18)
    # piece here have parity sides of dimension 6 or more over GF(9), too
    # many points to spin one by one
    rep = composition_factors(_regular("osp1_2_p3k2", chi), 0)
    assert rep.factors == [modules.FactorRecord(18, (9, 9), 3, 0, 6)] * 6


def test_meataxe_class_is_the_series_class(monkeypatch):
    # heis_p3 at chi = (1,0,0) has factors certified in the End(M) step,
    # whose standard basis the Meataxe already used: the composition loop
    # takes the class the Meataxe built, whose certificate holds a spin the
    # Meataxe made, and no spin happens outside the Meataxe
    made, returned = [], []
    init = modules.FactorClass.__init__
    meataxe = modules._find_proper_submodule
    spins, inside = [], []
    spin = modules.spin_many

    def counting_init(K, module, cert):
        made.append(K)
        init(K, module, cert)

    def spy(M, seed):
        inside.append(1)
        try:
            out = meataxe(M, seed)
        finally:
            inside.pop()
        if isinstance(out, modules.FactorClass):
            assert out.module is M
            returned.append(out)
        return out

    def counting_spin(M, rows):
        assert inside, "a spin outside the Meataxe"
        W = spin(M, rows)
        spins.append(W)
        return W

    monkeypatch.setattr(modules.FactorClass, "__init__", counting_init)
    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    monkeypatch.setattr(modules, "spin_many", counting_spin)
    for seed in (0, 3):
        made.clear(), returned.clear(), spins.clear()
        classes = _classes(composition_series(_regular("heis_p3", (1, 0, 0)), seed))
        assert all(K.endo[0] > 0 for K in classes)
        assert any("_standard" in K.__dict__ for K in returned)
        assert all(any(K is R for R in returned) for K in classes)
        # each certificate holds a spin of its own, made by the Meataxe
        assert len({id(K.cert.spun) for K in made}) == len(made)
        assert all(any(K.cert.spun is W for W in spins) for K in made)


@pytest.mark.parametrize("name,chi", [("heis_p3", (1, 0, 0)), ("osp1_2_p3", (1, 1, 0))])
def test_end_even_is_solved_once_per_class(monkeypatch, name, chi):
    # the Meataxe's End(M) step and the endomorphism dimensions share one
    # solve of End_even(S); heis_p3 at chi = (1,0,0) has factors certified
    # in that step
    solves = Counter()
    maps = modules.FactorClass._maps

    def counting(K, M, V):
        if M is K.module and len(V):
            even = M.parities[np.argmax(V != 0, axis=1)] == K.w_parity
            solves[id(K), bool(even[0])] += 1
        return maps(K, M, V)

    monkeypatch.setattr(modules.FactorClass, "_maps", counting)
    for seed in (0, 3):
        solves.clear()
        series = composition_series(_regular(name, chi), seed)
        classes = _classes(series)
        for K in classes:
            assert K.endo == kronecker_endomorphism_dims(K.module)
        assert all(solves[id(K), True] == 1 for K in classes)
        assert max(solves.values()) == 1


@lru_cache(maxsize=None)
def _irreducible(f, poly):
    # no monic divisor of degree 1 .. deg/2, by enumeration (small q only)
    d = poly_deg(poly)
    return all(
        poly_mod(f, list(poly), list(low) + [1])
        for k in range(1, d // 2 + 1)
        for low in iproduct(range(f.q), repeat=k))


def _poly_at(f, poly, A):
    # sum of poly[k] A^k from the powers of A
    acc, power = f.zeros(*A.shape), f.eye(A.shape[0])
    for c in poly:
        acc = f.add_arr(acc, f.mul_arr(int(c), power))
        power = f.matmul(power, A)
    return acc


def test_singular_even_is_a_factor_of_theta_with_a_proper_kernel():
    # on these factors many random even elements act by a scalar, and some
    # generate a field over which the factor is one-dimensional
    pool = []
    for name, chis in (("heis_p3", [(0, 0, 0), (1, 0, 0), (2, 1, 0)]),
                       ("gl1_1_p3", [(0, 0), (0, 1), (1, 2)]),
                       ("solv2_p5", [(0, 0), (1, 0), (0, 1)])):
        for chi in chis:
            seen = set()
            for fac in composition_factor_modules(_regular(name, chi), 0):
                if fac.superdim not in seen:
                    seen.add(fac.superdim)
                    pool.append(fac)
    scalar = 0
    for M in pool:
        f = M.alg.field
        for seed in range(200):
            theta = modules._even_element(
                M, modules._random_even_recipe(M, np.random.default_rng(seed)))
            is_scalar = np.array_equal(theta, theta[0, 0] * f.eye(M.dim))
            got = modules._find_singular_even(M, np.random.default_rng(seed))
            if is_scalar and M.dim > 1:
                scalar += 1
                assert got is None
            if got is None:
                continue
            recipe, poly, a, ker = got
            assert np.array_equal(modules._even_element(M, recipe), theta)
            assert poly[-1] == 1 and poly_deg(poly) >= 1
            assert _irreducible(f, tuple(poly))
            assert np.array_equal(a, _poly_at(f, poly, theta))
            assert np.array_equal(ker, nullspace(f, a))
            # proper, or all of M when M is one-dimensional over GF(q)[theta]
            assert 0 < ker.shape[0] < M.dim or ker.shape[0] == poly_deg(poly) == M.dim
    assert scalar > 0


def test_scalar_theta_leaves_the_random_stream_as_the_whole_path_would():
    # a scalar theta returns before Krylov and factoring; its polynomial
    # x - c factors with no draw, so the stream after the call is where the
    # recipe and the Krylov vector leave it, as on the whole path
    M = next(fac for fac in composition_factor_modules(_regular("gl1_1_p3", (0, 1)), 0)
             if fac.dim > 1)
    f = M.alg.field
    scalar = 0
    for seed in range(40):
        probe = np.random.default_rng(seed)
        theta = modules._even_element(M, modules._random_even_recipe(M, probe))
        v = f.rand(probe, M.dim)
        if not np.array_equal(theta, theta[0, 0] * f.eye(M.dim)):
            continue
        scalar += 1
        rng = np.random.default_rng(seed)
        assert modules._find_singular_even(M, rng) is None
        assert rng.bit_generator.state == probe.bit_generator.state
        assert [poly_deg(fac) for fac in
                irreducible_factors(f, modules._minimal_poly(M, theta, v), probe)] == [1]
        assert rng.bit_generator.state == probe.bit_generator.state
    assert scalar > 0


# ---------------------------------------------------------------------------
# peeling known classes off larger modules


PEEL = [("heis_p3", (0, 0, 0)), ("heis_p3", (1, 0, 0)), ("gl(1|1) GF(9)", (0, 1)),
        ("osp1_2_p3", (0, 1, 0)), ("osp1_2_p3", (1, 1, 0))]


# the 108-dim osp1_2_p3 regular module at (1, 1, 0) makes the Kronecker
# reference slow; the peeling test below covers its class
@pytest.mark.parametrize("name,chi", PEEL[:-1])
def test_embedding_exactly_when_a_map_exists(name, chi):
    # S maps into M exactly when the Kronecker reference finds a map; the
    # generalised Hom solve counts the maps into M larger than S, and the
    # socle found is a direct sum of copies of S or of its parity shift, as
    # many as Hom(S, M) has dimensions over End(S)
    reg = _regular(name, chi)
    classes = _classes(composition_series(reg, 0))
    facs = [K.module for K in classes]
    targets = [reg, parity_shift(reg)]
    targets += [_direct_sum(a, b) for a, b in zip(facs, facs[1:] + facs[:1])]
    targets += [_direct_sum(parity_shift(a), b) for a, b in zip(facs, facs[1:])]
    targets += [N for N in meataxe_inputs(reg, 0)[0] if N.dim > 1]
    found = 0
    for K in classes:
        S = K.module
        ee, eo = kronecker_hom_dims(S, S)
        for M in targets:
            expect = kronecker_hom_dims(S, M)
            assert hom_dims(K, M) == expect, (M.superdim, S.superdim)
            socle = K.socle(M)
            assert (socle is not None) == (expect != (0, 0)), (M.superdim, S.superdim)
            if socle is not None:
                found += 1
                sides, total = socle
                assert len(sides) * (ee + eo) == sum(expect)
                assert total.dim == len(sides) * S.dim
                sub = submodule_module(M, total)
                assert modules.validate_module(sub) == []
                # the sum is a copies of S and b of its parity shift, and
                # every map S -> M lands in it
                a, b = sides.count(0), sides.count(1)
                assert (a * ee + b * eo, a * eo + b * ee) == expect == kronecker_hom_dims(S, sub)
    assert found > len(classes)


@pytest.mark.parametrize("name", ["gl1_1_p3", "gl(1|1) GF(9)"])
def test_even_traces_rule_out_a_map_before_the_kernel(monkeypatch, name):
    # at chi = 0 the simple modules of equal dimension differ in the trace
    # of some even generator (summed in the field), and no map is sought in
    # the kernel of f(theta) for such a pair; the Kronecker reference
    # agrees that there is none
    classes = _classes(composition_series(_regular(name, (0, 0)), 0))
    f, s = classes[0].module.alg.field, classes[0].module.alg.s_even

    def traces(M):
        return [reduce(f.add, (int(a) for a in np.diagonal(M.action[i])), 0) for i in range(s)]

    kernels = []
    poly_at = modules._poly_at_matrix

    def spy(*args):
        kernels.append(1)
        return poly_at(*args)

    monkeypatch.setattr(modules, "_poly_at_matrix", spy)
    ruled = 0
    for K in classes:
        for L in classes:
            if K is L or K.module.dim != L.module.dim:
                continue
            kernels.clear()
            assert hom_dims(K, L.module) == (0, 0) == kronecker_hom_dims(K.module, L.module)
            if traces(K.module) != traces(L.module):
                assert kernels == []
                ruled += 1
    assert ruled > 0


def _copies(S, pattern):
    """A direct sum of copies of S, the ones marked 1 parity-shifted."""
    return _direct_sum(*[parity_shift(S) if s else S for s in pattern])


@pytest.mark.parametrize("name,chi", PEEL)
def test_sum_of_copies_peeled_without_meataxe(monkeypatch, name, chi):
    classes = _classes(composition_series(_regular(name, chi), 0))
    calls = []
    meataxe = modules._find_proper_submodule

    def spy(M, seed):
        calls.append(M.superdim)
        return meataxe(M, seed)

    hits = []
    socle = modules.FactorClass.socle

    def socle_spy(K, M):
        got = socle(K, M)
        hits.append(got is not None)
        return got

    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    monkeypatch.setattr(modules.FactorClass, "socle", socle_spy)
    for K in classes:
        for pattern in ((0, 0), (0, 1, 0), (1, 1, 0, 1)):
            M = _copies(K.module, pattern)
            for seed in (0, 5):
                hits.clear()
                series = composition_series(M, seed, classes=[K])
                assert calls == []
                assert hits == [True]
                assert len(series) == len(pattern)
                assert all(L is K for L, _ in series)
                assert sorted(side_module(L, side).superdim for L, side in series) == sorted(
                    K.module.superdim[::-1] if s else K.module.superdim for s in pattern)
                # a copy of the shift is on side 1, unless an odd endomorphism
                # makes S and its shift isomorphic
                sides = sorted(side for _, side in series)
                assert sides == (sorted(pattern) if K.endo[1] == 0 else [0] * len(pattern))


# heis_p3 is nilpotent, so each of its characters has one simple module, and
# the Meataxe sees only the pieces split before it is found; the gl(1|1)
# characters have three and nine classes
@pytest.mark.parametrize("name,chi", [("heis_p3", (0, 0, 0)), ("heis_p3", (1, 0, 0)),
                                      ("heis_p3", (0, 1, 2)), ("heis_p3", (2, 2, 1)),
                                      ("gl1_1_p3", (0, 0)), ("gl(1|1) GF(9)", (0, 1))])
def test_meataxe_only_sees_pieces_no_known_class_maps_into(monkeypatch, name, chi):
    classes = []
    seen = []
    meataxe = modules._find_proper_submodule

    def spy(M, seed):
        seen.append((M, list(classes)))
        return meataxe(M, seed)

    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    reg = _regular(name, chi)
    series = composition_series(reg, 0, classes)
    assert sum(K.module.dim for K, _ in series) == reg.dim
    if len(classes) > 1:
        assert any(known for _, known in seen)
    for M, known in seen:
        for K in known:
            assert kronecker_hom_dims(K.module, M) == (0, 0), (chi, M.superdim)


def test_transpose_branch_returns_a_submodule(monkeypatch):
    # the annihilator of a proper transpose spin is returned as it is, not
    # spun: wherever that branch decides a piece in `conjecture` on the
    # shipped files, it is a proper submodule already.  A result that no
    # spin in M returned is the branch's
    fired, spun = [], []
    spin, meataxe = modules.spin, modules._find_proper_submodule

    def spin_spy(M, v):
        spun.append(spin(M, v))
        return spun[-1]

    def spy(M, seed):
        spun.clear()
        out = meataxe(M, seed)
        if isinstance(out, Echelon) and all(out is not W for W in spun):
            fired.append((M, out))
        return out

    monkeypatch.setattr(modules, "spin", spin_spy)
    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    for path in sorted(glob.glob(os.path.join(ALGEBRAS, "*.lsa"))):
        conjecture_report(parse_lsa_path(path), seed=0)
    assert fired
    for M, W in fired:
        assert 0 < W.dim < M.dim
        assert np.array_equal(modules.spin_many(M, W.basis).basis, W.basis)
        assert modules.validate_module(submodule_module(M, W)) == []
