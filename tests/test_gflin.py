import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkw.gflin import (
    Field,
    FieldError,
    find_embedding,
    graded_span,
    inv_matrix,
    irreducible_factors,
    is_irreducible,
    nullspace,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mul,
    powmod,
    rank,
    rref,
    smallest_irreducible,
    solve,
)

F3 = Field(3)
F5 = Field(5)
F9 = Field(3, 2)
F27 = Field(3, 3)


def test_field_construction_rejects_bad_input():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(2)
    with pytest.raises(FieldError):
        Field(3, 0)


def test_modulus_verified_irreducible():
    # x^2 - 1 = (x-1)(x+1) is reducible over GF(3)
    with pytest.raises(FieldError):
        Field(3, 2, (2, 0, 1))
    # the stored default is irreducible
    assert is_irreducible(smallest_irreducible(3, 2), 3)
    assert is_irreducible(smallest_irreducible(5, 4), 5)


def test_scalar_serialization_roundtrip():
    for F in (F3, F9, F27):
        for a in range(F.q):
            coords = F.coords(a)
            assert len(coords) == F.k
            assert all(0 <= c < F.p for c in coords)
            assert F.from_coords(coords) == a


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_gf9(a, b, c):
    f = F9
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 26), st.integers(0, 26))
def test_field_inverse_and_frobenius_gf27(a, b):
    f = F27
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
    # Frobenius is additive
    assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))


def test_rref_identity_gf3():
    m = F3.eye(2)
    r, piv = rref(F3, m)
    assert np.array_equal(r, m)
    assert piv == [0, 1]


def test_rref_zero():
    m = F3.zeros(2, 3)
    r, piv = rref(F3, m)
    assert not np.any(r)
    assert piv == []


def test_rref_rank_one_gf5():
    m = np.array([[1, 2], [2, 4]])
    r, piv = rref(F5, m)
    assert len(piv) == 1
    assert rank(F5, m) == 1


def test_rref_idempotent():
    rng = np.random.default_rng(5)
    for F in (F3, F5, F9):
        for _ in range(10):
            m = F.rand(rng, (4, 6))
            r1, p1 = rref(F, m)
            r2, p2 = rref(F, r1)
            assert np.array_equal(r1, r2)
            assert p1 == p2


def test_nullspace_identity_empty():
    assert nullspace(F3, F3.eye(3)).shape == (0, 3)


def test_nullspace_zero_matrix():
    ns = nullspace(F3, F3.zeros(2, 3))
    assert ns.shape == (3, 3)


def test_nullspace_verified_by_multiplication():
    m = np.array([[1, 2], [2, 4]])
    ns = nullspace(F5, m)
    assert ns.shape[0] == 1
    assert not np.any(F5.matmul(m, ns.T))


def test_rank_nullity_random():
    rng = np.random.default_rng(11)
    for F in (F3, F5, F9):
        for _ in range(20):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            m = F.rand(rng, (rows, cols))
            assert rank(F, m) + nullspace(F, m).shape[0] == cols


def test_solve_identity():
    b = np.array([1, 2, 0])
    x = solve(F3, F3.eye(3), b)
    assert np.array_equal(x, b)


def test_solve_inconsistent_none():
    assert solve(F3, F3.zeros(2, 2), np.array([1, 0])) is None


def test_solve_random_consistent_gf9():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = F9.rand(rng, (4, 3))
        xtrue = F9.rand(rng, (3,))
        b = F9.matmul(m, xtrue.reshape(-1, 1)).ravel()
        x = solve(F9, m, b)
        assert x is not None
        residual = F9.sub_arr(F9.matmul(m, x.reshape(-1, 1)).ravel(), b)
        assert not np.any(residual)


@pytest.mark.parametrize("F", [F3, F9], ids=["GF3", "GF9"])
def test_solve_block_matches_column_solves(F):
    rng = np.random.default_rng(7)
    for rows, cols, r in [(5, 4, 3), (4, 6, 5), (6, 3, 2)]:
        # rank-deficient m: a product through an inner dimension of 2
        m = F.matmul(F.rand(rng, (rows, 2)), F.rand(rng, (2, cols)))
        b = F.matmul(m, F.rand(rng, (cols, r)))
        x = solve(F, m, b)
        assert x.shape == (cols, r)
        for c in range(r):
            assert np.array_equal(x[:, c], solve(F, m, b[:, c]))
        assert not np.any(F.sub_arr(F.matmul(m, x), b))
        # one inconsistent column makes the whole block None
        bad = b.copy()
        e = next(v for v in F.eye(rows) if solve(F, m, v) is None)
        bad[:, r - 1] = e
        assert solve(F, m, bad) is None


def test_solve_block_empty_and_zero_rows():
    assert solve(F3, F3.eye(3), F3.zeros(3, 0)).shape == (3, 0)
    assert solve(F3, F3.zeros(0, 2), F3.zeros(0, 1)).tolist() == [[0], [0]]
    assert solve(F3, F3.zeros(2, 0), F3.eye(2)) is None


def test_matmul_matches_reference():
    rng = np.random.default_rng(7)
    for F in (F5, F9, F27):
        a = F.rand(rng, (3, 4))
        b = F.rand(rng, (4, 2))
        ref = F.zeros(3, 2)
        for i in range(3):
            for j in range(2):
                acc = 0
                for t in range(4):
                    acc = F.add(acc, F.mul(int(a[i, t]), int(b[t, j])))
                ref[i, j] = acc
        assert np.array_equal(F.matmul(a, b), ref)


def test_inv_matrix():
    rng = np.random.default_rng(9)
    for F in (F3, F9):
        while True:
            m = F.rand(rng, (3, 3))
            if rank(F, m) == 3:
                break
        mi = inv_matrix(F, m)
        assert np.array_equal(F.matmul(m, mi), F.eye(3))


def test_embedding_is_homomorphism():
    table = find_embedding(F3, F9)
    for a in range(3):
        for b in range(3):
            assert table[F3.add(a, b)] == F9.add(int(table[a]), int(table[b]))
            assert table[F3.mul(a, b)] == F9.mul(int(table[a]), int(table[b]))
    table2 = find_embedding(F9, Field(3, 4))
    big = Field(3, 4)
    for a in range(9):
        for b in range(9):
            assert table2[F9.add(a, b)] == big.add(int(table2[a]), int(table2[b]))
            assert table2[F9.mul(a, b)] == big.mul(int(table2[a]), int(table2[b]))


def test_modulus_search_is_lex_smallest():
    from itertools import product

    from superkw.gflin import DEFAULT_MODULI

    for p, k in [*DEFAULT_MODULI, (17, 2), (17, 3), (19, 2), (23, 2)]:
        ref = next(t + (1,) for t in product(range(p), repeat=k)
                   if t[0] != 0 and is_irreducible(t + (1,), p))
        assert smallest_irreducible(p, k) == ref


@pytest.mark.parametrize("small,big", [
    ((3, 1), (3, 2)), ((3, 1), (3, 4)), ((3, 1), (3, 6)), ((3, 2), (3, 4)),
    ((3, 2), (3, 6)), ((5, 1), (5, 2)), ((5, 1), (5, 4)), ((5, 2), (5, 4)),
    ((7, 1), (7, 2)), ((7, 1), (7, 4)), ((7, 2), (7, 4)),
], ids=lambda pk: f"GF{pk[0]}^{pk[1]}")
def test_embedding_matches_scalar_reference(small, big):
    from conftest import reference_find_embedding

    small, big = Field(*small), Field(*big)
    assert np.array_equal(find_embedding(small, big), reference_find_embedding(small, big))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_reduction_rows_match_recurrence(p, k):
    from conftest import reference_reduction_rows

    F = Field(p, k)
    assert np.array_equal(F._red, reference_reduction_rows(p, F.modulus))


def test_degree_one_modulus_needs_no_search():
    import time

    t = time.perf_counter()
    assert smallest_irreducible(1000000007, 1) == (1, 1)
    assert Field(1000000007).modulus == (1, 1)
    assert time.perf_counter() - t < 1.0


def test_matmul_exact_for_large_prime():
    # 64 * (p-1)^2 is far above 2^53, where float64 sums lose digits
    p = 100000007
    F = Field(p)
    rng = np.random.default_rng(5)
    a = rng.integers(0, p, size=(64, 64))
    b = rng.integers(0, p, size=(64, 64))
    ref = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(64)) % p
            for j in range(64)] for i in range(64)]
    assert F.matmul(a, b).tolist() == ref
    # the same for the power-basis digits of GF(p^2)
    F2 = Field(p, 2)
    a = F2.rand(rng, (8, 64))
    b = F2.rand(rng, (64, 8))
    ref = F2.zeros(8, 8)
    for i in range(8):
        for j in range(8):
            acc = 0
            for t in range(64):
                acc = F2.add(acc, F2.mul(int(a[i, t]), int(b[t, j])))
            ref[i, j] = acc
    assert np.array_equal(F2.matmul(a, b), ref)


def test_field_rejects_inexact_sizes():
    # (p-1)^2 >= 2^63: elementwise products overflow int64
    with pytest.raises(FieldError):
        Field(3037000507)
    # p^k >= 2^63: codes do not fit in int64
    with pytest.raises(FieldError):
        Field(2147483647, 3)


# ---------------------------------------------------------------------------
# polynomial toolkit


def _rem_mod_p(a, m, p):
    """Remainder of a by a monic m over GF(p), in plain integers."""
    a, k = list(a), len(m) - 1
    for d in range(len(a) - 1, k - 1, -1):
        c = a[d] % p
        if c:
            for j in range(k + 1):
                a[d - k + j] = (a[d - k + j] - c * m[j]) % p
    return [c % p for c in a[:k]]


def test_is_irreducible_matches_trial_division():
    from itertools import product

    # every monic polynomial of degree 1-4 over GF(3) and GF(5); among them
    # (x - 1)(x - 2) over GF(5), whose degree-1 part is the whole polynomial,
    # so only the part's degree, not the part itself, tells it is reducible
    for p, k in product([3, 5], range(1, 5)):
        for tail in product(range(p), repeat=k):
            poly = tail + (1,)
            has_factor = any(
                not any(_rem_mod_p(poly, low + (1,), p))
                for d in range(1, k // 2 + 1)
                for low in product(range(p), repeat=d)
            )
            assert is_irreducible(poly, p) == (not has_factor), (p, poly)


def _naive_factors(f, g):
    """Distinct monic irreducible factors of a monic g of degree <= 3 or a
    product of such, by root search and synthetic division."""
    out = set()
    stack = [list(g)]
    while stack:
        g = stack.pop()
        if len(g) == 2:
            out.add(tuple(g))
            continue
        for r in range(f.q):
            val = 0
            for c in reversed(g):
                val = f.add(f.mul(val, r), c)
            if val == 0:
                quo, acc = [0] * (len(g) - 1), 0
                for i in range(len(g) - 1, 0, -1):
                    acc = f.add(f.mul(acc, r), g[i])
                    quo[i - 1] = acc
                stack += [[f.neg(r), 1], quo]
                break
        else:
            assert len(g) <= 4, "no root and degree > 3: not decided by roots"
            out.add(tuple(g))
    return out


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]),
       st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(0, 2**31))
def test_irreducible_factors_match_root_search(pk, lows, seed):
    f = Field(*pk)
    pieces = [[c % f.q for c in low] + [1] for low in lows]
    m = [1]
    for piece in pieces:
        m = poly_mul(f, m, piece)
    got = list(irreducible_factors(f, m, np.random.default_rng(seed)))
    assert len(set(map(tuple, got))) == len(got)
    assert set(map(tuple, got)) == set().union(*(_naive_factors(f, x) for x in pieces))
    degs = [poly_deg(x) for x in got]
    assert degs == sorted(degs)


# naive GF(9) polynomial arithmetic on untrimmed lists, from the scalar tables
ADD9 = [[F9.add(a, b) for b in range(9)] for a in range(9)]
MUL9 = [[F9.mul(a, b) for b in range(9)] for a in range(9)]
NEG9 = [F9.neg(a) for a in range(9)]
INV9 = [None] + [F9.inv(a) for a in range(1, 9)]


def _trim9(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul9(a, b):
    r = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] = ADD9[r[i + j]][MUL9[x][y]]
    return r


def _rem9(a, m):
    a, m = _trim9(a), _trim9(m)
    inv = INV9[m[-1]]
    while len(a) >= len(m):
        c = MUL9[a[-1]][inv]
        sh = len(a) - len(m)
        for j, y in enumerate(m):
            a[sh + j] = ADD9[a[sh + j]][NEG9[MUL9[c][y]]]
        a = _trim9(a)
    return a


def _naive_gcd9(a, b):
    """The monic divisor of largest degree common to a and b, by search."""
    from itertools import product

    a, b = _trim9(a), _trim9(b)
    if not a and not b:
        return []
    top = min(len(x) - 1 for x in (a, b) if x)
    for d in range(top, -1, -1):
        for low in product(range(9), repeat=d):
            c = list(low) + [1]
            if not _rem9(a, c) and not _rem9(b, c):
                return c
    raise AssertionError("1 divides everything")


poly9 = st.lists(st.integers(0, 8), max_size=3)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(poly9, poly9, poly9)
def test_gf9_gcd_matches_search(c, u, v):
    # a shared factor c makes nontrivial gcds common
    a, b = _mul9(c, u), _mul9(c, v)
    assert poly_gcd(F9, a, b) == _naive_gcd9(a, b)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(poly9, st.integers(0, 30), st.lists(st.integers(0, 8), min_size=1, max_size=3))
def test_gf9_powmod_matches_repeated_product(a, e, low):
    m = low + [1]
    prod = [1]
    for _ in range(e):
        prod = _mul9(prod, a)
    assert powmod(F9, a, e, m) == _rem9(prod, m)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(poly9, st.lists(st.integers(0, 8), max_size=3), st.integers(1, 8))
def test_gf9_divmod_reconstructs(a, low, lead):
    m = low + [lead]
    quo, rem = poly_divmod(F9, a, m)
    assert len(rem) < len(m)
    back = _mul9(quo, m) + [0] * len(a)
    for i, c in enumerate(rem):
        back[i] = ADD9[back[i]][c]
    assert _trim9(back) == _trim9(a)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_scalar_ops_match_array_ops(p, k):
    f = Field(p, k)
    codes = np.arange(f.q, dtype=np.int64)
    a, b = np.meshgrid(codes, codes, indexing="ij")
    add, mul, neg = f.add_arr(a, b), f.mul_arr(a, b), f.neg_arr(codes)
    for x in range(f.q):
        assert type(f.neg(x)) is int and f.neg(x) == neg[x]
        for y in range(f.q):
            s, m = f.add(x, y), f.mul(x, y)
            assert type(s) is int and type(m) is int
            assert (s, m) == (add[x, y], mul[x, y])
        if x:
            inv = f.inv(x)
            assert type(inv) is int and mul[x, inv] == 1


@st.composite
def batched_products(draw):
    # 2^31 - 1 gives chunks of two terms, so the chunked sum runs along b's
    # contraction axis more than once
    f = draw(st.sampled_from([F3, F9, Field(100000007), Field(2147483647)]))
    batch, rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(4))
    batched = draw(st.sampled_from(["right", "left", "both"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = f.rand(rng, ((batch,) if batched != "right" else ()) + (rows, inner))
    b = f.rand(rng, ((batch,) if batched != "left" else ()) + (inner, cols))
    return f, a, b


@settings(max_examples=120, derandomize=True, deadline=None)
@given(batched_products())
def test_matmul_batched_matches_slices(case):
    f, a, b = case
    got = f.matmul(a, b)
    batch = max(a.shape[0] if a.ndim == 3 else 1, b.shape[0] if b.ndim == 3 else 1)
    ref = np.array([f.matmul(a[i] if a.ndim == 3 else a, b[i] if b.ndim == 3 else b)
                    for i in range(batch)])
    assert got.shape == np.matmul(a, b).shape
    assert np.array_equal(got, ref)


def test_nullspace_matches_loop_form():
    # ones at the free columns, the negated pivot-row entries at the pivots
    rng = np.random.default_rng(12)
    for F in (F3, F5, F9):
        for _ in range(20):
            m = F.rand(rng, (int(rng.integers(0, 5)), int(rng.integers(0, 6))))
            m[:, rng.random(m.shape[1]) < 0.3] = 0
            r, pivots = rref(F, m)
            free = [c for c in range(m.shape[1]) if c not in pivots]
            want = np.zeros((len(free), m.shape[1]), dtype=np.int64)
            for i, c in enumerate(free):
                want[i, c] = 1
                for j, pc in enumerate(pivots):
                    want[i, pc] = F.neg(int(r[j, c]))
            assert np.array_equal(nullspace(F, m), want)


def test_pow_arr_matches_repeated_product():
    for F in (F3, F5, Field(7), Field(13), F9):
        a = np.arange(F.q, dtype=np.int64)
        want = np.ones_like(a)
        for e in range(40):
            assert np.array_equal(F.pow_arr(a, e), want)
            want = F.mul_arr(want, a)


@pytest.mark.parametrize("field", [F3, F9])
def test_graded_span_splits_each_row_by_parity(field):
    # the split row by row, zero parts dropped, then one rref
    rng = np.random.default_rng(4)
    for r, n in [(0, 5), (1, 4), (3, 6), (6, 6)]:
        rows = field.rand(rng, (r, n))
        rows[:, rng.random(n) < 0.3] = 0
        odd = rng.random(n) < 0.5
        parts = [part for v in rows for part in (np.where(odd, 0, v), np.where(odd, v, 0))
                 if np.any(part)]
        want = rref(field, np.array(parts).reshape(-1, n))
        span = graded_span(field, rows, odd)
        assert np.array_equal(span.basis, want[0][: len(want[1])])
        assert not np.any(np.any(span.basis * odd, axis=1) & np.any(span.basis * ~odd, axis=1))
