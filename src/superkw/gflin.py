"""Exact dense linear algebra over GF(p^k).

Field elements are encoded as integers in [0, q) with q = p^k: the base-p
digits of the code, little-endian, are the coordinates in the power basis of
GF(p)[x]/(modulus).  That digit vector is also the on-disk serialization of a
scalar.  Matrices are numpy int64 arrays of codes; all arithmetic is exact.
Arrays kept for long (a module's action tensor) hold their codes in the
field's narrow code dtype instead (`Field.narrow`); every operation accepts
either.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, List, Optional

import numpy as np


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_irreducible(coeffs: Iterable[int], p: int) -> bool:
    """Monic polynomial irreducibility over GF(p), little-endian coeffs: m
    is irreducible when its smallest irreducible factors have degree deg m."""
    m = list(coeffs)
    k = poly_deg(m)
    if k < 1 or m[k] != 1:
        return False
    if k == 1:
        return True
    # built only now: shared_field(p) checks its own modulus x + 1 through here
    return next(distinct_degree_factors(shared_field(p), m))[0] == k


def _power(mul, one, base, e: int):
    """base^e for e >= 0 by square-and-multiply, with the product `mul`;
    `one` is the answer at e = 0, and at e = 1 the answer is the base
    itself.  The result starts as the base's power at the lowest set bit of
    e, and the base is squared only while higher bits remain: (bit length
    of e) - 1 squarings and (set bits of e) - 1 products, so 2 products at
    e = 3 and 3 at e = 5."""
    if e == 0:
        return one
    r = None
    while True:
        if e & 1:
            r = base if r is None else mul(r, base)
        e >>= 1
        if not e:
            return r
        base = mul(base, base)


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, k: int) -> tuple:
    """Lex-smallest monic irreducible of degree k over GF(p), little-endian
    coefficients including the leading 1: the default modulus, so that
    serialized data is bit-exact across runs and machines."""
    # lexicographic over the lower coefficients, constant term slowest, from
    # constant term 1 (a zero constant term makes x a factor): the base-p
    # digits of n, most significant first.  A range is lazy, where
    # itertools.product would build a tuple of each of its ranges
    for n in range(p ** (k - 1), p**k):
        f = tuple(n // p ** (k - 1 - i) % p for i in range(k)) + (1,)
        if is_irreducible(f, p):
            return f
    raise FieldError(f"no irreducible of degree {k} over GF({p})")


class Field:
    """GF(p^k); p an odd prime, modulus verified irreducible at construction."""

    def __init__(self, p: int, k: int = 1, modulus: Optional[Iterable[int]] = None):
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        if p >= 3 and (k * (p - 1) ** 2 >= 2**63 or p**k >= 2**63):
            # elementwise products (summed over k digit pairs when k > 1)
            # and the codes themselves must fit in int64.  Checked before
            # primality, so that trial division takes at most about 55,000
            # steps (p < 2^31.5)
            raise FieldError(f"GF({p}^{k}) is too large for exact int64 arithmetic")
        if p < 3 or not _is_prime(p):
            raise FieldError(f"p must be an odd prime, got {p}")
        self.p = p
        self.k = k
        self.q = p**k
        # the narrowest dtype that holds every code: it follows from q alone
        self.code_dtype = np.dtype(
            np.uint8 if self.q <= 2**8 else np.uint16 if self.q <= 2**16 else np.int64)
        # longest inner dimension with inner * (p-1)^2 < 2^53
        self._float_inner = (2**53 - 1) // (p - 1) ** 2
        if modulus is None:
            modulus = smallest_irreducible(p, k)
        self.modulus = tuple(int(c) % p for c in modulus)
        if len(self.modulus) != k + 1 or self.modulus[k] != 1:
            raise FieldError(f"modulus must be monic of degree {k}")
        if not is_irreducible(self.modulus, p):
            raise FieldError(f"modulus {self.modulus} is reducible over GF({p})")
        self._add_table = None
        self._mul_table = None
        self._neg_table = None
        self._add_rows = self._mul_rows = self._neg_list = self._inv_list = None
        self._powbase = p ** np.arange(k, dtype=np.int64)
        if k > 1:
            # row i: x^(k+i) mod modulus, as a k-vector; products of two
            # degree-<k polynomials need degrees up to 2k-2
            prime = shared_field(p)
            self._red = np.array(
                [(poly_mod(prime, [0] * (k + i) + [1], self.modulus) + [0] * k)[:k]
                 for i in range(k - 1)],
                dtype=np.int64,
            )
            if self.q <= 1024:
                codes = np.arange(self.q, dtype=np.int64)
                a, b = np.meshgrid(codes, codes, indexing="ij")
                self._add_table = self.undigits(self.digits(a) + self.digits(b))
                self._mul_table = self._mul_digits(a, b)
                self._neg_table = self.undigits(-self.digits(codes))
                # list copies for the scalar methods: a list lookup returns a
                # plain int, where a 0-d numpy call costs microseconds
                self._add_rows = self._add_table.tolist()
                self._mul_rows = self._mul_table.tolist()
                self._neg_list = self._neg_table.tolist()
                self._inv_list = [0] + np.argmax(self._mul_table[1:] == 1, axis=1).tolist()

    # -- code <-> power-basis digits ------------------------------------

    def digits(self, a: np.ndarray) -> np.ndarray:
        """Digit tensor of an array of codes, last axis length k."""
        a = np.asarray(a, dtype=np.int64)
        return (a[..., None] // self._powbase) % self.p

    def undigits(self, d: np.ndarray) -> np.ndarray:
        return (np.asarray(d, dtype=np.int64) % self.p) @ self._powbase

    # -- scalar arithmetic on codes ---------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self._add_rows is not None:
            return self._add_rows[a][b]
        return int(self.add_arr(np.int64(a), np.int64(b)))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self._neg_list is not None:
            return self._neg_list[a]
        return int(self.neg_arr(np.int64(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self._mul_rows is not None:
            return self._mul_rows[a][b]
        return int(self.mul_arr(np.int64(a), np.int64(b)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_list is not None:
            return self._inv_list[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, 1, a, e)

    # -- vectorized arithmetic on arrays of codes -------------------------

    def add_arr(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a, b]
        return self.undigits(self.digits(a) + self.digits(b))

    def neg_arr(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.k == 1:
            return (-a) % self.p
        if self._neg_table is not None:
            return self._neg_table[a]
        return self.undigits(-self.digits(a))

    def sub_arr(self, a, b):
        if self.k == 1:
            d = np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)
            d %= self.p
            return d
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        """Elementwise product with numpy broadcasting."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a, b]
        return self._mul_digits(a, b)

    def sub_outer(self, a, x, y):
        """a - x (outer) y, for an array a (r, c), x (r,) and y (c,)."""
        if self.k == 1:
            return (a - x[:, None] * y) % self.p
        return self.sub_arr(a, self.mul_arr(x[:, None], y))

    def _mul_digits(self, a, b):
        da, db = self.digits(a), self.digits(b)
        da, db = np.broadcast_arrays(da, db)
        k = self.k
        prod = np.zeros(da.shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                prod[..., i + j] += da[..., i] * db[..., j]
        prod %= self.p
        return self._reduce_digits(prod)

    def _reduce_digits(self, prod):
        k = self.k
        out = prod[..., :k].copy()
        for i in range(k - 1):
            c = prod[..., k + i]
            out += c[..., None] * self._red[i]
        out %= self.p
        return self.undigits(out)

    def pow_arr(self, a, e: int):
        a = np.asarray(a, dtype=np.int64)
        return _power(self.mul_arr, np.ones_like(a), a, e)

    def rand(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    # -- matrices ----------------------------------------------------------

    def zeros(self, *shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def narrow(self, a) -> np.ndarray:
        """The codes of ``a`` in the field's code dtype: uint8 for q <= 256,
        uint16 for q <= 65536, int64 above.  An array already in that dtype
        is returned as it is, not copied.  Raises FieldError on an entry
        outside [0, q), so that no producer's bad entry wraps into a code."""
        a = np.asarray(a)
        # read as unsigned, a negative entry is at least 2^63: one maximum
        # finds every entry outside [0, q)
        u = a if a.dtype.kind == "u" else np.asarray(a, dtype=np.int64).view(np.uint64)
        if u.size and int(u.max()) >= self.q:
            raise FieldError(f"entries outside [0, {self.q}) are not codes of {self}")
        return a.astype(self.code_dtype, copy=False)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product, with the shape rules of ``np.matmul``, of
        code arrays of any integer dtype; the product is int64.

        Entries (for k > 1, their power-basis digits) lie in [0, p), so
        float64 BLAS is exact while inner * (p-1)^2 < 2^53; beyond that
        the products are summed in int64 by `_chunked_dot`."""
        a, b = np.asarray(a), np.asarray(b)
        exact = a.shape[-1] <= self._float_inner
        if self.k == 1:
            if exact:
                # the sums are exact integers: cast, then reduced in place
                c = np.matmul(a, b, dtype=np.float64).astype(np.int64)
                c %= self.p
                return c
            return self._chunked_dot(a, b)
        p, k = self.p, self.k
        da, db = self.digits(a), self.digits(b)
        if exact:
            da, db = da.astype(np.float64), db.astype(np.float64)
        prod = None
        for i in range(k):
            for j in range(k):
                if exact:
                    t = np.rint(da[..., i] @ db[..., j]).astype(np.int64)
                else:
                    t = self._chunked_dot(da[..., i], db[..., j])
                if prod is None:
                    # the first product has the output's shape
                    prod = np.zeros(t.shape + (2 * k - 1,), dtype=np.int64)
                prod[..., i + j] += t % p
        prod %= p
        return self._reduce_digits(prod)

    def _chunked_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product mod p of arrays with entries in [0, p), summed in int64
        in chunks of the contraction axis short enough that no partial sum
        overflows."""
        p = self.p
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        chunk = (2**63 - 1) // (p - 1) ** 2  # >= 1: Field rejects larger p

        def part(s, e):
            # the contraction axis of b is its last but one (its only one
            # for a vector)
            return a[..., s:e] @ (b[s:e] if b.ndim == 1 else b[..., s:e, :])

        acc = part(0, 0)  # zeros of the product's shape
        for s in range(0, a.shape[-1], chunk):
            acc = (acc + part(s, s + chunk) % p) % p
        return acc

    def mat_pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e for a square matrix, or for each of a stack of them (a stack
        of identities at e = 0)."""
        a = np.asarray(a)
        one = np.zeros(a.shape, dtype=np.int64)
        diag = np.arange(a.shape[-1])
        one[..., diag, diag] = 1
        return _power(self.matmul, one, a, e)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


@lru_cache(maxsize=None)
def shared_field(p: int, k: int = 1) -> Field:
    """The one `Field` of GF(p^k) with the default modulus in this process:
    its tables (q^2 entries each up to q = 1024) are built at the first call
    only, however many algebras are extended to it."""
    return Field(p, k)


# ---------------------------------------------------------------------------
# polynomials over GF(q): little-endian lists of codes, trimmed of trailing
# zeros (the zero polynomial is []), and their factoring: distinct-degree,
# then Cantor-Zassenhaus equal-degree splitting (von zur Gathen & Gerhard,
# Modern Computer Algebra, ch. 14)

def poly_deg(a) -> int:
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def poly_trim(a) -> list:
    return list(a[: poly_deg(a) + 1])


def poly_mul(f: Field, a, b) -> list:
    if not a or not b:
        return []
    r = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    r[i + j] = f.add(r[i + j], f.mul(ai, bj))
    return poly_trim(r)


def poly_divmod(f: Field, a, m) -> tuple:
    """Quotient and remainder of a by m."""
    a = list(a)
    dm = poly_deg(m)
    inv = f.inv(m[dm])
    quo = [0] * max(poly_deg(a) - dm + 1, 0)
    while poly_deg(a) >= dm:
        da = poly_deg(a)
        c = f.mul(a[da], inv)
        quo[da - dm] = c
        for j in range(dm + 1):
            a[da - dm + j] = f.sub(a[da - dm + j], f.mul(c, m[j]))
    return poly_trim(quo), poly_trim(a)


def poly_mod(f: Field, a, m) -> list:
    return poly_divmod(f, a, m)[1]


def poly_gcd(f: Field, a, b) -> list:
    """Monic greatest common divisor ([] when both are zero)."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(f, a, b)
    if a:
        inv = f.inv(a[-1])
        a = [f.mul(c, inv) for c in a]
    return a


def powmod(f: Field, a, e: int, m) -> list:
    """a^e mod m."""
    def mulmod(x, y):
        return poly_mod(f, poly_mul(f, x, y), m)

    return _power(mulmod, [1], poly_mod(f, a, m), e)


def distinct_degree_factors(f: Field, m):
    """(d, product of the distinct degree-d irreducible factors of m) for
    each d that has such factors, lazily and by increasing d; m monic."""
    rem = poly_trim(m)
    xqd = [0, 1]  # x^(q^d) mod rem
    d = 0
    while poly_deg(rem) > 0:
        d += 1
        if 2 * d > poly_deg(rem):
            # every factor of rem has degree >= d, so there is only one
            yield poly_deg(rem), rem
            return
        xqd = powmod(f, xqd, f.q, rem)
        g = xqd + [0] * (2 - len(xqd))
        g[1] = f.sub(g[1], 1)
        g = poly_gcd(f, rem, g)  # the factors of degree d, once each
        if poly_deg(g) <= 0:
            continue
        yield d, g
        while poly_deg(g) > 0:
            rem = poly_divmod(f, rem, g)[0]
            g = poly_gcd(f, rem, g)
        xqd = poly_mod(f, xqd, rem)


def _equal_degree_split(f: Field, m, d: int, rng) -> list:
    """Proper monic divisor of m, all of whose irreducible factors have
    degree d and at least two are distinct (Cantor-Zassenhaus, odd q).  Las
    Vegas: it draws until a draw splits m, which each draw does with
    probability about 1/2."""
    dm = poly_deg(m)
    e = (f.q**d - 1) // 2
    while True:
        u = poly_trim([int(f.rand(rng)) for _ in range(dm)])
        if poly_deg(u) < 1:
            continue
        g = poly_gcd(f, m, u)
        if 0 < poly_deg(g) < dm:
            return g
        # gcd(u^e - 1, m)
        acc = powmod(f, u, e, m)
        if acc:
            acc[0] = f.sub(acc[0], 1)
        else:
            acc = [f.neg(1)]
        g = poly_gcd(f, m, acc)
        if 0 < poly_deg(g) < dm:
            return g


def _equal_degree_factors(f: Field, g, d: int, rng):
    """The irreducible factors of a squarefree monic g whose irreducible
    factors all have degree d."""
    if poly_deg(g) == d:
        yield g
        return
    h = _equal_degree_split(f, g, d, rng)
    yield from _equal_degree_factors(f, h, d, rng)
    yield from _equal_degree_factors(f, poly_divmod(f, g, h)[0], d, rng)


def irreducible_factors(f: Field, m, rng):
    """The distinct monic irreducible factors of a monic m, lazily and by
    increasing degree."""
    for d, g in distinct_degree_factors(f, m):
        yield from _equal_degree_factors(f, g, d, rng)


# ---------------------------------------------------------------------------
# echelon forms

def rref(f: Field, m: np.ndarray):
    """Reduced row echelon form.  Returns (rref matrix, pivot column list);
    `_eliminate` also gives the input row each pivot row came from."""
    return _eliminate(f, m)[:2]


def _eliminate(f: Field, m: np.ndarray):
    """`rref` and the input row each pivot row came from.  A pivot row is
    its input row minus multiples of earlier pivot rows, so for any pivot
    choice those input rows are independent and span the row space."""
    m = np.array(m, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("rref expects a 2-d matrix")
    rows, cols = m.shape
    source = np.arange(rows)
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            # skip to the next column with a nonzero entry below row r
            ahead = m[r:, c + 1 :].any(axis=0).nonzero()[0]
            if ahead.size == 0:
                break
            c += 1 + int(ahead[0])
            nz = m[r:, c].nonzero()[0]
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
            source[[r, piv]] = source[[piv, r]]
        lead = int(m[r, c])
        if lead != 1:
            m[r, c:] = f.mul_arr(m[r, c:], f.inv(lead))
        # the pivot row is zero left of c: only the rows nonzero at c change,
        # and only from c on
        other = m[:, c].nonzero()[0]
        if other.size > 1:
            other = other[other != r]
            m[other, c:] = f.sub_outer(m[other, c:], m[other, c], m[r, c:])
        pivots.append(c)
        r += 1
        c += 1
    return m, pivots, source[: len(pivots)]


def rank(f: Field, m: np.ndarray) -> int:
    return len(rref(f, m)[1])


def ranks(f: Field, stack) -> np.ndarray:
    """The rank of each matrix of a stack (..., r, c), an int64 array of
    shape (...).

    Elimination on all the matrices at once, one column per step: each
    matrix with a nonzero entry in the column takes the first row that has
    one as its pivot, scales it to a leading 1 and subtracts it from every
    row, itself included, at that row's entry in the column.  The column
    and the pivot row become zero, and the rank is one more than that of
    what is left.  Many small eliminations become a few array operations
    per column, in the manner of FFLAS/FFPACK (Dumas, Giorgi & Pernet, ACM
    TOMS 35, 2008)."""
    m = np.array(stack, dtype=np.int64)
    batch, (r, c) = m.shape[:-2], m.shape[-2:]
    m = m.reshape((math.prod(batch), r, c))
    out = np.zeros(m.shape[0], dtype=np.int64)
    for j in range(c):
        live = m[:, :, j] != 0
        which = np.nonzero(live.any(axis=1))[0]
        if which.size == 0:
            continue
        out[which] += 1
        piv = m[which, live[which].argmax(axis=1), j:]
        piv = f.mul_arr(piv, f.pow_arr(piv[:, :1], f.q - 2))
        sub = m[which, :, j:]
        m[which, :, j:] = f.sub_arr(sub, f.mul_arr(sub[:, :, :1], piv[:, None, :]))
    return out.reshape(batch)


def nullspace(f: Field, m: np.ndarray) -> np.ndarray:
    """Rows form a basis of the right kernel {x : m x = 0}, one row
    e_c - sum_r m'[r, c] e_piv(r) per free column c of the rref m'.

    Parity comes from construction: under any split of the columns into
    even and odd, if every row of m is parity-homogeneous (as the rows of an
    even or an odd operator are, and the echelon basis of a graded space),
    so is every row of the basis.  Elimination only subtracts a pivot row
    from rows that are nonzero at its pivot, so of its parity, and the rows
    of m' stay homogeneous; then m'[r, c] is nonzero only for a row r of
    c's parity, whose pivot piv(r) has that parity too."""
    m = np.asarray(m, dtype=np.int64)
    cols = m.shape[1]
    r, pivots = rref(f, m)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = f.neg_arr(r[: len(pivots), free].T)
    return basis


def solve(f: Field, m: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution x of m x = b with free coordinates zero, or None when
    the system is inconsistent.

    ``b`` is one right-hand side (shape (rows,)) or a block of them, one per
    column (shape (rows, r)); a block is solved in one ``rref`` of
    ``[m | b]``, and x then has shape (cols, r).  The pivots inside m's
    columns depend on m alone, so each column of x is the answer a separate
    call gives; None if any column is inconsistent."""
    m = np.asarray(m, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim not in (1, 2) or b.shape[0] != m.shape[0]:
        raise ValueError("right-hand side length must equal the row count")
    block = b[:, None] if b.ndim == 1 else b
    r, pivots = rref(f, np.concatenate([m, block], axis=1))
    cols = m.shape[1]
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, block.shape[1]), dtype=np.int64)
    x[pivots] = r[: len(pivots), cols:]
    return x if b.ndim == 2 else x[:, 0]


def inv_matrix(f: Field, m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    aug = np.concatenate([np.asarray(m, dtype=np.int64), f.eye(n)], axis=1)
    r, pivots = rref(f, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


def reduce_vector(f: Field, basis_rref: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residue of v after elimination by an rref basis, one row at a time
    (the reference for `Echelon.reduce`)."""
    v = np.array(v, dtype=np.int64)
    for row in basis_rref:
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        c = nz[0]
        if v[c]:
            v = f.sub_arr(v, f.mul_arr(int(v[c]), row))
    return v


class Echelon:
    """A row space kept in reduced echelon form.

    ``basis`` rows are sorted by pivot column; ``pivots[i]`` is the column of
    the leading 1 of row i, and every other row is zero there.  The reduced
    echelon form of a subspace is unique, so however the space was grown,
    ``basis`` equals ``rref`` of any spanning set, truncated to its rank.
    """

    def __init__(self, field: Field, ambient: int, rows=None):
        self.field = field
        self.ambient = ambient
        self.basis = np.zeros((0, ambient), dtype=np.int64)
        self.pivots: List[int] = []
        if rows is not None:
            self.extend(rows)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, block) -> np.ndarray:
        """Residues of the rows of ``block`` (or of one vector) modulo the
        space: ``block - block[:, pivots] @ basis``, one field product."""
        block = np.array(block, dtype=np.int64)
        if not self.pivots:
            return block
        f = self.field
        return f.sub_arr(block, f.matmul(block[..., self.pivots], self.basis))

    def extend(self, block) -> np.ndarray:
        """Add the rows of ``block`` to the space.  Returns the indices of
        the rows whose residues gave the pivot rows (`_eliminate`): they are
        independent modulo the old space and, with it, span the new one."""
        f = self.field
        block = np.asarray(block, dtype=np.int64)
        if block.size == 0:
            return np.zeros(0, dtype=np.int64)
        res = self.reduce(block.reshape(-1, self.ambient))
        live = np.flatnonzero(np.any(res, axis=1))
        if not live.size:
            return live
        r, piv, source = _eliminate(f, res[live])
        new = r[: len(piv)]
        old = self.basis
        if self.pivots:
            # clear the new pivot columns from the old rows
            old = f.sub_arr(old, f.matmul(old[:, piv], new))
        pivots = self.pivots + piv
        order = np.argsort(pivots)
        self.basis = np.vstack([old, new])[order]
        self.pivots = [pivots[i] for i in order]
        return live[source]

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def coords(self, v) -> Optional[np.ndarray]:
        """Coefficients x with x @ basis = v, for a vector or a stack of them
        (row by row), or None if any v is outside the span; in reduced
        echelon form they are the entries at the pivots."""
        v = np.asarray(v, dtype=np.int64)
        if not self.contains(v):
            return None
        return v[..., self.pivots]

    def complement_columns(self) -> List[int]:
        piv = set(self.pivots)
        return [c for c in range(self.ambient) if c not in piv]


# ---------------------------------------------------------------------------
# field extension embeddings

def find_embedding(small: Field, big: Field) -> np.ndarray:
    """Code-translation table for the embedding GF(p^k) -> GF(p^K), k | K.

    Deterministic: the image of the power-basis generator is the smallest
    (in code order) root of the small field's modulus in the big field.
    """
    if small.p != big.p or big.k % small.k != 0:
        raise FieldError(f"no embedding {small} -> {big}")
    if small.k == 1:
        return np.arange(small.p, dtype=np.int64)
    # the small modulus at the codes of the big field by Horner's rule, up to
    # the first block with a root; a block is the codes with one top digit,
    # so the work arrays hold a p-th of the field, not all of it
    for block in np.arange(big.q, dtype=np.int64).reshape(big.p, -1):
        vals = np.zeros_like(block)
        for c in reversed(small.modulus):
            vals = big.add_arr(big.mul_arr(vals, block), c)
        roots = block[vals == 0]
        if roots.size:
            break
    root = int(roots[0])
    root_powers = np.array([big.pow(root, i) for i in range(small.k)], dtype=np.int64)
    return big.matmul(small.digits(np.arange(small.q)), root_powers)
