"""Lie superalgebra data model, axiom validation, and structural queries.

Basis convention: even elements first, then odd.  Structure constants are a
dense tensor c[i][j][l] with [x_i, x_j] = sum_l c[i][j][l] x_l, stored for
all (i, j); the validator enforces the sign rule rather than deriving half
the table, so corrupt input fails loudly.  The p-operation is given on even
basis elements and extended to arbitrary even vectors through the standard
expansion of (x + y)^[p] by the s_i corrections.

`bracket`, `ad_matrix`, `s_corrections` and `p_power` take a single
coordinate vector or a stack of them (shape (..., n)).  So `validate` checks
the super-Jacobi identity on all basis triples in a few batched field
products rather than one small product per triple; and each structural
query builds its bracket table (`bracket` broadcasts two stacks against
each other) in one product and tests it with one containment check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .gflin import (
    Echelon,
    Field,
    find_embedding,
    inv_matrix,
    nullspace,
    rank,
    shared_field,
)


class LsaError(ValueError):
    pass


class NeedsFieldExtension(Exception):
    """Raised when a search requires eigenvalues outside the working field."""


@dataclass
class Violation:
    axiom: str
    witness: tuple
    message: str

    def __str__(self):
        return f"[{self.axiom}] {self.message} (witness {self.witness})"


class Subspace(Echelon):
    """Graded subspace of the ambient algebra, basis kept in rref.

    Every basis row is parity-homogeneous; rows with pivots in the even
    coordinate block precede the odd ones because the ambient ordering is
    even-first.  A span is graded exactly when its rref rows are
    homogeneous, so the constructor takes any spanning rows and raises
    LsaError when their span is not graded.
    """

    def __init__(self, field: Field, s_even: int, ambient: int, basis: np.ndarray):
        super().__init__(field, ambient, basis)
        self.s_even = s_even
        for row in self.basis:
            if np.any(row[:s_even]) and np.any(row[s_even:]):
                raise LsaError("subspace basis row is not parity-homogeneous")

    def row_parity(self, r: int) -> int:
        return 0 if self.pivots[r] < self.s_even else 1

    @property
    def superdim(self) -> tuple:
        even = sum(1 for p in self.pivots if p < self.s_even)
        return (even, self.dim - even)

    def even_rows(self) -> np.ndarray:
        return self.basis[: self.superdim[0]]

    def odd_rows(self) -> np.ndarray:
        return self.basis[self.superdim[0] :]

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace(
            self.field,
            self.s_even,
            self.ambient,
            np.vstack([self.basis, other.basis]),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.dim == other.dim
            and np.array_equal(self.basis, other.basis)
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, superdim={self.superdim})"


class LieSuperAlgebra:
    """Structure constants plus an optional p-operation over GF(p^k)."""

    def __init__(
        self,
        field: Field,
        names: Sequence[str],
        parities: Sequence[int],
        structure: np.ndarray,
        pmap: Optional[np.ndarray] = None,
    ):
        self.field = field
        self.names = list(names)
        self.parities = np.asarray(parities, dtype=np.int64)
        n = len(self.names)
        if self.parities.shape != (n,):
            raise LsaError("parity vector length mismatch")
        if np.any(np.diff(self.parities) < 0):
            raise LsaError("basis must list even elements before odd ones")
        self.n = n
        self.s_even = int(np.sum(self.parities == 0))
        self.t_odd = n - self.s_even
        self.structure = np.asarray(structure, dtype=np.int64)
        if self.structure.shape != (n, n, n):
            raise LsaError("structure tensor must be n x n x n")
        if pmap is not None:
            pmap = np.asarray(pmap, dtype=np.int64)
            if pmap.shape != (self.s_even, n):
                raise LsaError("pmap must give one coordinate vector per even basis element")
        self.pmap = pmap

    @property
    def restricted(self) -> bool:
        return self.pmap is not None

    @property
    def superdim(self) -> tuple:
        return (self.s_even, self.t_odd)

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.n, dtype=np.int64)
        v[i] = 1
        return v

    def full_space(self) -> Subspace:
        return Subspace(self.field, self.s_even, self.n, self.field.eye(self.n))

    def zero_space(self) -> Subspace:
        return Subspace(self.field, self.s_even, self.n, np.zeros((0, self.n), dtype=np.int64))

    def parity_of(self, v: np.ndarray) -> Optional[int]:
        """0/1 for homogeneous vectors, None for mixed or zero."""
        ev = np.any(v[: self.s_even])
        od = np.any(v[self.s_even :])
        if ev and od:
            return None
        if od:
            return 1
        if ev:
            return 0
        return None

    # -- bracket machinery -------------------------------------------------

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] for two coordinate vectors, or for two stacks of them whose
        shapes (..., n) broadcast against each other: one field product."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if x.shape[-1:] != (self.n,) or y.shape[-1:] != (self.n,):
            raise LsaError("bracket operands must be coordinate vectors of length n")
        return self.field.matmul(self.ad_matrix(x), y[..., None])[..., 0]

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x): column j holds [x, e_j].  For a stack of vectors
        (shape (..., n)), the stack of their matrices (..., n, n)."""
        n = self.n
        x = np.asarray(x, dtype=np.int64)
        t = self.field.matmul(x, self.structure.reshape(n, n * n))
        return t.reshape(x.shape[:-1] + (n, n)).swapaxes(-1, -2)

    # -- p-operation -------------------------------------------------------

    def s_corrections(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sum of the correction terms in the expansion of (x + y)^[p], for
        two vectors or two stacks of them of one shape (..., n).

        The individual terms are read off as coefficients of powers of the
        auxiliary indeterminate in the (p-1)-fold application of
        ad(x t + y) to x, each divided by its index.  Every term has degree
        at least one in x, so the sum vanishes when x does.
        """
        f, p, n = self.field, self.field.p, self.n
        x = np.asarray(x, dtype=np.int64)
        # rows by the leading shape, which also holds when n = 0
        rows = int(np.prod(x.shape[:-1]))
        xs = x.reshape(rows, n)
        # ads[0] = ad(x), ads[1] = ad(y), one product for the whole stack
        ads = self.ad_matrix(np.stack([xs, np.asarray(y, dtype=np.int64).reshape(rows, n)]))
        # w[s, :, e]: coefficient of t^e after the steps so far, for row s
        w = np.zeros((xs.shape[0], n, p), dtype=np.int64)
        w[:, :, 0] = xs
        for _ in range(p - 1):
            both = f.matmul(ads, w)
            shifted = np.zeros_like(w)
            shifted[:, :, 1:] = both[0][:, :, :-1]
            w = f.add_arr(shifted, both[1])
        inverses = np.array([f.inv(i) for i in range(1, p)], dtype=np.int64)
        return f.matmul(w[:, :, :-1], inverses).reshape(x.shape)

    def p_power(self, x: np.ndarray) -> np.ndarray:
        """x^[p] for an even coordinate vector, or row by row for a stack of
        them (shape (..., n)), from the stored basis values.

        The even coordinates are added one at a time in basis order, each
        step adding the new term's stored p-th power and the s_i corrections
        against the sum so far.  A stack walks the coordinates once; a row
        whose coordinate is zero is left as it is, so every row gets what
        the call on that row alone returns."""
        if self.pmap is None:
            raise LsaError("algebra has no p-operation")
        f, p, n = self.field, self.field.p, self.n
        x = np.asarray(x, dtype=np.int64)
        if np.any(x[..., self.s_even :]):
            raise LsaError("p-power is defined on even vectors only")
        xs = x.reshape(int(np.prod(x.shape[:-1])), n)
        acc = np.zeros_like(xs)
        out = np.zeros_like(xs)
        for i in range(self.s_even):
            rows = np.flatnonzero(xs[:, i])
            if not len(rows):
                continue
            term = np.zeros((len(rows), n), dtype=np.int64)
            term[:, i] = xs[rows, i]
            step = f.mul_arr(f.pow_arr(xs[rows, i], p)[:, None], self.pmap[i])
            if np.any(acc[rows]):
                # zero for the rows whose sum so far is still zero
                step = f.add_arr(step, self.s_corrections(acc[rows], term))
            out[rows] = f.add_arr(out[rows], step)
            acc[rows] = f.add_arr(acc[rows], term)
        return out.reshape(x.shape)

    # -- validation ----------------------------------------------------------

    def validate(self, seed: int = 0) -> List[Violation]:
        """Axiom violations, in a fixed order: grading, super-skew,
        super-Jacobi on every basis triple, then for a p-operation its
        parity and ad(x_i^[p]) = ad(x_i)^p on the even basis.  Every check
        is exact: `seed` is accepted for callers that pass their run's seed,
        and nothing is drawn from it.

        The basis check is the whole of restrictedness.  By Jacobson's
        theorem (Strade and Farnsteiner 1988, Thm 2.2.3), once g0 is a Lie
        algebra with ad(x_i)^p = ad(x_i^[p]) on g0 for a basis x_i, exactly
        one p-map on g0 takes these values; it obeys the scalar rule and
        the additive expansion, so it is what `p_power` computes.  On all
        of g, D(x) = ad(x)^p - ad(x^[p]) is p-semilinear: by Jacobi,
        ad s_i(x, y) = s_i(ad x, ad y), so Jacobson's formula
        (A + B)^p = A^p + B^p + sum s_i(A, B) in End(g) gives
        D(x + y) = D(x) + D(y), and D(c x) = c^p D(x).  D is zero on the
        even basis, hence on g0."""
        f = self.field
        n, s = self.n, self.s_even
        out: List[Violation] = []
        par = self.parities
        c = self.structure
        names = self.names

        target = (par[:, None, None] + par[None, :, None]) % 2
        for i, j, l in np.argwhere((c != 0) & (par[None, None, :] != target)).tolist():
            out.append(
                Violation(
                    "grading",
                    (i, j, l),
                    f"[{names[i]},{names[j]}] has a "
                    f"component of wrong parity on {names[l]}",
                )
            )

        odd_pair = (par[:, None] * par[None, :]) % 2 == 1
        # expect[i, j] is what the sign rule makes of [x_i, x_j] for [x_j, x_i]
        expect = np.where(odd_pair[:, :, None], c, f.neg_arr(c))
        skew_bad = np.any(c.transpose(1, 0, 2) != expect, axis=2)
        for i, j in np.argwhere(np.triu(skew_bad)).tolist():
            out.append(
                Violation(
                    "super-skew",
                    (i, j),
                    f"[{names[j]},{names[i]}] disagrees with the "
                    f"sign rule applied to [{names[i]},{names[j]}]",
                )
            )

        # [x_i,[x_j,x_l]] = [[x_i,x_j],x_l] + sign [x_j,[x_i,x_l]], one l at a
        # time so that no intermediate has more than n^3 entries
        jacobi_bad = np.zeros((n, n, n), dtype=bool)
        flat = c.reshape(n * n, n)
        for l in range(n):
            # nested[i, j] = [x_i, [x_j, x_l]]
            nested = f.matmul(c[:, l, :], c)
            # first[i, j] = [[x_i, x_j], x_l]
            first = f.matmul(flat, c[:, l, :]).reshape(n, n, n)
            swapped = nested.transpose(1, 0, 2)
            second = np.where(odd_pair[:, :, None], f.neg_arr(swapped), swapped)
            jacobi_bad[:, :, l] = np.any(nested != f.add_arr(first, second), axis=2)
        for i, j, l in np.argwhere(jacobi_bad).tolist():
            out.append(
                Violation(
                    "super-jacobi",
                    (i, j, l),
                    "Jacobi identity fails on basis triple "
                    f"({names[i]},{names[j]},{names[l]})",
                )
            )

        if self.pmap is not None:
            for i in np.flatnonzero(np.any(self.pmap[:, s:], axis=1)).tolist():
                out.append(
                    Violation(
                        "pmap-parity",
                        (i,),
                        f"{names[i]}^[p] has odd components",
                    )
                )
            # ad(x_i) for the even basis is the transposed slice c[i]
            adp = f.mat_pow(c[:s].transpose(0, 2, 1), f.p)
            adq = self.ad_matrix(self.pmap)
            for i in np.flatnonzero(np.any(adp != adq, axis=(1, 2))).tolist():
                out.append(
                    Violation(
                        "p-map-ad",
                        (i,),
                        f"ad({names[i]}^[p]) differs from ad({names[i]})^p",
                    )
                )
        return out

    def __repr__(self):
        tag = "restricted " if self.restricted else ""
        return f"<{tag}LieSuperAlgebra dim ({self.s_even}|{self.t_odd}) over {self.field}>"


# ---------------------------------------------------------------------------
# structural queries


def bracket_span(g: LieSuperAlgebra, a: Subspace, b: Subspace) -> Subspace:
    return Subspace(g.field, g.s_even, g.n, g.bracket(a.basis[:, None], b.basis))


def derived_subalgebra(g: LieSuperAlgebra) -> Subspace:
    S = g.full_space()
    return bracket_span(g, S, S)


def derived_series(g: LieSuperAlgebra) -> List[Subspace]:
    series = [g.full_space()]
    while series[-1].dim > 0:
        nxt = bracket_span(g, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_solvable(g: LieSuperAlgebra) -> bool:
    return derived_series(g)[-1].dim == 0


def lower_central_series(g: LieSuperAlgebra, h: Subspace) -> List[Subspace]:
    series = [h]
    while series[-1].dim > 0:
        nxt = bracket_span(g, h, series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_nilpotent_subalg(g: LieSuperAlgebra, h: Subspace) -> bool:
    return lower_central_series(g, h)[-1].dim == 0


def is_completely_solvable(g: LieSuperAlgebra) -> bool:
    return is_nilpotent_subalg(g, derived_subalgebra(g))


def centralizer_of(g: LieSuperAlgebra, S: Subspace) -> Subspace:
    """All X with [X, S] = 0."""
    if S.dim == 0:
        return g.full_space()
    # t[d, i] = [e_i, d]; the conditions are the rows indexed by (d, l)
    t = g.bracket(g.field.eye(g.n), S.basis[:, None])
    m = t.transpose(0, 2, 1).reshape(-1, g.n)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, m))


def kac_odd_space(g: LieSuperAlgebra) -> Subspace:
    """An odd subspace V of g with [g0, V] in V and [V, V] = 0, read off the
    bracket table, so that g0 + V is a subalgebra: of the eigenspaces of
    ad z on the odd part, z a basis vector of the centre of g0 and the
    eigenvalue in the working field, the first of largest dimension that
    brackets to zero with itself; the zero space when there is none.  As
    z is central in g0, ad z commutes with ad x for x in g0, so each of its
    eigenspaces is g0-stable.  For gl(m|n) and sl(m|n) this is one of the
    two odd blocks of the Z-grading g_-1 + g0 + g_1.  The search tries
    every field element as an eigenvalue, and draws nothing at random."""
    f, s, t = g.field, g.s_even, g.t_odd
    even = Subspace(f, s, g.n, f.eye(g.n)[:s])
    best = g.zero_space()
    for z in centralizer_of(g, even).even_rows():
        ad = g.ad_matrix(z)[s:, s:]
        for lam in range(f.q):
            rows = nullspace(f, f.sub_arr(ad, f.mul_arr(lam, f.eye(t))))
            if rows.shape[0] <= best.dim:
                continue
            V = Subspace(f, s, g.n, np.hstack([np.zeros((len(rows), s), dtype=np.int64), rows]))
            if not np.any(g.bracket(V.basis[:, None], V.basis)):
                best = V
    return best


def intersect_spaces(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise LsaError("ambient dimension mismatch")
    stacked = np.concatenate([a.basis.T, a.field.neg_arr(b.basis.T)], axis=1)
    ker = nullspace(a.field, stacked)
    rows = a.field.matmul(ker[:, : a.dim], a.basis)
    return Subspace(a.field, a.s_even, a.ambient, rows)


def is_subalgebra(g: LieSuperAlgebra, S: Subspace) -> bool:
    return S.contains(g.bracket(S.basis[:, None], S.basis))


def is_ideal(g: LieSuperAlgebra, S: Subspace) -> bool:
    return S.contains(g.bracket(g.field.eye(g.n)[:, None], S.basis))


def is_p_closed(g: LieSuperAlgebra, S: Subspace) -> bool:
    """pmap(S_even) inside S; sufficient for full p-closure when S is a
    subalgebra, by the additive expansion."""
    if g.pmap is None:
        raise LsaError("p-closure needs a p-operation")
    return S.contains(g.p_power(S.even_rows()))


def restricted_closure(g: LieSuperAlgebra, S: Subspace) -> Subspace:
    """Smallest graded subspace containing S closed under bracket and [p]."""
    cur = S
    while True:
        grown = cur.sum_with(bracket_span(g, cur, cur))
        if g.pmap is not None:
            rows = np.vstack([grown.basis, g.p_power(grown.even_rows())])
            grown = Subspace(g.field, g.s_even, g.n, rows)
        if grown.dim == cur.dim:
            return cur
        cur = grown


# ---------------------------------------------------------------------------
# restricted automorphisms


def is_restricted_automorphism(g: LieSuperAlgebra, phi: np.ndarray) -> bool:
    """Whether phi (column j holds phi(e_j)) is an invertible map of g that
    preserves parity, the bracket on all basis pairs and the p-map on the
    even basis.  A p-map is fixed by its values on a basis (Jacobson), so
    the basis check is exact."""
    if g.pmap is None:
        raise LsaError("a restricted automorphism needs a p-operation")
    f, s = g.field, g.s_even
    phi = np.asarray(phi, dtype=np.int64)
    if np.any(phi[s:, :s]) or np.any(phi[:s, s:]) or rank(f, phi) != g.n:
        return False
    images = phi.T  # row j is phi(e_j)
    if not np.array_equal(f.matmul(g.structure, images), g.bracket(images[:, None], images)):
        return False
    return bool(np.array_equal(f.matmul(g.pmap, images), g.p_power(images[:s])))


def _multiplicative_generator(f: Field) -> int:
    """The smallest code of order q - 1 in GF(q)*."""
    m = f.q - 1
    primes, rest, r = [], m, 2
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    return next(w for w in range(1, f.q) if all(f.pow(w, m // r) != 1 for r in primes))


def _kernel_mod(rows, n: int, m: int) -> List[List[int]]:
    """Generators of the group {a in (Z/m)^n : rows . a = 0 mod m}, for
    integer rows of length n.

    Unimodular row and column operations, entries kept mod m, bring the
    rows to a diagonal D = U rows V (Smith's elimination; the kernel needs
    no divisibility chain between the d_t).  With a = V b the system is
    d_t b_t = 0 mod m, whose solutions b_t are the multiples of m / gcd(d_t,
    m), with d_t = 0 past the last pivot.  Each nonzero step times a column
    of V is a generator."""
    A = [[int(x) % m for x in row] for row in rows]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    d = []
    while len(d) < min(len(A), n):
        t = len(d)
        entries = [(A[r][c], r, c) for r in range(t, len(A)) for c in range(t, n) if A[r][c]]
        if not entries:
            break
        _, r, c = min(entries)
        A[t], A[r] = A[r], A[t]
        for row in A + V:
            row[t], row[c] = row[c], row[t]
        done = True
        for r in range(t + 1, len(A)):
            k = A[r][t] // A[t][t]
            A[r] = [(x - k * y) % m for x, y in zip(A[r], A[t])]
            done = done and not A[r][t]
        for c in range(t + 1, n):
            k = A[t][c] // A[t][t]
            for row in A + V:
                row[c] = (row[c] - k * row[t]) % m
            done = done and not A[t][c]
        if done:
            d.append(A[t][t])
    d += [0] * (n - len(d))
    steps = [m // math.gcd(dt, m) for dt in d]
    return [[step * V[i][t] % m for i in range(n)] for t, step in enumerate(steps) if step < m]


def _diagonal_automorphisms(g: LieSuperAlgebra) -> List[np.ndarray]:
    """Generators of the group of diagonal restricted automorphisms e_i ->
    c_i e_i.  Such a map keeps the bracket exactly when c_k = c_i c_j for
    each [e_i, e_j] with an e_k term, and the p-map exactly when c_k = c_i^p
    for each e_i^[p] with an e_k term ((c x)^[p] = c^p x^[p]).  With c_i =
    w^(a_i), w a generator of GF(q)*, that is one linear system on a over
    Z/(q - 1), solved by `_kernel_mod`."""
    f, n = g.field, g.n

    def equation(k, *rest):
        # a_k minus the a_i of `rest`, each as often as it occurs
        row = [0] * n
        row[k] += 1
        for i in rest:
            row[i] -= 1
        return tuple(row)

    system = {equation(k, i, j) for i, j, k in zip(*np.nonzero(g.structure))}
    system |= {equation(k, *[i] * f.p) for i, k in zip(*np.nonzero(g.pmap))}
    w = _multiplicative_generator(f)
    return [np.diag([f.pow(w, e) for e in a]).astype(np.int64)
            for a in _kernel_mod(sorted(system), n, f.q - 1)]


def restricted_automorphisms(g: LieSuperAlgebra) -> np.ndarray:
    """Generators of restricted automorphisms, as a stack (count, n, n):
    first exp(t ad x) = sum over k < p of (t ad x)^k / k!, for each even
    basis vector x with ad x nonzero and (ad x)^p = 0 and each t in GF(q)*,
    in that order; then generators of the group of diagonal automorphisms
    e_i -> c_i e_i in the algebra's basis (the torus scalings, read off one
    diagonal form of their linear system by `_diagonal_automorphisms`).
    Each generator is kept only if it passes `is_restricted_automorphism`.
    An algebra without a p-map has none."""
    f, p, n, s = g.field, g.field.p, g.n, g.s_even
    if g.pmap is None:
        return np.zeros((0, n, n), dtype=np.int64)
    ads = g.ad_matrix(f.eye(n)[:s])
    powers = [np.broadcast_to(f.eye(n), ads.shape)]
    for _ in range(p - 1):
        powers.append(f.matmul(ads, powers[-1]))
    powers = np.stack(powers, axis=1)  # (s, p, n, n): ad^0 .. ad^(p-1)
    nilpotent = np.any(ads, axis=(1, 2)) & ~np.any(f.matmul(ads, powers[:, -1]), axis=(1, 2))
    # coeff[t - 1, k] = t^k / k!
    ts = np.arange(1, f.q, dtype=np.int64)
    inv_fact = [f.inv(math.factorial(k) % p) for k in range(p)]
    coeff = np.stack([f.mul_arr(f.pow_arr(ts, k), inv_fact[k]) for k in range(p)], axis=1)
    found = []
    for i in np.flatnonzero(nilpotent):
        phis = f.matmul(coeff, powers[i].reshape(p, n * n)).reshape(-1, n, n)
        found += [phi for phi in phis if is_restricted_automorphism(g, phi)]
    found += [phi for phi in _diagonal_automorphisms(g) if is_restricted_automorphism(g, phi)]
    return np.array(found, dtype=np.int64).reshape(-1, n, n)


# ---------------------------------------------------------------------------
# quotients, basis change, subalgebra presentation


def quotient_by_ideal(g: LieSuperAlgebra, z: Subspace):
    """Quotient Lie superalgebra on the non-pivot coordinates of z.

    Returns (quotient algebra without p-operation, list of lifted column
    indices).  Coordinates of the quotient are the complement columns, so a
    vector is projected by reducing modulo z and reading off those columns.
    """
    if not is_ideal(g, z):
        raise LsaError("quotient requires an ideal")
    keep = z.complement_columns()
    names = [g.names[c] for c in keep]
    parities = [int(g.parities[c]) for c in keep]
    structure = z.reduce(g.structure[np.ix_(keep, keep)])[..., keep]
    q = LieSuperAlgebra(g.field, names, parities, structure, None)
    return q, keep


def change_basis(g: LieSuperAlgebra, P: np.ndarray, Pinv=None) -> LieSuperAlgebra:
    """Rewrite g in the basis given by the rows of P (old coordinates), with
    basis names b0, b1, ...; Pinv, when given, is P's inverse.

    P must be invertible and graded: rows keep the even-first layout.
    """
    f = g.field
    P = np.asarray(P, dtype=np.int64)
    n, s = g.n, g.s_even
    if P.shape != (n, n):
        raise LsaError("basis-change matrix has wrong shape")
    for a in range(n):
        expected = 0 if a < s else 1
        par = g.parity_of(P[a])
        if par != expected:
            raise LsaError(f"basis-change row {a} is not homogeneous of the right parity")
    Pinv = inv_matrix(f, P) if Pinv is None else Pinv
    structure = f.matmul(g.bracket(P[:, None], P), Pinv)
    pmap = None
    if g.pmap is not None:
        pmap = f.matmul(g.p_power(P[:s]), Pinv)
    return LieSuperAlgebra(f, [f"b{a}" for a in range(n)], g.parities.copy(), structure, pmap)


@dataclass
class Subalgebra:
    """A subalgebra presented as its own algebra plus the embedding rows."""

    parent: LieSuperAlgebra
    space: Subspace
    alg: LieSuperAlgebra

    @property
    def rows(self) -> np.ndarray:
        return self.space.basis

    def drop(self, v: np.ndarray) -> np.ndarray:
        c = self.space.coords(v)
        if c is None:
            raise LsaError("vector is outside the subalgebra")
        return c


def as_subalgebra(g: LieSuperAlgebra, S: Subspace) -> Subalgebra:
    rows = S.basis
    m = rows.shape[0]
    table = g.bracket(rows[:, None], rows)
    if not S.contains(table):
        raise LsaError("subspace is not bracket-closed")
    # in reduced echelon form the coordinates are the entries at the pivots
    structure = table[..., S.pivots]
    parities = [S.row_parity(a) for a in range(m)]
    names = [f"s{a}" for a in range(m)]
    s_ev = sum(1 for p in parities if p == 0)
    # None when S is not p-closed: then it is a plain Lie superalgebra
    pmap = S.coords(g.p_power(rows[:s_ev])) if g.pmap is not None else None
    alg = LieSuperAlgebra(g.field, names, parities, structure, pmap)
    return Subalgebra(g, S, alg)


def extend_scalars(g: LieSuperAlgebra, big: Field):
    """Base change GF(p^k) -> GF(p^K) through the canonical embedding."""
    table = find_embedding(g.field, big)
    structure = table[g.structure]
    pmap = table[g.pmap] if g.pmap is not None else None
    return LieSuperAlgebra(big, g.names, g.parities.copy(), structure, pmap), table


def scalar_extensions(g: LieSuperAlgebra, ext_cap: int):
    """(degree, base change of g, embedding table) for degree = 1, 2, ...
    Degree 1 is g itself with the identity table, and comes first whatever
    the cap; each larger degree follows while the total degree over GF(p)
    stays within ext_cap.  Lazy, so a caller that stops early builds no
    larger field, and each extension field is the process's `shared_field`,
    built once."""
    f = g.field
    yield 1, g, np.arange(f.q, dtype=np.int64)
    degree = 2
    while f.k * degree <= ext_cap:
        yield (degree,) + extend_scalars(g, shared_field(f.p, f.k * degree))
        degree += 1


# ---------------------------------------------------------------------------
# flags of ideals and graded hyperplanes (completely solvable)


def _line_ideal(g: LieSuperAlgebra) -> Subspace:
    """A one-dimensional ideal of a completely solvable algebra.

    Works inside the centralizer of the derived subalgebra, where the basis
    generators act as super-commuting operators: odd operators are killed by
    kernel intersection, even ones by iterated eigenspace intersection.
    Raises NeedsFieldExtension when an even operator has no eigenvalue in
    the working field.
    """
    f = g.field
    D = derived_subalgebra(g)
    Z = centralizer_of(g, D)
    if Z.dim == 0:
        raise LsaError("centralizer of the derived subalgebra vanished; "
                       "input is not completely solvable")
    K = Z
    for j in range(g.n):
        if K.dim == 0:
            break
        images = g.bracket(g.basis_vector(j), K.basis)
        if not K.contains(images):
            raise LsaError("centralizer is not invariant; structure corrupt")
        A = images[:, K.pivots].T  # act on column coordinate vectors
        if g.parities[j] == 1:
            ker = nullspace(f, A)
        else:
            ker = None
            for lam in range(f.q):
                shifted = f.sub_arr(A, f.mul_arr(lam, f.eye(K.dim)))
                nz = nullspace(f, shifted)
                if nz.shape[0] > 0:
                    ker = nz
                    break
            if ker is None:
                raise NeedsFieldExtension(f"no eigenvalue of ad({g.names[j]}) in {f}")
        if ker.shape[0] == 0:
            raise LsaError("no common eigenvector; input is not completely solvable")
        rows = f.matmul(ker, K.basis)
        K = Subspace(f, g.s_even, g.n, rows)
    v = K.basis[0]
    line = Subspace(f, g.s_even, g.n, v[None, :])
    if not is_ideal(g, line):
        raise LsaError("eigenvector search produced a non-ideal; "
                       "reported as a counterexample candidate")
    return line


def one_dim_ideal_flag(g: LieSuperAlgebra) -> List[Subspace]:
    """Chain g = g_0 > g_1 > ... > 0 of ideals of g descending by one."""
    if not is_completely_solvable(g):
        raise LsaError("flag construction requires a completely solvable algebra")
    return _ideal_flag(g)


def _ideal_flag(g: LieSuperAlgebra) -> List[Subspace]:
    """`one_dim_ideal_flag` without the check, which every quotient of a
    completely solvable algebra passes."""
    if g.n == 0:
        return [g.zero_space()]
    z = _line_ideal(g)
    q, keep = quotient_by_ideal(g, z)
    sub = _ideal_flag(q) if q.n > 0 else [q.zero_space()]
    flag = []
    for m in sub:
        # m lifted back through the kept coordinates, then the line z
        rows = np.zeros((m.dim + 1, g.n), dtype=np.int64)
        rows[:-1, keep] = m.basis
        rows[-1] = z.basis[0]
        flag.append(Subspace(g.field, g.s_even, g.n, rows))
    flag.append(g.zero_space())
    return flag


def graded_hyperplanes_containing(g: LieSuperAlgebra, W: Subspace):
    """Graded codimension-one subspaces of g containing W, in a fixed order:
    even-side kernels first, functionals enumerated lexicographically.  A
    normalized phi on one side's complement columns of W gives ker(x ->
    phi(x - x[pivots] W)), the null space of the one row psi that is phi on
    those columns and -W phi at the pivots; psi is homogeneous, so that
    null space is graded (`nullspace`)."""
    f = g.field
    comp = W.complement_columns()
    for side in ([c for c in comp if c < g.s_even], [c for c in comp if c >= g.s_even]):
        for phi in _normalized_functionals(f, len(side)):
            psi = np.zeros(g.n, dtype=np.int64)
            psi[side] = phi
            psi[W.pivots] = f.neg_arr(f.matmul(W.basis, psi))
            yield Subspace(f, g.s_even, g.n, nullspace(f, psi[None, :]))


def _normalized_functionals(f: Field, c: int):
    """Nonzero functionals up to scalar: first nonzero coefficient is 1."""
    from itertools import product

    for t in range(c):
        for tail in product(range(f.q), repeat=c - t - 1):
            yield (0,) * t + (1,) + tail
