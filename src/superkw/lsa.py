"""Lie superalgebra data model, axiom validation, and structural queries.

Basis convention: even elements first, then odd.  Structure constants are a
dense tensor c[i][j][l] with [x_i, x_j] = sum_l c[i][j][l] x_l, stored for
all (i, j); the validator enforces the sign rule rather than deriving half
the table, so corrupt input fails loudly.  The p-operation is given on even
basis elements and extended to arbitrary even vectors through the standard
expansion of (x + y)^[p] by the s_i corrections.

`bracket`, `ad_matrix`, `s_corrections` and `p_power` take a single
coordinate vector or a stack of them (shape (..., n)).  So `validate` checks
its sampled p-map rules, and the super-Jacobi identity on all basis triples,
in a few batched field products rather than one small product per vector;
and each structural query builds its bracket table (`bracket` broadcasts
two stacks against each other) in one product and tests it with one
containment check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .gflin import (
    Echelon,
    Field,
    find_embedding,
    graded_span,
    inv_matrix,
    nullspace,
    rank,
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
    even-first.
    """

    def __init__(self, field: Field, s_even: int, ambient: int, basis: np.ndarray):
        super().__init__(field, ambient, basis)
        self.s_even = s_even
        for row in self.basis:
            if np.any(row[:s_even]) and np.any(row[s_even:]):
                raise LsaError("subspace basis row is not parity-homogeneous")

    @classmethod
    def from_vectors(cls, field, s_even, ambient, vectors) -> "Subspace":
        """Graded span: parity components of the inputs are split first."""
        rows = np.array(vectors, dtype=np.int64).reshape(len(vectors), ambient)
        span = graded_span(field, rows, np.arange(ambient) >= s_even)
        return cls(field, s_even, ambient, span.basis)

    @classmethod
    def zero(cls, field, s_even, ambient) -> "Subspace":
        return cls(field, s_even, ambient, np.zeros((0, ambient), dtype=np.int64))

    @classmethod
    def full(cls, field, s_even, ambient) -> "Subspace":
        return cls(field, s_even, ambient, field.eye(ambient))

    def row_parity(self, r: int) -> int:
        return 0 if self.pivots[r] < self.s_even else 1

    @property
    def superdim(self) -> tuple:
        even = sum(1 for p in self.pivots if p < self.s_even)
        return (even, self.dim - even)

    def even_rows(self) -> np.ndarray:
        even = sum(1 for p in self.pivots if p < self.s_even)
        return self.basis[:even]

    def odd_rows(self) -> np.ndarray:
        even = sum(1 for p in self.pivots if p < self.s_even)
        return self.basis[even:]

    def contains_space(self, other: "Subspace") -> bool:
        return self.contains(other.basis)

    coords_of = Echelon.coords

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
        return Subspace.full(self.field, self.s_even, self.n)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.s_even, self.n)

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

    def validate(self, samples: int = 200, seed: int = 0) -> List[Violation]:
        """Axiom violations, in a fixed order: grading, super-skew,
        super-Jacobi on every basis triple, then for a p-operation its
        parity, ad(x_i^[p]) = ad(x_i)^p on the even basis, and, when all of
        that holds, the scalar rule and the additive expansion on `samples`
        random vectors each, drawn from `seed`.  Each sampled rule reports
        its first failing sample only."""
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
            if not out and s > 0:
                out.extend(self._sampled_pmap_rules(samples, seed))
        return out

    def _sampled_pmap_rules(self, samples: int, seed: int) -> List[Violation]:
        """The scalar rule (c x)^[p] = c^p x^[p], then the additive expansion
        (x + y)^[p] = x^[p] + y^[p] + s(x, y), each on one stack of `samples`
        random even vectors.  The draws are those of checking one sample at
        a time and stopping at the first failure: when the scalar rule fails
        at sample t, the additive samples are drawn after sample t's."""
        f, p, n, s = self.field, self.field.p, self.n, self.s_even
        out: List[Violation] = []

        def scalar_samples(rng, count):
            X = np.zeros((count, n), dtype=np.int64)
            C = np.zeros(count, dtype=np.int64)
            for t in range(count):
                X[t, :s] = f.rand(rng, s)
                C[t] = int(f.rand(rng))
            return X, C

        rng = np.random.default_rng(seed)
        X, C = scalar_samples(rng, samples)
        lhs = self.p_power(f.mul_arr(C[:, None], X))
        rhs = f.mul_arr(f.pow_arr(C, p)[:, None], self.p_power(X))
        bad = np.flatnonzero(np.any(lhs != rhs, axis=1))
        if len(bad):
            t = int(bad[0])
            out.append(
                Violation(
                    "p-map-scalar",
                    (t,),
                    "scalar-multiple rule (kx)^[p] = k^p x^[p] fails "
                    f"for sampled k={int(C[t])}",
                )
            )
            # replay the draws up to the failing sample
            rng = np.random.default_rng(seed)
            scalar_samples(rng, t + 1)

        X = np.zeros((samples, n), dtype=np.int64)
        Y = np.zeros((samples, n), dtype=np.int64)
        for t in range(samples):
            X[t, :s] = f.rand(rng, s)
            Y[t, :s] = f.rand(rng, s)
        pw = self.p_power(np.stack([f.add_arr(X, Y), X, Y]))
        rhs = f.add_arr(f.add_arr(pw[1], pw[2]), self.s_corrections(X, Y))
        bad = np.flatnonzero(np.any(pw[0] != rhs, axis=1))
        if len(bad):
            out.append(
                Violation(
                    "p-map-sum",
                    (int(bad[0]),),
                    "additive expansion of (x+y)^[p] fails on a sample",
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


def derived_subalgebra(g: LieSuperAlgebra, S: Optional[Subspace] = None) -> Subspace:
    S = S if S is not None else g.full_space()
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


def center(g: LieSuperAlgebra) -> Subspace:
    m = g.structure.transpose(1, 2, 0).reshape(g.n * g.n, g.n)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, m))


def centralizer_of(g: LieSuperAlgebra, S: Subspace) -> Subspace:
    """All X with [X, S] = 0."""
    if S.dim == 0:
        return g.full_space()
    # t[d, i] = [e_i, d]; the conditions are the rows indexed by (d, l)
    t = g.bracket(g.field.eye(g.n), S.basis[:, None])
    m = t.transpose(0, 2, 1).reshape(-1, g.n)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, m))


def subalgebra_closure(g: LieSuperAlgebra, vectors: Iterable[np.ndarray]) -> Subspace:
    S = Subspace.from_vectors(g.field, g.s_even, g.n, list(vectors))
    while True:
        grown = S.sum_with(bracket_span(g, S, S))
        if grown.dim == S.dim:
            return S
        S = grown


def intersect_spaces(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise LsaError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.s_even, a.ambient)
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


def restricted_automorphisms(g: LieSuperAlgebra) -> np.ndarray:
    """Generators exp(t ad x) = sum over k < p of (t ad x)^k / k!, for each
    even basis vector x with ad x nonzero and (ad x)^p = 0 and each t in
    GF(q)*, that pass `is_restricted_automorphism`; a stack (count, n, n) in
    that order.  An algebra without a p-map has none."""
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


def lift_from_quotient(ambient_n: int, keep: list, v: np.ndarray) -> np.ndarray:
    out = np.zeros(ambient_n, dtype=np.int64)
    out[keep] = v
    return out


def change_basis(g: LieSuperAlgebra, P: np.ndarray, names=None) -> LieSuperAlgebra:
    """Rewrite g in the basis given by the rows of P (old coordinates).

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
    Pinv = inv_matrix(f, P)
    structure = f.matmul(g.bracket(P[:, None], P), Pinv)
    pmap = None
    if g.pmap is not None:
        pmap = f.matmul(g.p_power(P[:s]), Pinv)
    names = names or [f"b{a}" for a in range(n)]
    return LieSuperAlgebra(f, names, g.parities.copy(), structure, pmap)


@dataclass
class Subalgebra:
    """A subalgebra presented as its own algebra plus the embedding rows."""

    parent: LieSuperAlgebra
    space: Subspace
    alg: LieSuperAlgebra

    @property
    def rows(self) -> np.ndarray:
        return self.space.basis

    def lift(self, v: np.ndarray) -> np.ndarray:
        return self.parent.field.matmul(
            np.asarray(v, dtype=np.int64)[None, :], self.rows
        ).ravel()

    def drop(self, v: np.ndarray) -> np.ndarray:
        c = self.space.coords_of(v)
        if c is None:
            raise LsaError("vector is outside the subalgebra")
        return c


def as_subalgebra(g: LieSuperAlgebra, S: Subspace, with_pmap: bool = True) -> Subalgebra:
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
    pmap = None
    if with_pmap and g.pmap is not None:
        pmap = np.zeros((s_ev, m), dtype=np.int64)
        for a, w in enumerate(g.p_power(rows[:s_ev])):
            c = S.coords_of(w)
            if c is None:
                # not p-closed: present it as a plain Lie superalgebra
                pmap = None
                break
            pmap[a] = c
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
    while the total degree over GF(p) stays within ext_cap; degree 1 is g
    itself with the identity table.  Lazy, so a caller that stops early
    builds no larger field."""
    f = g.field
    degree = 1
    while f.k * degree <= ext_cap:
        if degree == 1:
            yield 1, g, np.arange(f.q, dtype=np.int64)
        else:
            yield (degree,) + extend_scalars(g, Field(f.p, f.k * degree))
        degree += 1


# ---------------------------------------------------------------------------
# flags of ideals and codimension-one extensions (completely solvable)


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
        rows = [lift_from_quotient(g.n, keep, row) for row in m.basis]
        rows.append(z.basis[0])
        flag.append(Subspace(g.field, g.s_even, g.n, np.array(rows)))
    flag.append(g.zero_space())
    return flag


def graded_hyperplanes_containing(g: LieSuperAlgebra, W: Subspace):
    """Graded codimension-one subspaces of g containing W, in a fixed order:
    even-side kernels first, functionals enumerated lexicographically."""
    f = g.field
    comp = W.complement_columns()
    comp_even = [c for c in comp if c < g.s_even]
    comp_odd = [c for c in comp if c >= g.s_even]
    for side in (comp_even, comp_odd):
        c = len(side)
        if c == 0:
            continue
        other = comp_odd if side is comp_even else comp_even
        for phi in _normalized_functionals(f, c):
            t = next(i for i in range(c) if phi[i])
            rows = [W.basis] if W.dim else []
            extra = []
            for u in range(c):
                if u == t:
                    continue
                vec = np.zeros(g.n, dtype=np.int64)
                vec[side[u]] = 1
                vec[side[t]] = f.neg(int(phi[u]))
                extra.append(vec)
            for cc in other:
                vec = np.zeros(g.n, dtype=np.int64)
                vec[cc] = 1
                extra.append(vec)
            if extra:
                rows.append(np.array(extra))
            basis = np.vstack(rows) if rows else np.zeros((0, g.n), dtype=np.int64)
            yield Subspace(f, g.s_even, g.n, basis)


def _normalized_functionals(f: Field, c: int):
    """Nonzero functionals up to scalar: first nonzero coefficient is 1."""
    from itertools import product

    for t in range(c):
        for tail in product(range(f.q), repeat=c - t - 1):
            yield (0,) * t + (1,) + tail


def codim1_extend(g: LieSuperAlgebra, h: Subspace) -> Subspace:
    """A codimension-one subalgebra of g containing the proper subalgebra h."""
    if h.dim >= g.n:
        raise LsaError("subalgebra is not proper")
    if h.dim == g.n - 1:
        return h
    # any hyperplane containing h + [g,g] is a subalgebra; try those first by
    # seeding the search with the enlarged subspace, then fall back to a scan
    D = derived_subalgebra(g)
    seed = h.sum_with(D)
    if seed.dim < g.n:
        for H in graded_hyperplanes_containing(g, seed):
            return H
    for H in graded_hyperplanes_containing(g, h):
        if is_subalgebra(g, H):
            return H
    raise NeedsFieldExtension("no codimension-one subalgebra over the working field")
