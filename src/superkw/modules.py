"""Graded modules over a reduced enveloping algebra: validation, spinning,
graded irreducibility (a randomized Meataxe that spins one kernel vector per
parity side and one transpose-kernel vector, then certifies by the Holt-Rees
test or, where that fails, from the module's even commutant), composition
factors grouped into isomorphism classes, Hom(S, M) and End(S) of a
certified simple S as one linear solve from its certificate (the
standard-basis method), simultaneous eigenspaces, and the degree-reduction
filtration check for induced modules.

Module vectors are column vectors; a set of module vectors is handled as a
row-space in reduced echelon form.  Because action matrices are parity
homogeneous, every computed subspace has a parity-homogeneous echelon basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .chargeom import chi_value, restrict_chi
from .gflin import (
    Echelon,
    Field,
    graded_span,
    inv_matrix,
    irreducible_factors,
    nullspace,
    poly_deg,
    rank,
    rref,
    solve,
)
from .lsa import LieSuperAlgebra, LsaError, Subspace, Violation

MEATAXE_ATTEMPTS = 64


@dataclass
class SuperModule:
    """One action matrix per algebra basis element, plus the grading."""

    alg: LieSuperAlgebra
    chi: np.ndarray
    parities: np.ndarray
    action: np.ndarray  # (n_generators, dim, dim)

    @property
    def dim(self) -> int:
        return self.parities.shape[0]

    @property
    def superdim(self) -> tuple:
        odd = int(np.sum(self.parities))
        return (self.dim - odd, odd)

    def rho(self, x: np.ndarray) -> np.ndarray:
        """The action of an algebra vector (d, d), or of a stack of them
        (..., n) -> (..., d, d): one product over the generators the stack
        uses, so a sparse vector does not copy the whole action tensor."""
        x = np.asarray(x, dtype=np.int64)
        used = np.flatnonzero(np.any(x, axis=tuple(range(x.ndim - 1))))
        d = self.dim
        acc = self.alg.field.matmul(x[..., used], self.action[used].reshape(len(used), d * d))
        return acc.reshape(x.shape[:-1] + (d, d))

    def transpose_module(self) -> "SuperModule":
        return SuperModule(
            alg=self.alg,
            chi=self.chi,
            parities=self.parities.copy(),
            action=self.action.transpose(0, 2, 1).copy(),
        )


# echelonized span of module vectors (rows)
RowSpace = Echelon


class MeataxeFailure(RuntimeError):
    """The graded Meataxe exhausted its attempts without a verdict."""


def validate_module(M: SuperModule) -> List[Violation]:
    """Bracket compatibility, p-character compatibility, and grading."""
    g = M.alg
    f = g.field
    out: List[Violation] = []
    par_m = M.parities
    n = g.n
    if M.action.shape != (n, M.dim, M.dim):
        return [Violation("module-shape", (), "action tensor has wrong shape")]
    same = par_m[:, None] == par_m[None, :]
    for i in range(n):
        bad = M.action[i][same] if g.parities[i] == 1 else M.action[i][~same]
        if np.any(bad):
            out.append(
                Violation(
                    "module-grading",
                    (i,),
                    f"action of {g.names[i]} is not parity-homogeneous",
                )
            )
    for i in range(n):
        for j in range(n):
            lhs = M.rho(g.structure[i, j])
            t = f.matmul(M.action[i], M.action[j])
            u = f.matmul(M.action[j], M.action[i])
            if (g.parities[i] * g.parities[j]) % 2 == 1:
                rhs = f.add_arr(t, u)
            else:
                rhs = f.sub_arr(t, u)
            if not np.array_equal(lhs, rhs):
                out.append(
                    Violation(
                        "module-bracket",
                        (i, j),
                        f"action of [{g.names[i]},{g.names[j]}] disagrees with "
                        "the supercommutator of the actions",
                    )
                )
    if g.pmap is not None:
        for i in range(g.s_even):
            lhs = f.mat_pow(M.action[i], f.p)
            rhs = M.rho(g.pmap[i])
            scal = f.pow(int(M.chi[i]), f.p) if M.chi.size else 0
            rhs = f.add_arr(rhs, f.mul_arr(scal, f.eye(M.dim)))
            if not np.array_equal(lhs, rhs):
                out.append(
                    Violation(
                        "module-p-character",
                        (i,),
                        f"rho({g.names[i]})^p - rho({g.names[i]}^[p]) is not the "
                        "p-th power of the character value",
                    )
                )
    return out


def spin(M: SuperModule, v: np.ndarray) -> RowSpace:
    """Smallest action-invariant subspace containing a homogeneous vector."""
    v = np.asarray(v, dtype=np.int64)
    if not np.any(v):
        raise LsaError("cannot spin the zero vector")
    pars = set(int(M.parities[i]) for i in np.nonzero(v)[0])
    if len(pars) > 1:
        raise LsaError("spin needs a parity-homogeneous vector")
    return spin_many(M, v[None, :])


def spin_many(M: SuperModule, rows: np.ndarray) -> RowSpace:
    """Smallest action-invariant subspace containing the given rows.

    Breadth first: each level applies every generator to the rows the
    previous level added, and adds their images in one block."""
    f = M.alg.field
    space = RowSpace(f, M.dim)
    fresh = space.extend(rows)
    while fresh.shape[0] and space.dim < M.dim:
        # (n, dim, m) images, one row per (generator, fresh row)
        images = f.matmul(M.action, fresh.T)
        fresh = space.extend(images.transpose(0, 2, 1).reshape(-1, M.dim))
    return space


# ---------------------------------------------------------------------------
# polynomial steps of the Meataxe


def _minimal_poly(M: SuperModule, theta: np.ndarray, v: np.ndarray):
    """Minimal polynomial of theta relative to the vector v (Krylov)."""
    f = M.alg.field
    dim = M.dim
    reduced: List[Tuple[np.ndarray, np.ndarray]] = []
    w = v.copy()
    j = 0
    while True:
        vec = w.copy()
        comb = np.zeros(j + 1, dtype=np.int64)
        comb[j] = 1
        for r, rp in reduced:
            nz = np.nonzero(r)[0]
            c = int(vec[nz[0]])
            if c:
                vec = f.sub_arr(vec, f.mul_arr(c, r))
                comb[: len(rp)] = f.sub_arr(comb[: len(rp)], f.mul_arr(c, rp))
        if not np.any(vec):
            return [int(c) for c in comb]
        nz = np.nonzero(vec)[0]
        inv = f.inv(int(vec[nz[0]]))
        vec = f.mul_arr(vec, inv)
        comb = f.mul_arr(comb, inv)
        reduced.append((vec, comb))
        w = f.matmul(theta, w.reshape(-1, 1)).ravel()
        j += 1
        if j > dim:
            raise RuntimeError("Krylov recursion failed to terminate")


def _poly_at_matrix(f: Field, coeffs, A: np.ndarray) -> np.ndarray:
    """coeffs[0] + coeffs[1] A + ... by Horner's rule, started from the top
    two terms, so a polynomial of degree d costs d - 1 products."""
    *low, top = [int(c) for c in coeffs]
    eye = f.eye(A.shape[0])
    if not low:
        return f.mul_arr(top, eye)
    acc = f.mul_arr(top, A)
    for c in reversed(low[1:]):
        acc = f.matmul(f.add_arr(acc, f.mul_arr(c, eye)), A)
    return f.add_arr(acc, f.mul_arr(low[0], eye))


# ---------------------------------------------------------------------------
# graded Meataxe


def _random_even_recipe(M: SuperModule, rng: np.random.Generator) -> tuple:
    """A random parity-even element of the acting algebra (with identity
    term), as its recipe (scalar, ((word, coefficient), ...)): the element
    is scalar + sum of coefficient * product of the word's generators."""
    f = M.alg.field
    g = M.alg
    scalar = int(f.rand(rng))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(1, 4))
        word = tuple(int(rng.integers(0, g.n)) for _ in range(length))
        if sum(int(g.parities[i]) for i in word) % 2 != 0:
            continue
        terms.append((word, int(f.rand(rng))))
    return scalar, tuple(terms)


def _even_element(M: SuperModule, recipe: tuple) -> np.ndarray:
    """The action on M of the element a recipe describes."""
    f = M.alg.field
    scalar, terms = recipe
    theta = f.mul_arr(scalar, f.eye(M.dim))
    for word, coeff in terms:
        if not coeff:
            continue
        mat = M.action[word[0]]
        for i in word[1:]:
            mat = f.matmul(mat, M.action[i])
        theta = f.add_arr(theta, f.mul_arr(coeff, mat))
    return theta


def _even_part_scalar(M: SuperModule) -> bool:
    """Every even generator and every product of two odd generators acts by
    a scalar.  Then so does every even element of the acting algebra: in an
    even word the even letters are scalars and the odd ones pair up."""
    f = M.alg.field
    par = M.alg.parities
    even = [M.action[i] for i in range(M.alg.n) if par[i] == 0]
    odd = [M.action[i] for i in range(M.alg.n) if par[i] == 1]
    mats = even + [f.matmul(x, y) for x in odd for y in odd]
    eye = np.eye(M.dim, dtype=np.int64)
    return all(np.array_equal(A, A[0, 0] * eye) for A in mats)


def _find_singular_even(M: SuperModule, rng):
    """A singular even element a = f(theta), for a random even theta of the
    acting algebra and a monic irreducible factor f of its minimal
    polynomial, as (recipe of theta, f, a, ker(a)): one with dim ker(a) =
    deg f (the Holt-Rees test) where one turns up, else the smallest proper
    nonzero kernel found; None when theta gives none.  ker(a) is all of M
    only when dim M = deg f, so that M is one-dimensional over GF(q)[theta].

    The candidates are the distinct irreducible factors of the minimal
    polynomial of theta relative to one random vector v (Krylov), in
    increasing degree, so the eigenvalues of theta in GF(q) come first.
    Each divides the minimal polynomial of theta, so each f(theta) is
    singular.  A factor that v misses only leaves fewer candidates for this
    theta; the Meataxe then draws the next one.  A scalar theta = c needs no
    special case: its polynomial is x - c, and f(theta) = 0 has no proper
    kernel."""
    f = M.alg.field
    dim = M.dim
    recipe = _random_even_recipe(M, rng)
    theta = _even_element(M, recipe)
    best = None
    for fac in irreducible_factors(f, _minimal_poly(M, theta, f.rand(rng, dim)), rng):
        a = _poly_at_matrix(f, fac, theta)
        ker = nullspace(f, a)
        if ker.shape[0] == poly_deg(fac):
            return recipe, fac, a, ker
        if ker.shape[0] < dim and (best is None or ker.shape[0] < best[3].shape[0]):
            best = (recipe, fac, a, ker)
    return best


@dataclass
class Certificate:
    """How the Meataxe certified a module S graded-simple: the recipe of an
    even theta, a monic irreducible f, the nullity of f(theta) on S, and a
    parity-homogeneous vector w of ker f(theta) that spins to all of S.
    Where no theta served (dim 1, or the a = 0 last resort), theta = 0 and
    f = x, so ker f(theta) is all of S."""

    recipe: tuple
    poly: list
    nullity: int
    w: np.ndarray


def _find_proper_submodule(M: SuperModule, seed: int) -> RowSpace | FactorClass:
    """A proper nonzero graded submodule (a RowSpace), or, once
    irreducibility is certified, M's isomorphism class, built on the
    Certificate (with its standard basis already spun where the End(M)
    step below needed it).

    Each attempt takes a singular even a = f(theta) and spins the first
    vector of each parity side of ker(a) in M, and one homogeneous vector
    of ker(a^T) in the transpose module.  A proper graded submodule U
    either meets ker(a), and then contains a nonzero homogeneous vector of
    ker(a), whose spin lies in U; or it does not, and then a maps U onto
    itself, so ker(a^T) annihilates U and every vector of ker(a^T) spins
    properly in the transpose module.  Once no spin is proper, M is simple
    if every homogeneous vector of ker(a) spins to M:

    - Holt-Rees: when dim ker(a) = deg f, ker(a) has dimension 1 over
      K = GF(q)[x]/(f) through theta.  As theta is even, the two parity
      sides of ker(a) are K-subspaces, so one of them is zero, and a
      graded U that meets ker(a) meets it in a nonzero K-subspace, so
      contains all of it.
    - Otherwise, as for factors that are not absolutely irreducible, the
      even commutant E = End_even(M) is solved from the residual system
      of the class M would have (`FactorClass`), with w the first kernel
      vector.  Take a random T in E and its minimal polynomial mu relative
      to w, which is T's minimal polynomial on M since w generates M.  A
      proper factor g of mu makes g(T) a nonzero endomorphism that is not
      invertible, so g(T)M, spun from g(T)w, is a proper submodule.  If mu
      is irreducible of degree dim E, then E = GF(q)[T] is a field.  E maps
      each parity side of ker(a) into itself, and for the spun vector u of
      a side, T -> Tu is injective on the field E; so a side of dimension
      dim E is E.u, and each of its nonzero vectors Tu spins to T M = M.
      When every side has dimension dim E, M is certified; otherwise the
      next theta is tried.
    """
    f = M.alg.field
    dim = M.dim
    if dim == 1:
        return FactorClass(M, Certificate((0, ()), [0, 1], 1, f.eye(1)[0]))
    rng = np.random.default_rng(seed)
    MT = M.transpose_module()
    odd_mask = M.parities == 1

    def singular():
        # with the even part acting by scalars every theta is scalar, so no
        # attempt can find a proper kernel
        if not _even_part_scalar(M):
            for _ in range(MEATAXE_ATTEMPTS):
                found = _find_singular_even(M, rng)
                if found is not None:
                    yield found
        # last resort, for modules on which no even element has a proper
        # nonzero kernel (the even part acting by scalars, or a direct sum of
        # copies of one factor): a = 0, whose kernel is the whole module
        yield (0, ()), [0, 1], np.zeros((dim, dim), dtype=np.int64), f.eye(dim)

    for recipe, poly, a, ker in singular():
        ker = graded_span(f, ker, odd_mask).basis
        odd = M.parities[np.argmax(ker != 0, axis=1)] == 1
        sides = [side for side in (ker[~odd], ker[odd]) if len(side)]
        for side in sides:
            W = spin(M, side[0])
            if W.dim < dim:
                return W
        WT = spin(MT, graded_span(f, nullspace(f, a.T), odd_mask).basis[0])
        if WT.dim < dim:
            # proper transpose submodule = proper quotient; its annihilator
            # in M is a proper nonzero submodule
            W = spin_many(M, graded_span(f, nullspace(f, WT.basis), odd_mask).basis)
            if 0 < W.dim < dim:
                return W
            raise RuntimeError("transpose witness did not yield a submodule")
        K = FactorClass(M, Certificate(recipe, poly, len(ker), sides[0][0]))
        if len(ker) == poly_deg(poly):
            # Holt-Rees
            return K
        T, dim_e = K.random_endomorphism(ker, rng)
        mu = _minimal_poly(M, T, K.cert.w)
        g = next(irreducible_factors(f, mu, rng), None)
        if g is None:
            # equal-degree splitting gave up: mu is undecided
            continue
        if poly_deg(g) < poly_deg(mu):
            # g(T) is a zero divisor of E
            return spin(M, f.matmul(_poly_at_matrix(f, g, T), K.cert.w))
        if poly_deg(mu) == dim_e and all(len(side) == dim_e for side in sides):
            return K
    raise MeataxeFailure(
        f"graded Meataxe could not certify a verdict after {MEATAXE_ATTEMPTS} attempts "
        f"on a piece of superdimension {M.superdim} at chi = {[int(c) for c in M.chi]}"
    )


def is_graded_irreducible(M: SuperModule, seed: int = 0) -> bool:
    """No proper nonzero graded submodule.  The answer does not depend on the
    seed; the seed only steers how fast a certificate is found."""
    return not isinstance(_find_proper_submodule(M, seed), RowSpace)


# ---------------------------------------------------------------------------
# composition series


@dataclass(order=True)
class FactorRecord:
    dim: int
    superdim: tuple
    endo_even: int
    endo_odd: int
    geometric_dim: int


@dataclass
class CompositionReport:
    factors: List[FactorRecord]

    @property
    def dims(self) -> List[int]:
        return sorted(f.dim for f in self.factors)

    @property
    def geometric_dims(self) -> List[int]:
        return sorted(f.geometric_dim for f in self.factors)

    def multiset(self) -> Dict[int, int]:
        return dict(Counter(self.dims))

    def geometric_multiset(self) -> Dict[int, int]:
        return dict(Counter(self.geometric_dims))



def verify_dim_form(dims, p: int) -> bool:
    """Every dimension factors as p^m * 2^n."""
    for d in dims:
        d = int(d)
        if d <= 0:
            return False
        while d % p == 0:
            d //= p
        while d % 2 == 0:
            d //= 2
        if d != 1:
            return False
    return True


def submodule_module(M: SuperModule, W: RowSpace) -> SuperModule:
    f = M.alg.field
    # images[i, :, b]: generator i applied to basis row b of W
    images = f.matmul(M.action, W.basis.T)
    if np.any(W.reduce(images.transpose(0, 2, 1).reshape(-1, M.dim))):
        raise LsaError("row space is not action-invariant")
    # in reduced echelon form, coordinates are the entries at the pivots
    action = images[:, W.pivots, :]
    return SuperModule(alg=M.alg, chi=M.chi, parities=M.parities[W.pivots], action=action)


def quotient_module(M: SuperModule, W: RowSpace) -> SuperModule:
    keep = W.complement_columns()
    r = len(keep)
    n = M.alg.n
    # row (i, j): the image of the kept basis vector keep[j] under generator i
    images = M.action[:, :, keep].transpose(0, 2, 1).reshape(n * r, M.dim)
    red = W.reduce(images)[:, keep].reshape(n, r, r)
    action = red.transpose(0, 2, 1).copy()
    return SuperModule(alg=M.alg, chi=M.chi, parities=M.parities[keep], action=action)


def _standard_basis(M: SuperModule, w: np.ndarray):
    """Spin w, which generates M, into a basis B of M (as columns, B[:, 0] =
    w) breadth first.  Each level is a pair of arrays (generators, sources):
    its columns are the images of the given earlier columns under the given
    generators, the first images, in order, that enlarge the span."""
    f = M.alg.field
    n, d = M.alg.n, M.dim
    space = RowSpace(f, d, w[None, :])
    cols = [w]
    levels = []
    lo = 0
    while len(cols) < d:
        hi = len(cols)
        # row (t, i): generator i applied to column lo + t
        rows = f.matmul(M.action, np.array(cols[lo:hi]).T).transpose(2, 0, 1).reshape(-1, d)
        # the pivot columns of the transposed residues are the rows, in
        # order, that are independent modulo the span so far
        _, piv = rref(f, space.reduce(rows).T)
        if not piv:
            raise LsaError("vector does not generate the module")
        space.extend(rows[piv])
        cols.extend(rows[piv])
        keep = np.array(piv)
        levels.append((keep % n, lo + keep // n))
        lo = hi
    return np.array(cols).T, levels


def _words_applied(M: SuperModule, V: np.ndarray, levels) -> np.ndarray:
    """The images in M of the rows of V under the words of a standard basis
    (the levels of `_standard_basis`): out[k, :, j] is word k applied to
    V[j], so out[:, :, j].T is the basis the words spin from V[j]."""
    f = M.alg.field
    n, dim, r = M.alg.n, M.dim, V.shape[0]
    out = np.zeros((1 + sum(len(gens) for gens, _ in levels), dim, r), dtype=np.int64)
    out[0] = V.T
    lo, hi = 0, 1
    for gens, srcs in levels:
        # images[i, :, t, j]: generator i applied to word lo + t of V[j]
        images = f.matmul(M.action, out[lo:hi].transpose(1, 0, 2).reshape(dim, -1))
        images = images.reshape(n, dim, hi - lo, r)
        out[hi : hi + len(gens)] = images[gens, :, srcs - lo]
        lo, hi = hi, hi + len(gens)
    return out


class FactorClass:
    """An isomorphism class of graded composition factors, up to parity
    shift, kept as its first member S with S's Certificate, the standard
    basis B that spinning the certificate's w gives, and the generators in
    that basis C_i = B^-1 A_i B.

    Hom(S, M) is one linear solve (Parker's standard-basis method).  A
    module map T: S -> M is fixed by v = Tw, and f(theta) v = T f(theta) w
    = 0.  Conversely a v in ker f(theta) on M extends to a map exactly when
    the matrix B' spun from v by B's words satisfies A'_i B' = B' C_i for
    every generator, and then T = B' B^-1.  B' is linear in v, so over a
    parity-homogeneous basis of ker f(theta) the maps are the null space of
    the stacked residuals: nullity f(theta) unknowns, not dim^2.  T is even
    exactly when v has the parity of w.

    The standard basis is spun on first use, once per class, so that a
    certificate only asked whether S is simple costs no spin."""

    def __init__(self, module: SuperModule, cert: Certificate):
        self.module = module
        self.cert = cert
        self.w_parity = int(module.parities[np.flatnonzero(cert.w)[0]])
        self._endo = None

    @cached_property
    def _standard(self):
        """(levels, B^-1, C) of the standard basis B spun from w."""
        f = self.module.alg.field
        B, levels = _standard_basis(self.module, self.cert.w)
        B_inv = inv_matrix(f, B)
        return levels, B_inv, f.matmul(B_inv, f.matmul(self.module.action, B))

    def _residuals(self, M: SuperModule, ker: np.ndarray):
        """For the parity-homogeneous rows v of ker, a basis of ker f(theta)
        on M: the words of S applied to them (Y, from `_words_applied`), the
        residuals A'_i B'(v) - B'(v) C_i of all generators stacked as the
        columns of one system, and which rows have w's parity."""
        f = M.alg.field
        d, r = M.dim, ker.shape[0]
        levels, _, C = self._standard
        Y = _words_applied(M, ker, levels)
        # column k of A'_i B' - B' C_i is A'_i Y[k] - sum_l C_i[l, k] Y[l]
        AY = f.matmul(M.action, Y.transpose(1, 0, 2).reshape(d, -1)).reshape(-1, d, d, r)
        YC = f.matmul(C.transpose(0, 2, 1), Y.reshape(d, -1)).reshape(-1, d, d, r)
        res = f.sub_arr(AY, YC.transpose(0, 2, 1, 3)).reshape(-1, r)
        same = M.parities[np.argmax(ker != 0, axis=1)] == self.w_parity
        return Y, res, same

    def hom_dims(self, M: SuperModule) -> Tuple[int, int]:
        """Dimensions of the even and the odd module maps S -> M, for M of
        S's dimension.  A nonzero map from the simple S is then an
        isomorphism, so a nullity of f(theta) on M other than on S means
        there is none."""
        f = M.alg.field
        cert = self.cert
        ker = nullspace(f, _poly_at_matrix(f, cert.poly, _even_element(M, cert.recipe)))
        if ker.shape[0] != cert.nullity:
            return 0, 0
        _, res, same = self._residuals(M, graded_span(f, ker, M.parities == 1).basis)
        even = int(same.sum()) - rank(f, res[:, same])
        odd = int((~same).sum()) - rank(f, res[:, ~same])
        return even, odd

    def random_endomorphism(self, ker: np.ndarray, rng) -> Tuple[np.ndarray, int]:
        """A random element T of E = End_even(S), and dim E, where ker is a
        parity-split basis of ker f(theta) on S.  The null vectors of the
        residual columns of w's parity are a basis of E, each giving Tw in
        coordinates over those kernel rows; then T = B'(Tw) B^-1."""
        f = self.module.alg.field
        d = self.module.dim
        Y, res, same = self._residuals(self.module, ker)
        E = nullspace(f, res[:, same])
        x = f.matmul(f.rand(rng, len(E)), E)
        # row k: word k applied to Tw, which is column k of B'(Tw) = T B
        TB = f.matmul(Y[:, :, same].reshape(-1, len(x)), x).reshape(d, d).T
        return f.matmul(TB, self._standard[1]), len(E)

    def endo(self) -> Tuple[int, int]:
        if self._endo is None:
            self._endo = endomorphism_dims(self)
        return self._endo

    def accepts(self, M: SuperModule) -> bool:
        """M is isomorphic to S or to its parity shift: a nonzero homogeneous
        map from the simple S to a module of S's dimension is one."""
        sd = self.module.superdim
        return (M.dim == self.module.dim and M.superdim in (sd, sd[::-1])
                and any(self.hom_dims(M)))


def endomorphism_dims(K: FactorClass) -> Tuple[int, int]:
    """Dimensions of the parity-even and parity-odd commutants of a class's
    simple module S, solved from its certificate.

    The even commutant is a finite division ring, hence a field, so its
    dimension divides dim S and the quotient is the dimension over the
    splitting field."""
    return K.hom_dims(K.module)


def derived_seed(seed: int, index: int) -> int:
    """The Meataxe seed of the index-th part of a computation at a seed (a
    piece of a composition series, or one module of several), so that parts
    alike in shape do not all repeat one random path."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def composition_series(
    M: SuperModule, seed: int = 0, classes: Optional[List[FactorClass]] = None
) -> List[Tuple[SuperModule, FactorClass]]:
    """The graded composition factors by repeated splitting, each with its
    isomorphism class.  A piece isomorphic to a class found before is
    recognised by the class's isomorphism test, without the Meataxe.

    `classes`, when given, holds classes known from other modules over the
    same algebra; it is searched first and extended in place."""
    factors: List[Tuple[SuperModule, FactorClass]] = []
    classes = [] if classes is None else classes
    stack = [M]
    index = 0
    while stack:
        cur = stack.pop()
        index += 1
        if index > 4 * max(M.dim, 1):
            raise RuntimeError("composition recursion failed to terminate")
        if cur.dim == 0:
            continue
        known = next((K for K in classes if K.accepts(cur)), None)
        if known is not None:
            factors.append((cur, known))
            continue
        known = _find_proper_submodule(cur, derived_seed(seed, index))
        if isinstance(known, RowSpace):
            stack.append(submodule_module(cur, known))
            stack.append(quotient_module(cur, known))
            continue
        classes.append(known)
        factors.append((cur, known))
    return factors


def composition_factor_modules(M: SuperModule, seed: int = 0) -> List[SuperModule]:
    """The graded composition factors themselves, by repeated splitting."""
    return [fac for fac, _ in composition_series(M, seed)]


def composition_factors(
    M: SuperModule, seed: int = 0, classes: Optional[List[FactorClass]] = None
) -> CompositionReport:
    """Multiset of graded composition factors by repeated Meataxe splitting;
    the endomorphism dimensions are solved once per isomorphism class.
    `classes` is passed on to `composition_series`."""
    records = []
    for fac, known in composition_series(M, seed, classes):
        ee, eo = known.endo()
        records.append(FactorRecord(fac.dim, fac.superdim, ee, eo, fac.dim // ee))
    # by the whole record, so that the order does not depend on the path the
    # Meataxe took
    records.sort()
    total = sum(r.dim for r in records)
    if total != M.dim:
        raise RuntimeError("composition factor dimensions do not sum correctly")
    return CompositionReport(records)


def restrict_module(M: SuperModule, sub) -> SuperModule:
    """View a module over the ambient algebra as a module over a subalgebra
    presentation: one action matrix per subalgebra basis row."""
    return SuperModule(
        alg=sub.alg,
        chi=restrict_chi(M.chi, sub) if M.chi.size else np.zeros(sub.alg.s_even, dtype=np.int64),
        parities=M.parities.copy(),
        action=M.rho(sub.rows),
    )


# ---------------------------------------------------------------------------
# simultaneous eigenspaces and the filtration check


def _shifted_action(M: SuperModule, x: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    """rho(x) - c.1 for a stack of algebra vectors x (m, n) and scalars c
    (m,): (m, d, d)."""
    ops = M.rho(x)
    diag = np.arange(M.dim)
    ops[:, diag, diag] = M.alg.field.sub_arr(ops[:, diag, diag], scalars[:, None])
    return ops


def v_i_chi(M: SuperModule, I: Subspace, chi) -> RowSpace:
    """Simultaneous chi-eigenspace {v : X v = chi(X) v for all X in I}."""
    f = M.alg.field
    chi = np.asarray(chi, dtype=np.int64)
    # chi of an odd row is 0: chi only reads even coordinates
    ops = _shifted_action(M, I.basis, chi_value(M.alg, chi, I.basis))
    ker = nullspace(f, ops.reshape(-1, M.dim))
    return graded_span(f, ker, M.parities == 1)


def degree_reduction_check(g: LieSuperAlgebra, chi, induced, I: Subspace):
    """Filtration congruences on an induced module built from an ideal.

    With dual families Z_i in the even part of I pairing the even cobasis
    (chi([Z_i, e_j]) = delta_ij) and T_j in the odd part pairing the odd
    cobasis (chi([f_k, T_j]) = delta_kj), acting on a basis vector of degree
    l yields, modulo the span of degree <= l-2 vectors:

        (Z_i - chi(Z_i)) . e^a f^c (x) v  ==  a_i e^(a-eps_i) f^c (x) v
        T_j . f^c (x) v                   ==  (-1)^(s_j) c_j f^(c-eps_j) (x) v

    where s_j counts odd cobasis factors in front of slot j.  The odd-case
    parity sign is forced by the supercommutation moves; it is verified here
    exactly rather than up to units.  Every basis vector on which an
    operator acts (Z_i where a_i > 0, T_j where a = 0 and c_j = 1) is
    checked.  Returns (ok, number of congruences checked).
    """
    f = g.field
    chi = np.asarray(chi, dtype=np.int64)
    M = induced.module
    # the base must be a chi-eigenspace for I inside the induced module: its
    # block is the first base.dim columns
    ops = _shifted_action(M, I.basis, chi_value(g, chi, I.basis))
    if np.any(ops[:, :, : induced.base.dim]):
        raise LsaError(
            "base block is not a chi-eigenspace for the ideal; "
            "the filtration check does not apply")

    I_even = I.even_rows()
    I_odd = I.odd_rows()
    # mat[j, r] = chi([I_even[r], e_j]); Z_i = sum_r x[r, i] I_even[r]
    mat = chi_value(g, chi, g.bracket(I_even, induced.even_cobasis[:, None]))
    x = solve(f, mat, f.eye(induced.c0))
    if x is None:
        raise LsaError("pairing elements not found: the form degenerates "
                       "between the ideal and the even cobasis")
    Z = f.matmul(x.T, I_even)
    # mat[k, r] = chi([f_k, I_odd[r]]); T_j = sum_r x[r, j] I_odd[r]
    mat = chi_value(g, chi, g.bracket(induced.odd_cobasis[:, None], I_odd))
    x = solve(f, mat, f.eye(induced.c1))
    if x is None:
        raise LsaError("pairing elements not found: the form degenerates "
                       "between the ideal and the odd cobasis")
    T = f.matmul(x.T, I_odd)

    # Z_i - chi(Z_i) and T_j (chi(T_j) = 0), one stack of operators
    ZT = np.vstack([Z, T])
    ops = _shifted_action(M, ZT, chi_value(g, chi, ZT))
    alpha, gamma, _ = induced.exponents()
    degree = alpha.sum(axis=1) + gamma.sum(axis=1)
    # applies[k, col]: operator k acts on basis vector col; lead[k, col]:
    # the coefficient of its leading term, at col - strides[k]
    applies = np.vstack([alpha.T > 0, (gamma.T == 1) & ~np.any(alpha, axis=1)])
    sign = (np.cumsum(gamma, axis=1) - gamma).T % 2
    lead = np.vstack([alpha.T, np.where(sign == 1, f.neg(1), 1)])
    k, col = np.nonzero(applies)
    row = col - np.array(induced.strides(), dtype=np.int64)[k]
    ops[k, row, col] = f.sub_arr(ops[k, row, col], lead[k, col])
    # what is left must lie in degree <= l - 2, l the degree of the column
    above = degree[:, None] > degree[None, :] - 2
    ok = not np.any(ops[applies[:, None, :] & above])
    return ok, int(k.size)
