"""Graded modules over a reduced enveloping algebra: validation, spinning,
graded irreducibility (a randomized Meataxe that spins one kernel vector per
parity side and one transpose-kernel vector, then certifies by the Holt-Rees
test or, where that fails, from the module's even commutant, solved once per
module), composition factors grouped into isomorphism classes, Hom(S, M) and
End(S) of a certified simple S as one linear solve from its certificate (the
standard-basis method), which also counts the copies of a known S in a
larger module, so that a factor is recorded as its class and a parity side.

Module vectors are column vectors; a set of module vectors is handled as a
row-space in reduced echelon form.  Parity comes from construction: action
matrices are parity homogeneous, so every spun subspace has a
parity-homogeneous echelon basis, and so has every null space computed here
(the rule is stated and proved on `gflin.nullspace`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .gflin import (
    Echelon,
    Field,
    inv_matrix,
    irreducible_factors,
    nullspace,
    poly_deg,
)
from .lsa import LieSuperAlgebra, LsaError, Violation

MEATAXE_ATTEMPTS = 64


@dataclass
class SuperModule:
    """One action matrix per algebra basis element, plus the grading.  The
    action is held in the field's narrow code dtype (`Field.narrow`), so a
    module over a field of at most 256 elements takes n * dim^2 bytes."""

    alg: LieSuperAlgebra
    chi: np.ndarray
    parities: np.ndarray
    action: np.ndarray  # (n_generators, dim, dim)

    def __post_init__(self):
        self.action = self.alg.field.narrow(self.action)

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


class Spin(Echelon):
    """A spun subspace W (`spin_many`), with how it was spun.  `images`
    (dim W, ambient), in the field's code dtype, is a basis of W of raw
    images: the given rows the spin took, then level by level the images it
    took.  `levels` holds each later level as a pair of arrays (generators,
    sources): its k-th image is generator gens[k] applied to image
    srcs[k].  Spun from one vector w, images.T is a standard basis B of W
    from w, B[:, 0] = w, and the levels are its words (`_words_applied`)."""

    images: np.ndarray
    levels: list


def spin(M: SuperModule, v: np.ndarray) -> Spin:
    """Smallest action-invariant subspace containing a homogeneous vector."""
    v = np.asarray(v, dtype=np.int64)
    if not np.any(v):
        raise LsaError("cannot spin the zero vector")
    pars = set(int(M.parities[i]) for i in np.nonzero(v)[0])
    if len(pars) > 1:
        raise LsaError("spin needs a parity-homogeneous vector")
    return spin_many(M, v[None, :])


def spin_many(M: SuperModule, rows: np.ndarray) -> Spin:
    """Smallest action-invariant subspace containing the given rows.

    Breadth first: each level applies every generator to the images the
    previous level took, and takes those that `Echelon.extend` takes in one
    elimination: with the span so far they span the whole level.  Nothing
    random is drawn."""
    f = M.alg.field
    d, n = M.dim, M.alg.n
    space = Spin(f, d)
    space.levels = []
    images = np.empty((d, d), dtype=f.code_dtype)
    cand = np.asarray(rows, dtype=np.int64).reshape(-1, d)
    lo = hi = 0
    while True:
        keep = space.extend(cand)
        if not keep.size:
            break
        images[hi : hi + keep.size] = cand[keep]
        if hi:
            space.levels.append((keep % n, lo + keep // n))
        lo, hi = hi, hi + keep.size
        if hi == d:
            break
        # row t * n + i: generator i applied to image lo + t
        cand = f.matmul(M.action, images[lo:hi].T).transpose(2, 0, 1).reshape(-1, d)
    space.images = images[:hi]
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
    is scalar + sum of coefficient * product of the word's generators.
    There are 1-3 words of 1-3 letters each, drawn uniformly; a word of odd
    parity gets one more odd letter, drawn uniformly, so that every word
    drawn is kept and is even."""
    f = M.alg.field
    g = M.alg
    scalar = int(f.rand(rng))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(1, 4))
        word = tuple(int(rng.integers(0, g.n)) for _ in range(length))
        if sum(int(g.parities[i]) for i in word) % 2 != 0:
            word += (g.s_even + int(rng.integers(0, g.t_odd)),)
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
    f, s = M.alg.field, M.alg.s_even
    odd = M.action[s:]
    # one matrix at a time, even generators first, so that the first one
    # that is not a scalar ends the test before any later product is formed
    mats = itertools.chain(M.action[:s], (f.matmul(x, y) for x in odd for y in odd))
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
    theta; the Meataxe then draws the next one.  A scalar theta = c on M of
    dim > 1 gives None at once: its polynomial is x - c, whose factoring
    draws nothing from rng, and f(theta) = 0 has no proper kernel."""
    f = M.alg.field
    dim = M.dim
    recipe = _random_even_recipe(M, rng)
    theta = _even_element(M, recipe)
    v = f.rand(rng, dim)
    if dim > 1 and np.array_equal(theta, theta[0, 0] * np.eye(dim, dtype=np.int64)):
        return None
    best = None
    for fac in irreducible_factors(f, _minimal_poly(M, theta, v), rng):
        a = _poly_at_matrix(f, fac, theta)
        ker = nullspace(f, a)
        if ker.shape[0] == poly_deg(fac):
            return recipe, fac, a, ker
        if ker.shape[0] < dim and (best is None or ker.shape[0] < best[3].shape[0]):
            best = (recipe, fac, a, ker)
    return best


@dataclass
class Certificate:
    """How the Meataxe certified a module S graded-simple, with the work it
    did for it: the recipe of an even theta, a monic irreducible f, the
    homogeneous `nullspace` basis of ker f(theta) on S, and the spin of the
    first row w of its first parity side, which is all of S and whose
    images are the standard basis of S from w (`Spin`).  Where no theta
    served (the a = 0 last resort, where every 1-dimensional S goes),
    theta = 0 and f = x, so ker f(theta) is all of S."""

    recipe: tuple
    poly: list
    ker: np.ndarray
    spun: Spin


def _find_proper_submodule(M: SuperModule, seed: int) -> Echelon | FactorClass:
    """A proper nonzero graded submodule (an Echelon), or, once
    irreducibility is certified, M's isomorphism class, built on the
    Certificate: the kernel of the attempt and the spin of its first vector
    w, whose images are the class's standard basis.

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
      even commutant E = End_even(M) decides, once per call: the first
      attempt that gets here solves E from the residual system of the
      class M would have (`FactorClass`), with w the first kernel vector,
      and draws random T in E, with mu the minimal polynomial of T relative
      to w, which is T's on M since w generates M.  A proper factor g of
      mu makes g(T) a nonzero endomorphism that is not invertible, so
      g(T)M, spun from g(T)w, is a proper submodule.  If mu is irreducible
      of degree dim E, then E = GF(q)[T] is a field; T in a proper subfield
      is the only other case, so the draws end with probability 1.  E maps
      each parity side of ker(a) into itself, and for the spun vector u of
      a side, T -> Tu is injective on the field E; so a side of dimension
      dim E is E.u, and each of its nonzero vectors Tu spins to T M = M.
      When every side has dimension dim E, M is certified; otherwise the
      next theta, the a = 0 last resort too, is only compared with dim E.
    """
    f = M.alg.field
    dim = M.dim
    rng = np.random.default_rng(seed)
    MT = M.transpose_module()

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

    dim_e = None
    for recipe, poly, a, ker in singular():
        # a is even, so the kernel rows are homogeneous (`nullspace`); the
        # first row of each side is spun
        odd = M.parities[np.argmax(ker != 0, axis=1)] == 1
        sides = [side for side in (ker[~odd], ker[odd]) if len(side)]
        spins = []
        for side in sides:
            spins.append(spin(M, side[0]))
            if spins[-1].dim < dim:
                return spins[-1]
        WT = spin(MT, nullspace(f, a.T)[0])
        if WT.dim < dim:
            # proper transpose submodule = proper quotient.  Its annihilator
            # in M is a proper nonzero submodule, graded as WT's basis is:
            # for y in WT, y.(A x) = (A^T y).x = 0
            return Echelon(f, dim, nullspace(f, WT.basis))
        K = FactorClass(M, Certificate(recipe, poly, ker, spins[0]))
        if len(ker) == poly_deg(poly):
            # Holt-Rees
            return K
        w = sides[0][0]
        while dim_e is None:
            T, n = K.random_endomorphism(rng)
            mu = _minimal_poly(M, T, w)
            g = next(irreducible_factors(f, mu, rng))
            if poly_deg(g) < poly_deg(mu):
                # g(T) is a zero divisor of E
                return spin(M, f.matmul(_poly_at_matrix(f, g, T), w))
            dim_e = n if poly_deg(mu) == n else None
        if all(len(side) == dim_e for side in sides):
            return K
    raise MeataxeFailure(
        f"graded Meataxe could not certify a verdict after {MEATAXE_ATTEMPTS} attempts "
        f"on a piece of superdimension {M.superdim} at chi = {[int(c) for c in M.chi]}"
    )


def is_graded_irreducible(M: SuperModule, seed: int = 0) -> bool:
    """No proper nonzero graded submodule.  The answer does not depend on the
    seed; the seed only steers how fast a certificate is found."""
    return not isinstance(_find_proper_submodule(M, seed), Echelon)


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


def submodule_module(M: SuperModule, W: Echelon) -> SuperModule:
    """The action on an invariant W in W's echelon basis, one generator at a
    time, so that no step holds more than one generator's images."""
    f = M.alg.field
    basis_t = W.basis.T
    # field results are codes, so they fit the code dtype exactly
    action = np.empty((M.alg.n, W.dim, W.dim), dtype=f.code_dtype)
    for i, A in enumerate(M.action):
        # column b: the generator applied to basis row b of W
        images = f.matmul(A, basis_t)
        # in reduced echelon form, coordinates are the entries at the pivots
        coords = images[W.pivots]
        if not np.array_equal(images, f.matmul(basis_t, coords)):
            raise LsaError("row space is not action-invariant")
        action[i] = coords
    return SuperModule(alg=M.alg, chi=M.chi, parities=M.parities[W.pivots], action=action)


def quotient_module(M: SuperModule, W: Echelon) -> SuperModule:
    """The action on M / W in the basis of the non-pivot coordinates of W,
    one generator at a time.  The image A[:, j] of a kept basis vector,
    reduced modulo W, is A[:, j] - basis^T A[pivots, j]; only its kept
    coordinates are formed."""
    f = M.alg.field
    keep = W.complement_columns()
    proj = W.basis[:, keep].T
    # field results are codes, so they fit the code dtype exactly
    action = np.empty((M.alg.n, len(keep), len(keep)), dtype=f.code_dtype)
    for i, A in enumerate(M.action):
        cols = A[:, keep]
        action[i] = f.sub_arr(cols[keep], f.matmul(proj, cols[W.pivots]))
    return SuperModule(alg=M.alg, chi=M.chi, parities=M.parities[keep], action=action)


def _words_applied(M: SuperModule, V: np.ndarray, levels) -> np.ndarray:
    """The images in M of the rows of V under the words of a standard basis
    (the levels of a `Spin`): out[k, :, j] is word k applied to
    V[j], so out[:, :, j].T is the basis the words spin from V[j].  out is
    held in the field's code dtype, which the products, being codes, fit
    exactly."""
    f = M.alg.field
    dim, r = M.dim, V.shape[0]
    out = np.empty((1 + sum(len(gens) for gens, _ in levels), dim, r), dtype=f.code_dtype)
    out[0] = f.narrow(V.T)
    hi = 1
    for gens, srcs in levels:
        # one product per generator the level uses, on the words it extends:
        # images[:, t, j] is the generator applied to word srcs[sel[t]] of V[j].
        # A set, not np.unique, which imports numpy.ma on its first call
        for i in sorted(set(gens.tolist())):
            sel = np.flatnonzero(gens == i)
            words = out[srcs[sel]].transpose(1, 0, 2).reshape(dim, -1)
            images = f.matmul(M.action[i], words).reshape(dim, sel.size, r)
            out[hi + sel] = images.transpose(1, 0, 2)
        hi += len(gens)
    return out


def _even_traces(M: SuperModule) -> np.ndarray:
    """The traces of the even generators' actions on M, summed in the field."""
    f = M.alg.field
    return f.undigits(f.digits(np.diagonal(M.action[: M.alg.s_even], axis1=1, axis2=2)).sum(axis=1))


class FactorClass:
    """An isomorphism class of graded composition factors, up to parity
    shift, kept as its first member S with S's Certificate, whose spin of w
    gives the standard basis B of S and its words, and the generators in
    that basis C_i = B^-1 A_i B.

    Hom(S, M) is one linear solve (Parker's standard-basis method).  A
    module map T: S -> M is fixed by v = Tw, and f(theta) v = T f(theta) w
    = 0.  Conversely a v in ker f(theta) on M extends to a map exactly when
    the matrix B' spun from v by B's words satisfies A'_i B' = B' C_i for
    every generator, and then T = B' B^-1.  B' is linear in v, so over a
    parity-homogeneous basis of ker f(theta) the maps are the null space of
    the residuals of all generators: nullity f(theta) unknowns, not dim^2.
    T is even exactly when v has the parity of w.  M may be larger than S:
    the same solve then finds the copies of S inside M (`socle`).

    Nothing is spun here, and ker f(theta) on S is the certificate's.
    End_even(S) is solved once, for the Meataxe's End(M) step and for the
    class's endomorphism dimensions alike; B^-1 and C are formed on first
    use, so that a certificate only asked whether S is simple costs no
    inversion."""

    def __init__(self, module: SuperModule, cert: Certificate):
        self.module = module
        self.cert = cert
        self.w_parity = int(module.parities[np.flatnonzero(cert.spun.images[0])[0]])

    @cached_property
    def _standard(self):
        """(B^-1, C) of the standard basis B, the certificate's images."""
        f = self.module.alg.field
        B = self.cert.spun.images.T
        B_inv = inv_matrix(f, B)
        return B_inv, f.matmul(B_inv, f.matmul(self.module.action, B))

    def _maps(self, M: SuperModule, V: np.ndarray) -> np.ndarray:
        """For the rows of V, kernel vectors of one parity (a side of
        `_hom_system`), the matrices B'(Tw) = T B of a basis of the maps T
        whose Tw lies in their span, as (dim S, dim M, k), where [l, :, j]
        is word l applied to the j-th map's Tw.

        The B' of the rows of V are the words of S applied to them
        (`_words_applied`).  The residuals A'_i B' - B' C_i are solved one
        generator at a time, each on the solutions of the generators before
        it, so that no step holds more than one generator's residuals; B' is
        linear in v, and the B' of the solutions so far are carried along in
        place of v, in the field's code dtype."""
        f = M.alg.field
        d_s, d = self.module.dim, M.dim
        if not len(V):
            return np.zeros((d_s, d, 0), dtype=f.code_dtype)
        B = _words_applied(M, V, self.cert.spun.levels)
        for A, C_i in zip(M.action, self._standard[1]):
            k = B.shape[2]
            if not k:
                break
            # column l of A'_i B' - B' C_i is A'_i B'[l] - sum_m C_i[m, l] B'[m];
            # neither product is held through the solve
            res = f.sub_arr(f.matmul(A, B.transpose(1, 0, 2).reshape(d, -1)).reshape(d, d_s, k),
                            f.matmul(C_i.T, B.reshape(d_s, -1)).reshape(d_s, d, k).transpose(1, 0, 2))
            null = nullspace(f, res.reshape(-1, k))
            B = f.matmul(B.reshape(-1, k), null.T).reshape(d_s, d, -1).astype(f.code_dtype)
        return B

    def _hom_system(self, M: SuperModule):
        """The one step of every Hom question: a parity-homogeneous basis of
        ker f(theta) on M, as its rows of w's parity and its other rows;
        None when there is no nonzero map S -> M.  On S itself it is the
        certificate's kernel.  A nonzero map from the simple S is injective,
        so S's superdimension or its reverse fits inside M's, and the map
        sends ker f(theta) on S into ker f(theta) on M, which is then no
        smaller.  When M has S's dimension the map is an isomorphism, and
        the two nullities are equal, as are the traces of every even
        generator: an isomorphism of either parity conjugates an even
        element's action."""
        S, cert = self.module, self.cert
        ker, nullity = cert.ker, len(cert.ker)
        if M is not S:
            f = M.alg.field
            sd, md = S.superdim, M.superdim
            if not any(a <= b and c <= e for (a, c), (b, e) in ((sd, md), (sd[::-1], md))):
                return None
            if M.dim == S.dim and np.any(_even_traces(M) != _even_traces(S)):
                return None
            # f(theta) is even, so each row of its null space basis is
            # parity-homogeneous (`nullspace`)
            ker = nullspace(f, _poly_at_matrix(f, cert.poly, _even_element(M, cert.recipe)))
            if ker.shape[0] < nullity or (M.dim == S.dim and ker.shape[0] != nullity):
                return None
        same = M.parities[np.argmax(ker != 0, axis=1)] == self.w_parity
        return ker[same], ker[~same]

    def socle(self, M: SuperModule) -> Optional[Tuple[List[int], Echelon]]:
        """The copies of S and of its parity shift in M, as one side each (0
        for a copy of S, 1 for one of its parity shift), and the sum of all
        such copies; None when there is no nonzero map S -> M.  A basis of
        the maps T of each parity (w's first, whose images are copies of S)
        is found with their B'(Tw) = T B, whose rows span the image T(S),
        the spin of Tw.  The images of a basis span those of all maps, and a
        simple image meets a sum of copies in 0 or in all of itself, so its
        rows grow the sum so far by dim S when it is a new copy and by 0
        otherwise."""
        system = self._hom_system(M)
        if system is None:
            return None
        sides, total = [], Echelon(M.alg.field, M.dim)
        for side, V in enumerate(system):
            B = self._maps(M, V)
            for j in range(B.shape[2]):
                if (added := len(total.extend(B[:, :, j]))) == self.module.dim:
                    sides.append(side)
                elif added:
                    raise RuntimeError("image of a map from a simple module has another dimension")
            del B  # not held through the other side's solve
        return (sides, total) if sides else None

    @cached_property
    def _end_even(self) -> np.ndarray:
        """The B'(Tw) = T B of a basis of E = End_even(S) (`_maps`), solved
        once."""
        return self._maps(self.module, self._hom_system(self.module)[0])

    def random_endomorphism(self, rng) -> Tuple[np.ndarray, int]:
        """A random element T of E = End_even(S), and dim E: a random
        combination of the T B of a basis of E gives T = (T B) B^-1."""
        f = self.module.alg.field
        d = self.module.dim
        E = self._end_even
        TB = f.matmul(E.reshape(-1, E.shape[2]), f.rand(rng, E.shape[2])).reshape(d, d).T
        return f.matmul(TB, self._standard[0]), E.shape[2]

    @cached_property
    def endo(self) -> Tuple[int, int]:
        """The dimensions of End_even(S) and End_odd(S), solved once per
        class (`endomorphism_dims`)."""
        return endomorphism_dims(self)


def endomorphism_dims(K: FactorClass) -> Tuple[int, int]:
    """Dimensions of the parity-even and parity-odd commutants of a class's
    simple module S, solved on its certificate's kernel; the even one is
    the solve the Meataxe's End(M) step shares.

    The even commutant is a finite division ring, hence a field, so its
    dimension divides dim S and the quotient is the dimension over the
    splitting field."""
    return K._end_even.shape[2], K._maps(K.module, K._hom_system(K.module)[1]).shape[2]


def derived_seed(seed: int, index: int) -> int:
    """The Meataxe seed of the index-th part of a computation at a seed (a
    piece of a composition series, or one module of several), so that parts
    alike in shape do not all repeat one random path."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def composition_series(
    M: SuperModule, seed: int = 0, classes: Optional[List[FactorClass]] = None
) -> List[Tuple[FactorClass, int]]:
    """The graded composition factors by repeated splitting, each as its
    isomorphism class and a side: 0 for the class's module S, 1 for its
    parity shift.  Before a piece goes to the Meataxe, each class found so
    far is tried against it, in order: where S maps into the piece
    (`FactorClass.socle`, one linear solve), each copy of S or of its
    parity shift in it is a factor of that class, and only the quotient by
    their sum, unless that is the whole piece, is split further.  A piece
    the Meataxe certifies is its class's S.  No module is built for a
    factor, only for the parts of a piece the Meataxe splits.

    `classes`, when given, holds classes known from other modules over the
    same algebra; it is searched first and extended in place."""
    factors: List[Tuple[FactorClass, int]] = []
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
        for known in classes:
            socle = known.socle(cur)
            if socle is not None:
                break
        else:
            known = _find_proper_submodule(cur, derived_seed(seed, index))
            if isinstance(known, Echelon):
                # the submodule first: its factors are found, and their
                # classes known, before the quotient is tried against them
                stack.append(quotient_module(cur, known))
                stack.append(submodule_module(cur, known))
            else:
                classes.append(known)
                factors.append((known, 0))
            continue
        sides, total = socle
        factors.extend((known, side) for side in sides)
        if total.dim < cur.dim:
            stack.append(quotient_module(cur, total))
    return factors


def composition_factors(
    M: SuperModule, seed: int = 0, classes: Optional[List[FactorClass]] = None
) -> CompositionReport:
    """Multiset of graded composition factors by repeated Meataxe splitting;
    the endomorphism dimensions are solved once per isomorphism class.
    `classes` is passed on to `composition_series`."""
    records = []
    for K, side in composition_series(M, seed, classes):
        S, (ee, eo) = K.module, K.endo
        records.append(FactorRecord(S.dim, S.superdim[::-1] if side else S.superdim, ee, eo,
                                    S.dim // ee))
    # by the whole record, so that the order does not depend on the path the
    # Meataxe took
    records.sort()
    total = sum(r.dim for r in records)
    if total != M.dim:
        raise RuntimeError("composition factor dimensions do not sum correctly")
    return CompositionReport(records)
