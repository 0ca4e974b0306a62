"""Irreducible-module engine for solvable restricted Lie superalgebras:
ideal descent with induction, one-dimensional base characters, and
polarization-induced modules.

The descent mirrors the effective content of the inductive construction:
find an abelian ideal on which the character geometry is nontrivial, pass to
its stabilizer, recurse, and induce.  Each route (the base character, a
descent step, the polarization module for completely solvable inputs)
returns a module or None; None covers a missing weight over the working
field, a missing usable ideal, a polarization that is not p-closed and a
module that fails the check.  One check, `_accepted`, accepts every module
a route returns: it is a valid module and graded irreducible, so wrong
answers cannot escape, only honest fallbacks.  On None the engine extends
the field up to a cap (the base field is always tried first), and finally
falls back to the brute force oracle: the largest composition factor of the
regular module, from the two-level oracle that `conjecture` runs
(`report.oracle_composition`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import product as iproduct
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .chargeom import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    check_chi,
    chi_value,
    polarization,
    restrict_chi,
)
from .env import character_module, induce
from .gflin import nullspace, shared_field, solve as lin_solve
from .lsa import (
    LieSuperAlgebra,
    LsaError,
    NeedsFieldExtension,
    Subalgebra,
    Subspace,
    as_subalgebra,
    bracket_span,
    derived_series,
    derived_subalgebra,
    intersect_spaces,
    is_completely_solvable,
    is_nilpotent_subalg,
    is_p_closed,
    is_solvable,
    one_dim_ideal_flag,
    scalar_extensions,
)
from .modules import SuperModule, is_graded_irreducible, validate_module
from .report import oracle_composition


# ---------------------------------------------------------------------------
# weight equations: lambda(x)^p - lambda(x^[p]) = chi(x)^p plus linear pins


def p_compatibility(alg: LieSuperAlgebra, lam: np.ndarray) -> np.ndarray:
    """lam(x_a)^p - lam(x_a^[p]) for each even basis element x_a of a
    restricted algebra, for a functional lam given by its values on the even
    basis, or for each of a stack of them.  The map is additive."""
    f = alg.field
    lam = np.asarray(lam, dtype=np.int64)
    return f.sub_arr(f.pow_arr(lam, f.p), f.matmul(lam, alg.pmap[:, : alg.s_even].T))


def _weight_solutions(
    alg: LieSuperAlgebra,
    chi_h: np.ndarray,
    pins: Tuple[Tuple[np.ndarray, int], ...] = (),
) -> Tuple[int, Iterator[np.ndarray]]:
    """The number of functionals on the even part satisfying the
    p-compatibility equations and the given linear constraints, over the
    working field, and a lazy iterator over them in lexicographic order of
    their codes.

    The map lambda -> lambda(x)^p - lambda(x^[p]) is additive, so after
    expanding field elements in the power basis this is a linear system over
    the prime field.  Its columns run from the last coordinate to the first,
    lowest digit first: the reverse of code significance.  The free columns
    of the echelon form then come first in code significance, so the
    particular solution (zero there) is the smallest, and the kernel basis,
    whose rows lead at their free columns, walks the rest in order.
    """
    if not alg.restricted:
        raise LsaError("weight equations need a p-operation")
    f = alg.field
    p, k, s = f.p, f.k, alg.s_even
    pins = tuple((np.asarray(v, dtype=np.int64), int(val)) for v, val in pins)
    if s == 0:
        sols = [np.zeros(0, dtype=np.int64)]
        if any(val != 0 and not np.any(v) for v, val in pins):
            sols = []
        return len(sols), iter(sols)

    # the map and the pins on the stack of unit functionals: unit a*k + j
    # is x^j (code p^j) at coordinate s - 1 - a, so its row of digits is
    # column a*k + j of the system
    cols = np.arange(s * k)
    units = np.zeros((s * k, s), dtype=np.int64)
    units[cols, s - 1 - cols // k] = p ** (cols % k)
    pin_rows = np.array([v for v, _ in pins], dtype=np.int64).reshape(-1, s)
    pin_vals = np.array([val for _, val in pins], dtype=np.int64)
    vals = np.hstack([p_compatibility(alg, units), f.matmul(units, pin_rows.T)])
    M = f.digits(vals).reshape(s * k, -1).T
    b = f.digits(np.concatenate([f.pow_arr(chi_h, p), pin_vals])).ravel()

    prime = shared_field(p)
    x0 = lin_solve(prime, M, b)
    if x0 is None:
        return 0, iter(())
    # rows by increasing free column in code significance
    ker = nullspace(prime, M)[::-1]
    sols = (
        f.undigits(((x0 + np.array(coeffs, dtype=np.int64) @ ker) % p).reshape(s, k)[::-1])
        for coeffs in iproduct(range(p), repeat=ker.shape[0])
    )
    return p ** ker.shape[0], sols


def one_dim_weights(alg: LieSuperAlgebra, chi: np.ndarray, pins=()) -> Optional[np.ndarray]:
    """The first weight of a one-dimensional module of alg, or None: kill
    the even part of the derived subalgebra and satisfy the p-compatibility
    equations.  Only that weight is computed, however many there are."""
    der = derived_subalgebra(alg)
    all_pins = [(row[: alg.s_even], 0) for row in der.even_rows()]
    all_pins.extend(pins)
    return next(_weight_solutions(alg, chi, tuple(all_pins))[1], None)


# ---------------------------------------------------------------------------
# descent trace


@dataclass
class DescentStep:
    ideal_dim: tuple
    stabilizer_dim: tuple
    codims: tuple         # (even codim, odd codim) of the induction


@dataclass
class DescentTrace:
    steps: List[DescentStep] = dfield(default_factory=list)
    terminal: str = ""            # "base" | "polarization" | "oracle"
    extension_degree: int = 1

    @property
    def fallback(self) -> bool:
        """No route applied; the module is the oracle's largest factor."""
        return self.terminal == "oracle"


# ---------------------------------------------------------------------------
# the constructive engine


def _abelian_ideal_candidates(g: LieSuperAlgebra) -> List[Subspace]:
    """Deterministically ordered abelian ideals to try in the descent.  The
    terms of the derived series, the members of a flag of ideals and their
    intersections with the derived subalgebra are ideals by construction,
    so only abelianness is checked."""
    cands: List[Subspace] = []
    seen = set()

    def push(S: Subspace):
        if S.dim == 0:
            return
        keyb = (S.dim, S.basis.tobytes())
        if keyb in seen:
            return
        if bracket_span(g, S, S).dim != 0:
            return
        seen.add(keyb)
        cands.append(S)

    for term in derived_series(g)[1:]:
        push(term)
    try:
        flag = one_dim_ideal_flag(g)
    except (NeedsFieldExtension, LsaError):
        flag = []
    derived = derived_subalgebra(g)
    for member in flag:
        push(member)
        push(intersect_spaces(member, derived))
    cands.sort(key=lambda S: (S.dim, S.basis.tobytes()))
    return cands


def _module_is_eigen(I: Subspace, S: SuperModule, sub: Subalgebra, mu_vals) -> bool:
    """Whether every vector of S is a mu-eigenvector for the ideal."""
    coords = sub.space.coords(I.basis)
    if coords is None:
        return False
    return np.array_equal(S.rho(coords), mu_vals[:, None, None] * np.eye(S.dim, dtype=np.int64))


def construct_irreducible(
    g: LieSuperAlgebra,
    chi,
    seed: int = 0,
    ext_cap: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[SuperModule, DescentTrace]:
    """A graded-irreducible module over U_chi(g) for solvable restricted g,
    with the construction trace.  The result may live over a field
    extension (recorded in the trace).  When no constructive route applies
    and a module the oracle builds is over the budget, raises
    BudgetExceeded."""
    chi = check_chi(g, chi)
    if not is_solvable(g) or not g.restricted:
        raise LsaError("the engine handles solvable restricted algebras")
    for degree, gx, table in scalar_extensions(g, ext_cap):
        found = _construct(gx, table[chi], seed, budget, pins=())
        if found is not None:
            found[1].extension_degree = degree
            return found
    # out of extensions: the largest composition factor of the regular
    # module over the base field, from conjecture's oracle, the first class
    # found on a tie.  A class's module is the piece the Meataxe certified
    classes = []
    try:
        oracle_composition(g, chi, seed, budget, classes)
    except BudgetExceeded:
        raise BudgetExceeded(
            f"constructive routes exhausted up to --ext-cap {ext_cap} and the "
            "oracle budget is insufficient") from None
    best = max((K.module for K in classes), key=lambda S: S.dim)
    return best, DescentTrace(terminal="oracle")


def _ideal_weights(g, chi, I: Subspace, sub_I: Subalgebra) -> Iterator[np.ndarray]:
    """The eigenvalue functionals to try on an abelian ideal, lazily: chi
    restricted to I first when chi vanishes on I^[p], then the weights of
    `_weight_solutions` in code order."""
    chi_I = restrict_chi(chi, sub_I)
    first = not np.any(chi_value(g, chi, g.p_power(I.even_rows())))
    if first:
        yield chi_I
    if sub_I.alg.restricted:
        for lam in _weight_solutions(sub_I.alg, chi_I)[1]:
            if not (first and np.array_equal(lam, chi_I)):
                yield lam


def _accepted(M: SuperModule, seed: int) -> bool:
    """The one check on every module a route returns: valid and graded
    irreducible."""
    return not validate_module(M) and is_graded_irreducible(M, seed)


def _construct(g, chi, seed, budget, pins) -> Optional[Tuple[SuperModule, DescentTrace]]:
    """A module over U_chi(g) with its trace, by the base, descent or
    polarization route, or None when no route gives one over g's field."""
    f = g.field
    derived = derived_subalgebra(g)
    chi_kills_derived = not np.any(chi_value(g, chi, derived.even_rows()))
    if chi_kills_derived and is_nilpotent_subalg(g, derived):
        lam = one_dim_weights(g, chi, pins)
        if lam is None:
            return None
        S = character_module(g, chi, lam)
        return (S, DescentTrace(terminal="base")) if _accepted(S, seed) else None

    for I in _abelian_ideal_candidates(g):
        # chi([e_j, row]) for every generator and every row of I
        if not np.any(chi_value(g, chi, g.bracket(f.eye(g.n)[:, None], I.basis))):
            continue
        sub_I = as_subalgebra(g, I)
        for mu in _ideal_weights(g, chi, I, sub_I):
            # mu as values on the rows of I (odd rows get zero)
            mu_vals = np.zeros(I.dim, dtype=np.int64)
            s_I = sub_I.alg.s_even
            mu_vals[:s_I] = mu
            # full functional on I in ambient coordinates, for the stabilizer
            stab = _mu_stabilizer(g, I, mu_vals)
            if stab.dim == g.n:
                continue
            h = as_subalgebra(g, stab)
            if not h.alg.restricted:
                continue
            chi_h = restrict_chi(chi, h)
            # mu's values on the rows of I and the pins g carries, in h's
            # coordinates
            sub_pins = _pins_to_sub(h, [*zip(I.basis, mu_vals.tolist()), *pins])
            if sub_pins is None:
                continue
            found = _construct(h.alg, chi_h, seed, budget, pins=sub_pins)
            if found is None or not _module_is_eigen(I, found[0], h, mu_vals):
                continue
            S, trace = found
            try:
                M = induce(g, chi, h, S, budget=budget).module
            except BudgetExceeded:
                continue
            if not _accepted(M, seed):
                continue
            se, so = stab.superdim
            codims = (g.s_even - se, g.t_odd - so)
            trace.steps.insert(0, DescentStep(I.superdim, stab.superdim, codims))
            return M, trace

    # polarization route for completely solvable inputs
    if is_completely_solvable(g):
        M = _polarization_module(g, chi, budget)
        if M is not None and _accepted(M, seed):
            return M, DescentTrace(terminal="polarization")
    return None


def _pins_to_sub(h: Subalgebra, pins):
    """Translate pinned linear conditions into subalgebra coordinates;
    None when a pinned vector falls outside the subalgebra.  Odd vectors
    are dropped: they act by zero on a one-dim base anyway."""
    out = []
    for vec, val in pins:
        # pins are stored in the coordinates of h's parent
        amb = np.zeros(h.parent.n, dtype=np.int64)
        amb[: len(vec)] = vec
        c = h.space.coords(amb)
        if c is None:
            return None
        if np.any(c[h.alg.s_even :]):
            continue
        out.append((c[: h.alg.s_even], val))
    return tuple(out)


def _mu_stabilizer(g: LieSuperAlgebra, I: Subspace, mu_vals: np.ndarray) -> Subspace:
    """{X : mu([X, I]) = 0} for a functional given on the rows of I."""
    f = g.field
    # t[r, j] = [e_j, row r of I]
    t = g.bracket(f.eye(g.n), I.basis[:, None])
    if not I.contains(t):
        raise LsaError("ideal is not ad-invariant")
    # conditions (rows of I) x generators
    K = f.matmul(t[..., I.pivots], mu_vals.reshape(-1, 1))[..., 0]
    return Subspace(f, g.s_even, g.n, nullspace(f, K))


# ---------------------------------------------------------------------------
# polarization modules


def _polarization_module(g, chi, budget) -> Optional[SuperModule]:
    """A one-dimensional character of a polarization, induced to g, or None
    when the polarization is missing over g's field, is not p-closed or has
    no weight there."""
    try:
        h_space = polarization(g, chi)
    except (NeedsFieldExtension, LsaError):
        return None
    if not is_p_closed(g, h_space):
        return None
    sub = as_subalgebra(g, h_space)
    chi_h = restrict_chi(chi, sub)
    lam = one_dim_weights(sub.alg, chi_h)
    if lam is None:
        return None
    return induce(g, chi, sub, character_module(sub.alg, chi_h, lam), budget=budget).module
