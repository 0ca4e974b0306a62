"""Irreducible-module engine for solvable restricted Lie superalgebras:
ideal descent with induction, one-dimensional base characters, and
polarization-induced modules.

The descent mirrors the effective content of the inductive construction:
find an abelian ideal on which the character geometry is nontrivial, pass to
its stabilizer, recurse, and induce.  Where the literal recipe does not
apply (the base weight has no solution over the working field, or no usable
ideal exists) the engine extends the field up to a cap, falls over to the
polarization route for completely solvable inputs, and finally to the brute
force oracle (the largest composition factor of the regular module); every
produced module is re-validated and its irreducibility re-checked, so wrong
answers cannot escape, only honest fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import product as iproduct
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .chargeom import (
    BudgetExceeded,
    SuperDim,
    check_chi,
    chi_value,
    polarization,
    restrict_chi,
)
from .env import ReducedAlgebra, character_module, induce, regular_module
from .gflin import Field, nullspace, solve as lin_solve
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
    is_ideal,
    is_nilpotent_subalg,
    is_p_closed,
    is_solvable,
    one_dim_ideal_flag,
    scalar_extensions,
)
from .modules import (
    SuperModule,
    composition_factor_modules,
    is_graded_irreducible,
    validate_module,
)

MAX_WEIGHT_SOLUTIONS = 4096


class ConstructionFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# stabilizer of an ideal


def i_chi(g: LieSuperAlgebra, I: Subspace, chi) -> Subspace:
    """Stabilizer {X : chi([X, I]) = 0}; a subalgebra, p-closed when g is
    restricted.  It contains I precisely when chi kills [I, I]."""
    chi = check_chi(g, chi)
    if not is_ideal(g, I):
        raise LsaError("the stabilizer is defined for ideals only")
    # [e_j, row r] lies in I, so chi([e_j, row r]) is chi's values on the
    # rows of I taken at its coordinates there
    return _mu_stabilizer(g, I, chi_value(g, chi, I.basis))


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

    prime = Field(p)
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


def solve_weight_equations(
    alg: LieSuperAlgebra,
    chi_h: np.ndarray,
    pins: Tuple[Tuple[np.ndarray, int], ...] = (),
) -> List[np.ndarray]:
    """All weights of `_weight_solutions`, in lexicographic order of their
    codes (capped)."""
    count, sols = _weight_solutions(alg, chi_h, pins)
    if count > MAX_WEIGHT_SOLUTIONS:
        raise BudgetExceeded(
            f"weight solution set has {count} elements, "
            f"cap is {MAX_WEIGHT_SOLUTIONS}")
    return list(sols)


def one_dim_weights(
    sub: Subalgebra, chi_sub: np.ndarray, pins=()
) -> Optional[np.ndarray]:
    """The first weight of a one-dimensional module, or None: kill the even
    part of the derived subalgebra and satisfy the p-compatibility equations.
    Only that weight is computed, however many there are."""
    alg = sub.alg
    der = derived_subalgebra(alg)
    all_pins = [(row[: alg.s_even], 0) for row in der.even_rows()]
    all_pins.extend(pins)
    return next(_weight_solutions(alg, chi_sub, tuple(all_pins))[1], None)


# ---------------------------------------------------------------------------
# descent trace


@dataclass
class DescentStep:
    ideal_dim: tuple
    stabilizer_dim: tuple
    codims: tuple         # (even codim, odd codim) of the induction
    weight_on_ideal: Optional[np.ndarray]  # values on the ideal's even rows


@dataclass
class DescentTrace:
    steps: List[DescentStep] = dfield(default_factory=list)
    terminal: str = ""            # "base" | "polarization" | "oracle"
    terminal_weight: Optional[np.ndarray] = None
    extension_degree: int = 1
    fallback: bool = False

    def predicted_dim(self, p: int, base_dim: int) -> int:
        d = base_dim
        for st in self.steps:
            d *= p ** st.codims[0] * 2 ** st.codims[1]
        return d


# ---------------------------------------------------------------------------
# the constructive engine


def _abelian_ideal_candidates(g: LieSuperAlgebra) -> List[Subspace]:
    """Deterministically ordered abelian ideals to try in the descent."""
    cands: List[Subspace] = []
    seen = set()

    def push(S: Subspace):
        if S.dim == 0:
            return
        keyb = (S.dim, S.basis.tobytes())
        if keyb in seen:
            return
        if not is_ideal(g, S):
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
    coords = sub.space.coords_of(I.basis)
    if coords is None:
        return False
    return np.array_equal(S.rho(coords), mu_vals[:, None, None] * np.eye(S.dim, dtype=np.int64))


def construct_irreducible(
    g: LieSuperAlgebra,
    chi,
    seed: int = 0,
    ext_cap: int = 4,
    budget: int = 4000,
) -> Tuple[SuperModule, DescentTrace]:
    """A graded-irreducible module over U_chi(g) for solvable restricted g,
    with the construction trace.  The result may live over a field
    extension (recorded in the trace)."""
    chi = check_chi(g, chi)
    if not is_solvable(g) or not g.restricted:
        raise LsaError("the engine handles solvable restricted algebras")
    last_exc: Optional[Exception] = None
    for degree, gx, table in scalar_extensions(g, ext_cap):
        try:
            M, trace = _construct(gx, table[chi], seed, budget, pins=())
            trace.extension_degree = degree
            return M, trace
        except (NeedsFieldExtension, ConstructionFailure) as exc:
            last_exc = exc
    # out of extensions: the largest composition factor of the regular
    # module over the base field (the first one found on a tie)
    try:
        reg = regular_module(ReducedAlgebra(g, chi), budget=budget)
    except BudgetExceeded:
        raise ConstructionFailure(
            f"constructive routes exhausted ({last_exc}) and the oracle "
            "budget is insufficient")
    best = max(composition_factor_modules(reg.module, seed), key=lambda F: F.dim)
    return best, DescentTrace(terminal="oracle", fallback=True)


def _construct(g, chi, seed, budget, pins) -> Tuple[SuperModule, DescentTrace]:
    f = g.field
    derived = derived_subalgebra(g)
    chi_kills_derived = not np.any(chi_value(g, chi, derived.even_rows()))
    whole = as_subalgebra(g, g.full_space())
    if chi_kills_derived and is_nilpotent_subalg(g, derived):
        lam = one_dim_weights(whole, chi, pins=_pins_to_sub(whole, pins))
        if lam is None:
            raise NeedsFieldExtension("no one-dimensional weight over the working field")
        S = character_module(whole, chi, lam)
        bad = validate_module(S)
        if bad:
            raise ConstructionFailure(f"base module failed validation: {bad[0]}")
        trace = DescentTrace(terminal="base", terminal_weight=lam)
        return S, trace

    pending_extension = None
    for I in _abelian_ideal_candidates(g):
        # chi([e_j, row]) for every generator and every row of I
        if not np.any(chi_value(g, chi, g.bracket(f.eye(g.n)[:, None], I.basis))):
            continue
        # admissible eigenvalue functionals on the ideal
        sub_I = as_subalgebra(g, I)
        chi_I = restrict_chi(chi, sub_I)
        mu_list = []
        if not np.any(chi_value(g, chi, g.p_power(I.even_rows()))):
            mu_list.append(chi_I)
        if sub_I.alg.restricted:
            try:
                for lam in solve_weight_equations(sub_I.alg, chi_I):
                    if not any(np.array_equal(lam, m) for m in mu_list):
                        mu_list.append(lam)
            except BudgetExceeded:
                pass
        for mu in mu_list:
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
            new_pins = []
            ok = True
            for r, row in enumerate(I.basis):
                c = stab.coords_of(row)
                if c is None:
                    ok = False
                    break
                if np.any(c[h.alg.s_even :]):
                    continue  # odd row; acts by zero on a one-dim base anyway
                new_pins.append((c[: h.alg.s_even], int(mu_vals[r])))
            if not ok:
                continue
            carried = _pins_to_sub(h, pins)
            if carried is None:
                continue
            try:
                S, subtrace = _construct(
                    h.alg, chi_h, seed, budget, pins=tuple(new_pins) + carried
                )
            except ConstructionFailure:
                continue
            except NeedsFieldExtension as exc:
                pending_extension = exc
                continue
            if not _module_is_eigen(I, S, h, mu_vals):
                continue
            try:
                ind = induce(g, chi, h, S, budget=budget)
            except BudgetExceeded:
                continue
            M = ind.module
            if validate_module(M):
                continue
            if not is_graded_irreducible(M, seed):
                continue
            se, so = stab.superdim
            step = DescentStep(
                ideal_dim=I.superdim,
                stabilizer_dim=stab.superdim,
                codims=(g.s_even - se, g.t_odd - so),
                weight_on_ideal=mu_vals,
            )
            trace = subtrace
            trace.steps.insert(0, step)
            return M, trace

    # polarization route for completely solvable inputs
    if is_completely_solvable(g):
        try:
            M, lam = _polarization_module_inner(g, chi, seed, budget)
            if not validate_module(M) and is_graded_irreducible(M, seed):
                trace = DescentTrace(terminal="polarization", terminal_weight=lam)
                return M, trace
        except NeedsFieldExtension as exc:
            pending_extension = exc
        except (ConstructionFailure, LsaError):
            pass

    if pending_extension is not None:
        raise pending_extension
    raise ConstructionFailure("no constructive route applied over this field")


def _pins_to_sub(h: Subalgebra, pins):
    """Translate pinned linear conditions into subalgebra coordinates;
    None when a pinned vector falls outside the subalgebra."""
    out = []
    for vec, val in pins:
        # pins are stored in the coordinates of h's parent
        amb = np.zeros(h.parent.n, dtype=np.int64)
        amb[: len(vec)] = vec
        c = h.space.coords_of(amb)
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
    if K.size == 0:
        return g.full_space()
    return Subspace(f, g.s_even, g.n, nullspace(f, K))


# ---------------------------------------------------------------------------
# polarization modules


def _polarization_module_inner(g, chi, seed, budget):
    h_space = polarization(g, chi)
    if g.restricted and not is_p_closed(g, h_space):
        raise ConstructionFailure(
            "polarization subalgebra is not p-closed; reported rather than assumed")
    sub = as_subalgebra(g, h_space)
    chi_h = restrict_chi(chi, sub)
    lam = one_dim_weights(sub, chi_h)
    if lam is None:
        raise NeedsFieldExtension(
            "no weight for the polarization over the working field")
    S = character_module(sub, chi_h, lam)
    bad = validate_module(S)
    if bad:
        raise ConstructionFailure(f"polarization base character invalid: {bad[0]}")
    ind = induce(g, chi, sub, S, budget=budget)
    return ind.module, lam


@dataclass
class PolarizationModuleReport:
    module: SuperModule
    weight: np.ndarray
    irreducible: bool
    extension_degree: int
    polarization_superdim: tuple


def polarization_module(
    g: LieSuperAlgebra, chi, seed: int = 0, ext_cap: int = 4, budget: int = 4000
) -> PolarizationModuleReport:
    """Induce a one-dimensional character from a polarization; extends the
    base field when the weight equations demand it."""
    chi = check_chi(g, chi)
    if not is_completely_solvable(g):
        raise LsaError("polarization modules need a completely solvable algebra")
    last = None
    for degree, gx, table in scalar_extensions(g, ext_cap):
        chix = table[chi]
        try:
            M, lam = _polarization_module_inner(gx, chix, seed, budget)
            h_sd = SuperDim(*polarization(gx, chix).superdim)
            return PolarizationModuleReport(
                module=M,
                weight=lam,
                irreducible=is_graded_irreducible(M, seed),
                extension_degree=degree,
                polarization_superdim=h_sd,
            )
        except NeedsFieldExtension as exc:
            last = exc
    raise ConstructionFailure(f"field extension cap reached: {last}")
