"""Catalog of small classical and solvable test algebras, triangular
decompositions, highest-weight sets, baby Verma modules, and the published
desk-check targets (irreducibility of Verma modules at regular semisimple
characters, divisibility of irreducible dimensions).

Every member, the solvable ones included, is a list of (name, parity,
supermatrix) entries read off by one builder, `algebra_from_matrices`, and
validated; no structure constant is typed by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .chargeom import check_chi, chi_geometry, chi_value, restrict_chi
from .env import InducedModule, character_module, induce, regular_module, ReducedAlgebra
from .gflin import Field, solve as lin_solve
from .lsa import (
    LieSuperAlgebra,
    LsaError,
    Subalgebra,
    Subspace,
    as_subalgebra,
    is_p_closed,
    scalar_extensions,
)
from .modules import composition_factors, is_graded_irreducible, validate_module
from .solvable import p_compatibility, solve_weight_equations


class CatalogError(ValueError):
    pass


@dataclass
class Root:
    vector_index: int      # basis index of the positive root vector
    coroot: np.ndarray     # coordinates of [e_alpha, e_-alpha] in the algebra
    parity: int


@dataclass
class TriangularData:
    cartan: Subspace
    n_plus: Subspace
    n_minus: Subspace
    roots: List[Root]

    def borel(self) -> Subspace:
        return self.cartan.sum_with(self.n_plus)


@dataclass
class CatalogEntry:
    algebra: LieSuperAlgebra
    triangular: Optional[TriangularData]
    name: str


# ---------------------------------------------------------------------------
# matrix-realization machinery


def algebra_from_matrices(
    field: Field, mats: List[np.ndarray], names: List[str], parities: List[int]
) -> LieSuperAlgebra:
    """Structure constants and p-operation read off a supermatrix basis, even
    elements first: every supercommutator is one broadcast product over the
    stack of matrices and their coordinates one block solve, and likewise
    the p-th powers of the even elements."""
    f = field
    n = len(mats)
    stack = np.array(mats, dtype=np.int64)
    flat = stack.reshape(n, -1)
    # ab[i, j] = A_i A_j; the sign of A_j A_i is + when both are odd
    ab = f.matmul(stack[:, None], stack[None, :])
    ba = ab.transpose(1, 0, 2, 3)
    odd = np.array(parities, dtype=bool)
    both_odd = (odd[:, None] & odd[None, :])[:, :, None, None]
    br = np.where(both_odd, f.add_arr(ab, ba), f.sub_arr(ab, ba))
    coords = lin_solve(f, flat.T, br.reshape(n * n, -1).T)
    if coords is None:
        raise CatalogError("matrix basis is not bracket-closed")
    structure = coords.T.reshape(n, n, n)
    s = n - int(odd.sum())
    powers = f.mat_pow(stack[:s], f.p).reshape(s, flat.shape[1])
    pmap = lin_solve(f, flat.T, powers.T)
    if pmap is None:
        raise CatalogError("matrix basis is not closed under p-th powers")
    g = LieSuperAlgebra(field, names, parities, structure, pmap.T)
    bad = g.validate()
    if bad:
        raise CatalogError(f"matrix-generated algebra failed validation: {bad[0]}")
    return g


def _matrix(field: Field, size: int, *terms) -> np.ndarray:
    """The sum of c E_ij over the terms (c, i, j), with 1-based i, j as in
    the names E_ij and c an integer of the prime field."""
    mat = field.zeros(size, size)
    for c, i, j in terms:
        mat[i - 1, j - 1] = c % field.p
    return mat


def _gl_basis(field: Field, m: int, n: int, traceless: bool):
    """(name, parity, supermatrix) entries of gl(m|n), or of sl(m|n) when
    traceless, and the 0-based (row, column) position of each.  gl takes
    every matrix unit; sl takes the off-diagonal units after one
    supertrace-zero Cartan element H_i per adjacent diagonal pair.  Even
    entries come first, each parity in that order."""
    N = m + n
    units = []
    if traceless:
        for i in range(1, N):
            # straddling the block, supertrace zero needs a plus sign
            h = _matrix(field, N, (1, i, i), (1 if i == m else -1, i + 1, i + 1))
            units.append((f"H{i}", 0, h, (i - 1, i - 1)))
    for i in range(N):
        for j in range(N):
            if not (traceless and i == j):
                unit = _matrix(field, N, (1, i + 1, j + 1))
                units.append((f"E{i + 1}{j + 1}", int((i < m) != (j < m)), unit, (i, j)))
    units.sort(key=lambda u: u[1])
    return [u[:3] for u in units], [u[3] for u in units]


def _triangular_from_positions(
    g: LieSuperAlgebra, positions
) -> TriangularData:
    """Cartan, positive and negative parts by matrix position: diagonal,
    above, below.  Each position above the diagonal is a root, paired with
    its transpose position."""
    f = g.field
    cart, plus, minus = [], [], []
    for idx, (i, j) in enumerate(positions):
        v = g.basis_vector(idx)
        if i == j:
            cart.append(v)
        elif i < j:
            plus.append((idx, v))
        else:
            minus.append(v)
    cartan = Subspace.from_vectors(f, g.s_even, g.n, cart)
    n_plus = Subspace.from_vectors(f, g.s_even, g.n, [v for _, v in plus])
    n_minus = Subspace.from_vectors(f, g.s_even, g.n, minus)
    roots = []
    for idx, (i, j) in enumerate(positions):
        if i < j:
            opp = positions.index((j, i))
            h_alpha = g.bracket(g.basis_vector(idx), g.basis_vector(opp))
            roots.append(Root(idx, h_alpha, int(g.parities[idx])))
    return TriangularData(cartan, n_plus, n_minus, roots)


# name -> (matrix size, basis entries (name, parity, terms of `_matrix`),
# positions for `_triangular_from_positions` or None)
_REALIZATIONS = {
    # inside gl(1|2), preserving the form with a symmetric 1x1 block and a
    # symplectic 2x2 block; the odd root vectors x, y are no matrix units,
    # and take the positions (0, 1) and (1, 0) of a positive-negative pair
    "osp(1|2)": (
        3,
        [
            ("h", 0, [(1, 2, 2), (-1, 3, 3)]),
            ("e", 0, [(1, 2, 3)]),
            ("f", 0, [(1, 3, 2)]),
            ("x", 1, [(1, 2, 1), (-1, 1, 3)]),
            ("y", 1, [(1, 1, 2), (1, 3, 1)]),
        ],
        [(0, 0), (1, 2), (2, 1), (0, 1), (1, 0)],
    ),
    "sl(2)": (
        2,
        [
            ("h", 0, [(1, 1, 1), (-1, 2, 2)]),
            ("e", 0, [(1, 1, 2)]),
            ("f", 0, [(1, 2, 1)]),
        ],
        [(0, 0), (0, 1), (1, 0)],
    ),
    # [h, x] = x, h^[p] = h
    "2dim-solvable": (2, [("h", 0, [(1, 1, 1)]), ("x", 0, [(1, 1, 2)])], None),
    # [x, y] = z, inside gl(3)
    "heisenberg": (
        3,
        [("z", 0, [(1, 1, 3)]), ("x", 0, [(1, 1, 2)]), ("y", 0, [(1, 2, 3)])],
        None,
    ),
    # [y, y] = z, inside gl(1|2)
    "odd-heisenberg": (3, [("z", 0, [(2, 3, 2)]), ("y", 1, [(1, 1, 2), (1, 3, 1)])], None),
}

_ALIASES = {"solvable2": "2dim-solvable", "oddheis": "odd-heisenberg", "heis": "heisenberg"}

_GL_RE = re.compile(r"^(gl|sl)\((\d+)\|(\d+)\)$")


def catalog(name: str, p: int, k: int = 1) -> CatalogEntry:
    """Validated catalog algebra with its triangular decomposition (where one
    exists)."""
    field = Field(p, k)
    name = name.strip()
    m = _GL_RE.match(name)
    if m:
        kind, a, b = m.group(1), int(m.group(2)), int(m.group(3))
        if kind == "sl" and (a - b) % p == 0:
            raise CatalogError(
                f"sl({a}|{b}) needs p not dividing m - n; p = {p} divides {a - b}")
        basis, positions = _gl_basis(field, a, b, kind == "sl")
        name = f"{kind}({a}|{b})"
    else:
        name = _ALIASES.get(name, name)
        if name not in _REALIZATIONS:
            raise CatalogError(f"unknown catalog name {name!r}")
        size, terms, positions = _REALIZATIONS[name]
        basis = [(nm, par, _matrix(field, size, *t)) for nm, par, t in terms]
    names, parities, mats = zip(*basis)
    g = algebra_from_matrices(field, list(mats), list(names), list(parities))
    tri = None if positions is None else _triangular_from_positions(g, positions)
    return CatalogEntry(g, tri, name)


# ---------------------------------------------------------------------------
# weights and baby Verma modules


@dataclass
class Completion:
    """g, its triangular data and chi over the extension that completes the
    weight set, with the complete set there."""
    algebra: LieSuperAlgebra
    triangular: TriangularData
    chi: np.ndarray
    weights: List[np.ndarray]


@dataclass
class LambdaSetReport:
    weights: List[np.ndarray]     # values on the Cartan rows
    expected: int                 # p^dim(h)
    complete: bool
    completion_degree: Optional[int]   # minimal extension degree filling the set
    completion: Optional[Completion] = None   # the data over that extension


def _cartan_sub(g: LieSuperAlgebra, tri: TriangularData) -> Subalgebra:
    return as_subalgebra(g, tri.cartan)


def lambda_set(
    g: LieSuperAlgebra, tri: TriangularData, chi, ext_cap: int = 4
) -> LambdaSetReport:
    """Solutions of the highest-weight compatibility equations on the Cartan.

    Over a closed field there are exactly p^dim(h); over GF(p^k) the realized
    subset can be smaller, and the report names the minimal extension degree
    that completes it instead of silently extending."""
    chi = check_chi(g, chi)
    sub = _cartan_sub(g, tri)
    chi_h = restrict_chi(chi, sub)
    sols = solve_weight_equations(sub.alg, chi_h)
    expected = g.field.p ** tri.cartan.dim
    complete = len(sols) == expected
    if not complete:
        for d, gx, table in scalar_extensions(g, ext_cap):
            if d == 1:
                continue
            trix = _extend_triangular(tri, gx.field, table, gx)
            subx = _cartan_sub(gx, trix)
            solx = solve_weight_equations(subx.alg, restrict_chi(table[chi], subx))
            if len(solx) == expected:
                return LambdaSetReport(sols, expected, complete, d,
                                       Completion(gx, trix, table[chi], solx))
    return LambdaSetReport(sols, expected, complete, None)


def _extend_triangular(tri: TriangularData, big: Field, table, gx) -> TriangularData:
    def ext_space(S: Subspace) -> Subspace:
        return Subspace(big, S.s_even, S.ambient, table[S.basis])

    return TriangularData(
        ext_space(tri.cartan),
        ext_space(tri.n_plus),
        ext_space(tri.n_minus),
        [Root(r.vector_index, table[r.coroot], r.parity) for r in tri.roots],
    )


def is_weight_admissible(g, tri, chi, lam) -> bool:
    """lam(h)^p - lam(h^[p]) = chi(h)^p on every Cartan basis row h."""
    sub = _cartan_sub(g, tri)
    chi_h = restrict_chi(chi, sub)
    lhs = p_compatibility(sub.alg, lam)
    return bool(np.array_equal(lhs, g.field.pow_arr(chi_h, g.field.p)))


def baby_verma(
    g: LieSuperAlgebra,
    tri: TriangularData,
    chi,
    lam: np.ndarray,
    budget: int = 4000,
) -> InducedModule:
    """Induce the one-dimensional weight module from the Borel subalgebra."""
    f = g.field
    chi = check_chi(g, chi)
    if np.any(chi_value(g, chi, tri.n_plus.even_rows())):
        raise LsaError("character must vanish on the even positive part")
    if not is_weight_admissible(g, tri, chi, lam):
        raise LsaError("weight does not satisfy the compatibility equations")
    borel = tri.borel()
    sub = as_subalgebra(g, borel)
    if not sub.alg.restricted:
        raise LsaError("Borel subalgebra is not p-closed")
    # value of the weight on each even row: the Cartan component decides
    mats = np.vstack([tri.cartan.basis, tri.n_plus.basis])
    coords = lin_solve(f, mats.T, sub.rows[: sub.alg.s_even].T)
    if coords is None:
        raise LsaError("Borel row is outside Cartan + positive part")
    lam_b = f.matmul(coords[: tri.cartan.dim].T, lam)
    chi_b = restrict_chi(chi, sub)
    S = character_module(sub, chi_b, lam_b)
    bad = validate_module(S)
    if bad:
        raise LsaError(f"weight line is not a valid module: {bad[0]}")
    ind = induce(g, chi, sub, S, budget=budget)
    ne, no = tri.n_minus.superdim
    if ind.module.dim != f.p**ne * 2**no:
        raise RuntimeError("baby Verma dimension disagrees with the negative part")
    return ind


def is_regular_semisimple(g: LieSuperAlgebra, tri: TriangularData, chi) -> bool:
    """chi nonzero on every coroot (chi assumed zero on both nilpotent parts)."""
    chi = check_chi(g, chi)
    for side in (tri.n_plus, tri.n_minus):
        if np.any(chi_value(g, chi, side.even_rows())):
            raise LsaError("character must vanish on the nilpotent parts")
    coroots = np.array([r.coroot for r in tri.roots]).reshape(-1, g.n)
    return bool(np.all(chi_value(g, chi, coroots)))


@dataclass
class ZhaoCheckReport:
    verma_dims: List[int]
    all_verma_irreducible: Optional[bool]  # None when no Verma was checked
    weights_found: int
    weights_expected: int
    extension_degree: int
    max_factor_dim: Optional[int]      # geometric, from the oracle
    lemma_bound_ok: Optional[bool]     # every factor dim <= the Verma dim


def zhao_check(
    g: LieSuperAlgebra,
    tri: TriangularData,
    chi,
    seed: int = 0,
    budget: int = 4000,
    ext_cap: int = 4,
) -> ZhaoCheckReport:
    """Desk check: at a regular semisimple character every baby Verma module
    is graded-irreducible, and no irreducible module exceeds its dimension.
    Both verdicts are None when no weight, hence no baby Verma module, was
    found within `ext_cap`."""
    chi = check_chi(g, chi)
    if not is_regular_semisimple(g, tri, chi):
        raise LsaError("the check applies to regular semisimple characters")
    lrep = lambda_set(g, tri, chi, ext_cap=ext_cap)
    degree = 1
    gx, trix, chix, weights = g, tri, chi, lrep.weights
    if lrep.completion is not None:
        degree = lrep.completion_degree
        c = lrep.completion
        gx, trix, chix, weights = c.algebra, c.triangular, c.chi, c.weights
    dims, irreducible = [], []
    for lam in weights:
        ind = baby_verma(gx, trix, chix, lam, budget=budget)
        dims.append(ind.module.dim)
        irreducible.append(is_graded_irreducible(ind.module, seed))
    all_irr = max_factor = lemma_ok = None
    if dims:
        all_irr = all(irreducible)
        rep = composition_factors(
            regular_module(ReducedAlgebra(gx, chix), budget=budget).module, seed
        )
        max_factor = max(rep.geometric_dims)
        lemma_ok = max_factor <= max(dims)
    return ZhaoCheckReport(
        verma_dims=dims,
        all_verma_irreducible=all_irr,
        weights_found=len(weights),
        weights_expected=lrep.expected,
        extension_degree=degree,
        max_factor_dim=max_factor,
        lemma_bound_ok=lemma_ok,
    )


def kw_divisibility_check(g: LieSuperAlgebra, chi, factor_dims) -> bool:
    """Every factor dimension divisible by p^(b0/2) * 2^ceil(b1/2)."""
    geo = chi_geometry(g, check_chi(g, chi))
    divisor = geo.value(g.field.p)
    return all(int(d) % divisor == 0 for d in factor_dims)
