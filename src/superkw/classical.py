"""Catalog of small classical and solvable test algebras, their triangular
decompositions, and baby Verma modules: a weight line of the Borel
subalgebra, induced to g.

Every member, the solvable ones included, is a list of (name, parity,
supermatrix) entries read off by one builder, `algebra_from_matrices`, and
validated; no structure constant is typed by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .chargeom import DEFAULT_BUDGET, check_chi, chi_value, restrict_chi
from .env import InducedModule, character_module, induce
from .gflin import Field, shared_field, solve as lin_solve
from .lsa import LieSuperAlgebra, LsaError, Subspace, as_subalgebra
from .modules import validate_module
from .solvable import p_compatibility


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


def triangular_data(g: LieSuperAlgebra, cartan, plus, minus) -> TriangularData:
    """Cartan, positive and negative parts spanned by the basis vectors at
    the given indices.  Each positive vector is a root vector, paired with
    the first negative one, in the order given, whose bracket with it is a
    nonzero Cartan element: that bracket is its coroot."""
    def span(idxs):
        return Subspace(g.field, g.s_even, g.n, g.field.eye(g.n)[list(idxs)])

    h = span(cartan)
    roots = []
    for i in plus:
        for j in minus:
            h_alpha = g.bracket(g.basis_vector(i), g.basis_vector(j))
            if np.any(h_alpha) and h.contains(h_alpha):
                roots.append(Root(i, h_alpha, int(g.parities[i])))
                break
    return TriangularData(h, span(plus), span(minus), roots)


# name -> (matrix size, basis entries (name, parity, terms of `_matrix`),
# the matrix position of each entry, which places it in the triangular
# decomposition, or None)
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
    field = shared_field(p, k)
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
    if positions is None:
        return CatalogEntry(g, None, name)
    parts = ([], [], [])   # diagonal, above, below (index -1)
    for idx, (i, j) in enumerate(positions):
        parts[(j > i) - (j < i)].append(idx)
    return CatalogEntry(g, triangular_data(g, *parts), name)


# ---------------------------------------------------------------------------
# weights and baby Verma modules


def is_weight_admissible(g, tri, chi, lam) -> bool:
    """lam(h)^p - lam(h^[p]) = chi(h)^p on every Cartan basis row h."""
    sub = as_subalgebra(g, tri.cartan)
    chi_h = restrict_chi(chi, sub)
    lhs = p_compatibility(sub.alg, lam)
    return bool(np.array_equal(lhs, g.field.pow_arr(chi_h, g.field.p)))


def baby_verma(
    g: LieSuperAlgebra,
    tri: TriangularData,
    chi,
    lam: np.ndarray,
    budget: int = DEFAULT_BUDGET,
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
    S = character_module(sub.alg, chi_b, lam_b)
    bad = validate_module(S)
    if bad:
        raise LsaError(f"weight line is not a valid module: {bad[0]}")
    ind = induce(g, chi, sub, S, budget=budget)
    ne, no = tri.n_minus.superdim
    if ind.module.dim != f.p**ne * 2**no:
        raise RuntimeError("baby Verma dimension disagrees with the negative part")
    return ind
