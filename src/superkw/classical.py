"""Catalog of small classical and solvable test algebras, triangular
decompositions, highest-weight sets, baby Verma modules, and the published
desk-check targets (irreducibility of Verma modules at regular semisimple
characters, divisibility of irreducible dimensions).

Classical members are generated from supermatrix realizations and validated;
no structure constant is typed by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .chargeom import check_chi, chi_geometry, restrict_chi
from .env import InducedModule, character_module, induce, regular_module, ReducedAlgebra
from .gflin import Field, solve as lin_solve
from .lsa import (
    LieSuperAlgebra,
    LsaError,
    Subalgebra,
    Subspace,
    as_subalgebra,
    extend_scalars,
    is_p_closed,
    scalar_extensions,
)
from .modules import composition_factors, is_graded_irreducible, validate_module
from .solvable import solve_weight_equations


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


def _super_sign(pa: int, pb: int) -> int:
    return -1 if (pa * pb) % 2 == 1 else 1


def algebra_from_matrices(
    field: Field, mats: List[np.ndarray], names: List[str], parities: List[int]
) -> LieSuperAlgebra:
    """Structure constants and p-operation read off a supermatrix basis."""
    f = field
    n = len(mats)
    flat = np.array([m.ravel() for m in mats], dtype=np.int64)
    structure = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            ab = f.matmul(mats[i], mats[j])
            ba = f.matmul(mats[j], mats[i])
            if _super_sign(parities[i], parities[j]) == -1:
                br = f.add_arr(ab, ba)
            else:
                br = f.sub_arr(ab, ba)
            coords = lin_solve(f, flat.T, br.ravel())
            if coords is None:
                raise CatalogError("matrix basis is not bracket-closed")
            structure[i, j] = coords
    s = sum(1 for p_ in parities if p_ == 0)
    pmap = np.zeros((s, n), dtype=np.int64)
    for i in range(s):
        mp = f.mat_pow(mats[i], f.p)
        coords = lin_solve(f, flat.T, mp.ravel())
        if coords is None:
            raise CatalogError("matrix basis is not closed under p-th powers")
        pmap[i] = coords
    g = LieSuperAlgebra(field, names, parities, structure, pmap)
    bad = g.validate()
    if bad:
        raise CatalogError(f"matrix-generated algebra failed validation: {bad[0]}")
    return g


def _gl_basis(field: Field, m: int, n: int):
    """Supermatrix units of gl(m|n), even block first, each block in
    lexicographic (row, column) order."""
    N = m + n
    evens, odds = [], []
    for i in range(N):
        for j in range(N):
            par = (i < m) != (j < m)
            mat = field.zeros(N, N)
            mat[i, j] = 1
            entry = (mat, f"E{i + 1}{j + 1}", int(par), i, j)
            (odds if par else evens).append(entry)
    ordered = evens + odds
    mats = [e[0] for e in ordered]
    names = [e[1] for e in ordered]
    parities = [e[2] for e in ordered]
    positions = [(e[3], e[4]) for e in ordered]
    return mats, names, parities, positions


def _triangular_from_positions(
    g: LieSuperAlgebra, positions
) -> TriangularData:
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


def _make_gl(field: Field, m: int, n: int) -> CatalogEntry:
    mats, names, parities, positions = _gl_basis(field, m, n)
    g = algebra_from_matrices(field, mats, names, parities)
    tri = _triangular_from_positions(g, positions)
    return CatalogEntry(g, tri, f"gl({m}|{n})")


def _make_sl(field: Field, m: int, n: int) -> CatalogEntry:
    if (m - n) % field.p == 0:
        raise CatalogError(
            f"sl({m}|{n}) needs p not dividing m - n; p = {field.p} divides {m - n}")
    N = m + n
    entries = []  # (mat, name, parity, position marker)
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            par = (i < m) != (j < m)
            mat = field.zeros(N, N)
            mat[i, j] = 1
            entries.append((mat, f"E{i + 1}{j + 1}", int(par), (i, j)))
    cartan_mats = []
    for i in range(N - 1):
        mat = field.zeros(N, N)
        mat[i, i] = 1
        if i + 1 < m or i >= m:
            mat[i + 1, i + 1] = field.neg(1)
        else:
            # straddling the block: supertrace-zero needs a plus sign
            mat[i + 1, i + 1] = 1
        cartan_mats.append((mat, f"H{i + 1}", 0, (i, i)))
    evens = cartan_mats + [e for e in entries if e[2] == 0]
    odds = [e for e in entries if e[2] == 1]
    ordered = evens + odds
    mats = [e[0] for e in ordered]
    names = [e[1] for e in ordered]
    parities = [e[2] for e in ordered]
    g = algebra_from_matrices(field, mats, names, parities)
    positions = [e[3] for e in ordered]
    tri = _triangular_from_positions(g, positions)
    return CatalogEntry(g, tri, f"sl({m}|{n})")


def _make_osp12(field: Field) -> CatalogEntry:
    """osp(1|2) inside gl(1|2), from the invariance equations of the standard
    even supersymmetric form (symmetric 1x1 block, symplectic 2x2 block)."""
    f = field
    B = np.array([[1, 0, 0], [0, 0, 1], [0, f.neg(1), 0]], dtype=np.int64)
    par_coord = np.array([0, 1, 1])
    sols = {}
    for xi in (0, 1):
        # unknowns: entries of X supported on the parity-xi positions
        support = [
            (r, c)
            for r in range(3)
            for c in range(3)
            if (par_coord[r] + par_coord[c]) % 2 == xi
        ]
        rows = []
        for eps in (0, 1):
            sign = 1 if (xi * eps) % 2 == 0 else -1
            for r in range(3):
                if par_coord[r] != eps:
                    continue
                for c in range(3):
                    coeffs = np.zeros(len(support), dtype=np.int64)
                    for u, (a, b) in enumerate(support):
                        val = 0
                        # (X^T B)[r, c]: coefficient of X[a, r] is B[a, c]
                        if b == r:
                            val = f.add(val, int(B[a, c]))
                        # sign * (B X)[r, c]: coefficient of X[a, c] is B[r, a]
                        if b == c:
                            term = int(B[r, a])
                            if sign == -1:
                                term = f.neg(term)
                            val = f.add(val, term)
                        coeffs[u] = val
                    rows.append(coeffs)
        from .gflin import nullspace

        ker = nullspace(f, np.array(rows, dtype=np.int64))
        mats = []
        for krow in ker:
            X = f.zeros(3, 3)
            for u, (a, b) in enumerate(support):
                X[a, b] = krow[u]
            mats.append(X)
        sols[xi] = mats
    if len(sols[0]) != 3 or len(sols[1]) != 2:
        raise CatalogError(
            f"osp(1|2) solve produced dimensions ({len(sols[0])}|{len(sols[1])})")
    # adapt the even part to the Cartan: h is the diagonal solution, e and f
    # the ad(h)-eigenvectors with eigenvalues 2 and -2
    even = sols[0]
    h = None
    for X in even:
        if not np.any(X - np.diag(np.diagonal(X))):
            h = X
            break
    if h is None:
        raise CatalogError("no diagonal Cartan element found")
    scale = int(h[1, 1])
    h = f.mul_arr(f.inv(scale), h)  # normalize to diag(0, 1, -1)

    # brackets with h split the root spaces; search small combinations
    def eig_split(space, eig_code):
        combos = []
        for X in space:
            combos.append(X)
        for a in range(len(space)):
            for b in range(a + 1, len(space)):
                combos.append(f.add_arr(space[a], space[b]))
                combos.append(f.sub_arr(space[a], space[b]))
        for X in combos:
            if not np.any(X):
                continue
            br = f.sub_arr(f.matmul(h, X), f.matmul(X, h))
            if np.array_equal(br, f.mul_arr(eig_code, X)):
                return X
        raise CatalogError("root vector not found")
    e = eig_split(even, 2 % f.p)
    fe = eig_split(even, f.neg(2 % f.p))
    x = eig_split(sols[1], 1)
    y = eig_split(sols[1], f.neg(1))
    mats = [h, e, fe, x, y]
    names = ["h", "e", "f", "x", "y"]
    parities = [0, 0, 0, 1, 1]
    g = algebra_from_matrices(f, mats, names, parities)
    cartan = Subspace.from_vectors(f, g.s_even, g.n, [g.basis_vector(0)])
    n_plus = Subspace.from_vectors(f, g.s_even, g.n, [g.basis_vector(1), g.basis_vector(3)])
    n_minus = Subspace.from_vectors(f, g.s_even, g.n, [g.basis_vector(2), g.basis_vector(4)])
    roots = [
        Root(1, g.bracket(g.basis_vector(1), g.basis_vector(2)), 0),
        Root(3, g.bracket(g.basis_vector(3), g.basis_vector(4)), 1),
    ]
    return CatalogEntry(g, TriangularData(cartan, n_plus, n_minus, roots), "osp(1|2)")


def _make_sl2(field: Field) -> CatalogEntry:
    f = field
    h = np.array([[1, 0], [0, f.neg(1)]], dtype=np.int64)
    e = np.array([[0, 1], [0, 0]], dtype=np.int64)
    fm = np.array([[0, 0], [1, 0]], dtype=np.int64)
    g = algebra_from_matrices(f, [h, e, fm], ["h", "e", "f"], [0, 0, 0])
    cartan = Subspace.from_vectors(f, 3, 3, [g.basis_vector(0)])
    n_plus = Subspace.from_vectors(f, 3, 3, [g.basis_vector(1)])
    n_minus = Subspace.from_vectors(f, 3, 3, [g.basis_vector(2)])
    roots = [Root(1, g.bracket(g.basis_vector(1), g.basis_vector(2)), 0)]
    return CatalogEntry(g, TriangularData(cartan, n_plus, n_minus, roots), "sl(2)")


def _pair_table(field, names, parities, pairs):
    n = len(names)
    c = np.zeros((n, n, n), dtype=np.int64)
    f = field
    for (i, j, vec) in pairs:
        vec = np.asarray(vec, dtype=np.int64) % f.p
        c[i, j] = vec
        if i != j:
            c[j, i] = f.neg_arr(vec) if _super_sign(parities[i], parities[j]) == 1 else vec
    return c


def _make_solvable2(field: Field) -> CatalogEntry:
    c = _pair_table(field, ["h", "x"], [0, 0], [(0, 1, [0, 1])])
    pmap = np.array([[1, 0], [0, 0]], dtype=np.int64)
    g = LieSuperAlgebra(field, ["h", "x"], [0, 0], c, pmap)
    if g.validate():
        raise CatalogError("solvable-2 failed validation")
    return CatalogEntry(g, None, "2dim-solvable")


def _make_odd_heisenberg(field: Field) -> CatalogEntry:
    c = _pair_table(field, ["z", "y"], [0, 1], [(1, 1, [1, 0])])
    pmap = np.zeros((1, 2), dtype=np.int64)
    g = LieSuperAlgebra(field, ["z", "y"], [0, 1], c, pmap)
    if g.validate():
        raise CatalogError("odd Heisenberg failed validation")
    return CatalogEntry(g, None, "odd-heisenberg")


def _make_heisenberg(field: Field) -> CatalogEntry:
    c = _pair_table(field, ["z", "x", "y"], [0, 0, 0], [(1, 2, [1, 0, 0])])
    pmap = np.zeros((3, 3), dtype=np.int64)
    g = LieSuperAlgebra(field, ["z", "x", "y"], [0, 0, 0], c, pmap)
    if g.validate():
        raise CatalogError("Heisenberg failed validation")
    return CatalogEntry(g, None, "heisenberg")


_GL_RE = re.compile(r"^(gl|sl)\((\d+)\|(\d+)\)$")


def catalog(name: str, p: int, k: int = 1) -> CatalogEntry:
    """Validated catalog algebra with its triangular decomposition (where one
    exists)."""
    field = Field(p, k)
    name = name.strip()
    m = _GL_RE.match(name)
    if m:
        kind, a, b = m.group(1), int(m.group(2)), int(m.group(3))
        if kind == "gl":
            return _make_gl(field, a, b)
        return _make_sl(field, a, b)
    if name == "osp(1|2)":
        return _make_osp12(field)
    if name == "sl(2)":
        return _make_sl2(field)
    if name in ("2dim-solvable", "solvable2"):
        return _make_solvable2(field)
    if name in ("odd-heisenberg", "oddheis"):
        return _make_odd_heisenberg(field)
    if name in ("heisenberg", "heis"):
        return _make_heisenberg(field)
    raise CatalogError(f"unknown catalog name {name!r}")


# ---------------------------------------------------------------------------
# weights and baby Verma modules


@dataclass
class LambdaSetReport:
    weights: List[np.ndarray]     # values on the Cartan rows
    expected: int                 # p^dim(h)
    complete: bool
    completion_degree: Optional[int]   # minimal extension degree filling the set


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
    degree = None
    if not complete:
        for d, gx, table in scalar_extensions(g, ext_cap):
            if d == 1:
                continue
            trix = _extend_triangular(tri, gx.field, table, gx)
            subx = _cartan_sub(gx, trix)
            solx = solve_weight_equations(subx.alg, restrict_chi(table[chi], subx))
            if len(solx) == expected:
                degree = d
                break
    return LambdaSetReport(sols, expected, complete, degree)


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
    sub = _cartan_sub(g, tri)
    chi_h = restrict_chi(chi, sub)
    f = g.field
    for a in range(sub.alg.s_even):
        lhs = f.sub(
            f.pow(int(lam[a]), f.p),
            _dot(f, sub.alg.pmap[a][: sub.alg.s_even], lam),
        )
        if lhs != f.pow(int(chi_h[a]), f.p):
            return False
    return True


def _dot(f: Field, coeffs, vals) -> int:
    acc = 0
    for c, v in zip(coeffs, vals):
        c = int(c)
        if c:
            acc = f.add(acc, f.mul(c, int(v)))
    return acc


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
    for row in tri.n_plus.even_rows():
        if _dot(f, row[: g.s_even], chi) != 0:
            raise LsaError("character must vanish on the even positive part")
    if not is_weight_admissible(g, tri, chi, lam):
        raise LsaError("weight does not satisfy the compatibility equations")
    borel = tri.borel()
    sub = as_subalgebra(g, borel)
    if not sub.alg.restricted:
        raise LsaError("Borel subalgebra is not p-closed")
    # value of the weight on each even row: the Cartan component decides
    mats = np.vstack([tri.cartan.basis, tri.n_plus.basis])
    lam_b = np.zeros(sub.alg.s_even, dtype=np.int64)
    for a in range(sub.alg.s_even):
        row = sub.rows[a]
        coords = lin_solve(f, mats.T, row)
        if coords is None:
            raise LsaError("Borel row is outside Cartan + positive part")
        lam_b[a] = _dot(f, coords[: tri.cartan.dim], lam)
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
    f = g.field
    chi = check_chi(g, chi)
    for side in (tri.n_plus, tri.n_minus):
        for row in side.even_rows():
            if _dot(f, row[: g.s_even], chi) != 0:
                raise LsaError("character must vanish on the nilpotent parts")
    return all(_dot(f, r.coroot[: g.s_even], chi) != 0 for r in tri.roots)


@dataclass
class ZhaoCheckReport:
    verma_dims: List[int]
    all_verma_irreducible: bool
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
    with_oracle: bool = True,
) -> ZhaoCheckReport:
    """Desk check: at a regular semisimple character every baby Verma module
    is graded-irreducible, and no irreducible module exceeds its dimension."""
    chi = check_chi(g, chi)
    if not is_regular_semisimple(g, tri, chi):
        raise LsaError("the check applies to regular semisimple characters")
    lrep = lambda_set(g, tri, chi, ext_cap=ext_cap)
    degree = 1
    gx, trix, chix = g, tri, chi
    if not lrep.complete and lrep.completion_degree is not None:
        degree = lrep.completion_degree
        big = Field(g.field.p, g.field.k * degree)
        gx, table = extend_scalars(g, big)
        trix = _extend_triangular(tri, big, table, gx)
        chix = table[chi]
        lrep = lambda_set(gx, trix, chix, ext_cap=ext_cap)
    dims = []
    all_irr = True
    for lam in lrep.weights:
        ind = baby_verma(gx, trix, chix, lam, budget=budget)
        dims.append(ind.module.dim)
        if not is_graded_irreducible(ind.module, seed):
            all_irr = False
    max_factor = None
    lemma_ok = None
    if with_oracle and dims:
        rep = composition_factors(
            regular_module(ReducedAlgebra(gx, chix), budget=budget).module, seed
        )
        max_factor = max(rep.geometric_dims)
        lemma_ok = max_factor <= max(dims)
    return ZhaoCheckReport(
        verma_dims=dims,
        all_verma_irreducible=all_irr,
        weights_found=len(lrep.weights),
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
