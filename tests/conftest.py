import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from superkw.chargeom import DEFAULT_BUDGET, check_chi, chi_value, polarization, restrict_chi
from superkw.classical import Root, TriangularData, baby_verma, catalog
from superkw.env import _strides
from superkw.gflin import Echelon, nullspace, solve
from superkw.lsa import (
    LieSuperAlgebra,
    LsaError,
    Subspace,
    _normalized_functionals,
    as_subalgebra,
    is_completely_solvable,
    scalar_extensions,
)
from superkw.modules import SuperModule, composition_series, is_graded_irreducible
from superkw.report import chi_verdict, oracle_composition, oracle_factors
from superkw.solvable import _polarization_module, _weight_solutions


def reference_find_embedding(small, big):
    """Code-translation table GF(p^k) -> GF(p^K) by scalar loops: the image
    of the generator is the smallest code that is a root of the small
    modulus.  A reference for `gflin.find_embedding`."""
    if small.k == 1:
        table = np.zeros(small.q, dtype=np.int64)
        for a in range(small.p):
            acc = 0
            for _ in range(a):
                acc = big.add(acc, 1)
            table[a] = acc
        return table
    root = None
    for cand in range(big.q):
        acc = 0
        for c in reversed(small.modulus):
            acc = big.add(big.mul(acc, cand), c % big.p)
        if acc == 0:
            root = cand
            break
    powers = [1]
    for _ in range(1, small.k):
        powers.append(big.mul(powers[-1], root))
    table = np.zeros(small.q, dtype=np.int64)
    for a in range(small.q):
        acc = 0
        for i, c in enumerate(small.digits(a).tolist()):
            acc = big.add(acc, big.mul(int(c), powers[i]))
        table[a] = acc
    return table


def reference_rref(f, m):
    """Reduced row echelon form, one full-width pivot step at a time: each
    pivot row is scaled whole and subtracted from every other row with a
    nonzero entry in its column.  A reference for `gflin.rref`."""
    m = np.array(m, dtype=np.int64)
    rows, cols = m.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            ahead = np.nonzero(np.any(m[r:, c + 1 :], axis=0))[0]
            if ahead.size == 0:
                break
            c += 1 + int(ahead[0])
            nz = np.nonzero(m[r:, c])[0]
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = f.mul_arr(m[r], f.inv(int(m[r, c])))
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            factors = m[other, c]
            m[other] = f.sub_arr(m[other], f.mul_arr(factors[:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
        c += 1
    return m, pivots


def reference_reduction_rows(p, modulus):
    """Row i: x^(k+i) mod the modulus as a k-vector, by the shift-and-subtract
    recurrence.  A reference for `Field._red`."""
    k = len(modulus) - 1
    red = np.zeros((k - 1, k), dtype=np.int64)
    cur = [(-c) % p for c in modulus[:k]]
    red[0] = cur
    for i in range(1, k - 1):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            for j in range(k):
                nxt[j] = (nxt[j] + top * red[0][j]) % p
        red[i] = nxt
        cur = nxt
    return red


def reference_weight_system(alg, chi_h, pins):
    """The GF(p) system (M, b) of `solvable._weight_solutions`, one unit
    functional and one scalar field operation at a time: a reference for
    its array form."""
    f = alg.field
    p, k, s = f.p, f.k, alg.s_even

    def eval_map(lam):
        out = []
        for a in range(s):
            t2 = 0
            for j in range(s):
                t2 = f.add(t2, f.mul(int(alg.pmap[a][j]), int(lam[j])))
            out.append(f.sub(f.pow(int(lam[a]), p), t2))
        for v, _ in pins:
            acc = 0
            for j in range(s):
                acc = f.add(acc, f.mul(int(v[j]), int(lam[j])))
            out.append(acc)
        return out

    M = np.zeros(((s + len(pins)) * k, s * k), dtype=np.int64)
    for col in range(s * k):
        a, j = divmod(col, k)
        lam = np.zeros(s, dtype=np.int64)
        lam[s - 1 - a] = f.undigits([1 if t == j else 0 for t in range(k)])
        M[:, col] = [d for v in eval_map(lam) for d in f.digits(v).tolist()]
    rhs = [f.pow(int(c), p) for c in chi_h] + [val for _, val in pins]
    b = np.array([d for v in rhs for d in f.digits(v).tolist()], dtype=np.int64)
    return M, b


def graded_span(f, s_even, n, vecs) -> Subspace:
    """The graded subspace that vectors of mixed parity span: the span of
    the even and the odd part of each.  The random streams draw such
    vectors; `Subspace` itself takes only rows whose span is graded."""
    rows = np.asarray(vecs, dtype=np.int64).reshape(-1, n)
    odd = np.arange(n) >= s_even
    return Subspace(f, s_even, n, np.vstack([rows * ~odd, rows * odd]))


def reference_graded_hyperplanes(g, W):
    """`lsa.graded_hyperplanes_containing` as it was written first: W's
    basis, then for a functional phi with leading 1 at column t of one
    side, e_u - phi[u] e_t for the side's other complement columns u, and
    every complement column of the other side."""
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


def pair_algebra(field, names, parities, pairs, pmap_rows=None):
    """Small test-algebra builder: pairs are (i, j, coefficient-vector) for
    i <= j; the other triangle is filled by the sign rule."""
    n = len(names)
    p = field.p
    c = np.zeros((n, n, n), dtype=np.int64)
    for (i, j, vec) in pairs:
        vec = np.asarray(vec, dtype=np.int64) % p
        c[i, j] = vec
        if i != j:
            sign = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            c[j, i] = (sign * vec) % p
    pmap = None
    if pmap_rows is not None:
        pmap = np.asarray(pmap_rows, dtype=np.int64) % p
    return LieSuperAlgebra(field, names, parities, c, pmap)


def clifford_text(k: int) -> str:
    """The .lsa text of z even and y1, y2 odd over GF(3^k), with
    [y1, y1] = [y2, y2] = z and z^[p] = 0.  At chi(z) = 1, z acts by 1 on a
    simple module, y1 and y2 square to 1/2 = -1 and anticommute, so y1 y2
    squares to -1 on the even side.  Over GF(3), which has no square root of
    -1, the simple modules are (2|2) with End_even = GF(9), and no even
    element has a proper kernel on them; over GF(9) they are (1|1)."""
    one = ",".join(["1"] + ["0"] * (k - 1))
    return (f"superkw-lsa v1\nfield p=3 k={k}\nbasis z even\nbasis y1 odd\nbasis y2 odd\n"
            f"bracket y1 y1 z:{one}\nbracket y2 y2 z:{one}\npmap z\n")


def kronecker_hom_dims(S, T):
    """Dimensions of the even and odd module maps S -> T, by the Kronecker
    solve of A_T X = X A_S on row-major vec(X), one generator at a time on
    the solutions so far: dim S * dim T unknowns, a reference for small
    modules."""
    f = S.alg.field
    eye_s = np.eye(S.dim, dtype=np.int64)
    eye_t = np.eye(T.dim, dtype=np.int64)
    sol = f.eye(S.dim * T.dim)
    for A_s, A_t in zip(S.action, T.action):
        block = f.sub_arr(np.kron(A_t, eye_s), np.kron(eye_t, A_s.T))
        sol = f.matmul(nullspace(f, f.matmul(block, sol.T)), sol)
    # the parity-homogeneous components of a solution are again solutions
    same = (T.parities[:, None] == S.parities[None, :]).ravel()
    even, odd = sol.copy(), sol.copy()
    even[:, ~same] = 0
    odd[:, same] = 0
    return (Echelon(f, S.dim * T.dim, even).dim, Echelon(f, S.dim * T.dim, odd).dim)


def hom_dims(K, M):
    """Dimensions of the even and the odd module maps S -> M from a class's
    module S, by the solve from its certificate (`FactorClass._maps`).
    Only when M has S's dimension does a nullity of f(theta) on M other
    than on S mean there is none (`FactorClass._hom_system`)."""
    system = K._hom_system(M)
    if system is None:
        return 0, 0
    return tuple(K._maps(M, V).shape[2] for V in system)


def kronecker_endomorphism_dims(M):
    """Dimensions of the even and odd commutants of M, by the Kronecker
    solve."""
    return kronecker_hom_dims(M, M)


def center(g):
    """The center of g: the null space of the structure constants."""
    m = g.structure.transpose(1, 2, 0).reshape(g.n * g.n, g.n)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, m))


def reference_s_corrections(g, x, y):
    """The correction terms of (x + y)^[p] for one pair of vectors, one
    small product per step: a reference for `LieSuperAlgebra.s_corrections`."""
    f, p = g.field, g.field.p
    adx = reference_ad(g, x)
    ady = reference_ad(g, y)
    w = np.zeros((g.n, p), dtype=np.int64)
    w[:, 0] = x
    for _ in range(p - 1):
        shifted = np.zeros_like(w)
        shifted[:, 1:] = f.matmul(adx, w)[:, :-1]
        w = f.add_arr(shifted, f.matmul(ady, w))
    total = np.zeros(g.n, dtype=np.int64)
    for i in range(1, p):
        total = f.add_arr(total, f.mul_arr(f.inv(i % p), w[:, i - 1]))
    return total


def reference_ad(g, x):
    t = g.field.matmul(np.asarray(x, dtype=np.int64)[None, :],
                       g.structure.reshape(g.n, -1)).reshape(g.n, g.n)
    return t.T


def reference_bracket(g, x, y):
    t = g.field.matmul(x[None, :], g.structure.reshape(g.n, -1)).reshape(g.n, g.n)
    return g.field.matmul(y[None, :], t).ravel()


def reference_bracket_span(g, a, b):
    """The span of the [u, v], u in a and v in b, one bracket per pair: a
    reference for `lsa.bracket_span`."""
    rows = [reference_bracket(g, u, v) for u in a.basis for v in b.basis]
    rows = [w for w in rows if np.any(w)]
    if not rows:
        return g.zero_space()
    return Subspace(g.field, g.s_even, g.n, np.array(rows))


def reference_is_subalgebra(g, S):
    return all(S.contains(reference_bracket(g, u, v)) for u in S.basis for v in S.basis)


def reference_is_ideal(g, S):
    return all(
        S.contains(reference_bracket(g, g.basis_vector(j), v))
        for j in range(g.n)
        for v in S.basis
    )


def reference_subalgebra_structure(g, S):
    """Structure constants of S in its rref basis from the half table
    a <= b and the sign rule, or None when S is not bracket-closed: a
    reference for the table of `lsa.as_subalgebra`."""
    m = S.dim
    structure = np.zeros((m, m, m), dtype=np.int64)
    for a in range(m):
        for b in range(a, m):
            c = S.coords(reference_bracket(g, S.basis[a], S.basis[b]))
            if c is None:
                return None
            structure[a, b] = c
            if a != b:
                odd_pair = (S.row_parity(a) * S.row_parity(b)) % 2 == 1
                structure[b, a] = c if odd_pair else g.field.neg_arr(c)
    return structure


def reference_centralizer(g, S):
    """All X with [X, S] = 0, one bracket per (generator, basis row): a
    reference for `lsa.centralizer_of`."""
    if S.dim == 0:
        return g.full_space()
    conditions = []
    for d in S.basis:
        images = np.array([reference_bracket(g, g.basis_vector(i), d) for i in range(g.n)])
        conditions.extend(images.T)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, np.array(conditions)))


def reference_i_chi(g, I, chi):
    """{X : chi([X, I]) = 0} for an ideal I, one bracket and one value per
    (row of I, generator): a reference for `solvable._mu_stabilizer` at
    chi's values on the rows of I."""
    if I.dim == 0:
        return g.full_space()
    K = np.array([
        [chi_value(g, chi, reference_bracket(g, g.basis_vector(i), b)) for i in range(g.n)]
        for b in I.basis
    ], dtype=np.int64)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, K))


def reference_mu_stabilizer(g, I, mu_vals):
    """{X : mu([X, I]) = 0} for a functional given on the rows of I, with
    per-pair coordinates and scalar sums: a reference for
    `solvable._mu_stabilizer`."""
    f = g.field
    K = np.zeros((I.dim, g.n), dtype=np.int64)
    for j in range(g.n):
        for r, row in enumerate(I.basis):
            c = I.coords(reference_bracket(g, g.basis_vector(j), row))
            if c is None:
                raise LsaError("ideal is not ad-invariant")
            acc = 0
            for t in range(I.dim):
                acc = f.add(acc, f.mul(int(c[t]), int(mu_vals[t])))
            K[r, j] = acc
    if K.size == 0:
        return g.full_space()
    return Subspace(f, g.s_even, g.n, nullspace(f, K))


def reference_p_power(g, x):
    """x^[p] for one even vector, term by term over its support: a
    reference for `LieSuperAlgebra.p_power`."""
    f, p = g.field, g.field.p
    x = np.asarray(x, dtype=np.int64)
    acc = acc_pow = None
    for i in [i for i in range(g.s_even) if x[i]]:
        term = np.zeros(g.n, dtype=np.int64)
        term[i] = x[i]
        term_pow = f.mul_arr(f.pow(int(x[i]), p), g.pmap[i])
        if acc is None:
            acc, acc_pow = term, term_pow
        else:
            corr = reference_s_corrections(g, acc, term)
            acc_pow = f.add_arr(f.add_arr(acc_pow, term_pow), corr)
            acc = f.add_arr(acc, term)
    return np.zeros(g.n, dtype=np.int64) if acc is None else acc_pow


def reference_check(g, phi):
    """The exact restricted-automorphism check pair by pair: parity, the
    bracket on every basis pair and the p-map on every even basis vector."""
    s = g.s_even
    if np.any(phi[s:, :s]) or np.any(phi[:s, s:]):
        return False
    return brackets_preserved(g, phi) and pmap_preserved(g, phi)


def brackets_preserved(g, phi):
    f = g.field
    return all(
        np.array_equal(
            f.matmul(phi, g.structure[i, j]),
            reference_bracket(g, phi[:, i], phi[:, j]))
        for i in range(g.n) for j in range(g.n))


def pmap_preserved(g, phi):
    f = g.field
    return all(
        np.array_equal(f.matmul(phi, g.pmap[i]), reference_p_power(g, phi[:, i]))
        for i in range(g.s_even))


def reference_diagonal_automorphisms(g):
    """Every diagonal map e_i -> c_i e_i, c in (GF(q)*)^n, that passes
    `reference_check`, as the set of its diagonals: a reference for the
    torus generators of `lsa.restricted_automorphisms`, by enumeration."""
    return {c for c in itertools.product(range(1, g.field.q), repeat=g.n)
            if reference_check(g, np.diag(c))}


def reference_validate(g):
    """`LieSuperAlgebra.validate` in loop form: one bracket per basis
    triple and one power of ad per even basis vector.  A reference for the
    batched checks; returns (axiom, witness, message) triples."""
    from superkw.lsa import Violation

    f = g.field
    n, s = g.n, g.s_even
    out = []
    par = g.parities
    e = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            target = (par[i] + par[j]) % 2
            for l in range(n):
                if g.structure[i, j, l] and par[l] != target:
                    out.append(Violation(
                        "grading", (i, j, l),
                        f"[{g.names[i]},{g.names[j]}] has a "
                        f"component of wrong parity on {g.names[l]}"))
    for i in range(n):
        for j in range(i, n):
            if (par[i] * par[j]) % 2 == 0:
                expect = f.neg_arr(g.structure[i, j])
            else:
                expect = g.structure[i, j]
            if not np.array_equal(g.structure[j, i], expect):
                out.append(Violation(
                    "super-skew", (i, j),
                    f"[{g.names[j]},{g.names[i]}] disagrees with the "
                    f"sign rule applied to [{g.names[i]},{g.names[j]}]"))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                lhs = reference_bracket(g, e[i], g.structure[j, l])
                t1 = reference_bracket(g, g.structure[i, j], e[l])
                t2 = reference_bracket(g, e[j], g.structure[i, l])
                if (par[i] * par[j]) % 2 == 1:
                    t2 = f.neg_arr(t2)
                if not np.array_equal(lhs, f.add_arr(t1, t2)):
                    out.append(Violation(
                        "super-jacobi", (i, j, l),
                        "Jacobi identity fails on basis triple "
                        f"({g.names[i]},{g.names[j]},{g.names[l]})"))
    if g.pmap is not None:
        for i in range(s):
            if np.any(g.pmap[i, s:]):
                out.append(Violation("pmap-parity", (i,),
                                     f"{g.names[i]}^[p] has odd components"))
        for i in range(s):
            adp = f.eye(n)
            for _ in range(f.p):
                adp = f.matmul(adp, reference_ad(g, e[i]))
            if not np.array_equal(adp, reference_ad(g, g.pmap[i])):
                out.append(Violation(
                    "p-map-ad", (i,),
                    f"ad({g.names[i]}^[p]) differs from ad({g.names[i]})^p"))
    return [(v.axiom, v.witness, v.message) for v in out]


def parity_shift(M):
    """The parity shift of a module: the same action, the other grading."""
    return SuperModule(alg=M.alg, chi=M.chi, parities=1 - M.parities, action=M.action)


def side_module(K, side):
    """The module a composition factor (K, side) names: K's module, or on
    side 1 its parity shift."""
    return parity_shift(K.module) if side else K.module


def composition_factor_modules(M, seed=0):
    """The graded composition factors as modules (`side_module`), in the
    order `composition_series` finds them."""
    return [side_module(K, side) for K, side in composition_series(M, seed)]


def meataxe_inputs(M, seed):
    """The modules the Meataxe is given while M is decomposed by a
    composition loop that peels nothing off (the reducible pieces and the
    first member of each class), and the composition factors.  A piece is
    recognised as a known class only when it is isomorphic to it; every
    other piece is split by the Meataxe, so that the pieces are those of a
    plain Meataxe recursion, not only the few that `composition_series`
    leaves to the Meataxe once it peels known classes off."""
    from superkw import modules

    seen, factors, classes = [], [], []
    stack = [M]
    index = 0
    while stack:
        cur = stack.pop()
        index += 1
        if cur.dim == 0:
            continue
        if any(cur.dim == K.module.dim and any(hom_dims(K, cur)) for K in classes):
            factors.append(cur)
            continue
        seen.append(cur)
        out = modules._find_proper_submodule(cur, modules.derived_seed(seed, index))
        if isinstance(out, Echelon):
            stack.append(modules.submodule_module(cur, out))
            stack.append(modules.quotient_module(cur, out))
            continue
        classes.append(out)
        factors.append(cur)
    return seen, factors


@pytest.fixture(scope="session")
def gl11():
    return catalog("gl(1|1)", 3)


@pytest.fixture(scope="session")
def osp12():
    return catalog("osp(1|2)", 3)


@pytest.fixture(scope="session")
def sl2_p5():
    return catalog("sl(2)", 5)


@pytest.fixture(scope="session")
def solv2_p5():
    return catalog("2dim-solvable", 5)


@pytest.fixture(scope="session")
def oddheis_p3():
    return catalog("odd-heisenberg", 3)


@pytest.fixture(scope="session")
def heis_p3():
    return catalog("heisenberg", 3)


@pytest.fixture(scope="session")
def borel_gl21():
    """The (4|2) upper-triangular subalgebra of gl(2|1) over GF(3):
    completely solvable, restricted."""
    ent = catalog("gl(2|1)", 3)
    g = ent.algebra
    idx = {nm: i for i, nm in enumerate(g.names)}
    rows = [g.basis_vector(idx[nm]) for nm in ("E11", "E22", "E33", "E12", "E13", "E23")]
    S = Subspace(g.field, g.s_even, g.n, rows)
    return as_subalgebra(g, S).alg


@pytest.fixture(scope="session")
def random_solvable_stream(borel_gl21):
    """Generator of seeded random descent instances (h, chi, I, induced):
    h a p-closed completely solvable subalgebra of the (4|2) Borel, chi a
    character, I an abelian ideal with nonzero pairing against h, and the
    module induced from a pinned one-dimensional character of the
    stabilizer.

    The instances are drawn once per session from one rng stream and
    replayed to every caller; the abelian-ideal candidates of each drawn
    algebra are computed once, keyed by its structure, p-map and parities
    (the stream draws many algebras more than once)."""
    from superkw.env import character_module, induce
    from superkw.lsa import restricted_closure
    from superkw.modules import validate_module
    from superkw.solvable import (
        _abelian_ideal_candidates,
        _mu_stabilizer,
        one_dim_weights,
    )

    b = borel_gl21
    f = b.field
    rng = np.random.default_rng(2024)
    drawn = []
    candidates = {}
    attempts = 0

    def draw():
        nonlocal attempts
        while True:
            attempts += 1
            if attempts > 4000:
                raise RuntimeError("instance stream exhausted")
            n_gens = int(rng.integers(1, 4))
            vecs = []
            for _ in range(n_gens):
                v = f.rand(rng, b.n)
                if rng.random() < 0.5:
                    v[b.s_even:] = 0
                vecs.append(v)
            S = restricted_closure(b, graded_span(f, b.s_even, b.n, vecs))
            if S.dim < 2 or S.dim > 6:
                continue
            sub_h = as_subalgebra(b, S)
            h = sub_h.alg
            if not h.restricted or not is_completely_solvable(h):
                continue
            chi = f.rand(rng, h.s_even)
            key = (h.structure.tobytes(), h.pmap.tobytes(), h.parities.tobytes())
            if key not in candidates:
                candidates[key] = _abelian_ideal_candidates(h)
            for I in candidates[key]:
                pairing = any(
                    int(
                        f.matmul(
                            h.bracket(h.basis_vector(j), row)[None, : h.s_even],
                            chi.reshape(-1, 1),
                        ).ravel()[0]
                    )
                    for j in range(h.n)
                    for row in I.basis
                )
                if not pairing:
                    continue
                stab = _mu_stabilizer(h, I, chi_value(h, chi, I.basis))
                if stab.dim == h.n:
                    continue
                sub = as_subalgebra(h, stab)
                if not sub.alg.restricted:
                    continue
                pins = []
                ok = True
                for row in I.basis:
                    c = stab.coords(row)
                    if c is None:
                        ok = False
                        break
                    if np.any(c[sub.alg.s_even :]):
                        continue
                    val = int(
                        f.matmul(row[None, : h.s_even], chi.reshape(-1, 1)).ravel()[0]
                    )
                    pins.append((c[: sub.alg.s_even], val))
                if not ok:
                    continue
                chi_sub = restrict_chi(chi, sub)
                lam = one_dim_weights(sub.alg, chi_sub, pins=tuple(pins))
                if lam is None:
                    continue
                Sm = character_module(sub.alg, chi_sub, lam)
                if validate_module(Sm):
                    continue
                ind = induce(h, chi, sub, Sm, budget=4000)
                return (h, chi, I, ind)

    def stream(want: int):
        while len(drawn) < want:
            drawn.append(draw())
        yield from drawn[:want]

    return stream


class WordStraightener:
    """U_chi(g) by rewriting words, with a fixed generator order: the
    reference for the PBW basis that `env.induce` builds by columns.

    Words are straightened rightmost disorder first with the
    super-commutation swap, the odd-square rule y*y = (1/2)[y,y] and the
    even p-th power rule x^p = x^[p] + chi(x)^p.  Termination follows from
    the (degree, inversion-count) measure: swaps lower inversions,
    everything else lowers degree.  Normal forms are memoised per word, so
    a word that many rewrites reach is rewritten once.  `order_key`
    permutes straightening priorities (for instance to push a subalgebra's
    generators to the right); the default is the basis order itself.
    """

    def __init__(self, g, chi, order_key=None):
        self.g = g
        self.field = f = g.field
        self.chi = check_chi(g, chi)
        self.order_key = list(order_key) if order_key is not None else list(range(g.n))
        assert sorted(self.order_key) == list(range(g.n))
        self.chi_p = np.array([f.pow(int(c), f.p) for c in self.chi], dtype=np.int64)
        self.half = f.inv(2 % f.p)
        # sparse bracket table
        self.pair = {}
        for i in range(g.n):
            for j in range(g.n):
                nz = np.nonzero(g.structure[i, j])[0]
                if nz.size:
                    self.pair[(i, j)] = [(int(l), int(g.structure[i, j, l])) for l in nz]
        # word -> normal form, filled by straighten
        self._memo = {}

    def straighten(self, words):
        """Rewrite a scalar combination of words into sorted reduced words."""
        out = {}
        for w, c in words.items():
            if c:
                self._add_scaled(out, c, self._normal_terms(w))
        return out

    def _add_scaled(self, acc, c, form):
        """acc += c * form, dropping coefficients that cancel."""
        f = self.field
        for w, d in form.items():
            v = f.add(acc.get(w, 0), f.mul(c, d))
            if v:
                acc[w] = v
            else:
                acc.pop(w, None)

    def _normal_terms(self, word):
        """Normal form of one word, from the memo or by a post-order walk
        over its rewrite children.  PBW normal forms are unique, so a word's
        form is the sum of its children's forms, whichever path reached it;
        every word is rewritten once per instance.  The memoised dicts are
        shared: callers must not change them."""
        memo = self._memo
        if word in memo:
            return memo[word]
        children = {}
        stack = [word]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            kids = children.get(w)
            if kids is None:
                kids = self._rewrite_step(w)
                if kids is None:
                    memo[w] = {w: 1}
                    stack.pop()
                    continue
                children[w] = kids
                pending = [v for v, _ in kids if v not in memo]
                if pending:
                    stack.extend(pending)
                    continue
            # every child is memoised: it was pushed above w and popped
            # only once its own form was stored
            stack.pop()
            del children[w]
            acc = {}
            for v, c in kids:
                self._add_scaled(acc, c, memo[v])
            memo[w] = acc
        return memo[word]

    def _rewrite_step(self, w):
        """One relation applied at the rightmost disorder (or, in an ordered
        word, the rightmost run of p equal generators), as (word, coefficient)
        children; None when w is already a sorted reduced word."""
        f = self.field
        m = self._rightmost_violation(w)
        if m is None:
            run = self._even_p_run(w)
            if run is None:
                return None
            start, gen = run
            rest = w[:start] + w[start + f.p :]
            kids = [(rest[:start] + (l,) + rest[start:], cl) for l, cl in self._pmap_terms(gen)]
            cp = int(self.chi_p[gen])
            if cp:
                kids.append((rest, cp))
            return kids
        a, b = w[m], w[m + 1]
        if a == b:
            # adjacent equal odd generators: the square rule
            return [(w[:m] + (l,) + w[m + 2 :], f.mul(self.half, cl))
                    for l, cl in self.pair.get((a, a), [])]
        par = self.g.parities
        sign = f.neg(1) if (par[a] * par[b]) % 2 == 1 else 1
        return [(w[:m] + (b, a) + w[m + 2 :], sign)] + [
            (w[:m] + (l,) + w[m + 2 :], cl) for l, cl in self.pair.get((a, b), [])]

    def _rightmost_violation(self, w):
        par = self.g.parities
        key = self.order_key
        for m in range(len(w) - 2, -1, -1):
            a, b = w[m], w[m + 1]
            if key[a] > key[b]:
                return m
            if a == b and par[a] == 1:
                return m
        return None

    def _even_p_run(self, w):
        p = self.field.p
        count = 1
        for m in range(len(w) - 1, 0, -1):
            if w[m - 1] == w[m]:
                count += 1
                if count == p:
                    return m - 1, w[m]
            else:
                count = 1
        return None

    def _pmap_terms(self, gen):
        row = self.g.pmap[gen]
        nz = np.nonzero(row)[0]
        return [(int(l), int(row[l])) for l in nz]


def layout_strides(ind):
    """The basis-index step of each even exponent, then of each odd bit, of
    an induced module (`env._strides`)."""
    return _strides(ind.h.parent.field.p, ind.c0, ind.c1, ind.base.dim)


def layout_index(ind, alpha, gamma, b):
    """The basis index of e^alpha f^gamma (x) v_b in an induced module."""
    return b + sum(st * e for st, e in zip(layout_strides(ind), (*alpha, *gamma)))


def reference_induce(g, chi, h, S):
    """The induction by word straightening: every word u * e^alpha f^gamma
    is straightened with the cobasis generators ordered first, each normal
    word e^alpha' f^gamma' * (h-word) is placed by its cobasis exponents and
    the h-word's matrix on S, and the action is assembled from (generator,
    row, column, value) triples.  A reference for `env.induce`; returns the
    module."""
    from itertools import product

    from superkw.env import InducedModule
    from superkw.gflin import inv_matrix
    from superkw.lsa import change_basis

    f = g.field
    s, n = g.s_even, g.n
    comp = h.space.complement_columns()
    ce = [c for c in comp if c < s]
    co = [c for c in comp if c >= s]
    c0, c1 = len(ce), len(co)
    dim = f.p**c0 * 2**c1 * S.dim
    unit = np.eye(n, dtype=np.int64)
    P = np.vstack([unit[ce], h.space.even_rows(), unit[co], h.space.odd_rows()]).reshape(n, n)
    g2 = change_basis(g, P)
    # straightening priority: even cobasis, odd cobasis, then h generators
    order = np.r_[0:c0, s : s + c1, c0:s, s + c1 : n]
    A = WordStraightener(g2, chi_value(g, chi, P[:s]), order_key=np.argsort(order).tolist())
    layout = InducedModule(module=None, h=h, base=S, even_cobasis=P[:c0], odd_cobasis=P[s : s + c1])

    def h_matrix(word):
        mat = f.eye(S.dim)
        for gi in word:
            # h generator index in g2 -> the base module's generator index
            k = gi - c0 if gi < s else (s - c0) + (gi - s - c1)
            mat = f.matmul(mat, S.action[k])
        return mat

    def place(w):
        cut = next((i for i, gi in enumerate(w) if not (gi < c0 or s <= gi < s + c1)), len(w))
        alpha, gamma = [0] * c0, [0] * c1
        for gi in w[:cut]:
            if gi < c0:
                alpha[gi] += 1
            else:
                gamma[gi - s] += 1
        return layout_index(layout, alpha, gamma, 0), h_matrix(w[cut:])

    triples = []
    for alpha in product(range(f.p), repeat=c0):
        for gamma in product(range(2), repeat=c1):
            tail = tuple(i for i, a in enumerate(alpha) for _ in range(a))
            tail += tuple(s + j for j, cb in enumerate(gamma) if cb)
            col0 = layout_index(layout, alpha, gamma, 0)
            for u in range(n):
                for w, c in A.straighten({(u,) + tail: 1}).items():
                    row0, mat = place(w)
                    for r, cc in zip(*np.nonzero(mat)):
                        triples.append((u, row0 + r, col0 + cc, f.mul(c, int(mat[r, cc]))))
    # back to the original generators: x_i = sum_a Pinv[i, a] x'_a
    Pinv = inv_matrix(f, P)
    action = np.zeros((n, dim, dim), dtype=np.int64)
    for u, r, c, v in triples:
        for i in range(n):
            if Pinv[i, u]:
                action[i, r, c] = f.add(int(action[i, r, c]), f.mul(int(Pinv[i, u]), v))
    _, gamma, b = layout.exponents()
    parities = (gamma.sum(axis=1) + S.parities[b]) % 2
    return SuperModule(alg=g, chi=np.asarray(chi, dtype=np.int64), parities=parities, action=action)


def reference_oracle_composition(g, chi, seed, budget):
    """The two-level oracle without Kac modules: each class S0 of the
    regular module of U_chi(g0) is induced from g0 itself, over all of the
    odd part, and the factors of Ind S0 count [Reg g0 : S0] times.  A
    reference for `report.oracle_composition` when g0 != g and g0 != 0."""
    from collections import Counter

    from superkw.env import ReducedAlgebra, induce, regular_module
    from superkw.modules import CompositionReport, composition_factors, derived_seed

    f, s = g.field, g.s_even
    h = as_subalgebra(g, Subspace(f, s, g.n, f.eye(g.n)[:s]))
    reg0 = regular_module(ReducedAlgebra(h.alg, restrict_chi(chi, h)), budget).module
    multiplicity = Counter(K for K, _ in composition_series(reg0, seed))
    known, records = [], []
    for index, (K, mult) in enumerate(multiplicity.items()):
        ind = induce(g, chi, h, K.module, budget).module
        records += composition_factors(ind, derived_seed(seed, index), known).factors * mult
    return CompositionReport(sorted(records))


def reference_chi_geometry(g, chi):
    """The geometry from the whole Gram matrix: one kernel of G^T for the
    centralizer and a rank per block.  A reference for
    `chargeom.chi_geometry`."""
    from superkw.chargeom import CharacterGeometry, SuperDim, gram_matrix
    from superkw.gflin import rank

    f = g.field
    chi = check_chi(g, chi)
    s, t, n = g.s_even, g.t_odd, g.n
    G = gram_matrix(g, chi)
    assert not np.any(G[:s, s:]) and not np.any(G[s:, :s])
    even_block, odd_block = G[:s, :s], G[s:, s:]
    zc = Subspace(f, s, n, nullspace(f, G.T))
    b0 = rank(f, even_block)
    b1 = rank(f, odd_block)
    assert b0 % 2 == 0 and zc.dim == n - b0 - b1
    z0, z1 = zc.superdim
    d = SuperDim((s + z0) // 2, (t + z1) // 2)
    i = SuperDim(b0 // 2, (b1 + 1) // 2)
    return CharacterGeometry(chi, even_block, odd_block, zc, b0, b1, d, i)


def reference_max_exponents(g, strategy="exhaustive", seed=0, samples=200):
    """The scan in two passes: the first finds the maximizing pairs, their
    witnesses and the largest block ranks, the second the first character
    attaining both largest ranks.  A reference for `chargeom.max_exponents`
    (no budget)."""
    from itertools import product

    from superkw.chargeom import MaxDimReport

    f, p, s = g.field, g.field.p, g.s_even

    def scan():
        if strategy == "exhaustive":
            for tup in product(range(f.q), repeat=s):
                yield np.array(tup, dtype=np.int64)
        else:
            rng = np.random.default_rng(seed)
            for _ in range(samples):
                yield f.rand(rng, s)

    best = -1
    pairs, witnesses = [], []
    b0_max = b1_max = 0
    scanned = 0
    for chi in scan():
        geo = reference_chi_geometry(g, chi)
        scanned += 1
        val = geo.value(p)
        if val > best:
            best = val
            pairs = [geo.exp_pair]
            witnesses = [chi.copy()]
        elif val == best and geo.exp_pair not in pairs:
            pairs.append(geo.exp_pair)
            witnesses.append(chi.copy())
        b0_max = max(b0_max, geo.even_rank)
        b1_max = max(b1_max, geo.odd_rank)
    simultaneous = None
    for chi in scan():
        geo = reference_chi_geometry(g, chi)
        if geo.even_rank == b0_max and geo.odd_rank == b1_max:
            simultaneous = chi.copy()
            break
    order = sorted(range(len(pairs)), key=lambda i: tuple(pairs[i]))
    pairs = [pairs[i] for i in order]
    witnesses = [witnesses[i] for i in order]
    return MaxDimReport(pairs, witnesses, pairs[0], strategy == "exhaustive", scanned,
                        b0_max, b1_max, simultaneous)


# ---------------------------------------------------------------------------
# the paper's checks that the pipeline does not run, kept as test references
# over the library's building blocks


def regular_verdict(g, chi, seed=0):
    """The per-character fields of a `conjecture` report at chi: the verdict
    on the oracle's factors of the regular module."""
    return chi_verdict(g, chi, oracle_factors(g, chi, seed, DEFAULT_BUDGET))


@dataclass
class Completion:
    """g, its triangular data and chi over the extension that completes the
    weight set, with the complete set there."""
    algebra: LieSuperAlgebra
    triangular: TriangularData
    chi: np.ndarray
    weights: list


@dataclass
class LambdaSetReport:
    weights: list                      # values on the Cartan rows
    expected: int                      # p^dim(h)
    complete: bool
    completion_degree: Optional[int]   # minimal extension degree filling the set
    completion: Optional[Completion] = None   # the data over that extension


def lambda_set(g, tri, chi, ext_cap=4) -> LambdaSetReport:
    """Solutions of the highest-weight compatibility equations on the Cartan.

    Over a closed field there are exactly p^dim(h); over GF(p^k) the realized
    subset can be smaller, and the report names the minimal extension degree
    that completes it instead of silently extending."""
    chi = check_chi(g, chi)
    sub = as_subalgebra(g, tri.cartan)
    sols = list(_weight_solutions(sub.alg, restrict_chi(chi, sub))[1])
    expected = g.field.p ** tri.cartan.dim
    complete = len(sols) == expected
    if not complete:
        for d, gx, table in scalar_extensions(g, ext_cap):
            if d == 1:
                continue
            trix = extend_triangular(tri, gx.field, table)
            subx = as_subalgebra(gx, trix.cartan)
            solx = list(_weight_solutions(subx.alg, restrict_chi(table[chi], subx))[1])
            if len(solx) == expected:
                return LambdaSetReport(sols, expected, complete, d,
                                       Completion(gx, trix, table[chi], solx))
    return LambdaSetReport(sols, expected, complete, None)


def extend_triangular(tri, big, table) -> TriangularData:
    """Triangular data carried to the extension field `big` by the
    embedding table."""
    def ext_space(S):
        return Subspace(big, S.s_even, S.ambient, table[S.basis])

    return TriangularData(
        ext_space(tri.cartan),
        ext_space(tri.n_plus),
        ext_space(tri.n_minus),
        [Root(r.vector_index, table[r.coroot], r.parity) for r in tri.roots],
    )


def is_regular_semisimple(g, tri, chi) -> bool:
    """chi nonzero on every coroot (chi assumed zero on both nilpotent parts)."""
    chi = check_chi(g, chi)
    for side in (tri.n_plus, tri.n_minus):
        if np.any(chi_value(g, chi, side.even_rows())):
            raise LsaError("character must vanish on the nilpotent parts")
    coroots = np.array([r.coroot for r in tri.roots]).reshape(-1, g.n)
    return bool(np.all(chi_value(g, chi, coroots)))


@dataclass
class ZhaoCheckReport:
    verma_dims: list
    all_verma_irreducible: Optional[bool]  # None when no Verma was checked
    weights_found: int
    weights_expected: int
    extension_degree: int
    max_factor_dim: Optional[int]      # geometric, from the oracle
    lemma_bound_ok: Optional[bool]     # every factor dim <= the Verma dim


def zhao_check(g, tri, chi, seed=0, budget=DEFAULT_BUDGET, ext_cap=4) -> ZhaoCheckReport:
    """At a regular semisimple character every baby Verma module is
    graded-irreducible, and no irreducible module exceeds its dimension.
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
        max_factor = max(oracle_composition(gx, chix, seed, budget).geometric_dims)
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


def restrict_module(M, sub) -> SuperModule:
    """View a module over the ambient algebra as a module over a subalgebra
    presentation: one action matrix per subalgebra basis row."""
    return SuperModule(
        alg=sub.alg,
        chi=restrict_chi(M.chi, sub) if M.chi.size else np.zeros(sub.alg.s_even, dtype=np.int64),
        parities=M.parities.copy(),
        action=M.rho(sub.rows),
    )


def _shifted_action(M, x, scalars):
    """rho(x) - c.1 for a stack of algebra vectors x (m, n) and scalars c
    (m,): (m, d, d)."""
    ops = M.rho(x)
    diag = np.arange(M.dim)
    ops[:, diag, diag] = M.alg.field.sub_arr(ops[:, diag, diag], scalars[:, None])
    return ops


def v_i_chi(M, I, chi) -> Echelon:
    """Simultaneous chi-eigenspace {v : X v = chi(X) v for all X in I}."""
    f = M.alg.field
    chi = np.asarray(chi, dtype=np.int64)
    # chi of an odd row is 0: chi only reads even coordinates
    ops = _shifted_action(M, I.basis, chi_value(M.alg, chi, I.basis))
    # every row of ops is homogeneous, so the kernel rows are too
    return Echelon(f, M.dim, nullspace(f, ops.reshape(-1, M.dim)))


def degree_reduction_check(g, chi, induced, I):
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
    row = col - np.array(layout_strides(induced), dtype=np.int64)[k]
    ops[k, row, col] = f.sub_arr(ops[k, row, col], lead[k, col])
    # what is left must lie in degree <= l - 2, l the degree of the column
    above = degree[:, None] > degree[None, :] - 2
    ok = not np.any(ops[applies[:, None, :] & above])
    return ok, int(k.size)


class PolarizationCapReached(RuntimeError):
    pass


@dataclass
class PolarizationModuleReport:
    module: SuperModule
    irreducible: bool
    extension_degree: int
    polarization_superdim: tuple


def polarization_module(g, chi, seed=0, ext_cap=4, budget=DEFAULT_BUDGET) -> PolarizationModuleReport:
    """A one-dimensional character of a polarization, induced to g, over the
    first field extension where its weight exists (completely solvable g)."""
    chi = check_chi(g, chi)
    if not is_completely_solvable(g):
        raise LsaError("polarization modules need a completely solvable algebra")
    for degree, gx, table in scalar_extensions(g, ext_cap):
        chix = table[chi]
        M = _polarization_module(gx, chix, budget)
        if M is not None:
            return PolarizationModuleReport(
                M, is_graded_irreducible(M, seed), degree, polarization(gx, chix).superdim)
    raise PolarizationCapReached("field extension cap reached")
