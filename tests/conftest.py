import numpy as np
import pytest

from superkw.classical import catalog
from superkw.gflin import Echelon, nullspace
from superkw.lsa import LieSuperAlgebra


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
        for i, c in enumerate(small.coords(a)):
            acc = big.add(acc, big.mul(int(c), powers[i]))
        table[a] = acc
    return table


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
        lam[s - 1 - a] = f.from_coords(tuple(1 if t == j else 0 for t in range(k)))
        M[:, col] = [d for v in eval_map(lam) for d in f.coords(v)]
    rhs = [f.pow(int(c), p) for c in chi_h] + [val for _, val in pins]
    b = np.array([d for v in rhs for d in f.coords(v)], dtype=np.int64)
    return M, b


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


def kronecker_endomorphism_dims(M):
    """Dimensions of the even and odd commutants of M, by the Kronecker
    solve."""
    return kronecker_hom_dims(M, M)


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
    from superkw.lsa import Subspace

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
            c = S.coords_of(reference_bracket(g, S.basis[a], S.basis[b]))
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
    from superkw.lsa import Subspace

    if S.dim == 0:
        return g.full_space()
    conditions = []
    for d in S.basis:
        images = np.array([reference_bracket(g, g.basis_vector(i), d) for i in range(g.n)])
        conditions.extend(images.T)
    return Subspace(g.field, g.s_even, g.n, nullspace(g.field, np.array(conditions)))


def reference_i_chi(g, I, chi):
    """{X : chi([X, I]) = 0} for an ideal I, one bracket and one value per
    (row of I, generator): a reference for `solvable.i_chi`."""
    from superkw.chargeom import chi_value
    from superkw.lsa import Subspace

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
    from superkw.lsa import LsaError, Subspace

    f = g.field
    K = np.zeros((I.dim, g.n), dtype=np.int64)
    for j in range(g.n):
        for r, row in enumerate(I.basis):
            c = I.coords_of(reference_bracket(g, g.basis_vector(j), row))
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


def reference_validate(g, samples=200, seed=0, p_power=reference_p_power):
    """`LieSuperAlgebra.validate` in loop form: one bracket per basis
    triple, one vector per sample, stopping each sampled rule at its first
    failure.  A reference for the batched checks; returns (axiom, witness,
    message) triples."""
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
        rng = np.random.default_rng(seed)
        if not out and s > 0:
            for t in range(samples):
                x = np.zeros(n, dtype=np.int64)
                x[:s] = f.rand(rng, s)
                c = int(f.rand(rng))
                lhs = p_power(g, f.mul_arr(c, x))
                rhs = f.mul_arr(f.pow(c, f.p), p_power(g, x))
                if not np.array_equal(lhs, rhs):
                    out.append(Violation(
                        "p-map-scalar", (t,),
                        "scalar-multiple rule (kx)^[p] = k^p x^[p] fails "
                        f"for sampled k={c}"))
                    break
            for t in range(samples):
                x = np.zeros(n, dtype=np.int64)
                y = np.zeros(n, dtype=np.int64)
                x[:s] = f.rand(rng, s)
                y[:s] = f.rand(rng, s)
                lhs = p_power(g, f.add_arr(x, y))
                rhs = f.add_arr(f.add_arr(p_power(g, x), p_power(g, y)),
                                reference_s_corrections(g, x, y))
                if not np.array_equal(lhs, rhs):
                    out.append(Violation(
                        "p-map-sum", (t,),
                        "additive expansion of (x+y)^[p] fails on a sample"))
                    break
    return [(v.axiom, v.witness, v.message) for v in out]


def meataxe_inputs(M, seed, monkeypatch):
    """The modules the Meataxe is given while M is decomposed (the reducible
    pieces and the first member of each class), and the composition
    factors."""
    from superkw import modules

    seen = []
    orig = modules._find_proper_submodule

    def spy(N, s):
        seen.append(N)
        return orig(N, s)

    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    factors = modules.composition_factor_modules(M, seed)
    monkeypatch.undo()
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
    from superkw.lsa import Subspace, as_subalgebra

    ent = catalog("gl(2|1)", 3)
    g = ent.algebra
    idx = {nm: i for i, nm in enumerate(g.names)}
    rows = [g.basis_vector(idx[nm]) for nm in ("E11", "E22", "E33", "E12", "E13", "E23")]
    S = Subspace.from_vectors(g.field, g.s_even, g.n, rows)
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
    from superkw.chargeom import restrict_chi
    from superkw.env import character_module, induce
    from superkw.lsa import (
        as_subalgebra,
        is_completely_solvable,
        restricted_closure,
        subalgebra_closure,
    )
    from superkw.modules import validate_module
    from superkw.solvable import (
        _abelian_ideal_candidates,
        i_chi,
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
            S = restricted_closure(b, subalgebra_closure(b, vecs))
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
                stab = i_chi(h, I, chi)
                if stab.dim == h.n:
                    continue
                sub = as_subalgebra(h, stab)
                if not sub.alg.restricted:
                    continue
                pins = []
                ok = True
                for row in I.basis:
                    c = stab.coords_of(row)
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
                lam = one_dim_weights(sub, chi_sub, pins=tuple(pins))
                if lam is None:
                    continue
                Sm = character_module(sub, chi_sub, lam)
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
        from superkw.chargeom import check_chi

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


def reference_induce(g, chi, h, S):
    """The induction by word straightening: every word u * e^alpha f^gamma
    is straightened with the cobasis generators ordered first, each normal
    word e^alpha' f^gamma' * (h-word) is placed by its cobasis exponents and
    the h-word's matrix on S, and the action is assembled from (generator,
    row, column, value) triples.  A reference for `env.induce`; returns the
    module."""
    from itertools import product

    from superkw.chargeom import chi_value
    from superkw.env import InducedModule
    from superkw.gflin import inv_matrix
    from superkw.lsa import change_basis
    from superkw.modules import SuperModule

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
        return layout.index(alpha, gamma, 0), h_matrix(w[cut:])

    triples = []
    for alpha in product(range(f.p), repeat=c0):
        for gamma in product(range(2), repeat=c1):
            tail = tuple(i for i, a in enumerate(alpha) for _ in range(a))
            tail += tuple(s + j for j, cb in enumerate(gamma) if cb)
            col0 = layout.index(alpha, gamma, 0)
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


def reference_chi_geometry(g, chi):
    """The geometry from the whole Gram matrix: one kernel of G^T for the
    centralizer and a rank per block.  A reference for
    `chargeom.chi_geometry`."""
    from superkw.chargeom import CharacterGeometry, SuperDim, check_chi, gram_matrix
    from superkw.gflin import rank
    from superkw.lsa import Subspace

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
