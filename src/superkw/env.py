"""Reduced enveloping algebra: the PBW basis, read off the left regular
module, and the induced-module constructors (the left regular module is
the special case of inducing from the zero subalgebra).

Monomials are pairs (alpha, gamma): even exponents in [0, p) and odd bits.
`induce` is the one PBW engine.  It applies the defining relations of
U_chi(g) (the super-commutation swap, the odd-square rule
y*y = (1/2)[y,y] and the even p-th power rule x^p = x^[p] + chi(x)^p) to
the induced module's own basis, building each action column from the
columns of shorter basis vectors.  By the PBW theorem the normal form of
an element u is rho(u).1 in the regular module, so `ReducedAlgebra`
straightens and multiplies by acting there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chargeom import BudgetExceeded, check_chi, chi_value, restrict_chi
from .gflin import inv_matrix
from .lsa import LieSuperAlgebra, LsaError, Subalgebra, as_subalgebra, change_basis
from .modules import SuperModule

Word = Tuple[int, ...]
Monomial = Tuple[Tuple[int, ...], Tuple[int, ...]]


class ReducedAlgebra:
    """U_chi(g) in the PBW basis of sorted reduced words, generators in
    basis order: a view over the left regular module, built on first use
    with the default budget of `regular_module`."""

    def __init__(self, g: LieSuperAlgebra, chi):
        if not g.restricted:
            raise LsaError("reduced enveloping algebra needs a restricted algebra")
        self.g = g
        self.field = g.field
        self.chi = check_chi(g, chi)
        self._regular: Optional[InducedModule] = None

    def straighten(self, words: Dict[Word, int]) -> Dict[Word, int]:
        """Rewrite a scalar combination of words into sorted reduced words:
        the sum of c * rho(w).1 in the regular module, each nonzero entry
        read back as its word.  Raises BudgetExceeded when the regular
        module is over the default budget of `regular_module`."""
        if self._regular is None:
            self._regular = regular_module(self)
        reg, f = self._regular, self.field
        action = reg.module.action
        v = np.zeros(reg.module.dim, dtype=np.int64)
        for w, c in words.items():
            x = np.zeros_like(v)
            x[0] = c
            for i in reversed(w):
                x = f.matmul(action[i], x)
            v = f.add_arr(v, x)
        # the regular module's letters are the generators in basis order, so
        # generator i appears exps[m, i] times in basis vector m's word
        exps = np.hstack(reg.exponents()[:2])
        gens = np.arange(self.g.n)
        return {tuple(np.repeat(gens, exps[m]).tolist()): int(v[m])
                for m in np.nonzero(v)[0].tolist()}

    def _monomials(self, words: Dict[Word, int]) -> Dict[Monomial, int]:
        """Straighten, then count each sorted reduced word's exponents."""
        s, n = self.g.s_even, self.g.n
        return {(tuple(w.count(i) for i in range(s)), tuple(w.count(i) for i in range(s, n))): c
                for w, c in self.straighten(words).items()}

    def monomial_to_word(self, mono: Monomial) -> Word:
        alpha, gamma = mono
        s = self.g.s_even
        w: List[int] = []
        for i, a in enumerate(alpha):
            w.extend([i] * a)
        for j, cb in enumerate(gamma):
            if cb:
                w.append(s + j)
        return tuple(w)

    def normal_form(self, word: Sequence[int], coeff: int = 1) -> Dict[Monomial, int]:
        """PBW-ordered representative of a scalar multiple of a word."""
        return self._monomials({tuple(word): coeff})

    def multiply(self, u: Dict[Monomial, int], v: Dict[Monomial, int]) -> Dict[Monomial, int]:
        f = self.field
        words: Dict[Word, int] = {}
        for m1, c1 in u.items():
            w1 = self.monomial_to_word(m1)
            for m2, c2 in v.items():
                w = w1 + self.monomial_to_word(m2)
                words[w] = f.add(words.get(w, 0), f.mul(c1, c2))
        return self._monomials(words)

    def one(self) -> Dict[Monomial, int]:
        s, t = self.g.s_even, self.g.t_odd
        return {((0,) * s, (0,) * t): 1}

    def generator(self, i: int) -> Dict[Monomial, int]:
        return self.normal_form((i,))

    def element_parity(self, u: Dict[Monomial, int]) -> Optional[int]:
        """0/1 for homogeneous elements, None for mixed (or zero)."""
        seen = {sum(gamma) % 2 for (_, gamma) in u}
        if len(seen) == 1:
            return seen.pop()
        return None

    def format_element(self, u: Dict[Monomial, int]) -> str:
        """Canonical PBW-ordered printing, stable for golden files."""
        if not u:
            return "0"
        names = self.g.names
        s = self.g.s_even
        parts = []
        for (alpha, gamma) in sorted(u.keys()):
            c = u[(alpha, gamma)]
            factors = []
            for i, a in enumerate(alpha):
                if a == 1:
                    factors.append(names[i])
                elif a > 1:
                    factors.append(f"{names[i]}^{a}")
            for j, cb in enumerate(gamma):
                if cb:
                    factors.append(names[s + j])
            body = "*".join(factors) if factors else "1"
            parts.append(f"{c}*{body}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# induced modules


@dataclass
class InducedModule:
    """Module induced from a p-closed subalgebra, with the basis layout
    e^alpha f^gamma (x) v_b kept explicit for filtration arguments.

    Basis index = (mixed-radix alpha, little-endian) * 2^c1 + gamma bits,
    then * dim(base) + b.
    """

    module: SuperModule
    h: Subalgebra
    base: SuperModule
    even_cobasis: np.ndarray   # (c0, n) vectors of the ambient algebra
    odd_cobasis: np.ndarray    # (c1, n)

    def __post_init__(self):
        p, d, c0, c1 = self.h.parent.field.p, self.base.dim, self.c0, self.c1
        # Python ints: `index` and the column recursion of `induce` do
        # scalar index arithmetic with them
        self._strides = tuple([d * 2**c1 * p**i for i in range(c0)]
                              + [d * 2**j for j in range(c1)])

    @property
    def c0(self) -> int:
        return self.even_cobasis.shape[0]

    @property
    def c1(self) -> int:
        return self.odd_cobasis.shape[0]

    def strides(self) -> Tuple[int, ...]:
        """The index step of each even exponent, then of each odd bit."""
        return self._strides

    def index(self, alpha: Sequence[int], gamma: Sequence[int], b: int) -> int:
        return b + sum(st * e for st, e in zip(self._strides, (*alpha, *gamma)))

    def exponents(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The layout of every basis vector as arrays: alpha (dim, c0),
        gamma (dim, c1) and b (dim,)."""
        p, d, c0, c1 = self.h.parent.field.p, self.base.dim, self.c0, self.c1
        idx = np.arange(p**c0 * 2**c1 * d, dtype=np.int64)
        radix = np.array([p] * c0 + [2] * c1, dtype=np.int64)
        e = idx[:, None] // np.array(self._strides, dtype=np.int64) % radix
        return e[:, :c0], e[:, c0:], idx % d


def trivial_base_module(g: LieSuperAlgebra, chi) -> SuperModule:
    """One-dimensional even module over the zero subalgebra of g."""
    sub_space = g.zero_space()
    sub = as_subalgebra(g, sub_space)
    return SuperModule(
        alg=sub.alg,
        chi=np.zeros(0, dtype=np.int64),
        parities=np.zeros(1, dtype=np.int64),
        action=np.zeros((0, 1, 1), dtype=np.int64),
    )


def character_module(h: Subalgebra, chi_h, lam: np.ndarray) -> SuperModule:
    """One-dimensional module of a restricted subalgebra: even generators act
    by the weight, odd ones by zero.  The caller is responsible for the
    weight solving the p-compatibility equations."""
    alg = h.alg
    s = alg.s_even
    action = np.zeros((alg.n, 1, 1), dtype=np.int64)
    for a in range(s):
        action[a, 0, 0] = lam[a]
    return SuperModule(
        alg=alg,
        chi=np.asarray(chi_h, dtype=np.int64),
        parities=np.zeros(1, dtype=np.int64),
        action=action,
    )


def induce(
    g: LieSuperAlgebra,
    chi,
    h: Subalgebra,
    S: SuperModule,
    budget: int = 4000,
) -> InducedModule:
    """U_chi(g) tensored over U_chi(h) with S, for p-closed h.

    The ambient algebra is rewritten in a basis [even cobasis, h-even rows,
    odd cobasis, h-odd rows].  The cobasis letters e_1 < ... < e_c0 <
    f_1 < ... < f_c1 spell the basis vectors m = e^alpha f^gamma (x) v_b,
    and each action column u.m is a sparse combination of columns already
    built for shorter basis vectors:

    - on m = 1 (x) v_b a letter u gives u (x) v_b, and an h generator acts
      through S;
    - a letter u at or before the leftmost letter y of m is prepended, with
      u^p = u^[p] + chi(u)^p when an even exponent reaches p and
      u u = (1/2)[u, u] on an odd letter already present;
    - any other u commutes past y: u.(y m') = (-1)^{|u||y|} y.(u.m') +
      [u, y].m'.

    Columns are built by degree |alpha| + |gamma|, the prepended ones of a
    degree first.  The terms of u.m' of the same degree as m are the
    supersymmetric product, whose leftmost letter is at or after y, so
    every column looked up is already built (a missing one raises
    KeyError, never reads as zero).
    """
    f = g.field
    chi = check_chi(g, chi)
    if not g.restricted:
        raise LsaError("induction needs a restricted algebra")
    if not h.alg.restricted:
        raise LsaError("induction requires a p-closed subalgebra")
    if h.alg.n != S.alg.n or S.alg.n != S.action.shape[0]:
        raise LsaError("base module does not match the subalgebra")
    if not np.array_equal(S.chi, restrict_chi(chi, h)):
        raise LsaError("base module's character is not chi restricted to the subalgebra")
    s, n = g.s_even, g.n
    comp = h.space.complement_columns()
    ce = [c for c in comp if c < s]
    co = [c for c in comp if c >= s]
    c0, c1 = len(ce), len(co)
    dim = f.p**c0 * 2**c1 * S.dim
    if dim > budget:
        raise BudgetExceeded(f"induced module dimension {dim} exceeds budget {budget}")

    unit = np.eye(n, dtype=np.int64)
    P = np.vstack([unit[ce], h.space.even_rows(), unit[co], h.space.odd_rows()]).reshape(n, n)
    g2 = change_basis(g, P)
    chi2 = chi_value(g, chi, P[:s])
    induced = InducedModule(
        module=None,  # filled below
        h=h,
        base=S,
        even_cobasis=P[:c0].copy(),
        odd_cobasis=P[s : s + c1].copy(),
    )

    p, add, mul = f.p, f.add, f.mul
    L = c0 + c1
    # g2 index of each letter; letter position of each g2 generator (None on h)
    letters = list(range(c0)) + list(range(s, s + c1))
    position = [None] * n
    for i, u in enumerate(letters):
        position[u] = i
    # g2 generator -> the base module's generator
    base_gen = [None] * n
    for k, u in enumerate([u for u in range(n) if position[u] is None]):
        base_gen[u] = k

    def terms(vec, scale=1):
        return [(int(l), mul(scale, int(vec[l]))) for l in np.nonzero(vec)[0]]

    # [u, y] for every generator u and letter y, and the rules for a letter
    # reaching its bound: u^[p] with chi(u)^p for even u, (1/2)[u, u] for odd
    bracket = [[terms(g2.structure[u, y]) for y in letters] for u in range(n)]
    half = f.inv(2)
    bound = [(terms(g2.pmap[u]), f.pow(int(chi2[u]), p)) for u in letters[:c0]]
    bound += [(terms(g2.structure[u, u], half), 0) for u in letters[c0:]]
    sign = [[f.neg(1) if g2.parities[u] and i >= c0 else 1 for i in range(L)]
            for u in range(n)]

    strides = induced.strides()
    alpha, gamma, b = induced.exponents()
    exps = np.hstack([alpha, gamma])
    # the leftmost letter of each basis vector: the first nonzero exponent,
    # or the sentinel column L on the base block
    lead = np.argmax(np.hstack([exps > 0, np.ones((dim, 1), dtype=bool)]), axis=1).tolist()
    deg = exps.sum(axis=1)
    exps = exps.tolist()

    def axpy(acc, c, col):
        """acc += c * col, dropping coefficients that cancel."""
        for r, v in col.items():
            w = add(acc.get(r, 0), mul(c, v))
            if w:
                acc[r] = w
            else:
                acc.pop(r, None)

    # cols[u][m]: the column u.m as {row: coefficient}, nonzero entries only
    cols: List[Dict[int, Dict[int, int]]] = [{} for _ in range(n)]
    for level in range(int(deg.max(initial=0)) + 1):
        ms = np.nonzero(deg == level)[0].tolist()
        for m in ms:
            for i in range(min(lead[m] + 1, L)):
                u, e, st = letters[i], exps[m][i], strides[i]
                if e + 1 < (p if i < c0 else 2):
                    cols[u][m] = {m + st: 1}
                    continue
                rule, scalar = bound[i]
                m0 = m - e * st
                acc = {m0: scalar} if scalar else {}
                for l, c in rule:
                    axpy(acc, c, cols[l][m0])
                cols[u][m] = acc
        for m in ms:
            y = lead[m]
            if y == L:
                for u in range(n):
                    k = base_gen[u]
                    if k is not None:
                        cols[u][m] = {r: int(v) for r, v in enumerate(S.action[k][:, m]) if v}
                continue
            ycol, m1 = cols[letters[y]], m - strides[y]
            for u in range(n):
                i = position[u]
                if i is not None and i <= y:
                    continue
                acc = {}
                sg = sign[u][y]
                for m2, c in cols[u][m1].items():
                    axpy(acc, mul(sg, c), ycol[m2])
                for l, c in bracket[u][y]:
                    axpy(acc, c, cols[l][m1])
                cols[u][m] = acc

    # back to the original generators: x_i = sum_a Pinv[i, a] x'_a, applied
    # entry by entry; entries that meet at one position are summed in GF(q)
    gen, pos, val = [], [], []
    for u, cu in enumerate(cols):
        for m, col in cu.items():
            for r, v in col.items():
                gen.append(u)
                pos.append(r * dim + m)
                val.append(v)
    gen, pos, val = (np.array(a, dtype=np.int64) for a in (gen, pos, val))
    Pinv = inv_matrix(f, P)
    # one empty part, so that the zero algebra (n = 0) concatenates too
    keys, vals = [pos[:0]], [val[:0]]
    for i in range(n):
        coef = Pinv[i, gen]
        sel = np.nonzero(coef)[0]
        keys.append(i * dim * dim + pos[sel])
        vals.append(f.mul_arr(coef[sel], val[sel]))
    flat, where = np.unique(np.concatenate(keys), return_inverse=True)
    action = np.zeros((n, dim, dim), dtype=np.int64)
    action.reshape(-1)[flat] = f.sum_at(where, np.concatenate(vals), flat.size)

    parities = (gamma.sum(axis=1) + S.parities[b]) % 2

    induced.module = SuperModule(alg=g, chi=chi, parities=parities, action=action)
    return induced


def regular_module(ralg: ReducedAlgebra, budget: int = 4000) -> InducedModule:
    """Left regular module of U_chi(g), as induction from the zero subalgebra."""
    g = ralg.g
    sub = as_subalgebra(g, g.zero_space())
    base = trivial_base_module(g, ralg.chi)
    return induce(g, ralg.chi, sub, base, budget=budget)
