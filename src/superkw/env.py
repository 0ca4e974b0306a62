"""Reduced enveloping algebra: PBW basis, straightening multiplication, and
the induced-module constructors (left regular module as the special case of
inducing from the zero subalgebra).

Monomials are pairs (alpha, gamma): even exponents in [0, p) and odd bits.
Words are straightened rightmost-disorder-first; the relations used are the
super-commutation swap, the odd-square rule y*y = (1/2)[y,y], and the even
p-th power rule x^p = x^[p] + chi(x)^p.  Termination follows from the
(degree, inversion-count) measure: swaps lower inversions, everything else
lowers degree.  Normal forms are memoised per word, so a word that many
rewrites reach is rewritten once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chargeom import BudgetExceeded, check_chi, chi_value
from .gflin import inv_matrix
from .lsa import LieSuperAlgebra, LsaError, Subalgebra, as_subalgebra, change_basis
from .modules import SuperModule

Word = Tuple[int, ...]
Monomial = Tuple[Tuple[int, ...], Tuple[int, ...]]


class ReducedAlgebra:
    """U_chi(g) with a fixed PBW generator order.

    `order_key` permutes straightening priorities (used by the induced-module
    builder to push subalgebra generators to the right); the default is the
    basis order itself.
    """

    def __init__(self, g: LieSuperAlgebra, chi, order_key: Optional[Sequence[int]] = None):
        if not g.restricted:
            raise LsaError("reduced enveloping algebra needs a restricted algebra")
        self.g = g
        self.field = g.field
        self.chi = check_chi(g, chi)
        self.order_key = list(order_key) if order_key is not None else list(range(g.n))
        if sorted(self.order_key) != list(range(g.n)):
            raise LsaError("order_key must be a permutation of the generators")
        f = self.field
        self.chi_p = np.array(
            [f.pow(int(c), f.p) for c in self.chi], dtype=np.int64
        )
        self.half = f.inv(2 % f.p)
        # sparse bracket table
        self.pair = {}
        for i in range(g.n):
            for j in range(g.n):
                nz = np.nonzero(g.structure[i, j])[0]
                if nz.size:
                    self.pair[(i, j)] = [(int(l), int(g.structure[i, j, l])) for l in nz]
        # word -> normal form, filled by straighten
        self._memo: Dict[Word, Dict[Word, int]] = {}

    def dimension(self) -> int:
        return self.field.p ** self.g.s_even * 2 ** self.g.t_odd

    # -- straightening ---------------------------------------------------

    def straighten(self, words: Dict[Word, int]) -> Dict[Word, int]:
        """Rewrite a scalar combination of words into sorted reduced words."""
        out: Dict[Word, int] = {}
        for w, c in words.items():
            if c:
                self._add_scaled(out, c, self._normal_terms(w))
        return out

    def _add_scaled(self, acc: Dict[Word, int], c: int, form: Dict[Word, int]) -> None:
        """acc += c * form, dropping coefficients that cancel."""
        f = self.field
        for w, d in form.items():
            v = f.add(acc.get(w, 0), f.mul(c, d))
            if v:
                acc[w] = v
            else:
                acc.pop(w, None)

    def _normal_terms(self, word: Word) -> Dict[Word, int]:
        """Normal form of one word, from the memo or by a post-order walk
        over its rewrite children.  PBW normal forms are unique, so a word's
        form is the sum of its children's forms, whichever path reached it;
        every word is rewritten once per instance.  The memoised dicts are
        shared: callers must not change them."""
        memo = self._memo
        if word in memo:
            return memo[word]
        children: Dict[Word, list] = {}
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
            acc: Dict[Word, int] = {}
            for v, c in kids:
                self._add_scaled(acc, c, memo[v])
            memo[w] = acc
        return memo[word]

    def _rewrite_step(self, w: Word) -> Optional[List[Tuple[Word, int]]]:
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

    def _rightmost_violation(self, w: Word) -> Optional[int]:
        par = self.g.parities
        key = self.order_key
        for m in range(len(w) - 2, -1, -1):
            a, b = w[m], w[m + 1]
            if key[a] > key[b]:
                return m
            if a == b and par[a] == 1:
                return m
        return None

    def _even_p_run(self, w: Word):
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

    def _pmap_terms(self, gen: int):
        row = self.g.pmap[gen]
        nz = np.nonzero(row)[0]
        return [(int(l), int(row[l])) for l in nz]

    # -- normal form and product -----------------------------------------

    def word_to_monomial(self, w: Word) -> Monomial:
        s, t = self.g.s_even, self.g.t_odd
        alpha = [0] * s
        gamma = [0] * t
        for gidx in w:
            if gidx < s:
                alpha[gidx] += 1
            else:
                gamma[gidx - s] += 1
        if any(a >= self.field.p for a in alpha) or any(cb > 1 for cb in gamma):
            raise LsaError("word is not reduced")
        return tuple(alpha), tuple(gamma)

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
        res = self.straighten({tuple(word): coeff})
        out: Dict[Monomial, int] = {}
        for w, c in res.items():
            mono = self.word_to_monomial(w)
            cur = self.field.add(out.get(mono, 0), c)
            if cur:
                out[mono] = cur
            elif mono in out:
                del out[mono]
        return out

    def multiply(self, u: Dict[Monomial, int], v: Dict[Monomial, int]) -> Dict[Monomial, int]:
        words: Dict[Word, int] = {}
        f = self.field
        for m1, c1 in u.items():
            w1 = self.monomial_to_word(m1)
            for m2, c2 in v.items():
                w = w1 + self.monomial_to_word(m2)
                c = f.mul(c1, c2)
                if c:
                    words[w] = f.add(words.get(w, 0), c)
        res = self.straighten(words)
        out: Dict[Monomial, int] = {}
        for w, c in res.items():
            mono = self.word_to_monomial(w)
            cur = f.add(out.get(mono, 0), c)
            if cur:
                out[mono] = cur
            elif mono in out:
                del out[mono]
        return out

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
        # Python ints: `index` runs once per column and per normal word
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
    odd cobasis, h-odd rows]; straightening with cobasis generators ordered
    first turns every word into (cobasis monomial) * (h-word), and the h-word
    is applied to S through its action matrices.
    """
    f = g.field
    chi = check_chi(g, chi)
    if not h.alg.restricted:
        raise LsaError("induction requires a p-closed subalgebra")
    if h.alg.n != S.alg.n or S.alg.n != S.action.shape[0]:
        raise LsaError("base module does not match the subalgebra")
    s, t, n = g.s_even, g.t_odd, g.n
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

    # straightening priority: even cobasis, odd cobasis, then h generators
    order = np.r_[0:c0, s : s + c1, c0:s, s + c1 : n]
    key = np.argsort(order).tolist()
    A = ReducedAlgebra(g2, chi2, order_key=key)

    # nonzero entries (row, col, value) of the matrix by which an h-word
    # acts on S, one computation per distinct word
    h_blocks: Dict[Word, list] = {}

    def h_block(word):
        blk = h_blocks.get(word)
        if blk is None:
            mat = f.eye(S.dim)
            for gi in word:
                # h generator index in g2 -> the base module's generator index
                if gi < s:
                    k = gi - c0
                else:
                    k = (s - c0) + (gi - s - c1)
                mat = f.matmul(mat, S.action[k])
            rr, cc = np.nonzero(mat)
            blk = h_blocks[word] = list(zip(rr.tolist(), cc.tolist(), mat[rr, cc].tolist()))
        return blk

    from itertools import product as iproduct

    blocks = list(iproduct(range(f.p), repeat=c0))
    gbits = list(iproduct(range(2), repeat=c1))
    induced = InducedModule(
        module=None,  # filled below
        h=h,
        base=S,
        even_cobasis=P[:c0].copy(),
        odd_cobasis=P[s : s + c1].copy(),
    )

    # column (alpha, gamma, 0) is the image of the word e^alpha f^gamma
    columns = []
    for alpha in blocks:
        for gamma in gbits:
            tail = [i for i, a in enumerate(alpha) for _ in range(a)]
            tail += [s + j for j, cb in enumerate(gamma) if cb]
            columns.append((tuple(tail), induced.index(alpha, gamma, 0)))

    # a normal word is (cobasis monomial) * (h-word): its row block and the
    # h-word's entries, once per distinct word
    placed: Dict[Word, tuple] = {}

    def place(w):
        cut = len(w)
        for pos2, gi in enumerate(w):
            if not (gi < c0 or (s <= gi < s + c1)):
                cut = pos2
                break
        a2 = [0] * c0
        g2bits = [0] * c1
        for gi in w[:cut]:
            if gi < c0:
                a2[gi] += 1
            else:
                g2bits[gi - s] += 1
        placed[w] = (induced.index(a2, g2bits, 0), h_block(w[cut:]))
        return placed[w]

    # the action of g2's generators as triples (generator, row, col, coeff,
    # h-entry); the entry's value is coeff * h-entry
    triples = []
    for u in range(n):
        for tail, col0 in columns:
            res = A.straighten({(u,) + tail: 1})
            for w, c in res.items():
                row0, blk = placed.get(w) or place(w)
                for r, cc, hv in blk:
                    triples.append((u, row0 + r, col0 + cc, c, hv))

    # back to the original generators: x_i = sum_a Pinv[i, a] x'_a, applied
    # to the triples; entries that meet at one position are summed in GF(q)
    Pinv = inv_matrix(f, P)
    T = np.array(triples, dtype=np.int64).reshape(-1, 5)
    gen, pos = T[:, 0], T[:, 1] * dim + T[:, 2]
    val = f.mul_arr(T[:, 3], T[:, 4])
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

    _, gamma, b = induced.exponents()
    parities = (gamma.sum(axis=1) + S.parities[b]) % 2

    induced.module = SuperModule(alg=g, chi=chi, parities=parities, action=action)
    return induced


def regular_module(ralg: ReducedAlgebra, budget: int = 4000) -> InducedModule:
    """Left regular module of U_chi(g), as induction from the zero subalgebra."""
    g = ralg.g
    sub = as_subalgebra(g, g.zero_space())
    base = trivial_base_module(g, ralg.chi)
    return induce(g, ralg.chi, sub, base, budget=budget)
