"""Reduced enveloping algebra: the PBW basis, read off the left regular
module, and the induced-module constructors (the left regular module is
the special case of inducing from the zero subalgebra).

Basis vectors are e^alpha f^gamma (x) v_b: even exponents alpha in [0, p)
and odd bits gamma.  `induce` is the one PBW engine.  It applies the
defining relations of U_chi(g) (the super-commutation swap, the odd-square
rule y*y = (1/2)[y,y] and the even p-th power rule x^p = x^[p] + chi(x)^p)
to the induced module's own basis, building each action column from the
columns of shorter basis vectors.  By the PBW theorem the normal form of
an element u is rho(u).1 in the regular module, so
`ReducedAlgebra.straighten` rewrites words by acting there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .chargeom import DEFAULT_BUDGET, BudgetExceeded, check_chi, chi_value, restrict_chi
from .gflin import inv_matrix
from .lsa import LieSuperAlgebra, LsaError, Subalgebra, as_subalgebra, change_basis
from .modules import SuperModule

Word = Tuple[int, ...]


class ReducedAlgebra:
    """U_chi(g) in the PBW basis of sorted reduced words, generators in
    basis order: a view over the left regular module, built on first use
    with the default budget of `regular_module`."""

    def __init__(self, g: LieSuperAlgebra, chi):
        if not g.restricted:
            raise LsaError("reduced enveloping algebra needs a restricted algebra")
        self.g = g
        self.chi = check_chi(g, chi)
        self._regular: Optional[InducedModule] = None

    def straighten(self, words: Dict[Word, int]) -> Dict[Word, int]:
        """Rewrite a scalar combination of words into sorted reduced words:
        the sum of c * rho(w).1 in the regular module, each nonzero entry
        read back as its word.  Raises BudgetExceeded when the regular
        module is over the default budget of `regular_module`."""
        if self._regular is None:
            self._regular = regular_module(self)
        reg, f = self._regular, self.g.field
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

    @property
    def c0(self) -> int:
        return self.even_cobasis.shape[0]

    @property
    def c1(self) -> int:
        return self.odd_cobasis.shape[0]

    def exponents(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The layout of every basis vector as arrays: alpha (dim, c0),
        gamma (dim, c1) and b (dim,)."""
        return _exponents(self.h.parent.field.p, self.c0, self.c1, self.base.dim)


def _strides(p: int, c0: int, c1: int, d: int) -> Tuple[int, ...]:
    """The index step of each even exponent, then of each odd bit, as
    Python ints, for c0 even and c1 odd letters over a base of dim d."""
    return tuple([d * 2**c1 * p**i for i in range(c0)] + [d * 2**j for j in range(c1)])


def _exponents(p: int, c0: int, c1: int, d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, gamma and b of every basis vector, as `InducedModule.exponents`."""
    idx = np.arange(p**c0 * 2**c1 * d, dtype=np.int64)
    radix = np.array([p] * c0 + [2] * c1, dtype=np.int64)
    e = idx[:, None] // np.array(_strides(p, c0, c1, d), dtype=np.int64) % radix
    return e[:, :c0], e[:, c0:], idx % d


def character_module(alg: LieSuperAlgebra, chi_h, lam: np.ndarray) -> SuperModule:
    """One-dimensional module of a restricted algebra: even generators act
    by the weight, odd ones by zero.  The caller is responsible for the
    weight solving the p-compatibility equations."""
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


def _ragged(start: np.ndarray, length: np.ndarray):
    """Positions of the runs [start[j], start[j] + length[j]) laid end to
    end: (the run j of each position, the position, and where each run
    ends in the output, with a leading 0)."""
    ends = np.zeros(length.size + 1, dtype=np.int64)
    length.cumsum(out=ends[1:])
    which = np.arange(length.size).repeat(length)
    return which, np.arange(ends[-1]) + (start - ends[:-1])[which], ends


def _segment_sum(f, key: np.ndarray, val: np.ndarray):
    """The GF(q) sum of the values at each distinct key: (the keys in
    increasing order, their sums), keys whose sum is zero left out.  Sorts
    the keys, then adds each run of equal keys (their digits when k > 1)."""
    order = key.argsort()
    key, val = key[order], val[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    head = head.nonzero()[0]
    if f.k == 1:
        tot = np.add.reduceat(val, head) % f.p
    else:
        tot = f.undigits(np.add.reduceat(f.digits(val), head, axis=0))
    keep = tot != 0
    return key[head][keep], tot[keep]


class _Columns:
    """Built action columns, flat: the rows and values of the nonzero
    entries of every column, one column after another, and each column's
    start and length in them.  The column u.m has id u * dim + m.  An id
    that was never built has start -1, and reading it raises."""

    def __init__(self, ncols: int):
        self.start = np.full(ncols, -1, dtype=np.int64)
        self.length = np.zeros(ncols, dtype=np.int64)
        self.rows = np.zeros(0, dtype=np.int64)
        self.vals = np.zeros(0, dtype=np.int64)
        self.size = 0
        self.batches: List[Tuple[np.ndarray, np.ndarray]] = []  # (ids, lengths)

    def store(self, ids: np.ndarray, seg: np.ndarray, rows: np.ndarray, vals: np.ndarray):
        """Append the columns ``ids``; entry e belongs to ids[seg[e]], and
        seg does not decrease."""
        lens = np.bincount(seg, minlength=ids.size)
        end = self.size + rows.size
        if end > self.rows.size:
            cap = max(end, 2 * self.rows.size)
            self.rows = np.concatenate([self.rows[: self.size], np.empty(cap - self.size, np.int64)])
            self.vals = np.concatenate([self.vals[: self.size], np.empty(cap - self.size, np.int64)])
        self.rows[self.size : end] = rows
        self.vals[self.size : end] = vals
        self.start[ids] = self.size + lens.cumsum() - lens
        self.length[ids] = lens
        self.batches.append((ids, lens))
        self.size = end

    def gather(self, ids: np.ndarray):
        """The entries of the columns ``ids``: (the position in ``ids`` of
        each entry's column, its row, its value, and where each column's
        entries end, with a leading 0)."""
        start = self.start[ids]
        if start.min(initial=0) < 0:
            raise KeyError(f"action column {int(ids[start.argmin()])} read before it was built")
        which, at, ends = _ragged(start, self.length[ids])
        return which, self.rows[at], self.vals[at], ends

    def entries(self):
        """(column id, row, value) of every stored entry."""
        ids = np.concatenate([b[0] for b in self.batches])
        lens = np.concatenate([b[1] for b in self.batches])
        return np.repeat(ids, lens), self.rows[: self.size], self.vals[: self.size]


def _term_table(vecs: np.ndarray):
    """The nonzero entries of each row of a matrix, row after row: (the
    start and count of each row's entries, their columns, their values)."""
    row, col = vecs.nonzero()
    count = np.bincount(row, minlength=vecs.shape[0])
    return count.cumsum() - count, count, col, vecs[row, col]


class _Schedule(NamedTuple):
    """What an induction builds, read off its shape alone.  Generators are
    those of the rewritten basis; the column u.m has id u * dim + m.

    Besides the shifts, the columns built at each degree are the wraps
    (the leftmost letter y of m, m) where y's exponent is at its bound,
    then the commutations (u, m) of every u that is no letter up to y,
    each numbered within its degree."""

    letters: np.ndarray      # the generator of each letter
    hgen: np.ndarray         # the generators of h, in the base module's order
    shift_ids: np.ndarray    # the shifts u.m = m + stride(u)
    shift_rows: np.ndarray
    wy: np.ndarray           # each wrap's letter y, in order of degree
    w_deg: np.ndarray
    w_m0: np.ndarray         # m with y's exponent zeroed
    w_local: np.ndarray      # the wrap's number within its degree
    cu: np.ndarray           # each commutation's u, in order of degree
    cy: np.ndarray
    c_deg: np.ndarray
    c_m1: np.ndarray         # m' = m with one y fewer
    c_local: np.ndarray
    c_odd: np.ndarray        # u and y both odd
    t_at: Tuple[int, ...]    # where each degree's columns start, wraps first
    t_ids: np.ndarray        # the column of each, by degree
    t_yoff: np.ndarray       # y * dim for a commutation: y.m has id t_yoff + m
    parity: np.ndarray       # the parity of gamma in each basis vector
    b: np.ndarray            # the base vector of each basis vector


@lru_cache(maxsize=16)
def _schedule(p: int, c0: int, c1: int, d: int, s: int, n: int) -> _Schedule:
    """The schedule of an induction with c0 even and c1 odd letters over a
    base of dim d, in an algebra of dim n with s even generators; kept for
    the next induction of the same shape (the regular modules of one
    algebra at every character, its g0 classes of one dimension)."""
    L = c0 + c1
    letters = np.r_[0:c0, s : s + c1]
    hgen = np.r_[c0:s, s + c1 : n]
    alpha, gamma, b = _exponents(p, c0, c1, d)
    dim = b.size
    # with a sentinel letter L past the last: its stride is 0 and no
    # exponent reaches its bound
    exps = np.hstack([alpha, gamma, np.zeros((dim, 1), dtype=np.int64)])
    stride = np.array(_strides(p, c0, c1, d) + (0,), dtype=np.int64)
    top = np.array([p - 1] * c0 + [1] * c1 + [-1], dtype=np.int64)
    # the leftmost letter of each basis vector: its first nonzero exponent,
    # or L on the degree-0 block
    lead = np.argmax(np.hstack([exps[:, :L] > 0, np.ones((dim, 1), dtype=bool)]), axis=1)
    deg = exps.sum(axis=1)
    levels = np.arange(int(deg.max(initial=0)) + 2)
    m, i = np.nonzero((np.arange(L) <= lead[:, None]) & (exps[:, :L] < top[:L]))
    shift_ids, shift_rows = letters[i] * dim + m, m + stride[i]

    wm = np.flatnonzero(exps[np.arange(dim), lead] == top[lead])
    wm = wm[np.argsort(deg[wm], kind="stable")]
    wy = lead[wm]
    # u passes y when it is no letter at or before y
    passes = np.ones((n, L + 1), dtype=bool)
    passes[letters] = np.arange(L)[:, None] > np.arange(L + 1)
    passes[:, L] = False
    cm, cu = np.nonzero(passes[:, lead].T)
    o = np.argsort(deg[cm], kind="stable")
    cm, cu = cm[o], cu[o]
    cy = lead[cm]
    w_deg, c_deg = deg[wm], deg[cm]
    t_deg = np.concatenate([w_deg, c_deg])
    order = np.argsort(t_deg, kind="stable")
    t_at = np.searchsorted(t_deg[order], levels)
    local = np.empty_like(order)
    local[order] = np.arange(order.size)
    local -= t_at[t_deg]
    yoff = np.concatenate([np.zeros(wm.size, dtype=np.int64), letters[cy] * dim])
    sch = _Schedule(
        letters=letters, hgen=hgen, shift_ids=shift_ids, shift_rows=shift_rows,
        wy=wy, w_deg=w_deg, w_m0=wm - top[wy] * stride[wy], w_local=local[: wm.size],
        cu=cu, cy=cy, c_deg=c_deg, c_m1=cm - stride[cy], c_local=local[wm.size :],
        c_odd=(cu >= s) & (cy >= c0), t_at=tuple(t_at.tolist()),
        t_ids=np.concatenate([letters[wy] * dim + wm, cu * dim + cm])[order],
        t_yoff=yoff[order], parity=gamma.sum(axis=1) % 2, b=b)
    # shared between calls: read-only
    for a in sch:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return sch


def induce(
    g: LieSuperAlgebra,
    chi,
    h: Subalgebra,
    S: SuperModule,
    budget: int = DEFAULT_BUDGET,
) -> InducedModule:
    """U_chi(g) tensored over U_chi(h) with S, for p-closed h.

    The ambient algebra is rewritten in a basis [even cobasis, h-even rows,
    odd cobasis, h-odd rows] (not at all when that basis is g's own).  The
    cobasis letters e_1 < ... < e_c0 < f_1 < ... < f_c1 spell the basis
    vectors m = e^alpha f^gamma (x) v_b, and each action column u.m is a
    sparse combination of columns already built for shorter basis vectors:

    - on m = 1 (x) v_b a letter u gives u (x) v_b, and an h generator acts
      through S;
    - a letter u at or before the leftmost letter y of m is prepended: a
      shift to m + stride(u), unless u's exponent is at its bound, where
      u^p = u^[p] + chi(u)^p (even u) or u u = (1/2)[u, u] (odd u) wraps
      it back to columns of m with that exponent zeroed;
    - any other u commutes past y: u.(y m') = (-1)^{|u||y|} y.(u.m') +
      [u, y].m'.

    The shifts and the degree-0 block need no arithmetic and are stored
    first.  The other columns are built one degree |alpha| + |gamma| at a
    time, all the columns of a degree together, in flat arrays of rows and
    values (`_Columns`).  Which columns each degree builds, and from which
    basis vectors, follows from the shape alone and is worked out once
    (`_schedule`).  A degree is then two gathers of built columns, the
    terms of u.m' and [u, y].m' and of the wraps, then y.(u.m'), and one
    segmented GF(q) sum.  The terms of u.m' of the same degree as m are the
    supersymmetric product, whose leftmost letter is at or after y and
    whose exponent of y is one less than m's, so on them y is a shift; the
    other columns read are of lower degree.  So every column read is
    already built (a missing one raises KeyError, never reads as zero).
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
    d = S.dim
    dim = f.p**c0 * 2**c1 * d
    if dim > budget:
        raise BudgetExceeded(f"induced module dimension {dim} exceeds budget {budget}")

    unit = np.eye(n, dtype=np.int64)
    P = np.vstack([unit[ce], h.space.even_rows(), unit[co], h.space.odd_rows()]).reshape(n, n)
    identity = np.array_equal(P, unit)
    Pinv = None if identity else inv_matrix(f, P)
    g2 = g if identity else change_basis(g, P, Pinv=Pinv)
    chi2 = chi if identity else chi_value(g, chi, P[:s])
    induced = InducedModule(
        module=None,  # filled below
        h=h,
        base=S,
        even_cobasis=P[:c0].copy(),
        odd_cobasis=P[s : s + c1].copy(),
    )

    p, L = f.p, c0 + c1
    sch = _schedule(p, c0, c1, d, s, n)
    letters, wy, cu, cy = sch.letters, sch.wy, sch.cu, sch.cy
    # the shifts, then h on the degree-0 block through S
    base = np.asarray(S.action, dtype=np.int64).transpose(0, 2, 1)  # [k, m, r]
    k, m, r = base.nonzero()
    shifts = sch.shift_ids.size
    cols = _Columns(n * dim)
    cols.store(np.concatenate([sch.shift_ids, (sch.hgen[:, None] * dim + np.arange(d)).ravel()]),
               np.concatenate([np.arange(shifts), shifts + k * d + m]),
               np.concatenate([sch.shift_rows, r]),
               np.concatenate([np.ones(shifts, dtype=np.int64), base[k, m, r]]))

    # the rules at the bound, one row per letter: u^[p] (and chi(u)^p at
    # m0) for even u, (1/2)[u, u] for odd u; and [u, y] for each (u, y)
    rule = _term_table(np.concatenate([
        g2.pmap[letters[:c0]], f.mul_arr(g2.structure[letters[c0:], letters[c0:]], f.inv(2))]))
    bracket = _term_table(g2.structure[:, letters].reshape(n * L, n))
    scalar = np.concatenate([f.pow_arr(chi2[:c0], p), np.zeros(c1, dtype=np.int64)])
    ws = scalar[wy].nonzero()[0]
    s_at = np.searchsorted(sch.w_deg[ws], np.arange(len(sch.t_at))).tolist()
    s_keys, s_vals = sch.w_local[ws] * dim + sch.w_m0[ws], scalar[wy[ws]]

    # the reads of each degree, in two kinds: the terms that are final (the
    # rule terms of the wraps, at m0; [u, y].m' of the commutations), then
    # the first factor u.m' of y.(u.m'), with its sign
    t, j = _ragged(rule[0][wy], rule[1][wy])[:2]
    uy = cu * L + cy
    tb, jb = _ragged(bracket[0][uy], bracket[1][uy])[:2]
    req_ids = np.concatenate([rule[2][j] * dim + sch.w_m0[t], bracket[2][jb] * dim + sch.c_m1[tb],
                              cu * dim + sch.c_m1])
    req_coef = np.concatenate([rule[3][j], bracket[3][jb], np.where(sch.c_odd, f.neg(1), 1)])
    req_seg = np.concatenate([sch.w_local[t], sch.c_local[tb], sch.c_local])
    req_key = np.concatenate([2 * sch.w_deg[t], 2 * sch.c_deg[tb], 2 * sch.c_deg + 1])
    o = req_key.argsort(kind="stable")
    req_ids, req_coef, req_seg = req_ids[o], req_coef[o], req_seg[o]
    r_at = np.searchsorted(req_key[o], 2 * np.arange(len(sch.t_at))[:, None] + np.arange(2)).tolist()

    t_at = sch.t_at
    for level in range(1, len(t_at) - 1):
        (r0, r1), r2 = r_at[level], r_at[level + 1][0]
        which, rows, vals, ends = cols.gather(req_ids[r0:r2])
        vals = f.mul_arr(req_coef[r0:r2][which], vals)
        seg = req_seg[r0:r2][which]
        e, t0 = int(ends[r1 - r0]), t_at[level]
        # y.(u.m'): the columns of y at the rows of u.m', scaled
        which2, rows2, vals2, _ = cols.gather(sch.t_yoff[t0 + seg[e:]] + rows[e:])
        s0, s1 = s_at[level], s_at[level + 1]
        key, tot = _segment_sum(
            f,
            np.concatenate([seg[:e] * dim + rows[:e], seg[e:][which2] * dim + rows2, s_keys[s0:s1]]),
            np.concatenate([vals[:e], f.mul_arr(vals[e:][which2], vals2), s_vals[s0:s1]]))
        cols.store(sch.t_ids[t0 : t_at[level + 1]], *np.divmod(key, dim), tot)

    # the dense tensor, narrow from the start: no int64 tensor of the
    # module's size is made.  Back to the original generators, x_i =
    # sum_a Pinv[i, a] x'_a, unless the basis was g's own
    ids, rows, vals = cols.entries()
    u, m = np.divmod(ids, dim)
    pos = rows * dim + m
    action = np.zeros((n, dim, dim), dtype=f.code_dtype)
    if identity:
        action.reshape(-1)[u * dim * dim + pos] = f.narrow(vals)
    else:
        keys, terms = [], []
        for i in range(n):
            sel = np.flatnonzero(Pinv[i, u])
            keys.append(i * dim * dim + pos[sel])
            terms.append(f.mul_arr(Pinv[i, u[sel]], vals[sel]))
        key, tot = _segment_sum(f, np.concatenate(keys), np.concatenate(terms))
        action.reshape(-1)[key] = f.narrow(tot)

    parities = (sch.parity + S.parities[sch.b]) % 2

    induced.module = SuperModule(alg=g, chi=chi, parities=parities, action=action)
    return induced


def regular_module(ralg: ReducedAlgebra, budget: int = DEFAULT_BUDGET) -> InducedModule:
    """Left regular module of U_chi(g), as induction from the zero subalgebra."""
    g = ralg.g
    zero = as_subalgebra(g, g.zero_space())
    return induce(g, ralg.chi, zero, character_module(zero.alg, (), ()), budget=budget)
