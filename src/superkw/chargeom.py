"""Geometry of a p-character: Gram blocks of (X, Y) -> chi([X, Y]),
centralizers, isotropy data, the maximal-dimension invariant of the algebra,
degraded-subalgebra predicates, and the polarization construction for
completely solvable inputs.

The Gram matrix of a character is block diagonal (chi vanishes on odd
brackets), with an alternating even block and a symmetric odd block.  The
geometry of one character (`chi_geometry`) takes one kernel per block: the
block ranks are the block sizes less the kernel dimensions, and the
centralizer is the two kernels side by side.  The maximal-dimension scan
needs only the two ranks, so it takes the Gram matrices of a block of
characters in one product and their ranks in one batched elimination
(`gflin.ranks`).  `characters` is the one enumeration of the character
space, in blocks or one at a time, shared by the maximal-dimension scan and
the report's oracle scan, and `character_classes` groups scanned characters
under the restricted automorphisms that `lsa.restricted_automorphisms` finds:
the exponentials exp(t ad x) and the torus scalings e_i -> c_i e_i.

Floor/ceiling convention: everything here uses the standard meaning.  With
b0 = rank of the even Gram block and b1 = rank of the odd block, the
dimension target attached to a character is p^(b0/2) * 2^ceil(b1/2), and the
maximal isotropic super-dimension is ((s + z0)/2 | floor((t + z1)/2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .gflin import Field, nullspace, ranks
from .lsa import (
    LieSuperAlgebra,
    LsaError,
    NeedsFieldExtension,
    Subalgebra,
    Subspace,
    as_subalgebra,
    bracket_span,
    graded_hyperplanes_containing,
    is_completely_solvable,
    is_p_closed,
    is_subalgebra,
    restricted_automorphisms,
)


class SuperDim(NamedTuple):
    even: int
    odd: int

    def __str__(self):
        return f"({self.even}|{self.odd})"


class BudgetExceeded(RuntimeError):
    pass


class CounterexampleError(RuntimeError):
    """A construction the theory guarantees has failed; the payload is a
    report, not a crash site."""


def check_chi(g: LieSuperAlgebra, chi) -> np.ndarray:
    chi = np.asarray(chi, dtype=np.int64)
    if chi.shape != (g.s_even,):
        raise LsaError(f"character must have one value per even basis element "
                       f"({g.s_even}), got shape {chi.shape}")
    if np.any(chi < 0) or np.any(chi >= g.field.q):
        raise LsaError(f"character values must be field codes in [0, {g.field.q})")
    return chi


def gram_matrix(g: LieSuperAlgebra, chi: np.ndarray) -> np.ndarray:
    """Full n x n Gram matrix of (X, Y) -> chi([X, Y]) on basis pairs, or
    the (B, n, n) stack of them for a (B, s) stack of characters."""
    f, s, n = g.field, g.s_even, g.n
    flat = g.structure[:, :, :s].reshape(n * n, s)
    # only the basis pairs whose bracket has an even part enter the product
    live = np.any(flat, axis=1)
    grams = np.zeros(chi.shape[:-1] + (n * n,), dtype=np.int64)
    grams[..., live] = f.matmul(chi, flat[live].T)
    return grams.reshape(chi.shape[:-1] + (n, n))


def _check_grams(f: Field, s: int, grams: np.ndarray, even_ranks: np.ndarray):
    """Raise `CounterexampleError` at the first Gram matrix of the stack
    (B, n, n) that breaks the grading: a nonzero mixed-parity block, an even
    block that is not alternating, an odd block that is not symmetric, or an
    odd rank of the even block (`even_ranks`, shape (B,))."""
    even, odd = grams[:, :s, :s], grams[:, s:, s:]
    faults = [
        (np.any(grams[:, :s, s:], axis=(1, 2)) | np.any(grams[:, s:, :s], axis=(1, 2)),
         "mixed-parity Gram block is nonzero: chi does not vanish on odd "
         "brackets, which contradicts the grading"),
        (np.any(even != f.neg_arr(even.transpose(0, 2, 1)), axis=(1, 2))
         | np.any(np.diagonal(even, axis1=1, axis2=2), axis=1),
         "even Gram block is not alternating"),
        (np.any(odd != odd.transpose(0, 2, 1), axis=(1, 2)),
         "odd Gram block is not symmetric"),
        (even_ranks % 2 != 0, "even block rank {b0} is odd"),
    ]
    bad = np.logical_or.reduce([mask for mask, _ in faults])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(msg for mask, msg in faults if mask[i])
        raise CounterexampleError(message.format(b0=int(even_ranks[i])))


def exponent_pair(even_rank: int, odd_rank: int) -> SuperDim:
    """(m|n) from the block ranks b0 and b1: the attached dimension
    p^(b0/2) * 2^ceil(b1/2) is p^m * 2^n."""
    return SuperDim(even_rank // 2, (odd_rank + 1) // 2)


def attached_dimension(p: int, pair: SuperDim) -> int:
    return p**pair.even * 2**pair.odd


@dataclass
class CharacterGeometry:
    chi: np.ndarray
    even_gram: np.ndarray
    odd_gram: np.ndarray
    centralizer: Subspace
    even_rank: int          # rank of the even block; always even
    odd_rank: int           # rank of the odd (symmetric) block
    max_isotropic: SuperDim
    exp_pair: SuperDim      # (m|n): attached dimension is p^m * 2^n

    def value(self, p: int) -> int:
        return attached_dimension(p, self.exp_pair)


def chi_geometry(g: LieSuperAlgebra, chi) -> CharacterGeometry:
    f = g.field
    chi = check_chi(g, chi)
    s, t, n = g.s_even, g.t_odd, g.n
    G = gram_matrix(g, chi)
    even_block = G[:s, :s]
    odd_block = G[s:, s:]
    k0 = nullspace(f, even_block)
    k1 = nullspace(f, odd_block)
    z0, z1 = len(k0), len(k1)
    b0, b1 = s - z0, t - z1
    _check_grams(f, s, G[None], np.array([b0]))
    # G is block diagonal and G^T = G up to the sign of the even block, so
    # ker G^T = ker G = ker(even block) + ker(odd block)
    kernel = np.zeros((z0 + z1, n), dtype=np.int64)
    kernel[:z0, :s] = k0
    kernel[z0:, s:] = k1
    zc = Subspace(f, s, n, kernel)
    d = SuperDim((s + z0) // 2, (t + z1) // 2)
    i = exponent_pair(b0, b1)
    assert d.even + i.even == s and d.odd + i.odd == t
    return CharacterGeometry(chi, even_block, odd_block, zc, b0, b1, d, i)


def chi_value(g: LieSuperAlgebra, chi: np.ndarray, x: np.ndarray):
    """chi(x): the value of chi on the even part of x, an int; for a stack
    of vectors (shape (..., n)) the array of values (shape (...))."""
    x = np.asarray(x, dtype=np.int64)
    vals = g.field.matmul(x[..., : g.s_even], chi.reshape(-1, 1))[..., 0]
    return int(vals) if x.ndim == 1 else vals


def restrict_chi(chi: np.ndarray, sub: Subalgebra) -> np.ndarray:
    """Values of chi on the even basis rows of a subalgebra."""
    rows = sub.rows[: sub.alg.s_even]
    return chi_value(sub.parent, chi, rows)


# ---------------------------------------------------------------------------
# maximal dimension scan


@dataclass
class MaxDimReport:
    pairs: List[SuperDim]            # all (m|n) attaining the maximum value
    witnesses: List[np.ndarray]      # first character found for each pair
    value_exponents: SuperDim        # lexicographically smallest maximizing pair
    exhaustive: bool
    scanned: int
    b0_max: int
    b1_max: int
    simultaneous_witness: Optional[np.ndarray]  # chi attaining both b0_max, b1_max

    def value(self, p: int) -> int:
        return attached_dimension(p, self.value_exponents)


# The most characters an exhaustive scan of `max_exponents` enumerates
SCAN_CAP = 10**6

# The largest module dimension built unless a caller (or `--budget`) says
# otherwise
DEFAULT_BUDGET = 4000

# Bytes of the Gram tensor of one block of characters in `max_exponents`;
# the scan's memory is bounded by a small multiple of this, whatever the
# number of characters
SCAN_BLOCK_BYTES = 1 << 21


def character_blocks(field: Field, s: int, exhaustive: bool, samples: int = 0,
                     seed: int = 0, block: int = 4096):
    """The characters of an algebra with s even basis elements, in scan
    order, as (B, s) arrays of at most `block` of them: all q^s in
    lexicographic order (the base-q digits of 0, 1, ..., most significant
    first), or `samples` draws from a generator seeded with `seed`.  A block
    of draws is the same draws one character at a time."""
    q = field.q
    if exhaustive:
        weights = q ** np.arange(s - 1, -1, -1, dtype=np.int64)
        for start in range(0, q**s, block):
            index = np.arange(start, min(start + block, q**s), dtype=np.int64)
            yield index[:, None] // weights % q
    else:
        rng = np.random.default_rng(seed)
        for start in range(0, samples, block):
            yield field.rand(rng, (min(block, samples - start), s))


def characters(field: Field, s: int, exhaustive: bool, samples: int = 0, seed: int = 0):
    """The characters of `character_blocks`, one array at a time."""
    for chis in character_blocks(field, s, exhaustive, samples, seed):
        yield from chis


def character_classes(g: LieSuperAlgebra, chis) -> List[int]:
    """For each character of `chis`, the index of the first character of
    `chis` in its class.

    A restricted automorphism phi gives U_chi(g) = U_(chi o phi^-1)(g), so
    every answer about U_chi(g) is constant on a class.  The classes are
    those of a union-find over `chis` alone: chi is joined to chi o phi =
    chi . Phi0 (Phi0 the even block of phi) for each generator phi of
    `lsa.restricted_automorphisms`, an exponential or a torus scaling, when
    both are in `chis`.  On the whole character space these are the orbits
    of the group the generators make; on a sample every class still lies in
    one orbit.  More generators only merge classes, and a class keeps its
    first character, so each representative is one that the exponentials
    alone would pick."""
    f, s = g.field, g.s_even
    parent = list(range(len(chis)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)

    stack = np.array(chis, dtype=np.int64).reshape(len(chis), s)
    index = {}
    for i, row in enumerate(stack):
        union(i, index.setdefault(row.tobytes(), i))
    for images in f.matmul(stack, restricted_automorphisms(g)[:, :s, :s]):
        for i, row in enumerate(images):
            j = index.get(row.tobytes())
            if j is not None:
                union(i, j)
    return [find(i) for i in range(len(chis))]


def max_exponents(
    g: LieSuperAlgebra,
    strategy: str = "exhaustive",
    seed: int = 0,
    samples: int = 200,
) -> MaxDimReport:
    """Scan characters for the largest attached dimension p^m * 2^n.

    Exhaustive mode enumerates all q^s characters (rejected when that count
    exceeds `SCAN_CAP`); random mode draws seeded samples.  Because both
    block ranks are ranks of matrices linear in the character, random
    sampling finds the generic (maximal) ranks with high probability once q
    is not tiny; the report records the sample count so the caller can judge.

    One pass keeps the first character of each pair of block ranks (b0, b1).
    The (m|n) pair of a character is a function of (b0, b1), so the witness
    of each maximizing pair and the simultaneous witness of (b0_max, b1_max)
    are both read off these first characters, in scan order.  The pass goes
    by blocks of characters whose Gram tensor fits in `SCAN_BLOCK_BYTES`:
    one product gives the block's Gram matrices, and one batched
    elimination the ranks of both of their diagonal blocks.  A character
    that breaks the grading raises the error `chi_geometry` raises for it.
    """
    f, p, s = g.field, g.field.p, g.s_even
    if strategy not in ("exhaustive", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    exhaustive = strategy == "exhaustive"
    if exhaustive and f.q**s > SCAN_CAP:
        raise BudgetExceeded(
            f"exhaustive scan needs {f.q**s} characters, over the scan cap of "
            f"{SCAN_CAP}; --strategy random samples characters instead")

    t, n = g.t_odd, g.n
    side = max(s, t)
    block = max(1, SCAN_BLOCK_BYTES // (8 * max(n * n, 1)))
    # (b0, b1) -> its first character; dicts keep scan order
    first = {}
    scanned = 0
    for chis in character_blocks(f, s, exhaustive, samples, seed, block):
        grams = gram_matrix(g, chis)
        # both diagonal blocks of each Gram matrix, padded with zeros to one
        # square size, which keeps their ranks
        diag = np.zeros((len(chis), 2, side, side), dtype=np.int64)
        diag[:, 0, :s, :s] = grams[:, :s, :s]
        diag[:, 1, :t, :t] = grams[:, s:, s:]
        rk = ranks(f, diag)
        _check_grams(f, s, grams, rk[:, 0])
        _, at = np.unique(rk, axis=0, return_index=True)
        for i in np.sort(at):
            first.setdefault((int(rk[i, 0]), int(rk[i, 1])), chis[i])
        scanned += len(chis)
    if not scanned:
        raise ValueError("the scan covered no character")
    # (m|n) -> its first character
    witness = {}
    for key, chi in first.items():
        witness.setdefault(exponent_pair(*key), chi)
    best = max(attached_dimension(p, e) for e in witness)
    pairs = sorted(e for e in witness if attached_dimension(p, e) == best)
    b0_max = max(b0 for b0, _ in first)
    b1_max = max(b1 for _, b1 in first)
    return MaxDimReport(
        pairs, [witness[pr] for pr in pairs], pairs[0], exhaustive, scanned,
        b0_max, b1_max, first.get((b0_max, b1_max)),
    )


# ---------------------------------------------------------------------------
# degraded subalgebras and polarization


def is_degraded(g: LieSuperAlgebra, chi, S: Subspace, geo: Optional[CharacterGeometry] = None):
    """Whether S has the maximal isotropic super-dimension and chi kills its
    derived subalgebra.  Returns (verdict, diagnostics)."""
    chi = check_chi(g, chi)
    if not is_subalgebra(g, S):
        raise LsaError("degradedness is only defined for subalgebras")
    geo = geo or chi_geometry(g, chi)
    derived = bracket_span(g, S, S)
    chi_kills = not np.any(chi_value(g, chi, derived.even_rows()))
    verdict = (SuperDim(*S.superdim) == geo.max_isotropic) and chi_kills
    diagnostics = {
        "superdim": SuperDim(*S.superdim),
        "target": geo.max_isotropic,
        "chi_kills_derived": chi_kills,
        "contains_centralizer": S.contains(geo.centralizer.basis),
        "p_closed": is_p_closed(g, S) if g.restricted else None,
    }
    return verdict, diagnostics


def polarization(g: LieSuperAlgebra, chi) -> Subspace:
    """A degraded subalgebra of a completely solvable algebra.

    Descends from the whole algebra through codimension-one subalgebras that
    contain the centralizer and keep the isotropy target (the maximal
    isotropic super-dimension of chi restricted to them); among valid steps
    the first in the fixed hyperplane enumeration order is taken, so the
    output is deterministic.  A step can lower the target, for instance a
    hyperplane whose normal line is not isotropic, so the target is part of
    what makes a step valid.  Raises NeedsFieldExtension when no step is
    valid over the working field.
    """
    chi = check_chi(g, chi)
    if not is_completely_solvable(g):
        raise LsaError("polarization requires a completely solvable algebra")
    geo = chi_geometry(g, chi)
    d = geo.max_isotropic
    cand = g.full_space()
    while SuperDim(*cand.superdim) != d:
        sub = as_subalgebra(g, cand)
        zc_rows = [sub.drop(row) for row in geo.centralizer.basis]
        z_sub = Subspace(g.field, sub.alg.s_even, sub.alg.n, zc_rows)
        for H in graded_hyperplanes_containing(sub.alg, z_sub):
            sd = SuperDim(*H.superdim)
            if sd.even < d.even or sd.odd < d.odd or not is_subalgebra(sub.alg, H):
                continue
            nxt = Subspace(g.field, g.s_even, g.n, g.field.matmul(H.basis, sub.rows))
            nxt_sub = as_subalgebra(g, nxt)
            if chi_geometry(nxt_sub.alg, restrict_chi(chi, nxt_sub)).max_isotropic == d:
                break
        else:
            raise NeedsFieldExtension(
                "polarization descent found no codimension-one subalgebra that keeps "
                f"the isotropy target {d} at super-dimension {SuperDim(*cand.superdim)} "
                f"over {g.field}")
        cand = nxt
    verdict, diag = is_degraded(g, chi, cand, geo)
    if not verdict:
        raise CounterexampleError(
            f"polarization candidate is not degraded: {diag}")
    return cand
