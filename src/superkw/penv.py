"""Minimal finite-dimensional p-envelope of a Lie superalgebra.

The even part acts on the whole algebra through ad; iterating matrix p-th
powers of that image inside End(g) until the span stabilizes yields the
restricted closure W.  One even generator is adjoined per closure dimension
beyond ad(g_0), acting on g as the corresponding derivation; brackets and
p-values of the new generators are pulled back through a fixed linear
section of ad (particular solutions with free coordinates zero, so the
construction is deterministic).  The retained center of g gets p-value 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .gflin import Echelon, rref, solve as lin_solve
from .lsa import (
    LieSuperAlgebra,
    Subspace,
    Violation,
    is_ideal,
    restricted_closure,
)


class EnvelopeError(RuntimeError):
    pass


@dataclass
class Envelope:
    algebra: LieSuperAlgebra         # the restricted envelope
    embed: np.ndarray                # (dim g, dim G): old basis in new coords
    added_even: int
    closure_dim: int                 # dim of the p-closure of ad(g_0)
    ad_image_dim: int                # dim of ad(g_0)


def minimal_p_envelope(g: LieSuperAlgebra) -> Envelope:
    """Envelope of a (not necessarily restricted) Lie superalgebra; the
    stored p-operation of the input, if any, is ignored."""
    f = g.field
    n, s, t = g.n, g.s_even, g.t_odd
    ad_rows = g.ad_matrix(f.eye(n)[:s]).reshape(s, n * n)
    ad = Echelon(f, n * n, ad_rows)

    # p-closure of the ad image under matrix p-th powers
    W = Echelon(f, n * n, ad.basis)
    while True:
        powers = f.mat_pow(W.basis.reshape(-1, n, n), f.p).reshape(-1, n * n)
        if not len(W.extend(powers)):
            break
    closure_dim = W.dim
    ad_dim = ad.dim

    # complement generators: closure basis rows independent of ad(g_0)
    derivs: List[np.ndarray] = []
    for row in W.basis:
        res = ad.reduce(row)
        if np.any(res):
            derivs.append(res)
            ad.extend(res)
    m = len(derivs)
    if m != closure_dim - ad_dim:
        raise EnvelopeError("complement extraction lost track of dimensions")

    span_cols = np.vstack([ad_rows, np.array(derivs).reshape(m, -1)]) if m else ad_rows

    N = n + m
    s_new = s + m
    names = list(g.names[:s]) + [f"w{r + 1}" for r in range(m)] + list(g.names[s:])
    parities = [0] * s_new + [1] * t

    # positions of the old basis in the new one, and of the new generators
    old = np.array([i if i < s else i + m for i in range(n)], dtype=np.int64)
    new = np.arange(s, s + m)
    Dmats = span_cols[s:].reshape(m, n, n)
    structure = np.zeros((N, N, N), dtype=np.int64)
    structure[np.ix_(old, old, old)] = g.structure
    # [v_r, e_j] = D_r e_j, and v_r is even: [e_j, v_r] = -[v_r, e_j]
    structure[np.ix_(new, old, old)] = Dmats.transpose(0, 2, 1)
    structure[np.ix_(old, new, old)] = f.neg_arr(Dmats.transpose(2, 0, 1))

    # the p-th powers of ad(g_0) and of the D_r, and the commutators
    # [D_r, D_q] for r != q, pulled back through the section in one block
    # solve: ad(a) + sum c_r D_r = M with free coordinates zero, so the new
    # coordinates are (a_even, c, 0)
    powers = f.mat_pow(span_cols.reshape(s_new, n, n), f.p).reshape(s_new, n * n)
    prod = f.matmul(Dmats[:, None], Dmats[None, :])
    rr, qq = np.nonzero(~np.eye(m, dtype=bool))
    comms = f.sub_arr(prod[rr, qq], prod[qq, rr]).reshape(len(rr), n * n)
    x = lin_solve(f, span_cols.T, np.vstack([powers, comms]).T)
    if x is None:
        raise EnvelopeError("matrix outside the restricted closure")
    pulled = np.zeros((s_new + len(rr), N), dtype=np.int64)
    pulled[:, :s_new] = x.T
    pmap = pulled[:s_new]
    structure[s + rr, s + qq] = pulled[s_new:]

    G = LieSuperAlgebra(f, names, parities, structure, pmap)
    embed = np.zeros((n, N), dtype=np.int64)
    embed[np.arange(n), old] = 1
    return Envelope(G, embed, m, closure_dim, ad_dim)


def verify_envelope(g: LieSuperAlgebra, env: Envelope) -> List[Violation]:
    """Axioms of the envelope, the embedding, ideality, generation, and the
    minimality dimension count."""
    out: List[Violation] = []
    G = env.algebra
    f = g.field
    out.extend(G.validate())
    n = g.n
    if env.embed.shape != (n, G.n):
        return out + [Violation("envelope-embed", (), "embedding has wrong shape")]
    emb_rref, piv = rref(f, env.embed)
    if len(piv) != n:
        out.append(Violation("envelope-embed", (), "embedding is not injective"))
    lhs = G.bracket(env.embed[:, None], env.embed)
    rhs = f.matmul(g.structure, env.embed)
    for i, j in np.argwhere(np.any(lhs != rhs, axis=2)).tolist():
        out.append(
            Violation(
                "envelope-homomorphism",
                (i, j),
                "embedding does not respect the bracket",
            )
        )
    img = Subspace(f, G.s_even, G.n, env.embed)
    if not is_ideal(G, img):
        out.append(Violation("envelope-ideal", (), "embedded algebra is not an ideal"))
    if G.restricted:
        closure = restricted_closure(G, img)
        if closure.dim != G.n:
            out.append(
                Violation(
                    "envelope-generation",
                    (),
                    f"restricted closure of the image has dimension {closure.dim}, "
                    f"not {G.n}",
                )
            )
    expected = g.n + env.closure_dim - env.ad_image_dim
    if G.n != expected:
        out.append(
            Violation(
                "envelope-minimality",
                (),
                f"dimension {G.n} differs from the minimal count {expected}",
            )
        )
    odd_new = G.t_odd
    if odd_new != g.t_odd:
        out.append(
            Violation("envelope-odd-part", (), "odd part changed under the envelope")
        )
    return out
