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
from typing import List, Tuple

import numpy as np

from .gflin import Echelon, rref, solve as lin_solve
from .lsa import (
    LieSuperAlgebra,
    LsaError,
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


def _ad_flat(g: LieSuperAlgebra, i: int) -> np.ndarray:
    return g.ad_matrix(g.basis_vector(i)).ravel()


def minimal_p_envelope(g: LieSuperAlgebra) -> Envelope:
    """Envelope of a (not necessarily restricted) Lie superalgebra; the
    stored p-operation of the input, if any, is ignored."""
    f = g.field
    n, s, t = g.n, g.s_even, g.t_odd
    ad_rows = np.array([_ad_flat(g, i) for i in range(s)], dtype=np.int64)
    if ad_rows.size == 0:
        ad_rows = np.zeros((0, n * n), dtype=np.int64)
    ad = Echelon(f, n * n, ad_rows)

    # p-closure of the ad image under matrix p-th powers
    W = Echelon(f, n * n, ad.basis)
    while True:
        powers = [f.mat_pow(row.reshape(n, n), f.p).ravel() for row in W.basis]
        if not W.extend(np.array(powers).reshape(-1, n * n)).shape[0]:
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

    def section(Mflat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(a, c) with ad(a) + sum c_r D_r = M, free coordinates zero; a is
        returned as a full (even-supported) coordinate vector of g."""
        x = lin_solve(f, span_cols.T, Mflat)
        if x is None:
            raise EnvelopeError("matrix outside the restricted closure")
        a_full = np.zeros(n, dtype=np.int64)
        a_full[:s] = x[:s]
        return a_full, x[s:]

    N = n + m
    s_new = s + m
    names = list(g.names[:s]) + [f"w{r + 1}" for r in range(m)] + list(g.names[s:])
    parities = [0] * s_new + [1] * t

    def to_new(a_vec: np.ndarray, c_vec: np.ndarray) -> np.ndarray:
        out = np.zeros(N, dtype=np.int64)
        out[:s] = a_vec[:s]
        out[s : s + m] = c_vec
        out[s + m :] = a_vec[s:]
        return out

    def embed_vec(v: np.ndarray) -> np.ndarray:
        return to_new(v, np.zeros(m, dtype=np.int64))

    structure = np.zeros((N, N, N), dtype=np.int64)

    def new_pos(i_old: int) -> int:
        return i_old if i_old < s else i_old + m

    for i in range(n):
        for j in range(n):
            structure[new_pos(i), new_pos(j)] = embed_vec(g.structure[i, j])
    Dmats = [d.reshape(n, n) for d in derivs]
    for r in range(m):
        vr = s + r
        for j in range(n):
            img = f.matmul(Dmats[r], g.basis_vector(j).reshape(-1, 1)).ravel()
            structure[vr, new_pos(j)] = embed_vec(img)
            # v_r is even: [x, v] = -[v, x]
            structure[new_pos(j), vr] = f.neg_arr(structure[vr, new_pos(j)])
        for q in range(m):
            if q == r:
                continue
            br = f.sub_arr(
                f.matmul(Dmats[r], Dmats[q]), f.matmul(Dmats[q], Dmats[r])
            ).ravel()
            a_vec, c_vec = section(br)
            structure[vr, s + q] = to_new(a_vec, c_vec)

    pmap = np.zeros((s_new, N), dtype=np.int64)
    for i in range(s):
        Mp = f.mat_pow(g.ad_matrix(g.basis_vector(i)), f.p).ravel()
        a_vec, c_vec = section(Mp)
        pmap[i] = to_new(a_vec, c_vec)
    for r in range(m):
        Mp = f.mat_pow(Dmats[r], f.p).ravel()
        a_vec, c_vec = section(Mp)
        pmap[s + r] = to_new(a_vec, c_vec)

    G = LieSuperAlgebra(f, names, parities, structure, pmap)
    embed = np.zeros((n, N), dtype=np.int64)
    for i in range(n):
        embed[i, new_pos(i)] = 1
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
