"""Memoised straightening and the triple assembly of induced modules."""

import hashlib
import os

import numpy as np
from hypothesis import given, settings, strategies as st

from superkw.chargeom import restrict_chi
from superkw.classical import baby_verma, catalog
from superkw.env import ReducedAlgebra, induce, regular_module
from superkw.lsa import Subspace, as_subalgebra
from superkw.lsafile import parse_lsa_path
from superkw.modules import validate_module

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")
# the odd-square rule (osp), the p-th-power rule with a zero p-map (heis), and
# GF(9) arithmetic (osp1_2_p3k2)
NAMES = ["gl1_1_p3", "osp1_2_p3", "heis_p3", "osp1_2_p3k2"]


def _alg(name):
    return parse_lsa_path(os.path.join(ALGEBRAS, name + ".lsa")).algebra


ALGS = {nm: _alg(nm) for nm in NAMES}


def reference_straighten(A, words):
    """The agenda loop straightening used before the memo: every term is
    rewritten on its own, however often it recurs."""
    f = A.field
    par = A.g.parities
    out = {}
    agenda = [(w, c) for w, c in words.items() if c]
    while agenda:
        w, c = agenda.pop()
        if not c:
            continue
        m = A._rightmost_violation(w)
        if m is None:
            run = A._even_p_run(w)
            if run is None:
                out[w] = f.add(out.get(w, 0), c)
                if not out[w]:
                    del out[w]
                continue
            start, gen = run
            rest = w[:start] + w[start + f.p :]
            for l, cl in A._pmap_terms(gen):
                agenda.append((rest[:start] + (l,) + rest[start:], f.mul(c, cl)))
            cp = int(A.chi_p[gen])
            if cp:
                agenda.append((rest, f.mul(c, cp)))
            continue
        a, b = w[m], w[m + 1]
        if a == b:
            for l, cl in A.pair.get((a, a), []):
                agenda.append((w[:m] + (l,) + w[m + 2 :], f.mul(c, f.mul(A.half, cl))))
            continue
        sign_c = f.neg(c) if (par[a] * par[b]) % 2 == 1 else c
        agenda.append((w[:m] + (b, a) + w[m + 2 :], sign_c))
        for l, cl in A.pair.get((a, b), []):
            agenda.append((w[:m] + (l,) + w[m + 2 :], f.mul(c, cl)))
    return out


@st.composite
def straighten_cases(draw):
    g = ALGS[draw(st.sampled_from(NAMES))]
    q = g.field.q
    chi = np.array(draw(st.lists(st.integers(0, q - 1), min_size=g.s_even,
                                 max_size=g.s_even)), dtype=np.int64)
    key = draw(st.permutations(range(g.n)))
    word = st.lists(st.integers(0, g.n - 1), min_size=0, max_size=7).map(tuple)
    words = draw(st.dictionaries(word, st.integers(0, q - 1), min_size=1, max_size=3))
    return g, chi, key, words


@settings(max_examples=200, derandomize=True, deadline=None)
@given(straighten_cases())
def test_memo_straighten_equals_agenda_loop(case):
    g, chi, key, words = case
    A = ReducedAlgebra(g, chi, order_key=key)
    ref = reference_straighten(A, words)
    assert A.straighten(words) == ref
    # a second call is served from the memo and gives the same dict
    assert A.straighten(words) == ref


def test_each_word_rewritten_once(osp12):
    A = ReducedAlgebra(osp12.algebra, np.array([1, 1, 0], dtype=np.int64))
    calls = []
    step = A._rewrite_step
    A._rewrite_step = lambda w: calls.append(w) or step(w)
    for u in range(A.g.n):
        for w in [(4, 3, 2, 1, 0), (3, 3, 4, 4, 1, 1, 1), (2, 2, 2, 0, 4, 3)]:
            A.straighten({(u,) + w: 1})
    assert len(calls) == len(set(calls)) == len(A._memo)


def _digest(a):
    a = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:16]


def _vec(*vals):
    return np.array(vals, dtype=np.int64)


def _regular(name, chi):
    return regular_module(ReducedAlgebra(_alg(name), _vec(*chi))).module


def _baby_verma_osp12():
    ent = catalog("osp(1|2)", 3)
    return baby_verma(ent.algebra, ent.triangular, _vec(0, 0, 0), _vec(0)).module


def _induced_gl11():
    # h = span(E11 + E22, E12 + E21): P is not a permutation, h-words act on
    # the 6-dim regular module of U(h) and are not all trivial
    g = catalog("gl(1|1)", 3).algebra
    space = Subspace.from_vectors(g.field, g.s_even, g.n, [_vec(1, 1, 0, 0), _vec(0, 0, 1, 1)])
    sub = as_subalgebra(g, space)
    chi = _vec(1, 2)
    S = regular_module(ReducedAlgebra(sub.alg, restrict_chi(chi, sub))).module
    assert S.dim == 6
    M = induce(g, chi, sub, S).module
    assert validate_module(M) == []
    return M


# sha256 prefixes of (action, parities), recorded with the unmemoised
# straightening and the dense per-block induction
GOLDEN = [
    (lambda: _regular("gl1_1_p3", (1, 0)), 36, "b78509c847d1c50a", "6e7cff90dc991eae"),
    (lambda: _regular("osp1_2_p3", (1, 1, 0)), 108, "4f9ecd24b3cca75f", "adf7477b049191f3"),
    (lambda: _regular("heis_p3", (0, 1, 0)), 27, "ffbcdbca23b0fe40", "471b2fd40aed052d"),
    (lambda: _regular("osp1_2_p3k2", (1, 0, 0)), 108, "1d166c5a5e2f2b72", "adf7477b049191f3"),
    (lambda: _regular("sl2_p5", (1, 1, 0)), 125, "43f46716865315fb", "f332ddb67069f029"),
    (lambda: _regular("oddheis_p3", (1,)), 6, "e238645a276b8caf", "89439e8ae7182a4e"),
    (_baby_verma_osp12, 6, "99591422601e2680", "89439e8ae7182a4e"),
    (_induced_gl11, 36, "c31a6c4a56b4ef2c", "a5e331b3152458b8"),
]


def test_induced_actions_match_recorded_digests():
    for build, dim, action_digest, parity_digest in GOLDEN:
        M = build()
        assert M.dim == dim
        assert M.action.dtype == np.int64
        assert (_digest(M.action), _digest(M.parities)) == (action_digest, parity_digest)
