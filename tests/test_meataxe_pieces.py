"""The graded Meataxe on fixed pieces, and the even elements it draws.

The pieces in `fixtures/gl2_1_p3_meataxe_pieces.json` are modules of
gl(2|1) at p = 3 on which every one of the Meataxe's attempts once failed,
when it dropped the odd words of its random even elements instead of
completing them.  They are read from the file, not taken from the random
path of a decomposition, so that a change of that path cannot swap them for
other pieces.  The (2|2) module of `clifford_text(1)` is written out below
for the same reason: it is simple but not absolutely irreducible, and no
even element has a proper kernel on it."""

import json
import os

import numpy as np
import pytest

from superkw import modules
from superkw.classical import catalog
from superkw.gflin import Echelon
from superkw.lsafile import parse_lsa
from superkw.report import conjecture_report

from conftest import clifford_text, kronecker_endomorphism_dims

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _pieces():
    with open(os.path.join(FIXTURES, "gl2_1_p3_meataxe_pieces.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    g = catalog(*doc["algebra"]).algebra
    assert g.names == doc["names"]
    out = []
    for piece in doc["pieces"]:
        parities = np.array([int(c) for c in piece["parities"]], dtype=np.int64)
        d = parities.size
        action = np.array([[int(c) for c in A] for A in piece["action"]], dtype=np.int64)
        out.append(modules.SuperModule(alg=g, chi=np.array(piece["chi"], dtype=np.int64),
                                       parities=parities, action=action.reshape(g.n, d, d)))
    return out


PIECES = _pieces()


@pytest.mark.parametrize("M", PIECES, ids=[f"{M.superdim[0]}|{M.superdim[1]}" for M in PIECES])
def test_fixed_piece_gets_one_verdict_at_every_seed(M):
    # the (6|6) piece at chi = 0 and the (18|18) piece at chi = (1,0,0,1,1):
    # a verdict at each Meataxe seed 0-199, the same at all of them
    assert M.superdim in ((6, 6), (18, 18))
    assert modules.validate_module(M) == []
    verdicts = set()
    for seed in range(200):
        out = modules._find_proper_submodule(M, seed)
        if isinstance(out, Echelon):
            assert 0 < out.dim < M.dim
            # raises unless the row space is invariant
            modules.submodule_module(M, out)
        verdicts.add(isinstance(out, Echelon))
    assert verdicts == {False}


def test_every_drawn_word_is_even_and_kept():
    # a word of odd parity gets one more odd letter rather than being
    # dropped, so each draw keeps its 1-3 words, each of 1-4 letters
    M = PIECES[0]
    g = M.alg
    lengths = set()
    for seed in range(200):
        scalar, terms = modules._random_even_recipe(M, np.random.default_rng(seed))
        assert 1 <= len(terms) <= 3
        for word, _ in terms:
            assert sum(int(g.parities[i]) for i in word) % 2 == 0
            lengths.add(len(word))
    assert lengths == {1, 2, 3, 4}


def _clifford_piece():
    # the simple (2|2) module of `clifford_text(1)` at chi(z) = 1, written
    # out: z acts by 1, y1 and y2 square to 2 = 1/2 and anticommute, and
    # J = y1 y2 on the even side squares to 2 = -1
    g = parse_lsa(clifford_text(1)).algebra
    eye, zero = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
    J = np.array([[0, 2], [1, 0]], dtype=np.int64)
    y1 = np.block([[zero, 2 * eye], [eye, zero]])
    y2 = np.block([[zero, J], [J, zero]])
    return modules.SuperModule(alg=g, chi=np.array([1], dtype=np.int64),
                               parities=np.array([0, 0, 1, 1], dtype=np.int64),
                               action=np.stack([np.eye(4, dtype=np.int64), y1, y2]))


def test_clifford_piece_is_certified_at_every_seed():
    # every even element acts through GF(9) on each side, so none has a
    # proper kernel and only the a = 0 last resort is left, whose sides are
    # as large as End_even = GF(9).  The Meataxe draws T in End_even until T
    # generates it, instead of giving up on a T in GF(3)
    M = _clifford_piece()
    assert modules.validate_module(M) == []
    assert kronecker_endomorphism_dims(M) == (2, 2)
    for seed in range(200):
        K = modules._find_proper_submodule(M, seed)
        assert isinstance(K, modules.FactorClass)
        assert K.endo == (2, 2)


def test_clifford_conjecture_agrees_at_every_seed():
    # the reports differ in their seed field only
    af = parse_lsa(clifford_text(1))
    first = None
    for seed in range(10):
        doc = conjecture_report(af, seed=seed)
        assert doc.pop("seed") == seed
        assert doc["conjecture"]["status"] == "agree"
        first = first or doc
        assert doc == first


def test_end_even_is_solved_at_most_once_per_call(monkeypatch):
    # E = End_even(M) does not depend on theta: one solve decides it for a
    # piece, however many attempts are made.  Inside the Meataxe, the only
    # Hom solve on the piece itself is E's
    solves = []
    maps = modules.FactorClass._maps

    def counting(K, M, V):
        solves.append(M is K.module)
        return maps(K, M, V)

    monkeypatch.setattr(modules.FactorClass, "_maps", counting)
    for M in PIECES:
        for seed in range(50):
            solves.clear()
            modules._find_proper_submodule(M, seed)
            assert sum(solves) <= 1
