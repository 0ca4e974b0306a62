"""The graded Meataxe on fixed pieces, and the even elements it draws.

The pieces in `fixtures/gl2_1_p3_meataxe_pieces.json` are modules of
gl(2|1) at p = 3 on which every one of the Meataxe's attempts once failed,
when it dropped the odd words of its random even elements instead of
completing them.  They are read from the file, not taken from the random
path of a decomposition, so that a change of that path cannot swap them for
other pieces."""

import json
import os

import numpy as np
import pytest

from superkw import modules
from superkw.classical import catalog
from superkw.gflin import Echelon

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
