import numpy as np
import pytest

from superkw import chargeom
from superkw.chargeom import (
    BudgetExceeded,
    SuperDim,
    chi_geometry,
    is_degraded,
    max_exponents,
    polarization,
    restrict_chi,
)
from superkw.gflin import Field
from superkw.lsa import NeedsFieldExtension, Subspace, as_subalgebra, change_basis, is_p_closed
from superkw.lsafile import parse_lsa

from conftest import clifford_text, pair_algebra

F3 = Field(3)
F5 = Field(5)


def vec(*vals):
    return np.array(vals, dtype=np.int64)


def test_zero_character_trivial(gl11):
    geo = chi_geometry(gl11.algebra, vec(0, 0))
    assert geo.centralizer.dim == 4
    assert geo.even_rank == 0 and geo.odd_rank == 0
    assert geo.exp_pair == SuperDim(0, 0)
    assert geo.max_isotropic == SuperDim(2, 2)
    d, i = geo.max_isotropic, geo.exp_pair
    assert d == SuperDim(2, 2) and i == SuperDim(0, 0)


def test_gl11_typical(gl11):
    g = gl11.algebra
    geo = chi_geometry(g, vec(1, 0))
    assert geo.even_rank == 0 and geo.odd_rank == 2
    assert geo.exp_pair == SuperDim(0, 1)
    assert geo.max_isotropic == SuperDim(2, 1)
    assert geo.centralizer.superdim == (2, 0)


def test_2dim_solvable_geometry(solv2_p5):
    g = solv2_p5.algebra
    geo = chi_geometry(g, vec(0, 1))
    assert geo.centralizer.dim == 0
    assert geo.even_rank == 2 and geo.odd_rank == 0
    assert geo.exp_pair == SuperDim(1, 0)
    assert np.array_equal(
        geo.even_gram, np.array([[0, 1], [4, 0]])
    )


def test_odd_heisenberg_geometry(oddheis_p3):
    g = oddheis_p3.algebra
    geo = chi_geometry(g, vec(1))
    assert geo.even_rank == 0 and geo.odd_rank == 1
    assert geo.exp_pair == SuperDim(0, 1)
    assert geo.max_isotropic == SuperDim(1, 0)
    assert np.array_equal(geo.odd_gram, np.array([[1]]))


def test_superdata_sum_rule(gl11, osp12, oddheis_p3):
    # d + i equals the super-dimension, componentwise, for every character
    for ent in (gl11, osp12, oddheis_p3):
        g = ent.algebra
        rng = np.random.default_rng(2)
        for _ in range(15):
            chi = g.field.rand(rng, g.s_even)
            geo = chi_geometry(g, chi)
            assert geo.max_isotropic.even + geo.exp_pair.even == g.s_even
            assert geo.max_isotropic.odd + geo.exp_pair.odd == g.t_odd
            assert geo.even_rank % 2 == 0


def test_max_exponents_abelian():
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], [[0, 0], [0, 0]])
    rep = max_exponents(g)
    assert rep.value(3) == 1
    assert rep.pairs == [SuperDim(0, 0)]


def test_max_exponents_gl11(gl11):
    rep = max_exponents(gl11.algebra)
    assert rep.exhaustive and rep.scanned == 9
    assert rep.value(3) == 2
    assert rep.pairs == [SuperDim(0, 1)]
    # the witness really is typical
    w = rep.witnesses[0]
    assert (int(w[0]) + int(w[1])) % 3 != 0
    assert rep.b0_max == 0 and rep.b1_max == 2
    assert rep.simultaneous_witness is not None


def test_max_exponents_osp12(osp12):
    rep = max_exponents(osp12.algebra)
    assert rep.exhaustive and rep.scanned == 27
    assert rep.value(3) == 6
    assert rep.pairs == [SuperDim(1, 1)]


def test_max_exponents_budget(monkeypatch):
    monkeypatch.setattr(chargeom, "SCAN_CAP", 3)
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], [[0, 0], [0, 0]])
    with pytest.raises(BudgetExceeded):
        max_exponents(g)


def test_max_exponents_random_strategy(gl11):
    rep = max_exponents(gl11.algebra, strategy="random", samples=40, seed=1)
    assert not rep.exhaustive
    assert rep.value(3) == 2


def test_max_exponents_rejects_an_empty_scan(gl11):
    with pytest.raises(ValueError, match="no character"):
        max_exponents(gl11.algebra, strategy="random", samples=0)


def test_max_exponents_basis_change_invariant(gl11, oddheis_p3):
    rng = np.random.default_rng(6)
    for ent in (gl11, oddheis_p3):
        g = ent.algebra
        base = max_exponents(g).value(g.field.p)
        for _ in range(3):
            # random invertible graded transition matrix
            while True:
                P = np.zeros((g.n, g.n), dtype=np.int64)
                s = g.s_even
                P[:s, :s] = g.field.rand(rng, (s, s))
                P[s:, s:] = g.field.rand(rng, (g.n - s, g.n - s))
                from superkw.gflin import rank

                if rank(g.field, P) == g.n:
                    break
            g2 = change_basis(g, P)
            assert g2.validate() == []
            assert max_exponents(g2).value(g.field.p) == base


def test_is_degraded_whole_algebra_chi0(gl11):
    g = gl11.algebra
    ok, diag = is_degraded(g, vec(0, 0), g.full_space())
    assert ok and diag["chi_kills_derived"]


def test_is_degraded_gl11_cases(gl11):
    g = gl11.algebra
    chi = vec(1, 0)
    good = Subspace(F3, 2, 4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)])
    ok, diag = is_degraded(g, chi, good)
    assert ok and diag["p_closed"] and diag["contains_centralizer"]
    bad = g.full_space()
    ok2, diag2 = is_degraded(g, chi, bad)
    assert not ok2
    assert diag2["superdim"] != diag2["target"]


def test_polarization_abelian():
    g = pair_algebra(F3, ["a", "y"], [0, 1], [], [[0, 0]])
    P = polarization(g, vec(1))
    assert P.dim == 2


def test_polarization_2dim_solvable(solv2_p5):
    g = solv2_p5.algebra
    P = polarization(g, vec(0, 1))
    assert P.dim == 1
    ok, _ = is_degraded(g, vec(0, 1), P)
    assert ok


def test_polarization_gl11(gl11):
    g = gl11.algebra
    for chi in (vec(1, 0), vec(1, 1), vec(0, 2)):
        P = polarization(g, chi)
        assert SuperDim(*P.superdim) == SuperDim(2, 1)
        ok, diag = is_degraded(g, chi, P)
        assert ok
        assert diag["contains_centralizer"]
        assert is_p_closed(g, P)


def test_polarization_odd_heisenberg(oddheis_p3):
    g = oddheis_p3.algebra
    P = polarization(g, vec(1))
    assert SuperDim(*P.superdim) == SuperDim(1, 0)
    ok, _ = is_degraded(g, vec(1), P)
    assert ok


def test_polarization_keeps_the_isotropy_target_or_asks_for_an_extension():
    # z even, y1 and y2 odd, [y1, y1] = [y2, y2] = z, chi(z) = 1: the target
    # is (1|1), and the odd hyperplane y of a step keeps it only when its
    # normal line is isotropic, that is y = y1 + i y2 with i^2 = -1.  GF(3)
    # has no such i, so no step keeps the target there; GF(9) has one
    g = parse_lsa(clifford_text(1)).algebra
    assert chi_geometry(g, vec(1)).max_isotropic == SuperDim(1, 1)
    with pytest.raises(NeedsFieldExtension):
        polarization(g, vec(1))
    g9 = parse_lsa(clifford_text(2)).algebra
    P = polarization(g9, vec(1))
    assert SuperDim(*P.superdim) == SuperDim(1, 1)
    assert is_degraded(g9, vec(1), P)[0]


def test_polarization_deterministic(gl11):
    g = gl11.algebra
    P1 = polarization(g, vec(1, 0))
    P2 = polarization(g, vec(1, 0))
    assert P1 == P2


def test_restrict_chi(gl11):
    g = gl11.algebra
    S = Subspace(F3, 2, 4, [vec(1, 2, 0, 0)])
    sub = as_subalgebra(g, S)
    got = restrict_chi(vec(1, 1), sub)
    assert got.shape == (1,)
    assert int(got[0]) == 0  # 1*1 + 2*1 = 3 = 0 mod 3
