import numpy as np
import pytest

from superkw.chargeom import SuperDim
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Field
from superkw.lsa import LsaError, Subspace
from superkw.modules import (
    composition_factors,
    is_graded_irreducible,
    validate_module,
    verify_dim_form,
)
from superkw.report import equidim_probe
from superkw.solvable import (
    DescentTrace,
    construct_irreducible,
    i_chi,
    polarization_module,
    solve_weight_equations,
)

from conftest import kronecker_endomorphism_dims, pair_algebra

F3 = Field(3)
F5 = Field(5)


def vec(*vals):
    return np.array(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# stabilizers


def test_i_chi_zero_character(solv2_p5):
    g = solv2_p5.algebra
    I = Subspace.from_vectors(F5, 2, 2, [vec(0, 1)])
    assert i_chi(g, I, vec(0, 0)).dim == 2


def test_i_chi_2dim_solvable(solv2_p5):
    g = solv2_p5.algebra
    I = Subspace.from_vectors(F5, 2, 2, [vec(0, 1)])
    stab = i_chi(g, I, vec(0, 1))
    assert stab.dim == 1 and stab.contains(vec(0, 1))


def test_i_chi_definition_level(gl11):
    # the stabilizer of the derived ideal against a typical character,
    # checked directly against the definition
    g = gl11.algebra
    chi = vec(1, 0)
    I = Subspace.from_vectors(F3, 2, 4, [vec(1, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)])
    stab = i_chi(g, I, chi)
    f = g.field
    for j in range(g.n):
        in_stab = stab.contains(g.basis_vector(j))
        kills = all(
            int(f.matmul(g.bracket(g.basis_vector(j), row)[None, :2], chi.reshape(-1, 1)).ravel()[0]) == 0
            for row in I.basis
        )
        assert in_stab == kills


def test_i_chi_requires_ideal(gl11):
    g = gl11.algebra
    S = Subspace.from_vectors(F3, 2, 4, [vec(0, 0, 1, 0)])
    with pytest.raises(LsaError):
        i_chi(g, S, vec(0, 0))


# ---------------------------------------------------------------------------
# weight equations


def test_weight_equations_torus_chi0(gl11):
    from superkw.lsa import as_subalgebra

    g = gl11.algebra
    cart = Subspace.from_vectors(F3, 2, 4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0)])
    sub = as_subalgebra(g, cart)
    sols = solve_weight_equations(sub.alg, vec(0, 0))
    assert len(sols) == 9  # x^p - x = 0 splits over the prime field


def test_weight_equations_pins(gl11):
    from superkw.lsa import as_subalgebra

    g = gl11.algebra
    cart = Subspace.from_vectors(F3, 2, 4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0)])
    sub = as_subalgebra(g, cart)
    sols = solve_weight_equations(sub.alg, vec(0, 0), pins=((vec(1, 1), 0),))
    assert len(sols) == 3
    for lam in sols:
        assert (int(lam[0]) + int(lam[1])) % 3 == 0


@pytest.mark.parametrize("name,p,k", [
    ("gl(1|1)", 3, 1), ("gl(1|1)", 3, 3), ("gl(2|1)", 3, 1), ("gl(2|1)", 5, 2),
    ("osp(1|2)", 3, 2), ("sl(2)", 5, 1), ("heisenberg", 3, 1),
])
def test_weight_system_matches_scalar_reference(name, p, k, monkeypatch):
    from superkw import solvable
    from superkw.classical import catalog

    from conftest import reference_weight_system

    systems = []
    solve = solvable.lin_solve
    monkeypatch.setattr(solvable, "lin_solve",
                        lambda F, M, b: systems.append((M, b)) or solve(F, M, b))
    alg = catalog(name, p, k).algebra
    f, s = alg.field, alg.s_even
    rng = np.random.default_rng(0)
    for npins in range(3):
        chi_h = f.rand(rng, s)
        pins = tuple((f.rand(rng, s), int(f.rand(rng))) for _ in range(npins))
        solvable._weight_solutions(alg, chi_h, pins)
        M, b = reference_weight_system(alg, chi_h, pins)
        assert np.array_equal(systems[-1][0], M) and np.array_equal(systems[-1][1], b)


# ---------------------------------------------------------------------------
# the constructive engine


def test_engine_abelian():
    g = pair_algebra(F5, ["a", "b"], [0, 0], [], [[0, 0], [0, 0]])
    M, tr = construct_irreducible(g, vec(1, 3))
    assert M.dim == 1 and tr.terminal == "base"
    assert validate_module(M) == []


def test_engine_2dim_solvable(solv2_p5):
    g = solv2_p5.algebra
    M, tr = construct_irreducible(g, vec(0, 1))
    assert M.dim == 5
    assert not tr.fallback
    assert len(tr.steps) == 1
    assert tr.steps[0].ideal_dim == (1, 0)
    assert tr.steps[0].stabilizer_dim == (1, 0)
    assert tr.steps[0].codims == (1, 0)
    assert is_graded_irreducible(M, 0) and validate_module(M) == []
    # oracle agreement
    rep = composition_factors(regular_module(ReducedAlgebra(g, vec(0, 1))).module, 0)
    assert rep.multiset() == {5: 5}


def test_engine_2dim_solvable_nilpotent_character(solv2_p5):
    g = solv2_p5.algebra
    # chi(x) = 0, chi(h) = 0: one-dimensional base over the prime field
    M0, tr0 = construct_irreducible(g, vec(0, 0))
    assert M0.dim == 1 and tr0.terminal == "base"
    # chi(h) = 2: the weight equation needs a degree-5 extension, beyond the
    # default cap, so the engine falls over to the oracle and returns the
    # rational factor (dimension 5 over GF(5), geometrically a line)
    M, tr = construct_irreducible(g, vec(2, 0))
    assert tr.fallback and M.dim == 5
    ee, _ = kronecker_endomorphism_dims(M)
    assert ee == 5
    # with the cap raised the constructive route reaches the weight
    M5, tr5 = construct_irreducible(g, vec(2, 0), ext_cap=5)
    assert M5.dim == 1 and tr5.extension_degree == 5


def test_engine_gl11_typical(gl11):
    g = gl11.algebra
    M, tr = construct_irreducible(g, vec(1, 0))
    assert M.dim == 2
    assert is_graded_irreducible(M, 0)
    assert validate_module(M) == []
    assert tr.extension_degree == 3  # weights live in a cubic extension
    # trace consistency: codims accumulate to the output dimension
    assert tr.predicted_dim(3, 1) == M.dim


def test_engine_odd_heisenberg(oddheis_p3):
    g = oddheis_p3.algebra
    M, tr = construct_irreducible(g, vec(1))
    assert M.dim == 2 and validate_module(M) == []


def test_engine_trace_shape_rule(gl11, solv2_p5, oddheis_p3):
    # output dimension is p^n * 2^(odd codimension accumulated)
    for ent, chi in ((gl11, vec(1, 0)), (solv2_p5, vec(0, 1)), (oddheis_p3, vec(1))):
        g = ent.algebra
        M, tr = construct_irreducible(g, chi)
        p = g.field.p
        even_co = sum(st.codims[0] for st in tr.steps)
        odd_co = sum(st.codims[1] for st in tr.steps)
        if tr.terminal == "base":
            assert M.dim == p**even_co * 2**odd_co
        assert M.dim % 2**odd_co == 0


def test_engine_outputs_validate_and_irreducible(gl11, heis_p3):
    rng = np.random.default_rng(5)
    for ent in (gl11, heis_p3):
        g = ent.algebra
        for _ in range(4):
            chi = g.field.rand(rng, g.s_even)
            M, tr = construct_irreducible(g, chi)
            assert validate_module(M) == []
            assert is_graded_irreducible(M, 1)


# ---------------------------------------------------------------------------
# probes


def test_verify_dim_form():
    assert verify_dim_form([1, 1, 1], 5)
    assert verify_dim_form([5, 25, 10, 2], 5)
    assert not verify_dim_form([6], 5)
    assert not verify_dim_form([0], 5)


def test_equidim_2dim_solvable_regular(solv2_p5):
    r = equidim_probe(solv2_p5.algebra, vec(0, 1))
    assert r.predicted_exponents == SuperDim(1, 0)
    assert r.predicted_dim == 5
    assert r.factor_dims == [5] * 5
    assert r.equidimensional and r.agrees_with_prediction and r.dim_form_ok


def test_equidim_2dim_solvable_nilpotent(solv2_p5):
    r = equidim_probe(solv2_p5.algebra, vec(0, 0))
    assert r.predicted_dim == 1
    assert all(d == 1 for d in r.geometric_dims)
    assert r.agrees_with_prediction


def test_equidim_gl11_chi0_reports_tension(gl11):
    # the probe reports both sides; it must NOT raise on disagreement
    r = equidim_probe(gl11.algebra, vec(0, 0))
    assert r.predicted_dim == 1
    assert sorted(set(r.geometric_dims)) == [1, 2]
    assert not r.equidimensional
    assert not r.agrees_with_prediction
    assert r.dim_form_ok


def test_equidim_gl11_typical_agrees(gl11):
    r = equidim_probe(gl11.algebra, vec(1, 0))
    assert r.predicted_dim == 2
    assert r.agrees_with_prediction  # geometric dimensions


# ---------------------------------------------------------------------------
# polarization modules


def test_polarization_module_abelian():
    # the polarization of an abelian algebra is everything: empty cobasis,
    # so the induced module is the one-dimensional character itself
    g = pair_algebra(F3, ["a", "y"], [0, 1], [], [[0, 0]])
    rep = polarization_module(g, vec(0))
    assert rep.module.dim == 1
    assert rep.irreducible
    assert rep.polarization_superdim == (1, 1)


def test_polarization_module_gl11(gl11):
    g = gl11.algebra
    rep = polarization_module(g, vec(1, 0))
    assert rep.module.dim == 2
    assert rep.irreducible
    assert rep.polarization_superdim == (2, 1)
    assert rep.extension_degree == 3
    # matches the oracle's geometric factor dimension
    oracle = composition_factors(
        regular_module(ReducedAlgebra(g, vec(1, 0))).module, 0
    )
    assert set(oracle.geometric_dims) == {rep.module.dim}


def test_polarization_module_odd_heisenberg(oddheis_p3):
    g = oddheis_p3.algebra
    rep = polarization_module(g, vec(1))
    assert rep.module.dim == 2
    assert rep.irreducible
    assert rep.extension_degree == 1
    # explicit Clifford shape: the odd generator swaps the two lines
    rho_y = rep.module.action[1]
    assert rho_y[0, 0] == 0 and rho_y[1, 1] == 0
    assert rho_y[0, 1] != 0 and rho_y[1, 0] != 0
    # y^2 = (1/2) chi(z)
    f = g.field
    sq = f.matmul(rho_y, rho_y)
    half_chi = f.mul(f.inv(2), 1)
    assert np.array_equal(sq, f.mul_arr(half_chi, f.eye(2)))


def test_polarization_module_matches_equidim(gl11, oddheis_p3, solv2_p5):
    cases = [(gl11, vec(1, 2)), (oddheis_p3, vec(2)), (solv2_p5, vec(0, 2))]
    for ent, chi in cases:
        g = ent.algebra
        probe = equidim_probe(g, chi)
        if probe.agrees_with_prediction:
            rep = polarization_module(g, chi)
            assert rep.module.dim == probe.geometric_dims[0]
