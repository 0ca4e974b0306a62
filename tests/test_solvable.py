import hashlib
import math
import os
from collections import Counter

import numpy as np
import pytest

from superkw import solvable
from superkw.chargeom import DEFAULT_BUDGET, BudgetExceeded, SuperDim, characters, chi_value
from superkw.classical import catalog
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Field
from superkw.lsa import LsaError, Subspace, as_subalgebra
from superkw.lsafile import parse_lsa, parse_lsa_path
from superkw.modules import (
    SuperModule,
    composition_factors,
    is_graded_irreducible,
    validate_module,
    verify_dim_form,
)
from superkw.solvable import (
    _construct,
    _mu_stabilizer,
    _weight_solutions,
    construct_irreducible,
)

from conftest import (
    clifford_text,
    kronecker_endomorphism_dims,
    pair_algebra,
    polarization_module,
    reference_weight_system,
    regular_verdict,
)

ALGEBRAS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "algebras")
F3 = Field(3)
F5 = Field(5)


def vec(*vals):
    return np.array(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# stabilizers {X : chi([X, I]) = 0} of an ideal I


def i_chi(g, I, chi):
    return _mu_stabilizer(g, I, chi_value(g, chi, I.basis))


def test_i_chi_zero_character(solv2_p5):
    g = solv2_p5.algebra
    I = Subspace(F5, 2, 2, [vec(0, 1)])
    assert i_chi(g, I, vec(0, 0)).dim == 2


def test_i_chi_2dim_solvable(solv2_p5):
    g = solv2_p5.algebra
    I = Subspace(F5, 2, 2, [vec(0, 1)])
    stab = i_chi(g, I, vec(0, 1))
    assert stab.dim == 1 and stab.contains(vec(0, 1))


def test_i_chi_definition_level(gl11):
    # the stabilizer of the derived ideal against a typical character,
    # checked directly against the definition
    g = gl11.algebra
    chi = vec(1, 0)
    I = Subspace(F3, 2, 4, [vec(1, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)])
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
    S = Subspace(F3, 2, 4, [vec(0, 0, 1, 0)])
    with pytest.raises(LsaError):
        i_chi(g, S, vec(0, 0))


# ---------------------------------------------------------------------------
# weight equations


def test_weight_equations_torus_chi0(gl11):
    from superkw.lsa import as_subalgebra

    g = gl11.algebra
    cart = Subspace(F3, 2, 4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0)])
    sub = as_subalgebra(g, cart)
    count, sols = _weight_solutions(sub.alg, vec(0, 0))
    assert count == len(list(sols)) == 9  # x^p - x = 0 splits over the prime field


def test_weight_equations_pins(gl11):
    from superkw.lsa import as_subalgebra

    g = gl11.algebra
    cart = Subspace(F3, 2, 4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0)])
    sub = as_subalgebra(g, cart)
    count, sols = _weight_solutions(sub.alg, vec(0, 0), pins=((vec(1, 1), 0),))
    sols = list(sols)
    assert count == len(sols) == 3
    for lam in sols:
        assert (int(lam[0]) + int(lam[1])) % 3 == 0


@pytest.mark.parametrize("name,p,k", [
    ("gl(1|1)", 3, 1), ("gl(1|1)", 3, 3), ("gl(2|1)", 3, 1), ("gl(2|1)", 5, 2),
    ("osp(1|2)", 3, 2), ("sl(2)", 5, 1), ("heisenberg", 3, 1),
])
def test_weight_system_matches_scalar_reference(name, p, k, monkeypatch):
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
    assert Counter(rep.dims) == {5: 5}


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


def test_engine_oracle_fallback_on_a_superalgebra():
    # gl(1|1) at chi = (1, 0): no one-dimensional weight over GF(3) and no
    # extension within a cap of 1, so the engine falls over to the oracle,
    # whose largest factor is a (3|3) module with an odd part
    g = parse_lsa_path(os.path.join(ALGEBRAS, "gl1_1_p3.lsa")).algebra
    M, tr = construct_irreducible(g, vec(1, 0), ext_cap=1)
    assert (tr.terminal, tr.fallback) == ("oracle", True)
    assert M.dim == 6 and M.superdim == (3, 3)
    assert validate_module(M) == []
    assert is_graded_irreducible(M, 0)


def test_engine_oracle_over_budget_raises_budget_exceeded(solv2_p5):
    # no constructive route within the cap, and the 25-dim regular module
    # is over a budget of 5: an exhausted budget, not a failed construction.
    # The message names the cap the routes were tried up to
    with pytest.raises(BudgetExceeded, match="oracle budget is insufficient") as exc:
        construct_irreducible(solv2_p5.algebra, vec(2, 0), budget=5)
    assert "--ext-cap 4" in str(exc.value)
    with pytest.raises(BudgetExceeded, match="--ext-cap 2 "):
        construct_irreducible(solv2_p5.algebra, vec(2, 0), ext_cap=2, budget=5)


def test_construct_returns_none_without_a_route():
    # gl(1|1) at chi = (1, 0) over GF(3): its weights need GF(27), so no
    # route gives a module over the base field
    g = parse_lsa_path(os.path.join(ALGEBRAS, "gl1_1_p3.lsa")).algebra
    assert _construct(g, vec(1, 0), 0, DEFAULT_BUDGET, pins=()) is None


@pytest.mark.parametrize("rejected", [1, 2])
def test_descent_skips_a_rejected_module(heis_p3, rejected, monkeypatch):
    # the check turns down the module of its `rejected`-th call: the base
    # character inside the descent (the descent step then has no module),
    # or the module the descent induces.  Either way the descent has
    # nothing more to try, and the polarization route gives the module
    accepted = solvable._accepted
    calls = []

    def reject_once(M, seed):
        calls.append(M.dim)
        return len(calls) != rejected and accepted(M, seed)

    monkeypatch.setattr(solvable, "_accepted", reject_once)
    M, tr = construct_irreducible(heis_p3.algebra, vec(1, 0, 0))
    assert calls == [1, 3, 3][: rejected + 1]
    assert (tr.terminal, tr.extension_degree, tr.steps) == ("polarization", 1, [])
    assert M.dim == 3 and is_graded_irreducible(M, 0)


def test_descent_skips_an_induction_over_budget(heis_p3, monkeypatch):
    # the first induction, the descent's, is over budget: the descent skips
    # it, and the polarization route induces the module
    induce = solvable.induce
    calls = []

    def over_budget_once(*args, **kwargs):
        calls.append(args[2].space.superdim)
        if len(calls) == 1:
            raise BudgetExceeded("first induction")
        return induce(*args, **kwargs)

    monkeypatch.setattr(solvable, "induce", over_budget_once)
    M, tr = construct_irreducible(heis_p3.algebra, vec(1, 0, 0))
    assert calls == [(2, 0), (2, 0)]
    assert (tr.terminal, tr.extension_degree, tr.steps) == ("polarization", 1, [])
    assert M.dim == 3 and is_graded_irreducible(M, 0)


def test_engine_oracle_fallback_builds_no_regular_module_of_g(monkeypatch):
    # the fallback runs conjecture's two-level oracle: the 9-dim regular
    # module of g0 and the Kac modules induced from its classes, never the
    # p^s * 2^t = 36-dim regular module of U_chi(g)
    g = parse_lsa_path(os.path.join(ALGEBRAS, "gl1_1_p3.lsa")).algebra
    dims = []
    post_init = SuperModule.__post_init__
    monkeypatch.setattr(SuperModule, "__post_init__", lambda M: dims.append(M.dim) or post_init(M))
    M, tr = construct_irreducible(g, vec(1, 0), ext_cap=1)
    assert tr.terminal == "oracle" and M.superdim == (3, 3)
    assert max(dims) == 9


def test_engine_oracle_fallback_gates_on_the_modules_it_builds():
    # a budget of 20 admits every module the two-level oracle builds (at
    # most 9-dim), though not U_chi(g)'s 36-dim regular module; a budget of
    # 8 refuses g0's regular module
    g = parse_lsa_path(os.path.join(ALGEBRAS, "gl1_1_p3.lsa")).algebra
    M, tr = construct_irreducible(g, vec(1, 0), ext_cap=1, budget=20)
    assert tr.terminal == "oracle" and M.superdim == (3, 3)
    assert validate_module(M) == [] and is_graded_irreducible(M, 0)
    with pytest.raises(BudgetExceeded, match="oracle budget is insufficient"):
        construct_irreducible(g, vec(1, 0), ext_cap=1, budget=8)


def test_descent_draws_ideal_weights_lazily(monkeypatch):
    # gl(1|1) at chi = (1, 0) descends over GF(27) through a (1|1) ideal
    # with 3 weights, chi not vanishing on its p-th powers.  The first weight
    # induces an irreducible module, so it is the only one drawn
    g = parse_lsa_path(os.path.join(ALGEBRAS, "gl1_1_p3.lsa")).algebra
    inner = solvable._weight_solutions
    calls = []

    def counting(alg, chi_h, pins=()):
        count, sols = inner(alg, chi_h, pins)
        record = {"q": alg.field.q, "superdim": (alg.s_even, alg.t_odd), "count": count,
                  "drawn": 0}
        calls.append(record)

        def draw():
            for lam in sols:
                record["drawn"] += 1
                yield lam

        return count, draw()

    monkeypatch.setattr(solvable, "_weight_solutions", counting)
    M, tr = construct_irreducible(g, vec(1, 0))
    assert (tr.terminal, tr.extension_degree) == ("base", 3)
    assert [st.ideal_dim for st in tr.steps] == [(1, 1)]
    ideal = [(r["count"], r["drawn"]) for r in calls if r["q"] == 27 and r["superdim"] == (1, 1)]
    assert ideal == [(3, 1)]


def test_engine_tries_the_base_field_whatever_the_cap():
    # over GF(9) a cap of 1 is below the field's own degree 2; the base
    # field is still tried, and the descent reaches a weight there
    g = catalog("heisenberg", 3, 2).algebra
    for cap in (1, 2):
        M, tr = construct_irreducible(g, vec(1, 0, 0), ext_cap=cap)
        assert (tr.terminal, tr.fallback, tr.extension_degree) == ("base", False, 1)
        assert M.dim == 3 and validate_module(M) == []


def test_engine_gl11_typical(gl11):
    g = gl11.algebra
    M, tr = construct_irreducible(g, vec(1, 0))
    assert M.dim == 2
    assert is_graded_irreducible(M, 0)
    assert validate_module(M) == []
    assert tr.extension_degree == 3  # weights live in a cubic extension
    # trace consistency: codims accumulate to the output dimension
    assert math.prod(3 ** st.codims[0] * 2 ** st.codims[1] for st in tr.steps) == M.dim


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


def irr_digest(algebras) -> str:
    """sha256 of `construct_irreducible(g, chi, seed=0)` at every character
    of each named algebra: each module's dim, superdim, route, extension
    degree and steps, then its parities and action as int64 bytes.  A
    change to the engine that keeps every module keeps the digest."""
    digest = hashlib.sha256()
    for name, g in algebras:
        for chi in characters(g.field, g.s_even, True):
            M, tr = construct_irreducible(g, chi, seed=0)
            steps = [(st.ideal_dim, st.stabilizer_dim, st.codims) for st in tr.steps]
            digest.update(repr((name, [int(c) for c in chi], M.dim, M.superdim, tr.terminal,
                                tr.extension_degree, steps)).encode())
            digest.update(np.asarray(M.parities, dtype=np.int64).tobytes())
            digest.update(np.asarray(M.action, dtype=np.int64).tobytes())
    return digest.hexdigest()


# the four solvable files
SOLVABLE_IRR_DIGEST = "99a3883dac239a5a30b7840c2eae2c38d5bcdf2c3c5e6ba1bbe49dee4587ced2"
# the Borel subalgebras of sl(2|1) and osp(1|2) at p = 3 and of sl(2) at
# p = 5: the first takes the polarization route over GF(27) at 12
# characters, the last the oracle fallback at 4
BOREL_IRR_DIGEST = "20c585299320015ed8e19664ad8e6d2d856088c3393546996f37c762aaa83185"


def test_solvable_irr_modules_are_pinned():
    names = ("heis_p3", "solv2_p5", "gl1_1_p3", "oddheis_p3")
    assert irr_digest(
        (name, parse_lsa_path(os.path.join(ALGEBRAS, name + ".lsa")).algebra) for name in names
    ) == SOLVABLE_IRR_DIGEST


def test_solvable_irr_modules_of_borel_subalgebras_are_pinned():
    borels = []
    for name, p in (("sl(2|1)", 3), ("osp(1|2)", 3), ("sl(2)", 5)):
        e = catalog(name, p)
        borels.append((name, as_subalgebra(e.algebra, e.triangular.borel()).alg))
    assert irr_digest(borels) == BOREL_IRR_DIGEST


# ---------------------------------------------------------------------------
# probes


def test_verify_dim_form():
    assert verify_dim_form([1, 1, 1], 5)
    assert verify_dim_form([5, 25, 10, 2], 5)
    assert not verify_dim_form([6], 5)
    assert not verify_dim_form([0], 5)


def test_equidim_2dim_solvable_regular(solv2_p5):
    r = regular_verdict(solv2_p5.algebra, vec(0, 1))
    assert SuperDim(*r["exp_pair"]) == SuperDim(1, 0)
    assert r["predicted_dim"]["value"] == 5
    assert r["factor_dims"]["value"] == [5] * 5
    assert r["equidimensional"] and r["thm_agrees"] and r["dim_form_ok"]


def test_equidim_2dim_solvable_nilpotent(solv2_p5):
    r = regular_verdict(solv2_p5.algebra, vec(0, 0))
    assert r["predicted_dim"]["value"] == 1
    assert all(d == 1 for d in r["geometric_factor_dims"]["value"])
    assert r["thm_agrees"]


def test_equidim_gl11_chi0_reports_tension(gl11):
    # the verdict reports both sides; it must NOT raise on disagreement
    r = regular_verdict(gl11.algebra, vec(0, 0))
    assert r["predicted_dim"]["value"] == 1
    assert sorted(set(r["geometric_factor_dims"]["value"])) == [1, 2]
    assert not r["equidimensional"]
    assert not r["thm_agrees"]
    assert r["dim_form_ok"]


def test_equidim_gl11_typical_agrees(gl11):
    r = regular_verdict(gl11.algebra, vec(1, 0))
    assert r["predicted_dim"]["value"] == 2
    assert r["thm_agrees"]  # geometric dimensions


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
        verdict = regular_verdict(g, chi)
        if verdict["thm_agrees"]:
            rep = polarization_module(g, chi)
            assert rep.module.dim == verdict["geometric_factor_dims"]["value"][0]


@pytest.mark.parametrize("k,degree", [(1, 2), (2, 1)])
def test_polarization_route_extends_the_field(k, degree):
    # over GF(3) no polarization step keeps chi's isotropy target, and the
    # descent asks for an extension instead of stopping: the engine finds
    # the (1|1) module of GF(9) by the polarization route
    g = parse_lsa(clifford_text(k)).algebra
    M, tr = construct_irreducible(g, vec(1))
    assert (tr.terminal, tr.extension_degree) == ("polarization", degree)
    assert M.superdim == (1, 1) and validate_module(M) == []
    assert is_graded_irreducible(M)
