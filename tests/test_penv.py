import numpy as np

from superkw.gflin import Field
from superkw.lsa import LieSuperAlgebra, is_solvable
from superkw.penv import Envelope, minimal_p_envelope, verify_envelope

from conftest import pair_algebra

F3 = Field(3)


def cyclic_shift(field=F3):
    """x and a 3-cycle of y's, all even: ad(x)^3 is the identity on the
    y-span, which is outside ad(g)."""
    pairs = [
        (0, 1, [0, 0, 1, 0]),
        (0, 2, [0, 0, 0, 1]),
        (0, 3, [0, 1, 0, 0]),
    ]
    return pair_algebra(field, ["x", "y1", "y2", "y3"], [0, 0, 0, 0], pairs, None)


def test_cyclic_shift_envelope():
    g = cyclic_shift()
    env = minimal_p_envelope(g)
    assert env.algebra.n == 5
    assert env.added_even == 1
    assert verify_envelope(g, env) == []
    assert env.algebra.validate() == []


def test_cyclic_shift_is_solvable_but_envelope_needed():
    g = cyclic_shift()
    assert is_solvable(g)


def test_already_restrictable_adds_nothing():
    g = pair_algebra(F3, ["h", "x"], [0, 0], [(0, 1, [0, 1])], None)
    env = minimal_p_envelope(g)
    assert env.added_even == 0
    assert env.algebra.n == 2
    assert verify_envelope(g, env) == []
    assert np.array_equal(env.algebra.pmap, np.array([[1, 0], [0, 0]]))


def test_abelian_envelope_zero_pmap():
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], None)
    env = minimal_p_envelope(g)
    assert env.added_even == 0
    assert not np.any(env.algebra.pmap)
    assert verify_envelope(g, env) == []


def test_super_input_keeps_odd_part(oddheis_p3):
    g0 = oddheis_p3.algebra
    g = LieSuperAlgebra(g0.field, g0.names, g0.parities, g0.structure, None)
    env = minimal_p_envelope(g)
    assert env.algebra.t_odd == 1
    assert env.added_even == 0
    assert verify_envelope(g, env) == []


def test_gl11_forget_pmap_reenvelope(gl11):
    g0 = gl11.algebra
    g = LieSuperAlgebra(g0.field, g0.names, g0.parities, g0.structure, None)
    env = minimal_p_envelope(g)
    # ad-closure of the diagonal torus lands back inside ad(g), so nothing
    # is adjoined; the center's p-value is set to zero by convention
    assert env.added_even == 0
    assert verify_envelope(g, env) == []


def test_corrupted_pmap_caught():
    g = cyclic_shift()
    env = minimal_p_envelope(g)
    pm = env.algebra.pmap.copy()
    pm[0] = (pm[0] + np.eye(1, env.algebra.n, dtype=np.int64)[0]) % 3
    bad_alg = LieSuperAlgebra(
        env.algebra.field, env.algebra.names, env.algebra.parities,
        env.algebra.structure, pm,
    )
    bad = Envelope(bad_alg, env.embed, env.added_even, env.closure_dim, env.ad_image_dim)
    violations = verify_envelope(g, bad)
    assert any(v.axiom == "p-map-ad" for v in violations)


def test_wrong_embedding_witnesses_in_row_major_order():
    g = cyclic_shift()
    env = minimal_p_envelope(g)
    G, f = env.algebra, g.field
    embed = env.embed[[0, 2, 1, 3]]  # y1 and y2 swapped: not a homomorphism
    bad = Envelope(G, embed, env.added_even, env.closure_dim, env.ad_image_dim)
    # loop form: one bracket per pair (i, j), row-major
    expect = []
    for i in range(g.n):
        for j in range(g.n):
            lhs = G.bracket(embed[i], embed[j])
            rhs = f.matmul(g.structure[i, j][None, :], embed).ravel()
            if not np.array_equal(lhs, rhs):
                expect.append((i, j))
    found = [v.witness for v in verify_envelope(g, bad) if v.axiom == "envelope-homomorphism"]
    assert found == expect and len(expect) > 1


def test_superfluous_generator_caught():
    g = cyclic_shift()
    env = minimal_p_envelope(g)
    fake = Envelope(env.algebra, env.embed, env.added_even + 1,
                    env.closure_dim + 1, env.ad_image_dim)
    violations = verify_envelope(g, fake)
    assert any(v.axiom == "envelope-minimality" for v in violations)


def test_envelope_module_correspondence():
    # irreducible dimensions through the envelope match the solvable engine
    from superkw.env import ReducedAlgebra, regular_module
    from superkw.modules import composition_factors
    from superkw.solvable import construct_irreducible

    g = cyclic_shift()
    env = minimal_p_envelope(g)
    G = env.algebra
    chi = np.array([1, 0, 0, 0, 0], dtype=np.int64)  # chi(x) = 1 on the envelope
    M, trace = construct_irreducible(G, chi, budget=4100)
    rep = composition_factors(
        regular_module(ReducedAlgebra(G, chi), budget=4100).module, 0
    )
    assert M.dim in rep.geometric_dims or M.dim in rep.dims
    assert max(rep.geometric_dims) == M.dim
