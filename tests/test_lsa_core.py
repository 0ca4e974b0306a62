import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkw.chargeom import chi_geometry
from superkw.gflin import Field
from superkw.lsa import (
    LieSuperAlgebra,
    LsaError,
    NeedsFieldExtension,
    Subspace,
    as_subalgebra,
    change_basis,
    derived_subalgebra,
    extend_scalars,
    graded_hyperplanes_containing,
    is_completely_solvable,
    is_ideal,
    is_nilpotent_subalg,
    is_p_closed,
    is_solvable,
    is_subalgebra,
    one_dim_ideal_flag,
    restricted_closure,
    scalar_extensions,
)

from conftest import center, graded_span, pair_algebra, reference_graded_hyperplanes

F3 = Field(3)
F5 = Field(5)
F9 = Field(3, 2)


def vec(*vals):
    return np.array(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# validation


def test_gl11_validates(gl11):
    assert gl11.algebra.validate() == []


def test_catalog_members_validate(osp12, sl2_p5, solv2_p5, oddheis_p3, heis_p3):
    for ent in (osp12, sl2_p5, solv2_p5, oddheis_p3, heis_p3):
        assert ent.algebra.validate() == [], ent.name


def test_abelian_validates():
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], [[0, 0], [0, 0]])
    assert g.validate() == []


def test_sign_flip_caught(gl11):
    g = gl11.algebra
    c = g.structure.copy()
    i, j = 2, 3  # the odd pair
    c[i, j] = F3.neg_arr(c[i, j])  # flip only one side: sign rule breaks
    bad = LieSuperAlgebra(g.field, g.names, g.parities, c, g.pmap)
    axioms = {v.axiom for v in bad.validate()}
    assert "super-skew" in axioms


def test_consistent_sign_flip_breaks_jacobi(gl11):
    g = gl11.algebra
    c = g.structure.copy()
    # flip only the first Cartan component of [e,f], keeping the sign rule:
    # the result is skew-consistent but fails the Jacobi identity
    c[2, 3, 0] = F3.neg(int(c[2, 3, 0]))
    c[3, 2, 0] = F3.neg(int(c[3, 2, 0]))
    bad = LieSuperAlgebra(g.field, g.names, g.parities, c, g.pmap)
    axioms = {v.axiom for v in bad.validate()}
    assert "super-jacobi" in axioms


def test_grading_break_caught(gl11):
    g = gl11.algebra
    c = g.structure.copy()
    c[0, 1, 2] = 1  # [even,even] with an odd component
    bad = LieSuperAlgebra(g.field, g.names, g.parities, c, g.pmap)
    axioms = {v.axiom for v in bad.validate()}
    assert "grading" in axioms


def test_pmap_corruption_caught(gl11):
    g = gl11.algebra
    pm = g.pmap.copy()
    pm[0] = (pm[0] + np.array([0, 1, 0, 0])) % 3
    bad = LieSuperAlgebra(g.field, g.names, g.parities, g.structure, pm)
    axioms = {v.axiom for v in bad.validate()}
    assert "p-map-ad" in axioms


def test_pmap_parity_caught(gl11):
    g = gl11.algebra
    pm = g.pmap.copy()
    pm[0, 2] = 1
    bad = LieSuperAlgebra(g.field, g.names, g.parities, g.structure, pm)
    axioms = {v.axiom for v in bad.validate()}
    assert "pmap-parity" in axioms


# ---------------------------------------------------------------------------
# brackets and the p-operation


def test_bracket_e_f(gl11):
    g = gl11.algebra
    assert np.array_equal(g.bracket(vec(0, 0, 1, 0), vec(0, 0, 0, 1)), vec(1, 1, 0, 0))


def test_bracket_even_self_zero(gl11):
    g = gl11.algebra
    x = vec(1, 2, 0, 0)
    assert not np.any(g.bracket(x, x))


def test_bracket_central(gl11):
    g = gl11.algebra
    z = vec(1, 1, 0, 0)
    for j in range(4):
        assert not np.any(g.bracket(z, g.basis_vector(j)))


def test_p_power_basis_is_stored(gl11):
    g = gl11.algebra
    for i in range(2):
        assert np.array_equal(g.p_power(g.basis_vector(i)), g.pmap[i])


def test_p_power_scalar_rule(gl11):
    g = gl11.algebra
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = np.zeros(4, dtype=np.int64)
        x[:2] = g.field.rand(rng, 2)
        c = int(g.field.rand(rng))
        lhs = g.p_power(g.field.mul_arr(c, x))
        rhs = g.field.mul_arr(g.field.pow(c, 3), g.p_power(x))
        assert np.array_equal(lhs, rhs)


def test_p_power_abelian_additive():
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], [[0, 1], [1, 0]])
    x, y = vec(1, 0), vec(0, 1)
    lhs = g.p_power((x + y) % 3)
    rhs = (g.p_power(x) + g.p_power(y)) % 3
    assert np.array_equal(lhs, rhs)  # all correction terms vanish


def test_p_power_sum_vs_ad_identity(solv2_p5):
    # (h+x)^[p] must satisfy ad((h+x)^[p]) = ad(h+x)^p
    g = solv2_p5.algebra
    f = g.field
    w = vec(1, 1)
    pw = g.p_power(w)
    assert np.array_equal(g.ad_matrix(pw), f.mat_pow(g.ad_matrix(w), f.p))


def test_ad_p_power_identity_random(gl11, osp12):
    for ent in (gl11, osp12):
        g = ent.algebra
        f = g.field
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = np.zeros(g.n, dtype=np.int64)
            x[: g.s_even] = f.rand(rng, g.s_even)
            pw = g.p_power(x)
            assert np.array_equal(g.ad_matrix(pw), f.mat_pow(g.ad_matrix(x), f.p))


# ---------------------------------------------------------------------------
# series, center, closure


def test_gl11_solvable_and_completely(gl11):
    g = gl11.algebra
    assert is_solvable(g)
    assert is_completely_solvable(g)
    der = derived_subalgebra(g)
    assert der.dim == 3
    assert is_nilpotent_subalg(g, der)


def test_sl2_not_solvable(sl2_p5):
    g = sl2_p5.algebra
    assert derived_subalgebra(g).dim == 3
    assert not is_solvable(g)


def test_abelian_solvable():
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], [[0, 0], [0, 0]])
    assert is_solvable(g) and is_completely_solvable(g)


def test_center_gl11(gl11):
    z = center(gl11.algebra)
    assert z.dim == 1
    assert z.contains(vec(1, 1, 0, 0))


def test_center_abelian_full():
    g = pair_algebra(F3, ["a", "b"], [0, 0], [], [[0, 0], [0, 0]])
    assert center(g).dim == 2


def test_center_sl2_zero(sl2_p5):
    assert center(sl2_p5.algebra).dim == 0


def _closure(g, vecs):
    return restricted_closure(g, Subspace(g.field, g.s_even, g.n, vecs))


def test_closure_single_odd(gl11):
    g = gl11.algebra
    S = _closure(g, [vec(0, 0, 1, 0)])
    assert S.dim == 1


def test_closure_e_f(gl11):
    g = gl11.algebra
    S = _closure(g, [vec(0, 0, 1, 0), vec(0, 0, 0, 1)])
    assert S.dim == 3
    assert S.contains(vec(1, 1, 0, 0))
    # closure is idempotent
    assert restricted_closure(g, S) == S


def test_centralizer_p_closed_probe(gl11):
    # the centralizer of any character is closed under the p-operation
    g = gl11.algebra
    rng = np.random.default_rng(4)
    for _ in range(20):
        chi = g.field.rand(rng, 2)
        geo = chi_geometry(g, chi)
        assert is_p_closed(g, geo.centralizer)
        assert is_subalgebra(g, geo.centralizer)
        # the center sits inside every centralizer
        assert geo.centralizer.contains(center(g).basis)


def test_ideal_and_p_closed(gl11):
    g = gl11.algebra
    S = Subspace(F3, 2, 4, [vec(1, 1, 0, 0), vec(0, 0, 1, 0)])
    assert is_ideal(g, S)
    assert is_p_closed(g, S)
    T = Subspace(F3, 2, 4, [vec(0, 0, 1, 0)])
    assert not is_ideal(g, T)


# ---------------------------------------------------------------------------
# flags of ideals


def test_flag_abelian_1_1():
    g = pair_algebra(F3, ["a", "y"], [0, 1], [], [[0, 0]])
    flag = one_dim_ideal_flag(g)
    assert [s.dim for s in flag] == [2, 1, 0]
    for s in flag:
        assert is_ideal(g, s)


def test_flag_2dim_solvable(solv2_p5):
    g = solv2_p5.algebra
    flag = one_dim_ideal_flag(g)
    assert [s.dim for s in flag] == [2, 1, 0]
    assert flag[1].contains(vec(0, 1))  # span{x} is the unique line ideal


def test_flag_gl11_checked(gl11):
    g = gl11.algebra
    flag = one_dim_ideal_flag(g)
    dims = [s.dim for s in flag]
    assert dims == [4, 3, 2, 1, 0]
    for i, s in enumerate(flag):
        assert is_ideal(g, s)
        if i:
            assert flag[i - 1].contains(s.basis)


def test_flag_requires_completely_solvable(sl2_p5):
    with pytest.raises(LsaError):
        one_dim_ideal_flag(sl2_p5.algebra)


def test_flag_extension_path():
    # even rotation: [h,a]=b, [h,b]=-a has no line ideal over GF(3)
    g = pair_algebra(
        F3, ["h", "a", "b"], [0, 0, 0],
        [(0, 1, [0, 0, 1]), (0, 2, [0, -1, 0])],
        [[-1, 0, 0], [0, 0, 0], [0, 0, 0]],
    )
    assert g.validate() == []
    assert is_completely_solvable(g)
    with pytest.raises(NeedsFieldExtension):
        one_dim_ideal_flag(g)
    g9, _ = extend_scalars(g, Field(3, 2))
    flag = one_dim_ideal_flag(g9)
    assert [s.dim for s in flag] == [3, 2, 1, 0]


# ---------------------------------------------------------------------------
# presentations and base change


def test_as_subalgebra_roundtrip(gl11):
    g = gl11.algebra
    S = _closure(g, [vec(0, 0, 1, 0), vec(0, 0, 0, 1)])
    sub = as_subalgebra(g, S)
    assert sub.alg.validate() == []
    assert sub.alg.superdim == (1, 2)
    # brackets commute with the presentation
    for a in range(3):
        for b in range(3):
            lifted = g.bracket(sub.rows[a], sub.rows[b])
            local = sub.alg.bracket(
                sub.alg.basis_vector(a), sub.alg.basis_vector(b)
            )
            assert np.array_equal(g.field.matmul(local, sub.rows), lifted)


def test_change_basis_preserves_validity(gl11):
    g = gl11.algebra
    P = np.array(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=np.int64
    )
    g2 = change_basis(g, P)
    assert g2.validate() == []
    assert is_completely_solvable(g2)


def test_quotient_is_lie(gl11):
    from superkw.lsa import quotient_by_ideal

    g = gl11.algebra
    z = Subspace(F3, 2, 4, [vec(1, 1, 0, 0)])
    q, keep = quotient_by_ideal(g, z)
    assert q.n == 3
    # quotient of a solvable algebra is solvable
    assert is_solvable(q)


@pytest.mark.parametrize("k,cap", [(1, 4), (2, 4), (2, 5), (1, 1), (2, 1), (1, 0)])
def test_scalar_extensions(k, cap):
    f = Field(3, k)
    # odd Heisenberg: [y, y] = z
    g = pair_algebra(f, ["z", "y"], [0, 1], [(1, 1, [1, 0])])
    degrees = []
    for degree, gx, table in scalar_extensions(g, cap):
        degrees.append(degree)
        big = gx.field
        assert big == Field(3, k * degree)
        if degree == 1:
            assert gx is g and table.tolist() == list(range(f.q))
        for a in range(f.q):
            for b in range(f.q):
                assert table[f.add(a, b)] == big.add(int(table[a]), int(table[b]))
                assert table[f.mul(a, b)] == big.mul(int(table[a]), int(table[b]))
        assert np.array_equal(gx.structure, table[g.structure])
    # the base field comes first, even when k alone is over the cap
    assert degrees == list(range(1, max(cap // k, 1) + 1))


def test_scalar_extensions_share_their_fields():
    # each extension field is built once: a second pass hands back the same
    # Field object at every degree, the base field's own included
    g = pair_algebra(Field(3), ["z", "y"], [0, 1], [(1, 1, [1, 0])])
    first = [gx.field for _, gx, _ in scalar_extensions(g, 6)]
    second = [gx.field for _, gx, _ in scalar_extensions(g, 6)]
    assert [f.k for f in first] == [1, 2, 3, 4, 5, 6]
    assert all(a is b for a, b in zip(first, second, strict=True))


# ---------------------------------------------------------------------------
# graded hyperplanes


@st.composite
def graded_subspaces(draw):
    f = draw(st.sampled_from([F3, F5, F9]))
    s_even = draw(st.integers(0, 3))
    t_odd = draw(st.integers(0 if s_even else 1, 3))
    n = s_even + t_odd
    entry = st.one_of(st.just(0), st.integers(0, f.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    g = pair_algebra(f, [f"e{i}" for i in range(n)], [0] * s_even + [1] * t_odd, [])
    return g, graded_span(f, s_even, n, rows)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(graded_subspaces())
def test_graded_hyperplanes_match_reference(case):
    # the same subspaces in the same order as the row-by-row construction
    g, W = case
    got = list(graded_hyperplanes_containing(g, W))
    want = list(reference_graded_hyperplanes(g, W))
    assert got == want
    assert [H.pivots for H in got] == [H.pivots for H in want]
    for H in got:
        assert H.dim == g.n - 1 and all(H.contains(row) for row in W.basis)
