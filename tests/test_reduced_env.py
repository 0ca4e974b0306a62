import numpy as np
import pytest

from superkw.chargeom import BudgetExceeded
from superkw.env import ReducedAlgebra, character_module, induce, regular_module
from superkw.gflin import Field
from superkw.lsa import LsaError, Subspace, as_subalgebra
from superkw.modules import validate_module

from conftest import pair_algebra

F3 = Field(3)
F5 = Field(5)


def vec(*vals):
    return np.array(vals, dtype=np.int64)


def mono(alpha, gamma):
    return (tuple(alpha), tuple(gamma))


@pytest.fixture(scope="module")
def U_typical(gl11):
    return ReducedAlgebra(gl11.algebra, vec(1, 0))


def test_single_generator_fixed(U_typical):
    for i in range(4):
        nf = U_typical.normal_form((i,))
        assert len(nf) == 1
        ((alpha, gamma), c), = nf.items()
        assert c == 1
        assert sum(alpha) + sum(gamma) == 1


def test_fe_straightening(U_typical):
    # f e = (h1 + h2) - e f in U(gl(1|1)); basis order E11,E22 | E12,E21
    nf = U_typical.normal_form((3, 2))
    h1 = mono((1, 0), (0, 0))
    h2 = mono((0, 1), (0, 0))
    ef = mono((0, 0), (1, 1))
    assert nf == {h1: 1, h2: 1, ef: 2}


def test_even_p_rewrite_constant():
    # abelian, zero p-operation, chi(a) = c: the word a^3 collapses to c^3
    g = pair_algebra(F3, ["a"], [0], [], [[0]])
    A = ReducedAlgebra(g, vec(2))
    nf = A.normal_form((0, 0, 0))
    assert nf == {mono((0,), ()): 2}  # 2^3 = 8 = 2 mod 3


def test_even_p_rewrite_with_pmap(U_typical):
    # h1^3 = h1^[3] + chi(h1)^3 = h1 + 1
    nf = U_typical.normal_form((0, 0, 0))
    assert nf == {mono((1, 0), (0, 0)): 1, mono((0, 0), (0, 0)): 1}


def test_odd_square_rule(oddheis_p3):
    # y*y = (1/2)[y,y] = (1/2) z = 2z over GF(3)
    A = ReducedAlgebra(oddheis_p3.algebra, vec(0))
    nf = A.normal_form((1, 1))
    assert nf == {mono((1,), (0,)): 2}


def test_normal_form_projection(U_typical):
    # straightening an already ordered monomial returns it unchanged
    word = (0, 0, 1, 2, 3)  # h1^2 h2 e f
    nf = U_typical.normal_form(word)
    assert nf == {mono((2, 1), (1, 1)): 1}


def test_multiply_identity(U_typical):
    u = U_typical.normal_form((2, 3))
    assert U_typical.multiply(U_typical.one(), u) == u
    assert U_typical.multiply(u, U_typical.one()) == u


def test_defining_relation_ef_fe(U_typical):
    # e f + f e = h1 + h2
    ef = U_typical.multiply(U_typical.generator(2), U_typical.generator(3))
    fe = U_typical.multiply(U_typical.generator(3), U_typical.generator(2))
    f = U_typical.field
    tot = dict(ef)
    for k, v in fe.items():
        s = f.add(tot.get(k, 0), v)
        if s:
            tot[k] = s
        else:
            tot.pop(k, None)
    assert tot == {mono((1, 0), (0, 0)): 1, mono((0, 1), (0, 0)): 1}


def test_supercommutation_generator_pairs(U_typical):
    # u v - (-1)^(|u||v|) v u = [u, v] for all generator pairs
    A = U_typical
    f = A.field
    g = A.g
    for i in range(4):
        for j in range(4):
            uv = A.multiply(A.generator(i), A.generator(j))
            vu = A.multiply(A.generator(j), A.generator(i))
            sign = -1 if (g.parities[i] * g.parities[j]) % 2 == 1 else 1
            got = dict(uv)
            for k, v in vu.items():
                delta = f.neg(v) if sign == 1 else v
                s = f.add(got.get(k, 0), delta)
                if s:
                    got[k] = s
                else:
                    got.pop(k, None)
            expect = {}
            for l in np.nonzero(g.structure[i, j])[0]:
                w = [0] * 4
                w[l] = 1
                key = mono(tuple(w[:2]), tuple(w[2:]))
                expect[key] = int(g.structure[i, j, l])
            assert got == expect, (i, j)


def test_multiply_associative_random(U_typical):
    A = U_typical
    rng = np.random.default_rng(12)
    gens = [A.generator(i) for i in range(4)]
    def rand_elt():
        u = A.one() if rng.random() < 0.3 else {}
        for _ in range(2):
            i = int(rng.integers(0, 4))
            c = int(A.field.rand(rng))
            w = A.normal_form((i,), coeff=c or 1)
            for k, v in w.items():
                s = A.field.add(u.get(k, 0), v)
                if s:
                    u[k] = s
                else:
                    u.pop(k, None)
        return u or A.one()
    for _ in range(50):
        u, v, w = rand_elt(), rand_elt(), rand_elt()
        left = A.multiply(A.multiply(u, v), w)
        right = A.multiply(u, A.multiply(v, w))
        assert left == right


def test_regular_module_dims(gl11, osp12):
    A = ReducedAlgebra(gl11.algebra, vec(1, 0))
    reg = regular_module(A)
    assert reg.module.dim == 36
    assert validate_module(reg.module) == []
    A2 = ReducedAlgebra(osp12.algebra, vec(0, 0, 1))
    reg2 = regular_module(A2)
    assert reg2.module.dim == 108
    assert validate_module(reg2.module) == []


@pytest.mark.parametrize("field", [F3, Field(3, 2)])
def test_regular_module_of_the_zero_algebra(field):
    from superkw.lsa import LieSuperAlgebra

    z = LieSuperAlgebra(field, [], [], np.zeros((0, 0, 0), dtype=np.int64),
                        np.zeros((0, 0), dtype=np.int64))
    assert as_subalgebra(z, z.zero_space()).alg.superdim == (0, 0)
    M = regular_module(ReducedAlgebra(z, vec())).module
    # U_chi(0) is the ground field: the one-dimensional even module
    assert M.dim == 1 and M.superdim == (1, 0)
    assert M.action.shape == (0, 1, 1)
    assert validate_module(M) == []


def test_regular_module_budget(gl11):
    with pytest.raises(BudgetExceeded):
        regular_module(ReducedAlgebra(gl11.algebra, vec(0, 0)), budget=10)


def test_central_relation_annihilates(U_typical):
    # x^p - x^[p] - chi(x)^p acts as zero on the regular module: the word
    # x_i^p reduces to the same element as x_i^[p] + chi(x_i)^p
    A = U_typical
    f = A.field
    g = A.g
    for i in range(2):
        lhs = A.normal_form((i,) * 3)
        rhs = {}
        for l in np.nonzero(g.pmap[i])[0]:
            w = [0] * 4
            w[l] = 1
            rhs[mono(tuple(w[:2]), tuple(w[2:]))] = int(g.pmap[i][l])
        cp = f.pow(int(A.chi[i]), 3)
        if cp:
            key = mono((0, 0), (0, 0))
            rhs[key] = f.add(rhs.get(key, 0), cp)
        assert lhs == rhs


def test_format_element_stable(U_typical):
    nf = U_typical.normal_form((3, 2))
    assert U_typical.format_element(nf) == "2*E12*E21 + 1*E22 + 1*E11"
    assert U_typical.format_element({}) == "0"


def test_parity_of_elements(U_typical):
    assert U_typical.element_parity(U_typical.generator(2)) == 1
    assert U_typical.element_parity(U_typical.generator(0)) == 0
    mixed = dict(U_typical.generator(0))
    mixed.update(U_typical.generator(2))
    assert U_typical.element_parity(mixed) is None


def test_induce_from_whole_algebra_is_identity(gl11):
    # inducing from h = g returns the base module itself (empty cobasis)
    g = gl11.algebra
    chi = vec(0, 0)
    sub = as_subalgebra(g, g.full_space())
    from superkw.solvable import one_dim_weights
    from superkw.chargeom import restrict_chi

    lam = one_dim_weights(sub, restrict_chi(chi, sub))
    S = character_module(sub, restrict_chi(chi, sub), lam)
    ind = induce(g, chi, sub, S)
    assert ind.module.dim == 1
    assert validate_module(ind.module) == []


def test_induce_dimension_formula(gl11, solv2_p5):
    # gl(1|1), typical chi, (2|1) polarization, 1-dim base: dim 2
    from superkw.chargeom import polarization, restrict_chi
    from superkw.solvable import one_dim_weights
    from superkw.lsa import extend_scalars

    g, chi = gl11.algebra, vec(1, 0)
    P = polarization(g, chi)
    g27, table = extend_scalars(g, Field(3, 3))
    chi27 = table[chi]
    P27 = Subspace(g27.field, 2, 4, table[P.basis])
    sub = as_subalgebra(g27, P27)
    chi_h = restrict_chi(chi27, sub)
    lam = one_dim_weights(sub, chi_h)
    S = character_module(sub, chi_h, lam)
    ind = induce(g27, chi27, sub, S)
    assert ind.module.dim == 2
    assert validate_module(ind.module) == []
    assert (ind.c0, ind.c1) == (0, 1)

    # 2-dim solvable, h = span{x}, chi(x) = 1, 1-dim base: dim p
    g2 = solv2_p5.algebra
    chi2 = vec(0, 1)
    S2space = Subspace.from_vectors(F5, 2, 2, [vec(0, 1)])
    sub2 = as_subalgebra(g2, S2space)
    lam2 = np.array([1], dtype=np.int64)  # lambda(x)^5 = chi(x)^5
    S2 = character_module(sub2, restrict_chi(chi2, sub2), lam2)
    ind2 = induce(g2, chi2, sub2, S2)
    assert ind2.module.dim == 5
    assert (ind2.c0, ind2.c1) == (1, 0)
    assert validate_module(ind2.module) == []


def test_induce_rejects_non_p_closed(gl11):
    g = gl11.algebra
    # span{h1 + e}-ish is not even graded; use a graded but non-p-closed
    # subspace:  span{e} is p-closed trivially, so take span{h1 - h2, e}?
    # h1 - h2 has (h1-h2)^[3] = h1 - h2 inside, so instead drop the pmap by
    # presenting a non-restricted subalgebra artificially
    S = Subspace.from_vectors(F3, 2, 4, [vec(0, 0, 1, 0)])
    sub = as_subalgebra(g, S)
    object.__setattr__(sub, "alg", pair_algebra(F3, ["e"], [1], []))  # no pmap
    chi = vec(0, 0)
    base = character_module(sub, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(LsaError):
        induce(g, chi, sub, base)
