import numpy as np
import pytest

from superkw.classical import catalog
from superkw.gflin import Echelon, nullspace
from superkw.lsa import LieSuperAlgebra


def pair_algebra(field, names, parities, pairs, pmap_rows=None):
    """Small test-algebra builder: pairs are (i, j, coefficient-vector) for
    i <= j; the other triangle is filled by the sign rule."""
    n = len(names)
    p = field.p
    c = np.zeros((n, n, n), dtype=np.int64)
    for (i, j, vec) in pairs:
        vec = np.asarray(vec, dtype=np.int64) % p
        c[i, j] = vec
        if i != j:
            sign = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            c[j, i] = (sign * vec) % p
    pmap = None
    if pmap_rows is not None:
        pmap = np.asarray(pmap_rows, dtype=np.int64) % p
    return LieSuperAlgebra(field, names, parities, c, pmap)


def kronecker_hom_dims(S, T):
    """Dimensions of the even and odd module maps S -> T, by the Kronecker
    solve of A_T X = X A_S on row-major vec(X), one generator at a time on
    the solutions so far: dim S * dim T unknowns, a reference for small
    modules."""
    f = S.alg.field
    eye_s = np.eye(S.dim, dtype=np.int64)
    eye_t = np.eye(T.dim, dtype=np.int64)
    sol = f.eye(S.dim * T.dim)
    for A_s, A_t in zip(S.action, T.action):
        block = f.sub_arr(np.kron(A_t, eye_s), np.kron(eye_t, A_s.T))
        sol = f.matmul(nullspace(f, f.matmul(block, sol.T)), sol)
    # the parity-homogeneous components of a solution are again solutions
    same = (T.parities[:, None] == S.parities[None, :]).ravel()
    even, odd = sol.copy(), sol.copy()
    even[:, ~same] = 0
    odd[:, same] = 0
    return (Echelon(f, S.dim * T.dim, even).dim, Echelon(f, S.dim * T.dim, odd).dim)


def kronecker_endomorphism_dims(M):
    """Dimensions of the even and odd commutants of M, by the Kronecker
    solve."""
    return kronecker_hom_dims(M, M)


def meataxe_inputs(M, seed, monkeypatch):
    """The modules the Meataxe is given while M is decomposed (the reducible
    pieces and the first member of each class), and the composition
    factors."""
    from superkw import modules

    seen = []
    orig = modules._find_proper_submodule

    def spy(N, s):
        seen.append(N)
        return orig(N, s)

    monkeypatch.setattr(modules, "_find_proper_submodule", spy)
    factors = modules.composition_factor_modules(M, seed)
    monkeypatch.undo()
    return seen, factors


@pytest.fixture(scope="session")
def gl11():
    return catalog("gl(1|1)", 3)


@pytest.fixture(scope="session")
def osp12():
    return catalog("osp(1|2)", 3)


@pytest.fixture(scope="session")
def sl2_p5():
    return catalog("sl(2)", 5)


@pytest.fixture(scope="session")
def solv2_p5():
    return catalog("2dim-solvable", 5)


@pytest.fixture(scope="session")
def oddheis_p3():
    return catalog("odd-heisenberg", 3)


@pytest.fixture(scope="session")
def heis_p3():
    return catalog("heisenberg", 3)


@pytest.fixture(scope="session")
def borel_gl21():
    """The (4|2) upper-triangular subalgebra of gl(2|1) over GF(3):
    completely solvable, restricted."""
    from superkw.lsa import Subspace, as_subalgebra

    ent = catalog("gl(2|1)", 3)
    g = ent.algebra
    idx = {nm: i for i, nm in enumerate(g.names)}
    rows = [g.basis_vector(idx[nm]) for nm in ("E11", "E22", "E33", "E12", "E13", "E23")]
    S = Subspace.from_vectors(g.field, g.s_even, g.n, rows)
    return as_subalgebra(g, S).alg


@pytest.fixture(scope="session")
def random_solvable_stream(borel_gl21):
    """Generator of seeded random descent instances (h, chi, I, induced):
    h a p-closed completely solvable subalgebra of the (4|2) Borel, chi a
    character, I an abelian ideal with nonzero pairing against h, and the
    module induced from a pinned one-dimensional character of the
    stabilizer."""

    def stream(want: int):
        from superkw.chargeom import restrict_chi
        from superkw.env import character_module, induce
        from superkw.lsa import (
            Subspace,
            as_subalgebra,
            is_completely_solvable,
            restricted_closure,
        )
        from superkw.modules import validate_module
        from superkw.solvable import (
            _abelian_ideal_candidates,
            i_chi,
            one_dim_weights,
        )

        b = borel_gl21
        f = b.field
        rng = np.random.default_rng(2024)
        produced = 0
        attempts = 0
        while produced < want:
            attempts += 1
            if attempts > 4000:
                raise RuntimeError("instance stream exhausted")
            n_gens = int(rng.integers(1, 4))
            vecs = []
            for _ in range(n_gens):
                v = f.rand(rng, b.n)
                if rng.random() < 0.5:
                    v[b.s_even:] = 0
                vecs.append(v)
            from superkw.lsa import subalgebra_closure

            S = restricted_closure(b, subalgebra_closure(b, vecs))
            if S.dim < 2 or S.dim > 6:
                continue
            sub_h = as_subalgebra(b, S)
            h = sub_h.alg
            if not h.restricted or not is_completely_solvable(h):
                continue
            chi = f.rand(rng, h.s_even)
            usable = None
            for I in _abelian_ideal_candidates(h):
                pairing = any(
                    int(
                        f.matmul(
                            h.bracket(h.basis_vector(j), row)[None, : h.s_even],
                            chi.reshape(-1, 1),
                        ).ravel()[0]
                    )
                    for j in range(h.n)
                    for row in I.basis
                )
                if not pairing:
                    continue
                stab = i_chi(h, I, chi)
                if stab.dim == h.n:
                    continue
                sub = as_subalgebra(h, stab)
                if not sub.alg.restricted:
                    continue
                pins = []
                ok = True
                for row in I.basis:
                    c = stab.coords_of(row)
                    if c is None:
                        ok = False
                        break
                    if np.any(c[sub.alg.s_even :]):
                        continue
                    val = int(
                        f.matmul(row[None, : h.s_even], chi.reshape(-1, 1)).ravel()[0]
                    )
                    pins.append((c[: sub.alg.s_even], val))
                if not ok:
                    continue
                chi_sub = restrict_chi(chi, sub)
                sols = one_dim_weights(sub, chi_sub, pins=tuple(pins))
                if not sols:
                    continue
                Sm = character_module(sub, chi_sub, sols[0])
                if validate_module(Sm):
                    continue
                ind = induce(h, chi, sub, Sm, budget=4000)
                usable = (h, chi, I, ind)
                break
            if usable is None:
                continue
            produced += 1
            yield usable

    return stream
