import hashlib
from pathlib import Path

import numpy as np
import pytest

from superkw.chargeom import chi_geometry, max_exponents
from superkw.classical import (
    CatalogError,
    _GL_RE,
    _REALIZATIONS,
    _gl_basis,
    algebra_from_matrices,
    baby_verma,
    catalog,
)
from superkw.env import ReducedAlgebra, regular_module
from superkw.gflin import Field, shared_field
from superkw.lsa import LsaError, extend_scalars, is_p_closed
from superkw.lsafile import parse_lsa, write_lsa
from superkw.modules import composition_factors, validate_module
from superkw.report import chi_verdict

from conftest import extend_triangular, is_regular_semisimple, lambda_set, zhao_check

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def vec(*vals):
    return np.array(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_gl11_dims(gl11):
    assert gl11.algebra.superdim == (2, 2)
    assert gl11.algebra.validate() == []
    assert gl11.triangular.cartan.dim == 2
    assert gl11.triangular.n_plus.superdim == (0, 1)
    assert gl11.triangular.n_minus.superdim == (0, 1)
    # the odd coroot is the full supertrace direction
    (root,) = gl11.triangular.roots
    assert root.parity == 1
    assert np.array_equal(root.coroot, vec(1, 1, 0, 0))


def test_catalog_osp12_dims(osp12):
    assert osp12.algebra.superdim == (3, 2)
    assert osp12.algebra.validate() == []
    assert osp12.triangular.cartan.dim == 1
    assert osp12.triangular.n_minus.superdim == (1, 1)
    assert len(osp12.triangular.roots) == 2
    assert sorted(r.parity for r in osp12.triangular.roots) == [0, 1]


def test_catalog_sl2(sl2_p5):
    assert sl2_p5.algebra.superdim == (3, 0)
    assert sl2_p5.algebra.validate() == []


def test_catalog_gl21():
    ent = catalog("gl(2|1)", 3)
    assert ent.algebra.superdim == (5, 4)
    assert ent.algebra.validate() == []


def test_catalog_sl21():
    ent = catalog("sl(2|1)", 3)
    assert ent.algebra.superdim == (4, 4)
    assert ent.algebra.validate() == []


def test_catalog_sl11_rejected():
    with pytest.raises(CatalogError):
        catalog("sl(1|1)", 3)


def test_catalog_unknown_name():
    with pytest.raises(CatalogError):
        catalog("e8", 3)


# shipped file -> catalog entry it was written from
SHIPPED = [
    ("osp1_2_p3", "osp(1|2)", 3, 1),
    ("osp1_2_p3k2", "osp(1|2)", 3, 2),
    ("gl1_1_p3", "gl(1|1)", 3, 1),
    ("sl2_p5", "sl(2)", 5, 1),
    ("solv2_p5", "2dim-solvable", 5, 1),
    ("oddheis_p3", "odd-heisenberg", 3, 1),
    ("heis_p3", "heisenberg", 3, 1),
]


@pytest.mark.parametrize("fname,name,p,k", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_shipped_file_is_catalog_entry(fname, name, p, k):
    ent = catalog(name, p, k)
    text = (ALGEBRAS / f"{fname}.lsa").read_text()
    assert write_lsa(ent.algebra, ent.triangular) == text


# sha256 of write_lsa (with the triangular data) as the catalog built them
# from supermatrix units before the catalog had one builder
CATALOG_SHA256 = [
    ("sl(2|1)", 3, 1, "ad0c8b08c14568659f7b821c60d785fc501d0ae95aabf093e160eac59e82a39d"),
    ("gl(1|1)", 3, 2, "5e38831f8fb19cf438c9e3e31e87de50455ae6209356180257a79f44de9d4292"),
    ("gl(2|1)", 3, 1, "759916ec50032e942ad5aab94a4acc0207e026ab58196be50542a6ed90c2ebed"),
    ("sl(3|0)", 5, 1, "beff4cc178b67665b60ddc1f2c374510fdbeafc7fb7dff4d09749e474774d22c"),
]


@pytest.mark.parametrize("name,p,k,digest", CATALOG_SHA256,
                         ids=[f"{c[0]}-{c[1]}^{c[2]}" for c in CATALOG_SHA256])
def test_catalog_bytes_unchanged(name, p, k, digest):
    ent = catalog(name, p, k)
    text = write_lsa(ent.algebra, ent.triangular)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# every catalog algebra with a triangular decomposition tried against the
# matrix-position pairing of root vectors
TRIANGULAR = [
    ("gl(1|1)", 3, 1), ("gl(2|1)", 3, 1), ("sl(2|1)", 3, 1), ("osp(1|2)", 3, 1),
    ("osp(1|2)", 3, 2), ("sl(2)", 5, 1), ("gl(1|2)", 5, 1), ("gl(2|2)", 3, 1),
    ("sl(3|1)", 5, 1),
]


def _positions(name, field):
    """The matrix position of each catalog basis entry."""
    m = _GL_RE.match(name)
    if m:
        traceless = m.group(1) == "sl"
        return _gl_basis(field, int(m.group(2)), int(m.group(3)), traceless)[1]
    return _REALIZATIONS[name][2]


def _root_data(tri):
    return [(r.vector_index, r.coroot.tolist(), r.parity) for r in tri.roots]


@pytest.mark.parametrize("name,p,k", TRIANGULAR, ids=[f"{c[0]}-{c[1]}^{c[2]}" for c in TRIANGULAR])
def test_triangular_data_survives_the_file_format(name, p, k):
    ent = catalog(name, p, k)
    g, tri = ent.algebra, ent.triangular
    back = parse_lsa(write_lsa(g, tri)).triangular
    for part in ("cartan", "n_plus", "n_minus"):
        assert np.array_equal(getattr(back, part).basis, getattr(tri, part).basis)
    assert _root_data(back) == _root_data(tri)
    # the bracket pairing matches each root vector with the one at its
    # transposed matrix position
    positions = _positions(name, g.field)
    plus = [a for a, (i, j) in enumerate(positions) if i < j]
    assert [r.vector_index for r in tri.roots] == plus
    for r in tri.roots:
        i, j = positions[r.vector_index]
        opp = g.basis_vector(positions.index((j, i)))
        assert np.array_equal(r.coroot, g.bracket(g.basis_vector(r.vector_index), opp))


def _units(field, *positions):
    mat = field.zeros(2, 2)
    for i, j in positions:
        mat[i, j] = 1
    return mat


def test_algebra_from_matrices_not_bracket_closed():
    f = Field(3)
    with pytest.raises(CatalogError, match="not bracket-closed"):
        algebra_from_matrices(
            f, [_units(f, (0, 1)), _units(f, (1, 0))], ["E12", "E21"], [0, 0])


def test_algebra_from_matrices_not_p_closed():
    # a Jordan block spans a bracket-closed (abelian) line whose p-th power
    # E11 + p E12 + E22 = E11 + E22 leaves it
    f = Field(3)
    jordan = _units(f, (0, 0), (0, 1), (1, 1))
    with pytest.raises(CatalogError, match="closed under p-th powers"):
        algebra_from_matrices(f, [jordan], ["J"], [0])


def test_catalog_borels_p_closed(gl11, osp12):
    for ent in (gl11, osp12):
        assert is_p_closed(ent.algebra, ent.triangular.borel())


# ---------------------------------------------------------------------------
# weight sets


def test_lambda_set_chi0_gl11(gl11):
    rep = lambda_set(gl11.algebra, gl11.triangular, vec(0, 0))
    assert rep.expected == 9
    assert len(rep.weights) == 9
    assert rep.complete and rep.completion_degree is None


def test_lambda_set_typical_needs_cubic_extension(gl11):
    rep = lambda_set(gl11.algebra, gl11.triangular, vec(1, 1))
    assert rep.expected == 9
    assert len(rep.weights) == 0
    assert not rep.complete
    assert rep.completion_degree == 3


def test_lambda_set_osp12_gf9_complete():
    ent = catalog("osp(1|2)", 3, k=2)
    # chi(h) in the kernel of the relative trace: code 3 is the generator t
    rep = lambda_set(ent.algebra, ent.triangular, vec(3, 0, 0))
    assert rep.expected == 3
    assert rep.complete


# ---------------------------------------------------------------------------
# baby Verma modules


def test_baby_verma_gl11_dim2(gl11):
    ind = baby_verma(gl11.algebra, gl11.triangular, vec(0, 0), vec(1, 0))
    assert ind.module.dim == 2
    assert validate_module(ind.module) == []


def test_baby_verma_osp12_dim6(osp12):
    ind = baby_verma(osp12.algebra, osp12.triangular, vec(0, 0, 0), vec(0))
    assert ind.module.dim == 6  # 3^1 * 2^1
    assert validate_module(ind.module) == []


def test_baby_verma_sl2_dim5(sl2_p5):
    ind = baby_verma(sl2_p5.algebra, sl2_p5.triangular, vec(0, 0, 0), vec(1))
    assert ind.module.dim == 5
    assert validate_module(ind.module) == []


def test_baby_verma_rejects_bad_weight(gl11):
    with pytest.raises(LsaError):
        baby_verma(gl11.algebra, gl11.triangular, vec(1, 1), vec(0, 0))


def test_baby_verma_rejects_chi_on_nplus(gl11):
    g, tri = gl11.algebra, gl11.triangular
    # characters live on the even part only here, and n_plus is odd for
    # gl(1|1); use osp(1|2) where the even positive root exists
    ent = catalog("osp(1|2)", 3)
    with pytest.raises(LsaError):
        baby_verma(ent.algebra, ent.triangular, vec(0, 1, 0), vec(0))


def test_baby_verma_dim_formula_all_weights(gl11):
    g, tri = gl11.algebra, gl11.triangular
    for lam in lambda_set(g, tri, vec(0, 0)).weights:
        ind = baby_verma(g, tri, vec(0, 0), lam)
        assert ind.module.dim == 2


# ---------------------------------------------------------------------------
# regular semisimplicity and the published desk checks


def test_regular_semisimple_predicate(gl11, osp12):
    g, tri = gl11.algebra, gl11.triangular
    assert not is_regular_semisimple(g, tri, vec(0, 0))
    assert is_regular_semisimple(g, tri, vec(1, 1))
    assert not is_regular_semisimple(g, tri, vec(1, 2))  # kills the coroot
    g2, tri2 = osp12.algebra, osp12.triangular
    count = sum(
         1 for c in range(1, 3) if is_regular_semisimple(g2, tri2, vec(c, 0, 0))
    )
    assert count == 2  # both nonzero values work for osp(1|2) over GF(3)


def test_centralizer_is_cartan_at_regular_chi(osp12):
    # cross-check with the character geometry: z^chi = h
    g, tri = osp12.algebra, osp12.triangular
    geo = chi_geometry(g, vec(1, 0, 0))
    assert geo.centralizer == tri.cartan
    assert geo.exp_pair.even == tri.n_minus.superdim[0]
    assert geo.exp_pair.odd == tri.n_minus.superdim[1]


def test_zhao_check_gl11_typical(gl11):
    g, tri = gl11.algebra, gl11.triangular
    rep = zhao_check(g, tri, vec(1, 1), seed=0)
    assert rep.extension_degree == 3
    assert rep.weights_found == rep.weights_expected == 9
    assert rep.verma_dims == [2] * 9
    assert rep.all_verma_irreducible is True
    assert rep.lemma_bound_ok


def test_zhao_check_without_weights_reports_unknown():
    # gl(1|1) at p = 5, chi = (0, 1): the weights need a degree-5 extension,
    # beyond ext_cap, so no baby Verma module is checked and neither verdict
    # may read True
    ent = catalog("gl(1|1)", 5)
    rep = zhao_check(ent.algebra, ent.triangular, vec(0, 1), seed=0)
    assert rep.verma_dims == [] and rep.weights_found == 0
    assert rep.all_verma_irreducible is None
    assert rep.max_factor_dim is None and rep.lemma_bound_ok is None


def test_lambda_set_hands_back_its_completion(gl11):
    g, tri = gl11.algebra, gl11.triangular
    chi = vec(1, 1)
    c = lambda_set(g, tri, chi).completion
    big = Field(3, 3)
    gx, table = extend_scalars(g, big)
    trix = extend_triangular(tri, big, table)
    want = lambda_set(gx, trix, table[chi])
    assert want.complete
    assert c.algebra.field == big
    assert np.array_equal(c.algebra.structure, gx.structure)
    assert np.array_equal(c.algebra.pmap, gx.pmap)
    assert np.array_equal(c.triangular.cartan.basis, trix.cartan.basis)
    assert np.array_equal(c.chi, table[chi])
    assert [w.tolist() for w in c.weights] == [w.tolist() for w in want.weights]
    assert lambda_set(g, tri, vec(0, 0)).completion is None


def test_zhao_check_builds_the_completion_field_once(gl11, monkeypatch):
    built = []
    inner = Field.__init__

    def counting(self, p, k=1, modulus=None):
        built.append((p, k))
        inner(self, p, k, modulus)

    monkeypatch.setattr(Field, "__init__", counting)
    # extension fields are shared in the process: start with none built
    shared_field.cache_clear()
    rep = zhao_check(gl11.algebra, gl11.triangular, vec(1, 1), seed=0)
    assert rep.extension_degree == 3
    assert built.count((3, 3)) == 1


def test_zhao_check_osp12_gf9():
    ent = catalog("osp(1|2)", 3, k=2)
    g, tri = ent.algebra, ent.triangular
    rep = zhao_check(g, tri, vec(3, 0, 0), seed=0)
    assert rep.extension_degree == 1
    assert rep.weights_found == 3
    assert rep.verma_dims == [6, 6, 6]
    assert rep.all_verma_irreducible is True
    assert rep.max_factor_dim == 6
    assert rep.lemma_bound_ok


def test_zhao_check_sl2_gf25():
    ent = catalog("sl(2)", 5, k=2)
    g, tri = ent.algebra, ent.triangular
    f = g.field
    # chi(h) nonzero in the kernel of the relative trace so the weights are
    # rational over GF(25)
    c = next(
        c for c in range(1, 25)
        if f.add(f.pow(c, 5), c) == 0
    )
    chi = vec(c, 0, 0)
    assert is_regular_semisimple(g, tri, chi)
    rep = zhao_check(g, tri, chi, seed=0)
    assert rep.verma_dims == [5] * 5
    assert rep.all_verma_irreducible is True
    assert rep.lemma_bound_ok


@pytest.mark.parametrize("name,p,k,chi", [
    ("gl(1|1)", 3, 1, (1, 1)),      # weights over GF(27)
    ("osp(1|2)", 3, 2, (3, 0, 0)),
    ("sl(2)", 5, 2, None),          # the character of test_zhao_check_sl2_gf25
])
def test_zhao_check_max_factor_matches_the_whole_regular_module(name, p, k, chi):
    # zhao_check decomposes the regular module in two levels; decomposing
    # it whole gives the same geometric factor dimensions
    ent = catalog(name, p, k)
    g, tri = ent.algebra, ent.triangular
    f = g.field
    if chi is None:
        chi = (next(c for c in range(1, 25) if f.add(f.pow(c, 5), c) == 0), 0, 0)
    chi = vec(*chi)
    rep = zhao_check(g, tri, chi, seed=0)
    c = lambda_set(g, tri, chi).completion
    gx, chix = (g, chi) if c is None else (c.algebra, c.chi)
    whole = composition_factors(regular_module(ReducedAlgebra(gx, chix)).module, 0)
    assert rep.max_factor_dim == max(whole.geometric_dims)


def test_kw_divisibility(gl11, osp12):
    def kw_divisible(chi, dims):
        payload = {"dims": dims, "geometric_dims": dims, "factors": []}
        return chi_verdict(gl11.algebra, chi, payload)["kw_divisible"]

    # chi = 0: divisor 1
    assert kw_divisible(vec(0, 0), [1, 2, 7])
    # typical gl(1|1): divisor 2
    rep = composition_factors(
        regular_module(ReducedAlgebra(gl11.algebra, vec(1, 0))).module, 0
    )
    assert kw_divisible(vec(1, 0), rep.geometric_dims)
    assert not kw_divisible(vec(1, 0), [3])


def test_mdim_matches_scan_corollary(gl11, osp12):
    # the maximum oracle factor dimension over all characters equals the
    # evaluated invariant for the small catalog members
    g = gl11.algebra
    best = 0
    for a in range(3):
        for b in range(3):
            rep = composition_factors(
                regular_module(ReducedAlgebra(g, vec(a, b))).module, 0
            )
            best = max(best, max(rep.geometric_dims))
    assert best == max_exponents(g).value(3) == 2


def test_mdim_scan_corollary_osp12(osp12):
    # over GF(3) the regular semisimple character attains the invariant: the
    # rational factors have dimension 18 with a cubic endomorphism field
    g = osp12.algebra
    best = 0
    for chi in (vec(1, 0, 0), vec(0, 0, 1), vec(0, 0, 0)):
        rep = composition_factors(
            regular_module(ReducedAlgebra(g, chi)).module, 0
        )
        best = max(best, max(rep.geometric_dims))
    assert best == max_exponents(g).value(3) == 6
