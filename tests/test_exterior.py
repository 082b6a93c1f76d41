import numpy as np
import pytest

from twistcal.errors import DimensionMismatchError, GradeError
from twistcal.exterior import (
    InnerSpace,
    Multivector,
    asd_sd_split,
    contract,
    form_inner,
    hodge,
    interior,
    wedge,
)

from conftest import (
    brute_force_form_inner,
    comass_estimate,
    rng_for,
    wedge_sign_oracle,
)


@pytest.fixture
def sp4():
    return InnerSpace(4)


def random_mv(space, rng, grade=None):
    coeffs = rng.standard_normal(1 << space.dim)
    mv = Multivector(space, coeffs)
    return mv.grade(grade) if grade is not None else mv


# -- wedge -------------------------------------------------------------------


def test_wedge_self_annihilates(sp4):
    e1 = sp4.basis_covector(1)
    assert wedge(e1, e1).is_zero()


def test_wedge_basis_case(sp4):
    out = wedge(sp4.basis_covector(1), sp4.basis_covector(2))
    assert out.coefficient((1, 2)) == 1.0
    assert out.grades() == (2,)


def test_wedge_disjoint_pairs_commute(sp4):
    a = wedge(sp4.basis_covector(1), sp4.basis_covector(2))
    b = wedge(sp4.basis_covector(3), sp4.basis_covector(4))
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert ab.coefficient((1, 2, 3, 4)) == 1.0
    assert ab.allclose(ba)


def test_wedge_signs_match_permutation_parity():
    space = InnerSpace(6)
    rng = rng_for(11)
    cases = [((1,), (2, 3)), ((2,), (1,)), ((3, 5), (1, 2)), ((4, 1), (2, 6)), ((2, 4), (4, 5))]
    for _ in range(20):
        k = rng.integers(1, 4)
        l = rng.integers(1, 4)
        idx = rng.permutation(np.arange(1, 7))[: k + l]
        cases.append((tuple(int(i) for i in idx[:k]), tuple(int(i) for i in idx[k:])))
    for idx_a, idx_b in cases:
        # build monomials by wedging basis covectors in the given order
        ma = space.scalar(1.0)
        for i in idx_a:
            ma = wedge(ma, space.basis_covector(i))
        mb = space.scalar(1.0)
        for i in idx_b:
            mb = wedge(mb, space.basis_covector(i))
        out = wedge(ma, mb)
        sign = wedge_sign_oracle(idx_a, idx_b)
        if sign == 0:
            assert out.is_zero()
        else:
            assert out.coefficient(tuple(sorted(idx_a + idx_b))) == pytest.approx(sign)


def test_wedge_antisymmetry_on_random_one_forms(sp4):
    rng = rng_for(1)
    for _ in range(50):
        u = sp4.covector(rng.standard_normal(4))
        v = sp4.covector(rng.standard_normal(4))
        lhs = wedge(u, v)
        rhs = -1.0 * wedge(v, u)
        assert lhs.allclose(rhs, tol=1e-14)


def test_wedge_rejects_mismatched_spaces(sp4):
    other = InnerSpace(3)
    with pytest.raises(DimensionMismatchError):
        wedge(sp4.basis_covector(1), other.basis_covector(1))


# -- interior -----------------------------------------------------------------


def test_interior_basis_contraction(sp4):
    e12 = sp4.monomial((1, 2))
    out = interior(sp4.basis_covector(1), e12)
    assert out.allclose(sp4.basis_covector(2))
    assert interior(sp4.basis_covector(3), e12).is_zero()


def test_interior_requires_grade_one(sp4):
    with pytest.raises(GradeError):
        interior(sp4.monomial((1, 2)), sp4.monomial((1, 2, 3)))


def test_interior_squares_to_zero(sp4):
    rng = rng_for(2)
    for _ in range(40):
        v = sp4.covector(rng.standard_normal(4))
        a = Multivector(sp4, rng.standard_normal(16))
        out = interior(v, interior(v, a))
        assert out.is_zero(1e-13)


def test_interior_adjoint_to_wedge():
    rng = rng_for(3)
    space = InnerSpace(4)
    for _ in range(20):
        v = space.covector(rng.standard_normal(4))
        a = Multivector(space, rng.standard_normal(16)).grade(3)
        b = Multivector(space, rng.standard_normal(16)).grade(2)
        lhs = form_inner(interior(v, a), b)
        rhs = form_inner(a, wedge(v, b))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# -- hodge ---------------------------------------------------------------------


def test_hodge_standard_case(sp4):
    out = hodge(sp4.monomial((1, 2)))
    assert out.allclose(sp4.monomial((3, 4)))


def test_hodge_involution_identity_and_random_metric():
    rng = rng_for(4)
    space = InnerSpace(5)
    for k in range(6):
        a = Multivector(space, rng.standard_normal(32)).grade(k)
        sign = (-1) ** (k * (5 - k))
        assert hodge(hodge(a)).allclose(sign * a, tol=1e-9)


def test_hodge_of_volume_is_one(sp4):
    assert hodge(sp4.volume_form()).allclose(sp4.scalar(1.0))
    space = InnerSpace(3, orientation=-1)
    assert hodge(space.volume_form()).allclose(space.scalar(1.0), tol=1e-12)


def test_hodge_is_isometry():
    rng = rng_for(6)
    space = InnerSpace(4)
    for k in range(5):
        a = Multivector(space, rng.standard_normal(16)).grade(k)
        b = Multivector(space, rng.standard_normal(16)).grade(k)
        assert form_inner(hodge(a), hodge(b)) == pytest.approx(form_inner(a, b), abs=1e-9)


def test_hodge_defining_property_random_metric():
    rng = rng_for(7)
    space = InnerSpace(4)
    vol = space.volume_form()
    for k in range(5):
        a = Multivector(space, rng.standard_normal(16)).grade(k)
        b = Multivector(space, rng.standard_normal(16)).grade(k)
        lhs = wedge(b, hodge(a))
        rhs = form_inner(b, a) * vol
        assert lhs.allclose(rhs, tol=1e-9)


# -- form inner -----------------------------------------------------------------


def test_form_inner_examples(sp4):
    e12 = sp4.monomial((1, 2))
    assert form_inner(e12, e12) == pytest.approx(1.0)
    f1 = sp4.monomial((1, 2)) + sp4.monomial((3, 4))
    assert form_inner(f1, f1) == pytest.approx(2.0)
    f2 = sp4.monomial((1, 3)) - sp4.monomial((2, 4))
    assert form_inner(f1, f2) == pytest.approx(0.0)


def test_form_inner_grade_mismatch(sp4):
    with pytest.raises(GradeError):
        form_inner(sp4.monomial((1, 2)), sp4.basis_covector(1))


def test_form_inner_against_brute_force():
    rng = rng_for(8)
    space = InnerSpace(4)
    for k in (1, 2, 3):
        a = Multivector(space, rng.standard_normal(16)).grade(k)
        b = Multivector(space, rng.standard_normal(16)).grade(k)
        assert form_inner(a, b) == pytest.approx(
            brute_force_form_inner(a, b), rel=1e-9, abs=1e-9
        )


# -- self-dual splitting ---------------------------------------------------------


def test_asd_sd_split_canonical_forms(sp4):
    asd = sp4.monomial((1, 2)) - sp4.monomial((3, 4))
    sd_part, asd_part = asd_sd_split(asd)
    assert sd_part.is_zero(1e-14)
    assert asd_part.allclose(asd)

    sd = sp4.monomial((1, 2)) + sp4.monomial((3, 4))
    sd_part, asd_part = asd_sd_split(sd)
    assert asd_part.is_zero(1e-14)
    assert sd_part.allclose(sd)


def test_asd_sd_split_linearity(sp4):
    e12 = sp4.monomial((1, 2))
    sd_part, asd_part = asd_sd_split(e12)
    half_sum = 0.5 * (sp4.monomial((1, 2)) + sp4.monomial((3, 4)))
    half_diff = 0.5 * (sp4.monomial((1, 2)) - sp4.monomial((3, 4)))
    assert sd_part.allclose(half_sum)
    assert asd_part.allclose(half_diff)


def test_asd_sd_split_eigenform_properties():
    rng = rng_for(9)
    space = InnerSpace(4)
    for _ in range(20):
        a = Multivector(space, rng.standard_normal(16)).grade(2)
        sd, asd = asd_sd_split(a)
        assert (sd + asd).allclose(a, tol=1e-12)
        assert hodge(sd).allclose(sd, tol=1e-12)
        assert hodge(asd).allclose(-1.0 * asd, tol=1e-12)
        assert form_inner(sd, asd) == pytest.approx(0.0, abs=1e-12)


def test_asd_sd_split_dimension_guard():
    space = InnerSpace(5)
    with pytest.raises(DimensionMismatchError):
        asd_sd_split(space.monomial((1, 2)))


# -- misc -------------------------------------------------------------------------


def test_inner_space_validation():
    for dim in (0, 9):
        with pytest.raises(DimensionMismatchError):
            InnerSpace(dim)
    with pytest.raises(ValueError):
        InnerSpace(3, orientation=2)


def test_contract_matches_interior_for_identity(sp4):
    rng = rng_for(10)
    a = Multivector(sp4, rng.standard_normal(16))
    comps = rng.standard_normal(4)
    assert contract(a, comps).allclose(interior(sp4.covector(comps), a), tol=1e-13)
