"""Dense calibration tensors from the signed index tables, and the residuals
contracted from them."""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    bitmask_associative_residual,
    bitmask_calibration_gap,
    bitmask_cayley_eta,
    bitmask_cayley_residual,
    bitmask_coassociative_residual,
    bitmask_g2_phi,
    bitmask_g2_psi,
    bitmask_spin7_phi,
    nabla_gamma_ops_loop,
    parity_sign,
    rng_for,
    spin_connection_ops_loop,
)
from twistcal import g2, spin7
from twistcal.errors import GradeError
from twistcal.exterior import dense_tensor
from twistcal.numerics import Profile

# (library form, bitmask oracle form, dimension of the total space, degree)
FORMS = {
    "g2.phi": (g2.phi_form, bitmask_g2_phi, 7, 3),
    "g2.psi": (g2.psi_form, bitmask_g2_psi, 7, 4),
    "spin7.phi": (spin7.phi_form, bitmask_spin7_phi, 8, 4),
}
TABLES = {"g2.phi": g2.PHI_TABLE, "g2.psi": g2.PSI_TABLE, "spin7.phi": spin7.PHI_TABLE}


def _pullback(tensor: np.ndarray, d: np.ndarray) -> np.ndarray:
    out = tensor
    for axis in range(tensor.ndim):
        shape = [1] * tensor.ndim
        shape[axis] = -1
        out = out * d.reshape(shape)
    return out


@pytest.mark.parametrize("name", sorted(FORMS))
def test_weight_law_unit_tensor_pulled_back_by_d(name):
    build, _, dim, _ = FORMS[name]
    unit = build(1.0, 1.0)
    rng = rng_for(11)
    for _ in range(5):
        u, v = rng.uniform(0.2, 3.0, size=2)
        d = np.array([u] * 4 + [v] * (dim - 4))
        np.testing.assert_allclose(build(u, v), _pullback(unit, d), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_tables_match_bitmask_forms(name):
    build, oracle, dim, k = FORMS[name]
    assert len(TABLES[name]) == {"g2.phi": 7, "g2.psi": 7, "spin7.phi": 14}[name]
    unit = build(1.0, 1.0)
    assert unit.shape == (dim,) * k
    assert unit.tobytes() == dense_tensor(oracle(1.0, 1.0)).tobytes()
    rng = rng_for(12)
    for _ in range(5):
        u, v = rng.uniform(0.2, 3.0, size=2)
        np.testing.assert_allclose(build(u, v), dense_tensor(oracle(u, v)), rtol=1e-14, atol=0.0)


def test_cached_unit_tensors_are_the_unit_tables():
    cases = ((g2.PHI_TABLE, 7, g2.phi_form), (g2.PSI_TABLE, 7, g2.psi_form),
             (spin7.PHI_TABLE, 8, spin7.phi_form))
    for table, dim, build in cases:
        cached = g2.unit_tensor(table, dim)
        assert cached is g2.unit_tensor(table, dim)
        assert not cached.flags.writeable
        assert cached.tobytes() == build(1.0, 1.0).tobytes()


@pytest.mark.parametrize("name", sorted(FORMS))
def test_dense_tensor_antisymmetric_and_round_trips(name):
    build, oracle, dim, k = FORMS[name]
    form = oracle(1.3, 0.7)
    tensor = dense_tensor(form)
    assert tensor.shape == (dim,) * k
    for perm in itertools.permutations(range(k)):
        for t in (tensor, build(1.3, 0.7)):
            np.testing.assert_array_equal(np.transpose(t, perm), parity_sign(perm) * t)
    for idx in itertools.combinations(range(dim), k):
        assert tensor[idx] == form.coefficient([i + 1 for i in idx])
    # every other entry repeats an index or permutes a stored one
    assert np.count_nonzero(tensor) == np.count_nonzero(form.coeffs) * math.factorial(k)


def test_dense_tensor_needs_a_homogeneous_form():
    phi = bitmask_g2_phi(1.0, 1.0)
    with pytest.raises(GradeError):
        dense_tensor(phi + bitmask_g2_psi(1.0, 1.0))


def _random_case(rng, dim, count):
    u, v = rng.uniform(0.3, 2.5, size=2)
    return Profile(u, v), u, v, rng.standard_normal((count, dim))


def test_associative_residual_matches_bitmask_chain():
    rng = rng_for(21)
    for _ in range(20):
        profile, u, v, vecs = _random_case(rng, 7, 3)
        new = g2.associative_residual(*vecs, profile)
        assert new == pytest.approx(bitmask_associative_residual(*vecs, u, v), rel=1e-12)


def test_coassociative_residual_matches_bitmask_chain():
    rng = rng_for(22)
    for _ in range(20):
        profile, u, v, vecs = _random_case(rng, 7, 4)
        new = g2.coassociative_residual(*vecs, profile)
        assert new == pytest.approx(bitmask_coassociative_residual(*vecs, u, v), rel=1e-12)


def test_cayley_eta_and_residual_match_bitmask_chain():
    rng = rng_for(23)
    for _ in range(20):
        profile, u, v, vecs = _random_case(rng, 8, 4)
        eta = spin7.cayley_eta(*vecs, profile)
        old = bitmask_cayley_eta(*vecs, u, v)
        scale = np.max(np.abs(old.coeffs))
        np.testing.assert_allclose(eta, -eta.T, rtol=0.0, atol=1e-12 * scale)
        for i, j in itertools.combinations(range(8), 2):
            assert abs(eta[i, j] - old.coefficient((i + 1, j + 1))) <= 1e-12 * scale
        new = spin7.cayley_residual(*vecs, profile)
        assert new == pytest.approx(bitmask_cayley_residual(*vecs, u, v), rel=1e-12)


def test_calibration_gap_matches_bitmask_chain():
    rng = rng_for(24)
    for _ in range(20):
        profile, u, v, vecs = _random_case(rng, 8, 4)
        new = spin7.calibration_gap(*vecs, profile)
        assert new == pytest.approx(bitmask_calibration_gap(*vecs, u, v), rel=1e-12)


@pytest.mark.parametrize("seed", [25, 26])
def test_lifted_residuals_equal_the_dense_ones_with_unit_fibre_vectors(seed):
    # any E_1, E_2, at constant and radius-dependent weights; the fibre vectors
    # are the unit k_1 (slot 4), k_2, k_3 (5, 6) and s_1, s_2 (4, 5)
    rng = rng_for(seed)
    eye7, eye8 = np.eye(7), np.eye(8)
    for profile in (Profile(*rng.uniform(0.3, 2.5, size=2)), Profile(lambda r: 1.0 + r, lambda r: 1.0 + 2.0 * r)):
        e7, e8 = rng.standard_normal((2, 40, 7)), rng.standard_normal((2, 40, 8))
        fiber, r = (rng.uniform(-1.0, 1.0, 40), 0.4, -0.3), rng.uniform(0.0, 2.0, 40)
        plane7, plane8 = np.stack(e7, axis=-2), np.stack(e8, axis=-2)
        pairs = (
            (g2.lifted_associative_residual(plane7, profile, fiber),
             g2.associative_residual(*e7, eye7[4], profile, fiber)),
            (g2.lifted_coassociative_residual(plane7, profile, fiber),
             g2.coassociative_residual(*e7, eye7[5], eye7[6], profile, fiber)),
            *zip(spin7.lifted_cayley_residuals(plane8, profile, r),
                 (spin7.cayley_residual(*e8, eye8[4], eye8[5], profile, r),
                  spin7.calibration_gap(*e8, eye8[4], eye8[5], profile, r))),
        )
        for lifted, dense in pairs:
            assert lifted.shape == (40,)
            np.testing.assert_allclose(lifted, dense, rtol=1e-12, atol=1e-12)
    one = spin7.lifted_cayley_residuals(plane8[0], profile, r[0])
    assert all(np.ndim(x) == 0 for x in one)


# g2 slot k goes to spin7 slot _G2_SLOTS[k] with the sign _G2_SIGNS[k], so that the Cayley
# form on R (+) R^7 is e^0 ^ phi - psi (Harvey and Lawson, Acta Math. 148 (1982), Ch. IV;
# the minus sign on psi is the orientation of the negative spinor bundle)
_G2_SLOTS = (1, 2, 4, 7, 3, 5, 6)
_G2_SIGNS = (1, 1, 1, 1, 1, -1, 1)


def test_cayley_table_is_e0_wedge_phi_minus_psi():
    # exact on the +-1 tensors: each of the 14 Phi entries is tied to one of the 7 + 7
    # phi, psi entries, so a sign flip in any table fails, also where no lifted basis reaches
    carry = np.zeros((8, 7))
    carry[_G2_SLOTS, range(7)] = _G2_SIGNS
    phi = np.einsum("ai,bj,ck,ijk->abc", carry, carry, carry, g2.unit_tensor(g2.PHI_TABLE, 7))
    psi = np.einsum("ai,bj,ck,dl,ijkl->abcd", carry, carry, carry, carry, g2.unit_tensor(g2.PSI_TABLE, 7))
    # (e^0 ^ phi)(v_0, .., v_3) = sum_p (-1)^p e^0(v_p) phi(the other three)
    e0_phi = np.multiply.outer(np.eye(8)[0], phi)
    wedge = sum((-1) ** p * np.moveaxis(e0_phi, 0, p) for p in range(4))
    assert np.array_equal(g2.unit_tensor(spin7.PHI_TABLE, 8), wedge - psi)


def test_spin_connection_ops_match_loops():
    rng = rng_for(25)
    for _ in range(10):
        gamma = rng.standard_normal((2, 4, 4))
        np.testing.assert_allclose(
            spin7.spin_connection_ops(gamma), spin_connection_ops_loop(gamma), rtol=0.0, atol=1e-14
        )
        np.testing.assert_allclose(
            spin7.nabla_gamma_ops(gamma), nabla_gamma_ops_loop(gamma), rtol=0.0, atol=1e-14
        )
