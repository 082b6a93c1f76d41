"""Dense unit-weight calibration tensors and the residuals contracted from them."""

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
    nabla_gamma_ops_loop,
    parity_sign,
    rng_for,
    spin_connection_ops_loop,
)
from twistcal import g2, spin7
from twistcal.errors import GradeError
from twistcal.exterior import dense_tensor

# (form builder, dimension of the total space, degree)
FORMS = {
    "g2.phi": (g2.phi_form, 7, 3),
    "g2.psi": (g2.psi_form, 7, 4),
    "spin7.phi": (spin7.phi_form, 8, 4),
}


def _pullback(tensor: np.ndarray, d: np.ndarray) -> np.ndarray:
    out = tensor
    for axis in range(tensor.ndim):
        shape = [1] * tensor.ndim
        shape[axis] = -1
        out = out * d.reshape(shape)
    return out


@pytest.mark.parametrize("name", sorted(FORMS))
def test_weight_law_unit_tensor_pulled_back_by_d(name):
    build, dim, _ = FORMS[name]
    unit = dense_tensor(build(1.0, 1.0))
    rng = rng_for(11)
    for _ in range(5):
        u, v = rng.uniform(0.2, 3.0, size=2)
        d = np.array([u] * 4 + [v] * (dim - 4))
        np.testing.assert_allclose(
            dense_tensor(build(u, v)), _pullback(unit, d), rtol=1e-14, atol=0.0
        )


@pytest.mark.parametrize("name", sorted(FORMS))
def test_dense_tensor_antisymmetric_and_round_trips(name):
    build, dim, k = FORMS[name]
    form = build(1.3, 0.7)
    tensor = dense_tensor(form)
    assert tensor.shape == (dim,) * k
    for perm in itertools.permutations(range(k)):
        np.testing.assert_array_equal(np.transpose(tensor, perm), parity_sign(perm) * tensor)
    for idx in itertools.combinations(range(dim), k):
        assert tensor[idx] == form.coefficient([i + 1 for i in idx])
    # every other entry repeats an index or permutes a stored one
    assert np.count_nonzero(tensor) == np.count_nonzero(form.coeffs) * math.factorial(k)


def test_dense_tensor_needs_a_homogeneous_form():
    phi = g2.phi_form(1.0, 1.0)
    with pytest.raises(GradeError):
        dense_tensor(phi + g2.psi_form(1.0, 1.0))


def _random_case(rng, dim, count):
    u, v = rng.uniform(0.3, 2.5, size=2)
    return g2.BSProfile(u=u, v=v), u, v, rng.standard_normal((count, dim))


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
