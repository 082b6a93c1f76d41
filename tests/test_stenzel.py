import dataclasses
import math

import numpy as np
import pytest

from twistcal.errors import ChartError, DomainError
from twistcal.numerics import Profile
from twistcal.stenzel import (
    DEFAULT_PROFILE,
    bracket_factor,
    closed_form_tangents,
    constant_mu,
    lagrangian_samples,
    mixed_pairing_closed_form,
    omega_value,
    psi_map,
    stenzel_coeffs,
    twisted_conormal_point,
    _rotated_pairing,
)
from twistcal.submanifold import get_chart

from conftest import rng_for


# -- the quadric identification ---------------------------------------------------


def test_psi_map_zero_covector_is_identity():
    x = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    z = psi_map(x, np.zeros(5))
    assert np.allclose(z, x)


def test_psi_map_axis_case():
    x = np.zeros(5)
    x[0] = 1.0
    xi = np.zeros(5)
    xi[1] = 0.8
    z = psi_map(x, xi)
    assert z[0] == pytest.approx(math.cosh(0.8))
    assert z[1] == pytest.approx(1j * math.sinh(0.8))
    assert abs(np.sum(z * z) - 1.0) < 1e-12


def test_psi_map_quadric_constraint_random():
    rng = rng_for(0)
    for _ in range(50):
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        xi = rng.standard_normal(6)
        xi -= (xi @ x) * x
        z = psi_map(x, xi)
        assert abs(np.sum(z * z) - 1.0) < 1e-12


def test_psi_map_rejects_non_orthogonal():
    x = np.zeros(5)
    x[0] = 1.0
    with pytest.raises(DomainError):
        psi_map(x, x)


# -- coefficient matrix -------------------------------------------------------------


def test_coeffs_hermitian_random_points():
    rng = rng_for(1)
    for _ in range(30):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        xi = rng.standard_normal(5)
        xi -= (xi @ x) * x
        z = psi_map(x, xi)
        if abs(z[0]) < 0.2:
            continue
        a = stenzel_coeffs(z)
        assert np.max(np.abs(a - a.conj().T)) < 1e-12


def test_coeffs_real_point_drops_second_derivative_term():
    # at a real quadric point only the first profile derivative survives
    z = np.array([0.6, 0.8, 0.0, 0.0, 0.0], dtype=complex)
    profile = Profile(2.5, 7.0)
    a = stenzel_coeffs(z, profile)
    w = z[1:].real
    expected = (np.eye(4) + np.outer(w, w) / abs(z[0]) ** 2) * 2.5
    assert np.max(np.abs(a - expected)) < 1e-12


def test_coeffs_collapse_to_identity():
    profile = Profile(1.0, 1e-300)
    z = np.zeros(5, dtype=complex)
    z[0] = 1.0
    a = stenzel_coeffs(z, profile)
    assert np.max(np.abs(a - np.eye(4))) < 1e-12


def test_coeffs_chart_guard():
    z = np.zeros(5, dtype=complex)
    z[1] = 1.0
    with pytest.raises(ChartError):
        stenzel_coeffs(z)
    # the verify path's real pairing keeps the guard
    pt = twisted_conormal_point(get_chart("equatorial"), constant_mu([0.2, 0.0]), [0.3, 0.4], [0.5, 0.1])
    with pytest.raises(ChartError):
        _rotated_pairing(dataclasses.replace(pt, z=np.where(np.arange(5) == 0, 0.05, pt.z)), 1.0, 1.0)


def test_rotated_coefficients_are_a_real_rank_one_update():
    # the stenzel_coeffs formula at z = (cosh s, i sinh(s)/s xi), n = 4,
    # reduces to a = v' I + beta w w^T with w = sinh(s)/s xi and
    # beta = v' / cosh^2 s + 4 v''; and for any real symmetric a and complex
    # rows V = R + i I, Re((i/2)(S - S^T)) with S = V a V^H is M^T - M, M = I a R^T
    import sympy as sp

    n = 4
    s, vp, vpp = sp.symbols("s v1 v2", positive=True)
    xi = sp.symbols(f"xi1:{n + 1}", real=True)
    w = [sp.sinh(s) / s * x for x in xi]
    z0, zz = sp.cosh(s), [sp.I * x for x in w]
    a = sp.Matrix(n, n, lambda j, k: (
        (sp.KroneckerDelta(j, k) + zz[j] * sp.conjugate(zz[k]) / sp.Abs(z0) ** 2) * vp
        + 2 * sp.re(sp.conjugate(zz[j]) * zz[k] - sp.conjugate(z0) / z0 * zz[j] * zz[k]) * vpp
    ))
    beta = vp / sp.cosh(s) ** 2 + 4 * vpp
    closed = vp * sp.eye(n) + beta * sp.Matrix(w) * sp.Matrix(w).T
    assert (a - closed).applyfunc(sp.expand) == sp.zeros(n, n)

    re_rows = sp.Matrix(2, n, sp.symbols(f"r1:{2 * n + 1}", real=True))
    im_rows = sp.Matrix(2, n, sp.symbols(f"i1:{2 * n + 1}", real=True))
    sym = sp.Matrix(n, n, lambda j, k: sp.Symbol(f"a{min(j, k)}{max(j, k)}", real=True))
    rows = re_rows + sp.I * im_rows
    pairing = rows * sym * rows.H
    m = im_rows * sym * re_rows.T
    omega = (sp.I / 2 * (pairing - pairing.T)).applyfunc(sp.expand).applyfunc(sp.re)
    assert (omega - (m.T - m)).applyfunc(sp.expand) == sp.zeros(2, 2)

    # the numbers: stenzel_coeffs against the closed form at one such point
    rng = rng_for(3)
    xi_num = rng.standard_normal(n)
    s_num = float(np.linalg.norm(xi_num))
    values = {s: s_num, vp: 1.7, vpp: 0.6, **dict(zip(xi, xi_num))}
    z = np.concatenate([[np.cosh(s_num)], 1j * np.sinh(s_num) / s_num * xi_num])
    want = np.array(closed.subs(values).evalf(), dtype=float)
    assert np.max(np.abs(stenzel_coeffs(z, Profile(1.7, 0.6)) - want)) <= 1e-12 * np.max(np.abs(want))


# -- tangent bases ---------------------------------------------------------------------


def test_quadric_tangency_of_tangent_basis():
    chart = get_chart("equatorial")
    mu = constant_mu([0.2, -0.1])
    rng = rng_for(2)
    for _ in range(5):
        u = chart.sample(rng, 1)[0]
        t = rng.uniform(0.3, 1.5, size=2) * rng.choice([-1, 1], size=2)
        pt = twisted_conormal_point(chart, mu, u, t)
        assert abs(np.sum(pt.z * pt.z) - 1.0) < 1e-10
        for v in pt.all_tangents():
            assert abs(np.sum(pt.z * v)) < 1e-8


@pytest.mark.parametrize("chart_name", ["equatorial", "veronese"])
def test_fd_matches_closed_form_tangents(chart_name):
    chart = get_chart(chart_name)
    rng = rng_for(3)
    mu = constant_mu([0.3, 0.0])
    for _ in range(10):
        u = chart.sample(rng, 1)[0]
        t = rng.uniform(0.3, 1.8, size=2) * rng.choice([-1, 1], size=2)
        fd_pt, e_cf, f_cf = closed_form_tangents(chart, mu, u, t)
        assert np.max(np.abs(fd_pt.tangents_e - e_cf)) < 1e-5
        assert np.max(np.abs(fd_pt.tangents_f - f_cf)) < 1e-5


def test_untwisted_tangents_have_no_mu_terms():
    chart = get_chart("equatorial")
    rng = rng_for(4)
    u = chart.sample(rng, 1)[0]
    t = np.array([0.9, -0.6])
    _, e_cf, f_cf = closed_form_tangents(chart, constant_mu([0.0, 0.0]), u, t)
    # with mu = 0 the E_i have no radial component, and over the totally
    # geodesic base no tangential imaginary parts either
    assert np.max(np.abs(e_cf[:, 0])) < 1e-9
    assert np.max(np.abs(e_cf[:, 1:3].imag)) < 1e-5
    y = float(t @ t)
    sh = math.sinh(math.sqrt(y)) / math.sqrt(y)
    assert f_cf[0][0] == pytest.approx(t[0] * sh, abs=1e-9)
    assert f_cf[1][0] == pytest.approx(t[1] * sh, abs=1e-9)


def test_mixed_pairing_matches_proof_formula():
    chart = get_chart("equatorial")
    mu = constant_mu([0.25, -0.4])
    rng = rng_for(5)
    for _ in range(5):
        u = chart.sample(rng, 1)[0]
        t = rng.uniform(0.4, 1.5, size=2)
        fd_pt, e_cf, f_cf = closed_form_tangents(chart, mu, u, t)
        vp, vpp = DEFAULT_PROFILE.at(np.linalg.norm(fd_pt.z))
        block = mixed_pairing_closed_form(fd_pt, bracket_factor(fd_pt.y, vp, vpp))
        assert block.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                direct = omega_value(fd_pt.z, fd_pt.tangents_e[i], fd_pt.tangents_f[j])
                assert direct == pytest.approx(block[i, j], rel=1e-5, abs=1e-7)


# -- the Lagrangian verdict ---------------------------------------------------------------


def _run_samples(chart, mu, count, seed):
    rng = rng_for(seed)
    samples = chart.sample(rng, count)
    fibers = rng.uniform(0.3, 2.0, size=(count, 2)) * rng.choice(
        [-1.0, 1.0], size=(count, 2)
    )
    return list(lagrangian_samples(chart, mu, samples, fibers))


def test_untwisted_conormal_is_lagrangian():
    chart = get_chart("equatorial")
    recs = _run_samples(chart, constant_mu([0.0, 0.0]), 12, seed=6)
    assert max(r["residuals"]["omega_max"] for r in recs) < 1e-6


def test_veronese_untwisted_also_lagrangian():
    chart = get_chart("veronese")
    recs = _run_samples(chart, constant_mu([0.0, 0.0]), 8, seed=7)
    assert max(r["residuals"]["omega_max"] for r in recs) < 1e-6


def test_twisted_conormal_not_lagrangian():
    chart = get_chart("equatorial")
    recs = _run_samples(chart, constant_mu([0.3, 0.0]), 12, seed=8)
    assert min(r["residuals"]["omega_max"] for r in recs) > 1e-3


def test_mixed_residual_scales_linearly_for_small_twists():
    chart = get_chart("equatorial")
    u = np.array([0.5, -0.7])
    t = np.array([0.8, 0.6])

    def residual(lam):
        pt = twisted_conormal_point(chart, constant_mu([lam, 0.0]), u, t)
        basis = pt.all_tangents()
        return max(
            abs(omega_value(pt.z, basis[i], basis[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        )

    r1 = residual(1e-3)
    r2 = residual(2e-3)
    assert r2 / r1 == pytest.approx(2.0, rel=1e-2)


def test_bracket_factor_positive():
    rng = rng_for(9)
    for _ in range(1000):
        y = rng.uniform(1e-6, 25.0)
        vp = rng.uniform(1e-3, 10.0)
        vpp = rng.uniform(1e-3, 10.0)
        assert bracket_factor(y, vp, vpp) > 0.0


def test_bracket_factor_is_zero_at_the_zero_section():
    # the v' bracket is about 4y/3 near y = 0, so the factor's limit there is
    # 0; tanh(sqrt y)/sqrt y must not be evaluated at the 0/0
    assert bracket_factor(0.0, 1.0, 1.0) == 0.0
    y = np.array([0.0, 1e-6, 0.5])
    got = bracket_factor(y, 2.0, 0.5)
    assert got[0] == 0.0
    assert np.array_equal(got[1:], [bracket_factor(v, 2.0, 0.5) for v in y[1:]])
    assert got[1] == pytest.approx(2.0 * 4e-6 / 3.0 + 4.0 * 1e-6 * 0.5, rel=1e-5)


def test_profile_positivity_enforced():
    bad = Profile(lambda r: -1.0, lambda r: 1.0)
    with pytest.raises(DomainError):
        bad.at(1.0)
    rng = rng_for(10)
    for r in rng.uniform(0.1, 10.0, size=20):
        vp, vpp = DEFAULT_PROFILE.at(float(r))
        assert vp > 0 and vpp > 0


def test_fiber_radius_identity():
    # y = |t|^2 + |a(u)|^2 because the frame covectors are orthonormal
    chart = get_chart("veronese")
    mu = constant_mu([0.4, -0.2])
    rng = rng_for(11)
    for _ in range(5):
        u = chart.sample(rng, 1)[0]
        t = rng.uniform(0.3, 1.5, size=2)
        pt = twisted_conormal_point(chart, mu, u, t)
        frame = chart.frame_field(u)
        xi = t @ frame[2:] + pt.mu_coeffs @ frame[:2]
        assert pt.y == pytest.approx(float(xi @ xi), rel=1e-12)
        assert pt.y == pytest.approx(float(t @ t + pt.mu_coeffs @ pt.mu_coeffs))
