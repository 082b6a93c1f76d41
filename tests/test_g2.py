import json

import numpy as np
import pytest

from twistcal import g2
from twistcal import spin7
from twistcal.cli import main
from twistcal.exterior import InnerSpace, asd_sd_split, form_inner, hodge
from twistcal.examples import make_eta_family, make_section_family
from twistcal.g2 import (
    associative_residual,
    coassociative_residual,
    dbar_f_residual,
    nabla_f_coeffs,
    parallel_e_residual,
    phi_form,
    psi_form,
    tangent_basis_e_sigma,
    tangent_basis_eta_f,
)
from twistcal.numerics import Profile
from twistcal.submanifold import adapted_frame, chart_names, get_chart, rotate_frame_field, with_normal_frame

from conftest import (
    LITERAL_NABLA_F,
    comass_estimate,
    dbar_f_pq,
    g2_vertical_fd_oracle,
    multivector_of,
    nabla_f_fd_oracle,
    rng_for,
)


def _dbar_f(family, chart, u):
    point = adapted_frame(chart, u)
    return dbar_f_residual(point.gamma, g2.section_data(family, point))


def _parallel_e(eta_family, chart, u):
    return parallel_e_residual(adapted_frame(chart, u).scalar_derivatives(eta_family.value))


# -- the anti-self-dual frame -------------------------------------------------------


def _asd_frame():
    """f^1 = e^12 - e^34, f^2 = e^13 + e^24, f^3 = e^14 - e^23 on the coframe."""
    m = InnerSpace(4).monomial
    return m((1, 2)) - m((3, 4)), m((1, 3)) + m((2, 4)), m((1, 4)) - m((2, 3))


def test_asd_frame_is_anti_self_dual_with_norm_sqrt2():
    for f in _asd_frame():
        sd, asd = asd_sd_split(f)
        assert sd.is_zero(1e-14)
        assert asd.allclose(f)
        assert form_inner(f, f) == pytest.approx(2.0)
    f1, f2, f3 = _asd_frame()
    assert form_inner(f1, f2) == pytest.approx(0.0)
    assert form_inner(f1, f3) == pytest.approx(0.0)
    assert form_inner(f2, f3) == pytest.approx(0.0)


def test_asd_frame_rotation_phase():
    # rotating (e1, e2) by alpha and (nu3, nu4) by beta fixes f^1 and rotates
    # the complex pair f^2 + i f^3 by the phase alpha - beta (both rotations
    # counterclockwise in their planes)
    from conftest import asd_bivectors

    chart = get_chart("veronese")
    u = np.array([1.3, 0.9])
    base = asd_bivectors(adapted_frame(chart, u).frame)
    rng = rng_for(0)
    for _ in range(5):
        alpha, beta = rng.uniform(0, 2 * np.pi, size=2)
        rot = rotate_frame_field(chart, alpha, beta)
        rotated = asd_bivectors(adapted_frame(rot, u).frame)
        assert np.max(np.abs(rotated[0] - base[0])) < 1e-12
        phase = np.exp(1j * (alpha - beta))
        lhs = rotated[1] + 1j * rotated[2]
        rhs = phase * (base[1] + 1j * base[2])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- model forms --------------------------------------------------------------------


# In the orthonormal coframe theta^i = d_i e^i with D = diag(u, .., v), a
# calibration form at weights (u, v) has its unit-weight coefficients, so the
# Hodge identities of the weighted metric hold at every profile exactly when
# they hold at u = v = 1.  The weight law itself is checked for random (u, v)
# in test_dense_forms.py.


def test_psi_is_hodge_dual_of_phi_at_unit_weights():
    assert hodge(multivector_of(phi_form(1.0, 1.0))).allclose(multivector_of(psi_form(1.0, 1.0)))


def test_cayley_form_is_self_dual():
    phi = multivector_of(spin7.phi_form(1.0, 1.0))
    assert hodge(phi).allclose(phi)


def test_phi_comass_is_one():
    rng = rng_for(2)
    phi = multivector_of(phi_form(1.0, 1.0))
    best = comass_estimate(phi, 3, rng, restarts=6)
    assert best <= 1.0 + 1e-9
    assert best == pytest.approx(1.0, abs=1e-6)


def test_phi_calibration_inequality_random_triples():
    rng = rng_for(3)
    phi = multivector_of(phi_form(1.0, 1.0))
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        val = abs(phi.evaluate(q[:, 0], q[:, 1], q[:, 2]))
        assert val <= 1.0 + 1e-9


# -- covariant derivatives of the trivialisation ---------------------------------------


@pytest.mark.parametrize("chart_name", ["equatorial", "veronese", "veronese-hat"])
def test_nabla_f_matches_ambient_fd_oracle(chart_name):
    chart = get_chart(chart_name)
    rng = rng_for(4)
    for u in chart.sample(rng, 4):
        point = adapted_frame(chart, u)
        coeffs = nabla_f_coeffs(point.gamma)
        oracle = nabla_f_fd_oracle(chart, u)
        assert np.max(np.abs(coeffs - oracle)) < 1e-6


def test_nabla_f_equatorial_pattern():
    chart = get_chart("equatorial")
    u = np.array([0.7, -0.4])
    coeffs = nabla_f_coeffs(adapted_frame(chart, u).gamma)
    # over the totally geodesic sphere: no f^1 derivative, and
    # nabla_{e_1} f^2 = -u2 f^3, nabla_{e_2} f^2 = u1 f^3
    assert np.max(np.abs(coeffs[:, 0, :])) < 1e-7
    assert coeffs[0, 1, 2] == pytest.approx(-u[1], abs=1e-7)
    assert coeffs[1, 1, 2] == pytest.approx(u[0], abs=1e-7)
    assert coeffs[0, 2, 1] == pytest.approx(u[1], abs=1e-7)
    assert coeffs[1, 2, 1] == pytest.approx(-u[0], abs=1e-7)


def test_nabla_f_veronese_coefficient():
    chart = get_chart("veronese")
    u = np.array([1.0, 0.7])
    coeffs = nabla_f_coeffs(adapted_frame(chart, u).gamma)
    # the f^2 component of nabla_{e_1} f^1 is Gamma^1_{14} - Gamma^2_{13} = -2/sqrt(3)
    assert coeffs[0, 0, 1] == pytest.approx(-2.0 / np.sqrt(3.0), abs=1e-6)


def test_nabla_f_vanishes_at_normal_centres_of_geodesic_base():
    chart = get_chart("equatorial")
    u0 = np.array([0.9, 0.3])
    point = adapted_frame(with_normal_frame(chart, u0), u0)
    assert np.max(np.abs(nabla_f_coeffs(point.gamma))) < 1e-6


def test_nabla_f_table_is_the_bracket_of_the_asd_forms():
    # derived from g2.ASD_FORMS, the table has the hand-written table's bytes, -0.0
    # included, and is antisymmetric in (k, m): nabla f^k has no f^k part
    assert np.array_equal(g2.ASD_FORMS, -np.swapaxes(g2.ASD_FORMS, 1, 2))
    assert g2._NABLA_F.tobytes() == LITERAL_NABLA_F.tobytes()
    assert np.array_equal(g2._NABLA_F, -np.swapaxes(g2._NABLA_F, 2, 3))


def test_each_asd_sign_moves_the_connection():
    # ASD_FORMS is the one encoding of Lambda^2_-: flipping any one of its six terms
    # must reach the connection table that both tangent bases and dbar_F read
    terms = np.argwhere(np.triu(g2.ASD_FORMS) != 0)
    moved = 0
    for k, a, b in terms:
        forms = g2.ASD_FORMS.copy()
        forms[k, [a, b], [b, a]] *= -1.0
        moved += not np.array_equal(g2.asd_connection(forms), g2._NABLA_F)
    assert (len(terms), moved) == (6, 6)


@pytest.mark.parametrize("chart_name", chart_names())
def test_dbar_f_pq_are_the_gamma_index_formulas(chart_name):
    # dbar_F reads p, q off the connection table, bit for bit the hand formulas
    chart = get_chart(chart_name)
    gamma = adapted_frame(chart, chart.sample(rng_for(27), 500)).gamma
    coeffs, (p, q) = nabla_f_coeffs(gamma), dbar_f_pq(gamma)
    assert coeffs[..., 1, 1, 2].tobytes() == p.tobytes()
    assert coeffs[..., 0, 2, 1].tobytes() == q.tobytes()


# -- tangent bases ----------------------------------------------------------------------


def test_tangent_basis_vertical_part_matches_fd_oracle():
    rng = rng_for(5)
    cases = [
        ("veronese", make_section_family("sinphi", C=1.0, D=-0.5)),
        ("equatorial", make_section_family("const", re=0.4, im=0.8)),
        ("equatorial", make_section_family("equatorial-hol", coeffs=[0.5 - 0.2j])),
    ]
    for chart_name, family in cases:
        chart = get_chart(chart_name)
        for _ in range(3):
            u = chart.sample(rng, 1)[0]
            t1 = float(rng.uniform(-2.0, 2.0))
            point = adapted_frame(chart, u)
            sec = g2.section_data(family, point)
            e1, e2, _ = tangent_basis_e_sigma(point, sec, t1)
            oracle = g2_vertical_fd_oracle(chart, family, u, t1)
            assert np.max(np.abs(np.vstack([e1[4:], e2[4:]]) - oracle)) < 1e-5


def test_tangent_basis_normal_centre_coefficients():
    # A_i = a (A^3_{i2} - A^4_{i1}) + b (A^4_{i2} + A^3_{i1}) at normal centres
    chart = get_chart("veronese")
    u0 = np.array([1.2, 2.1])
    nchart = with_normal_frame(chart, u0)
    point = adapted_frame(nchart, u0)
    a_mats = point.second_fund
    family = make_section_family("const", re=0.7, im=-0.3)
    sec = g2.section_data(family, point)
    t1 = 1.3
    e1, e2, f1 = tangent_basis_e_sigma(point, sec, t1)
    assert np.allclose(f1, np.eye(7)[4])
    for i, e in enumerate((e1, e2)):
        a_coeff = sec.a * (a_mats[0][i, 1] - a_mats[1][i, 0]) + sec.b * (
            a_mats[1][i, 1] + a_mats[0][i, 0]
        )
        b_coeff = t1 * (a_mats[1][i, 0] - a_mats[0][i, 1]) + sec.da[i]
        c_coeff = t1 * (-a_mats[0][i, 0] - a_mats[1][i, 1]) + sec.db[i]
        assert e[4] == pytest.approx(a_coeff, abs=1e-6)
        assert e[5] == pytest.approx(b_coeff, abs=1e-6)
        assert e[6] == pytest.approx(c_coeff, abs=1e-6)


def test_zero_section_over_geodesic_base_gives_plain_lifts():
    # sigma = 0 over the totally geodesic sphere: E_i = horizontal lifts,
    # F_1 the plain vertical direction, at any chart point
    chart = get_chart("equatorial")
    point = adapted_frame(chart, np.array([0.8, -0.6]))
    sec = g2.section_data(make_section_family("zero"), point)
    e1, e2, f1 = tangent_basis_e_sigma(point, sec, 1.7)
    assert np.max(np.abs(e1 - np.eye(7)[0])) < 1e-8
    assert np.max(np.abs(e2 - np.eye(7)[1])) < 1e-8
    assert np.allclose(f1, np.eye(7)[4])


def test_dbar_residual_constant_on_veronese_is_cot_scale():
    ver = get_chart("veronese")
    fam = make_section_family("const", re=1.0, im=0.0)
    u = np.array([1.1, 2.0])
    r2, r3 = _dbar_f(fam, ver, u)
    expected = abs(np.cos(u[0]) / np.sin(u[0])) / np.sqrt(3.0)
    assert np.hypot(r2, r3) == pytest.approx(expected, rel=1e-7)


def test_associative_residual_normal_centre_formula():
    # residual = u^2 v^2 |(-B_1 + C_2, -B_2 - C_1)| at normal centres
    chart = get_chart("veronese")
    u0 = np.array([0.8, 1.7])
    point = adapted_frame(with_normal_frame(chart, u0), u0)
    family = make_section_family("const", re=0.4, im=0.9)
    sec = g2.section_data(family, point)
    t1 = -0.7
    e1, e2, f1 = tangent_basis_e_sigma(point, sec, t1)
    for uu, vv in ((1.0, 1.0), (1.7, 0.6)):
        profile = Profile(uu, vv)
        res = associative_residual(e1, e2, f1, profile, fiber=(t1, sec.a, sec.b))
        b = [e1[5], e2[5]]
        c = [e1[6], e2[6]]
        expected = uu**2 * vv**2 * np.hypot(-b[0] + c[1], -b[1] - c[0])
        assert res == pytest.approx(expected, rel=1e-9)


# -- theorem-level checks ------------------------------------------------------------------


def test_associative_veronese_holomorphic_sections():
    chart = get_chart("veronese")
    rng = rng_for(6)
    pairs = [(1.0, 0.0), (0.0, 1.0), (-2.0, 0.5), (0.3, 0.3), (1.5, -1.5)]
    for c, d in pairs:
        family = make_section_family("sinphi", C=c, D=d)
        for u in chart.sample(rng, 4):
            point = adapted_frame(chart, u)
            sec = g2.section_data(family, point)
            for t1 in (-2.0, 0.0, 1.5):
                e1, e2, f1 = tangent_basis_e_sigma(point, sec, t1)
                res = associative_residual(e1, e2, f1, fiber=(t1, sec.a, sec.b))
                assert res < 1e-6


def test_associative_zero_section_both_charts():
    for name in ("equatorial", "veronese"):
        chart = get_chart(name)
        point = adapted_frame(chart, chart.sample(rng_for(7), 1)[0])
        sec = g2.section_data(make_section_family("zero"), point)
        e1, e2, f1 = tangent_basis_e_sigma(point, sec, 1.0)
        assert associative_residual(e1, e2, f1, fiber=(1.0, 0, 0)) < 1e-8


def test_associative_constant_section_fails_off_centre():
    chart = get_chart("equatorial")
    family = make_section_family("const", re=0.5, im=0.0)
    rng = rng_for(8)
    for u in chart.sample(rng, 6):
        if np.linalg.norm(u) < 0.3:
            continue
        point = adapted_frame(chart, u)
        sec = g2.section_data(family, point)
        e1, e2, f1 = tangent_basis_e_sigma(point, sec, 0.8)
        res = associative_residual(e1, e2, f1, fiber=(0.8, sec.a, sec.b))
        assert res > 1e-3
        # matches the first-derivative prediction 0.5 |u| over this base
        assert res == pytest.approx(0.5 * np.linalg.norm(u), rel=1e-6)


def test_associative_verdict_profile_independent():
    chart = get_chart("veronese")
    u = np.array([1.1, 2.8])
    point = adapted_frame(chart, u)
    rng = rng_for(9)
    good = make_section_family("sinphi", C=1.0, D=0.0)
    bad = make_section_family("const", re=1.0, im=0.0)
    for _ in range(5):
        uu, vv = rng.uniform(0.2, 3.0, size=2)
        profile = Profile(uu, vv)
        sec_g = g2.section_data(good, point)
        e1, e2, f1 = tangent_basis_e_sigma(point, sec_g, 0.9)
        assert associative_residual(e1, e2, f1, profile, fiber=(0.9, sec_g.a, sec_g.b)) < 1e-6
        sec_b = g2.section_data(bad, point)
        e1, e2, f1 = tangent_basis_e_sigma(point, sec_b, 0.9)
        assert associative_residual(e1, e2, f1, profile, fiber=(0.9, sec_b.a, sec_b.b)) > 1e-3


def test_coassociative_constant_eta_over_equatorial():
    chart = get_chart("equatorial")
    rng = rng_for(10)
    for c in (0.0, 1.0, -3.0):
        eta = make_eta_family("const", c=c)
        for u in chart.sample(rng, 4):
            point = adapted_frame(chart, u)
            gval = eta.value(point.u)
            dgamma = point.scalar_derivatives(eta.value)
            for t in (np.array([0.7, -1.2]), np.array([0.3, 0.9])):
                e1, e2, f2, f3 = tangent_basis_eta_f(point, gval, dgamma, t)
                res = coassociative_residual(
                    e1, e2, f2, f3, fiber=(gval, t[0], t[1])
                )
                assert res < 1e-7


def test_coassociative_antipodal_veronese():
    chart = get_chart("veronese-antipodal")
    rng = rng_for(11)
    eta = make_eta_family("const", c=2.0)
    for u in chart.sample(rng, 5):
        point = adapted_frame(chart, u)
        gval = eta.value(point.u)
        dgamma = point.scalar_derivatives(eta.value)
        e1, e2, f2, f3 = tangent_basis_eta_f(point, gval, dgamma, np.array([1.1, 0.4]))
        assert coassociative_residual(e1, e2, f2, f3, fiber=(gval, 1.1, 0.4)) < 1e-6


def test_coassociative_fails_for_positive_superminimal_base():
    chart = get_chart("veronese")
    rng = rng_for(12)
    for u in chart.sample(rng, 5):
        point = adapted_frame(chart, u)
        e1, e2, f2, f3 = tangent_basis_eta_f(point, 1.0, np.zeros(2), np.array([1.0, 0.5]))
        assert coassociative_residual(e1, e2, f2, f3, fiber=(1.0, 1.0, 0.5)) > 1e-3


def test_coassociative_nonparallel_eta_fails():
    chart = get_chart("equatorial")
    eta = make_eta_family("coord", axis=1)  # gamma = u1, not parallel
    u = np.array([0.6, -0.2])
    point = adapted_frame(chart, u)
    gval = eta.value(point.u)
    dgamma = point.scalar_derivatives(eta.value)
    e1, e2, f2, f3 = tangent_basis_eta_f(point, gval, dgamma, np.array([0.8, 0.8]))
    assert coassociative_residual(e1, e2, f2, f3, fiber=(gval, 0.8, 0.8)) > 1e-3


def test_untwisted_biconditionals_across_charts():
    # E + 0 associative iff minimal; 0 + F coassociative iff negative superminimal
    zero_sec = make_section_family("zero")
    rng = rng_for(13)
    for name, minimal, neg_sm in (
        ("equatorial", True, True),
        ("veronese", True, False),
        ("veronese-antipodal", True, True),
    ):
        chart = get_chart(name)
        for u in chart.sample(rng, 3):
            point = adapted_frame(chart, u)
            sec = g2.section_data(zero_sec, point)
            e1, e2, f1 = tangent_basis_e_sigma(point, sec, 1.1)
            assoc = associative_residual(e1, e2, f1, fiber=(1.1, 0, 0))
            assert (assoc < 1e-6) == minimal
            E1, E2, F2, F3 = tangent_basis_eta_f(point, 0.0, np.zeros(2), np.array([0.9, -0.5]))
            coassoc = coassociative_residual(E1, E2, F2, F3, fiber=(0, 0.9, -0.5))
            assert (coassoc < 1e-6) == neg_sm


# -- section conditions ------------------------------------------------------------------


def test_dbar_residual_solution_families():
    eq = get_chart("equatorial")
    fam = make_section_family("equatorial-hol", coeffs=[1.0])
    r2, r3 = _dbar_f(fam, eq, np.array([0.8, -1.3]))
    assert np.hypot(r2, r3) < 1e-8

    ver = get_chart("veronese")
    fam2 = make_section_family("veronese-strip", coeffs={1: 1.0})
    r2, r3 = _dbar_f(fam2, ver, np.array([1.2, 2.9]))
    assert np.hypot(r2, r3) < 1e-7


def test_dbar_residual_constant_fails_with_coordinate_size():
    eq = get_chart("equatorial")
    fam = make_section_family("const", re=1.0, im=0.0)
    u = np.array([0.9, -0.6])
    r2, r3 = _dbar_f(fam, eq, u)
    assert np.hypot(r2, r3) == pytest.approx(np.linalg.norm(u), rel=1e-7)


def test_parallel_eta_residuals():
    eq = get_chart("equatorial")
    const = make_eta_family("const", c=5.0)
    assert _parallel_e(const, eq, np.array([1.0, 0.4])) < 1e-10
    coord = make_eta_family("coord", axis=1)
    u = np.array([0.7, -1.1])
    res = _parallel_e(coord, eq, u)
    # d(u1)(e_1) = (1 + |u|^2)/2 and d(u1)(e_2) = 0 in this chart
    assert res == pytest.approx((1.0 + u @ u) / 2.0, rel=1e-8)


def test_parallel_eta_residual_reads_the_e2_derivative(tmp_path):
    # eta = u_2 f^1 over the equatorial chart has d gamma(e_1) = 0, so only the
    # e_2 term of the criterion sees that it is not parallel
    assert parallel_e_residual(np.array([0.0, -0.7])) == 0.7
    out = tmp_path / "e.json"
    argv = ["verify", "g2-coassociative", "--chart", "equatorial", "--section", "coord:axis=2",
            "--samples", "20", "--seed", "7", "--out", str(out)]
    assert main(argv) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "FAIL"
    assert abs(report["aggregates"]["criterion.parallel_e.max"] - 4.849376445541088) <= 1e-9


def test_parallel_eta_fd_cross_check():
    eq = get_chart("equatorial")
    rng = rng_for(14)

    def gamma_fn(u):
        return np.sin(u[..., 0]) * u[..., 1]

    fam = make_eta_family("const", c=0.0)
    for u in eq.sample(rng, 3):
        point = adapted_frame(eq, u)
        dgamma = point.scalar_derivatives(gamma_fn)
        # chain rule oracle: dgamma(e_j) = w_j . grad gamma
        grad = np.array([np.cos(u[0]) * u[1], np.sin(u[0])])
        expected = point.velocities @ grad
        assert np.max(np.abs(dgamma - expected)) < 1e-6
