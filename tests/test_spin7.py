import numpy as np
import pytest

from twistcal import g2, spin7
from twistcal.errors import DomainError
from twistcal.examples import SectionFamily, make_section_family
from twistcal.octonion import standard_pinor_context
from twistcal.spin7 import (
    cayley_residual,
    calibration_gap,
    dbar_vminus_residual,
    gamma_f_matrix,
    lemma_residual,
    nabla_gamma_ops,
    phi_form,
    spin_connection_ops,
    spinor_frames,
    tangent_basis_v_plus,
)
from twistcal.submanifold import adapted_frame, chart_names, get_chart, rotate_frame_field, with_normal_frame

from conftest import (
    cayley_model_form,
    central_difference,
    comass_estimate,
    cross3,
    multivector_of,
    rng_for,
    spinor_route_basis_v_plus,
    spinor_route_dbar_vminus,
)

_CTX = standard_pinor_context()


def _dbar_vminus(family, chart, u):
    point = adapted_frame(chart, u)
    return dbar_vminus_residual(point.gamma, spinor_frames(), g2.section_data(family, point))


# -- spinor frames ----------------------------------------------------------------


def test_default_spinor_frames_orthonormal():
    sf = spinor_frames()
    assert np.max(np.abs(sf.s @ sf.s.T - np.eye(4))) < 1e-12


def test_default_spinor_frames_are_built_once_and_read_only():
    sf = spinor_frames()
    assert spinor_frames() is sf
    with pytest.raises(ValueError):
        sf.s[0, 0] = 2.0
    # the explicit gauge of the default builds anew, bit for bit the same
    built = spinor_frames(np.eye(8)[0])
    assert built is not sf and built.s.flags.writeable
    assert built.s.tobytes() == sf.s.tobytes()


def test_gauge_rotated_frames_orthonormal():
    rng = rng_for(0)
    for _ in range(10):
        c = rng.standard_normal(2)
        s1 = c[0] * np.eye(8)[0] + c[1] * np.eye(8)[1]
        sf = spinor_frames(s1)
        assert np.max(np.abs(sf.s @ sf.s.T - np.eye(4))) < 1e-12


def test_gauge_outside_v_plus_rejected():
    with pytest.raises(DomainError):
        spinor_frames(np.eye(8)[2])  # j lies in V_-


def test_gamma_operator_on_frames():
    sf = spinor_frames()
    gamma_op = spin7._GAMMA_OP
    # Gamma s1 = s2, Gamma s2 = -s1, Gamma s3 = s4, Gamma s4 = -s3
    assert np.allclose(gamma_op @ sf.s[0], sf.s[1])
    assert np.allclose(gamma_op @ sf.s[1], -sf.s[0])
    assert np.allclose(gamma_op @ sf.s[2], sf.s[3])
    assert np.allclose(gamma_op @ sf.s[3], -sf.s[2])


def test_quarter_gamma_f_products_on_s1():
    sf = spinor_frames()
    # (1/16) gamma(f^2) gamma(f^3) s1 = (1/4) gamma(f^1) s1 = s2
    lhs = (gamma_f_matrix(2) @ (gamma_f_matrix(3) @ sf.s[0])) / 16.0
    assert np.max(np.abs(lhs - sf.s[1])) < 1e-12


def test_gamma_anticommutes_with_f2_f3_and_maps_f2_to_f3():
    gamma_op = spin7._GAMMA_OP
    p_minus = _CTX.projectors()[1]
    for k in (2, 3):
        anti = gamma_op @ gamma_f_matrix(k) + gamma_f_matrix(k) @ gamma_op
        assert np.max(np.abs(anti @ p_minus)) < 1e-12
    prod = gamma_op @ gamma_f_matrix(2) - gamma_f_matrix(3)
    assert np.max(np.abs(prod @ p_minus)) < 1e-12


# -- spin connection ----------------------------------------------------------------


def test_spin_connection_skew_and_clifford_compatible():
    chart = get_chart("veronese")
    rng = rng_for(1)
    for u in chart.sample(rng, 4):
        point = adapted_frame(chart, u)
        omegas = spin_connection_ops(point.gamma)
        for i in range(2):
            # metric-compatible: omega is skew
            assert np.max(np.abs(omegas[i] + omegas[i].T)) < 1e-9
            # compatible with Clifford multiplication:
            # [omega_i, gamma^m] = gamma(nabla_{e_i} e^m)
            for m in range(4):
                lhs = omegas[i] @ _CTX.gammas[m] - _CTX.gammas[m] @ omegas[i]
                rhs = sum(point.gamma[i, m, k] * _CTX.gammas[k] for k in range(4))
                assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_lemma_holds_at_normal_centres_many_random_frames():
    rng = rng_for(2)
    worst = 0.0
    for _ in range(100):
        name = ("equatorial", "veronese")[int(rng.integers(2))]
        chart = get_chart(name)
        u0 = chart.sample(rng, 1)[0]
        alpha, beta = rng.uniform(0, 2 * np.pi, size=2)
        rotated = rotate_frame_field(chart, alpha, beta)
        point = adapted_frame(with_normal_frame(rotated, u0), u0)
        sf = spinor_frames()
        c = rng.standard_normal(2)
        s_plus = c[0] * sf.s[0] + c[1] * sf.s[1]
        s_minus = c[0] * sf.s[2] + c[1] * sf.s[3]
        worst = max(worst, lemma_residual(point.gamma, s_plus, +1))
        worst = max(worst, lemma_residual(point.gamma, s_minus, -1))
    assert worst < 1e-5


def test_nabla_gamma_interchanges_eigenbundles():
    chart = get_chart("veronese")
    rng = rng_for(3)
    sf = spinor_frames()
    for u in chart.sample(rng, 4):
        point = adapted_frame(with_normal_frame(chart, u), u)
        ngs = nabla_gamma_ops(point.gamma)
        for i in range(2):
            for a in range(2):  # V_+ basis
                comps = ngs[i] @ sf.s[a] @ sf.s.T
                assert np.max(np.abs(comps[:2])) < 1e-6
            for a in range(2, 4):  # V_- basis
                comps = ngs[i] @ sf.s[a] @ sf.s.T
                assert np.max(np.abs(comps[2:])) < 1e-6


def test_nabla_gamma_s1_equals_b_s3_plus_c_s4():
    chart = get_chart("veronese")
    u0 = np.array([1.4, 1.1])
    point = adapted_frame(with_normal_frame(chart, u0), u0)
    sf = spinor_frames()
    ngs = nabla_gamma_ops(point.gamma)
    a_mats = point.second_fund
    for i in range(2):
        b_i = -a_mats[0][i, 1] - a_mats[1][i, 0]
        c_i = a_mats[0][i, 0] - a_mats[1][i, 1]
        expected = b_i * sf.s[2] + c_i * sf.s[3]
        assert np.max(np.abs(ngs[i] @ sf.s[0] - expected)) < 1e-6


def test_totally_geodesic_normal_centre_has_flat_spin_data():
    chart = get_chart("equatorial")
    u0 = np.array([0.9, -0.7])
    point = adapted_frame(with_normal_frame(chart, u0), u0)
    assert np.max(np.abs(spin_connection_ops(point.gamma))) < 1e-6
    assert np.max(np.abs(nabla_gamma_ops(point.gamma))) < 1e-6


# -- the spin connection in (s_1, .., s_4) components ---------------------------------------

# twists of every kind that varies over the chart, and a constant one
SPINOR_ROUTE_TWISTS = (
    make_section_family("const", re=0.4, im=-0.7),
    make_section_family("sinphi", C=1.0, D=0.3),
    make_section_family("equatorial-hol", coeffs=[0.3, -0.5j, 0.2 + 0.1j]),
    make_section_family("veronese-strip", coeffs={-1: 0.4 + 0.2j, 2: -0.3j}),
)


@pytest.mark.parametrize("name", chart_names())
def test_s_components_equal_the_8_dimensional_route_bit_for_bit(name):
    chart = get_chart(name)
    frames = adapted_frame(chart, chart.sample(rng_for(31), 1000))
    sf = spinor_frames()
    fibers = np.array([[0.4, -1.1], [1.3, 0.2], [-0.6, 0.9]])
    # on the default frame omega_i s_m has no component outside span(s), exactly
    conn = sf.connection(frames.gamma)
    assert np.array_equal(spin_connection_ops(frames.gamma) @ sf.s.T, sf.s.T @ conn)
    for family in SPINOR_ROUTE_TWISTS:
        sec = g2.section_data(family, frames)
        assert np.array_equal(tangent_basis_v_plus(frames, sf, sec, fibers),
                              spinor_route_basis_v_plus(frames, sf, sec, fibers))
        for new, old in zip(dbar_vminus_residual(frames.gamma, sf, sec),
                            spinor_route_dbar_vminus(frames.gamma, sf, sec)):
            assert np.array_equal(new, old)
        for i in range(3):
            point, sec_i = frames[i], g2.section_data(family, frames[i])
            assert np.array_equal(tangent_basis_v_plus(point, sf, sec_i, fibers[i]),
                                  spinor_route_basis_v_plus(point, sf, sec_i, fibers[i]))
            assert dbar_vminus_residual(point.gamma, sf, sec_i) == spinor_route_dbar_vminus(point.gamma, sf, sec_i)


def test_connection_is_s_omega_s_transpose_in_every_gauge():
    chart = get_chart("veronese")
    rng = rng_for(32)
    gamma = adapted_frame(chart, chart.sample(rng, 50)).gamma
    omegas = spin_connection_ops(gamma)
    scale = np.max(np.abs(omegas))
    for _ in range(5):
        sf = spinor_frames(rng.standard_normal(8))
        conn = sf.connection(gamma)
        assert conn.shape == (50, 2, 4, 4)
        assert np.max(np.abs(conn - sf.s @ omegas @ sf.s.T)) <= 1e-15 * scale
        # omega_i s_m = sum_j conn[i, j, m] s_j: nothing leaks out of S_-
        assert np.max(np.abs(omegas @ sf.s.T - sf.s.T @ conn)) <= 1e-15 * scale
        # J_- = -Gamma is the same right factor on (s_3, s_4) components in every gauge
        j_minus = sf.s[2:] @ -spin7._GAMMA_OP @ sf.s[2:].T
        assert np.max(np.abs(j_minus.T - spin7._J_MINUS)) <= 1e-15
        # the frame's table is built once and read-only
        assert sf._table is sf._table and not sf._table.flags.writeable
    assert spinor_frames()._table is spinor_frames()._table


# -- Cayley model form ----------------------------------------------------------------


def test_phi_reproduces_displayed_monomials():
    phi = multivector_of(phi_form(1.3, 0.7))
    u4, v4, u2v2 = 1.3**4, 0.7**4, (1.3 * 0.7) ** 2
    eye = np.eye(8)
    assert phi.evaluate(*(eye[i] for i in (0, 1, 2, 3))) == pytest.approx(u4)
    assert phi.evaluate(*(eye[i] for i in (4, 5, 6, 7))) == pytest.approx(v4)
    # one coefficient from each mixed block
    assert phi.evaluate(eye[0], eye[1], eye[4], eye[5]) == pytest.approx(-u2v2)
    assert phi.evaluate(eye[0], eye[2], eye[4], eye[6]) == pytest.approx(-u2v2)
    assert phi.evaluate(eye[1], eye[3], eye[5], eye[7]) == pytest.approx(-u2v2)
    assert phi.evaluate(eye[0], eye[3], eye[4], eye[7]) == pytest.approx(-u2v2)
    assert phi.evaluate(eye[1], eye[2], eye[4], eye[7]) == pytest.approx(-u2v2)


def test_cayley_phi_comass_is_one():
    rng = rng_for(4)
    best = comass_estimate(multivector_of(phi_form(1.0, 1.0)), 4, rng, restarts=6)
    assert best <= 1.0 + 1e-9
    assert best == pytest.approx(1.0, abs=1e-6)


def test_phi_matches_octonion_model_up_to_orientation():
    # under the identification (coframe -> He, spinor frame -> H) the
    # displayed 4-form is the octonion model form composed with an
    # orientation flip
    from itertools import combinations

    ident = np.vstack([_CTX.embed, spinor_frames().s])
    phi = multivector_of(phi_form(1.0, 1.0))
    phi0 = cayley_model_form()
    for comb in combinations(range(8), 4):
        vecs = [np.eye(8)[i] for i in comb]
        v_disp = phi.evaluate(*vecs)
        v_oct = phi0.evaluate(*(ident[i] for i in comb))
        assert v_disp == pytest.approx(-v_oct, abs=1e-12)


# -- tangent bases and the Cayley test ---------------------------------------------------


def test_f_vectors_are_vertical_frame_directions():
    chart = get_chart("veronese")
    point = adapted_frame(chart, np.array([1.2, 0.8]))
    sf = spinor_frames()
    sec = g2.section_data(make_section_family("zero"), point)
    _, _, f1, f2 = tangent_basis_v_plus(point, sf, sec, np.array([0.3, -0.2]))
    assert np.allclose(f1, np.eye(8)[4])
    assert np.allclose(f2, np.eye(8)[5])


def test_vertical_components_at_normal_centre_match_display():
    chart = get_chart("veronese")
    u0 = np.array([1.0, 2.2])
    point = adapted_frame(with_normal_frame(chart, u0), u0)
    sf = spinor_frames()
    family = make_section_family("const", re=0.6, im=-0.4)
    sec = g2.section_data(family, point)
    t = np.array([0.9, -1.1])
    e1, e2, _, _ = tangent_basis_v_plus(point, sf, sec, t)
    a_mats = point.second_fund
    for i, e in enumerate((e1, e2)):
        b_i = -a_mats[0][i, 1] - a_mats[1][i, 0]
        c_i = a_mats[0][i, 0] - a_mats[1][i, 1]
        expected = np.array(
            [
                0.5 * (sec.a * c_i - sec.b * b_i),
                0.5 * (-sec.a * b_i - sec.b * c_i),
                sec.da[i] + 0.5 * (-t[0] * c_i + t[1] * b_i),
                sec.db[i] + 0.5 * (t[0] * b_i + t[1] * c_i),
            ]
        )
        assert np.max(np.abs(e[4:] - expected)) < 1e-6


def test_zero_twist_over_geodesic_base_gives_plain_lifts():
    chart = get_chart("equatorial")
    point = adapted_frame(chart, np.array([0.0, 0.0]))
    sf = spinor_frames()
    sec = g2.section_data(make_section_family("zero"), point)
    e1, e2, f1, f2 = tangent_basis_v_plus(point, sf, sec, np.array([1.2, -0.4]))
    assert np.max(np.abs(e1 - np.eye(8)[0])) < 1e-8
    assert np.max(np.abs(e2 - np.eye(8)[1])) < 1e-8


def test_tangent_basis_matches_independent_fd_of_coefficients():
    # reassemble the vertical parts with a plain first-order difference of the
    # section coefficients (independent of the Richardson path used inside)
    chart = get_chart("veronese")
    sf = spinor_frames()
    family = make_section_family("sinphi", C=0.8, D=-0.3)
    u = np.array([1.3, 2.2])
    point = adapted_frame(chart, u)
    sec = g2.section_data(family, point)
    t = np.array([0.7, 0.2])
    e1, e2, _, _ = tangent_basis_v_plus(point, sf, sec, t)

    h = 2e-6
    omegas = spin_connection_ops(point.gamma)
    for i, e in enumerate((e1, e2)):
        w = point.velocities[i]
        gp = family.value(u + h * w)
        gm = family.value(u - h * w)
        da = (gp.real - gm.real) / (2 * h)
        db = (gp.imag - gm.imag) / (2 * h)
        fiber = t[0] * sf.s[0] + t[1] * sf.s[1] + sec.a * sf.s[2] + sec.b * sf.s[3]
        vert = da * sf.s[2] + db * sf.s[3] + omegas[i] @ fiber
        assert np.max(np.abs(e[4:] - vert @ sf.s.T)) < 1e-5


def test_cayley_zero_section_minimal_bases():
    sf = spinor_frames()
    zero = make_section_family("zero")
    for name in ("veronese", "equatorial"):
        chart = get_chart(name)
        rng = rng_for(5)
        for u in chart.sample(rng, 4):
            point = adapted_frame(chart, u)
            sec = g2.section_data(zero, point)
            for t in (np.array([0.0, 0.0]), np.array([1.0, -2.0])):
                e1, e2, f1, f2 = tangent_basis_v_plus(point, sf, sec, t)
                r = float(np.linalg.norm(t))
                assert cayley_residual(e1, e2, f1, f2, fiber_r=r) < 1e-6
                assert calibration_gap(e1, e2, f1, f2, fiber_r=r) < 1e-6


def test_cayley_constant_section_fails_off_centre():
    chart = get_chart("equatorial")
    sf = spinor_frames()
    family = make_section_family("const", re=0.4, im=0.0)
    rng = rng_for(6)
    for u in chart.sample(rng, 5):
        if np.linalg.norm(u) < 0.3:
            continue
        point = adapted_frame(chart, u)
        sec = g2.section_data(family, point)
        e1, e2, f1, f2 = tangent_basis_v_plus(point, sf, sec, np.array([0.5, 0.5]))
        r = float(np.sqrt(0.5 + 0.16))
        res = cayley_residual(e1, e2, f1, f2, fiber_r=r)
        gap = calibration_gap(e1, e2, f1, f2, fiber_r=r)
        assert res > 1e-3
        assert gap > 1e-6  # the two verdicts agree


def test_eta_and_calibration_verdicts_agree():
    sf = spinor_frames()
    rng = rng_for(7)
    cases = [
        ("veronese", make_section_family("zero"), True),
        ("equatorial", make_section_family("zero"), True),
        ("equatorial", make_section_family("const", re=0.4, im=-0.2), False),
    ]
    for name, family, passes in cases:
        chart = get_chart(name)
        for u in chart.sample(rng, 3):
            if not passes and np.linalg.norm(u) < 0.3:
                continue
            point = adapted_frame(chart, u)
            sec = g2.section_data(family, point)
            t = np.array([0.7, -0.9])
            e1, e2, f1, f2 = tangent_basis_v_plus(point, sf, sec, t)
            r = float(np.sqrt(t @ t + sec.a**2 + sec.b**2))
            res = cayley_residual(e1, e2, f1, f2, fiber_r=r)
            gap = calibration_gap(e1, e2, f1, f2, fiber_r=r)
            assert (res < 1e-6) == passes
            assert (gap < 1e-6) == passes


def test_cayley_spot_check_via_octonion_triple_product():
    # at passing points the orthonormalised tangent 4-frame maps to a plane
    # closed under the octonion triple product
    sf = spinor_frames()
    ident = np.vstack([_CTX.embed, sf.s])
    chart = get_chart("veronese")
    point = adapted_frame(chart, np.array([1.3, 2.6]))
    sec = g2.section_data(make_section_family("zero"), point)
    e1, e2, f1, f2 = tangent_basis_v_plus(point, sf, sec, np.array([1.0, 0.4]))
    q, _ = np.linalg.qr(np.stack([e1, e2, f1, f2], axis=1))
    octs = [q[:, j] @ ident for j in range(4)]
    x = cross3(octs[0], octs[1], octs[2])
    residual = min(np.linalg.norm(x - octs[3]), np.linalg.norm(x + octs[3]))
    assert residual < 1e-9


def test_gauge_independence_of_cayley_residual():
    chart = get_chart("equatorial")
    point = adapted_frame(chart, np.array([0.8, -0.9]))
    family = make_section_family("const", re=0.3, im=0.5)
    rng = rng_for(8)
    values = []
    for _ in range(4):
        tau = rng.uniform(0, 2 * np.pi)
        s1 = np.cos(tau) * np.eye(8)[0] + np.sin(tau) * np.eye(8)[1]
        sf = spinor_frames(s1)
        sec = g2.section_data(family, point)
        e1, e2, f1, f2 = tangent_basis_v_plus(point, sf, sec, np.array([0.4, 0.2]))
        r = float(np.sqrt(0.2 + 0.34))
        values.append(cayley_residual(e1, e2, f1, f2, fiber_r=r))
    assert np.max(values) - np.min(values) < 1e-9


# -- holomorphicity over V_- --------------------------------------------------------------


def test_dbar_vminus_zero_section():
    chart = get_chart("veronese")
    fam = make_section_family("zero")
    c3, c4 = _dbar_vminus(fam, chart, np.array([1.5, 3.1]))
    assert np.hypot(c3, c4) < 1e-12


def test_dbar_vminus_normal_centre_reduces_to_cauchy_riemann():
    # at a normal centre the condition is a1 + b2 = 0, -a2 + b1 = 0
    chart = get_chart("veronese")
    u0 = np.array([1.2, 2.4])
    nchart = with_normal_frame(chart, u0)
    point = adapted_frame(nchart, u0)
    sf = spinor_frames()

    def family_parts(u):
        return np.stack([u[..., 0] * 0.3 - u[..., 1] * 0.1, u[..., 0] * 0.5 + u[..., 1] * 0.7], axis=-1)

    sec = g2.section_data(SectionFamily(family_parts), point)
    c3, c4 = dbar_vminus_residual(point.gamma, sf, sec)
    assert c3 == pytest.approx(sec.da[0] + sec.db[1], abs=1e-8)
    assert c4 == pytest.approx(-sec.da[1] + sec.db[0], abs=1e-8)


def test_dbar_vminus_constants_fail_off_centre_on_equatorial():
    chart = get_chart("equatorial")
    fam = make_section_family("const", re=0.4, im=0.0)
    u = np.array([0.7, -0.5])
    c3, c4 = _dbar_vminus(fam, chart, u)
    # the frame-rotation correction contributes 1/2 |psi| |u| here
    assert np.hypot(c3, c4) == pytest.approx(0.2 * np.linalg.norm(u), rel=1e-6)


def test_dbar_vminus_matches_fd_of_covariant_derivative():
    chart = get_chart("veronese")
    sf = spinor_frames()
    rng = rng_for(10)

    def family_parts(u):
        return np.stack([np.sin(u[..., 0]) * np.cos(u[..., 1]), np.cos(u[..., 0] + u[..., 1])], axis=-1)

    fam = SectionFamily(family_parts)
    for u in chart.sample(rng, 3):
        point = adapted_frame(chart, u)
        sec = g2.section_data(fam, point)
        c3, c4 = dbar_vminus_residual(point.gamma, sf, sec)
        # oracle: differentiate the spinor field through the trivialisation
        # with an independent FD of the coefficient pair and the connection
        omegas = spin_connection_ops(point.gamma)
        grads = []
        for i in range(2):
            da = central_difference(family_parts, point.u, point.velocities[i])
            full = da[0] * sf.s[2] + da[1] * sf.s[3] + omegas[i] @ (
                sec.a * sf.s[2] + sec.b * sf.s[3]
            )
            comps = full @ sf.s.T
            grads.append(comps[2] * sf.s[2] + comps[3] * sf.s[3])
        total = grads[0] + (-spin7._GAMMA_OP) @ grads[1]
        comps = total @ sf.s.T
        assert c3 == pytest.approx(comps[2], abs=1e-6)
        assert c4 == pytest.approx(comps[3], abs=1e-6)
