import math

import numpy as np
import pytest

from twistcal import submanifold
from twistcal.errors import DomainError, ImmersionDegenerateError
from twistcal.examples import golden_residuals
from twistcal.submanifold import (
    ImmersionChart,
    adapted_frame,
    classify,
    classify_matrices,
    get_chart,
    rotate_frame_field,
    superminimal_residual,
    trace_residual,
    with_normal_frame,
)
from twistcal.report import SuiteConfig
from twistcal.suites import run_suite

from conftest import LATITUDE_R, latitude_chart, rng_for, unread_frame


# -- frame construction ----------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["equatorial", "veronese", "veronese-hat", "veronese-antipodal"]
)
def test_frames_orthonormal_tangent_oriented(name):
    chart = get_chart(name)
    rng = rng_for(0)
    for u in chart.sample(rng, 8):
        p = adapted_frame(chart, u)
        assert abs(np.linalg.norm(p.x) - 1.0) < 1e-12
        gram = p.frame @ p.frame.T
        assert np.max(np.abs(gram - np.eye(chart.n))) < 1e-10
        assert np.max(np.abs(p.frame @ p.x)) < 1e-10
        assert np.linalg.det(np.vstack([p.x[None, :], p.frame])) > 0


def test_gamma_antisymmetry_all_charts():
    rng = rng_for(1)
    for name in ("equatorial", "veronese", "veronese-hat"):
        chart = get_chart(name)
        for u in chart.sample(rng, 5):
            g = adapted_frame(chart, u).gamma
            assert np.max(np.abs(g + np.transpose(g, (0, 2, 1)))) < 1e-8


def test_shape_operator_symmetry():
    rng = rng_for(2)
    for name in ("equatorial", "veronese", "veronese-antipodal"):
        chart = get_chart(name)
        for u in chart.sample(rng, 5):
            p = adapted_frame(chart, u)
            for mat in p.second_fund:
                assert np.max(np.abs(mat - mat.T)) < 1e-6


def test_equatorial_shape_operator_vanishes():
    chart = get_chart("equatorial")
    p = adapted_frame(chart, np.array([0.3, -0.2]))
    assert np.max(np.abs(p.second_fund)) < 1e-7


def test_equatorial_gamma_table_pointwise():
    chart = get_chart("equatorial")
    u = np.array([0.3, -0.2])
    g = adapted_frame(chart, u).gamma
    assert g[0, 0, 1] == pytest.approx(u[1], abs=1e-7)
    assert g[0, 1, 0] == pytest.approx(-u[1], abs=1e-7)
    assert g[1, 0, 1] == pytest.approx(-u[0], abs=1e-7)
    assert g[1, 1, 0] == pytest.approx(u[0], abs=1e-7)
    # all other entries with tangential derivative directions vanish
    mask = np.ones_like(g, dtype=bool)
    for j, k, l in [(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)]:
        mask[j, k, l] = False
    assert np.max(np.abs(g[mask])) < 1e-7


def test_veronese_shape_operators_match_table():
    chart = get_chart("veronese")
    p = adapted_frame(chart, np.array([1.0, 0.7]))
    inv_sqrt3 = 1.0 / np.sqrt(3.0)
    a3 = inv_sqrt3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    a4 = inv_sqrt3 * np.array([[-1.0, 0.0], [0.0, 1.0]])
    assert np.max(np.abs(p.second_fund[0] - a3)) < 1e-6
    assert np.max(np.abs(p.second_fund[1] - a4)) < 1e-6


def test_veronese_connection_coefficient_relations():
    chart = get_chart("veronese")
    u = np.array([1.2, 2.4])
    g = adapted_frame(chart, u).gamma
    inv_sqrt3 = 1.0 / np.sqrt(3.0)
    cot = np.cos(u[0]) / np.sin(u[0])
    assert g[0, 0, 3] == pytest.approx(inv_sqrt3, abs=1e-6)
    assert g[0, 1, 2] == pytest.approx(-inv_sqrt3, abs=1e-6)
    assert g[0, 2, 1] == pytest.approx(inv_sqrt3, abs=1e-6)
    assert g[0, 3, 0] == pytest.approx(-inv_sqrt3, abs=1e-6)
    assert g[1, 0, 2] == pytest.approx(-inv_sqrt3, abs=1e-6)
    assert g[1, 1, 3] == pytest.approx(-inv_sqrt3, abs=1e-6)
    assert g[1, 2, 0] == pytest.approx(inv_sqrt3, abs=1e-6)
    assert g[1, 3, 1] == pytest.approx(inv_sqrt3, abs=1e-6)
    assert 2 * g[1, 0, 1] == pytest.approx(2 * cot * inv_sqrt3, abs=1e-6)
    assert -2 * g[1, 1, 0] == pytest.approx(2 * cot * inv_sqrt3, abs=1e-6)
    assert g[1, 2, 3] == pytest.approx(2 * cot * inv_sqrt3, abs=1e-6)
    assert g[1, 3, 2] == pytest.approx(-2 * cot * inv_sqrt3, abs=1e-6)


def test_golden_tables_many_points():
    rng = rng_for(3)
    for name in ("equatorial", "veronese", "veronese-hat"):
        chart = get_chart(name)
        for u in chart.sample(rng, 10):
            assert golden_residuals(name, u)["max"] < 1e-6


# -- classification ----------------------------------------------------------------


def test_classify_equatorial_totally_geodesic():
    chart = get_chart("equatorial")
    cls = classify(adapted_frame(chart, np.array([0.8, 0.1])))
    assert cls.minimal and cls.austere
    assert cls.superminimal == "both"


def test_classify_veronese_positive_superminimal():
    chart = get_chart("veronese")
    cls = classify(adapted_frame(chart, np.array([1.4, 3.0])))
    assert cls.minimal
    assert cls.superminimal_plus and not cls.superminimal_minus
    assert cls.residuals["superminimal_plus"] < 1e-6


def test_classify_antipodal_veronese_negative_superminimal():
    chart = get_chart("veronese-antipodal")
    cls = classify(adapted_frame(chart, np.array([1.1, 2.2])))
    assert cls.minimal
    assert cls.superminimal_minus and not cls.superminimal_plus


def test_classify_synthetic_matrices():
    a3 = np.diag([1.0, -1.0])
    a4 = np.zeros((2, 2))
    cls = classify_matrices(np.array([a3, a4]))
    assert cls.minimal and cls.austere
    assert not cls.superminimal_plus and not cls.superminimal_minus
    assert cls.residuals["superminimal_plus"] > 1e-3
    assert cls.residuals["superminimal_minus"] > 1e-3

    trace = classify_matrices(np.array([np.diag([1.0, 1.0])]))
    assert not trace.minimal and not trace.austere


def test_classification_invariant_under_frame_rotation():
    rng = rng_for(4)
    chart = get_chart("veronese")
    u = np.array([1.3, 1.9])
    base = adapted_frame(chart, u)
    for _ in range(5):
        alpha, beta = rng.uniform(0, 2 * np.pi, size=2)
        rot = rotate_frame_field(chart, alpha, beta)
        p = adapted_frame(rot, u)
        cls = classify(p)
        assert cls.minimal and cls.superminimal == "+1"
        # tensoriality: A in the rotated frame is the conjugated combination
        ca, sa, cb, sb = np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)
        r_t = np.array([[ca, sa], [-sa, ca]])
        exp3 = r_t @ (cb * base.second_fund[0] + sb * base.second_fund[1]) @ r_t.T
        exp4 = r_t @ (-sb * base.second_fund[0] + cb * base.second_fund[1]) @ r_t.T
        assert np.max(np.abs(p.second_fund[0] - exp3)) < 1e-6
        assert np.max(np.abs(p.second_fund[1] - exp4)) < 1e-6


@pytest.mark.parametrize("name, sign", [("veronese", 1.0), ("veronese-hat", 1.0), ("veronese-antipodal", -1.0)])
def test_veronese_superminimal_residuals_under_frame_rotation(name, sign):
    # A^nu has eigenvalues +-1/sqrt(3) at every unit normal, so the
    # wrong-sign residual, the largest entry of 2 J_T A^nu, is 2/sqrt(3)
    # in every frame
    chart = get_chart(name)
    u = chart.sample(rng_for(6), 6)
    for alpha, beta in ((1.9, 2.4), (0.3, 5.1), (4.4, 0.7)):
        frames = adapted_frame(rotate_frame_field(chart, alpha, beta), u)
        right = superminimal_residual(frames.second_fund, sign)
        wrong = superminimal_residual(frames.second_fund, -sign)
        assert np.max(right) < 1e-12
        assert np.max(np.abs(wrong - 2.0 / np.sqrt(3.0))) < 1e-12


def _sup_over_unit_vectors(f, m, rng):
    """sup of f over the unit vectors of R^m: the best of 50,000 random unit
    vectors, refined four times on a grid of 201 steps a side in the tangent
    space there, each grid a twentieth as wide as the last."""
    if m == 1:
        return float(np.max(f(np.array([[1.0], [-1.0]]))))

    def best_of(nu):
        nu = nu / np.linalg.norm(nu, axis=1, keepdims=True)
        return nu[np.argmax(f(nu))]

    best = best_of(rng.standard_normal((50_000, m)))
    for r in (0.2, 1e-2, 5e-4, 2.5e-5):
        tangent = np.linalg.svd(best[None, :])[2][1:]
        steps = np.linspace(-r, r, 201)
        offsets = np.stack(np.meshgrid(*[steps] * (m - 1), indexing="ij"), -1).reshape(-1, m - 1)
        best = best_of(best + offsets @ tangent)
    return float(f(best[None, :])[0])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_austere_residual_is_the_largest_trace_over_unit_normals(m):
    # for q <= 2 a spectrum is +- symmetric exactly when it is traceless
    rng = rng_for(10 + m)
    for q in (1, 2):
        for _ in range(3):
            a = rng.standard_normal((m, q, q))
            a = a + np.swapaxes(a, 1, 2)
            sup = _sup_over_unit_vectors(
                lambda nu: np.abs(np.trace(np.tensordot(nu, a, axes=1), axis1=1, axis2=2)), m, rng
            )
            assert abs(classify_matrices(a).residuals["austere"] - sup) <= 1e-9
    with pytest.raises(DomainError):
        classify_matrices(np.zeros((m, 3, 3)))


# -- a non-minimal base ------------------------------------------------------------------


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_latitude_sphere_trace_is_two_tan_r(sign):
    # tr A^3 = -2 sign tan r: |tr| reads 2 tan r for nu_3 and for -nu_3 alike,
    # where a signed trace would read 0 for one of them
    chart = latitude_chart(sign)
    frames = adapted_frame(chart, chart.sample(rng_for(21), 8))
    assert np.all(np.linalg.det(np.concatenate([frames.x[:, None, :], frames.frame], axis=1)) * sign > 0)
    traces = np.trace(frames.second_fund, axis1=-2, axis2=-1)
    assert np.max(np.abs(traces - [-2.0 * sign * math.tan(LATITUDE_R), 0.0])) <= 1e-12
    assert np.max(np.abs(trace_residual(frames.second_fund) - 2.0 * math.tan(LATITUDE_R))) <= 1e-12


@pytest.mark.parametrize(
    "suite, fiber", [("g2-associative", "-2;1.5"), ("spin7-cayley", "1,-2;0.8,0.5")]
)
def test_zero_section_over_a_non_minimal_base_fails(monkeypatch, suite, fiber):
    # the theorem needs a minimal base: over the latitude sphere the untwisted
    # bundle is not calibrated at fibres away from zero, and trace_a says why
    monkeypatch.setitem(submanifold._REGISTRY, "latitude", latitude_chart())
    report = run_suite(SuiteConfig(suite, "latitude", "zero", samples=10, seed=7, fiber=fiber))
    assert report.verdict == "FAIL"
    assert report.aggregates["criterion.trace_a.max"] == pytest.approx(2.0 * math.tan(LATITUDE_R), abs=1e-12)


# -- normal frames --------------------------------------------------------------------


def test_normal_frame_kills_internal_rotation():
    rng = rng_for(5)
    for name in ("equatorial", "veronese"):
        chart = get_chart(name)
        u0 = chart.sample(rng, 1)[0]
        p = adapted_frame(with_normal_frame(chart, u0), u0)
        # tangential rotation of the e's and normal rotation of the nu's vanish
        assert np.max(np.abs(p.gamma[:, :2, :2])) < 1e-5
        assert np.max(np.abs(p.gamma[:, 2:, 2:])) < 1e-5


def test_normal_frame_derivative_identity():
    # nabla_{e_i} nu_k = sum_j A^k_ij e_j at the centre of a normal frame
    chart = get_chart("veronese")
    u0 = np.array([1.1, 0.9])
    p = adapted_frame(with_normal_frame(chart, u0), u0)
    for i in range(2):
        for k in range(2):
            expected = np.concatenate([p.second_fund[k][i], np.zeros(2)])
            assert np.max(np.abs(p.gamma[i, 2 + k] - expected)) < 1e-5


def test_normal_frame_matches_base_frame_values():
    chart = get_chart("veronese")
    u0 = np.array([0.9, 2.5])
    base = adapted_frame(chart, u0)
    normal = adapted_frame(with_normal_frame(chart, u0), u0)
    assert np.max(np.abs(base.frame - normal.frame)) < 1e-9


# -- generic machinery ------------------------------------------------------------------


def test_degenerate_chart_raises():
    def squash(u):
        u = np.asarray(u)
        x = np.zeros(u.shape[:-1] + (5,), u.dtype)
        x[..., 0] = np.cos(u[..., 0])
        x[..., 1] = np.sin(u[..., 0])
        return x  # ignores u2: rank deficient

    chart = ImmersionChart(
        name="degenerate",
        q=2,
        n=4,
        xmap=squash,
        sample_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        frame_field=unread_frame,
    )
    with pytest.raises(ImmersionDegenerateError):
        adapted_frame(chart, np.array([0.2, 0.1]))


def test_out_of_domain_raises():
    chart = get_chart("veronese")
    with pytest.raises(DomainError):
        adapted_frame(chart, np.array([0.0, 1.0]))
