"""The FD frame layer over stacks of points.

Charts, FD stencils, adapted frames, the Stenzel residual and the golden
tables accept a stack of P chart points and must agree with P single-point
calls; the per-point Stenzel chain in conftest is the reference for omega,
and the per-sample scalar closed form for the suite's two diagnostics.
"""

import dataclasses

import numpy as np
import pytest

from twistcal.errors import DomainError, ImmersionDegenerateError
from twistcal.examples import golden_residuals, golden_table_names
from twistcal.numerics import directional_derivative, gram_schmidt, jacobian
from twistcal.stenzel import (
    closed_form_tangents,
    constant_mu,
    lagrangian_columns,
    lagrangian_samples,
    mixed_pairing_closed_form,
    omega_matrix,
    omega_value,
)
from twistcal.submanifold import (
    ImmersionChart,
    adapted_frame,
    chart_names,
    get_chart,
    normal_frame_field,
    rotate_frame_field,
    superminimal_residual,
    with_normal_frame,
)
from twistcal.report import SuiteConfig
from twistcal.suites import _sample_fibers, run_suite

from conftest import (
    great_circle_chart,
    job_config,
    pointwise_omega_max,
    pointwise_stenzel_diagnostics,
    rng_for,
    stenzel_job_inputs,
    unread_frame,
)
from workloads import WORKLOADS


def _charts():
    charts = {name: get_chart(name) for name in chart_names()}
    charts["great-circle"] = great_circle_chart()
    charts["veronese@rot"] = rotate_frame_field(get_chart("veronese"), 0.4, -1.1)
    return charts


CHARTS = _charts()


# -- (a) charts ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_functions_on_a_stack_match_single_points(name):
    chart = CHARTS[name]
    u = chart.sample(rng_for(1), 17)
    stacked = chart.xmap(u)
    assert stacked.shape == (17, chart.n + 1)
    assert np.max(np.abs(stacked - np.array([chart.xmap(p) for p in u]))) <= 1e-15
    # a stack with two leading axes, as the FD stencils pass it
    grid = chart.xmap(u.reshape(1, 17, chart.q))
    assert np.max(np.abs(grid[0] - stacked)) <= 1e-15
    frames = chart.frame_field(u)
    assert frames.shape == (17, chart.n, chart.n + 1)
    single = np.array([chart.frame_field(p) for p in u])
    assert np.max(np.abs(frames - single)) <= 1e-15


# -- (b) adapted frames --------------------------------------------------------------------


def _assert_matches_pointwise(chart, u):
    frames = adapted_frame(chart, u)
    assert len(frames) == len(u)
    assert frames.gamma.shape == (len(u), chart.q, chart.n, chart.n)
    for i, p in enumerate(u):
        single = adapted_frame(chart, p)
        row = frames[i]
        assert row.u.shape == (chart.q,)
        assert np.max(np.abs(row.gamma - single.gamma)) <= 1e-9
        assert np.max(np.abs(row.second_fund - single.second_fund)) <= 1e-9
        assert np.max(np.abs(row.frame - single.frame)) <= 1e-12
        assert np.max(np.abs(row.velocities - single.velocities)) <= 1e-9
        assert np.array_equal(row.x, frames.x[i])


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_adapted_frame_on_a_stack_matches_single_points(name):
    chart = CHARTS[name]
    _assert_matches_pointwise(chart, chart.sample(rng_for(2), 6))


def test_adapted_frame_with_transported_normal_frame():
    chart = get_chart("veronese")
    u0 = np.array([1.1, 2.3])
    normal = with_normal_frame(chart, u0)
    # points at different distances from u0, each projected from the frame at u0
    u = u0 + np.array([[0.0, 0.0], [0.01, -0.02], [0.2, 0.1], [-0.05, 0.3]])
    _assert_matches_pointwise(normal, u)
    frames = normal.frame_field(u)
    for i, p in enumerate(u):
        assert np.max(np.abs(frames[i] - normal.frame_field(p))) <= 1e-15


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_normal_frame_on_a_stack_of_centres_matches_single_centres(name):
    chart = CHARTS[name]
    centres = chart.sample(rng_for(3), 3)
    stacked = adapted_frame(with_normal_frame(chart, centres), centres)
    for i, u0 in enumerate(centres):
        single = adapted_frame(with_normal_frame(chart, u0), u0)
        for field in ("u", "x", "frame", "gamma", "second_fund", "velocities"):
            assert np.array_equal(getattr(stacked, field)[i], getattr(single, field)), field


def test_normal_frame_of_a_stack_needs_the_centres_first():
    chart = get_chart("veronese")
    centres = chart.sample(rng_for(3), 3)
    with pytest.raises(DomainError, match="3 centres"):
        with_normal_frame(chart, centres).frame_field(centres[:2])


def test_normal_frame_costs_the_same_at_any_distance():
    # one frame-field call and no chart point per evaluation, however far u
    # lies from the centre
    chart = get_chart("veronese")
    calls = {"xmap": 0, "frame_field": 0}

    def counted(name):
        def call(u):
            calls[name] += 1
            return getattr(chart, name)(u)

        return call

    u0 = np.array([1.1, 2.3])
    field = normal_frame_field(
        dataclasses.replace(chart, xmap=counted("xmap"), frame_field=counted("frame_field")), u0
    )
    for distance in (1e-3, 0.3, 1.0):
        calls.update(xmap=0, frame_field=0)
        field(u0 + distance * np.array([0.6, 0.8]))
        assert calls == {"xmap": 0, "frame_field": 1}, (distance, calls)


def test_normal_frame_centre_outside_the_domain_raises():
    chart = get_chart("veronese")
    with pytest.raises(DomainError, match="outside the safe domain"):
        normal_frame_field(chart, np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match=r"\(row 1\)"):
        with_normal_frame(chart, np.array([[1.1, 2.3], [0.0, 1.0]]))


@pytest.mark.parametrize("name", chart_names())
def test_normal_frame_keeps_the_second_fundamental_form(name):
    # the normal frame agrees with the chart's own at its centre, and only
    # the tangent-tangent and normal-normal rotations change there
    chart = get_chart(name)
    for u0 in chart.sample(rng_for(7), 5):
        normal = adapted_frame(with_normal_frame(chart, u0), u0)
        native = adapted_frame(chart, u0)
        assert np.max(np.abs(normal.second_fund - native.second_fund)) <= 1e-9


def test_single_point_frame_has_no_rows():
    point = adapted_frame(get_chart("equatorial"), np.array([0.3, -0.2]))
    with pytest.raises(TypeError):
        point[0]


# -- (c) the Stenzel residual against the per-point chain ------------------------------------

FRAMES_FD_STENZEL = [
    ("veronese", [0.0, 0.0]),
    ("veronese-hat", [0.0, 0.0]),
    ("equatorial", [0.3, 0.0]),
    ("veronese", [0.0, 0.3]),
]


@pytest.mark.parametrize("name, mu", FRAMES_FD_STENZEL)
def test_batched_omega_matches_pointwise_chain(name, mu):
    chart = get_chart(name)
    rng = rng_for(4)
    samples = chart.sample(rng, 25)
    fibers = _sample_fibers(rng, 25, chart.n - chart.q)
    recs = list(lagrangian_samples(chart, constant_mu(mu), samples, fibers))
    assert len(recs) == 25
    for rec, u, t in zip(recs, samples, fibers):
        old = pointwise_omega_max(chart, mu, u, t)
        new = rec["residuals"]["omega_max"]
        assert abs(new - old) <= 1e-7 + 1e-9 * abs(old)
        assert rec["criteria"]["mu_norm"] == pytest.approx(float(np.linalg.norm(mu)), abs=0)
        assert np.array_equal(rec["point"].t, t)


def test_omega_matrix_is_the_pairwise_omega():
    chart = get_chart("veronese")
    rng = rng_for(5)
    samples = chart.sample(rng, 4)
    fibers = _sample_fibers(rng, 4, 2)
    rec = next(lagrangian_samples(chart, constant_mu([0.2, -0.1]), samples, fibers))
    pt = rec["point"]
    basis = pt.all_tangents()
    mat = omega_matrix(pt.z, basis)
    for i in range(4):
        for j in range(4):
            assert mat[i, j] == pytest.approx(omega_value(pt.z, basis[i], basis[j]), abs=1e-12)


STENZEL_CONFIGS = [
    pytest.param(job_config(job, seed), id=f"{name}-{j}-seed{seed}")
    for name, jobs in WORKLOADS.items()
    for j, job in enumerate(jobs)
    if job.command == "verify" and job.argv[1] == "stenzel-lagrangian"
    for seed in (1, 2)
] + [
    pytest.param(SuiteConfig("stenzel-lagrangian", "equatorial", "0"), id="readme-lagrangian"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "equatorial", "0.3e1"), id="readme-lagrangian-fail"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "veronese", "0", fd_step=1e-10), id="readme-fd-mixed"),
]


@pytest.mark.parametrize("config", STENZEL_CONFIGS)
def test_stenzel_diagnostics_match_per_sample_route(config):
    agg = run_suite(config).aggregates
    gap, bracket = pointwise_stenzel_diagnostics(config)
    assert abs(agg["diagnostic.closed_form_gap.max"] - gap) <= 1e-12
    assert agg["diagnostic.bracket_factor.min"] == pytest.approx(bracket, rel=1e-13, abs=0)


# fd_step=1e-10 is left out: its FD noise alone is about 2e-3 on this comparison
NATIVE_FRAME_CONFIGS = [p for p in STENZEL_CONFIGS if p.id != "readme-fd-mixed"] + [
    pytest.param(SuiteConfig("stenzel-lagrangian", "veronese", "-1.5e2"), id="veronese-large-mu"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "equatorial", "2e1"), id="equatorial-mu2"),
]


@pytest.mark.parametrize("config", NATIVE_FRAME_CONFIGS)
def test_mixed_block_needs_no_normal_frame(config):
    # the suite reads the mixed block in the chart's own adapted frame, where
    # E_i carries sum_l C_il F_l on top of its normal-frame value; the block
    # does not see that term, because the cotangent fibre is isotropic
    chart, profile, mu, samples, fibers = stenzel_job_inputs(config)
    q = chart.q
    _, _, pts, omega = lagrangian_columns(chart, mu, samples, fibers, profile, config.fd_step)
    mixed = omega[:, :q, q:]
    bound = 1e-7 * (1.0 + np.max(np.abs(mixed)))
    _, e_closed, f_closed = closed_form_tangents(chart, mu, samples[:5], fibers[:5], config.fd_step)
    c = np.einsum("pk,pikl->pil", fibers[:5], pts.frame_point.gamma[:5, :, q:, q:])
    normal_frame_e = e_closed - c @ f_closed
    route = omega_matrix(pts.z[:5], np.concatenate([normal_frame_e, f_closed], axis=-2), profile)
    assert np.max(np.abs(mixed[:5] - route[:, :q, q:])) <= bound
    assert np.max(np.abs(mixed - mixed_pairing_closed_form(pts, profile))) <= bound


@pytest.mark.parametrize("name", chart_names())
def test_closed_form_tangents_match_the_main_path(name):
    # the closed forms read in the chart's own frame, against the FD tangents
    # of the suite's stacked point, for a zero and a nonzero twist
    chart = get_chart(name)
    rng = rng_for(8)
    samples = chart.sample(rng, 12)
    fibers = _sample_fibers(rng, 12, chart.n - chart.q)
    for mu in ([0.0, 0.0], [0.4, -1.1]):
        fd_pt, e_closed, f_closed = closed_form_tangents(chart, constant_mu(mu), samples, fibers)
        assert e_closed.shape == fd_pt.tangents_e.shape
        assert np.max(np.abs(fd_pt.tangents_e - e_closed)) <= 1e-8
        assert np.max(np.abs(fd_pt.tangents_f - f_closed)) <= 1e-8


# -- (d) FD stencils -------------------------------------------------------------------------


def test_batched_directional_derivative_exact_on_quadratics():
    # elementwise arithmetic only, so a stacked call of f rounds exactly as
    # the single-point calls do
    def f(u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([x * y + 0.5 * z * z - x, 3.0 * y * y - 2.0 * x * z + y], axis=-1)

    def df(u, w):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        a, b, c = w[..., 0], w[..., 1], w[..., 2]
        return np.stack([a * y + x * b + z * c - a, 6.0 * y * b - 2.0 * (a * z + x * c) + b], axis=-1)

    rng = rng_for(6)
    u = rng.uniform(-2.0, 2.0, size=(7, 3))
    w = rng.standard_normal((7, 3))
    batched = directional_derivative(f, u, w)
    assert batched.shape == (7, 2)
    assert np.max(np.abs(batched - df(u, w))) <= 1e-8
    # the step is taken per row: each row equals its own single-point call
    single = np.array([directional_derivative(f, p, d) for p, d in zip(u, w)])
    assert np.array_equal(batched, single)
    # one point against a stack of directions
    fan = directional_derivative(f, u[0], w)
    assert np.array_equal(fan[0], single[0])
    assert np.max(np.abs(fan - df(u[0], w))) <= 1e-8


def test_single_point_step_is_unchanged():
    # h = step (1 + |u|) with |u| as np.linalg.norm computes it
    u = np.array([0.7, -1.3, 2.2])
    w = np.array([0.3, 0.1, -0.4])
    h = 1e-5 * (1.0 + float(np.linalg.norm(u)))

    def central(hh):
        return (np.sin(u + hh * w) - np.sin(u - hh * w)) / (2.0 * hh)

    expected = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert np.array_equal(directional_derivative(np.sin, u, w), expected)


def test_jacobian_on_a_stack():
    chart = get_chart("veronese-hat")
    u = chart.sample(rng_for(7), 5)
    jac = jacobian(chart.xmap, u)
    assert jac.shape == (5, 5, 2)
    for i, p in enumerate(u):
        assert np.max(np.abs(jac[i] - jacobian(chart.xmap, p))) <= 1e-12


def test_gram_schmidt_on_a_stack():
    rows = rng_for(8).standard_normal((4, 3, 5))
    out = gram_schmidt(rows)
    for i in range(4):
        assert np.array_equal(out[i], gram_schmidt(rows[i]))
        assert np.max(np.abs(out[i] @ out[i].T - np.eye(3))) <= 1e-14
    rows[2, 1] = rows[2, 0]
    with pytest.raises(ImmersionDegenerateError):
        gram_schmidt(rows)


def test_superminimal_residual_is_the_angle_loop():
    jt = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = rng_for(9)
    for _ in range(50):
        a3, a4 = rng.standard_normal((2, 2, 2))
        for sign in (1.0, -1.0):
            worst = 0.0
            for theta in np.linspace(0.0, np.pi, 9):
                a_nu = np.cos(theta) * a3 + np.sin(theta) * a4
                a_jn = np.cos(theta) * a4 - np.sin(theta) * a3
                worst = max(worst, float(np.max(np.abs(a_jn - sign * (jt @ a_nu)))))
            assert float(superminimal_residual(np.array([a3, a4]), sign)) == worst


# -- golden tables over a stack -------------------------------------------------------------


@pytest.mark.parametrize("name", golden_table_names())
def test_golden_residuals_on_a_stack(name):
    chart = get_chart(name)
    u = chart.sample(rng_for(10), 8)
    res = golden_residuals(name, u)
    assert res["max"].shape == (8,)
    for i, p in enumerate(u):
        single = golden_residuals(name, p)
        for key in ("gamma", "second_fund", "max"):
            assert abs(res[key][i] - single[key]) <= 1e-9


# -- (e) errors name the row ------------------------------------------------------------------


def test_out_of_box_row_is_named():
    chart = get_chart("veronese")
    u = chart.sample(rng_for(11), 6)
    u[3] = [0.01, 1.0]  # phi below the safe box
    with pytest.raises(DomainError, match=r"\[0\.01, 1\.0\] \(row 3\)"):
        adapted_frame(chart, u)
    with pytest.raises(DomainError, match=r"row 3"):
        golden_residuals("veronese", u)


def test_degenerate_row_is_named():
    def squash(u):
        u = np.asarray(u, dtype=float)
        x = np.zeros(u.shape[:-1] + (5,))
        x[..., 0] = np.cos(u[..., 0])
        x[..., 1] = np.sin(u[..., 0]) * np.where(u[..., 1] > 0.5, 0.0, 1.0)
        x[..., 2] = np.sin(u[..., 0]) * np.where(u[..., 1] > 0.5, 1.0, 0.0)
        return x  # rank one: ignores u2 except for a switch

    chart = ImmersionChart(
        name="squash", q=2, n=4, xmap=squash,
        sample_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), frame_field=unread_frame,
    )
    with pytest.raises(ImmersionDegenerateError, match=r"row 0"):
        adapted_frame(chart, np.array([[0.2, 0.1], [0.3, 0.2]]))
