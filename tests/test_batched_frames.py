"""The frame layer over stacks of points.

Charts, complex-step derivatives, adapted frames, the Stenzel residual and the golden
tables accept a stack of P chart points and must agree with P single-point
calls; the per-point Stenzel chain in conftest is the reference for omega,
and the per-sample scalar closed form for the suite's two diagnostics.
"""

import dataclasses
import itertools
import sys

import numpy as np
import pytest

from twistcal import stenzel
from twistcal.cli import main
from twistcal.errors import DomainError, ImmersionDegenerateError
from twistcal.examples import golden_residuals, golden_table_names
from twistcal.numerics import complex_step, directional_derivative, gram_schmidt, jacobian
from twistcal.stenzel import (
    closed_form_tangents,
    constant_mu,
    lagrangian_columns,
    lagrangian_samples,
    mixed_pairing_closed_form,
    omega_matrix,
    omega_value,
    twisted_conormal_point,
)
from twistcal.submanifold import (
    ImmersionChart,
    _gram,
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
from workloads import WORKLOADS, job_argv


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
    # a stack with two leading axes, as the derivatives pass it
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


def test_gram_algebra_matches_lapack():
    # Gaussian columns scaled as a whole by 10^[-11, 2] and one by one by
    # 10^[-1, 0], so sigma_min spans 1e-12 to 1e2 while each matrix stays well
    # conditioned: the SVD is relatively accurate only up to eps times the
    # condition number, and the normal equations, however they are solved,
    # to its square; the e_j lie in the image of J, as the frame's tangent
    # rows do
    rng = rng_for(30)
    count = 1000
    for q in (1, 2):
        jac = (
            rng.standard_normal((count, 5, q))
            * 10.0 ** rng.uniform(-11.0, 2.0, (count, 1, 1))
            * 10.0 ** rng.uniform(-1.0, 0.0, (count, 1, q))
        )
        sigma_min, g_inv = _gram(np.swapaxes(jac, -1, -2))
        oracle = np.linalg.svd(jac, compute_uv=False).min(axis=-1)
        assert oracle.min() <= 1e-11 and oracle.max() >= 10.0
        assert np.max(np.abs(sigma_min - oracle) / oracle) <= 1e-12
        clear = (oracle < 0.99e-8) | (oracle > 1.01e-8)
        assert np.array_equal((sigma_min < 1e-8)[clear], (oracle < 1e-8)[clear])
        tangents = rng.standard_normal((count, q, q)) @ np.swapaxes(jac, -1, -2)
        velocities = (tangents @ jac) @ g_inv
        for i in np.flatnonzero(oracle >= 1e-8):
            expected = np.linalg.lstsq(jac[i], tangents[i].T, rcond=None)[0].T
            assert np.max(np.abs(velocities[i] - expected)) <= 1e-12 * np.max(np.abs(expected))
    # columns 1e-6 apart: the 2 x 2 minors keep sigma_min to eps times the
    # condition number (about 1e7), where g11 g22 - g12^2 keeps about two digits
    j1 = rng.standard_normal((count, 5))
    cols = np.stack([j1, j1 + 1e-6 * rng.standard_normal((count, 5))], axis=1)
    oracle = np.linalg.svd(cols, compute_uv=False).min(axis=-1)
    assert np.max(np.abs(_gram(cols)[0] - oracle) / oracle) <= 1e-7


def test_adapted_frame_rejects_q_above_two():
    def three_sphere(u):
        u = np.asarray(u)
        a, b, c = u[..., 0], u[..., 1], u[..., 2]
        x = np.zeros(u.shape[:-1] + (5,), u.dtype)
        x[..., 0] = np.cos(a)
        x[..., 1] = np.sin(a) * np.cos(b)
        x[..., 2] = np.sin(a) * np.sin(b) * np.cos(c)
        x[..., 3] = np.sin(a) * np.sin(b) * np.sin(c)
        return x

    chart = ImmersionChart(
        name="three-sphere", q=3, n=4, xmap=three_sphere,
        sample_box=np.array([[0.5, 1.0]] * 3), frame_field=unread_frame,
    )
    with pytest.raises(DomainError, match=r"q=3"):
        adapted_frame(chart, np.array([0.7, 0.8, 0.9]))


@pytest.mark.parametrize("name", ["equatorial", "veronese", "great-circle"])
def test_adapted_frame_evaluates_each_chart_map_once_without_lapack(monkeypatch, name):
    def refused(*args, **kwargs):
        raise AssertionError("adapted_frame called np.linalg")

    for routine in ("svd", "solve", "lstsq", "inv"):
        monkeypatch.setattr(np.linalg, routine, refused)
    chart = CHARTS[name]
    calls = []

    def counted(f):
        def call(u):
            calls.append(f)
            return f(u)

        return call

    counted_chart = dataclasses.replace(
        chart, xmap=counted(chart.xmap), frame_field=counted(chart.frame_field)
    )
    adapted_frame(counted_chart, chart.sample(rng_for(31), 5))
    assert calls == [chart.xmap, chart.frame_field]


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
    pytest.param(SuiteConfig("stenzel-lagrangian", "veronese", "0", seed=7), id="readme-veronese-pass"),
]


@pytest.mark.parametrize("config", STENZEL_CONFIGS)
def test_stenzel_diagnostics_match_per_sample_route(config):
    agg = run_suite(config).aggregates
    gap, bracket = pointwise_stenzel_diagnostics(config)
    assert abs(agg["diagnostic.closed_form_gap.max"] - gap) <= 1e-12
    assert agg["diagnostic.bracket_factor.min"] == pytest.approx(bracket, rel=1e-13, abs=0)


NATIVE_FRAME_CONFIGS = STENZEL_CONFIGS + [
    pytest.param(SuiteConfig("stenzel-lagrangian", "veronese", "-1.5e2"), id="veronese-large-mu"),
    pytest.param(SuiteConfig("stenzel-lagrangian", "equatorial", "2e1"), id="equatorial-mu2"),
]


def _assert_matches_differentiated_route(pts, oracle):
    # z and every tangent of the verify path's point, against the point whose
    # tangents are complex-step derivatives of the total-space map
    for name in ("z", "tangents_e", "tangents_f"):
        got, want = getattr(pts, name), getattr(oracle, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want))), name


@pytest.mark.parametrize("config", NATIVE_FRAME_CONFIGS)
def test_mixed_block_needs_no_normal_frame(config):
    # the suite reads the mixed block in the chart's own adapted frame, where
    # E_i carries sum_l C_il F_l on top of its normal-frame value; the block
    # does not see that term, because the cotangent fibre is isotropic
    chart, profile, mu, samples, fibers = stenzel_job_inputs(config)
    q = chart.q
    _, _, bracket, pts, omega = lagrangian_columns(chart, mu, samples, fibers, profile)
    mixed = omega[:, :q, q:]
    bound = 1e-7 * (1.0 + np.max(np.abs(mixed)))
    # the suite's point is read from Gamma in closed form; the oracle
    # differentiates the total-space map, at every sample
    oracle, _, _ = closed_form_tangents(chart, mu, samples, fibers)
    _assert_matches_differentiated_route(pts, oracle)
    c = np.einsum("pk,pikl->pil", fibers, oracle.frame_point.gamma[:, :, q:, q:])
    normal_frame_e = oracle.tangents_e - c @ oracle.tangents_f
    route = omega_matrix(oracle.z, np.concatenate([normal_frame_e, oracle.tangents_f], axis=-2), profile)
    assert np.max(np.abs(mixed - route[:, :q, q:])) <= bound
    assert np.max(np.abs(mixed - mixed_pairing_closed_form(pts, bracket))) <= bound


@pytest.mark.parametrize("config", NATIVE_FRAME_CONFIGS)
def test_rotated_pairing_equals_the_dense_omega_matrix(config):
    # the verify path pairs the tangents through the real rank-one form of a
    # at the rotated point; the dense Hermitian a of stenzel_coeffs is its oracle
    chart, profile, mu, samples, fibers = stenzel_job_inputs(config)
    _, _, _, pts, omega = lagrangian_columns(chart, mu, samples, fibers, profile)
    dense = omega_matrix(pts.z, pts.all_tangents(), profile)
    assert omega.shape == dense.shape == (len(samples), chart.n, chart.n)
    assert np.all(np.abs(omega - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


def test_stenzel_verify_path_calls_no_dense_kaehler_form(monkeypatch, tmp_path):
    calls = []
    for name in ("stenzel_coeffs", "omega_matrix"):
        def counted(*args, _f=getattr(stenzel, name), **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)

        monkeypatch.setattr(stenzel, name, counted)
    for job in WORKLOADS["frames-fd"]:
        if job.argv[1] == "stenzel-lagrangian":
            code = main(job_argv(job, 1, str(tmp_path / "r.json")))
            assert code == (0 if job.expected == "PASS" else 1), job.label
    assert calls == []
    # the guard sees the dense form, which the tests call as the oracle
    stenzel.omega_matrix(np.array([1.0, 0, 0, 0, 0]), np.eye(5)[1:])
    assert calls == ["omega_matrix", "stenzel_coeffs"]


@pytest.mark.parametrize("name", chart_names())
def test_closed_form_tangents_match_the_main_path(name):
    # the verify path's closed-form point against the differentiated one, on
    # the samples a 250-sample job draws at seeds 1 and 2, for a zero twist
    # and a twist along each tangent direction
    for mu, seed in itertools.product(("0", "0.3e1", "0.3e2"), (1, 2)):
        config = SuiteConfig("stenzel-lagrangian", name, mu, samples=250, seed=seed, profile="unit")
        chart, _, mu_coeffs, samples, fibers = stenzel_job_inputs(config)
        pts = twisted_conormal_point(chart, mu_coeffs, samples, fibers)
        oracle, e_closed, f_closed = closed_form_tangents(chart, mu_coeffs, samples, fibers)
        _assert_matches_differentiated_route(pts, oracle)
        assert np.array_equal(pts.tangents_e, e_closed)
        assert np.array_equal(pts.tangents_f, f_closed)


def test_oracle_point_does_not_read_the_closed_forms(monkeypatch):
    # the oracle differentiates the verify path's point: a perturbation of
    # that point's z and tangents reaches the closed forms it returns, and not
    # the z and tangents it takes from the total-space map
    chart, mu = get_chart("veronese"), constant_mu([0.3, -0.2])
    samples, fibers = chart.sample(rng_for(5), 4), _sample_fibers(rng_for(6), 4, 2)
    want, e_want, f_want = closed_form_tangents(chart, mu, samples, fibers)
    original = stenzel.twisted_conormal_point

    def perturbed(*args):
        pt = original(*args)
        return dataclasses.replace(
            pt, z=pt.z + 0.5, tangents_e=pt.tangents_e + 0.5j, tangents_f=pt.tangents_f - 0.5
        )

    monkeypatch.setattr(stenzel, "twisted_conormal_point", perturbed)
    got, e_got, f_got = closed_form_tangents(chart, mu, samples, fibers)
    for name in ("z", "tangents_e", "tangents_f"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(e_got, e_want + 0.5j)
    assert np.array_equal(f_got, f_want - 0.5)


def test_verify_path_takes_no_derivative_of_the_total_space_map(monkeypatch, tmp_path):
    # a Stenzel job makes two complex steps, one call of each chart map in
    # adapted_frame; closed_form_tangents adds the total-space step, so its
    # point is the differentiated route and not the verify path's
    calls = []

    def counted(f, u, w):
        calls.append(f)
        return complex_step(f, u, w)

    for name, module in list(sys.modules.items()):
        if name.startswith("twistcal.") and getattr(module, "complex_step", None) is complex_step:
            monkeypatch.setattr(module, "complex_step", counted)
    argv = ["verify", "stenzel-lagrangian", "--samples", "2", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert len(calls) == 2
    calls.clear()
    chart = get_chart("veronese")
    samples = chart.sample(rng_for(3), 2)
    closed_form_tangents(chart, constant_mu([0.3, 0.0]), samples, _sample_fibers(rng_for(4), 2, 2))
    assert len(calls) == 3


# -- (d) complex-step derivatives -----------------------------------------------------------


def test_batched_directional_derivative_exact_on_quadratics():
    # the step's h^2 term of a quadratic lands in the real part, so the
    # imaginary part is the derivative itself; elementwise arithmetic only,
    # so a stacked call of f rounds exactly as the single-point calls do
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
    assert np.max(np.abs(batched - df(u, w))) <= 1e-14
    # each row equals its own single-point call
    single = np.array([directional_derivative(f, p, d) for p, d in zip(u, w)])
    assert np.array_equal(batched, single)
    # one point against a stack of directions
    fan = directional_derivative(f, u[0], w)
    assert np.array_equal(fan[0], single[0])
    assert np.max(np.abs(fan - df(u[0], w))) <= 1e-14


def test_single_point_step_is_unchanged():
    # one call of f at u + i h w with h = 1e-30, whatever |u| is
    u = np.array([0.7, -1.3, 2.2])
    w = np.array([0.3, 0.1, -0.4])
    expected = np.sin(u + 1e-30j * w).imag / 1e-30
    assert np.array_equal(directional_derivative(np.sin, u, w), expected)
    assert np.max(np.abs(expected - np.cos(u) * w)) <= 1e-16


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
    # the closed form is the supremum of the residual over the whole circle
    # of unit normals: a dense sweep reads at most it, and at least cos(pi/N)
    # of it, N being the number of angles
    count = 100_000
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)[:, None, None]
    c, s = np.cos(theta), np.sin(theta)
    rng = rng_for(9)
    for _ in range(10):
        a3, a4 = rng.standard_normal((2, 2, 2))
        a3, a4 = a3 + a3.T, a4 + a4.T
        a_nu, a_jn = c * a3 + s * a4, c * a4 - s * a3
        jt_a_nu = np.stack([-a_nu[:, 1], a_nu[:, 0]], axis=1)  # J_T e1 = e2, J_T e2 = -e1
        for sign in (1.0, -1.0):
            sweep = float(np.max(np.abs(a_jn - sign * jt_a_nu)))
            closed = float(superminimal_residual(np.array([a3, a4]), sign))
            assert sweep <= closed + 1e-9
            assert closed * np.cos(np.pi / count) <= sweep + 1e-12


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
        u = np.asarray(u)
        x = np.zeros(u.shape[:-1] + (5,), u.dtype)
        x[..., 0] = np.cos(u[..., 0])
        x[..., 1] = np.sin(u[..., 0]) * np.where(u[..., 1].real > 0.5, 0.0, 1.0)
        x[..., 2] = np.sin(u[..., 0]) * np.where(u[..., 1].real > 0.5, 1.0, 0.0)
        return x  # rank one: ignores u2 except for a switch

    chart = ImmersionChart(
        name="squash", q=2, n=4, xmap=squash,
        sample_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), frame_field=unread_frame,
    )
    with pytest.raises(ImmersionDegenerateError, match=r"row 0"):
        adapted_frame(chart, np.array([[0.2, 0.1], [0.3, 0.2]]))
