"""Complex-step derivatives against an independent central-difference oracle.

Every derivative on the verdict path is one complex step (``numerics``).  A
map that is not complex-safe shows here as a disagreement with
``conftest.central_difference``, which differences real evaluations only; a
cast that drops the imaginary part stops a run with exit 1.  The Stenzel
closed-form tangents are held to the main path's to round-off in
``test_batched_frames.test_mixed_block_needs_no_normal_frame``.
"""

import dataclasses

import numpy as np
import pytest

from twistcal import g2
from twistcal.cli import main
from twistcal.examples import make_eta_family, make_section_family
from twistcal.numerics import complex_step, directional_derivative
from twistcal.stenzel import constant_mu, psi_map, twisted_conormal_point
from twistcal.submanifold import (
    _REGISTRY,
    adapted_frame,
    chart_names,
    get_chart,
    rotate_frame_field,
    with_normal_frame,
)
from twistcal.suites import _sample_fibers

from conftest import central_difference, rng_for

TOL = 1e-8  # the oracle's own error is about 1e-10 on these maps


def _charts():
    charts = {name: get_chart(name) for name in chart_names()}
    charts["veronese@rot"] = rotate_frame_field(get_chart("veronese"), 0.4, -1.1)
    centre = get_chart("equatorial").sample(rng_for(20), 1)[0]
    charts["equatorial@normal"] = with_normal_frame(get_chart("equatorial"), centre)
    return charts


CHARTS = _charts()


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_derivatives_match_central_differences(name):
    chart = CHARTS[name]
    rng = rng_for(21)
    u = chart.sample(rng, 6)
    w = rng.standard_normal(u.shape)
    for fn in (chart.xmap, chart.frame_field):
        exact = directional_derivative(fn, u, w)
        assert exact.shape == fn(u).shape
        assert np.max(np.abs(exact - central_difference(fn, u, w))) <= TOL


@pytest.mark.parametrize("name", chart_names())
def test_the_stepped_call_reads_the_point_and_frame(name):
    # adapted_frame reads x and the frame from the real parts of its stepped
    # calls; they may differ from a real evaluation only in the last place
    # (complex and real sin, division and sqrt may round differently)
    chart = get_chart(name)
    u = chart.sample(rng_for(22), 1000)
    for fn in (chart.xmap, chart.frame_field):
        plain = fn(u)
        stepped, _ = complex_step(fn, u[:, None, :], np.eye(chart.q))
        assert np.max(np.abs(plain)) <= 1.0
        assert np.max(np.abs(stepped - plain[:, None])) <= 2.3e-16


SECTIONS = [
    pytest.param("equatorial", make_section_family("zero"), id="zero"),
    pytest.param("equatorial", make_section_family("const", re=0.4, im=-1.2), id="const"),
    pytest.param("veronese", make_section_family("sinphi", C=0.8, D=-0.3), id="sinphi"),
    pytest.param("equatorial", make_section_family("equatorial-hol", coeffs=[0.5, 1 - 2j, 0.25j, -0.3]),
                 id="equatorial-hol"),
    pytest.param("veronese", make_section_family("veronese-strip", coeffs={-2: 0.3j, 0: 1.0, 3: 0.2 - 0.1j}),
                 id="veronese-strip"),
    pytest.param("veronese", make_eta_family("zero"), id="eta-zero"),
    pytest.param("veronese", make_eta_family("const", c=-3.0), id="eta-const"),
    pytest.param("equatorial", make_eta_family("coord", axis=1), id="eta-coord-1"),
    pytest.param("veronese", make_eta_family("coord", axis=2), id="eta-coord-2"),
]


@pytest.mark.parametrize("chart_name, family", SECTIONS)
def test_section_derivatives_match_central_differences(chart_name, family):
    chart = get_chart(chart_name)
    point = adapted_frame(chart, chart.sample(rng_for(22), 5))
    u = point.u[:, None, :]
    exact = point.scalar_derivatives(family.parts)
    assert np.max(np.abs(exact - central_difference(family.parts, u, point.velocities))) <= TOL
    if family.rank_two:
        # section_data differentiates the parts of G = a + ib
        sec = g2.section_data(family, point)
        for part, d in ((np.real, sec.da), (np.imag, sec.db)):
            oracle = central_difference(lambda uu: part(family.value(uu)), u, point.velocities)
            assert np.max(np.abs(d - oracle)) <= TOL


@pytest.mark.parametrize("name", chart_names())
def test_stenzel_tangents_match_central_differences(name):
    # the main path differentiates the real and imaginary parts of the
    # quadric point; the oracle differences the complex point itself
    chart = get_chart(name)
    q, n = chart.q, chart.n
    rng = rng_for(23)
    samples = chart.sample(rng, 4)
    fibers = _sample_fibers(rng, 4, n - q)
    mu = constant_mu([0.4, -1.1])
    pts = twisted_conormal_point(chart, mu, samples, fibers)

    def total_map(params):
        uu, tt = params[..., :q], params[..., q:]
        frame = chart.frame_field(uu)
        xi = np.einsum("...k,...kd->...d", tt, frame[..., q:, :]) + mu @ frame[..., :q, :]
        return psi_map(chart.xmap(uu), xi)

    for i in range(len(samples)):
        dirs = np.zeros((n, n))
        dirs[:q, :q] = pts.frame_point.velocities[i]
        dirs[q:, q:] = np.eye(n - q)
        rot = np.vstack([pts.frame_point.x[i], pts.frame_point.frame[i]])
        params0 = np.concatenate([samples[i], fibers[i]])
        oracle = central_difference(total_map, params0, dirs) @ rot.T
        assert np.max(np.abs(pts[i].all_tangents() - oracle)) <= TOL


# -- a lost derivative stops the run -------------------------------------------------


def _casting_chart(name):
    # casts its chart points to float, which drops the imaginary part of a
    # complex step: the frame derivative would read 0 without a sound
    chart = get_chart(name)
    frame_field = chart.frame_field
    return dataclasses.replace(chart, frame_field=lambda u: frame_field(np.asarray(u, dtype=float)))


@pytest.mark.parametrize(
    "argv, what",
    [
        (["verify", "g2-associative", "--chart", "veronese", "--samples", "2"], "suite 'g2-associative'"),
        (["verify", "stenzel-lagrangian", "--chart", "veronese", "--samples", "2"],
         "suite 'stenzel-lagrangian'"),
        (["table", "veronese", "--samples", "2"], "table 'veronese'"),
    ],
    ids=["g2-associative", "stenzel-lagrangian", "table"],
)
def test_a_lost_derivative_exits_1_with_one_line(argv, what, monkeypatch, capsys):
    monkeypatch.setitem(_REGISTRY, "veronese", _casting_chart("veronese"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"diagnostic failure: {what}: Casting complex values to real discards the imaginary part, "
        "which loses a derivative\n"
    )
