"""The entry-wise chart maps of ``twistcal.examples`` against the vector-form
maps they replaced, kept here as the oracle, and the adapted frame's
connection coefficients against the pairing projected onto T S^n.

The oracle builds each point and frame from per-point vectors: the Veronese
point from (x, y, z) on the radius-sqrt(3) sphere, and each frame row as a
combination of the y-vectors, with complex sines and cosines of the double
angles.  It shares no arithmetic with the library's maps.
"""

import math

import numpy as np
import pytest

from twistcal.numerics import complex_step
from twistcal.submanifold import adapted_frame, chart_names, get_chart, rotate_frame_field, with_normal_frame

from conftest import great_circle_chart, latitude_chart, rng_for

_SQ3 = math.sqrt(3.0)
_E5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
_W_HAT = np.array([0.0, 0.0, 0.0, -_SQ3 / 2.0, 0.5])


def _vec(like, *components):
    """Per-point components (arrays shaped like ``like``, or constants)
    stacked on a new last axis, in their common dtype."""
    out = np.empty(np.shape(like) + (len(components),), np.result_type(like, *components))
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def _veronese_point(x, y, z):
    return _vec(
        x, x * y, x * z, y * z, (x * x - y * y) / 2.0, (x * x + y * y - 2.0 * z * z) / (2.0 * _SQ3)
    ) / _SQ3


def _y_vectors(theta):
    s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
    s, c = np.sin(theta), np.cos(theta)
    return (_vec(theta, s2, 0.0, 0.0, c2, 0.0), _vec(theta, 0.0, c, s, 0.0, 0.0),
            _vec(theta, c2, 0.0, 0.0, -s2, 0.0), _vec(theta, 0.0, -s, c, 0.0, 0.0))


def _y_hat_vectors(theta):
    s, c = np.sin(theta), np.cos(theta)
    s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
    return (_vec(theta, s, 0.0, c, 0.0, 0.0),
            _vec(theta, 0.0, _SQ3 * s * c, 0.0, _SQ3 / 2.0 * s * s, 0.5 * (1 - 3 * c * c)),
            _vec(theta, c, 0.0, -s, 0.0, 0.0),
            _vec(theta, 0.0, c2, 0.0, 0.5 * s2, _SQ3 / 2.0 * s2))


def _angles(u):
    u = np.asarray(u)
    phi, theta = u[..., 0], u[..., 1]
    return phi, theta, np.sin(phi)[..., None], np.cos(phi)[..., None]


def _equatorial_point(u):
    r2 = (u[..., None, :] @ u[..., :, None])[..., 0]
    out = np.zeros(u.shape[:-1] + (5,), np.result_type(u, float))
    out[..., :1] = (r2 - 1.0) / (r2 + 1.0)
    out[..., 1:3] = 2.0 * u / (r2 + 1.0)
    return out


def _equatorial_frame(u):
    u1, u2 = u[..., 0], u[..., 1]
    out = np.zeros(u.shape[:-1] + (4, 5), np.result_type(u, float))
    out[..., 0, :3] = np.stack([2 * u1, 1 - u1 * u1 + u2 * u2, -2 * u1 * u2], axis=-1)
    out[..., 1, :3] = np.stack([2 * u2, -2 * u1 * u2, 1 + u1 * u1 - u2 * u2], axis=-1)
    out[..., :2, :3] /= (u1 * u1 + u2 * u2 + 1.0)[..., None, None]
    out[..., 2, 3] = 1.0
    out[..., 3, 4] = -1.0
    return out


def _veronese_point_psi(u):
    _, theta, sp, cp = _angles(u)
    sp, cp = sp[..., 0], cp[..., 0]
    return _veronese_point(_SQ3 * sp * np.cos(theta), _SQ3 * sp * np.sin(theta), _SQ3 * cp)


def _veronese_frame_psi(u):
    phi, theta, s, c = _angles(u)
    y1, y2, y3, y4 = _y_vectors(theta)
    s2, c2 = np.sin(2 * phi)[..., None], np.cos(2 * phi)[..., None]
    e1 = 0.5 * s2 * y1 + c2 * y2 + (_SQ3 / 2.0) * s2 * _E5
    e2 = s * y3 + c * y4
    nu3 = -c * y3 + s * y4
    nu4 = 0.5 * ((1 + c * c) * y1 - s2 * y2 - _SQ3 * s * s * _E5)
    return np.stack([e1, e2, nu3, nu4], axis=-2)


def _veronese_point_hat(u):
    _, theta, sp, cp = _angles(u)
    sp, cp = sp[..., 0], cp[..., 0]
    return _veronese_point(_SQ3 * sp * np.sin(theta), _SQ3 * cp, _SQ3 * sp * np.cos(theta))


def _veronese_frame_hat(u):
    phi, theta, s, c = _angles(u)
    y1, y2, y3, y4 = _y_hat_vectors(theta)
    s2, c2 = np.sin(2 * phi)[..., None], np.cos(2 * phi)[..., None]
    e1 = c2 * y1 + (s2 / _SQ3) * y2 - (s2 / _SQ3) * _W_HAT
    e2 = c * y3 + s * y4
    nu3 = s * y3 - c * y4
    nu4 = -s * c * y1 + ((1 + c * c) / _SQ3) * y2 + ((1 + s * s) / _SQ3) * _W_HAT
    return np.stack([e1, e2, nu3, nu4], axis=-2)


# each registered chart's oracle (xmap, frame_field); the antipodal chart
# flips the point and swaps the two normals
ORACLES = {
    "equatorial": (_equatorial_point, _equatorial_frame),
    "veronese": (_veronese_point_psi, _veronese_frame_psi),
    "veronese-hat": (_veronese_point_hat, _veronese_frame_hat),
    "veronese-antipodal": (lambda u: -_veronese_point_psi(u),
                           lambda u: _veronese_frame_psi(u)[..., [0, 1, 3, 2], :]),
}


def test_every_registered_chart_has_an_oracle():
    assert sorted(ORACLES) == chart_names()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_chart_maps_match_the_vector_form_oracle(name):
    chart = get_chart(name)
    u = chart.sample(rng_for(41), 1000)
    for new, old in zip((chart.xmap, chart.frame_field), ORACLES[name]):
        assert np.max(np.abs(new(u) - old(u))) <= 1e-14
        # on the complex-step points of adapted_frame: value and derivative
        for got, want in zip(complex_step(new, u[:, None, :], np.eye(2)),
                             complex_step(old, u[:, None, :], np.eye(2))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14


def _projected_gamma(chart, u):
    """Gamma from the frame derivatives projected onto T S^n before they are
    paired with the frame rows, on the adapted frame's own velocities."""
    point = adapted_frame(chart, u)
    p, q, n = len(u), chart.q, chart.n
    dframes = complex_step(chart.frame_field, u[:, None, :], np.eye(q))[1]
    dframe = (point.velocities @ dframes.reshape(p, q, -1)).reshape(p, q * n, n + 1)
    dframe = dframe - (dframe @ point.x[:, :, None]) * point.x[:, None, :]
    return point, (dframe @ np.swapaxes(point.frame, -1, -2)).reshape(p, q, n, n)


def _frame_charts():
    charts = {name: get_chart(name) for name in chart_names()}
    charts["great-circle"] = great_circle_chart()
    charts["latitude"] = latitude_chart()
    charts["veronese@rot"] = rotate_frame_field(get_chart("veronese"), 0.4, -1.1)
    return charts


FRAME_CHARTS = _frame_charts()


@pytest.mark.parametrize("name", sorted(FRAME_CHARTS) + ["veronese-hat@normal"])
def test_gamma_needs_no_projection_onto_the_sphere(name):
    chart = FRAME_CHARTS[name.split("@normal")[0]]
    u = chart.sample(rng_for(43), 200)
    if name.endswith("@normal"):
        chart = with_normal_frame(chart, u)
    point, gamma = _projected_gamma(chart, u)
    q = chart.q
    assert np.max(np.abs(point.gamma - gamma)) <= 1e-14
    assert np.max(np.abs(point.second_fund - np.swapaxes(gamma[:, :, q:, :q], 1, 2))) <= 1e-14
