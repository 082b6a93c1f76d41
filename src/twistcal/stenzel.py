"""The Calabi-Yau structure on T*S^n modelled on the complex quadric, and the
Lagrangian test for twisted conormal bundles.

``psi_map`` identifies a cotangent vector (x, xi) with the quadric point
x cosh|xi| + i (xi/|xi|) sinh|xi|.  The Kaehler form of the Stenzel metric
(Stenzel, Manuscripta Math. 80 (1993)) is

    omega = (i/2) sum_{j,k>=1} a_jk dz_j ^ dconj(z)_k,
    a_jk  = (delta_jk + z_j conj(z_k) / |z_0|^2) v'
            + 2 Re(conj(z_j) z_k - (conj(z_0)/z_0) z_j z_k) v'',

valid on the coordinate patch z_0 != 0, with v', v'' > 0 radial profile
scalars (only positivity matters for every verdict here, so the profile is
injected rather than solved for).  ``stenzel_coeffs``, ``omega_value`` and
``omega_matrix`` evaluate it at any quadric point; they are the tests' oracle.

Evaluation always re-bases coordinates by the orthogonal transformation that
sends the adapted frame (x, e, nu) at the base point to the standard basis;
the form is invariant under complex orthogonal transformations and the guard
|z_0| >= cosh sqrt(y) >= 1 then holds automatically.

In those coordinates a point of the twisted conormal bundle and its tangents
E_i, F_j are closed forms in the fibre coordinates t, the twist mu and the
adapted frame's connection coefficients gamma, so the verify path takes no
derivative past ``adapted_frame``.  Their oracle, ``closed_form_tangents``,
takes that same point and reads z and the tangents again from one complex
step of the total-space map: its real part is z, its imaginary parts the
tangents.

The point is z = (cosh sqrt y, i w) with w = sinhc(y) xi real, and there the
coefficient matrix is the real rank-one update
a = v' I + beta w w^T, beta = v' / cosh^2 sqrt y + 4 v''.  So the verify
path pairs the tangent rows V = R + i I (without slot 0) as
omega = -Im(V a V^H) = M^T - M with M = I a R^T: real matrix products on the
real and imaginary parts of the rows, with no complex coefficient matrix.  Of the
path's numpy loops only the float64 ``cosh`` and ``sinh`` (``_cosh_sinhc``, ``mixed_pairing_closed_form``)
change its bytes between numpy's X86_V4 (AVX-512) dispatch level and X86_V3, where both use libm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ChartError, DomainError
from .numerics import Profile, complex_step, row_norms
from .submanifold import AdaptedFramePoint, ImmersionChart, adapted_frame
from .submanifold import with_normal_frame  # noqa: F401  (perfbench/tracing.py wraps it by this name)

__all__ = [
    "DEFAULT_PROFILE",
    "constant_mu",
    "psi_map",
    "stenzel_coeffs",
    "omega_value",
    "omega_matrix",
    "TwistedConormalPoint",
    "twisted_conormal_point",
    "closed_form_tangents",
    "mixed_pairing_closed_form",
    "bracket_factor",
    "lagrangian_columns",
    "lagrangian_samples",
]


# (v', v'') at the quadric radius |z|
DEFAULT_PROFILE = Profile(lambda r: 1.0 + r * r, lambda r: 2.0 * r + 1.0)


def constant_mu(coeffs) -> np.ndarray:
    """The twist 1-form mu along L: its (q,) coefficients against the chart
    coframe."""
    return np.asarray(coeffs, dtype=float)


def _cosh_sinhc(s):
    """cosh(sqrt s) and sinh(sqrt s)/sqrt s, elementwise: both are analytic
    in s, so a complex step through s = xi . xi passes through."""
    s = np.asarray(s)
    r = np.sqrt(s)
    small = np.abs(s.real) < 1e-12
    safe = np.where(small, 1.0, r)
    return np.cosh(r), np.where(small, 1.0 + s / 6.0 + s * s / 120.0, np.sinh(safe) / safe)


def _psi_parts(x, xi) -> np.ndarray:
    """The real and imaginary parts of :func:`psi_map` as a (..., 2, n+1)
    array, each real-analytic in (x, xi), so that a complex step through them
    differentiates both."""
    s = (xi * xi).sum(axis=-1)
    if np.any(np.abs((x * xi).sum(axis=-1).real) > 1e-9 * (1.0 + np.sqrt(np.abs(s.real)))):
        raise DomainError("cotangent vector must be orthogonal to the base point")
    ch, shc = _cosh_sinhc(s)
    return np.stack(np.broadcast_arrays(x * ch[..., None], xi * shc[..., None]), axis=-2)


def psi_map(x, xi) -> np.ndarray:
    """Map (x, xi) with <x, xi> = 0 to the quadric sum z_k^2 = 1.

    Broadcasts over leading axes: (..., n+1) points and covectors give
    (..., n+1) quadric points.
    """
    parts = _psi_parts(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
    return parts[..., 0, :] + 1j * parts[..., 1, :]


Z0_GUARD = 0.1  # the coefficient chart needs |z_0| above this


def stenzel_coeffs(z, profile: Profile = DEFAULT_PROFILE) -> np.ndarray:
    """Hermitian coefficient matrix a_jk (j, k = 1..n) at a quadric point;
    (..., n+1) points give (..., n, n) matrices."""
    z = np.asarray(z, dtype=complex)
    z0 = z[..., 0, None, None]
    if np.any(np.abs(z0) <= Z0_GUARD):
        raise ChartError("coefficient chart needs |z_0| above the guard; re-base first")
    vp, vpp = profile.at(np.linalg.norm(z, axis=-1))
    vp, vpp = np.asarray(vp)[..., None, None], np.asarray(vpp)[..., None, None]
    w = z[..., 1:]
    col, row = w[..., :, None], w[..., None, :]
    herm = (np.eye(w.shape[-1]) + col * row.conjugate() / (np.abs(z0) ** 2)) * vp
    sym = 2.0 * np.real(col.conjugate() * row - (z0.conjugate() / z0) * (col * row)) * vpp
    return herm + sym


def omega_value(z, v, w, profile: Profile = DEFAULT_PROFILE):
    """omega(v, w) for tangent vectors given in the re-based coordinates;
    broadcasts over leading axes."""
    a = stenzel_coeffs(z, profile)
    vv = np.asarray(v, dtype=complex)[..., 1:]
    ww = np.asarray(w, dtype=complex)[..., 1:]
    pair = vv[..., :, None] * ww[..., None, :].conjugate() - ww[..., :, None] * vv[..., None, :].conjugate()
    return (0.5j * np.sum(a * pair, axis=(-2, -1))).real[()]


def omega_matrix(z, tangents, profile: Profile = DEFAULT_PROFILE) -> np.ndarray:
    """omega(V_i, V_l) for every pair of tangent rows V of shape (..., m, n+1).

    With S = V' a V'^H (V' the rows without slot 0), the pairing matrix is
    Re((i/2)(S - S^T)); z has shape (..., n+1).
    """
    a = stenzel_coeffs(z, profile)
    v = np.asarray(tangents, dtype=complex)[..., 1:]
    s = v @ a @ np.swapaxes(v, -1, -2).conjugate()
    return (0.5j * (s - np.swapaxes(s, -1, -2))).real


# -- twisted conormal bundle ---------------------------------------------------


@dataclass(frozen=True)
class TwistedConormalPoint:
    """A point of the twisted conormal bundle with its tangent basis.

    Everything is expressed in the rotated coordinates in which the adapted
    frame at the base point is the standard basis, so z = (cosh sqrt(y), ...)
    and the coefficient chart is always valid.  Built over a stack of P
    points, every array gains a leading P axis and ``point[i]`` is the i-th
    point.
    """

    frame_point: AdaptedFramePoint
    t: np.ndarray
    mu_coeffs: np.ndarray
    y: float
    z: np.ndarray  # (n+1,) complex, rotated
    tangents_e: np.ndarray  # (q, n+1) complex, rotated
    tangents_f: np.ndarray  # (n-q, n+1) complex, rotated

    def all_tangents(self) -> np.ndarray:
        return np.concatenate([self.tangents_e, self.tangents_f], axis=-2)

    def __getitem__(self, i) -> "TwistedConormalPoint":
        return TwistedConormalPoint(
            frame_point=self.frame_point[i],
            t=self.t[i],
            mu_coeffs=self.mu_coeffs[i],
            y=float(self.y[i]),
            z=self.z[i],
            tangents_e=self.tangents_e[i],
            tangents_f=self.tangents_f[i],
        )


def _rows_times(coeffs, vectors):
    """sum_l coeffs[..., l] vectors[..., l, :], broadcasting the leading axes."""
    return (np.asarray(coeffs)[..., None, :] @ vectors)[..., 0, :]


def twisted_conormal_point(chart: ImmersionChart, mu, u, t) -> TwistedConormalPoint:
    """Assemble the point and its tangent basis, re-based at the frame.

    ``mu`` holds the (q,) coefficients of the twist.  ``u`` and ``t`` are
    one chart point (q,) and fibre coordinate (n-q,), or stacks (P, q) and
    (P, n-q).  Everything is read from the adapted frame's gamma, with no
    derivative of the total-space map.  With a = mu, xi = (a, t) the fibre
    covector on slots 1..n, y = |xi|^2 and sinhc(y) = sinh(sqrt y)/sqrt y,
    the point is z = (cosh sqrt y, i sinhc(y) xi).

    The tangents are the proof's E_i and F_j in the chart's own adapted
    frame.  The proof derives them at the centre of a normal frame, where
    the twist's coefficients have the covariant derivative
    da_il = sum_m mu_m gamma[i, m, l]; the radial terms in a . da_i drop,
    because gamma's tangent block is antisymmetric.  In the chart's own frame
    the normal rows also turn along e_i, by C_il = sum_k t_k
    gamma[i, q+k, q+l], so E_i gains sum_l C_il F_l.
    """
    point = adapted_frame(chart, u)
    q, n = chart.q, chart.n
    t = np.asarray(t, dtype=float)
    if t.shape != point.u.shape[:-1] + (n - q,):
        raise DomainError("fiber coordinate count must be n - q")
    a = np.broadcast_to(np.asarray(mu, dtype=float), point.u.shape)
    y = ((t[..., None, :] @ t[..., :, None]) + (a[..., None, :] @ a[..., :, None]))[..., 0, 0]
    ch, shc = _cosh_sinhc(y)
    xi = np.concatenate([a, t], axis=-1)
    z = np.concatenate([ch[..., None], 1j * shc[..., None] * xi], axis=-1)

    # the per-point scalars, broadcast over the (row, slot) axes of the tangents
    gamma, eye = point.gamma, np.eye(n)
    ch, sh, yy = ch[..., None, None], shc[..., None, None], y[..., None, None]
    radial = (ch - sh) / np.where(yy > 0, yy, 1.0)  # ch - sh is 0 at y = 0
    tangents_f = np.concatenate(
        [t[..., :, None] * sh, 1j * (sh * eye[q:] + t[..., :, None] * radial * xi[..., None, :])],
        axis=-1,
    )
    da = _rows_times(a[..., None, :], gamma[..., :q, :q])
    a_hat = _rows_times(t[..., None, :], gamma[..., q:, :q])  # sum_k t_k A^k
    a_normal = (gamma[..., q:, :q] @ a[..., None, :, None])[..., 0]  # sum_j a_j A^k_ij
    turn = np.concatenate([a_hat + da, -a_normal], axis=-1)
    tangents_e = np.concatenate([-1j * sh * a[..., :, None], ch * eye[:q] + 1j * sh * turn], axis=-1)
    c = _rows_times(t[..., None, :], gamma[..., q:, q:])
    # the real c on the interleaved real and imaginary parts of the rows
    turned = (c @ tangents_f.view(float)).view(complex)
    return TwistedConormalPoint(
        frame_point=point,
        t=t,
        mu_coeffs=a,
        y=y[()],
        z=z,
        tangents_e=tangents_e + turned,
        tangents_f=tangents_f,
    )


def closed_form_tangents(
    chart: ImmersionChart, mu, u, t
) -> tuple[TwistedConormalPoint, np.ndarray, np.ndarray]:
    """The closed-form tangents next to the same point with z and tangents
    taken from the total-space map instead.

    Returns (point, E_closed, F_closed) for one point or a stack.  The
    closed forms are those of :func:`twisted_conormal_point`.  The returned
    point is that point with z and its tangents replaced by one complex step
    of the total-space map (psi of the cotangent vector) along the base
    directions (velocity_i, 0) and the fibre directions (0, unit_k),
    re-based by the frame rows (x, e, nu): the real part is z and the
    imaginary parts are the tangents.  Past the adapted frame they share no
    code with the closed forms, so the pair checks the verify path.
    """
    closed = twisted_conormal_point(chart, mu, u, t)
    point = closed.frame_point
    q, n = chart.q, chart.n

    def total_map(params):
        # (..., 2, n+1): the real and imaginary parts of the quadric point
        uu, tt = params[..., :q], params[..., q:]
        frame = chart.frame_field(uu)
        xi = _rows_times(tt, frame[..., q:, :]) + _rows_times(mu, frame[..., :q, :])
        return _psi_parts(chart.xmap(uu), xi)

    dirs = np.zeros(point.u.shape[:-1] + (n, n))
    dirs[..., :q, :q] = point.velocities
    dirs[..., q:, q:] = np.eye(n - q)
    params = np.concatenate([point.u, closed.t], axis=-1)[..., None, :]
    value, deriv = complex_step(total_map, params, dirs)
    rebase = np.swapaxes(np.concatenate([point.x[..., None, :], point.frame], axis=-2), -1, -2)
    parts = np.concatenate([value[..., :1, :, :], deriv], axis=-3) @ rebase[..., None, :, :]
    stepped = parts[..., 0, :] + 1j * parts[..., 1, :]
    z, tangents = stepped[..., 0, :], stepped[..., 1:, :]
    differentiated = replace(closed, z=z, tangents_e=tangents[..., :q, :], tangents_f=tangents[..., q:, :])
    return differentiated, closed.tangents_e, closed.tangents_f


def bracket_factor(y, vp, vpp):
    """(1 - tanh(sqrt y)/sqrt y + tanh^2 sqrt y) v' + 4 sinh^2(sqrt y) v'',
    elementwise; 0 at y = 0, its limit, since the v' bracket is about 4y/3."""
    y = np.asarray(y)
    ry = np.sqrt(np.where(y > 0, y, 1.0))
    th = np.tanh(ry)
    return np.where(y > 0, (1.0 - th / ry + th * th) * vp + 4.0 * np.sinh(ry) ** 2 * vpp, 0.0)[()]


def mixed_pairing_closed_form(point: TwistedConormalPoint, bracket) -> np.ndarray:
    """The proof-side omega(E_i, F_j) = a_i t_j cosh^2(sqrt y) / y * bracket,
    as the (..., q, n-q) block; zero where y = 0.  ``bracket`` is
    :func:`bracket_factor` at the point's y and profile values, one per point.

    The proof derives it at the centre of a normal frame, but it holds in the
    chart's own adapted frame too.  There E_i differs from its normal-frame
    value by sum_l C_il F_l, with C_il = sum_k t_k gamma[i, q+k, q+l] the
    normal connection, so the block differs by sum_l C_il omega(F_l, F_j).
    That term vanishes: the F_l span one cotangent fibre, which is isotropic
    (the ``omega_max`` residual bounds omega(F, F) numerically).  mu is read
    in the native frame on both routes, so it adds no term.
    """
    y = np.asarray(point.y)[..., None, None]
    safe = np.where(y > 0, y, 1.0)
    ch = np.cosh(np.sqrt(safe))
    a_t = point.mu_coeffs[..., :, None] * point.t[..., None, :]
    return np.where(y > 0, a_t * ch * ch / safe * np.asarray(bracket)[..., None, None], 0.0)


def _rotated_pairing(point: TwistedConormalPoint, vp, vpp) -> np.ndarray:
    """omega(V_i, V_l) over all tangent rows of a point built in the rotated
    coordinates, from the real rank-one a = v' I + beta w w^T of the module
    docstring: M^T - M with M = I a R^T.  ``omega_matrix`` is its oracle."""
    z0 = point.z[..., 0].real
    if np.any(np.abs(z0) <= Z0_GUARD):
        raise ChartError("coefficient chart needs |z_0| above the guard; re-base first")
    w = point.z[..., 1:].imag
    rows = point.all_tangents()[..., 1:]
    vp, vpp = np.asarray(vp)[..., None, None], np.asarray(vpp)[..., None, None]
    beta = vp / (z0 * z0)[..., None, None] + 4.0 * vpp
    a = vp * np.eye(w.shape[-1]) + beta * (w[..., :, None] * w[..., None, :])
    m = (rows.imag @ a) @ np.swapaxes(rows.real, -1, -2)
    return np.swapaxes(m, -1, -2) - m


def lagrangian_columns(
    chart: ImmersionChart, mu, samples, fiber_values, profile: Profile = DEFAULT_PROFILE
):
    """Per-sample maximal |omega| over all tangent pairs, the criterion
    |mu(u)| and the :func:`bracket_factor`, as (P,) columns, with the stacked
    ``TwistedConormalPoint`` and its (P, n, n) pairing matrix omega.

    All samples go through one stacked ``twisted_conormal_point``, one
    evaluation of the profile at |z| and one real pairing of the tangent
    rows, whose oracle is ``omega_matrix``.
    """
    pts = twisted_conormal_point(chart, mu, samples, fiber_values)
    vp, vpp = profile.at(np.linalg.norm(pts.z, axis=-1))
    omega = _rotated_pairing(pts, vp, vpp)
    worst = np.max(np.abs(omega), axis=(-2, -1))
    return worst, row_norms(pts.mu_coeffs), bracket_factor(pts.y, vp, vpp), pts, omega


def lagrangian_samples(
    chart: ImmersionChart, mu, samples, fiber_values, profile: Profile = DEFAULT_PROFILE
):
    """:func:`lagrangian_columns` one sample at a time: yields dicts with the
    chart point, fiber coordinates, the residual, the criterion value and the
    sample's ``TwistedConormalPoint``."""
    samples = np.asarray(samples, dtype=float)
    fiber_values = np.asarray(fiber_values, dtype=float)
    worst, mu_norm, _, pts, _ = lagrangian_columns(chart, mu, samples, fiber_values, profile)
    for i, (u, t) in enumerate(zip(samples, fiber_values)):
        yield {
            "u": u,
            "t": t,
            "residuals": {"omega_max": float(worst[i])},
            "criteria": {"mu_norm": float(mu_norm[i])},
            "point": pts[i],
        }
