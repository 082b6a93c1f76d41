"""The Calabi-Yau structure on T*S^n modelled on the complex quadric, and the
Lagrangian test for twisted conormal bundles.

``psi_map`` identifies a cotangent vector (x, xi) with the quadric point
x cosh|xi| + i (xi/|xi|) sinh|xi|.  The Kaehler form is

    omega = (i/2) sum_{j,k>=1} a_jk dz_j ^ dconj(z)_k,
    a_jk  = (delta_jk + z_j conj(z_k) / |z_0|^2) v'
            + 2 Re(conj(z_j) z_k - (conj(z_0)/z_0) z_j z_k) v'',

valid on the coordinate patch z_0 != 0, with v', v'' > 0 radial profile
scalars (only positivity matters for every verdict here, so the profile is
injected rather than solved for).

Evaluation always re-bases coordinates by the orthogonal transformation that
sends the adapted frame (x, e, nu) at the base point to the standard basis;
the form is invariant under complex orthogonal transformations and the guard
|z_0| >= cosh sqrt(y) >= 1 then holds automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChartError, DomainError
from .numerics import DEFAULT_FD_STEP, directional_derivative, row_norms
from .submanifold import AdaptedFramePoint, ImmersionChart, adapted_frame
from .submanifold import with_normal_frame  # noqa: F401  (perfbench/tracing.py wraps it by this name)

__all__ = [
    "StenzelProfile",
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


@dataclass(frozen=True)
class StenzelProfile:
    """Radial profile derivatives; both must stay positive for r > 0."""

    vprime: Callable[[float], float]
    vprimeprime: Callable[[float], float]

    def at(self, r):
        """(v', v'') at a radius, or elementwise over an array of radii."""
        shape = np.shape(r)
        vp = np.broadcast_to(np.asarray(self.vprime(r), dtype=float), shape)[()]
        vpp = np.broadcast_to(np.asarray(self.vprimeprime(r), dtype=float), shape)[()]
        if np.any(vp <= 0) or np.any(vpp <= 0):
            raise DomainError("profile derivatives must be positive")
        return vp, vpp


DEFAULT_PROFILE = StenzelProfile(
    vprime=lambda r: 1.0 + r * r,
    vprimeprime=lambda r: 2.0 * r + 1.0,
)


def constant_mu(coeffs) -> np.ndarray:
    """The twist 1-form mu along L: its (q,) coefficients against the chart
    coframe."""
    return np.asarray(coeffs, dtype=float)


def _sinhc(x):
    """sinh(x)/x, elementwise."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    x2 = x * x
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x2 / 6.0 + x2 * x2 / 120.0, np.sinh(safe) / safe)[()]


def psi_map(x, xi) -> np.ndarray:
    """Map (x, xi) with <x, xi> = 0 to the quadric sum z_k^2 = 1.

    Broadcasts over leading axes: (..., n+1) points and covectors give
    (..., n+1) quadric points.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    r = row_norms(xi)
    if np.any(np.abs((x[..., None, :] @ xi[..., :, None])[..., 0, 0]) > 1e-9 * (1.0 + r)):
        raise DomainError("cotangent vector must be orthogonal to the base point")
    return x * np.cosh(r)[..., None] + 1j * xi * _sinhc(r)[..., None]


Z0_GUARD = 0.1  # the coefficient chart needs |z_0| above this


def stenzel_coeffs(z, profile: StenzelProfile = DEFAULT_PROFILE) -> np.ndarray:
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


def omega_value(z, v, w, profile: StenzelProfile = DEFAULT_PROFILE):
    """omega(v, w) for tangent vectors given in the re-based coordinates;
    broadcasts over leading axes."""
    a = stenzel_coeffs(z, profile)
    vv = np.asarray(v, dtype=complex)[..., 1:]
    ww = np.asarray(w, dtype=complex)[..., 1:]
    pair = vv[..., :, None] * ww[..., None, :].conjugate() - ww[..., :, None] * vv[..., None, :].conjugate()
    return (0.5j * np.sum(a * pair, axis=(-2, -1))).real[()]


def omega_matrix(z, tangents, profile: StenzelProfile = DEFAULT_PROFILE) -> np.ndarray:
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


def _rotation(point: AdaptedFramePoint) -> np.ndarray:
    """Orthogonal matrix sending (x, e, nu) to the standard basis rows."""
    return np.concatenate([point.x[..., None, :], point.frame], axis=-2)


def _rows_times(coeffs, vectors):
    """sum_l coeffs[..., l] vectors[..., l, :], broadcasting the leading axes."""
    return (np.asarray(coeffs)[..., None, :] @ vectors)[..., 0, :]


def twisted_conormal_point(
    chart: ImmersionChart,
    mu,
    u,
    t,
    fd_step: float = DEFAULT_FD_STEP,
) -> TwistedConormalPoint:
    """Assemble the point and its FD tangent basis, re-based at the frame.

    ``mu`` holds the (q,) coefficients of the twist.  ``u`` and ``t`` are
    one chart point (q,) and fibre coordinate (n-q,), or stacks (P, q) and
    (P, n-q); the whole FD stencil of every point goes through one stacked
    call of the total-space map.
    """
    point = adapted_frame(chart, u, fd_step)
    q, n = chart.q, chart.n
    t = np.asarray(t, dtype=float)
    if t.shape != point.u.shape[:-1] + (n - q,):
        raise DomainError("fiber coordinate count must be n - q")
    frame_fn = chart.frame_field

    def total_map(params):
        uu, tt = params[..., :q], params[..., q:]
        frame = frame_fn(uu)
        xi = _rows_times(tt, frame[..., q:, :]) + _rows_times(mu, frame[..., :q, :])
        return psi_map(chart.xmap(uu), xi)

    params0 = np.concatenate([point.u, t], axis=-1)
    rot = _rotation(point)
    z = (rot @ total_map(params0)[..., None])[..., 0]

    # stencil directions: (velocity_i, 0) for the base, (0, unit_k) for the fibre
    dirs = np.zeros(point.u.shape[:-1] + (n, n))
    dirs[..., :q, :q] = point.velocities
    dirs[..., q:, q:] = np.eye(n - q)
    dz = directional_derivative(total_map, params0[..., None, :], dirs, fd_step)
    tangents = dz @ np.swapaxes(rot, -1, -2)

    a = np.broadcast_to(np.asarray(mu, dtype=float), point.u.shape)
    y = ((t[..., None, :] @ t[..., :, None]) + (a[..., None, :] @ a[..., :, None]))[..., 0, 0]
    return TwistedConormalPoint(
        frame_point=point,
        t=t,
        mu_coeffs=a,
        y=y[()],
        z=z,
        tangents_e=tangents[..., :q, :],
        tangents_f=tangents[..., q:, :],
    )


def closed_form_tangents(
    chart: ImmersionChart,
    mu,
    u,
    t,
    fd_step: float = DEFAULT_FD_STEP,
) -> tuple[TwistedConormalPoint, np.ndarray, np.ndarray]:
    """The main path's FD tangents, plus their closed forms.

    Returns (fd_point, E_closed, F_closed) for one point or a stack.  The
    proof derives E_i and F_j at the centre of a normal frame, where the
    twist's coefficients a = mu have the covariant derivative
    da_il = sum_m mu_m gamma[i, m, l]; the radial terms in a . da_i drop,
    because gamma's tangent block is antisymmetric.  In the chart's own frame
    the normal rows also turn along e_i, by C_il = sum_k t_k
    gamma[i, q+k, q+l], so E_i gains sum_l C_il F_l.
    """
    fd_point = twisted_conormal_point(chart, mu, u, t, fd_step)
    q, n = chart.q, chart.n
    gamma = fd_point.frame_point.gamma  # (..., q, n, n)
    a, t = fd_point.mu_coeffs, fd_point.t
    y = np.asarray(fd_point.y)[..., None, None]
    ch, sh = np.cosh(np.sqrt(y)), _sinhc(np.sqrt(y))
    radial = (ch - sh) / np.where(y > 0, y, 1.0)  # ch - sh is 0 at y = 0
    xi = np.concatenate([a, t], axis=-1)[..., None, :]  # fibre covector on slots 1..n
    eye = np.eye(n)

    f_closed = np.concatenate(
        [t[..., :, None] * sh, 1j * (sh * eye[q:] + t[..., :, None] * radial * xi)], axis=-1
    )
    da = _rows_times(a[..., None, :], gamma[..., :q, :q])
    a_hat = _rows_times(t[..., None, :], gamma[..., q:, :q])  # sum_k t_k A^k
    a_normal = (gamma[..., q:, :q] @ a[..., None, :, None])[..., 0]  # sum_j a_j A^k_ij
    turn = np.concatenate([a_hat + da, -a_normal], axis=-1)
    e_closed = np.concatenate([-1j * sh * a[..., :, None], ch * eye[:q] + 1j * sh * turn], axis=-1)
    c = _rows_times(t[..., None, :], gamma[..., q:, q:])
    return fd_point, e_closed + c @ f_closed, f_closed


def bracket_factor(y, vp, vpp):
    """(1 - tanh(sqrt y)/sqrt y + tanh^2 sqrt y) v' + 4 sinh^2(sqrt y) v'',
    elementwise."""
    ry = np.sqrt(y)
    th = np.tanh(ry)
    return (1.0 - th / ry + th * th) * vp + 4.0 * np.sinh(ry) ** 2 * vpp


def mixed_pairing_closed_form(
    point: TwistedConormalPoint, profile: StenzelProfile = DEFAULT_PROFILE
) -> np.ndarray:
    """The proof-side omega(E_i, F_j) = a_i t_j cosh^2(sqrt y) / y * bracket,
    as the (..., q, n-q) block; zero where y = 0.

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
    vp, vpp = profile.at(np.linalg.norm(point.z, axis=-1)[..., None, None])
    ch = np.cosh(np.sqrt(safe))
    a_t = point.mu_coeffs[..., :, None] * point.t[..., None, :]
    return np.where(y > 0, a_t * ch * ch / safe * bracket_factor(safe, vp, vpp), 0.0)


def lagrangian_columns(
    chart: ImmersionChart,
    mu,
    samples,
    fiber_values,
    profile: StenzelProfile = DEFAULT_PROFILE,
    fd_step: float = DEFAULT_FD_STEP,
):
    """Per-sample maximal |omega| over all tangent pairs and the criterion
    |mu(u)|, as (P,) columns, with the stacked ``TwistedConormalPoint`` and
    its (P, n, n) ``omega_matrix``.

    All samples go through one stacked ``twisted_conormal_point`` and one
    ``omega_matrix`` contraction.
    """
    pts = twisted_conormal_point(chart, mu, samples, fiber_values, fd_step)
    omega = omega_matrix(pts.z, pts.all_tangents(), profile)
    worst = np.max(np.abs(omega), axis=(-2, -1))
    return worst, row_norms(pts.mu_coeffs), pts, omega


def lagrangian_samples(
    chart: ImmersionChart,
    mu,
    samples,
    fiber_values,
    profile: StenzelProfile = DEFAULT_PROFILE,
    fd_step: float = DEFAULT_FD_STEP,
):
    """:func:`lagrangian_columns` one sample at a time: yields dicts with the
    chart point, fiber coordinates, the residual, the criterion value and the
    sample's ``TwistedConormalPoint``."""
    samples = np.asarray(samples, dtype=float)
    fiber_values = np.asarray(fiber_values, dtype=float)
    worst, mu_norm, pts, _ = lagrangian_columns(chart, mu, samples, fiber_values, profile, fd_step)
    for i, (u, t) in enumerate(zip(samples, fiber_values)):
        yield {
            "u": u,
            "t": t,
            "residuals": {"omega_max": float(worst[i])},
            "criteria": {"mu_norm": float(mu_norm[i])},
            "point": pts[i],
        }
