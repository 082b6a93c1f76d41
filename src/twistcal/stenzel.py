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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChartError, DomainError
from .numerics import DEFAULT_FD_STEP, directional_derivative, row_norms
from .submanifold import AdaptedFramePoint, ImmersionChart, adapted_frame, with_normal_frame

__all__ = [
    "StenzelProfile",
    "DEFAULT_PROFILE",
    "MuForm",
    "psi_map",
    "stenzel_coeffs",
    "omega_value",
    "omega_matrix",
    "TwistedConormalPoint",
    "twisted_conormal_point",
    "closed_form_tangents",
    "mixed_pairing_closed_form",
    "bracket_factor",
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


@dataclass(frozen=True)
class MuForm:
    """A 1-form along L given by coefficients against the chart coframe."""

    kind: str
    coeffs: np.ndarray

    def value(self, u) -> np.ndarray:
        return self.coeffs


def constant_mu(coeffs) -> MuForm:
    return MuForm(kind="const", coeffs=np.asarray(coeffs, dtype=float))


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


def stenzel_coeffs(z, profile: StenzelProfile = DEFAULT_PROFILE, eps0: float = 0.1) -> np.ndarray:
    """Hermitian coefficient matrix a_jk (j, k = 1..n) at a quadric point;
    (..., n+1) points give (..., n, n) matrices."""
    z = np.asarray(z, dtype=complex)
    z0 = z[..., 0, None, None]
    if np.any(np.abs(z0) <= eps0):
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
    mu: MuForm,
    u,
    t,
    fd_step: float = DEFAULT_FD_STEP,
    mu_frame=None,
) -> TwistedConormalPoint:
    """Assemble the point and its FD tangent basis, re-based at the frame.

    ``u`` and ``t`` are one chart point (q,) and fibre coordinate (n-q,), or
    stacks (P, q) and (P, n-q); the whole FD stencil of every point goes
    through one stacked call of the total-space map.

    ``mu_frame`` is the frame field against which the mu coefficients are
    read (defaults to the chart's own); passing the native frame keeps mu
    the same geometric 1-form when the fiber is parametrised by another
    frame, e.g. one synthesised to be normal at u.
    """
    point = adapted_frame(chart, u, fd_step)
    q, n = chart.q, chart.n
    t = np.asarray(t, dtype=float)
    if t.shape != point.u.shape[:-1] + (n - q,):
        raise DomainError("fiber coordinate count must be n - q")
    frame_fn = chart.frame_field
    if frame_fn is None:
        raise DomainError("twisted conormal construction needs a framed chart")

    def total_map(params):
        uu, tt = params[..., :q], params[..., q:]
        frame = frame_fn(uu)
        native = frame if mu_frame is None else mu_frame(uu)
        xi = _rows_times(tt, frame[..., q:, :]) + _rows_times(mu.value(uu), native[..., :q, :])
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

    a = np.broadcast_to(np.asarray(mu.value(point.u), dtype=float), point.u.shape)
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
    mu: MuForm,
    u,
    t,
    fd_step: float = DEFAULT_FD_STEP,
) -> tuple[TwistedConormalPoint, np.ndarray, np.ndarray]:
    """FD tangents through a frame made normal at u, plus the closed forms.

    Returns (fd_point, E_closed, F_closed); the closed-form expressions are
    assembled from the shape operators, the coefficient derivatives of mu in
    the synthesised frame, and the cosh/sinh factors, and are only valid at
    the centre of a normal frame.
    """
    normal_chart = with_normal_frame(chart, u, fd_step)
    fd_point = twisted_conormal_point(
        normal_chart, mu, u, t, fd_step, mu_frame=chart.frame_field
    )
    point = fd_point.frame_point
    q, n = chart.q, chart.n
    t = np.asarray(t, dtype=float)

    frame_fn = normal_chart.frame_field

    def mu_coeff(uu):
        covector = _rows_times(mu.value(uu), chart.frame_field(uu)[..., :q, :])
        return (frame_fn(uu)[..., :q, :] @ covector[..., None])[..., 0]

    a = mu_coeff(point.u)
    # da[i, l] = partial a_l along e_i, all q directions in one stencil
    da = directional_derivative(mu_coeff, point.u, point.velocities, fd_step)

    y = float(t @ t + a @ a)
    ry = math.sqrt(y)
    ch, sh = math.cosh(ry), _sinhc(ry)
    A = point.second_fund  # (n-q, q, q)

    fiber_dirs = np.concatenate([a, t])  # components along (e^l, nu^k) slots 1..n
    e_closed = np.zeros((q, n + 1), dtype=complex)
    for i in range(q):
        alpha_i = float(a @ da[i])
        vec = np.zeros(n + 1, dtype=complex)
        # the imaginary radial part is the sphere-constraint component of the
        # full derivative of mu; it never enters the Kaehler pairing (the
        # coefficient sum starts at slot 1) but belongs to the tangent vector
        vec[0] = sh * alpha_i - 1j * sh * a[i]
        vec[1 + i] += ch
        im = np.zeros(n)
        if y > 0:
            im += (alpha_i / y) * (ch - sh) * fiber_dirs
        a_hat = np.tensordot(t, A, axes=1)  # (q, q): sum_k t_k A^k
        im[:q] += sh * (a_hat[i] + da[i])
        im[q:] -= sh * np.array([a @ A[k][i] for k in range(n - q)])
        vec[1:] += 1j * im
        e_closed[i] = vec

    f_closed = np.zeros((n - q, n + 1), dtype=complex)
    for j in range(n - q):
        vec = np.zeros(n + 1, dtype=complex)
        vec[0] = t[j] * sh
        im = np.zeros(n)
        if y > 0:
            im += (t[j] / y) * (ch - sh) * fiber_dirs
        im[q + j] += sh
        vec[1:] += 1j * im
        f_closed[j] = vec

    return fd_point, e_closed, f_closed


def bracket_factor(y: float, vp: float, vpp: float) -> float:
    """(1 - tanh(sqrt y)/sqrt y + tanh^2 sqrt y) v' + 4 sinh^2(sqrt y) v''."""
    ry = math.sqrt(y)
    th = math.tanh(ry)
    return (1.0 - th / ry + th * th) * vp + 4.0 * math.sinh(ry) ** 2 * vpp


def mixed_pairing_closed_form(
    point: TwistedConormalPoint, i: int, j: int, profile: StenzelProfile = DEFAULT_PROFILE
) -> float:
    """The proof-side scalar omega(E_i, F_j) at a normal-frame centre."""
    y = point.y
    if y <= 0:
        return 0.0
    r = float(np.linalg.norm(point.z))
    vp, vpp = profile.at(r)
    a_i = float(point.mu_coeffs[i])
    t_j = float(point.t[j])
    ch = math.cosh(math.sqrt(y))
    return a_i * t_j * ch * ch / y * bracket_factor(y, vp, vpp)


def lagrangian_samples(
    chart: ImmersionChart,
    mu: MuForm,
    samples,
    fiber_values,
    profile: StenzelProfile = DEFAULT_PROFILE,
    fd_step: float = DEFAULT_FD_STEP,
):
    """Per-sample maximal |omega| over all tangent pairs, plus the mu size.

    All samples go through one stacked ``twisted_conormal_point`` and one
    ``omega_matrix`` contraction.  Yields dicts with the chart point, fiber
    coordinates, the residual and the criterion value |mu(u)|.
    """
    samples = np.asarray(samples, dtype=float)
    fiber_values = np.asarray(fiber_values, dtype=float)
    pts = twisted_conormal_point(chart, mu, samples, fiber_values, fd_step)
    worst = np.max(np.abs(omega_matrix(pts.z, pts.all_tangents(), profile)), axis=(-2, -1))
    mu_norm = row_norms(pts.mu_coeffs)
    for i, (u, t) in enumerate(zip(samples, fiber_values)):
        yield {
            "u": u,
            "t": t,
            "residuals": {"omega_max": float(worst[i])},
            "criteria": {"mu_norm": float(mu_norm[i])},
            "point": pts[i],
        }
