"""Numerical frame machinery for immersions x: L^q -> S^n in R^{n+1}.

An :class:`ImmersionChart` is a coordinate patch of an immersed submanifold
of the unit sphere, optionally carrying an adapted orthonormal frame field
(rows e_1..e_q, nu_{q+1}..nu_n, all tangent to the sphere).  From it we
compute, by finite differences:

* connection coefficients Gamma^l_{jk} = <P(D_{e_j} frame_k), frame_l> with
  P the projection onto T S^n,
* shape operators A^k_{ij} = <nabla_{e_i} nu_k, e_j> (symmetric per normal),
* classification predicates: minimal, austere, and superminimal of either
  sign for surfaces in S^4.

Orientation convention: a frame (f_1, ..., f_n) of T_x S^n is positively
oriented when det[x, f_1, ..., f_n] > 0 in R^{n+1}.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ImmersionDegenerateError
from .numerics import (
    DEFAULT_FD_STEP,
    complete_orthonormal,
    directional_derivative,
    gram_schmidt,
    jacobian,
    row_norms,
)

__all__ = [
    "ImmersionChart",
    "AdaptedFramePoint",
    "Classification",
    "adapted_frame",
    "classify",
    "classify_matrices",
    "superminimal_residual",
    "trace_residual",
    "normal_frame_field",
    "with_normal_frame",
    "rotate_frame_field",
    "register_chart",
    "get_chart",
    "chart_names",
]


@dataclass(frozen=True)
class ImmersionChart:
    """A chart of an immersed L^q inside the unit sphere S^n.

    ``xmap`` and ``frame_field`` map chart points of shape (..., q) to
    points (..., n+1) and frames (..., n, n+1); they must broadcast over the
    leading axes.
    """

    name: str
    q: int
    n: int
    xmap: Callable[[np.ndarray], np.ndarray]
    sample_box: np.ndarray  # (q, 2) safe sampling box [lo, hi] per coordinate
    frame_field: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def contains(self, u, slack: float = 0.0):
        """Whether u lies in the sample box; one bool per row of a stack."""
        u = np.asarray(u, dtype=float)
        lo = self.sample_box[:, 0] - slack
        hi = self.sample_box[:, 1] + slack
        return np.all((u >= lo) & (u <= hi), axis=-1)[()]

    def with_frame_field(self, frame_field) -> "ImmersionChart":
        return dataclasses.replace(self, frame_field=frame_field)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo = self.sample_box[:, 0]
        hi = self.sample_box[:, 1]
        return rng.uniform(lo, hi, size=(count, self.q))


@dataclass(frozen=True)
class AdaptedFramePoint:
    """Frame data at a chart point, or at a stack of P chart points.

    ``frame`` rows are (e_1..e_q, nu_{q+1}..nu_n); ``gamma[j, k, l]`` is
    <nabla_{e_j} frame_k, frame_l> for tangent directions j; ``second_fund[k]``
    is the q x q matrix of A^{nu_k}; ``velocities`` rows w_j solve
    (d xmap) w_j = e_j, so scalar fields differentiate along e_j via
    w_j . grad.  For a stack every array gains a leading P axis and
    ``frames[i]`` is the data at the i-th point.
    """

    u: np.ndarray
    x: np.ndarray
    q: int
    n: int
    frame: np.ndarray  # (n, n+1)
    gamma: np.ndarray  # (q, n, n)
    second_fund: np.ndarray  # (n-q, q, q)
    velocities: np.ndarray  # (q, q)
    fd_step: float

    @property
    def e(self) -> np.ndarray:
        return self.frame[..., : self.q, :]

    @property
    def nu(self) -> np.ndarray:
        return self.frame[..., self.q :, :]

    def __len__(self) -> int:
        if self.u.ndim == 1:
            raise TypeError("a single frame point has no rows")
        return self.u.shape[0]

    def __getitem__(self, i) -> "AdaptedFramePoint":
        if self.u.ndim == 1:
            raise TypeError("a single frame point has no rows")
        return AdaptedFramePoint(
            u=self.u[i],
            x=self.x[i],
            q=self.q,
            n=self.n,
            frame=self.frame[i],
            gamma=self.gamma[i],
            second_fund=self.second_fund[i],
            velocities=self.velocities[i],
            fd_step=self.fd_step,
        )

    def scalar_derivatives(self, field, step: float | None = None) -> np.ndarray:
        """d(field)(e_j) for a scalar or small-array chart function."""
        step = step or self.fd_step
        return np.stack(
            [
                directional_derivative(field, self.u, w, step)
                for w in self.velocities
            ]
        )


def _auto_frame_field(chart: ImmersionChart, fd_step: float):
    """Tangent frame from Gram-Schmidt of the Jacobian, normals by
    deterministic completion (row by row: its choice of basis vectors
    depends on the point), oriented."""
    q, n = chart.q, chart.n

    def frame_at(u):
        u = np.asarray(u, dtype=float)
        rows = u.reshape(-1, q)
        x = chart.xmap(rows)
        jac = jacobian(chart.xmap, rows, fd_step)
        degenerate = np.linalg.svd(jac, compute_uv=False).min(axis=-1) < 1e-8
        if degenerate.any():
            raise ImmersionDegenerateError(
                f"chart {chart.name!r} is degenerate at u={_first(rows, degenerate, True)}"
            )
        e_rows = gram_schmidt(np.swapaxes(jac, -1, -2))
        normals = [complete_orthonormal([xi, *ei], n + 1, n - q) for xi, ei in zip(x, e_rows)]
        frame = np.concatenate([e_rows, np.array(normals)], axis=-2)
        flip = np.linalg.det(np.concatenate([x[:, None, :], frame], axis=-2)) < 0
        frame[flip, -1] = -frame[flip, -1]
        return frame.reshape(u.shape[:-1] + (n, n + 1))

    return frame_at


def _first(rows: np.ndarray, bad: np.ndarray, single: bool) -> str:
    """The first flagged chart point, with its row index inside a stack."""
    i = int(np.argmax(bad))
    return f"{rows[i].tolist()}" if single else f"{rows[i].tolist()} (row {i})"


def adapted_frame(
    chart: ImmersionChart, u, fd_step: float = DEFAULT_FD_STEP
) -> AdaptedFramePoint:
    """Evaluate the adapted frame and its first-order data at a chart point
    u of shape (q,), or at every row of a stack of shape (P, q).

    Every FD stencil of every row goes through one stacked call of the chart
    functions.  A row outside the safe domain, off the sphere or at a
    degenerate point raises, naming the first such row.
    """
    u = np.asarray(u, dtype=float)
    q, n = chart.q, chart.n
    if u.ndim not in (1, 2) or u.shape[-1] != q:
        raise DomainError(f"chart points of {chart.name!r} must have shape (q,) or (P, q), q={q}")
    single = u.ndim == 1
    rows = u.reshape(-1, q)
    outside = ~chart.contains(rows, slack=1e-9)
    if outside.any():
        raise DomainError(
            f"point {_first(rows, outside, single)} outside the safe domain of {chart.name!r}"
        )
    x = chart.xmap(rows)
    off_sphere = np.abs(row_norms(x) - 1.0) > 1e-9
    if off_sphere.any():
        raise DomainError(
            f"chart {chart.name!r} does not map into the unit sphere "
            f"at u={_first(rows, off_sphere, single)}"
        )
    jac = jacobian(chart.xmap, rows, fd_step)  # (P, n+1, q)
    degenerate = np.linalg.svd(jac, compute_uv=False).min(axis=-1) < 1e-8
    if degenerate.any():
        raise ImmersionDegenerateError(
            f"chart {chart.name!r} is degenerate at u={_first(rows, degenerate, single)}"
        )
    frame_fn = chart.frame_field or _auto_frame_field(chart, fd_step)
    frame = np.asarray(frame_fn(rows), dtype=float)
    if frame.shape != (rows.shape[0], n, n + 1):
        raise DomainError("frame field must return an (n, n+1) array per point")

    # chart velocities: (d xmap) w_j = e_j, by the normal equations (the
    # e_j lie in the image of d xmap, so this is the least-squares solution)
    jac_t = np.swapaxes(jac, -1, -2)
    e_cols = np.swapaxes(frame[:, :q, :], -1, -2)
    velocities = np.swapaxes(np.linalg.solve(jac_t @ jac, jac_t @ e_cols), -1, -2)

    # derivatives of the frame along every e_j: (P, q, n, n+1), projected
    # onto T S^n, then paired with the frame
    dframe = directional_derivative(frame_fn, rows[:, None, :], velocities, fd_step)
    xs = x[:, None, None, :]
    dframe = dframe - (dframe @ np.swapaxes(xs, -1, -2)) * xs
    gamma = dframe @ np.swapaxes(frame, -1, -2)[:, None]
    second_fund = np.swapaxes(gamma[:, :, q:, :q], 1, 2)

    point = AdaptedFramePoint(
        u=rows,
        x=x,
        q=q,
        n=n,
        frame=frame,
        gamma=gamma,
        second_fund=second_fund,
        velocities=velocities,
        fd_step=fd_step,
    )
    return point[0] if single else point


# -- classification ---------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    minimal: bool
    austere: bool
    superminimal_plus: bool
    superminimal_minus: bool
    residuals: dict

    @property
    def superminimal(self) -> str:
        if self.superminimal_plus and self.superminimal_minus:
            return "both"
        if self.superminimal_plus:
            return "+1"
        if self.superminimal_minus:
            return "-1"
        return "none"


_JT = np.array([[0.0, -1.0], [1.0, 0.0]])  # J_T e1 = e2, J_T e2 = -e1
_SUPERMINIMAL_ANGLES = np.linspace(0.0, np.pi, 9)


def trace_residual(second_fund) -> np.ndarray:
    """max_k |tr A^k| over the normals, per leading index; zero exactly on
    minimal immersions."""
    return np.max(np.abs(np.trace(second_fund, axis1=-2, axis2=-1)), axis=-1)


def superminimal_residual(matrices, sign: float) -> np.ndarray:
    """Deviation of a surface in S^4 from superminimality of sign ``sign``.

    ``matrices`` holds the shape operators (A^3, A^4), shape (..., 2, 2, 2).
    The residual is the largest entry of A^{J_N nu} - sign J_T A^nu over the
    unit normals nu = cos(theta) nu_3 + sin(theta) nu_4 at nine angles in
    [0, pi], per leading index.
    """
    m = np.asarray(matrices, dtype=float)
    c = np.cos(_SUPERMINIMAL_ANGLES)[:, None, None]
    s = np.sin(_SUPERMINIMAL_ANGLES)[:, None, None]
    a3, a4 = m[..., None, 0, :, :], m[..., None, 1, :, :]
    a_nu = c * a3 + s * a4
    a_jn = c * a4 - s * a3  # A^{J_N nu}
    return np.max(np.abs(a_jn - sign * _JT @ a_nu), axis=(-3, -2, -1))


def _austere_residual(matrices: np.ndarray, directions: np.ndarray) -> float:
    """Worst deviation of the shape-operator spectra from +- symmetry."""
    worst = 0.0
    for d in directions:
        a_nu = np.tensordot(d, matrices, axes=1)
        scale = 1.0 + np.linalg.norm(a_nu)
        eig = np.linalg.eigvalsh(a_nu)
        order = np.argsort(-np.abs(eig))
        eig = list(eig[order])
        local = 0.0
        while eig:
            lam = eig.pop(0)
            if not eig:
                local = max(local, abs(lam))
                break
            partner = int(np.argmin([abs(lam + mu) for mu in eig]))
            local = max(local, abs(lam + eig.pop(partner)))
        worst = max(worst, local / scale)
    return worst


def classify_matrices(
    matrices,
    tol: float = 1e-6,
    normal_samples: int = 16,
) -> Classification:
    """Classify from raw shape-operator matrices A^{q+1..n} (each q x q)."""
    matrices = np.asarray(matrices, dtype=float)
    m, q, _ = matrices.shape
    trace_res = float(trace_residual(matrices))
    minimal = trace_res < tol

    if m == 1:
        directions = np.array([[1.0]])
    else:
        # unit normals: coordinate axes plus a deterministic sample of the sphere
        rng = np.random.default_rng(1234)
        extra = rng.standard_normal((normal_samples, m))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        directions = np.vstack([np.eye(m), extra])
    austere_res = _austere_residual(matrices, directions)
    austere = austere_res < tol

    residuals = {"trace": trace_res, "austere": austere_res}
    sm_plus = sm_minus = False
    if q == 2 and m == 2:
        residuals["superminimal_plus"] = float(superminimal_residual(matrices, +1.0))
        residuals["superminimal_minus"] = float(superminimal_residual(matrices, -1.0))
        sm_plus = residuals["superminimal_plus"] < tol
        sm_minus = residuals["superminimal_minus"] < tol

    return Classification(
        minimal=minimal,
        austere=austere,
        superminimal_plus=sm_plus,
        superminimal_minus=sm_minus,
        residuals=residuals,
    )


def classify(point: AdaptedFramePoint, tol: float = 1e-6) -> Classification:
    return classify_matrices(point.second_fund, tol=tol)


# -- normal frames ----------------------------------------------------------


def normal_frame_field(
    chart: ImmersionChart,
    u0,
    fd_step: float = DEFAULT_FD_STEP,
    steps_per_unit: int = 64,
):
    """Frame field along chart rays from u0 whose covariant derivatives have
    no tangential/normal rotation at u0.

    The frame at u is obtained by transporting the frame at u0 along the
    straight chart ray: project onto the tangent/normal spaces at each step
    and re-orthonormalise.  The step count grows with the arc length; a
    stack of points is transported together, each row for its own count.  For the infinitesimal arcs used by the FD
    machinery this collapses to a single projection, which reproduces
    parallel transport to first order - all that the centre-point data needs.
    """
    u0 = np.asarray(u0, dtype=float)
    base = adapted_frame(chart, u0, fd_step)
    e0, nu0 = base.e.copy(), base.nu.copy()
    q, n = chart.q, chart.n

    def transport_to(u):
        # every row of the stack moves along its own ray; rows whose ray
        # needs fewer steps stop early
        u = np.asarray(u, dtype=float)
        rows = u.reshape(-1, q)
        nsteps = np.maximum(1, np.ceil(steps_per_unit * row_norms(rows - u0)).astype(int))
        e_cur = np.broadcast_to(e0, (rows.shape[0],) + e0.shape).copy()
        nu_cur = np.broadcast_to(nu0, (rows.shape[0],) + nu0.shape).copy()
        for s in range(1, int(nsteps.max(initial=0)) + 1):
            moving = s <= nsteps
            us = u0 + (rows[moving] - u0) * (s / nsteps[moving])[:, None]
            x = chart.xmap(us)[:, None, :]
            tb = gram_schmidt(np.swapaxes(jacobian(chart.xmap, us, fd_step), -1, -2))
            tb_t = np.swapaxes(tb, -1, -2)
            e_cur[moving] = gram_schmidt(e_cur[moving] @ (tb_t @ tb))
            nu_proj = nu_cur[moving] - (nu_cur[moving] @ np.swapaxes(x, -1, -2)) * x
            nu_proj = nu_proj - (nu_proj @ tb_t) @ tb
            nu_cur[moving] = gram_schmidt(nu_proj)
        return np.concatenate([e_cur, nu_cur], axis=-2).reshape(u.shape[:-1] + (n, n + 1))

    return transport_to


def with_normal_frame(
    chart: ImmersionChart, u0, fd_step: float = DEFAULT_FD_STEP
) -> ImmersionChart:
    """The same chart equipped with a frame field that is normal at u0."""
    return chart.with_frame_field(normal_frame_field(chart, u0, fd_step))


def rotate_frame_field(chart: ImmersionChart, alpha: float, beta: float) -> ImmersionChart:
    """Rotate (e_1, e_2) by alpha and (nu_3, nu_4) by beta (surfaces in S^4)."""
    if chart.frame_field is None or chart.q != 2 or chart.n != 4:
        raise DomainError("frame rotation needs a framed surface chart in S^4")
    ca, sa, cb, sb = np.cos(alpha), np.sin(alpha), np.cos(beta), np.sin(beta)
    rot = np.array(
        [
            [ca, sa, 0.0, 0.0],
            [-sa, ca, 0.0, 0.0],
            [0.0, 0.0, cb, sb],
            [0.0, 0.0, -sb, cb],
        ]
    )
    inner = chart.frame_field

    def rotated(u):
        return rot @ inner(u)

    return dataclasses.replace(
        chart, name=f"{chart.name}@rot({alpha:.3f},{beta:.3f})", frame_field=rotated
    )


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, ImmersionChart] = {}


def register_chart(chart: ImmersionChart) -> ImmersionChart:
    _REGISTRY[chart.name] = chart
    return chart


def get_chart(name: str) -> ImmersionChart:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DomainError(
            f"unknown chart {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def chart_names() -> list[str]:
    return sorted(_REGISTRY)
