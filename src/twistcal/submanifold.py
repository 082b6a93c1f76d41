"""Numerical frame machinery for immersions x: L^q -> S^n in R^{n+1}.

An :class:`ImmersionChart` is a coordinate patch of an immersed submanifold
of the unit sphere together with its adapted orthonormal frame field (rows
e_1..e_q, nu_{q+1}..nu_n, all tangent to the sphere).  From it we
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
from typing import Callable

import numpy as np

from .errors import DomainError, ImmersionDegenerateError
from .numerics import (
    DEFAULT_FD_STEP,
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
    frame_field: Callable[[np.ndarray], np.ndarray]

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

    def scalar_derivatives(self, field) -> np.ndarray:
        """d(field)(e_j) for a scalar or small-array chart function, shape
        (q, *out) or (P, q, *out) for a stack; every row and direction goes
        through one FD call at the point's ``fd_step``, so ``field`` must
        broadcast like a chart function."""
        return directional_derivative(field, self.u[..., None, :], self.velocities, self.fd_step)


def _first(rows: np.ndarray, bad: np.ndarray, single: bool) -> str:
    """The first flagged chart point, with its row index inside a stack."""
    i = int(np.argmax(bad))
    return f"{rows[i].tolist()}" if single else f"{rows[i].tolist()} (row {i})"


def _domain_rows(chart: ImmersionChart, u) -> tuple[np.ndarray, bool]:
    """A chart point (q,) or stack (P, q) as (P, q) rows, and whether it was
    a single point; a row outside the safe domain raises, naming the first."""
    u = np.asarray(u, dtype=float)
    q = chart.q
    if u.ndim not in (1, 2) or u.shape[-1] != q:
        raise DomainError(f"chart points of {chart.name!r} must have shape (q,) or (P, q), q={q}")
    single = u.ndim == 1
    rows = u.reshape(-1, q)
    outside = ~chart.contains(rows, slack=1e-9)
    if outside.any():
        raise DomainError(
            f"point {_first(rows, outside, single)} outside the safe domain of {chart.name!r}"
        )
    return rows, single


def adapted_frame(
    chart: ImmersionChart, u, fd_step: float = DEFAULT_FD_STEP
) -> AdaptedFramePoint:
    """Evaluate the adapted frame and its first-order data at a chart point
    u of shape (q,), or at every row of a stack of shape (P, q).

    Every FD stencil of every row goes through one stacked call of the chart
    functions.  A row outside the safe domain, off the sphere or at a
    degenerate point raises, naming the first such row.
    """
    q, n = chart.q, chart.n
    rows, single = _domain_rows(chart, u)
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
    frame = np.asarray(chart.frame_field(rows), dtype=float)
    if frame.shape != (rows.shape[0], n, n + 1):
        raise DomainError("frame field must return an (n, n+1) array per point")

    # chart velocities: (d xmap) w_j = e_j, by the normal equations (the
    # e_j lie in the image of d xmap, so this is the least-squares solution)
    jac_t = np.swapaxes(jac, -1, -2)
    e_cols = np.swapaxes(frame[:, :q, :], -1, -2)
    velocities = np.swapaxes(np.linalg.solve(jac_t @ jac, jac_t @ e_cols), -1, -2)

    # derivatives of the frame along every e_j: (P, q, n, n+1), projected
    # onto T S^n, then paired with the frame
    dframe = directional_derivative(chart.frame_field, rows[:, None, :], velocities, fd_step)
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


AUSTERE_NORMAL_SAMPLES = 16  # random unit normals tested beyond the coordinate axes

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


def classify_matrices(matrices, tol: float = 1e-6) -> Classification:
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
        extra = rng.standard_normal((AUSTERE_NORMAL_SAMPLES, m))
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

def normal_frame_field(chart: ImmersionChart, u0):
    """Frame field whose covariant derivatives have no tangential/normal
    rotation at u0.

    The frame at u is the chart's frame at u0 with its tangent rows projected
    onto the span of the chart's tangent rows at u, its normal rows onto the
    span of the normal rows there, and both re-orthonormalised.  At u0 it is
    the chart's frame itself, and it is normal there: the derivative of a
    projection maps tangent vectors to normal ones and normal vectors to
    tangent ones, so to first order the tangent rows move only along the
    normal space and the normal rows only along the tangent space.  Each
    evaluation costs one call of ``chart.frame_field``, however far u lies
    from u0.

    ``u0`` is one centre (q,) or a stack of P centres (P, q).  With a stack,
    the field takes arrays (P, ..., q) whose first axis runs over the
    centres, and every row is projected from its own centre's frame.
    """
    q = chart.q
    centres, single = _domain_rows(chart, u0)
    base = chart.frame_field(centres)

    def project_to(u):
        u = np.asarray(u, dtype=float)
        if not single and u.shape[0] != len(centres):
            raise DomainError(f"a field with {len(centres)} centres needs them on the first axis")
        rows = u.reshape(-1, q)
        own = np.arange(len(centres)).repeat(len(rows) // len(centres))
        frame = chart.frame_field(rows)
        tangent, normal = frame[:, :q], frame[:, q:]
        e = gram_schmidt((base[own, :q] @ np.swapaxes(tangent, -1, -2)) @ tangent)
        nu = gram_schmidt((base[own, q:] @ np.swapaxes(normal, -1, -2)) @ normal)
        return np.concatenate([e, nu], axis=-2).reshape(u.shape[:-1] + frame.shape[-2:])

    return project_to


def with_normal_frame(chart: ImmersionChart, u0) -> ImmersionChart:
    """The same chart equipped with a frame field that is normal at u0, one
    centre (q,) or each of a stack of centres (P, q)."""
    return chart.with_frame_field(normal_frame_field(chart, u0))


def rotate_frame_field(chart: ImmersionChart, alpha: float, beta: float) -> ImmersionChart:
    """Rotate (e_1, e_2) by alpha and (nu_3, nu_4) by beta (surfaces in S^4)."""
    if chart.q != 2 or chart.n != 4:
        raise DomainError("frame rotation needs a surface chart in S^4")
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
