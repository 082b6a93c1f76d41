"""Worked geometries: the equatorial 2-sphere and the Veronese surface in S^4,
holomorphic section families over them, and the cross-chart consistency checks.

Registered chart names: ``equatorial``, ``veronese``, ``veronese-hat`` and
``veronese-antipodal`` (the composition with the antipodal map of S^4, whose
natural adapted frame is the Veronese one with the two normals swapped).
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import numpy as np

from . import g2
from .errors import DomainError
from .numerics import DEFAULT_FD_STEP
from .submanifold import (
    ImmersionChart,
    adapted_frame,
    get_chart,
    register_chart,
)

__all__ = [
    "equatorial_chart",
    "veronese_chart",
    "compose_antipodal",
    "SectionFamily",
    "EtaFamily",
    "make_section_family",
    "make_eta_family",
    "pde_residual",
    "boundedness_scan",
    "frame_change_check",
    "golden_table",
    "golden_table_names",
    "golden_residuals",
]


# -- equatorial sphere -------------------------------------------------------


def equatorial_chart() -> ImmersionChart:
    """Stereographic chart of the equatorial S^2 inside S^4, with its
    classical adapted frame."""

    def xmap(u):
        u = np.asarray(u, dtype=float)
        r2 = (u[..., None, :] @ u[..., :, None])[..., 0]
        out = np.zeros(u.shape[:-1] + (5,))
        out[..., :1] = (r2 - 1.0) / (r2 + 1.0)
        out[..., 1:3] = 2.0 * u / (r2 + 1.0)
        return out

    def frame_field(u):
        u = np.asarray(u, dtype=float)
        u1, u2 = u[..., 0], u[..., 1]
        d = u1 * u1 + u2 * u2 + 1.0
        out = np.zeros(u.shape[:-1] + (4, 5))
        out[..., 0, :3] = np.stack([2 * u1, 1 - u1 * u1 + u2 * u2, -2 * u1 * u2], axis=-1)
        out[..., 1, :3] = np.stack([2 * u2, -2 * u1 * u2, 1 + u1 * u1 - u2 * u2], axis=-1)
        out[..., :2, :3] /= d[..., None, None]
        out[..., 2, 3] = 1.0
        out[..., 3, 4] = -1.0
        return out

    return ImmersionChart(
        name="equatorial",
        q=2,
        n=4,
        xmap=xmap,
        sample_box=np.array([[-2.5, 2.5]] * 2),
        frame_field=frame_field,
    )


# -- Veronese immersion ------------------------------------------------------
# Every chart function below maps u of shape (..., 2) to (..., 5) points or
# (..., 4, 5) frames; vectors are stacked on the last axis and scalar fields
# carry a trailing axis of length 1 so that they broadcast against them.

_SQ3 = math.sqrt(3.0)


def _vec(like, *components):
    """Stack per-point components (arrays shaped like ``like``, or constants)
    on a new last axis."""
    out = np.empty(np.shape(like) + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def _veronese_point(x, y, z):
    """The degree-two immersion of the radius-sqrt(3) sphere into S^4."""
    return _vec(
        x, x * y, x * z, y * z, (x * x - y * y) / 2.0, (x * x + y * y - 2.0 * z * z) / (2.0 * _SQ3)
    ) / _SQ3


def _y_vectors(theta):
    s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
    s, c = np.sin(theta), np.cos(theta)
    y1 = _vec(theta, s2, 0.0, 0.0, c2, 0.0)
    y2 = _vec(theta, 0.0, c, s, 0.0, 0.0)
    y3 = _vec(theta, c2, 0.0, 0.0, -s2, 0.0)
    y4 = _vec(theta, 0.0, -s, c, 0.0, 0.0)
    return y1, y2, y3, y4


def _y_hat_vectors(theta):
    s, c = np.sin(theta), np.cos(theta)
    s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
    y1 = _vec(theta, s, 0.0, c, 0.0, 0.0)
    y2 = _vec(theta, 0.0, _SQ3 * s * c, 0.0, _SQ3 / 2.0 * s * s, 0.5 * (1 - 3 * c * c))
    y3 = _vec(theta, c, 0.0, -s, 0.0, 0.0)
    y4 = _vec(theta, 0.0, c2, 0.0, 0.5 * s2, _SQ3 / 2.0 * s2)
    return y1, y2, y3, y4


_E5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
_W_HAT = np.array([0.0, 0.0, 0.0, -_SQ3 / 2.0, 0.5])


def _angles(u):
    """phi and theta of chart points (..., 2), and the sine and cosine of phi."""
    u = np.asarray(u, dtype=float)
    phi, theta = u[..., 0], u[..., 1]
    return phi, theta, np.sin(phi), np.cos(phi)


def veronese_chart(which: str = "psi") -> ImmersionChart:
    """Spherical-coordinate charts of the Veronese surface.

    ``psi`` uses (phi, theta) with the z-axis pole; ``psi_hat`` uses the
    rotated coordinates (phi_hat, theta_hat) with the y-axis pole.  Both carry
    the classical positively oriented adapted frames.
    """
    if which == "psi":

        def xmap(u):
            _, theta, sp, cp = _angles(u)
            return _veronese_point(
                _SQ3 * (sp * np.cos(theta)), _SQ3 * (sp * np.sin(theta)), _SQ3 * cp
            )

        def frame_field(u):
            phi, theta, s, c = _angles(u)
            s, c = s[..., None], c[..., None]
            y1, y2, y3, y4 = _y_vectors(theta)
            s2, c2 = np.sin(2 * phi)[..., None], np.cos(2 * phi)[..., None]
            e1 = 0.5 * s2 * y1 + c2 * y2 + (_SQ3 / 2.0) * s2 * _E5
            e2 = s * y3 + c * y4
            nu3 = -c * y3 + s * y4
            nu4 = 0.5 * ((1 + c * c) * y1 - s2 * y2 - _SQ3 * s * s * _E5)
            return np.stack([e1, e2, nu3, nu4], axis=-2)

        box = np.array([[0.35, math.pi - 0.35], [0.35, 2 * math.pi - 0.35]])
        name = "veronese"
    elif which == "psi_hat":

        def xmap(u):
            _, theta, sp, cp = _angles(u)
            return _veronese_point(
                _SQ3 * (sp * np.sin(theta)), _SQ3 * cp, _SQ3 * (sp * np.cos(theta))
            )

        def frame_field(u):
            phi, theta, s, c = _angles(u)
            s, c = s[..., None], c[..., None]
            y1, y2, y3, y4 = _y_hat_vectors(theta)
            s2, c2 = np.sin(2 * phi)[..., None], np.cos(2 * phi)[..., None]
            e1 = c2 * y1 + (s2 / _SQ3) * y2 - (s2 / _SQ3) * _W_HAT
            e2 = c * y3 + s * y4
            nu3 = s * y3 - c * y4
            nu4 = -s * c * y1 + ((1 + c * c) / _SQ3) * y2 + ((1 + s * s) / _SQ3) * _W_HAT
            return np.stack([e1, e2, nu3, nu4], axis=-2)

        box = np.array([[0.35, math.pi - 0.35], [-math.pi / 2 + 0.35, 3 * math.pi / 2 - 0.35]])
        name = "veronese-hat"
    else:
        raise DomainError(f"unknown veronese chart {which!r}")

    return ImmersionChart(name=name, q=2, n=4, xmap=xmap, sample_box=box, frame_field=frame_field)


def compose_antipodal(chart: ImmersionChart) -> ImmersionChart:
    """Compose a surface chart with the antipodal map of S^4.

    The image point flips sign; the tangent vectors still span the image of
    the differential, and swapping the two normals restores positive
    orientation for the new immersion.
    """
    if chart.q != 2 or chart.n != 4:
        raise DomainError("antipodal composition needs a surface chart in S^4")
    inner_map, inner_frame = chart.xmap, chart.frame_field

    def xmap(u):
        return -inner_map(u)

    def frame_field(u):
        return inner_frame(u)[..., [0, 1, 3, 2], :]

    return dataclasses.replace(
        chart, name=f"{chart.name}-antipodal", xmap=xmap, frame_field=frame_field
    )


# -- section families --------------------------------------------------------


def _rowwise(evaluator, u, dtype):
    """``evaluator`` over the rows of chart points (..., q), shaped (...).

    A single point goes through as a stack of one row: numpy's scalar
    arithmetic may round differently from its array loops, and a point must
    get the same value alone as inside a stack."""
    u = np.asarray(u, dtype=float)
    values = np.asarray(evaluator(u.reshape(-1, u.shape[-1])), dtype=dtype)
    return values.reshape(u.shape[:-1])[()]


@dataclass(frozen=True)
class SectionFamily:
    """A complex coefficient function G = a + ib over a chart.

    The pair (a, b) feeds the rank-two twists: G multiplies the complex frame
    of the twisted bundle, so |section|^2 = 2 |G|^2 in the determinant
    convention.  The evaluator maps chart points (..., q) to values (...),
    like the chart functions it must broadcast over leading axes.
    """

    kind: str
    params: dict = field(default_factory=dict)
    evaluator: Callable[[np.ndarray], np.ndarray] = None  # set by factory

    def value(self, u):
        """G at a chart point (a complex scalar) or at every row of a stack."""
        return _rowwise(self.evaluator, u, complex)


def make_section_family(kind: str, **params) -> SectionFamily:
    """Factory for the section families used by the verification suites.

    kinds:
      zero                         G = 0
      const(re, im)                G = re + i*im (constant coefficients)
      equatorial-hol(coeffs)       G = H(z)(z conj(z) + 1), H polynomial with
                                   complex coefficients, z = u1 + i u2
      veronese-strip(coeffs)       G = sin(phi) * sum_k c_k exp(i k w) with
                                   w = theta - i log tan(phi/2)
      sinphi(C, D)                 shorthand: veronese-strip with c_0 = C + iD
    """
    if kind == "zero":
        ev = lambda u: np.zeros(u.shape[:-1], dtype=complex)
    elif kind == "const":
        c = complex(params.get("re", 0.0), params.get("im", 0.0))
        ev = lambda u: np.full(u.shape[:-1], c)
    elif kind == "equatorial-hol":
        coeffs = [complex(c) for c in params["coeffs"]]

        def ev(u):
            z = u[..., 0] + 1j * u[..., 1]
            h = np.zeros(z.shape, dtype=complex)
            for c in reversed(coeffs):
                h = h * z + c
            return h * (z * z.conjugate() + 1.0)

    elif kind in ("veronese-strip", "sinphi"):
        if kind == "sinphi":
            terms = {0: complex(params.get("C", 0.0), params.get("D", 0.0))}
            params = {"C": params.get("C", 0.0), "D": params.get("D", 0.0)}
        else:
            terms = {int(k): complex(c) for k, c in params["coeffs"].items()}

        def ev(u):
            phi, theta = u[..., 0], u[..., 1]
            t = np.tan(phi / 2.0)
            total = np.zeros(u.shape[:-1], dtype=complex)
            for k, c in terms.items():
                total += c * np.exp(1j * k * theta) * t**k
            return np.sin(phi) * total

    else:
        raise DomainError(f"unknown section kind {kind!r}")
    return SectionFamily(kind=kind, params=dict(params), evaluator=ev)


@dataclass(frozen=True)
class EtaFamily:
    """A real coefficient function gamma(u) for rank-one twists; the
    evaluator broadcasts over leading axes like a section family's."""

    kind: str
    params: dict = field(default_factory=dict)
    evaluator: Callable[[np.ndarray], np.ndarray] = None

    def value(self, u):
        """gamma at a chart point (a float) or at every row of a stack."""
        return _rowwise(self.evaluator, u, float)


def make_eta_family(kind: str, **params) -> EtaFamily:
    """kinds: const(c); coord(axis) with gamma = u_axis."""
    if kind == "const":
        c = float(params.get("c", 0.0))
        ev = lambda u: np.full(u.shape[:-1], c)
    elif kind == "coord":
        axis = int(params.get("axis", 1)) - 1
        ev = lambda u: u[..., axis]
    else:
        raise DomainError(f"unknown eta kind {kind!r}")
    return EtaFamily(kind=kind, params=dict(params), evaluator=ev)


# -- holomorphicity PDE ------------------------------------------------------


def pde_residual(
    family: SectionFamily,
    chart: ImmersionChart,
    u,
    fd_step: float = DEFAULT_FD_STEP,
) -> complex:
    """dG(e_1) + i dG(e_2) - (p + iq) G at a chart point: the two components
    of :func:`twistcal.g2.dbar_f_residual` as one complex number.

    A rank-two twist coefficient G is holomorphic when it vanishes.
    """
    point = adapted_frame(chart, u, fd_step)
    return complex(*g2.dbar_f_residual(point.gamma, g2.section_data(family, point)))


# -- boundedness -------------------------------------------------------------


@dataclass(frozen=True)
class BoundednessReport:
    sup_abs_g: float
    sup_section_norm_sq: float  # sup of 2 |G|^2
    growth_flag: bool
    log_slope: float


SCAN_SAMPLES, SCAN_SEED = 400, 0  # interior points of a boundedness scan, and their seed


def boundedness_scan(family: SectionFamily, chart: ImmersionChart) -> BoundednessReport:
    """Estimate sup 2|G|^2 including annuli near the chart boundary.

    For the stereographic chart the boundary is |u| -> infinity; growth is
    flagged when log sup|G| keeps increasing along a geometric radius ladder.
    For the spherical charts the boundary is phi -> 0, pi.
    """
    def modulus(u):
        # hypot rounds like abs() of one complex value; np.abs over a complex
        # array may differ in the last bit
        g = family.value(u)
        return np.hypot(g.real, g.imag)

    rng = np.random.default_rng(SCAN_SEED)
    interior = modulus(chart.sample(rng, SCAN_SAMPLES))

    # one ring of 24 points per rung of the ladder, all rungs in one call
    if chart.name.startswith("equatorial"):
        ladder_x = np.geomspace(2.0, 40.0, 12)
        angles = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        rings = ladder_x[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        margins = np.geomspace(0.3, 0.005, 10)
        ladder_x = 1.0 / margins
        rings = np.empty((len(margins), 2, 24, 2))
        rings[..., 0] = np.stack([margins, math.pi - margins], axis=-1)[..., None]
        rings[..., 1] = np.linspace(*chart.sample_box[1], 24)
    ladder_sups = modulus(rings).reshape(len(ladder_x), -1).max(axis=-1)
    sup_abs = float(max(interior.max(), ladder_sups.max()))

    slope = 0.0
    if sup_abs > 0 and len(ladder_sups) >= 4:
        ys, xs = ladder_sups[-4:], ladder_x[-4:]
        if np.all(ys > 0):
            slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return BoundednessReport(
        sup_abs_g=sup_abs,
        sup_section_norm_sq=2.0 * sup_abs * sup_abs,
        growth_flag=slope > 0.1,
        log_slope=slope,
    )


# -- chart overlap consistency ----------------------------------------------


def hat_coordinates(phi: float, theta: float) -> np.ndarray:
    """(phi_hat, theta_hat) of the point with unhatted coordinates (phi, theta)."""
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    phi_hat = math.acos(min(1.0, max(-1.0, sp * st)))
    theta_hat = math.atan2(sp * ct, cp)
    if theta_hat < -math.pi / 2.0:
        theta_hat += 2.0 * math.pi
    return np.array([phi_hat, theta_hat])


def _wedge_matrix(a, b):
    return np.outer(a, b) - np.outer(b, a)


def frame_change_check(
    phi: float,
    theta: float,
    C: float = 1.0,
    D: float = 0.0,
    fd_step: float = DEFAULT_FD_STEP,
) -> dict:
    """Residuals of the overlap identities between the two Veronese charts.

    Checks the vector transformation rules, the induced rule for the complex
    pair of normal-mixing 2-forms, the sin(phi) compatibility, and that the
    transformed coefficients of sigma = C sin(phi) f^2 + D sin(phi) f^3
    satisfy the hatted holomorphicity PDE.
    """
    chart = get_chart("veronese")
    chart_hat = get_chart("veronese-hat")
    u = np.array([phi, theta])
    u_hat = hat_coordinates(phi, theta)
    if not (chart.contains(u) and chart_hat.contains(u_hat)):
        raise DomainError("point is outside the chart overlap")

    f = chart.frame_field(u)
    fh = chart_hat.frame_field(u_hat)
    e1, e2, nu3, nu4 = f
    e1h, e2h, nu3h, nu4h = fh
    ph, th = u_hat
    sp = math.sin(phi)
    cph, cth, sth = math.cos(ph), math.cos(th), math.sin(th)

    res = {}
    res["sin_phi"] = abs(sp - math.sqrt(1.0 - math.sin(ph) ** 2 * cth**2))
    res["e1"] = float(np.max(np.abs(sp * e1 - (-cph * cth * e1h + sth * e2h))))
    res["e2"] = float(np.max(np.abs(sp * e2 - (-sth * e1h - cph * cth * e2h))))
    diag = 0.25 * (-1.0 + 3.0 * math.cos(2 * th) + 2.0 * cth**2 * math.cos(2 * ph))
    off = cph * math.sin(2 * th)
    res["nu3"] = float(np.max(np.abs(sp**2 * nu3 - (diag * nu3h - off * nu4h))))
    res["nu4"] = float(np.max(np.abs(sp**2 * nu4 - (off * nu3h + diag * nu4h))))

    # 2-forms as ambient bivectors built from the actual frame vectors
    f2 = _wedge_matrix(e1, nu3) + _wedge_matrix(e2, nu4)
    f3 = _wedge_matrix(e1, nu4) - _wedge_matrix(e2, nu3)
    f2h = _wedge_matrix(e1h, nu3h) + _wedge_matrix(e2h, nu4h)
    f3h = _wedge_matrix(e1h, nu4h) - _wedge_matrix(e2h, nu3h)
    res["f2"] = float(
        np.max(np.abs(sp**3 * f2 - sp**2 * (-cph * cth * f2h + sth * f3h)))
    )
    res["f3"] = float(
        np.max(np.abs(sp**3 * f3 - sp**2 * (-sth * f2h - cph * cth * f3h)))
    )

    # transformed section coefficients satisfy the hatted PDE
    def hat_family_value(uh):
        phh, thh = uh[..., 0], uh[..., 1]
        a_hat = -C * np.cos(phh) * np.cos(thh) - D * np.sin(thh)
        b_hat = C * np.sin(thh) - D * np.cos(phh) * np.cos(thh)
        return a_hat + 1j * b_hat

    hat_family = SectionFamily(kind="transformed", params={"C": C, "D": D}, evaluator=hat_family_value)
    res["hat_pde"] = abs(pde_residual(hat_family, chart_hat, u_hat, fd_step))

    # the transformed coefficients agree with transporting sigma itself
    sigma = C * sp * f2 + D * sp * f3
    g_hat = hat_family_value(u_hat)
    sigma_hat = g_hat.real * f2h + g_hat.imag * f3h
    res["sigma_transport"] = float(np.max(np.abs(sigma - sigma_hat)))
    res["max"] = max(v for k, v in res.items() if k != "max") if res else 0.0
    return res


# -- golden tables -----------------------------------------------------------
# Table entries are arithmetic expressions in the chart variables.  They are
# evaluated by walking their syntax tree over numpy arrays, never by eval:
# only numeric literals, the table's variables, pi, the functions below, unary
# +/- and binary + - * / ** are accepted.

_EXPR_FUNCTIONS = {
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "cot": lambda x: np.cos(x) / np.sin(x),
}
_EXPR_CONSTANTS = {"pi": math.pi}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_EXPR_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _load_tables() -> dict:
    path = resources.files("twistcal").joinpath("data/golden_tables.json")
    with path.open() as fh:
        return json.load(fh)


def golden_table_names() -> list[str]:
    return sorted(_load_tables())


def golden_table(name: str) -> dict:
    tables = _load_tables()
    if name not in tables:
        raise DomainError(f"unknown golden table {name!r}; have {sorted(tables)}")
    return tables[name]


def _eval_expr(expr: str, variables: dict):
    """Value of a table expression; variables may be numbers or arrays."""

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in variables:
                return variables[node.id]
            if node.id in _EXPR_CONSTANTS:
                return _EXPR_CONSTANTS[node.id]
            raise DomainError(f"unknown name {node.id!r} in table expression {expr!r}")
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
            return _EXPR_UNARY[type(node.op)](walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
            return _EXPR_BINARY[type(node.op)](walk(node.left), walk(node.right))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _EXPR_FUNCTIONS[node.func.id](walk(node.args[0]))
        raise DomainError(
            f"{type(node).__name__} is not allowed in table expression {expr!r}"
        )

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        raise DomainError(f"table expression {expr!r} does not parse") from None
    return walk(tree.body)


def golden_residuals(name: str, u, fd_step: float = DEFAULT_FD_STEP) -> dict:
    """Compare the FD frame data against the reference coefficient table.

    ``u`` is one chart point (q,) or a stack (P, q); each table expression
    is evaluated once over the stack, and every residual has one value per
    point.
    """
    table = golden_table(name)
    chart = get_chart(table["chart"])
    point = adapted_frame(chart, u, fd_step)
    variables = {v: point.u[..., i] for i, v in enumerate(table["variables"])}

    expected = np.zeros_like(point.gamma)
    for entry in table["gamma"]:
        j, k, l = entry["j"] - 1, entry["k"] - 1, entry["l"] - 1
        expected[..., j, k, l] = _eval_expr(entry["expr"], variables)
    gamma_res = np.max(np.abs(point.gamma - expected), axis=(-3, -2, -1))

    a_res = np.zeros_like(gamma_res)
    for key, mat in table.get("second_fund", {}).items():
        k = int(key) - (chart.q + 1)
        exp_mat = np.zeros_like(point.second_fund[..., k, :, :])
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                exp_mat[..., i, j] = _eval_expr(e, variables)
        a_res = np.maximum(a_res, np.max(np.abs(point.second_fund[..., k, :, :] - exp_mat), axis=(-2, -1)))
    return {
        "gamma": gamma_res[()],
        "second_fund": a_res[()],
        "max": np.maximum(gamma_res, a_res)[()],
    }


# -- registration -------------------------------------------------------------

register_chart(equatorial_chart())
register_chart(veronese_chart("psi"))
register_chart(veronese_chart("psi_hat"))
register_chart(compose_antipodal(get_chart("veronese")))
