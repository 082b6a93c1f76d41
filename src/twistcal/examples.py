"""Worked geometries: the equatorial 2-sphere and the Veronese surface in S^4,
holomorphic section families over them, and the cross-chart consistency checks.
The twist grammar lives here alone: each section and eta kind is one ``TwistKind`` of
``_KINDS``, read by the factories and the spec readers ``section_family``/``eta_family``.

Registered chart names: ``equatorial``, ``veronese``, ``veronese-hat`` and
``veronese-antipodal`` (the composition with the antipodal map of S^4, whose
natural adapted frame is the Veronese one with the two normals swapped).
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from . import g2
from .errors import ConfigError, DomainError
from .numerics import strict_arithmetic
from .report import _parse_params, check_keys
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
    "make_section_family",
    "make_eta_family",
    "section_family",
    "eta_family",
    "pde_residual",
    "boundedness_scan",
    "frame_change_check",
    "golden_table",
    "golden_table_names",
    "golden_residuals",
]


# -- chart maps --------------------------------------------------------------
# Every chart function below maps u of shape (..., 2) to a (..., 5) point or a
# (..., 4, 5) frame, written entry by entry into one array; the Veronese ones
# take one sin and one cos of each chart angle (sin 2x = 2 s c, cos 2x =
# c^2 - s^2).  Each keeps the dtype of u, so a complex step passes through.

_SQ3 = math.sqrt(3.0)
_H3 = _SQ3 / 2.0


def _entries(like, rows):
    """The (..., len(rows), 5) array whose [..., i, j] is rows[i][j], an
    array shaped like ``like[..., 0]`` or a constant, in the dtype of
    ``like`` (at least float)."""
    out = np.empty(like.shape[:-1] + (len(rows), 5), np.result_type(like, float))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def equatorial_chart() -> ImmersionChart:
    """Stereographic chart of the equatorial S^2 inside S^4, with its
    classical adapted frame."""

    def xmap(u):
        u = np.asarray(u)
        u1, u2 = u[..., 0], u[..., 1]
        inv = 1.0 / (u1 * u1 + u2 * u2 + 1.0)
        return _entries(u, [(1.0 - 2.0 * inv, 2.0 * u1 * inv, 2.0 * u2 * inv, 0.0, 0.0)])[..., 0, :]

    def frame_field(u):
        u = np.asarray(u)
        u1, u2 = u[..., 0], u[..., 1]
        inv = 1.0 / (u1 * u1 + u2 * u2 + 1.0)
        a, b, m = u1 * u1 * inv, u2 * u2 * inv, -2.0 * u1 * u2 * inv
        return _entries(u, [(2.0 * u1 * inv, inv - a + b, m, 0.0, 0.0),
                            (2.0 * u2 * inv, m, inv + a - b, 0.0, 0.0),
                            (0.0, 0.0, 0.0, 1.0, 0.0),
                            (0.0, 0.0, 0.0, 0.0, -1.0)])

    box = np.array([[-2.5, 2.5]] * 2)
    return ImmersionChart(name="equatorial", q=2, n=4, xmap=xmap, sample_box=box, frame_field=frame_field)


def veronese_chart(which: str = "psi") -> ImmersionChart:
    """Spherical-coordinate charts of the Veronese surface, the degree-two
    immersion (xy, xz, yz, (x^2 - y^2)/2, (x^2 + y^2 - 2 z^2)/(2 sqrt 3))/sqrt 3
    of the radius-sqrt(3) sphere into S^4.

    ``psi`` uses (phi, theta) with the z-axis pole; ``psi_hat`` uses the
    rotated coordinates (phi_hat, theta_hat) with the y-axis pole.  Both carry
    the classical positively oriented adapted frames, as rows (e_1, e_2,
    nu_3, nu_4).
    """
    if which == "psi":
        # (x, y, z) = sqrt 3 (sin phi cos theta, sin phi sin theta, cos phi)

        def xmap(u):
            s, c = np.sin(u), np.cos(u)
            sp, st, cp, ct = s[..., 0], s[..., 1], c[..., 0], c[..., 1]
            spp, h = sp * sp, _SQ3 * sp * cp
            return _entries(s, [(_SQ3 * spp * st * ct, h * ct, h * st,
                                 _H3 * spp * (ct * ct - st * st), 0.5 * spp - cp * cp)])[..., 0, :]

        def frame_field(u):
            s, c = np.sin(u), np.cos(u)
            sp, st, cp, ct = s[..., 0], s[..., 1], c[..., 0], c[..., 1]
            h, c2p = sp * cp, cp * cp - sp * sp  # sin(2 phi) / 2, cos(2 phi)
            s2t, c2t = 2.0 * st * ct, ct * ct - st * st
            k = 0.5 * (1.0 + cp * cp)
            return _entries(s, [(h * s2t, c2p * ct, c2p * st, h * c2t, _SQ3 * h),
                                (sp * c2t, -cp * st, cp * ct, -sp * s2t, 0.0),
                                (-cp * c2t, -sp * st, sp * ct, cp * s2t, 0.0),
                                (k * s2t, -h * ct, -h * st, k * c2t, -_H3 * sp * sp)])

        box = np.array([[0.35, math.pi - 0.35], [0.35, 2 * math.pi - 0.35]])
        name = "veronese"
    elif which == "psi_hat":
        # (x, y, z) = sqrt 3 (sin phi sin theta, cos phi, sin phi cos theta)

        def xmap(u):
            s, c = np.sin(u), np.cos(u)
            sp, st, cp, ct = s[..., 0], s[..., 1], c[..., 0], c[..., 1]
            spp, h, a = sp * sp, _SQ3 * sp * cp, sp * sp * st * st
            return _entries(s, [(h * st, _SQ3 * spp * st * ct, h * ct, _H3 * (a - cp * cp),
                                 0.5 * (a + cp * cp) - spp * ct * ct)])[..., 0, :]

        def frame_field(u):
            s, c = np.sin(u), np.cos(u)
            sp, st, cp, ct = s[..., 0], s[..., 1], c[..., 0], c[..., 1]
            s2p, c2p = 2.0 * sp * cp, cp * cp - sp * sp
            s2t, c2t = 2.0 * st * ct, ct * ct - st * st
            k = 1.0 + cp * cp
            return _entries(s, [
                (c2p * st, s2p * st * ct, c2p * ct, 0.5 * s2p * (st * st + 1.0), -_H3 * s2p * ct * ct),
                (cp * ct, sp * c2t, -cp * st, 0.5 * sp * s2t, _H3 * sp * s2t),
                (sp * ct, -cp * c2t, -sp * st, -0.5 * cp * s2t, -_H3 * cp * s2t),
                (-0.5 * s2p * st, k * st * ct, -0.5 * s2p * ct, 0.5 * (k * st * st - 1.0 - sp * sp),
                 _H3 * (1.0 - k * ct * ct)),
            ])

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


@dataclass(frozen=True)
class SectionFamily:
    """A coefficient function over a chart, broadcasting over leading axes
    from chart points (..., q): complex G = a + ib for the rank-two twists,
    whose |section|^2 is 2 |G|^2 in the determinant convention, or real
    gamma for the rank-one ones (``rank_two=False``).

    ``evaluator`` maps (N, q) rows to real parts, (N, 2) as (a, b) or (N,)
    as gamma, each a real-analytic expression in u, so that a complex step
    through :meth:`parts` differentiates it.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    rank_two: bool = True

    def parts(self, u):
        """The real parts at a chart point or at every row of a stack, shape
        (..., 2) or (...); a complex step passes through.  A point goes
        through as a stack of one row, since numpy's scalar arithmetic may
        round differently from its array loops."""
        u = np.asarray(u)
        u = u.astype(np.result_type(u, float), copy=False)
        values = np.asarray(self.evaluator(u.reshape(-1, u.shape[-1])))
        return values.reshape(u.shape[:-1] + values.shape[1:])[()]

    def value(self, u):
        """G = a + ib, or gamma, at a chart point or at every row of a stack."""
        values = self.parts(u)
        return (values[..., 0] + 1j * values[..., 1])[()] if self.rank_two else values


# The cap on |i| of a coefficient key: the dense equatorial-hol list grows with
# it, and past it neither family is finite on its sample box (z^i (|z|^2 + 1)
# overflows double precision at the corner |z| = 2.5 sqrt(2) from i = 560 on,
# tan(phi/2)^k at phi = pi - 0.35 from |k| = 410).
MAX_COEFF_INDEX = 559


@dataclass(frozen=True)
class TwistKind:
    """A kind's factory ``keys`` with defaults (None: required) and ``build(q, **params)``, which
    checks its limits (q is None when unknown) and returns its evaluator of (N, q) rows; a kind spelled
    by coefficient keys has their ``pattern`` (groups i and re/im), a ``hint`` for an unknown key, and
    ``dense`` if ``build`` takes [c_0, ..., c_degree], not {i: c_i}."""

    keys: dict
    build: Callable
    pattern: str = ""
    hint: str = ""
    dense: bool = False


def _constant(value):
    return lambda u: np.full(u.shape[:-1] + np.shape(value), value)


def _horner(coeffs, u):
    # G = H(z)(z conj(z) + 1), z = u1 + i u2, by Horner's rule for H in real pairs
    x, y = u[..., 0], u[..., 1]
    hr = hi = np.zeros_like(x)
    for c in reversed(coeffs):
        hr, hi = hr * x - hi * y + c.real, hr * y + hi * x + c.imag
    return np.stack([hr, hi], axis=-1) * (x * x + y * y + 1.0)[..., None]


def _strip(terms, u):
    # G = sin(phi) sum_k c_k exp(ikw), c_k exp(ikw) = c_k (cos k theta + i sin k theta) tan(phi/2)^k
    phi, theta = u[..., 0], u[..., 1]
    t = np.tan(phi / 2.0)
    a = b = np.zeros_like(phi)
    for k, c in terms.items():
        ck, sk, tk = np.cos(k * theta), np.sin(k * theta), t**k
        a = a + (c.real * ck - c.imag * sk) * tk
        b = b + (c.real * sk + c.imag * ck) * tk
    return np.stack([a, b], axis=-1) * np.sin(phi)[..., None]


def _coord(q, axis):
    if not (float(axis).is_integer() and axis >= 1):
        raise ConfigError(f"coord axis must be an integer index >= 1, got {axis:g}")
    if q is not None and axis > q:
        raise ConfigError(f"coord axis must be an integer in 1..{q}, got {axis:g}")
    return lambda u: u[..., int(axis) - 1]


_KINDS = {
    "section": {  # the complex coefficient G = a + ib of a rank-two twist
        "zero": TwistKind({}, lambda q: _constant((0.0, 0.0))),
        "const": TwistKind({"re": 0.0, "im": 0.0}, lambda q, re, im: _constant((float(re), float(im)))),
        "equatorial-hol": TwistKind({"coeffs": None}, lambda q, coeffs: functools.partial(
            _horner, [complex(c) for c in coeffs]), r"c(\d+)(re|im)", " (expected c<i>re or c<i>im)", True),
        # w = theta - i log tan(phi/2); sinphi is c_0 = C + iD alone
        "veronese-strip": TwistKind({"coeffs": None}, lambda q, coeffs: functools.partial(
            _strip, {int(k): complex(c) for k, c in coeffs.items()}), r"k(-?\d+)(re|im)"),
        "sinphi": TwistKind({"C": 0.0, "D": 0.0}, lambda q, C, D: functools.partial(_strip, {0: complex(C, D)})),
    },
    "eta": {  # the real coefficient gamma of a rank-one twist; coord is gamma = u_axis
        "zero": TwistKind({}, lambda q: _constant(0.0)),
        "const": TwistKind({"c": 0.0}, lambda q, c: _constant(float(c))),
        "coord": TwistKind({"axis": 1}, _coord),
    },
}


def _family(what: str, kind: str, params: dict, q=None) -> SectionFamily:
    """The ``what`` ("section" or "eta") family of ``kind`` at ``params`` over its defaults."""
    kinds = _KINDS[what]
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    check_keys(f"{kind} {what}", params, kinds[kind].keys)
    params = {**kinds[kind].keys, **params}
    missing = sorted(k for k, v in params.items() if v is None)
    if missing:
        raise ConfigError(f"{kind} {what} needs keys {missing}")
    return SectionFamily(kinds[kind].build(q, **params), rank_two=what == "section")


def make_section_family(kind: str, **params) -> SectionFamily:
    """The family of a kind of ``_KINDS["section"]``: zero, const, equatorial-hol, veronese-strip, sinphi."""
    return _family("section", kind, params)


def make_eta_family(kind: str, **params) -> SectionFamily:
    """The family of a kind of ``_KINDS["eta"]``: zero, const or coord (eta_family also checks axis <= q)."""
    return _family("eta", kind, params)


def _spec_family(what: str, spec: str, q: int) -> SectionFamily:
    """The family of "kind" or "kind:key=value,..." ("" is "zero"), where a coefficient key adds its
    value to one part of one c_i, and two spellings of one part (c1re, c01re) are a key given twice."""
    kind, _, blob = (spec or "zero").partition(":")
    params, entry = _parse_params(blob), _KINDS[what].get(kind)
    if entry and entry.pattern:
        spelled, parts = {}, {}
        for key, val in params.items():
            m = re.fullmatch(entry.pattern, key)
            if not m:
                raise ConfigError(f"unknown {kind} key {key!r}{entry.hint}")
            if abs(float(m.group(1))) > MAX_COEFF_INDEX:  # int() refuses more than 4300 digits
                raise ConfigError(f"{kind} key {key!r}: |index| exceeds the cap {MAX_COEFF_INDEX}")
            index, part = int(m.group(1)), m.group(2)
            if spelled.setdefault((index, part), key) != key:
                raise ConfigError(f"{kind} coefficient {key[0]}{index}{part} is given more than once, "
                                  f"as {spelled[index, part]!r} and {key!r}")
            parts.setdefault(index, [0.0, 0.0])[part == "im"] += val
        coeffs = {i: complex(*p) for i, p in parts.items()}
        degree = max([i for i, c in coeffs.items() if c != 0], default=0)
        params = {"coeffs": [coeffs.get(i, 0.0) for i in range(degree + 1)] if entry.dense else coeffs}
    return _family(what, kind, params, q)


def section_family(spec: str, q: int) -> SectionFamily:
    """The section family of a --section spec on a base of dimension q, alike on every chart."""
    return _spec_family("section", spec, q)


def eta_family(spec: str, q: int) -> SectionFamily:
    """The rank-one twist of a --section spec on a base of dimension q."""
    return _spec_family("eta", spec, q)


# -- holomorphicity PDE ------------------------------------------------------


def pde_residual(family: SectionFamily, chart: ImmersionChart, u) -> complex:
    """dG(e_1) + i dG(e_2) - (p + iq) G at a chart point: the two components
    of :func:`twistcal.g2.dbar_f_residual` as one complex number.

    A rank-two twist coefficient G is holomorphic when it vanishes.
    """
    point = adapted_frame(chart, u)
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
    def hat_parts(uh):
        phh, thh = uh[..., 0], uh[..., 1]
        a_hat = -C * np.cos(phh) * np.cos(thh) - D * np.sin(thh)
        b_hat = C * np.sin(thh) - D * np.cos(phh) * np.cos(thh)
        return np.stack([a_hat, b_hat], axis=-1)

    hat_family = SectionFamily(hat_parts)
    res["hat_pde"] = abs(pde_residual(hat_family, chart_hat, u_hat))

    # the transformed coefficients agree with transporting sigma itself
    sigma = C * sp * f2 + D * sp * f3
    g_hat = hat_family.value(u_hat)
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


@functools.lru_cache(maxsize=1)
def _load_tables() -> dict:
    """The golden-table file, parsed once per process.  Shared and only read:
    :func:`golden_table` hands out copies."""
    path = resources.files("twistcal").joinpath("data/golden_tables.json")
    with path.open() as fh:
        return json.load(fh)


def golden_table_names() -> list[str]:
    return sorted(_load_tables())


def _table(name: str) -> dict:
    tables = _load_tables()
    if name not in tables:
        raise DomainError(f"unknown golden table {name!r}; have {sorted(tables)}")
    return tables[name]


def golden_table(name: str) -> dict:
    """A fresh copy of one golden table, which the caller may change."""
    return copy.deepcopy(_table(name))


@functools.lru_cache(maxsize=1024)
def _parse_expr(expr: str) -> ast.expr:
    """The syntax tree of a table expression, parsed once per process; the
    tree is only walked, never changed."""
    try:
        return ast.parse(expr, mode="eval").body
    except SyntaxError:
        raise DomainError(f"table expression {expr!r} does not parse") from None


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

    return walk(_parse_expr(expr))


def golden_residuals(name: str, u) -> dict:
    """Compare the frame data against the reference coefficient table.

    ``u`` is one chart point (q,) or a stack (P, q); each table expression
    is evaluated once over the stack, and every residual has one value per
    point.
    """
    table = _table(name)
    chart = get_chart(table["chart"])
    with strict_arithmetic(f"table {name!r}"):
        point = adapted_frame(chart, u)
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
