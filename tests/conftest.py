"""Shared oracles for the test suite.

Everything here recomputes expected values through an independent route
(permutation expansions, ambient finite differences, octonion arithmetic)
so the library paths are checked against something they do not share code
with.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twistcal import __version__, g2, spin7, suites
from twistcal.errors import DomainError
from twistcal.exterior import InnerSpace, Multivector, contract, form_inner, wedge
from twistcal.numerics import directional_derivative
from twistcal.octonion import standard_pinor_context
from twistcal.report import SuiteConfig
from twistcal.stenzel import DEFAULT_PROFILE, lagrangian_samples, omega_value
from twistcal.submanifold import (
    ImmersionChart,
    adapted_frame,
    get_chart,
)

# pyproject's pytest ``pythonpath`` puts src/ on sys.path of this process only;
# the CLI tests spawn ``python -m twistcal`` and need it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import fiber_spec  # noqa: E402


def rng_for(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# -- finite-difference derivative oracle -------------------------------------------


def central_difference(f, u, w, step: float = 1e-5):
    """d/ds f(u + s w) at s = 0 by central differences with one Richardson
    level, at the step h = step (1 + |u|) per row: four real evaluations of
    ``f`` against the library's one complex step, accurate to about 1e-10
    on well-scaled data.  ``u`` and ``w`` broadcast as (..., d)."""
    u, w = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(w, dtype=float))
    h = step * (1.0 + np.linalg.norm(u, axis=-1))

    def central(hh):
        hu = hh[..., None]
        diff = np.asarray(f(u + hu * w)) - np.asarray(f(u - hu * w))
        return diff / (2.0 * hh).reshape(hh.shape + (1,) * (diff.ndim - hh.ndim))

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


# -- test-local charts -----------------------------------------------------------


def great_circle_chart() -> ImmersionChart:
    """A framed q = 1 chart: the great circle (cos u, sin u, 0, 0, 0) of S^4
    with tangent (-sin u, cos u, 0, 0, 0) and normals e_2, e_3, e_4, which
    make the frame positively oriented.  Like every chart, it keeps the dtype
    of u, so that a complex step passes through."""

    def xmap(u):
        t = np.asarray(u)[..., 0]
        out = np.zeros(t.shape + (5,), t.dtype)
        out[..., 0], out[..., 1] = np.cos(t), np.sin(t)
        return out

    def frame_field(u):
        t = np.asarray(u)[..., 0]
        out = np.zeros(t.shape + (4, 5), t.dtype)
        out[..., 0, 0], out[..., 0, 1] = -np.sin(t), np.cos(t)
        out[..., 1:, 2:] = np.eye(3)
        return out

    return ImmersionChart(
        name="great-circle", q=1, n=4, xmap=xmap,
        sample_box=np.array([[-2.5, 2.5]]), frame_field=frame_field,
    )


LATITUDE_R = 0.4  # the latitude of latitude_chart


def latitude_chart(sign: float = 1.0) -> ImmersionChart:
    """A non-minimal q = 2 chart: the latitude sphere x = (cos r s, sin r, 0)
    of S^4 at r = LATITUDE_R, with s the equatorial chart's stereographic S^2.  Its frame is the
    equatorial tangent rows e_1, e_2, nu_3 = sign (-sin r s, cos r, 0) and
    nu_4 = -e_5, positively oriented for sign = 1.  Its shape operators are
    A^3 = -sign tan r I and A^4 = 0, so |tr A| = 2 tan r at every point."""
    equatorial = get_chart("equatorial")
    cos_r, sin_r = math.cos(LATITUDE_R), math.sin(LATITUDE_R)

    def xmap(u):
        s = equatorial.xmap(u)[..., :3]
        out = np.zeros(s.shape[:-1] + (5,), s.dtype)
        out[..., :3], out[..., 3] = cos_r * s, sin_r
        return out

    def frame_field(u):
        out = equatorial.frame_field(u)
        out[..., 2, :3] = -sign * sin_r * equatorial.xmap(u)[..., :3]
        out[..., 2, 3] = sign * cos_r
        return out

    return ImmersionChart(
        name="latitude", q=2, n=4, xmap=xmap,
        sample_box=equatorial.sample_box, frame_field=frame_field,
    )


def unread_frame(u):
    """A frame field for charts whose frame must never be evaluated."""
    raise AssertionError("the frame field was read")


# -- permutation / determinant oracles ---------------------------------------


def parity_sign(perm) -> int:
    """Sign of a permutation given as a list of distinct comparables."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_by_permutations(mat: np.ndarray) -> float:
    """Leibniz-formula determinant, independent of numpy.linalg."""
    n = mat.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        term = parity_sign(perm)
        for i, p in enumerate(perm):
            term *= mat[i, p]
        total += term
    return float(total)


def brute_force_form_inner(a: Multivector, b: Multivector) -> float:
    """Gram-determinant inner product expanded from first principles, for
    the orthonormal basis of the exterior algebra."""
    dim = a.space.dim
    ginv = np.eye(dim)
    total = 0.0
    for ma in range(1 << dim):
        ca = a.coeffs[ma]
        if ca == 0:
            continue
        idx_a = [i for i in range(dim) if ma >> i & 1]
        for mb in range(1 << dim):
            cb = b.coeffs[mb]
            if cb == 0:
                continue
            idx_b = [i for i in range(dim) if mb >> i & 1]
            if len(idx_a) != len(idx_b):
                continue
            if not idx_a:
                total += ca * cb
                continue
            gram = np.array([[ginv[p, q] for q in idx_b] for p in idx_a])
            total += ca * cb * det_by_permutations(gram)
    return total


def wedge_sign_oracle(idx_a, idx_b) -> int:
    """Parity of sorting the concatenation of two disjoint index tuples."""
    merged = list(idx_a) + list(idx_b)
    if len(set(merged)) != len(merged):
        return 0
    return parity_sign(merged)


def comass_estimate(form: Multivector, k: int, rng, restarts: int = 50) -> float:
    """Max |form| over orthonormal k-frames: random restarts plus a local
    hill-climb (perturb, re-orthonormalise, keep improvements)."""
    dim = form.space.dim

    def value(q):
        return abs(form.evaluate(*(q[:, j] for j in range(k))))

    best = 0.0
    for _ in range(restarts):
        q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
        cur = value(q)
        eps = 0.5
        while eps > 1e-7:
            improved = False
            for _ in range(20):
                q2, _ = np.linalg.qr(q + eps * rng.standard_normal((dim, k)))
                v2 = value(q2)
                if v2 > cur:
                    q, cur = q2, v2
                    improved = True
            if not improved:
                eps *= 0.35
        best = max(best, cur)
    return best


# -- ambient finite-difference oracles ----------------------------------------


def _wedge_mat(a, b):
    return np.outer(a, b) - np.outer(b, a)


def asd_bivectors(frame: np.ndarray) -> np.ndarray:
    e1, e2, n3, n4 = frame
    return np.array(
        [
            _wedge_mat(e1, e2) - _wedge_mat(n3, n4),
            _wedge_mat(e1, n3) + _wedge_mat(e2, n4),
            _wedge_mat(e1, n4) - _wedge_mat(e2, n3),
        ]
    )


def nabla_f_fd_oracle(chart, u) -> np.ndarray:
    """Coefficients of the covariant derivative of the anti-self-dual frame,
    computed on ambient bivector fields: Euclidean central differences
    followed by projection of both slots onto the sphere tangent space."""
    point = adapted_frame(chart, u)
    x = point.x
    proj = np.eye(chart.n + 1) - np.outer(x, x)
    frame_fn = chart.frame_field

    out = np.zeros((2, 3, 3))
    fs = asd_bivectors(point.frame)
    for j in range(2):
        dbiv = central_difference(lambda uu: asd_bivectors(frame_fn(uu)), u, point.velocities[j])
        for k in range(3):
            covariant = proj @ dbiv[k] @ proj
            for m in range(3):
                # det-convention pairing of bivectors: <A, B> = tr(A^T B) / 2,
                # and |f^m|^2 = 2
                out[j, k, m] = np.tensordot(covariant, fs[m]) / 4.0
    return out


def g2_vertical_fd_oracle(chart, family, u, t1: float) -> np.ndarray:
    """Vertical parts of the total-space tangents E_i for the rank-one twist,
    via covariant central differences of the fibre bivector field
    t1 f^1 + sigma."""
    point = adapted_frame(chart, u)
    x = point.x
    proj = np.eye(chart.n + 1) - np.outer(x, x)
    frame_fn = chart.frame_field
    fs = asd_bivectors(point.frame)

    def fiber(uu):
        f1, f2, f3 = asd_bivectors(frame_fn(uu))
        g = family.value(uu)
        return t1 * f1 + g.real * f2 + g.imag * f3

    out = np.zeros((2, 3))
    for j in range(2):
        dbiv = central_difference(fiber, u, point.velocities[j])
        covariant = proj @ dbiv @ proj
        for m in range(3):
            out[j, m] = np.tensordot(covariant, fs[m]) / 4.0
    return out


# -- bitmask calibration forms ----------------------------------------------------
# phi, psi (G2) and Phi (Spin(7)) at weights (u, v) written out as Multivectors,
# monomial by monomial as displayed in the g2 and spin7 docstrings; the
# library's signed index tables must antisymmetrise to their dense tensors.


@functools.lru_cache(maxsize=None)
def bitmask_space(dim: int) -> InnerSpace:
    return InnerSpace(dim)


def bitmask_g2_phi(u: float, v: float) -> Multivector:
    m = bitmask_space(7).monomial
    uv2 = u * u * v
    return (
        v**3 * m((5, 6, 7))
        + uv2 * (m((1, 2, 5)) - m((3, 4, 5)))
        + uv2 * (m((1, 3, 6)) + m((2, 4, 6)))
        + uv2 * (m((1, 4, 7)) - m((2, 3, 7)))
    )


def bitmask_g2_psi(u: float, v: float) -> Multivector:
    m = bitmask_space(7).monomial
    u2v2 = u * u * v * v
    out = u**4 * m((1, 2, 3, 4))
    out = out - u2v2 * (m((1, 2, 6, 7)) - m((3, 4, 6, 7)))
    out = out + u2v2 * (m((1, 3, 5, 7)) + m((2, 4, 5, 7)))
    out = out - u2v2 * (m((1, 4, 5, 6)) - m((2, 3, 5, 6)))
    return out


# pairings (a_k, b_k) of {12, 34}, {13, 24}, {14, 23} and their signs eps_k
_PAIRINGS = (((1, 2), (3, 4), 1.0), ((1, 3), (2, 4), -1.0), ((1, 4), (2, 3), 1.0))


def bitmask_mixed_block() -> Multivector:
    """sum_k (e_{a_k} + eps_k e_{b_k}) ^ (s_{a_k} + eps_k s_{b_k})."""
    space = bitmask_space(8)
    m = space.monomial
    out = space.zero()
    for a, b, sign in _PAIRINGS:
        h = m(a) + sign * m(b)
        vert = m(tuple(i + 4 for i in a)) + sign * m(tuple(i + 4 for i in b))
        out = out + wedge(h, vert)
    return out


def bitmask_spin7_phi(u: float, v: float) -> Multivector:
    m = bitmask_space(8).monomial
    u2v2 = u * u * v * v
    out = u**4 * m((1, 2, 3, 4)) + v**4 * m((5, 6, 7, 8))
    return out - u2v2 * bitmask_mixed_block()


def multivector_of(tensor: np.ndarray) -> Multivector:
    """A dense antisymmetric (dim,)*k tensor as a k-form of the bitmask
    algebra: the coefficient of e^{i_1} ^ .. ^ e^{i_k} is T[i_1 - 1, ..]."""
    dim, k = tensor.shape[0], tensor.ndim
    coeffs = np.zeros(1 << dim)
    for idx in itertools.combinations(range(dim), k):
        coeffs[sum(1 << i for i in idx)] = tensor[idx]
    return Multivector(bitmask_space(dim), coeffs)


# -- bitmask calibration oracles ------------------------------------------------
# The calibration residuals evaluated on the weighted Multivector forms built
# at (u, v), contracted slot by slot with the bitmask ``contract``; the library
# contracts dense unit-weight tensors instead.


def bitmask_associative_residual(e1, e2, f1, u: float, v: float) -> float:
    one_form = contract(contract(contract(bitmask_g2_psi(u, v), f1), e1), e2)
    return float(np.sqrt(form_inner(one_form, one_form)))


def bitmask_coassociative_residual(e1, e2, f2, f3, u: float, v: float) -> float:
    phi = bitmask_g2_phi(u, v)
    return max(abs(phi.evaluate(*triple)) for triple in itertools.combinations((e1, e2, f2, f3), 3))


def bitmask_cayley_eta(e1, e2, f1, f2, u: float, v: float) -> Multivector:
    """eta(E_1, E_2, F_1, F_2) summand by summand in the weighted 8-metric."""
    space = bitmask_space(8)
    phi = bitmask_spin7_phi(u, v)
    metric = np.array([u * u] * 4 + [v * v] * 4)
    vecs = [np.asarray(x, dtype=float) for x in (e1, e2, f1, f2)]

    def cross(p, q, r):
        one_form = contract(contract(contract(phi, vecs[p]), vecs[q]), vecs[r])
        return np.array([one_form.coeffs[1 << i] for i in range(8)]) / metric

    out = space.zero()
    for head, (p, q, r) in [(0, (1, 2, 3)), (1, (2, 0, 3)), (2, (0, 1, 3)), (3, (1, 0, 2))]:
        x = cross(p, q, r)
        out = out + wedge(space.covector(metric * vecs[head]), space.covector(metric * x))
        out = out + contract(contract(phi, x), vecs[head])
    return out


def bitmask_cayley_residual(e1, e2, f1, f2, u: float, v: float) -> float:
    return float(np.linalg.norm(bitmask_cayley_eta(e1, e2, f1, f2, u, v).coeffs))


def bitmask_calibration_gap(e1, e2, f1, f2, u: float, v: float) -> float:
    vecs = [np.asarray(x, dtype=float) for x in (e1, e2, f1, f2)]
    phi_val = bitmask_spin7_phi(u, v).evaluate(*vecs)
    metric = np.diag([u * u] * 4 + [v * v] * 4)
    gram = np.array([[a @ metric @ b for b in vecs] for a in vecs])
    return abs(abs(phi_val) - float(np.sqrt(max(np.linalg.det(gram), 0.0))))


# -- spin connection loop oracles --------------------------------------------------


def spin_connection_ops_loop(gamma: np.ndarray) -> np.ndarray:
    """omega_i = 1/4 sum_{k,l} Gamma^l_{ik} gamma^k gamma^l, term by term."""
    g = standard_pinor_context().gammas
    out = np.zeros((2, 8, 8))
    for i in range(2):
        for k in range(4):
            for l in range(4):
                out[i] += 0.25 * gamma[i, k, l] * (g[k] @ g[l])
    return out


def spinor_route_basis_v_plus(point, frame, sec, t) -> np.ndarray:
    """``spin7.tangent_basis_v_plus`` through the 8-dimensional spinors, as it was computed
    before the s-component table: the (..., 2, 8, 8) operators omega_i on the fibre spinor,
    and the result projected back on (s_1, .., s_4)."""
    t = np.asarray(t, dtype=float)
    fdim = t.ndim - 1
    s = frame.s
    omegas = g2.per_point(spin7.spin_connection_ops(point.gamma), fdim, 3)
    a, b = (g2.per_point(x, fdim)[..., None] for x in (sec.a, sec.b))
    fiber_spinor = t[..., 0, None] * s[0] + t[..., 1, None] * s[1] + a * s[2] + b * s[3]
    da, db = (g2.per_point(x, fdim, 1)[..., None] for x in (sec.da, sec.db))
    vert_oct = da * s[2] + db * s[3] + (omegas @ fiber_spinor[..., None, :, None])[..., 0]
    return g2.lifted_basis(vert_oct @ s.T, spin7.CAYLEY_SLOTS, 8)


def spinor_route_dbar_vminus(gamma, frame, sec):
    """``spin7.dbar_vminus_residual`` through the 8-dimensional spinors, as it was computed
    before the s-component table, with J_- = -Gamma as an (8, 8) operator."""
    s = frame.s
    omegas = spin7.spin_connection_ops(gamma)
    a, b = (np.asarray(x, dtype=float)[..., None] for x in (sec.a, sec.b))
    psi_oct = a * s[2] + b * s[3]
    da, db = (np.asarray(x, dtype=float)[..., None] for x in (sec.da, sec.db))
    comps = (da * s[2] + db * s[3] + (omegas @ psi_oct[..., None, :, None])[..., 0]) @ s.T
    grads = comps[..., 2, None] * s[2] + comps[..., 3, None] * s[3]
    j_minus = -spin7._GAMMA_OP
    comps = (grads[..., 0, :] + grads[..., 1, :] @ j_minus.T) @ s.T
    return comps[..., 2], comps[..., 3]


def nabla_gamma_ops_loop(gamma: np.ndarray) -> np.ndarray:
    g = standard_pinor_context().gammas
    out = np.zeros((2, 8, 8))
    for i in range(2):
        d1 = sum(gamma[i, 0, m] * g[m] for m in range(4))
        d2 = sum(gamma[i, 1, m] * g[m] for m in range(4))
        out[i] = d1 @ g[1] + g[0] @ d2
    return out


# -- literal sign tables and the Cayley-Dickson product ---------------------------------
# psi, the Cayley form Phi and the octonion product written out by hand; the library
# derives all three from g2.PHI_TABLE, and the tests compare them with these.

LITERAL_G2_PSI_TABLE = (
    ((0, 1, 2, 3), 1), ((0, 1, 5, 6), -1), ((2, 3, 5, 6), 1), ((0, 2, 4, 6), 1),
    ((1, 3, 4, 6), 1), ((0, 3, 4, 5), -1), ((1, 2, 4, 5), 1),
)
LITERAL_SPIN7_PHI_TABLE = (
    ((0, 1, 2, 3), 1), ((4, 5, 6, 7), 1),
    ((0, 1, 4, 5), -1), ((0, 1, 6, 7), -1), ((2, 3, 4, 5), -1), ((2, 3, 6, 7), -1),
    ((0, 2, 4, 6), -1), ((0, 2, 5, 7), 1), ((1, 3, 4, 6), 1), ((1, 3, 5, 7), -1),
    ((0, 3, 4, 7), -1), ((0, 3, 5, 6), -1), ((1, 2, 4, 7), -1), ((1, 2, 5, 6), -1),
)

# The connection on Lambda^2_- written out by hand: N[j, k, m] = sum_ab Gamma[j, a, b]
# LITERAL_NABLA_F[a, b, k, m] over a > b, antisymmetric in (k, m), and the p, q of dbar_F
# as Gamma-index formulas.  The library derives both from g2.ASD_FORMS.
LITERAL_NABLA_F = np.zeros((4, 4, 3, 3))
for _k, _m, _a, _b, _sign in (
    (0, 1, 3, 0, 1.0), (0, 1, 2, 1, -1.0),
    (0, 2, 2, 0, -1.0), (0, 2, 3, 1, -1.0),
    (1, 2, 1, 0, 1.0), (1, 2, 3, 2, -1.0),
):
    LITERAL_NABLA_F[_a, _b, _k, _m] = _sign
    LITERAL_NABLA_F[_a, _b, _m, _k] = -_sign


def dbar_f_pq(gamma):
    """p = Gamma^1_{22} - Gamma^3_{24} and q = Gamma^3_{14} - Gamma^1_{12} of dbar_F, per
    leading index of ``gamma`` (..., 2, 4, 4)."""
    return gamma[..., 1, 1, 0] - gamma[..., 1, 3, 2], gamma[..., 0, 3, 2] - gamma[..., 0, 1, 0]


def quat_mul(p, q):
    """Hamilton product, broadcasting over leading axes of (..., 4) arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def quat_conj(p):
    p = np.asarray(p, dtype=float)
    return p * np.array([1.0, -1.0, -1.0, -1.0])


def cayley_dickson_mul(x, y):
    """Octonion product on (..., 8) coefficient arrays by Cayley-Dickson doubling,
    (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)) for quaternions a, b, c, d."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a, b = x[..., :4], x[..., 4:]
    c, d = y[..., :4], y[..., 4:]
    first = quat_mul(a, c) - quat_mul(quat_conj(d), b)
    second = quat_mul(d, a) + quat_mul(b, quat_conj(c))
    return np.concatenate([first, second], axis=-1)


def cayley_dickson_left_mult(x) -> np.ndarray:
    """Matrix of s -> x s on coefficient columns, by Cayley-Dickson doubling."""
    return cayley_dickson_mul(np.asarray(x, dtype=float)[None, :], np.eye(8)).T


# -- octonion model oracles ------------------------------------------------------------
# The model calibrations of Im O and O built from Cayley-Dickson products of (8,)
# coefficient arrays, independent of the displayed forms and of g2.PHI_TABLE.


def oct_conj(x) -> np.ndarray:
    return np.asarray(x, dtype=float) * np.array([1.0, -1, -1, -1, -1, -1, -1, -1])


def cross2(u, v) -> np.ndarray:
    """Two-fold cross product Im(uv) of imaginary octonions."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    for x in (u, v):
        if abs(x[0]) > 1e-12 * (1.0 + np.linalg.norm(x)):
            raise DomainError("cross2 expects imaginary octonions")
    out = cayley_dickson_mul(u, v)
    out[0] = 0.0
    return out


def cross3(u, v, w) -> np.ndarray:
    """Three-fold product X(u, v, w) = 1/2 (w (conj(v) u) - u (conj(v) w)).

    The sign is fixed so that the associated 4-form built from
    <X(u, v, w), y> has value +1 on the oriented quaternion 4-plane
    (1, i, j, k).
    """
    cv, mul = oct_conj(v), cayley_dickson_mul
    return 0.5 * (mul(w, mul(cv, u)) - mul(u, mul(cv, w)))


@functools.lru_cache(maxsize=1)
def associative_model_form() -> Multivector:
    """The 3-form phi0(u, v, w) = <u x v, w> on Im O (7-dim, orthonormal)."""
    coeffs = np.zeros(1 << 7)
    im_basis = np.eye(8)[1:]
    for a, b, c in itertools.combinations(range(7), 3):
        val = cross2(im_basis[a], im_basis[b]) @ im_basis[c]
        if abs(val) > 1e-14:
            coeffs[(1 << a) | (1 << b) | (1 << c)] = val
    return Multivector(bitmask_space(7), coeffs)


@functools.lru_cache(maxsize=1)
def cayley_model_form() -> Multivector:
    """The 4-form Phi0(u, v, w, y) = <X(u, v, w), y> on O (8-dim, orthonormal)."""
    coeffs = np.zeros(1 << 8)
    basis = np.eye(8)
    for a, b, c, d in itertools.combinations(range(8), 4):
        val = cross3(basis[a], basis[b], basis[c]) @ basis[d]
        if abs(val) > 1e-14:
            coeffs[(1 << a) | (1 << b) | (1 << c) | (1 << d)] = val
    return Multivector(bitmask_space(8), coeffs)


def cross3_via_form(u, v, w) -> np.ndarray:
    """X(u, v, w) recovered as w ⌟ v ⌟ u ⌟ Phi0 (indices raised trivially)."""
    one_form = contract(contract(contract(cayley_model_form(), u), v), w)
    return np.array([one_form.coeffs[1 << i] for i in range(8)])


# -- per-point Stenzel omega oracle ------------------------------------------------
# The Lagrangian residual one sample at a time: complex-step tangents of the
# total-space map direction by direction, the coefficient matrix rebuilt from
# scalar math, and omega summed pair by pair.  The library runs every direction
# of every sample through one stacked call and one V a V^H contraction instead.


def _pointwise_psi_parts(x, xi):
    # the real and imaginary parts of the quadric point, complex-safe: r is
    # sqrt(xi . xi) with the bilinear dot
    r = np.sqrt(xi @ xi)
    sinhc = np.sinh(r) / r if abs(r.real) > 1e-6 else 1.0 + r * r / 6.0
    return np.stack([x * np.cosh(r), xi * sinhc])


def _pointwise_omega(z, v, w, profile):
    z0, rest = z[0], z[1:]
    vp, vpp = profile.at(float(np.linalg.norm(z)))
    herm = (np.eye(rest.size) + np.outer(rest, rest.conjugate()) / abs(z0) ** 2) * vp
    sym = 2.0 * np.real(
        np.outer(rest.conjugate(), rest) - (z0.conjugate() / z0) * np.outer(rest, rest)
    ) * vpp
    a = herm + sym
    vv, ww = v[1:], w[1:]
    pair = np.outer(vv, ww.conjugate()) - np.outer(ww, vv.conjugate())
    return float((0.5j * np.sum(a * pair)).real)


def pointwise_omega_max(chart, mu_coeffs, u, t, profile=DEFAULT_PROFILE):
    """max |omega(V_i, V_j)| over the tangent basis at one sample, one
    direction at a time."""
    q, n = chart.q, chart.n
    point = adapted_frame(chart, u)
    mu_coeffs = np.asarray(mu_coeffs, dtype=float)

    def total_map(params):
        uu, tt = params[:q], params[q:]
        frame = chart.frame_field(uu)
        xi = tt @ frame[q:] + mu_coeffs @ frame[:q]
        return _pointwise_psi_parts(chart.xmap(uu), xi)

    def complex_point(parts):
        return parts[0] + 1j * parts[1]

    params0 = np.concatenate([point.u, t])
    rot = np.vstack([point.x[None, :], point.frame])
    z = rot @ complex_point(total_map(params0))
    basis = []
    for idx in range(n):
        w = np.zeros(n)
        if idx < q:
            w[:q] = point.velocities[idx]
        else:
            w[idx] = 1.0
        basis.append(rot @ complex_point(directional_derivative(total_map, params0, w)))
    return max(
        abs(_pointwise_omega(z, basis[i], basis[j], profile))
        for i in range(n)
        for j in range(i + 1, n)
    )


def stenzel_job_inputs(config):
    """(chart, profile, mu, samples, fibers) of a Stenzel suite config, drawn
    as ``suites._run_stenzel`` draws them."""
    _, chart, profile, mu, _ = suites._parse_job(config)
    rng = np.random.default_rng(config.seed)
    samples = chart.sample(rng, config.samples)
    fibers = suites._sample_fibers(rng, config.samples, chart.n - chart.q)
    return chart, profile, mu, samples, fibers


def pointwise_stenzel_diagnostics(config) -> tuple[float, float]:
    """The Stenzel suite's two closed-form diagnostics, ``closed_form_gap.max``
    and ``bracket_factor.min``, over every sample: ``omega_value`` per index
    pair on each record of ``lagrangian_samples`` (the chart's own adapted
    frame), against the proof-side scalar a_i t_j cosh^2(sqrt y) / y * bracket
    in scalar math."""
    chart, profile, mu, samples, fibers = stenzel_job_inputs(config)
    gap, bracket_min = 0.0, math.inf
    for rec in lagrangian_samples(chart, mu, samples, fibers, profile):
        pt = rec["point"]
        vp, vpp = profile.at(float(np.linalg.norm(pt.z)))
        ry = math.sqrt(pt.y)
        th = math.tanh(ry)
        bracket = (1.0 - th / ry + th * th) * vp + 4.0 * math.sinh(ry) ** 2 * vpp
        bracket_min = min(bracket_min, bracket)
        for i in range(chart.q):
            for j in range(chart.n - chart.q):
                direct = omega_value(pt.z, pt.tangents_e[i], pt.tangents_f[j], profile)
                closed = pt.mu_coeffs[i] * pt.t[j] * math.cosh(ry) ** 2 / pt.y * bracket
                gap = max(gap, abs(direct - closed))
    return gap, bracket_min


# -- per-point g2 / Spin(7) oracle -------------------------------------------------
# The g2 and spin7 suites one (sample, fibre) pair at a time, as they ran before
# they were stacked: complex-step section data direction by direction on the
# real and imaginary parts, nabla f rebuilt for every fibre, 7- and 8-vectors assembled in
# loops, and one dense contraction per residual.  The library contracts every
# pair of a job at once instead.


@dataclass(frozen=True)
class PointwiseSection:
    a: float
    b: float
    da: np.ndarray
    db: np.ndarray


def pointwise_section_data(family, point) -> PointwiseSection:
    def a_fn(u):
        return family.parts(u)[0]

    def b_fn(u):
        return family.parts(u)[1]

    g = complex(family.value(point.u))
    da = np.array([float(directional_derivative(a_fn, point.u, w)) for w in point.velocities])
    db = np.array([float(directional_derivative(b_fn, point.u, w)) for w in point.velocities])
    return PointwiseSection(a=g.real, b=g.imag, da=da, db=db)


def pointwise_nabla_f(gamma: np.ndarray) -> np.ndarray:
    out = np.zeros((2, 3, 3))
    for j in range(2):
        g = gamma[j]
        out[j, 0, 1] = g[3, 0] - g[2, 1]
        out[j, 0, 2] = -g[2, 0] - g[3, 1]
        out[j, 1, 0] = g[2, 1] - g[3, 0]
        out[j, 1, 2] = g[1, 0] - g[3, 2]
        out[j, 2, 0] = g[2, 0] + g[3, 1]
        out[j, 2, 1] = g[3, 2] - g[1, 0]
    return out


def _lift(i, vert, dim):
    vec = np.zeros(dim)
    vec[i] = 1.0
    vec[dim - len(vert):] = vert
    return vec


def pointwise_basis_e_sigma(point, sec, t1: float):
    n = pointwise_nabla_f(point.gamma)
    es = []
    for i in range(2):
        vert = t1 * n[i, 0] + sec.a * n[i, 1] + sec.b * n[i, 2]
        es.append(_lift(i, vert + np.array([0.0, sec.da[i], sec.db[i]]), 7))
    return es[0], es[1], np.eye(7)[4]


def pointwise_basis_eta_f(point, gamma_val: float, dgamma, t):
    n = pointwise_nabla_f(point.gamma)
    es = []
    for i in range(2):
        vert = t[0] * n[i, 1] + t[1] * n[i, 2] + gamma_val * n[i, 0]
        es.append(_lift(i, vert + np.array([dgamma[i], 0.0, 0.0]), 7))
    return es[0], es[1], np.eye(7)[5], np.eye(7)[6]


def pointwise_spin_connection(gamma: np.ndarray) -> np.ndarray:
    return 0.25 * np.einsum("ikl,klac->iac", gamma[:2, :4, :4], spin7._GG)


def pointwise_basis_v_plus(point, frame, sec, t):
    omegas = pointwise_spin_connection(point.gamma)
    s = frame.s
    fiber_spinor = t[0] * s[0] + t[1] * s[1] + sec.a * s[2] + sec.b * s[3]
    es = [
        _lift(i, s @ (sec.da[i] * s[2] + sec.db[i] * s[3] + omegas[i] @ fiber_spinor), 8)
        for i in range(2)
    ]
    return es[0], es[1], np.eye(8)[4], np.eye(8)[5]


def pointwise_dbar_f(gamma, sec):
    p, q = dbar_f_pq(gamma)
    r2 = sec.da[0] - sec.db[1] - p * sec.a + q * sec.b
    r3 = sec.da[1] + sec.db[0] - q * sec.a - p * sec.b
    return float(r2), float(r3)


def pointwise_dbar_vminus(gamma, frame, sec):
    omegas = pointwise_spin_connection(gamma)
    s = frame.s
    psi_oct = sec.a * s[2] + sec.b * s[3]
    grads = []
    for i in range(2):
        comps = s @ (sec.da[i] * s[2] + sec.db[i] * s[3] + omegas[i] @ psi_oct)
        grads.append(comps[2] * s[2] + comps[3] * s[3])
    comps = s @ (grads[0] - spin7._GAMMA_OP @ grads[1])
    return float(comps[2]), float(comps[3])


def _pointwise_weights(profile, r: float, dim: int) -> np.ndarray:
    u, v = profile.at(r)
    return np.array([float(u)] * 4 + [float(v)] * (dim - 4))


def pointwise_associative(e1, e2, f1, profile, fiber) -> float:
    t1, a, b = fiber
    d = _pointwise_weights(profile, float(np.sqrt(2.0 * (t1 * t1 + a * a + b * b))), 7)
    one_form = (d * f1) @ g2.unit_tensor(LITERAL_G2_PSI_TABLE, 7).reshape(7, -1)
    one_form = (d * e1) @ one_form.reshape(7, -1)
    one_form = (d * e2) @ one_form.reshape(7, -1)
    return float(np.linalg.norm(d * one_form))


def pointwise_coassociative(e1, e2, f2, f3, profile, fiber) -> float:
    t1, a, b = fiber
    d = _pointwise_weights(profile, float(np.sqrt(2.0 * (t1 * t1 + a * a + b * b))), 7)
    vecs = d * np.array([e1, e2, f2, f3])
    values = vecs @ (vecs @ g2.unit_tensor(g2.PHI_TABLE, 7).reshape(7, -1)).reshape(4, 7, 7) @ vecs.T
    return float(max(abs(values[a, b, c]) for a, b, c in itertools.combinations(range(4), 3)))


def pointwise_cayley(e1, e2, f1, f2, profile, r: float) -> float:
    d = _pointwise_weights(profile, r, 8)
    vecs = d * np.array([e1, e2, f1, f2])
    phi = g2.unit_tensor(LITERAL_SPIN7_PHI_TABLE, 8)
    heads = ((1, 2, 3), (2, 0, 3), (0, 1, 3), (1, 0, 2))
    cross = np.array(
        [vecs[c] @ (vecs[b] @ (vecs[a] @ phi.reshape(8, -1)).reshape(8, -1)).reshape(8, 8) for a, b, c in heads]
    )
    pairs = cross.T @ vecs
    eta = pairs.T - pairs + (pairs.reshape(64) @ phi.reshape(64, 64)).reshape(8, 8)
    return float(np.linalg.norm(d[:, None] * eta * d[None, :]) / np.sqrt(2.0))


def pointwise_calibration_gap(e1, e2, f1, f2, profile, r: float) -> float:
    d = _pointwise_weights(profile, r, 8)
    vecs = d * np.array([e1, e2, f1, f2])
    val = g2.unit_tensor(LITERAL_SPIN7_PHI_TABLE, 8)
    for w in vecs:
        val = w @ val.reshape(8, -1)
    vol = float(np.sqrt(max(np.linalg.det(vecs @ vecs.T), 0.0)))
    return abs(abs(float(val[0])) - vol)


def forms_job_inputs(config):
    """(chart, profile, twist, fibers, samples, frames) of a g2-* or spin7-cayley
    config: the samples drawn as ``suites._run_pairs`` draws them, and their
    adapted frames as one stack."""
    _, chart, profile, twist, fibers = suites._parse_job(config)
    samples = chart.sample(np.random.default_rng(config.seed), config.samples)
    return chart, profile, twist, fibers, samples, adapted_frame(chart, samples)


def pointwise_trace(second_fund) -> float:
    """max_k |tr A^k| over one point's shape operators."""
    return max(abs(float(np.trace(a))) for a in second_fund)


# The superminimal residual is a supremum over the circle of unit normals.  A
# sweep of SWEEP_ANGLES equally spaced normals reads it from below, to within a
# factor cos(pi / SWEEP_ANGLES): a relative SWEEP_TOL of about 9.5e-6.
SWEEP_ANGLES = 720
SWEEP_TOL = 1.0 - math.cos(math.pi / SWEEP_ANGLES)


def pointwise_superminimal(second_fund, sign: float, angles: int = SWEEP_ANGLES) -> float:
    """The largest entry of A^{J_N nu} - sign J_T A^nu over ``angles`` unit
    normals nu = cos(theta) nu_3 + sin(theta) nu_4 of one point, with
    J_N nu = cos(theta) nu_4 - sin(theta) nu_3, J_T e_1 = e_2 and J_T e_2 = -e_1."""
    theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)[:, None, None]
    c, s = np.cos(theta), np.sin(theta)
    a3, a4 = second_fund
    a_nu, a_jn = c * a3 + s * a4, c * a4 - s * a3
    jt_a_nu = np.stack([-a_nu[:, 1], a_nu[:, 0]], axis=1)
    return float(np.max(np.abs(a_jn - sign * jt_a_nu)))


def pointwise_suite(config) -> "PointwiseReport":
    """The report of a g2-* or spin7-cayley run, one (sample, fibre) pair at a
    time; its neg_superminimal reads the sweep of ``pointwise_superminimal``."""
    _, bs_profile, twist, fibers, samples, frames = forms_job_inputs(config)
    points = []
    if config.suite == "g2-coassociative":
        for u, point in zip(samples, frames):
            gval = float(twist.value(point.u))
            dgamma = np.array(
                [float(directional_derivative(twist.value, point.u, w))
                 for w in point.velocities]
            )
            criteria = {
                "neg_superminimal": pointwise_superminimal(point.second_fund, -1.0),
                "parallel_e": float(abs(dgamma[0]) + abs(dgamma[1])),
            }
            for t in fibers:
                basis = pointwise_basis_eta_f(point, gval, dgamma, t)
                res = pointwise_coassociative(*basis, bs_profile, (gval, t[0], t[1]))
                points.append(PointRecord(list(u), list(t), {"coassociative": res}, dict(criteria)))
        return pointwise_report(config, points)

    sframe = spin7.spinor_frames()
    spin = config.suite == "spin7-cayley"
    for u, point in zip(samples, frames):
        sec = pointwise_section_data(twist, point)
        trace = pointwise_trace(point.second_fund)
        if spin:
            dbar = {"dbar_vminus": float(np.hypot(*pointwise_dbar_vminus(point.gamma, sframe, sec)))}
        else:
            dbar = {"dbar_f": float(np.hypot(*pointwise_dbar_f(point.gamma, sec)))}
        criteria = {"trace_a": trace, **dbar}
        for t in fibers:
            if spin:
                basis = pointwise_basis_v_plus(point, sframe, sec, t)
                r = float(np.sqrt(t @ t + sec.a**2 + sec.b**2))
                residuals = {
                    "cayley": pointwise_cayley(*basis, bs_profile, r),
                    "calibration_gap": pointwise_calibration_gap(*basis, bs_profile, r),
                }
            else:
                basis = pointwise_basis_e_sigma(point, sec, float(t[0]))
                fiber = (float(t[0]), sec.a, sec.b)
                residuals = {"associative": pointwise_associative(*basis, bs_profile, fiber)}
            points.append(PointRecord(list(u), list(t), residuals, dict(criteria)))
    return pointwise_report(config, points)


# -- record-based report oracle ------------------------------------------------------
# The report layer as it ran before it went columnar: one record per (sample,
# fibre) pair with two small dicts, classified, aggregated and serialised point
# by point.  The library classifies and aggregates whole columns instead.


@dataclass
class PointRecord:
    u: list
    t: list
    residuals: dict
    criteria: dict
    status: str = ""

    def classify(self, tol_verdict: float) -> "PointRecord":
        cond = max(self.residuals.values()) if self.residuals else 0.0
        crit = max(self.criteria.values()) if self.criteria else 0.0
        if cond < tol_verdict and crit < tol_verdict:
            self.status = "PASS"
        elif cond >= tol_verdict and crit >= tol_verdict:
            self.status = "FAIL"
        else:
            self.status = "MIXED"
        return self


@dataclass
class PointwiseReport:
    suite: str
    config: dict
    points: list
    aggregates: dict
    verdict: str
    provenance: dict

    def exit_code(self) -> int:
        return 0 if self.verdict == "PASS" else 1

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "points": [
                {
                    "u": list(map(float, p.u)),
                    "t": list(map(float, p.t)),
                    "residuals": {k: float(v) for k, v in sorted(p.residuals.items())},
                    "criteria": {k: float(v) for k, v in sorted(p.criteria.items())},
                    "status": p.status,
                }
                for p in self.points
            ],
            "aggregates": {k: float(v) for k, v in sorted(self.aggregates.items())},
            "verdict": self.verdict,
            "provenance": self.provenance,
        }

    def emit(self, fmt: str) -> bytes:
        if fmt == "json":
            return json.dumps(self.to_dict(), sort_keys=True, indent=2).encode() + b"\n"
        res_names = sorted({k for p in self.points for k in p.residuals})
        crit_names = sorted({k for p in self.points for k in p.criteria})
        dim_u = len(self.points[0].u) if self.points else 0
        dim_t = len(self.points[0].t) if self.points else 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["index", "status"]
            + [f"u{i + 1}" for i in range(dim_u)]
            + [f"t{i + 1}" for i in range(dim_t)]
            + res_names
            + crit_names
        )
        for idx, p in enumerate(self.points):
            row = [idx, p.status]
            row += [repr(float(x)) for x in p.u]
            row += [repr(float(x)) for x in p.t]
            row += [repr(float(p.residuals.get(k, 0.0))) for k in res_names]
            row += [repr(float(p.criteria.get(k, 0.0))) for k in crit_names]
            writer.writerow(row)
        return buf.getvalue().encode()


def pointwise_report(config, points: list, provenance: dict | None = None) -> PointwiseReport:
    """Classify, aggregate and take the verdict record by record."""
    for p in points:
        p.classify(config.tol_verdict)
    statuses = {p.status for p in points}
    if statuses <= {"PASS"}:
        verdict = "PASS"
    elif statuses == {"FAIL"}:
        verdict = "FAIL"
    else:
        verdict = "MIXED" if "MIXED" in statuses else "FAIL"
    aggregates = {}
    for name in sorted({k for p in points for k in p.residuals}):
        vals = [p.residuals[name] for p in points if name in p.residuals]
        aggregates[f"residual.{name}.max"] = max(vals)
        aggregates[f"residual.{name}.median"] = float(np.median(vals))
    for name in sorted({k for p in points for k in p.criteria}):
        vals = [p.criteria[name] for p in points if name in p.criteria]
        aggregates[f"criterion.{name}.max"] = max(vals)
        aggregates[f"criterion.{name}.median"] = float(np.median(vals))
    prov = {"version": __version__, "config": config.echo()}
    if provenance:
        prov.update(provenance)
    return PointwiseReport(config.suite, config.echo(), points, aggregates, verdict, prov)


def records_of(report) -> list:
    """One record per row of a columnar report, read row by row, with the
    report's status."""
    return [
        PointRecord(
            u=[float(x) for x in report.u[i]],
            t=[float(x) for x in report.t[i]],
            residuals={k: float(v[i]) for k, v in report.residuals.items()},
            criteria={k: float(v[i]) for k, v in report.criteria.items()},
            status=str(report.status[i]),
        )
        for i in range(len(report.status))
    ]


def job_config(job, seed: int) -> SuiteConfig:
    """The SuiteConfig of a benchmark ``verify`` job's argv at one seed."""
    _, suite, *flags = job.argv
    opts = {flags[i].lstrip("-"): flags[i + 1] for i in range(0, len(flags), 2)}
    return SuiteConfig(
        suite=suite,
        chart=opts["chart"],
        section=opts.get("section", opts.get("mu")),
        samples=int(opts["samples"]),
        profile=opts["profile"],
        seed=seed,
        fiber=fiber_spec(seed, job.fibers) if job.fibers else "",
    )


def legacy_eval_expr(expr: str, variables: dict) -> float:
    """Golden-table expressions as evaluated before the AST walker: Python
    eval over math functions (trusted repository data only)."""
    names = {
        "sqrt": math.sqrt,
        "sin": math.sin,
        "cos": math.cos,
        "tan": math.tan,
        "cot": lambda x: math.cos(x) / math.sin(x),
        "pi": math.pi,
    }
    return float(eval(expr, {"__builtins__": {}}, {**names, **variables}))
