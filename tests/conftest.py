"""Shared oracles for the test suite.

Everything here recomputes expected values through an independent route
(permutation expansions, ambient finite differences, octonion arithmetic)
so the library paths are checked against something they do not share code
with.
"""

from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import numpy as np

from twistcal import g2, spin7
from twistcal.exterior import Multivector, contract, form_inner, wedge
from twistcal.numerics import directional_derivative
from twistcal.octonion import standard_pinor_context
from twistcal.stenzel import DEFAULT_PROFILE
from twistcal.submanifold import adapted_frame

# pyproject's pytest ``pythonpath`` puts src/ on sys.path of this process only;
# the CLI tests spawn ``python -m twistcal`` and need it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def rng_for(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


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


def nabla_f_fd_oracle(chart, u, fd_step: float = 1e-5) -> np.ndarray:
    """Coefficients of the covariant derivative of the anti-self-dual frame,
    computed on ambient bivector fields: Euclidean derivative followed by
    projection of both slots onto the sphere tangent space."""
    point = adapted_frame(chart, u, fd_step)
    x = point.x
    proj = np.eye(chart.n + 1) - np.outer(x, x)
    frame_fn = chart.frame_field

    out = np.zeros((2, 3, 3))
    fs = asd_bivectors(point.frame)
    for j in range(2):
        dbiv = directional_derivative(
            lambda uu: asd_bivectors(frame_fn(uu)), u, point.velocities[j], fd_step
        )
        for k in range(3):
            covariant = proj @ dbiv[k] @ proj
            for m in range(3):
                # det-convention pairing of bivectors: <A, B> = tr(A^T B) / 2,
                # and |f^m|^2 = 2
                out[j, k, m] = np.tensordot(covariant, fs[m]) / 4.0
    return out


def g2_vertical_fd_oracle(chart, family, u, t1: float, fd_step: float = 1e-5) -> np.ndarray:
    """Vertical parts of the total-space tangents E_i for the rank-one twist,
    via covariant differentiation of the fibre bivector field t1 f^1 + sigma."""
    point = adapted_frame(chart, u, fd_step)
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
        dbiv = directional_derivative(fiber, u, point.velocities[j], fd_step)
        covariant = proj @ dbiv @ proj
        for m in range(3):
            out[j, m] = np.tensordot(covariant, fs[m]) / 4.0
    return out


# -- bitmask calibration oracles ------------------------------------------------
# The calibration residuals evaluated on the weighted Multivector forms built
# at (u, v), contracted slot by slot with the bitmask ``contract``; the library
# contracts dense unit-weight tensors instead.


def bitmask_associative_residual(e1, e2, f1, u: float, v: float) -> float:
    one_form = contract(contract(contract(g2.psi_form(u, v), f1), e1), e2)
    return float(np.sqrt(form_inner(one_form, one_form)))


def bitmask_coassociative_residual(e1, e2, f2, f3, u: float, v: float) -> float:
    phi = g2.phi_form(u, v)
    return max(abs(phi.evaluate(*triple)) for triple in itertools.combinations((e1, e2, f2, f3), 3))


def bitmask_cayley_eta(e1, e2, f1, f2, u: float, v: float) -> Multivector:
    """eta(E_1, E_2, F_1, F_2) summand by summand in the weighted 8-metric."""
    space = spin7.total_space()
    phi = spin7.phi_form(u, v, space)
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
    phi_val = spin7.phi_form(u, v).evaluate(*vecs)
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


def nabla_gamma_ops_loop(gamma: np.ndarray) -> np.ndarray:
    g = standard_pinor_context().gammas
    out = np.zeros((2, 8, 8))
    for i in range(2):
        d1 = sum(gamma[i, 0, m] * g[m] for m in range(4))
        d2 = sum(gamma[i, 1, m] * g[m] for m in range(4))
        out[i] = d1 @ g[1] + g[0] @ d2
    return out


# -- per-point Stenzel omega oracle ------------------------------------------------
# The Lagrangian residual one sample at a time: FD tangents of the total-space
# map direction by direction, the coefficient matrix rebuilt from scalar math,
# and omega summed pair by pair.  The library runs all samples through one
# stacked FD stencil and one V a V^H contraction instead.


def _pointwise_psi_map(x, xi):
    r = float(np.linalg.norm(xi))
    sinhc = math.sinh(r) / r if r > 1e-6 else 1.0 + r * r / 6.0
    return x * math.cosh(r) + 1j * xi * sinhc


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


def pointwise_omega_max(chart, mu_coeffs, u, t, profile=DEFAULT_PROFILE, fd_step=1e-5):
    """max |omega(V_i, V_j)| over the FD tangent basis at one sample."""
    q, n = chart.q, chart.n
    point = adapted_frame(chart, u, fd_step)
    mu_coeffs = np.asarray(mu_coeffs, dtype=float)

    def total_map(params):
        uu, tt = params[:q], params[q:]
        frame = chart.frame_field(uu)
        xi = tt @ frame[q:] + mu_coeffs @ frame[:q]
        return _pointwise_psi_map(chart.xmap(uu), xi)

    params0 = np.concatenate([point.u, t])
    rot = np.vstack([point.x[None, :], point.frame])
    z = rot @ total_map(params0)
    basis = []
    for idx in range(n):
        w = np.zeros(n)
        if idx < q:
            w[:q] = point.velocities[idx]
        else:
            w[idx] = 1.0
        basis.append(rot @ directional_derivative(total_map, params0, w, fd_step))
    return max(
        abs(_pointwise_omega(z, basis[i], basis[j], profile))
        for i in range(n)
        for j in range(i + 1, n)
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
