"""Twisted (co)associative subbundles of the anti-self-dual 2-form bundle
over a surface L^2 in S^4.

The total tangent space at a bundle point is modelled on a 7-dimensional
space with ordered basis

    (e_1, e_2, nu_3, nu_4, k_1, k_2, k_3)

where the first four are horizontal lifts of the adapted frame and the k's
are vertical lifts of the anti-self-dual trivialisation

    f^1 = e^1^e^2 - nu^3^nu^4,
    f^2 = e^1^nu^3 + e^2^nu^4,
    f^3 = e^1^nu^4 - e^2^nu^3.

The basis covectors are treated as orthonormal for form assembly; the fibre
profile weights u, v (both positive) sit inside the 3-form ``phi`` and its
dual ``psi`` exactly as in

    phi = v^3 k_123 + u^2 v [k_1 (e_12 - nu_34) + k_2 (e_1 nu_3 + e_2 nu_4)
                             + k_3 (e_1 nu_4 - e_2 nu_3)],
    psi = u^4 e_12 nu_34 - u^2 v^2 [k_23 (e_12 - nu_34) - k_13 (e_1 nu_3 +
          e_2 nu_4) + k_12 (e_1 nu_4 - e_2 nu_3)].

In the orthonormal coframe of the 7-metric with u^2 on the horizontal block
and v^2 on the vertical block, phi and psi have their unit-weight
coefficients, so (with the orientation below) psi is the Hodge dual of phi at
every profile exactly when it is at u = v = 1.

Every monomial with h horizontal indices carries the weight u^h v^(k-h), so
the form at weights (u, v) is the unit-weight form pulled back by
D = diag(u, u, u, u, v, v, v).  The residuals contract the dense unit tensors
(built once from ``phi_form(1, 1)``/``psi_form(1, 1)``) with D-scaled tangent
vectors and scale any free index of the result by D.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError
from .exterior import InnerSpace, Multivector, dense_tensor
from .numerics import DEFAULT_FD_STEP, directional_derivative
from .submanifold import AdaptedFramePoint

__all__ = [
    "BSProfile",
    "UNIT_PROFILE",
    "total_space",
    "nabla_f_coeffs",
    "phi_form",
    "psi_form",
    "tangent_basis_e_sigma",
    "tangent_basis_eta_f",
    "associative_residual",
    "coassociative_residual",
    "dbar_f_residual",
    "parallel_e_residual",
    "section_data",
]

# Orientation of the 7-dim model: +1 for the ordered basis above makes the
# displayed psi the Hodge dual of the displayed phi.
_MODEL_ORIENTATION = 1


@dataclass(frozen=True)
class BSProfile:
    """Positive fibre-metric weights; constants or functions of the radius."""

    u: Callable[[float], float] | float = 1.0
    v: Callable[[float], float] | float = 1.0

    def at(self, r: float) -> tuple[float, float]:
        uu = self.u(r) if callable(self.u) else float(self.u)
        vv = self.v(r) if callable(self.v) else float(self.v)
        if uu <= 0 or vv <= 0:
            raise DomainError("profile weights must be positive")
        return uu, vv


UNIT_PROFILE = BSProfile()


@lru_cache(maxsize=1)
def total_space() -> InnerSpace:
    return InnerSpace(7, orientation=_MODEL_ORIENTATION)


def nabla_f_coeffs(gamma: np.ndarray) -> np.ndarray:
    """Coefficients N[j, k, m] with nabla_{e_j} f^k = sum_m N[j, k, m] f^m.

    Valid in any adapted orthonormal frame; at a normal-frame centre the
    entries reduce to shape-operator combinations.
    """
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


def _fiber_radius(t1: float, a: float, b: float) -> float:
    # det-convention norm of t1 f^1 + a f^2 + b f^3
    return float(np.sqrt(2.0 * (t1 * t1 + a * a + b * b)))


def phi_form(u: float, v: float, space: InnerSpace | None = None) -> Multivector:
    space = space or total_space()
    m = space.monomial
    uv2 = u * u * v
    return (
        v**3 * m((5, 6, 7))
        + uv2 * (m((1, 2, 5)) - m((3, 4, 5)))
        + uv2 * (m((1, 3, 6)) + m((2, 4, 6)))
        + uv2 * (m((1, 4, 7)) - m((2, 3, 7)))
    )


def psi_form(u: float, v: float, space: InnerSpace | None = None) -> Multivector:
    space = space or total_space()
    m = space.monomial
    u2v2 = u * u * v * v
    out = u**4 * m((1, 2, 3, 4))
    out = out - u2v2 * (m((1, 2, 6, 7)) - m((3, 4, 6, 7)))
    out = out + u2v2 * (m((1, 3, 5, 7)) + m((2, 4, 5, 7)))
    out = out - u2v2 * (m((1, 4, 5, 6)) - m((2, 3, 5, 6)))
    return out


@dataclass(frozen=True)
class SectionData:
    """Values and frame-direction derivatives of a rank-two twist section."""

    a: float
    b: float
    da: np.ndarray  # (2,) derivative of a along e_1, e_2
    db: np.ndarray


def section_data(
    family, point: AdaptedFramePoint, fd_step: float = DEFAULT_FD_STEP
) -> SectionData:
    def a_fn(u):
        return family.value(u).real

    def b_fn(u):
        return family.value(u).imag

    g = family.value(point.u)
    da = np.array(
        [float(directional_derivative(a_fn, point.u, w, fd_step)) for w in point.velocities]
    )
    db = np.array(
        [float(directional_derivative(b_fn, point.u, w, fd_step)) for w in point.velocities]
    )
    return SectionData(a=float(g.real), b=float(g.imag), da=da, db=db)


def tangent_basis_e_sigma(
    point: AdaptedFramePoint, sec: SectionData, t1: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent basis (E_1, E_2, F_1) of the rank-one bundle twisted by sigma.

    Components are against (e_1, e_2, nu_3, nu_4, k_1, k_2, k_3); the fibre
    point is t1 f^1 + a f^2 + b f^3.
    """
    n = nabla_f_coeffs(point.gamma)
    es = []
    for i in range(2):
        vert = t1 * n[i, 0] + sec.a * n[i, 1] + sec.b * n[i, 2]
        vert = vert + np.array([0.0, sec.da[i], sec.db[i]])
        vec = np.zeros(7)
        vec[i] = 1.0
        vec[4:] = vert
        es.append(vec)
    f1 = np.zeros(7)
    f1[4] = 1.0
    return es[0], es[1], f1


def tangent_basis_eta_f(
    point: AdaptedFramePoint, gamma_val: float, dgamma: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tangent basis (E_1, E_2, F_2, F_3) of the rank-two bundle twisted by
    eta = gamma f^1; fibre point is t_2 f^2 + t_3 f^3 + eta."""
    n = nabla_f_coeffs(point.gamma)
    t = np.asarray(t, dtype=float)
    es = []
    for i in range(2):
        vert = t[0] * n[i, 1] + t[1] * n[i, 2] + gamma_val * n[i, 0]
        vert = vert + np.array([float(dgamma[i]), 0.0, 0.0])
        vec = np.zeros(7)
        vec[i] = 1.0
        vec[4:] = vert
        es.append(vec)
    f2 = np.zeros(7)
    f2[5] = 1.0
    f3 = np.zeros(7)
    f3[6] = 1.0
    return es[0], es[1], f2, f3


@lru_cache(maxsize=1)
def _unit_tensors() -> tuple[np.ndarray, np.ndarray]:
    """Dense unit-weight phi (7, 7, 7) and psi (7, 7, 7, 7), read-only."""
    out = (dense_tensor(phi_form(1.0, 1.0)), dense_tensor(psi_form(1.0, 1.0)))
    for t in out:
        t.flags.writeable = False
    return out


def _weights(profile: BSProfile, fiber) -> np.ndarray:
    """Diagonal of D at the fibre point: (u, u, u, u, v, v, v)."""
    u, v = profile.at(_fiber_radius(*fiber))
    return np.array([u, u, u, u, v, v, v])


def associative_residual(
    e1, e2, f1, profile: BSProfile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)
) -> float:
    """|E_2 ⌟ E_1 ⌟ F_1 ⌟ psi| with the displayed psi."""
    d = _weights(profile, fiber)
    psi = _unit_tensors()[1].reshape(7, -1)
    one_form = (d * np.asarray(f1, float)) @ psi
    one_form = (d * np.asarray(e1, float)) @ one_form.reshape(7, -1)
    one_form = (d * np.asarray(e2, float)) @ one_form.reshape(7, -1)
    return float(np.linalg.norm(d * one_form))


def coassociative_residual(
    e1, e2, f2, f3, profile: BSProfile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)
) -> float:
    """max |phi| over the four triples of the tangent basis (E_1, E_2, F_2, F_3)."""
    d = _weights(profile, fiber)
    vecs = d * np.array([e1, e2, f2, f3], dtype=float)
    # values[a, b, c] = phi(vecs[a], vecs[b], vecs[c])
    values = vecs @ (vecs @ _unit_tensors()[0].reshape(7, -1)).reshape(4, 7, 7) @ vecs.T
    return float(max(abs(values[a, b, c]) for a, b, c in itertools.combinations(range(4), 3)))


def dbar_f_residual(gamma: np.ndarray, sec: SectionData) -> tuple[float, float]:
    """Components of the antiholomorphic derivative of sigma over F.

    (a_1 - b_2 - p a + q b,  a_2 + b_1 - q a - p b) with
    p = Gamma^1_{22} - Gamma^3_{24} and q = Gamma^3_{14} - Gamma^1_{12}.
    """
    p = gamma[1, 1, 0] - gamma[1, 3, 2]
    q = gamma[0, 3, 2] - gamma[0, 1, 0]
    r2 = sec.da[0] - sec.db[1] - p * sec.a + q * sec.b
    r3 = sec.da[1] + sec.db[0] - q * sec.a - p * sec.b
    return float(r2), float(r3)


def parallel_e_residual(dgamma: np.ndarray) -> float:
    """|d gamma(e_1)| + |d gamma(e_2)|: the covariant derivative of eta over E
    reduces to the coefficient derivatives because nabla f^1 has no f^1 part."""
    return float(abs(dgamma[0]) + abs(dgamma[1]))
