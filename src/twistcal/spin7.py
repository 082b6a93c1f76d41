"""Twisted Cayley subbundles of the negative spinor bundle over a surface in S^4.

Spinors are trivialised along a chart by the adapted frame: the coframe
embeds into He (see :mod:`twistcal.octonion`), the negative eigenspace of
the volume operator is the quaternion slot, and

    Gamma = gamma(e^1)gamma(e^2) = gamma(nu^3)gamma(nu^4)   on S_-

is the canonical complex operator there, independent of the frame choice.
A unit spinor s_1 in the +Gamma eigenplane V_+ generates the orthonormal
frames {s_1, s_2 = 1/4 gamma(f^1) s_1} of V_+ and {s_3 = 1/4 gamma(f^2) s_1,
s_4 = 1/4 gamma(f^3) s_1} of V_-, built from the self-dual 2-forms

    f^1 = e^1^e^2 + nu^3^nu^4,  f^2 = e^1^nu^3 - e^2^nu^4,
    f^3 = e^1^nu^4 + e^2^nu^3.

The total tangent space at a bundle point is modelled on an 8-dim space with
ordered basis (e_1, e_2, nu_3, nu_4, s_1, s_2, s_3, s_4); the metric weights
are u^2 on the horizontal and v^2 on the vertical block, and the 4-form

    Phi = u^4 e_1234
          - u^2 v^2 [(e_12 + e_34)(s_12 + s_34) + (e_13 - e_24)(s_13 - s_24)
                     + (e_14 + e_23)(s_14 + s_23)]
          + v^4 s_1234

is the calibration.  The Cayley test evaluates, termwise, the octonion-free
characterisation: the 2-form-valued expression

    eta(u,v,w,y) = u^b ^ X(v,w,y)^b + v^b ^ X(w,u,y)^b + w^b ^ X(u,v,y)^b
                   + y^b ^ X(v,u,w)^b + u . X(v,w,y) . Phi + v . X(w,u,y) . Phi
                   + w . X(u,v,y) . Phi + y . X(v,u,w) . Phi

with X(a,b,c) the metric-sharp of c . b . a . Phi, which vanishes exactly on
Cayley 4-planes.

Every monomial of Phi with h horizontal indices carries u^h v^(4-h), so Phi
at weights (u, v) is the unit-weight Phi pulled back by
D = diag(u, u, u, u, v, v, v, v).  The residuals contract one dense unit
tensor, built once from ``phi_form(1, 1)``, with D-scaled tangent vectors and
scale the free indices of the result by D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .exterior import InnerSpace, Multivector, dense_tensor, wedge
from .octonion import Octonion, standard_pinor_context
from .submanifold import AdaptedFramePoint
from .g2 import BSProfile, UNIT_PROFILE, SectionData

__all__ = [
    "SpinorFrame",
    "spinor_frames",
    "spin_connection_ops",
    "nabla_gamma_ops",
    "lemma_residual",
    "tangent_basis_v_plus",
    "cayley_residual",
    "calibration_gap",
    "dbar_vminus_residual",
    "phi_form",
    "total_space",
]

_CTX = standard_pinor_context()

# gamma matrices of the embedded coframe and of the self-dual 2-forms
_G = _CTX.gammas
_GF = (
    2.0 * (_G[0] @ _G[1]) + 2.0 * (_G[2] @ _G[3]),
    2.0 * (_G[0] @ _G[2]) - 2.0 * (_G[1] @ _G[3]),
    2.0 * (_G[0] @ _G[3]) + 2.0 * (_G[1] @ _G[2]),
)
_GG = np.array([[gk @ gl for gl in _G] for gk in _G])  # _GG[k, l] = gamma^k gamma^l
_GAMMA_OP = _G[0] @ _G[1]  # = gamma(nu^3)gamma(nu^4) on S_-
_P_MINUS = _CTX.projectors()[1]


def gamma_f_matrix(k: int) -> np.ndarray:
    """gamma(f^k) for the self-dual basis 2-forms (1-based k)."""
    return _GF[k - 1]


@dataclass(frozen=True)
class SpinorFrame:
    """Orthonormal spinor frames of V_+ and V_- generated by a gauge choice."""

    s: np.ndarray  # (4, 8) rows s_1..s_4

    @property
    def v_plus(self) -> np.ndarray:
        return self.s[:2]

    @property
    def v_minus(self) -> np.ndarray:
        return self.s[2:]

    def components(self, spinor: np.ndarray) -> np.ndarray:
        """Coefficients of an S_- spinor against (s_1, .., s_4)."""
        return self.s @ np.asarray(spinor, dtype=float)


def spinor_frames(s1=None) -> SpinorFrame:
    """Build (s_1, s_2, s_3, s_4) from a unit spinor s_1 in V_+.

    Defaults to the first quaternion basis vector projected onto V_+; any
    other gauge gives frames related by a rotation, and every reported
    quantity is checked to be gauge independent.
    """
    if s1 is None:
        s1 = np.zeros(8)
        s1[0] = 1.0
    elif isinstance(s1, Octonion):
        s1 = s1.coeffs
    s1 = np.asarray(s1, dtype=float)
    s1 = _P_MINUS @ s1
    # keep only the +Gamma part: P = (1 - Gamma_op Gamma_op ... ) use j_L
    jl = _jl_matrix()
    plus = 0.5 * (s1 + jl.T @ (_GAMMA_OP @ s1))
    nrm = np.linalg.norm(plus)
    if nrm < 1e-12:
        raise DomainError("gauge spinor has no component in V_+")
    s1 = plus / nrm
    s2 = 0.25 * (_GF[0] @ s1)
    s3 = 0.25 * (_GF[1] @ s1)
    s4 = 0.25 * (_GF[2] @ s1)
    return SpinorFrame(s=np.vstack([s1, s2, s3, s4]))


@lru_cache(maxsize=1)
def _jl_matrix() -> np.ndarray:
    """Left multiplication by the unit imaginary quaternion e^1 e^2."""
    from .octonion import left_mult_matrix, oct_mul

    jl = oct_mul(_CTX.embed[0], _CTX.embed[1])
    return left_mult_matrix(jl)


def spin_connection_ops(gamma: np.ndarray) -> np.ndarray:
    """omega_i = 1/4 sum_{k,l} Gamma^l_{ik} gamma^k gamma^l for i = 1, 2.

    In the frame trivialisation a spinor field s(u) differentiates as
    nabla_{e_i} s = d s(e_i) + omega_i s.
    """
    return 0.25 * np.einsum("ikl,klac->iac", gamma[:2, :4, :4], _GG)


def nabla_gamma_ops(gamma: np.ndarray) -> np.ndarray:
    """nabla_{e_i} Gamma = gamma(nabla e^1) gamma(e^2) + gamma(e^1) gamma(nabla e^2)."""
    return np.einsum("im,mac->iac", gamma[:2, 0, :4], _GG[:, 1]) + np.einsum(
        "im,mac->iac", gamma[:2, 1, :4], _GG[0]
    )


def lemma_residual(gamma: np.ndarray, spinor: np.ndarray, bundle_sign: int) -> float:
    """| nabla_{e_i} s +- 1/2 j_L (nabla_{e_i} Gamma) s | summed over i.

    ``bundle_sign`` is +1 for sections of V_+ (where the identity reads
    nabla s = -1/2 j_L (nabla Gamma) s) and -1 for V_-.  The identity holds
    for constant-coefficient sections at normal-frame centres.
    """
    if bundle_sign not in (+1, -1):
        raise DomainError("bundle_sign must be +1 or -1")
    omegas = spin_connection_ops(gamma)
    ngs = nabla_gamma_ops(gamma)
    jl = _jl_matrix()
    total = 0.0
    for i in range(2):
        lhs = omegas[i] @ spinor
        rhs = -0.5 * bundle_sign * (jl @ (ngs[i] @ spinor))
        total += float(np.linalg.norm(lhs - rhs))
    return total


# -- total-space model ---------------------------------------------------------


@lru_cache(maxsize=1)
def total_space() -> InnerSpace:
    return InnerSpace(8)


# pairings (a_k, b_k) of {12, 34}, {13, 24}, {14, 23} and their signs eps_k
_PAIRINGS = (((1, 2), (3, 4), 1.0), ((1, 3), (2, 4), -1.0), ((1, 4), (2, 3), 1.0))


def _mixed_block(space: InnerSpace) -> Multivector:
    """sum_k (e_{a_k} + eps_k e_{b_k}) ^ (s_{a_k} + eps_k s_{b_k})."""
    m = space.monomial
    out = space.zero()
    for a, b, sign in _PAIRINGS:
        h = m(a) + sign * m(b)
        vert = m(tuple(i + 4 for i in a)) + sign * m(tuple(i + 4 for i in b))
        out = out + wedge(h, vert)
    return out


def phi_form(u: float, v: float, space: InnerSpace | None = None) -> Multivector:
    space = space or total_space()
    m = space.monomial
    u2v2 = u * u * v * v
    out = u**4 * m((1, 2, 3, 4)) + v**4 * m((5, 6, 7, 8))
    return out - u2v2 * _mixed_block(space)


@lru_cache(maxsize=1)
def _unit_phi() -> np.ndarray:
    """Dense unit-weight Phi of shape (8, 8, 8, 8), read-only."""
    out = dense_tensor(phi_form(1.0, 1.0))
    out.flags.writeable = False
    return out


def _weights(profile: BSProfile, fiber_r: float) -> np.ndarray:
    """Diagonal of D: Phi at weights (u, v) is the unit Phi pulled back by D."""
    u, v = profile.at(fiber_r)
    return np.array([u, u, u, u, v, v, v, v])


def tangent_basis_v_plus(
    point: AdaptedFramePoint,
    frame: SpinorFrame,
    sec: SectionData,
    t,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tangent basis (E_1, E_2, F_1, F_2) of V_+ twisted by psi = a s_3 + b s_4.

    Components are against (e_1, e_2, nu_3, nu_4, s_1, s_2, s_3, s_4); the
    fibre point is t_1 s_1 + t_2 s_2 + psi, and the vertical part of E_i is
    the spin-connection derivative of the fibre field.
    """
    t = np.asarray(t, dtype=float)
    omegas = spin_connection_ops(point.gamma)
    fiber_spinor = (
        t[0] * frame.s[0] + t[1] * frame.s[1] + sec.a * frame.s[2] + sec.b * frame.s[3]
    )
    es = []
    for i in range(2):
        vert_oct = (
            sec.da[i] * frame.s[2]
            + sec.db[i] * frame.s[3]
            + omegas[i] @ fiber_spinor
        )
        vec = np.zeros(8)
        vec[i] = 1.0
        vec[4:] = frame.components(vert_oct)
        es.append(vec)
    f1 = np.zeros(8)
    f1[4 + 0] = 1.0
    f2 = np.zeros(8)
    f2[4 + 1] = 1.0
    return es[0], es[1], f1, f2


# summand pair p of eta has head vector p and the cross product of the other
# three vectors taken in the order (_A[p], _B[p], _C[p])
_A, _B, _C = np.array([(1, 2, 3), (2, 0, 3), (0, 1, 3), (1, 0, 2)]).T


def cayley_eta(e1, e2, f1, f2, profile: BSProfile = UNIT_PROFILE, fiber_r: float = 0.0):
    """The 2-form eta(E_1, E_2, F_1, F_2) as its (8, 8) antisymmetric
    coefficient matrix, evaluated termwise.

    Write h = D head and t = Phi_1(D a, D b, D c, .) with the unit Phi_1.
    The sharp of the cross product is X = D^-1 t, the flats of head and X
    are D h and D t, and Phi(X, head, ., .) = D Phi_1(t, h, ., .) D, so
    eta = D [sum (h ^ t) + Phi_1(t, h, ., .)] D.
    """
    d = _weights(profile, fiber_r)
    vecs = d * np.array([e1, e2, f1, f2], dtype=float)
    phi = _unit_phi()
    cross = (vecs[_A] @ phi.reshape(8, -1)).reshape(4, 8, 64)
    cross = (vecs[_B, None, :] @ cross).reshape(4, 8, 8)
    cross = (vecs[_C, None, :] @ cross).reshape(4, 8)
    # pairs[i, j] = sum_p t_p[i] h_p[j]
    pairs = cross.T @ vecs
    eta = pairs.T - pairs + (pairs.reshape(64) @ phi.reshape(64, 64)).reshape(8, 8)
    return d[:, None] * eta * d[None, :]


def cayley_residual(
    e1, e2, f1, f2, profile: BSProfile = UNIT_PROFILE, fiber_r: float = 0.0
) -> float:
    """Norm of eta over the basis 2-forms e^{ij}, i < j."""
    eta = cayley_eta(e1, e2, f1, f2, profile, fiber_r)
    return float(np.linalg.norm(eta) / np.sqrt(2.0))


def calibration_gap(
    e1, e2, f1, f2, profile: BSProfile = UNIT_PROFILE, fiber_r: float = 0.0
) -> float:
    """| |Phi(E_1, E_2, F_1, F_2)| - vol(E_1, E_2, F_1, F_2) | (metric volume)."""
    d = _weights(profile, fiber_r)
    vecs = d * np.array([e1, e2, f1, f2], dtype=float)
    val = _unit_phi()
    for w in vecs:
        val = w @ val.reshape(8, -1)
    phi_val = float(val[0])
    vol = float(np.sqrt(max(np.linalg.det(vecs @ vecs.T), 0.0)))
    return abs(abs(phi_val) - vol)


def dbar_vminus_residual(
    gamma: np.ndarray, frame: SpinorFrame, sec: SectionData
) -> tuple[float, float]:
    """Components (against s_3, s_4) of the antiholomorphic derivative of psi.

    The complex structure on V_- is J_- = -Gamma; the V_- part of the spin
    connection supplies the frame-correction terms away from normal centres.
    """
    omegas = spin_connection_ops(gamma)
    psi_oct = sec.a * frame.s[2] + sec.b * frame.s[3]

    def vminus_part(spinor):
        comps = frame.components(spinor)
        return comps[2] * frame.s[2] + comps[3] * frame.s[3]

    grads = []
    for i in range(2):
        full = sec.da[i] * frame.s[2] + sec.db[i] * frame.s[3] + omegas[i] @ psi_oct
        grads.append(vminus_part(full))
    j_minus = -_GAMMA_OP
    total = grads[0] + j_minus @ grads[1]
    comps = frame.components(total)
    return float(comps[2]), float(comps[3])
