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
D = diag(u, u, u, u, v, v, v, v).  The dense residuals contract one unit
tensor (``g2.unit_tensor`` of ``PHI_TABLE``) with D-scaled tangent vectors
and scale the free indices of the result by D; they are the tests' oracle.
The verify path reads both residuals in one pass from the 15 Plücker
coordinates of E_1 ^ E_2 on the base slots, with eta and Phi restricted to the
unit fibre slots s_1, s_2 (``lifted_cayley_residuals``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .octonion import left_mult_matrix, oct_mul, standard_pinor_context
from .submanifold import AdaptedFramePoint
from .g2 import (UNIT_PROFILE, SectionData, antisymmetrise, lifted_basis, outer_pairs, per_point,
                 plane_coords, scaled_rows, unit_tensor)
from .numerics import Profile, row_norms

__all__ = [
    "SpinorFrame",
    "spinor_frames",
    "spin_connection_ops",
    "nabla_gamma_ops",
    "lemma_residual",
    "tangent_basis_v_plus",
    "cayley_residual",
    "calibration_gap",
    "lifted_cayley_residuals",
    "dbar_vminus_residual",
    "phi_form",
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

    def components(self, spinor: np.ndarray) -> np.ndarray:
        """Coefficients of an S_- spinor (8,), or of a stack (..., 8), against
        (s_1, .., s_4)."""
        return np.asarray(spinor, dtype=float) @ self.s.T


def spinor_frames(s1=None) -> SpinorFrame:
    """Build (s_1, s_2, s_3, s_4) from a unit spinor s_1 in V_+, an (8,) array.

    Defaults to the first quaternion basis vector projected onto V_+, a frame
    built once per process and shared, with a read-only ``s``; any other
    gauge gives frames related by a rotation, and every reported quantity is
    checked to be gauge independent.
    """
    if s1 is None:
        return _default_spinor_frames()
    s1 = np.asarray(s1, dtype=float)
    s1 = _P_MINUS @ s1
    # keep the part where Gamma acts as j_L (left multiplication by e^1 e^2):
    # j_L^T Gamma is an involution on S_-, and (1 + j_L^T Gamma)/2 projects
    # onto its +1 eigenspace V_+
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
def _default_spinor_frames() -> SpinorFrame:
    frame = spinor_frames(np.eye(8)[0])
    frame.s.flags.writeable = False
    return frame


@lru_cache(maxsize=1)
def _jl_matrix() -> np.ndarray:
    """Left multiplication by the unit imaginary quaternion e^1 e^2."""
    jl = oct_mul(_CTX.embed[0], _CTX.embed[1])
    return left_mult_matrix(jl)


def spin_connection_ops(gamma: np.ndarray) -> np.ndarray:
    """omega_i = 1/4 sum_{k,l} Gamma^l_{ik} gamma^k gamma^l for i = 1, 2,
    as (2, 8, 8), or (..., 2, 8, 8) for a stack of ``gamma``.

    In the frame trivialisation a spinor field s(u) differentiates as
    nabla_{e_i} s = d s(e_i) + omega_i s.
    """
    g = np.asarray(gamma, dtype=float)[..., :2, :4, :4]
    lead = g.shape[:-2]
    return 0.25 * (g.reshape(lead + (16,)) @ _GG.reshape(16, 64)).reshape(lead + (8, 8))


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


# -- the Cayley form --------------------------------------------------------------

# Phi as a signed index table (0-based indices, sign); see g2.antisymmetrise
PHI_TABLE = (
    ((0, 1, 2, 3), 1), ((4, 5, 6, 7), 1),
    ((0, 1, 4, 5), -1), ((0, 1, 6, 7), -1), ((2, 3, 4, 5), -1), ((2, 3, 6, 7), -1),
    ((0, 2, 4, 6), -1), ((0, 2, 5, 7), 1), ((1, 3, 4, 6), 1), ((1, 3, 5, 7), -1),
    ((0, 3, 4, 7), -1), ((0, 3, 5, 6), -1), ((1, 2, 4, 7), -1), ((1, 2, 5, 6), -1),
)


def phi_form(u: float, v: float) -> np.ndarray:
    """Phi at weights (u, v) as a dense (8, 8, 8, 8) array."""
    return antisymmetrise(PHI_TABLE, 8, u, v)


# the slots of the unit fibre vectors (F_1, F_2) = (s_1, s_2) of the tangent
# basis, which tangent_basis_v_plus and lifted_cayley_residuals both read
CAYLEY_SLOTS = (4, 5)
# the pairs a < b of the base slots, from which an E's s_1, s_2 parts drop out, and i < j
BASE_PAIRS = tuple(np.take(np.delete(np.arange(8), CAYLEY_SLOTS), np.triu_indices(6, 1)))
_I, _J = np.triu_indices(8, 1)


def tangent_basis_v_plus(
    point: AdaptedFramePoint,
    frame: SpinorFrame,
    sec: SectionData,
    t,
) -> np.ndarray:
    """Tangent basis (E_1, E_2, F_1, F_2) of V_+ twisted by psi = a s_3 + b s_4,
    as the rows of a (..., 4, 8) array.

    Components are against (e_1, e_2, nu_3, nu_4, s_1, s_2, s_3, s_4); the
    fibre point is t_1 s_1 + t_2 s_2 + psi, and the vertical part of E_i is
    the spin-connection derivative of the fibre field.  ``t`` is (2,) or
    (F, 2), and the leading axes are those of the point (P,) followed by F.
    """
    t = np.asarray(t, dtype=float)
    fdim = t.ndim - 1
    s = frame.s
    omegas = per_point(spin_connection_ops(point.gamma), fdim, 3)
    a, b = (per_point(x, fdim)[..., None] for x in (sec.a, sec.b))
    fiber_spinor = t[..., 0, None] * s[0] + t[..., 1, None] * s[1] + a * s[2] + b * s[3]
    da, db = (per_point(x, fdim, 1)[..., None] for x in (sec.da, sec.db))
    vert_oct = da * s[2] + db * s[3] + (omegas @ fiber_spinor[..., None, :, None])[..., 0]
    return lifted_basis(frame.components(vert_oct), CAYLEY_SLOTS, 8)


# summand pair p of eta has head vector p and the cross product of the other
# three vectors taken in the order (_A[p], _B[p], _C[p])
_A, _B, _C = np.array([(1, 2, 3), (2, 0, 3), (0, 1, 3), (1, 0, 2)]).T


def _eta_rows(vecs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """eta of each row of D-scaled vectors ``vecs`` (N, 4, 8), with D (N, 8)."""
    phi = unit_tensor(PHI_TABLE, 8).reshape(64, 64)
    # Phi_1(a, b, ., .) as the bivector a (x) b against Phi, then c
    ab = (vecs[:, _A, :, None] * vecs[:, _B, None, :]).reshape(-1, 4, 64)
    cross = (ab @ phi).reshape(-1, 4, 8, 8)
    cross = (vecs[:, _C, None, :] @ cross).reshape(-1, 4, 8)
    # pairs[n, i, j] = sum_p t_p[i] h_p[j]
    pairs = np.swapaxes(cross, -1, -2) @ vecs
    eta = np.swapaxes(pairs, -1, -2) - pairs + (pairs.reshape(-1, 64) @ phi).reshape(pairs.shape)
    return d[:, :, None] * eta * d[:, None, :]


def cayley_eta(e1, e2, f1, f2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """The 2-form eta(E_1, E_2, F_1, F_2) as its (8, 8) antisymmetric
    coefficient matrix, evaluated termwise; (..., 8, 8) per leading index of
    the vectors (each (..., 8)) and of the fibre radius.

    Write h = D head and t = Phi_1(D a, D b, D c, .) with the unit Phi_1.
    The sharp of the cross product is X = D^-1 t, the flats of head and X
    are D h and D t, and Phi(X, head, ., .) = D Phi_1(t, h, ., .) D, so
    eta = D [sum (h ^ t) + Phi_1(t, h, ., .)] D.
    """
    vecs, d, lead = scaled_rows((e1, e2, f1, f2), profile, fiber_r)
    return _eta_rows(vecs, d).reshape(lead + (8, 8))


def cayley_residual(e1, e2, f1, f2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """Norm of eta over the basis 2-forms e^{ij}, i < j, per leading index."""
    eta = cayley_eta(e1, e2, f1, f2, profile, fiber_r)
    return (row_norms(eta.reshape(eta.shape[:-2] + (64,))) / np.sqrt(2.0))[()]


def calibration_gap(e1, e2, f1, f2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """| |Phi(E_1, E_2, F_1, F_2)| - vol(E_1, E_2, F_1, F_2) | (metric volume),
    per leading index of the vectors and of the fibre radius."""
    vecs, _, lead = scaled_rows((e1, e2, f1, f2), profile, fiber_r)
    val = (outer_pairs(vecs) @ unit_tensor(PHI_TABLE, 8).reshape(64, 64)).reshape(-1, 8, 8)
    phi_val = (vecs[:, 2, None, :] @ val @ vecs[:, 3, :, None])[:, 0, 0]
    vol = np.sqrt(np.maximum(np.linalg.det(vecs @ np.swapaxes(vecs, -1, -2)), 0.0))
    return np.abs(np.abs(phi_val) - vol).reshape(lead)[()]


@lru_cache(maxsize=None)
def cayley_kernel(on_pairs: bool = False) -> np.ndarray:
    """K[8 a + b, 8 i + j] = eta_1(e_a, e_b, s_1, s_2)[i, j], read-only: _eta_rows
    on the 64 basis pairs, built once; its entries are exact, in {-2, 0, 2}.
    ``on_pairs`` keeps its 15 x 28 block from BASE_PAIRS to the pairs i < j."""
    eye = np.eye(8)
    rows = np.broadcast_arrays(eye[:, None], eye[None, :], *(eye[i] for i in CAYLEY_SLOTS))
    out = _eta_rows(np.stack(rows, axis=2).reshape(64, 4, 8), np.ones((64, 8))).reshape(64, 64)
    out = out.reshape(8, 8, 8, 8)[BASE_PAIRS][:, _I, _J] if on_pairs else out
    out.flags.writeable = False
    return out


def lifted_cayley_residuals(e1, e2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """(``cayley_residual``, ``calibration_gap``) with (F_1, F_2) the unit (s_1, s_2), in one
    pass over the Plücker coordinates c of D-scaled E_1 ^ E_2 on BASE_PAIRS: eta_ij =
    v^2 d_i d_j (c K)_ij, Phi = v^2 c . Phi_1(., ., s_1, s_2) and vol = v^2 |c|."""
    vecs, d, lead = scaled_rows((e1, e2), profile, fiber_r)
    s, t = CAYLEY_SLOTS
    eta_table, phi = cayley_kernel(on_pairs=True), unit_tensor(PHI_TABLE, 8)[(*BASE_PAIRS, s, t)]
    c = plane_coords(vecs, BASE_PAIRS)
    eta = row_norms(d[:, _I] * d[:, _J] * (c @ eta_table))
    gap = np.abs(np.abs(c @ phi) - np.sqrt(np.sum(c * c, axis=-1)))
    w = d[:, s] ** 2
    return (w * eta).reshape(lead)[()], (w * gap).reshape(lead)[()]


def dbar_vminus_residual(gamma: np.ndarray, frame: SpinorFrame, sec: SectionData):
    """Components (against s_3, s_4) of the antiholomorphic derivative of psi,
    per leading index of ``gamma`` and ``sec``.

    The complex structure on V_- is J_- = -Gamma; the V_- part of the spin
    connection supplies the frame-correction terms away from normal centres.
    """
    s = frame.s
    omegas = spin_connection_ops(gamma)
    a, b = (np.asarray(x, dtype=float)[..., None] for x in (sec.a, sec.b))
    psi_oct = a * s[2] + b * s[3]
    da, db = (np.asarray(x, dtype=float)[..., None] for x in (sec.da, sec.db))
    full = da * s[2] + db * s[3] + (omegas @ psi_oct[..., None, :, None])[..., 0]
    comps = frame.components(full)
    # V_- parts of the two derivatives
    grads = comps[..., 2, None] * s[2] + comps[..., 3, None] * s[3]
    j_minus = -_GAMMA_OP
    comps = frame.components(grads[..., 0, :] + grads[..., 1, :] @ j_minus.T)
    return comps[..., 2][()], comps[..., 3][()]
