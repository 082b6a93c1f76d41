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

The spin connection preserves S_-, so the tangent bases and the dbar criterion
work in (s_1, .., s_4) components, through one (2, 4, 4) table linear in Gamma
(``SpinorFrame.connection``); in every gauge J_- = -Gamma has the matrix
[[0, 1], [-1, 0]] on (s_3, s_4), applied as its transpose to rows (``_J_MINUS``).

The total tangent space at a bundle point is modelled on an 8-dim space with
ordered basis (e_1, e_2, nu_3, nu_4, s_1, s_2, s_3, s_4); the metric weights
are u^2 on the horizontal and v^2 on the vertical block, and the 4-form

    Phi = u^4 e_1234
          - u^2 v^2 [(e_12 + e_34)(s_12 + s_34) + (e_13 - e_24)(s_13 - s_24)
                     + (e_14 + e_23)(s_14 + s_23)]
          + v^4 s_1234

is the calibration, derived from ``g2.PHI_TABLE`` (``cayley_table``) as e^0 ^ phi - psi
(Harvey and Lawson, Acta Math. 148 (1982), Ch. IV).  The Cayley test evaluates, termwise,
the octonion-free characterisation: the 2-form-valued expression

    eta(u,v,w,y) = u^b ^ X(v,w,y)^b + v^b ^ X(w,u,y)^b + w^b ^ X(u,v,y)^b
                   + y^b ^ X(v,u,w)^b + u . X(v,w,y) . Phi + v . X(w,u,y) . Phi
                   + w . X(u,v,y) . Phi + y . X(v,u,w) . Phi

with X(a,b,c) the metric-sharp of c . b . a . Phi, which vanishes exactly on
Cayley 4-planes.

Every monomial of Phi with h horizontal indices carries u^h v^(4-h), so Phi
at weights (u, v) is the unit-weight Phi pulled back by
D = diag(u, u, u, u, v, v, v, v).  The dense residuals, the tests' oracle,
contract one unit tensor (``g2.unit_tensor`` of ``PHI_TABLE``) with D-scaled
(..., 4, 8) rows over their leading axes and scale the free indices by D.  The
verify path takes the basis's first two rows, the plane E_1 ^ E_2, and reads
both residuals in one pass from its 15 Plücker coordinates on the base slots,
with eta and Phi restricted to the unit fibre slots s_1, s_2 (``lifted_cayley_residuals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import g2
from .errors import DomainError
from .octonion import left_mult_matrix, oct_mul, standard_pinor_context
from .submanifold import AdaptedFramePoint
from .g2 import (UNIT_PROFILE, SectionData, antisymmetrise, frame_table, hodge_star, lifted_basis,
                 outer_pairs, parity, per_point, plane_coords, scaled_rows, unit_tensor)
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
_J_MINUS = np.array([[0.0, -1.0], [1.0, 0.0]])  # J_- = -Gamma on (s_3, s_4) components, as a right factor


def gamma_f_matrix(k: int) -> np.ndarray:
    """gamma(f^k) for the self-dual basis 2-forms (1-based k)."""
    return _GF[k - 1]


@dataclass(frozen=True)
class SpinorFrame:
    """Orthonormal spinor frames of V_+ and V_- generated by a gauge choice."""

    s: np.ndarray  # (4, 8) rows s_1..s_4

    @cached_property
    def _table(self) -> np.ndarray:
        """T[k, l, j, m] = 1/4 s_j . gamma^k gamma^l s_m, built once per frame and read-only."""
        out = 0.25 * np.einsum("ja,klab,mb->kljm", self.s, _GG, self.s)
        out.flags.writeable = False
        return out

    def connection(self, gamma: np.ndarray) -> np.ndarray:
        """The spin connection in s-components, [..., i, j, m] = s_j . omega_i s_m, as
        (2, 4, 4), or (..., 2, 4, 4) for a stack of ``gamma``; see ``spin_connection_ops``."""
        return frame_table(gamma, self._table)


def spinor_frames(s1=None) -> SpinorFrame:
    """Build (s_1, s_2, s_3, s_4) from a unit spinor s_1 in V_+, an (8,) array.

    Defaults to the first quaternion basis vector projected onto V_+, a frame
    built once per process and shared, with a read-only ``s``; any other
    gauge gives frames related by a rotation, and every reported quantity is
    checked to be gauge independent.
    """
    if s1 is None:
        return _default_spinor_frames()
    s1 = _P_MINUS @ np.asarray(s1, dtype=float)
    # keep the part where Gamma acts as j_L (left multiplication by e^1 e^2):
    # j_L^T Gamma is an involution on S_-, and (1 + j_L^T Gamma)/2 projects
    # onto its +1 eigenspace V_+
    jl = _jl_matrix()
    plus = 0.5 * (s1 + jl.T @ (_GAMMA_OP @ s1))
    nrm = np.linalg.norm(plus)
    if nrm < 1e-12:
        raise DomainError("gauge spinor has no component in V_+")
    s1 = plus / nrm
    return SpinorFrame(s=np.vstack([s1, *(0.25 * (gf @ s1) for gf in _GF)]))


@lru_cache(maxsize=1)
def _default_spinor_frames() -> SpinorFrame:
    frame = spinor_frames(np.eye(8)[0])
    frame.s.flags.writeable = False
    return frame


@lru_cache(maxsize=1)
def _jl_matrix() -> np.ndarray:
    """Left multiplication by the unit imaginary quaternion e^1 e^2."""
    return left_mult_matrix(oct_mul(_CTX.embed[0], _CTX.embed[1]))


def spin_connection_ops(gamma: np.ndarray) -> np.ndarray:
    """omega_i = 1/4 sum_{k,l} Gamma^l_{ik} gamma^k gamma^l for i = 1, 2,
    as (2, 8, 8), or (..., 2, 8, 8) for a stack of ``gamma``.

    In the frame trivialisation a spinor field s(u) differentiates as
    nabla_{e_i} s = d s(e_i) + omega_i s.
    """
    return 0.25 * frame_table(gamma, _GG)


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
    lhs = spin_connection_ops(gamma) @ spinor
    rhs = -0.5 * bundle_sign * (nabla_gamma_ops(gamma) @ spinor) @ _jl_matrix().T
    return float(np.sum(np.linalg.norm(lhs - rhs, axis=-1)))


# -- the Cayley form --------------------------------------------------------------

G2_SLOTS = (1, 2, 4, 7, 3, 5, 6)
G2_SIGNS = (1, 1, 1, 1, 1, -1, 1)


def cayley_table(phi):
    """Phi = theta + *theta with theta = e^0 ^ phi, as a signed index table of R^8, from the table
    of g2's phi: e^0 is slot 0, and g2 slot k is slot G2_SLOTS[k] with the sign G2_SIGNS[k].  This
    map reverses the orientation of R^7, so *theta is -psi and Phi = e^0 ^ phi - psi."""
    theta = []
    for idx, sign in phi:
        image = [G2_SLOTS[i] for i in idx]
        theta.append(((0, *sorted(image)), sign * parity(np.argsort(image)) * math.prod(G2_SIGNS[i] for i in idx)))
    return tuple(theta) + hodge_star(theta, 8)


PHI_TABLE = cayley_table(g2.PHI_TABLE)


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
    conn = per_point(frame.connection(point.gamma), fdim, 3)
    # in s-components: (0, 0, da_i, db_i) + omega_i (t_1, t_2, a, b)
    psi = per_point(np.stack([sec.a, sec.b], axis=-1), fdim, 1)
    fiber = np.concatenate(np.broadcast_arrays(t, psi), axis=-1)
    vert = (conn @ fiber[..., None, :, None])[..., 0]
    vert[..., 2:] += per_point(np.stack([sec.da, sec.db], axis=-1), fdim, 2)
    return lifted_basis(vert, CAYLEY_SLOTS, 8)


# summand pair p of eta has head vector p and the cross product of the other
# three vectors taken in the order (_A[p], _B[p], _C[p])
_A, _B, _C = np.array([(1, 2, 3), (2, 0, 3), (0, 1, 3), (1, 0, 2)]).T


def _eta_rows(vecs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """eta of each row of D-scaled vectors ``vecs`` (..., 4, 8), with D (..., 8)."""
    phi = unit_tensor(PHI_TABLE, 8).reshape(64, 64)
    # Phi_1(a, b, ., .) as the bivector a (x) b against Phi, then c
    ab = (vecs[..., _A, :, None] * vecs[..., _B, None, :]).reshape(vecs.shape[:-1] + (64,))
    cross = (vecs[..., _C, None, :] @ (ab @ phi).reshape(vecs.shape + (8,)))[..., 0, :]
    # pairs[..., i, j] = sum_p t_p[i] h_p[j]
    pairs = np.swapaxes(cross, -1, -2) @ vecs
    eta = np.swapaxes(pairs, -1, -2) - pairs + (pairs.reshape(pairs.shape[:-2] + (64,)) @ phi).reshape(pairs.shape)
    return d[..., :, None] * eta * d[..., None, :]


def cayley_eta(e1, e2, f1, f2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """The 2-form eta(E_1, E_2, F_1, F_2) as its (8, 8) antisymmetric
    coefficient matrix, evaluated termwise; (..., 8, 8) per leading index of
    the vectors (each (..., 8)) and of the fibre radius.

    Write h = D head and t = Phi_1(D a, D b, D c, .) with the unit Phi_1.
    The sharp of the cross product is X = D^-1 t, the flats of head and X
    are D h and D t, and Phi(X, head, ., .) = D Phi_1(t, h, ., .) D, so
    eta = D [sum (h ^ t) + Phi_1(t, h, ., .)] D.
    """
    return _eta_rows(*scaled_rows(np.stack(np.broadcast_arrays(e1, e2, f1, f2), axis=-2), profile, fiber_r))


def cayley_residual(e1, e2, f1, f2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """Norm of eta over the basis 2-forms e^{ij}, i < j, per leading index."""
    eta = cayley_eta(e1, e2, f1, f2, profile, fiber_r)
    return (row_norms(eta.reshape(eta.shape[:-2] + (64,))) / np.sqrt(2.0))[()]


def calibration_gap(e1, e2, f1, f2, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """| |Phi(E_1, E_2, F_1, F_2)| - vol(E_1, E_2, F_1, F_2) | (metric volume),
    per leading index of the vectors and of the fibre radius."""
    vecs, _ = scaled_rows(np.stack(np.broadcast_arrays(e1, e2, f1, f2), axis=-2), profile, fiber_r)
    val = (outer_pairs(vecs) @ unit_tensor(PHI_TABLE, 8).reshape(64, 64)).reshape(vecs.shape[:-2] + (8, 8))
    phi_val = (vecs[..., 2, None, :] @ val @ vecs[..., 3, :, None])[..., 0, 0]
    vol = np.sqrt(np.maximum(np.linalg.det(vecs @ np.swapaxes(vecs, -1, -2)), 0.0))
    return np.abs(np.abs(phi_val) - vol)[()]


@lru_cache(maxsize=None)
def cayley_kernel() -> np.ndarray:
    """K[8 a + b, 8 i + j] = eta_1(e_a, e_b, s_1, s_2)[i, j], read-only: _eta_rows
    on the 64 basis pairs, built once; its entries are exact, in {-2, 0, 2}."""
    eye = np.eye(8)
    rows = np.broadcast_arrays(eye[:, None], eye[None, :], *(eye[i] for i in CAYLEY_SLOTS))
    out = _eta_rows(np.stack(rows, axis=2).reshape(64, 4, 8), np.ones((64, 8))).reshape(64, 64)
    out.flags.writeable = False
    return out


def lifted_cayley_residuals(plane, profile: Profile = UNIT_PROFILE, fiber_r=0.0):
    """(``cayley_residual``, ``calibration_gap``) with (F_1, F_2) the unit (s_1, s_2) and
    (E_1, E_2) the rows of ``plane`` (..., 2, 8), in one pass over the Plücker coordinates c
    of D-scaled E_1 ^ E_2 on BASE_PAIRS: eta_ij = v^2 d_i d_j (c K)_ij,
    Phi = v^2 c . Phi_1(., ., s_1, s_2) and vol = v^2 |c|."""
    vecs, d = scaled_rows(plane, profile, fiber_r)
    s, t = CAYLEY_SLOTS
    eta_table, phi = cayley_kernel().reshape(8, 8, 8, 8)[BASE_PAIRS], unit_tensor(PHI_TABLE, 8)[(*BASE_PAIRS, s, t)]
    c = plane_coords(vecs, BASE_PAIRS)
    eta = row_norms(d[..., _I] * d[..., _J] * (c @ eta_table[:, _I, _J]))
    gap = np.abs(np.abs(c @ phi) - np.sqrt(np.sum(c * c, axis=-1)))
    w = d[..., s] ** 2
    return (w * eta)[()], (w * gap)[()]


def dbar_vminus_residual(gamma: np.ndarray, frame: SpinorFrame, sec: SectionData):
    """Components (against s_3, s_4) of the antiholomorphic derivative of psi,
    per leading index of ``gamma`` and ``sec``.

    The complex structure on V_- is J_- = -Gamma; the V_- part of the spin
    connection supplies the frame-correction terms away from normal centres.
    """
    # the V_- parts of (0, 0, da_i, db_i) + omega_i (0, 0, a, b) in s-components
    psi = np.stack(np.broadcast_arrays(0.0, 0.0, sec.a, sec.b), axis=-1)
    grads = (frame.connection(gamma) @ psi[..., None, :, None])[..., 2:, 0] + np.stack([sec.da, sec.db], axis=-1)
    comps = grads[..., 0, :] + grads[..., 1, :] @ _J_MINUS
    return comps[..., 0][()], comps[..., 1][()]
