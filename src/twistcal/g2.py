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
D = diag(u, u, u, u, v, v, v).  The dense residuals, the tests' oracle,
contract the unit tensors (``unit_tensor``, built once per table) with D-scaled
tangent vectors and scale any free index of the result by D.  The verify path's
``lifted_*`` residuals read the fibre vectors F_j at their fixed unit slots
(``*_SLOTS``), so a form meets E_1 and E_2 only in the Plücker coordinates c_ab,
a < b, of D-scaled E_1 ^ E_2 (Harvey and Lawson, Acta Math. 148 (1982)), one
(rows, 21) array a call, against the exact 21 x 7 psi and 21 x 2 phi tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .numerics import Profile, row_norms
from .submanifold import AdaptedFramePoint

__all__ = [
    "UNIT_PROFILE",
    "nabla_f_coeffs",
    "phi_form",
    "psi_form",
    "tangent_basis_e_sigma",
    "tangent_basis_eta_f",
    "associative_residual",
    "coassociative_residual",
    "lifted_associative_residual",
    "lifted_coassociative_residual",
    "dbar_f_residual",
    "parallel_e_residual",
    "section_data",
]

UNIT_PROFILE = Profile(1.0, 1.0)

# the slots of the unit fibre vectors F_1 = k_1 and (F_2, F_3) = (k_2, k_3),
# which each tangent basis and its lifted residual both read
ASSOCIATIVE_SLOTS = (4,)
COASSOCIATIVE_SLOTS = (5, 6)
PAIRS = np.triu_indices(7, 1)  # the pairs a < b of the Plücker coordinates of a 7-dim plane


# N[j, k, m] = sum_ab _NABLA_F[k, m, a, b] Gamma[j, a, b], antisymmetric in k, m
_NABLA_F = np.zeros((3, 3, 4, 4))
for _k, _m, _a, _b, _sign in (
    (0, 1, 3, 0, 1.0), (0, 1, 2, 1, -1.0),
    (0, 2, 2, 0, -1.0), (0, 2, 3, 1, -1.0),
    (1, 2, 1, 0, 1.0), (1, 2, 3, 2, -1.0),
):
    _NABLA_F[_k, _m, _a, _b] = _sign
    _NABLA_F[_m, _k, _a, _b] = -_sign


def nabla_f_coeffs(gamma: np.ndarray) -> np.ndarray:
    """Coefficients N[j, k, m] with nabla_{e_j} f^k = sum_m N[j, k, m] f^m.

    ``gamma`` is (2, 4, 4) or a stack (..., 2, 4, 4); the result is
    (..., 2, 3, 3).  Valid in any adapted orthonormal frame; at a
    normal-frame centre the entries reduce to shape-operator combinations.
    """
    g = np.asarray(gamma, dtype=float)[..., :2, :4, :4]
    lead = g.shape[:-2]
    return (g.reshape(lead + (16,)) @ _NABLA_F.reshape(9, 16).T).reshape(lead + (3, 3))


# The forms as signed index tables: rows (0-based indices, sign) of the
# displayed monomials, each carrying u^h v^(k-h) for h indices below 4.
PHI_TABLE = (
    ((4, 5, 6), 1), ((0, 1, 4), 1), ((2, 3, 4), -1), ((0, 2, 5), 1),
    ((1, 3, 5), 1), ((0, 3, 6), 1), ((1, 2, 6), -1),
)
PSI_TABLE = (
    ((0, 1, 2, 3), 1), ((0, 1, 5, 6), -1), ((2, 3, 5, 6), 1), ((0, 2, 4, 6), 1),
    ((1, 3, 4, 6), 1), ((0, 3, 4, 5), -1), ((1, 2, 4, 5), 1),
)


def antisymmetrise(table, dim: int, u: float, v: float) -> np.ndarray:
    """The form of a signed index table at weights (u, v) as a fully
    antisymmetric (dim,)*k array: T[i_1, .., i_k] is its value on
    (e_{i_1+1}, .., e_{i_k+1})."""
    k = len(table[0][0])
    perms = list(itertools.permutations(range(k)))
    odd = [sum(p > q for p, q in itertools.combinations(perm, 2)) & 1 for perm in perms]
    out = np.zeros((dim,) * k)
    for idx, sign in table:
        h = sum(i < 4 for i in idx)
        w = sign * u**h * v ** (k - h)
        for perm, flip in zip(perms, odd):
            out[tuple(idx[p] for p in perm)] = -w if flip else w
    return out


@lru_cache(maxsize=None)
def unit_tensor(table, dim: int, on_pairs: bool = False) -> np.ndarray:
    """The unit-weight dense tensor of a signed index table, built once per
    table and read-only; ``on_pairs`` keeps its first two slots at the pairs a < b only."""
    out = antisymmetrise(table, dim, 1.0, 1.0)
    out = out[np.triu_indices(dim, 1)] if on_pairs else out
    out.flags.writeable = False
    return out


def phi_form(u: float, v: float) -> np.ndarray:
    """phi at weights (u, v) as a dense (7, 7, 7) array."""
    return antisymmetrise(PHI_TABLE, 7, u, v)


def psi_form(u: float, v: float) -> np.ndarray:
    """psi at weights (u, v) as a dense (7, 7, 7, 7) array."""
    return antisymmetrise(PSI_TABLE, 7, u, v)


@dataclass(frozen=True)
class SectionData:
    """Values and frame-direction derivatives of a rank-two twist section,
    at a point or at every row of a stack."""

    a: np.ndarray  # (...)
    b: np.ndarray
    da: np.ndarray  # (..., 2) derivative of a along e_1, e_2
    db: np.ndarray


def section_data(family, point: AdaptedFramePoint) -> SectionData:
    """G = a + ib and its derivatives along e_1, e_2 at a frame point or a
    stack; every row and direction goes through one complex-step call on the
    real parts (a, b)."""
    ab = family.parts(point.u)
    dab = point.scalar_derivatives(family.parts)
    return SectionData(a=ab[..., 0], b=ab[..., 1], da=dab[..., 0], db=dab[..., 1])


def per_point(x, fibre_ndim: int, trailing: int = 0) -> np.ndarray:
    """``x`` of shape P + T (``trailing`` = len(T)) with ``fibre_ndim`` unit
    axes inserted after P, so that it broadcasts against P + F + T."""
    x = np.asarray(x, dtype=float)
    cut = x.ndim - trailing
    return x.reshape(x.shape[:cut] + (1,) * fibre_ndim + x.shape[cut:])


def lifted_basis(vert: np.ndarray, fibre_dirs, dim: int) -> np.ndarray:
    """Rows E_1, E_2 (e_i plus the vertical parts ``vert`` (..., 2, m) in the
    last m slots) followed by the unit fibre directions ``fibre_dirs``, as a
    (..., 2 + len(fibre_dirs), dim) array."""
    out = np.zeros(vert.shape[:-2] + (2 + len(fibre_dirs), dim))
    out[..., 0, 0] = out[..., 1, 1] = 1.0
    out[..., :2, dim - vert.shape[-1] :] = vert
    out[..., np.arange(2, 2 + len(fibre_dirs)), list(fibre_dirs)] = 1.0
    return out


def tangent_basis_e_sigma(point: AdaptedFramePoint, sec: SectionData, t1) -> np.ndarray:
    """Tangent basis (E_1, E_2, F_1) of the rank-one bundle twisted by sigma,
    as the rows of a (..., 3, 7) array.

    Components are against (e_1, e_2, nu_3, nu_4, k_1, k_2, k_3); the fibre
    point is t1 f^1 + a f^2 + b f^3.  The leading axes are those of the point
    (P,) followed by those of t1 (F,).
    """
    t1 = np.asarray(t1, dtype=float)
    fdim = t1.ndim
    n = per_point(nabla_f_coeffs(point.gamma), fdim, 3)
    a, b = (per_point(x, fdim)[..., None, None] for x in (sec.a, sec.b))
    vert = t1[..., None, None] * n[..., 0, :] + a * n[..., 1, :] + b * n[..., 2, :]
    deriv = np.stack([np.zeros_like(sec.da), sec.da, sec.db], axis=-1)
    return lifted_basis(vert + per_point(deriv, fdim, 2), ASSOCIATIVE_SLOTS, 7)


def tangent_basis_eta_f(point: AdaptedFramePoint, gamma_val, dgamma, t) -> np.ndarray:
    """Tangent basis (E_1, E_2, F_2, F_3) of the rank-two bundle twisted by
    eta = gamma f^1, as the rows of a (..., 4, 7) array; the fibre point is
    t_2 f^2 + t_3 f^3 + eta.  ``t`` is (2,) or (F, 2), and the leading axes
    are those of the point (P,) followed by F."""
    t = np.asarray(t, dtype=float)
    fdim = t.ndim - 1
    n = per_point(nabla_f_coeffs(point.gamma), fdim, 3)
    g = per_point(gamma_val, fdim)[..., None, None]
    t2, t3 = t[..., 0, None, None], t[..., 1, None, None]
    vert = t2 * n[..., 1, :] + t3 * n[..., 2, :] + g * n[..., 0, :]
    dgamma = np.asarray(dgamma, dtype=float)
    deriv = np.stack([dgamma, np.zeros_like(dgamma), np.zeros_like(dgamma)], axis=-1)
    return lifted_basis(vert + per_point(deriv, fdim, 2), COASSOCIATIVE_SLOTS, 7)


def fibre_radius(*parts) -> np.ndarray:
    """sqrt of the sum of the squares of the parts, by np.hypot: it overflows only where that does."""
    return reduce(np.hypot, parts)


def _fibre_radius(fiber) -> np.ndarray:
    """The det-convention norm of the fibre point t1 f^1 + a f^2 + b f^3 given as (t1, a, b)."""
    return np.sqrt(2.0) * fibre_radius(*fiber)


def scaled_rows(vectors, profile: Profile, r):
    """The vectors (each (..., dim)) scaled by D = diag(u, u, u, u, v, .., v),
    the profile weights at the fibre radii r, as the rows of an (N, k, dim)
    array; also D as (N, dim) and the broadcast leading shape."""
    u, v = profile.at(r)
    vecs = np.stack(np.broadcast_arrays(*vectors), axis=-2)
    d = np.repeat(np.stack([u, v], axis=-1), (4, vecs.shape[-1] - 4), axis=-1)
    vecs = d[..., None, :] * vecs
    lead, (k, dim) = vecs.shape[:-2], vecs.shape[-2:]
    return vecs.reshape(-1, k, dim), np.broadcast_to(d, lead + (dim,)).reshape(-1, dim), lead


def outer_pairs(v) -> np.ndarray:
    """The outer products v[n, 0] (x) v[n, 1] of an (N, k, dim) stack as (N, dim^2)."""
    return (v[:, 0, :, None] * v[:, 1, None, :]).reshape(len(v), -1)


def associative_residual(
    e1, e2, f1, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)
):
    """|E_2 ⌟ E_1 ⌟ F_1 ⌟ psi| with the displayed psi, per leading index of
    the vectors (each (..., 7)) and of the fibre point (t1, a, b)."""
    vecs, d, lead = scaled_rows((f1, e1, e2), profile, _fibre_radius(fiber))
    # psi(F_1, E_1, ., .) as the bivector F_1 (x) E_1 against psi, then E_2
    one_form = outer_pairs(vecs) @ unit_tensor(PSI_TABLE, 7).reshape(49, 49)
    return row_norms(d * (vecs[:, 2, None, :] @ one_form.reshape(-1, 7, 7))[:, 0]).reshape(lead)[()]


_TRIPLES = tuple(np.array(list(itertools.combinations(range(4), 3))).T)


def coassociative_residual(
    e1, e2, f2, f3, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)
):
    """max |phi| over the four triples of the tangent basis (E_1, E_2, F_2, F_3),
    per leading index of the vectors and of the fibre point (gamma, t2, t3)."""
    vecs, _, lead = scaled_rows((e1, e2, f2, f3), profile, _fibre_radius(fiber))
    phi = unit_tensor(PHI_TABLE, 7).reshape(7, -1)
    # values[:, a, b, c] = phi(v[a], v[b], v[c])
    values = vecs[:, None] @ (vecs @ phi).reshape(-1, 4, 7, 7) @ np.swapaxes(vecs, -1, -2)[:, None]
    return np.max(np.abs(values[(slice(None),) + _TRIPLES]), axis=-1).reshape(lead)[()]


def plane_coords(v, pairs) -> np.ndarray:
    """The Plücker coordinates c_ab = v_1a v_2b - v_1b v_2a of the planes spanned by the
    rows v_1, v_2 of an (N, 2, dim) stack, one column per pair of ``pairs`` (a, b)."""
    a, b = pairs
    return v[:, 0, a] * v[:, 1, b] - v[:, 0, b] * v[:, 1, a]


def lifted_associative_residual(e1, e2, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)):
    """``associative_residual`` with F_1 the unit k_1: |D chi| with
    chi = v psi_1(k_1, E_1 ^ E_2, .), E D-scaled."""
    vecs, d, lead = scaled_rows((e1, e2), profile, _fibre_radius(fiber))
    (slot,) = ASSOCIATIVE_SLOTS
    psi = unit_tensor(PSI_TABLE, 7, on_pairs=True)[:, slot]
    return (d[:, slot] * row_norms(d * (plane_coords(vecs, PAIRS) @ psi))).reshape(lead)[()]


def lifted_coassociative_residual(e1, e2, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)):
    """``coassociative_residual`` with (F_2, F_3) the unit (k_2, k_3): its four
    triples are v phi_1(E_1 ^ E_2, k_2|k_3) and v^2 phi_1(E_i, k_2, k_3), E D-scaled."""
    vecs, d, lead = scaled_rows((e1, e2), profile, _fibre_radius(fiber))
    s, t = COASSOCIATIVE_SLOTS
    planes, line = unit_tensor(PHI_TABLE, 7, on_pairs=True)[:, [s, t]], unit_tensor(PHI_TABLE, 7)[:, s, t]
    w = d[:, s, None]
    values = np.concatenate([w * (plane_coords(vecs, PAIRS) @ planes), w * w * (vecs @ line)], axis=-1)
    return np.max(np.abs(values), axis=-1).reshape(lead)[()]


def dbar_f_residual(gamma: np.ndarray, sec: SectionData):
    """Components of the antiholomorphic derivative of sigma over F, per
    leading index of ``gamma`` and ``sec``.

    (a_1 - b_2 - p a + q b,  a_2 + b_1 - q a - p b) with
    p = Gamma^1_{22} - Gamma^3_{24} and q = Gamma^3_{14} - Gamma^1_{12}.
    """
    p = gamma[..., 1, 1, 0] - gamma[..., 1, 3, 2]
    q = gamma[..., 0, 3, 2] - gamma[..., 0, 1, 0]
    r2 = sec.da[..., 0] - sec.db[..., 1] - p * sec.a + q * sec.b
    r3 = sec.da[..., 1] + sec.db[..., 0] - q * sec.a - p * sec.b
    return r2, r3


def parallel_e_residual(dgamma: np.ndarray):
    """|d gamma(e_1)| + |d gamma(e_2)|: the covariant derivative of eta over E
    reduces to the coefficient derivatives because nabla f^1 has no f^1 part.
    ``dgamma`` is (2,) or (..., 2)."""
    dgamma = np.asarray(dgamma, dtype=float)
    return np.abs(dgamma[..., 0]) + np.abs(dgamma[..., 1])
