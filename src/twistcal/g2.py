"""Twisted (co)associative subbundles of the anti-self-dual 2-form bundle
over a surface L^2 in S^4.

The total tangent space at a bundle point is modelled on a 7-dimensional
space with ordered basis

    (e_1, e_2, nu_3, nu_4, k_1, k_2, k_3)

where the first four are horizontal lifts of the adapted frame and the k's
are vertical lifts of the anti-self-dual trivialisation

    f^1 = e^1^e^2 - nu^3^nu^4,
    f^2 = e^1^nu^3 + e^2^nu^4,
    f^3 = e^1^nu^4 - e^2^nu^3,

declared once, as ``ASD_FORMS``.  The connection table is their su(2)_- bracket,
``_NABLA_F[a, b, k, m] = 1/2 [f^k, f^m]_ba`` for a > b and 0 otherwise.

The basis covectors are treated as orthonormal for form assembly; the fibre
profile weights u, v (both positive) sit inside the 3-form ``phi`` and its
dual ``psi`` exactly as in

    phi = v^3 k_123 + u^2 v [k_1 (e_12 - nu_34) + k_2 (e_1 nu_3 + e_2 nu_4)
                             + k_3 (e_1 nu_4 - e_2 nu_3)],
    psi = u^4 e_12 nu_34 - u^2 v^2 [k_23 (e_12 - nu_34) - k_13 (e_1 nu_3 +
          e_2 nu_4) + k_12 (e_1 nu_4 - e_2 nu_3)].

In the orthonormal coframe of the 7-metric with u^2 on the horizontal block
and v^2 on the vertical block, phi and psi have their unit-weight
coefficients, so psi is the Hodge dual of phi at every profile because it is
at u = v = 1: ``PSI_TABLE`` is derived by ``hodge_star`` from ``PHI_TABLE``, the
package's one hand-written sign table.  :mod:`twistcal.spin7` builds the Cayley
form and :mod:`twistcal.octonion` the octonion product from phi as well.

Every monomial with h horizontal indices carries the weight u^h v^(k-h), so
the form at weights (u, v) is the unit-weight form pulled back by
D = diag(u, u, u, u, v, v, v).  Each form kernel computes over the leading axes
of a (..., k, 7) stack of D-scaled rows (``scaled_rows``).  The dense residuals,
the tests' oracle, contract them with the unit tensors (``unit_tensor``) and
scale any free index by D.  The verify path's ``lifted_*`` residuals take the
plane E_1 ^ E_2 as the basis's first two rows and each F_j at its unit slot
(``*_SLOTS``), so a form meets the plane only in its Plücker coordinates c_ab,
a < b (Harvey and Lawson, Acta Math. 148 (1982)), through exact 21-row tables.
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


def frame_table(gamma: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_ab Gamma[..., j, a, b] table[a, b, ...], j = 1, 2, for ``gamma`` (..., 2, 4, 4), as (..., 2, *out)."""
    g = np.asarray(gamma, dtype=float)[..., :2, :4, :4]
    lead = g.shape[:-2]
    return (g.reshape(lead + (16,)) @ table.reshape(16, -1)).reshape(lead + table.shape[2:])


# F[k, a, b] = f^k(e_a, e_b) over (e_1, e_2, nu_3, nu_4): the one encoding of Lambda^2_-
ASD_FORMS = np.zeros((3, 4, 4))
for _k, _a, _b, _sign in ((0, 0, 1, 1.0), (0, 2, 3, -1.0),   # f^1 = e^12 - nu^34
                          (1, 0, 2, 1.0), (1, 1, 3, 1.0),    # f^2 = e^1 nu^3 + e^2 nu^4
                          (2, 0, 3, 1.0), (2, 1, 2, -1.0)):  # f^3 = e^1 nu^4 - e^2 nu^3
    ASD_FORMS[_k, _a, _b], ASD_FORMS[_k, _b, _a] = _sign, -_sign


def asd_connection(forms: np.ndarray) -> np.ndarray:
    """T[a, b, k, m] = 1/2 [f^k, f^m]_ba for a > b, else 0, of ASD ``forms`` (3, 4, 4): as matrices
    nabla_{e_j} f^k = [f^k, Gamma_j], and ``frame_table`` contracts all 16 Gamma_jab, whose lower
    triangle holds each pair once.  T is antisymmetric in (k, m), so nabla f^k has no f^k part."""
    half = 0.5 * (np.einsum("kbc,mca->abkm", forms, forms) - np.einsum("mbc,kca->abkm", forms, forms))
    return np.tril(np.ones((4, 4)), -1)[..., None, None] * half + 0.0


_NABLA_F = asd_connection(ASD_FORMS)


def nabla_f_coeffs(gamma: np.ndarray) -> np.ndarray:
    """Coefficients N[j, k, m] with nabla_{e_j} f^k = sum_m N[j, k, m] f^m.

    ``gamma`` is (2, 4, 4) or a stack (..., 2, 4, 4); the result is
    (..., 2, 3, 3).  Valid in any adapted orthonormal frame; at a
    normal-frame centre the entries reduce to shape-operator combinations.
    """
    return frame_table(gamma, _NABLA_F)


def parity(perm) -> int:
    """The sign, 1 or -1, of a permutation of 0, .., n - 1."""
    return -1 if sum(p > q for p, q in itertools.combinations(perm, 2)) & 1 else 1


def hodge_star(table, dim: int):
    """The Hodge dual of a form given as a signed index table, on oriented orthonormal
    R^dim: e^I goes to sign(I, I^c) e^(I^c), I^c the increasing complement of I."""
    rests = [tuple(i for i in range(dim) if i not in idx) for idx, _ in table]
    return tuple((rest, sign * parity(idx + rest)) for (idx, sign), rest in zip(table, rests))


# The forms as signed index tables: rows (0-based indices, sign) of the
# displayed monomials, each carrying u^h v^(k-h) for h indices below 4.
PHI_TABLE = (
    ((4, 5, 6), 1), ((0, 1, 4), 1), ((2, 3, 4), -1), ((0, 2, 5), 1),
    ((1, 3, 5), 1), ((0, 3, 6), 1), ((1, 2, 6), -1),
)
PSI_TABLE = hodge_star(PHI_TABLE, 7)


def antisymmetrise(table, dim: int, u: float, v: float) -> np.ndarray:
    """The form of a signed index table at weights (u, v) as a fully
    antisymmetric (dim,)*k array: T[i_1, .., i_k] is its value on
    (e_{i_1+1}, .., e_{i_k+1})."""
    k = len(table[0][0])
    perms = list(itertools.permutations(range(k)))
    signs = [parity(perm) for perm in perms]
    out = np.zeros((dim,) * k)
    for idx, sign in table:
        h = sum(i < 4 for i in idx)
        w = sign * u**h * v ** (k - h)
        for perm, s in zip(perms, signs):
            out[tuple(idx[p] for p in perm)] = s * w
    return out


@lru_cache(maxsize=None)
def unit_tensor(table, dim: int) -> np.ndarray:
    """The unit-weight dense tensor of a signed index table, built once per
    table and read-only."""
    out = antisymmetrise(table, dim, 1.0, 1.0)
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


def _asd_twisted_basis(point: AdaptedFramePoint, coeffs, dcoeffs, slots, fdim: int) -> np.ndarray:
    """Rows E_i = e_i + sum_k (c_k nabla_{e_i} f^k + dc_k(e_i)) summed in k order, then the unit
    fibre rows at ``slots``; each c_k broadcasts against P + F (fdim = len(F)), dcoeffs is (P, 2, 3)."""
    n = per_point(nabla_f_coeffs(point.gamma), fdim, 3)
    c1, c2, c3 = (c[..., None, None] for c in coeffs)
    vert = c1 * n[..., 0, :] + c2 * n[..., 1, :] + c3 * n[..., 2, :]
    return lifted_basis(vert + per_point(dcoeffs, fdim, 2), slots, 7)


def tangent_basis_e_sigma(point: AdaptedFramePoint, sec: SectionData, t1) -> np.ndarray:
    """Tangent basis (E_1, E_2, F_1) of the rank-one bundle twisted by sigma,
    as the rows of a (..., 3, 7) array.

    Components are against (e_1, e_2, nu_3, nu_4, k_1, k_2, k_3); the fibre
    point is t1 f^1 + a f^2 + b f^3.  The leading axes are those of the point
    (P,) followed by those of t1 (F,).
    """
    t1 = np.asarray(t1, dtype=float)
    fdim = t1.ndim
    deriv = np.stack([np.zeros_like(sec.da), sec.da, sec.db], axis=-1)
    return _asd_twisted_basis(point, (t1, per_point(sec.a, fdim), per_point(sec.b, fdim)), deriv,
                              ASSOCIATIVE_SLOTS, fdim)


def tangent_basis_eta_f(point: AdaptedFramePoint, gamma_val, dgamma, t) -> np.ndarray:
    """Tangent basis (E_1, E_2, F_2, F_3) of the rank-two bundle twisted by
    eta = gamma f^1, as the rows of a (..., 4, 7) array; the fibre point is
    t_2 f^2 + t_3 f^3 + eta.  ``t`` is (2,) or (F, 2), and the leading axes
    are those of the point (P,) followed by F."""
    t = np.asarray(t, dtype=float)
    fdim = t.ndim - 1
    deriv = np.stack([dgamma, np.zeros_like(dgamma), np.zeros_like(dgamma)], axis=-1)
    return _asd_twisted_basis(point, (per_point(gamma_val, fdim), t[..., 0], t[..., 1]), deriv,
                              COASSOCIATIVE_SLOTS, fdim)


def fibre_radius(*parts) -> np.ndarray:
    """sqrt of the sum of the squares of the parts, by np.hypot: it overflows only where that does."""
    return reduce(np.hypot, parts)


def _fibre_radius(fiber) -> np.ndarray:
    """The det-convention norm of the fibre point t1 f^1 + a f^2 + b f^3 given as (t1, a, b)."""
    return np.sqrt(2.0) * fibre_radius(*fiber)


def scaled_rows(rows, profile: Profile, r):
    """A (..., k, dim) stack of rows scaled by D = diag(u, u, u, u, v, .., v), the
    profile weights at the fibre radii r, and D as (..., dim)."""
    u, v = profile.at(r)
    d = np.repeat(np.stack([u, v], axis=-1), (4, rows.shape[-1] - 4), axis=-1)
    return d[..., None, :] * rows, d


def outer_pairs(v) -> np.ndarray:
    """The outer products v[..., 0] (x) v[..., 1] of a (..., k, dim) stack as (..., dim^2)."""
    return (v[..., 0, :, None] * v[..., 1, None, :]).reshape(v.shape[:-2] + (-1,))


def associative_residual(
    e1, e2, f1, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)
):
    """|E_2 ⌟ E_1 ⌟ F_1 ⌟ psi| with the displayed psi, per leading index of
    the vectors (each (..., 7)) and of the fibre point (t1, a, b)."""
    vecs, d = scaled_rows(np.stack(np.broadcast_arrays(f1, e1, e2), axis=-2), profile, _fibre_radius(fiber))
    # psi(F_1, E_1, ., .) as the bivector F_1 (x) E_1 against psi, then E_2
    one_form = (outer_pairs(vecs) @ unit_tensor(PSI_TABLE, 7).reshape(49, 49)).reshape(vecs.shape[:-2] + (7, 7))
    return row_norms(d * (vecs[..., 2, None, :] @ one_form)[..., 0, :])[()]


_TRIPLES = tuple(np.array(list(itertools.combinations(range(4), 3))).T)


def coassociative_residual(
    e1, e2, f2, f3, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)
):
    """max |phi| over the four triples of the tangent basis (E_1, E_2, F_2, F_3),
    per leading index of the vectors and of the fibre point (gamma, t2, t3)."""
    vecs, _ = scaled_rows(np.stack(np.broadcast_arrays(e1, e2, f2, f3), axis=-2), profile, _fibre_radius(fiber))
    phi = unit_tensor(PHI_TABLE, 7).reshape(7, -1)
    # values[..., a, b, c] = phi(v[a], v[b], v[c])
    rows = vecs[..., None, :, :]
    values = rows @ (vecs @ phi).reshape(vecs.shape + (7,)) @ np.swapaxes(rows, -1, -2)
    return np.max(np.abs(values[(..., *_TRIPLES)]), axis=-1)[()]


def plane_coords(v, pairs) -> np.ndarray:
    """The Plücker coordinates c_ab = v_1a v_2b - v_1b v_2a of the planes spanned by the
    rows v_1, v_2 of a (..., 2, dim) stack, one column per pair of ``pairs`` (a, b)."""
    a, b = pairs
    return v[..., 0, a] * v[..., 1, b] - v[..., 0, b] * v[..., 1, a]


def lifted_associative_residual(plane, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)):
    """``associative_residual`` with F_1 the unit k_1 and (E_1, E_2) the rows of
    ``plane`` (..., 2, 7): |D chi| with chi = v psi_1(k_1, E_1 ^ E_2, .), E D-scaled."""
    vecs, d = scaled_rows(plane, profile, _fibre_radius(fiber))
    (slot,) = ASSOCIATIVE_SLOTS
    psi = unit_tensor(PSI_TABLE, 7)[PAIRS][:, slot]
    return (d[..., slot] * row_norms(d * (plane_coords(vecs, PAIRS) @ psi)))[()]


def lifted_coassociative_residual(plane, profile: Profile = UNIT_PROFILE, fiber=(0.0, 0.0, 0.0)):
    """``coassociative_residual`` with (F_2, F_3) the unit (k_2, k_3) and (E_1, E_2) the
    rows of ``plane`` (..., 2, 7): its four triples are v phi_1(E_1 ^ E_2, k_2|k_3) and
    v^2 phi_1(E_i, k_2, k_3), E D-scaled."""
    vecs, d = scaled_rows(plane, profile, _fibre_radius(fiber))
    s, t = COASSOCIATIVE_SLOTS
    planes, line = unit_tensor(PHI_TABLE, 7)[PAIRS][:, [s, t]], unit_tensor(PHI_TABLE, 7)[:, s, t]
    w = d[..., s, None]
    values = np.concatenate([w * (plane_coords(vecs, PAIRS) @ planes), w * w * (vecs @ line)], axis=-1)
    return np.max(np.abs(values), axis=-1)[()]


def dbar_f_residual(gamma: np.ndarray, sec: SectionData):
    """Components of the antiholomorphic derivative of sigma over F, per
    leading index of ``gamma`` and ``sec``.

    (a_1 - b_2 - p a + q b,  a_2 + b_1 - q a - p b) with p the f^3 part of
    nabla_{e_2} f^2 and q the f^2 part of nabla_{e_1} f^3.
    """
    n = nabla_f_coeffs(gamma)
    p, q = n[..., 1, 1, 2], n[..., 0, 2, 1]
    r2 = sec.da[..., 0] - sec.db[..., 1] - p * sec.a + q * sec.b
    r3 = sec.da[..., 1] + sec.db[..., 0] - q * sec.a - p * sec.b
    return r2, r3


def parallel_e_residual(dgamma: np.ndarray):
    """|d gamma(e_1)| + |d gamma(e_2)|: the covariant derivative of eta over E
    reduces to the coefficient derivatives because nabla f^1 has no f^1 part.
    ``dgamma`` is (2,) or (..., 2)."""
    dgamma = np.asarray(dgamma, dtype=float)
    return np.abs(dgamma[..., 0]) + np.abs(dgamma[..., 1])
