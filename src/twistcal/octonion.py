"""Quaternion and octonion arithmetic on coefficient arrays, and the pinor
representation of 4-dimensional covectors on spinors.

Basis order is (1, i, j, k, e, ie, je, ke): the quaternions occupy the first
four slots and their e-multiples the last four.  Products use the
Cayley-Dickson doubling

    (a, b)(c, d) = (ac - conj(d) b,  da + b conj(c)),    a, b, c, d in H.

Pinor conventions
-----------------
Covectors of an (abstract) orthonormal 4-dim coframe embed into He.  The
default embedding is

    (e^1, e^2, nu^3, nu^4)  ->  (e, ie, je, -ke),

chosen so that the composed volume operator gamma(e^1)gamma(e^2)gamma(nu^3)
gamma(nu^4) is -1 on H and +1 on He, i.e. the negative pinor eigenspace is
the quaternion slot.  Left multiplication by each embedded covector then
satisfies the Clifford relation and swaps the two eigenspaces.

gamma of a 2-form is normalised as gamma(e^i ^ e^j) = 2 gamma(e^i)gamma(e^j)
for i != j (orthonormal covectors multiply as e^i e^j = 1/2 e^i ^ e^j in the
Clifford algebra).  All the constants downstream (squares equal to -16, the
4-fold product relations between the self-dual basis 2-forms) depend on this
factor of two.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "quat_mul",
    "quat_conj",
    "oct_mul",
    "left_mult_matrix",
    "PinorContext",
    "standard_pinor_context",
]


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


def oct_mul(x, y):
    """Octonion product on (..., 8) coefficient arrays (Cayley-Dickson)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a, b = x[..., :4], x[..., 4:]
    c, d = y[..., :4], y[..., 4:]
    first = quat_mul(a, c) - quat_mul(quat_conj(d), b)
    second = quat_mul(d, a) + quat_mul(b, quat_conj(c))
    return np.concatenate([first, second], axis=-1)


def left_mult_matrix(x) -> np.ndarray:
    """Matrix of s -> x s on coefficient columns."""
    x = np.asarray(x, dtype=float)
    return oct_mul(x[None, :], np.eye(8)).T


class PinorContext:
    """Embedding of a 4-dim orthonormal coframe into He plus its volume operator.

    ``embed`` holds the four image octonions as rows of a (4, 8) array.  The
    rows must be orthonormal and lie in He so that the Clifford relation
    holds for the induced left multiplications.
    """

    def __init__(self, embed):
        embed = np.asarray(embed, dtype=float)
        if embed.shape != (4, 8):
            raise DimensionMismatchError("embedding needs four octonion rows")
        if np.max(np.abs(embed[:, :4])) > 1e-12:
            raise DomainError("embedded covectors must lie in He")
        if not np.allclose(embed @ embed.T, np.eye(4), atol=1e-12):
            raise DomainError("embedded coframe must be orthonormal")
        self.embed = embed
        self.gammas = [left_mult_matrix(row) for row in embed]
        self.volume_op = (
            self.gammas[0] @ self.gammas[1] @ self.gammas[2] @ self.gammas[3]
        )

    def gamma_covector(self, components) -> np.ndarray:
        """gamma of the covector with the given coframe components."""
        components = np.asarray(components, dtype=float)
        if components.shape != (4,):
            raise DimensionMismatchError("covector needs 4 components")
        return left_mult_matrix(components @ self.embed)

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(P_plus, P_minus) onto the +-1 eigenspaces of the volume operator."""
        eye = np.eye(8)
        return 0.5 * (eye + self.volume_op), 0.5 * (eye - self.volume_op)


@lru_cache(maxsize=1)
def standard_pinor_context() -> PinorContext:
    embed = np.zeros((4, 8))
    embed[0, 4] = 1.0  # e
    embed[1, 5] = 1.0  # ie
    embed[2, 6] = 1.0  # je
    embed[3, 7] = -1.0  # -ke, so the volume operator is -1 on H
    return PinorContext(embed)
