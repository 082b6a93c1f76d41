"""Finite-difference plumbing shared by the geometric modules, and the
radial profile type that the Stenzel, G2 and Spin(7) metrics are built from.

Central differences with one Richardson extrapolation level; the relative
step is scaled by (1 + |u|).  All quantities verified downstream involve at
most first derivatives of smooth frame fields, so the resulting accuracy
(~1e-10 for well-scaled data) comfortably supports 1e-6 tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ImmersionDegenerateError

DEFAULT_FD_STEP = 1e-5

# Rows per block of the dense calibration-form contractions.  It bounds their
# temporaries: the largest Cayley one is 64 x 4 x 64 doubles (128 KB) per
# block, where a whole 3,000-point job at once would need 6 MB.
BLOCK = 64

DEPENDENT_TOL = 1e-10  # gram_schmidt raises on a row whose projected norm is below


@dataclass(frozen=True)
class Profile:
    """A pair of positive radial functions, each a constant or a callable of
    the radius: the Stenzel potential derivatives (v', v'') or the
    Bryant-Salamon fibre weights (u, v).  Only their positivity enters a
    verdict."""

    a: Callable[[float], float] | float
    b: Callable[[float], float] | float

    def at(self, r):
        """(a, b) at the radius r, or at every entry of an array of radii."""
        r = np.asarray(r, dtype=float)
        aa, bb = (
            np.broadcast_to(np.asarray(w(r) if callable(w) else w, dtype=float), r.shape)
            for w in (self.a, self.b)
        )
        bad = (aa <= 0) | (bb <= 0)
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise DomainError(
                f"profile values must be positive, got ({aa[i]:g}, {bb[i]:g}) at radius r={r[i]:g}"
            )
        return aa[()], bb[()]


def row_norms(u) -> np.ndarray:
    """|u| over the last axis; bit-identical to np.linalg.norm on one row."""
    u = np.asarray(u, dtype=float)
    return np.sqrt((u[..., None, :] @ u[..., :, None])[..., 0, 0])


def blocked(kernel, *arrays) -> np.ndarray:
    """``kernel`` applied to the leading axis of equally long arrays, BLOCK
    rows at a time, with the results concatenated."""
    n = len(arrays[0])
    return np.concatenate(
        [kernel(*(a[s : s + BLOCK] for a in arrays)) for s in range(0, n, BLOCK)]
    )


def directional_derivative(f, u, w, step: float = DEFAULT_FD_STEP):
    """d/ds f(u + s w) at s = 0 via central differences plus Richardson.

    ``u`` and ``w`` are points and directions of shape (..., d), broadcast
    against each other; ``f`` is called on the stacked stencil points and
    must map (..., d) to (..., *out).  The step h = step (1 + |u|) is taken
    per row.
    """
    u, w = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(w, dtype=float))
    h = step * (1.0 + row_norms(u))

    def central(hh):
        hu = hh[..., None]
        diff = np.asarray(f(u + hu * w)) - np.asarray(f(u - hu * w))
        return diff / (2.0 * hh).reshape(hh.shape + (1,) * (diff.ndim - hh.ndim))

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def jacobian(f, u, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Columns are derivatives of f along the coordinate directions.

    ``u`` of shape (..., d) gives (..., *out, d); all d directions of all
    rows go through one stacked ``directional_derivative`` call.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    cols = directional_derivative(f, u[..., None, :], np.eye(d), step)
    return np.moveaxis(cols, u.ndim - 1, -1)


def gram_schmidt(rows) -> np.ndarray:
    """Orthonormalise the rows (in order) of each (k, d) matrix of a stack
    (..., k, d); raises if they are dependent."""
    rows = np.asarray(rows, dtype=float)
    out = np.empty_like(rows)
    for i in range(rows.shape[-2]):
        v = rows[..., i, :].copy()
        for j in range(i):
            q = out[..., j, :]
            v -= (v[..., None, :] @ q[..., :, None])[..., 0] * q
        n = row_norms(v)
        if np.any(n < DEPENDENT_TOL):
            raise ImmersionDegenerateError("vectors are numerically dependent")
        out[..., i, :] = v / n[..., None]
    return out
