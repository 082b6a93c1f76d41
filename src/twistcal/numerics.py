"""Derivative plumbing shared by the geometric modules, and the radial
profile type that the Stenzel, G2 and Spin(7) metrics are built from.

Every derivative is a first derivative of a real-analytic map (chart
``xmap`` and ``frame_field``, section coefficients, and the Stenzel
total-space map that the closed-form tangents are checked against), taken
by the complex step f'(u) w = Im f(u + i h w) / h at h = 1e-30 (Squire and
Trapp, SIAM Rev. 40 (1998); Martins, Sturdza and Alonso, ACM TOMS 29
(2003)): one evaluation of ``f`` per direction, no
cancellation, and no step to choose, since the truncation error, of order
h^2 |f^(3)|, lies far below round-off.  The real part of the same
evaluation is f(u), whose h^2 term lies below round-off too, so
:func:`complex_step` returns the value and the derivative together: the
adapted frame reads each chart map and its derivatives from one
evaluation, and needs no separate real one.  So ``f`` must be complex-safe:
bilinear, analytic arithmetic with no ``conj``, ``abs`` or cast to float,
domain checks on the real part, and a complex-valued map returns its real
and imaginary parts as two real-analytic arrays.  A cast that drops an
imaginary part loses the derivative silently; :func:`strict_arithmetic`
makes it an error at once.  It logs a job's first overflow or invalid
operation and raises it when the job ends, so the job runs once.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ImmersionDegenerateError, TwistcalError

STEP = 1e-30  # the imaginary step h of every derivative

# Rows per block of the calibration-form contractions, so that a job of up to
# 1,024 rows runs as one block; the verify path's temporaries are (rows, <= 28).
# A 99,999-row spin7-cayley job with --out peaked at 178 MB in 0.65-0.75 s, and
# unblocked at 231 MB in 0.80-0.99 s (ru_maxrss of a fresh process, three runs
# each, 2-vCPU Xeon, numpy 2.4.6).
BLOCK = 1024

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
    """sqrt(u . u) over the last axis, with the bilinear dot so that a
    complex step passes through; bit-identical to np.linalg.norm on one real
    row."""
    u = np.asarray(u)
    return np.sqrt((u[..., None, :] @ u[..., :, None])[..., 0, 0])


def blocked(kernel, *arrays) -> np.ndarray:
    """``kernel`` applied to the leading axis of equally long arrays, BLOCK
    rows at a time, with the results concatenated."""
    n = len(arrays[0])
    return np.concatenate(
        [kernel(*(a[s : s + BLOCK] for a in arrays)) for s in range(0, n, BLOCK)]
    )


def complex_step(f, u, w):
    """f(u) and d/ds f(u + s w) at s = 0, from one call of f at u + i h w:
    the real part of that call is f(u) up to a term of order h^2 (below
    round-off), and its imaginary part over h is the derivative.

    ``u`` and ``w`` are points and directions of shape (..., d), broadcast
    against each other; ``f`` must map (..., d) to real-analytic values
    (..., *out).  Every derivative in the package is one call of this.
    """
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    value = np.asarray(f(u + (1j * STEP) * w))
    return value.real, value.imag / STEP


def directional_derivative(f, u, w):
    """d/ds f(u + s w) at s = 0, the derivative part of :func:`complex_step`."""
    return complex_step(f, u, w)[1]


def jacobian(f, u) -> np.ndarray:
    """Columns are derivatives of f along the coordinate directions.

    ``u`` of shape (..., d) gives (..., *out, d); all d directions of all
    rows go through one stacked ``directional_derivative`` call.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    cols = directional_derivative(f, u[..., None, :], np.eye(d))
    return np.moveaxis(cols, u.ndim - 1, -1)


class _FirstError:
    """The ``call`` of ``np.errstate``: the first operation numpy logs, worded
    as its FloatingPointError, and the ``where`` that the block adds."""
    first, where = None, ""

    def write(self, message):
        self.first = self.first or message.removeprefix("Warning: ").rstrip("\n")


@contextmanager
def strict_arithmetic(what: str):
    """Run a block that logs its first overflow or invalid operation and runs
    on, and raises at once on a cast that drops an imaginary part (and with it
    a complex-step derivative).  At its end the logged operation raises as a
    TwistcalError naming ``what``, in place of any exception the block raised
    after it.  The block receives the log and may set its ``where``."""
    log = _FirstError()
    with np.errstate(over="log", invalid="log", call=log), warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            yield log
        except np.exceptions.ComplexWarning as exc:
            if log.first is None:
                raise TwistcalError(f"{what}: {exc}, which loses a derivative") from None
        except Exception:
            if log.first is None:
                raise
    if log.first is not None:
        raise TwistcalError(f"{what}: {log.first}{log.where}; an input is too large for double precision")


def gram_schmidt(rows) -> np.ndarray:
    """Orthonormalise the rows (in order) of each (k, d) matrix of a stack
    (..., k, d) with the bilinear dot, so that a complex step passes through;
    raises if they are dependent."""
    rows = np.asarray(rows)
    out = np.empty(rows.shape, np.result_type(rows, float))
    for i in range(rows.shape[-2]):
        v = rows[..., i, :].astype(out.dtype)
        for j in range(i):
            q = out[..., j, :]
            v -= (v[..., None, :] @ q[..., :, None])[..., 0] * q
        n = row_norms(v)
        if np.any(n.real < DEPENDENT_TOL):
            raise ImmersionDegenerateError("vectors are numerically dependent")
        out[..., i, :] = v / n[..., None]
    return out
