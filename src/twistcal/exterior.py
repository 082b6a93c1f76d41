"""Dense exterior algebra over oriented Euclidean spaces of dimension <= 8.

Forms are stored densely: a multivector over a ``dim``-dimensional space keeps
one coefficient per subset of ``{1..dim}``, indexed by bitmask (bit ``i-1``
set means index ``i`` is present).  The basis is orthonormal, so the basis
monomials are orthonormal too and the inner product of two forms is the dot
product of their coefficients.  Weighted metrics never enter here: a form at
profile weights is a unit form pulled back by a diagonal matrix, which the
callers apply to the vectors they contract.

The Hodge star follows the convention ``b ^ *a = <b, a> vol`` with
``vol = orientation * e^{1...dim}``.  With these choices
``**a = (-1)^{k(dim-k)} a`` and the star is an isometry.

Everything is immutable and pure.  :func:`dense_tensor` converts a homogeneous
form to its fully antisymmetric coefficient array, the representation in which
the calibration residuals are contracted by numpy.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, GradeError

__all__ = [
    "InnerSpace",
    "Multivector",
    "wedge",
    "interior",
    "contract",
    "hodge",
    "form_inner",
    "asd_sd_split",
    "dense_tensor",
]


def _popcount(m: int) -> int:
    return bin(m).count("1")


@lru_cache(maxsize=None)
def _grade_table(dim: int) -> np.ndarray:
    return np.array([_popcount(m) for m in range(1 << dim)], dtype=np.int8)


@lru_cache(maxsize=None)
def _wedge_sign_table(dim: int) -> np.ndarray:
    """sign[a, b] of e^A ^ e^B for disjoint masks, 0 when they overlap."""
    n = 1 << dim
    sign = np.zeros((n, n), dtype=np.int8)
    for a in range(n):
        for b in range(n):
            if a & b:
                continue
            swaps = 0
            bb = b
            while bb:
                low = bb & -bb
                bit = low.bit_length() - 1
                swaps += _popcount(a >> (bit + 1))
                bb ^= low
            sign[a, b] = -1 if swaps & 1 else 1
    return sign


def _mask_of(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise GradeError(f"repeated index {i} in basis monomial")
        mask |= bit
    return mask


def _indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class InnerSpace:
    """An oriented Euclidean space of dimension 1..8 with an orthonormal basis.

    ``orientation`` is +1 or -1 relative to the standard ordered basis.
    """

    def __init__(self, dim: int, orientation: int = 1):
        if not 1 <= dim <= 8:
            raise DimensionMismatchError(f"dim must be in 1..8, got {dim}")
        if orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.dim = int(dim)
        self.orientation = int(orientation)

    # -- basic elements -------------------------------------------------

    def zero(self) -> "Multivector":
        return Multivector(self, np.zeros(1 << self.dim))

    def scalar(self, value: float) -> "Multivector":
        coeffs = np.zeros(1 << self.dim)
        coeffs[0] = value
        return Multivector(self, coeffs)

    def basis_covector(self, i: int) -> "Multivector":
        """The basis covector e^i (1-based)."""
        if not 1 <= i <= self.dim:
            raise DimensionMismatchError(f"basis index {i} out of range")
        coeffs = np.zeros(1 << self.dim)
        coeffs[1 << (i - 1)] = 1.0
        return Multivector(self, coeffs)

    def covector(self, components) -> "Multivector":
        components = np.asarray(components, dtype=float)
        if components.shape != (self.dim,):
            raise DimensionMismatchError("component count does not match dim")
        coeffs = np.zeros(1 << self.dim)
        for i in range(self.dim):
            coeffs[1 << i] = components[i]
        return Multivector(self, coeffs)

    def monomial(self, indices, coeff: float = 1.0) -> "Multivector":
        """e^{i1} ^ ... ^ e^{ik} for strictly increasing indices."""
        idx = tuple(indices)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise GradeError("monomial indices must be strictly increasing")
        coeffs = np.zeros(1 << self.dim)
        coeffs[_mask_of(idx)] = coeff
        return Multivector(self, coeffs)

    def volume_form(self) -> "Multivector":
        coeffs = np.zeros(1 << self.dim)
        coeffs[(1 << self.dim) - 1] = self.orientation
        return Multivector(self, coeffs)

    def compatible(self, other: "InnerSpace") -> bool:
        return self is other or (self.dim == other.dim and self.orientation == other.orientation)

    def __repr__(self):
        return f"InnerSpace(dim={self.dim}, orientation={self.orientation:+d})"


class Multivector:
    """A (generally inhomogeneous) element of the exterior algebra."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: InnerSpace, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (1 << space.dim,):
            raise DimensionMismatchError("coefficient array has wrong length")
        self.space = space
        self.coeffs = coeffs

    # -- structure -------------------------------------------------------

    def coefficient(self, indices) -> float:
        return float(self.coeffs[_mask_of(indices)])

    def grades(self) -> tuple[int, ...]:
        table = _grade_table(self.space.dim)
        # not np.unique, whose first call imports numpy.ma
        return tuple(sorted(set(table[np.abs(self.coeffs) > 0].tolist())))

    def grade(self, k: int) -> "Multivector":
        table = _grade_table(self.space.dim)
        out = np.where(table == k, self.coeffs, 0.0)
        return Multivector(self.space, out)

    def grade_of(self) -> int:
        """Grade of a homogeneous multivector (0 for the zero element)."""
        gs = self.grades()
        if len(gs) > 1:
            raise GradeError(f"multivector is not homogeneous: grades {gs}")
        return gs[0] if gs else 0

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.coeffs), initial=0.0) <= tol)

    def norm(self) -> float:
        """Euclidean norm; grades are mutually orthogonal."""
        total = 0.0
        for k in self.grades():
            part = self.grade(k)
            total += form_inner(part, part)
        return float(np.sqrt(max(total, 0.0)))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Multivector"):
        if not self.space.compatible(other.space):
            raise DimensionMismatchError("multivectors live over different spaces")

    def __add__(self, other):
        self._check(other)
        return Multivector(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return Multivector(self.space, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector(self.space, -self.coeffs)

    def __mul__(self, scalar):
        return Multivector(self.space, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Multivector(self.space, self.coeffs / float(scalar))

    def __xor__(self, other):
        return wedge(self, other)

    def allclose(self, other, tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.allclose(self.coeffs, other.coeffs, atol=tol))

    def evaluate(self, *vectors) -> float:
        """Value of a k-form on k vectors given by components in the basis."""
        mv = self
        for v in vectors:
            mv = contract(mv, v)
        if mv.grades() not in ((), (0,)):
            raise GradeError("number of vectors does not exhaust the form")
        return float(mv.coeffs[0])

    def __repr__(self):
        terms = []
        for m in np.nonzero(np.abs(self.coeffs) > 0)[0]:
            idx = _indices_of(int(m))
            label = "1" if not idx else "e" + "".join(str(i) for i in idx)
            terms.append(f"{self.coeffs[m]:+g}*{label}")
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


# -- operations -----------------------------------------------------------


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Graded-antisymmetric product; signs by permutation parity."""
    a._check(b)
    dim = a.space.dim
    sign = _wedge_sign_table(dim)
    out = np.zeros(1 << dim)
    nz_a = np.nonzero(a.coeffs)[0]
    nz_b = np.nonzero(b.coeffs)[0]
    for ma in nz_a:
        ca = a.coeffs[ma]
        for mb in nz_b:
            s = sign[ma, mb]
            if s:
                out[ma | mb] += s * ca * b.coeffs[mb]
    return Multivector(a.space, out)


def contract(a: Multivector, components) -> Multivector:
    """Interior product with the vector of given basis components (first slot).

    No metric is applied: the components are taken as vector components
    against the basis dual to the covectors e^i.
    """
    dim = a.space.dim
    components = np.asarray(components, dtype=float)
    if components.shape != (dim,):
        raise DimensionMismatchError("vector component count does not match dim")
    out = np.zeros(1 << dim)
    nz = np.nonzero(a.coeffs)[0]
    for m in nz:
        cm = a.coeffs[m]
        mm = int(m)
        rem = mm
        while rem:
            low = rem & -rem
            bit = low.bit_length() - 1
            comp = components[bit]
            if comp != 0.0:
                below = _popcount(mm & (low - 1))
                s = -1.0 if below & 1 else 1.0
                out[mm ^ low] += s * comp * cm
            rem ^= low
    return Multivector(a.space, out)


def interior(v: Multivector, a: Multivector) -> Multivector:
    """v ⌟ a: contraction in the first slot with the vector dual to v."""
    v._check(a)
    if v.grades() not in ((1,), ()):
        raise GradeError("interior product needs a grade-1 first argument")
    return contract(a, [v.coeffs[1 << i] for i in range(v.space.dim)])


def hodge(a: Multivector) -> Multivector:
    """Hodge star: b ^ *a = <b, a> vol for all b."""
    dim = a.space.dim
    full = (1 << dim) - 1
    sign = _wedge_sign_table(dim)
    out = np.zeros(1 << dim)
    nz = np.nonzero(a.coeffs)[0]
    for m in nz:
        mc = full ^ int(m)
        out[mc] = a.space.orientation * sign[m, mc] * a.coeffs[m]
    return Multivector(a.space, out)


def form_inner(a: Multivector, b: Multivector) -> float:
    """Inner product of two forms of equal grade (orthonormal monomials)."""
    a._check(b)
    ga, gb = a.grades(), b.grades()
    if len(ga) > 1 or len(gb) > 1:
        raise GradeError("form_inner needs homogeneous arguments")
    if ga and gb and ga != gb:
        raise GradeError(f"grade mismatch: {ga[0]} vs {gb[0]}")
    return float(a.coeffs @ b.coeffs)


def asd_sd_split(a: Multivector) -> tuple[Multivector, Multivector]:
    """Split a 2-form on an oriented 4-space into (self-dual, anti-self-dual)."""
    if a.space.dim != 4:
        raise DimensionMismatchError("self-dual splitting requires dim = 4")
    if a.grades() not in ((2,), ()):
        raise GradeError("self-dual splitting applies to 2-forms")
    star = hodge(a)
    sd = (a + star) * 0.5
    asd = (a - star) * 0.5
    return sd, asd


def dense_tensor(a: Multivector) -> np.ndarray:
    """The k-form ``a`` as a fully antisymmetric array of shape ``(dim,)*k``.

    ``T[i1, .., ik]`` is ``a(e_{i1+1}, .., e_{ik+1})``, so contracting the
    first axis with a vector agrees with :func:`contract`.
    """
    k = a.grade_of()
    dim = a.space.dim
    out = np.zeros((dim,) * k)
    for m in np.nonzero(a.coeffs)[0]:
        idx = [i - 1 for i in _indices_of(int(m))]
        for perm in itertools.permutations(range(k)):
            inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
            out[tuple(idx[p] for p in perm)] = -a.coeffs[m] if inversions & 1 else a.coeffs[m]
    return out
