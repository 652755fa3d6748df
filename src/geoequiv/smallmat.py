"""Dense linear algebra on small real matrices.

Characteristic polynomials, eigenvalue grouping and a matrix functional
calculus based on Hermite interpolation, sized for operator fields on
charts of dimension at most 8.  All routines are pure functions of their
arguments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionCap,
    DomainError,
    DomainViolation,
    NoConvergence,
    NotConjugationClosed,
    ResidueTooLarge,
    SymmetryViolation,
)

DIM_CAP = 8
_EPS = float(np.finfo(float).eps)


def check_dim(n: int) -> None:
    if n < 1:
        raise DimensionCap(f"dimension must be >= 1, got {n}")
    if n > DIM_CAP:
        raise DimensionCap(f"dimension {n} exceeds the cap {DIM_CAP}")


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    check_dim(a.shape[0])
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def frob(a) -> float:
    """Frobenius norm; the norm convention used throughout the package.
    Real input takes ``np.linalg.norm``'s route without its wrapper."""
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        return float(np.linalg.norm(x))
    return math.sqrt(x.dot(x))


def dot_rows(a, b) -> np.ndarray:
    """Dot product of each row of two real (m, k) stacks, by one stacked
    ``@``: row i has the bits of ``a[i] @ b[i]`` when the rows are
    contiguous (the same BLAS dot runs), where ``einsum`` sums in
    another order."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def frob_rows(stack) -> np.ndarray:
    """``frob`` of each entry of a real stack along its leading axis, with
    the same bits: each entry is read in the order ``frob`` reads it
    (memory order, ``ravel(order="K")``) and squared and summed by one
    stacked ``@``."""
    x = np.asarray(stack)
    axes = sorted(range(1, x.ndim), key=lambda k: -abs(x.strides[k]))
    rows = np.ascontiguousarray(x.transpose(0, *axes).reshape(len(x), -1))
    return np.sqrt(dot_rows(rows, rows))


def frob_ratio_rows(num, den, one=1.0) -> np.ndarray:
    """``frob(num[i]) / (one + frob(den[i]))`` for each row, with the bits
    of the per-row Python floats and their silence: inf / inf is NaN
    without a warning."""
    with np.errstate(invalid="ignore"):
        return frob_rows(num) / (one + frob_rows(den))


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class MonicPoly:
    """Monic real polynomial, stored by its non-leading coefficients.

    ``coeffs[k]`` multiplies ``t**k``; the coefficient of ``t**degree``
    (with ``degree == len(coeffs)``) is implicitly 1.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, t):
        acc = 1.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_matrix(self, a: np.ndarray, da=None, dcoeffs=None):
        """Horner evaluation of the polynomial at a square matrix.

        Forward mode: given directions ``da`` of shape (K, n, n), returns
        ``(value, derivative)`` with ``derivative[k]`` the derivative of
        the value along ``da[k]``; ``dcoeffs`` of shape (K, degree), when
        given, moves the coefficients along with the matrix.  The value
        has the same bits either way.
        """
        a = np.asarray(a)
        eye = np.eye(a.shape[0], dtype=a.dtype)
        acc = eye
        if da is not None:
            dacc = np.zeros(np.shape(da))
        for j in reversed(range(self.degree)):
            if da is not None:
                # d(acc a + c_j) = dacc a + acc da + dc_j
                dacc = dacc @ a + acc @ da
                if dcoeffs is not None:
                    dacc = dacc + dcoeffs[:, j, None, None] * eye
            acc = acc @ a + self.coeffs[j] * eye
        return acc if da is None else (acc, dacc)

    def multiply(self, other: "MonicPoly") -> "MonicPoly":
        full_a = np.array(self.coeffs + (1.0,))
        full_b = np.array(other.coeffs + (1.0,))
        prod = np.convolve(full_a, full_b)
        return MonicPoly(tuple(prod[:-1]))

    @classmethod
    def from_roots(cls, roots) -> "MonicPoly":
        """Monic polynomial with the given (conjugation-closed) roots."""
        roots = np.asarray(roots, dtype=complex)
        if roots.size == 0:
            return cls(())
        full = np.poly(roots)  # descending, leading 1
        scale = 1.0 + float(np.max(np.abs(full)))
        if np.max(np.abs(full.imag)) > 1e-9 * scale:
            raise NotConjugationClosed(
                "root multiset is not closed under conjugation; "
                "coefficients came out non-real"
            )
        asc = full.real[::-1]
        return cls(tuple(asc[:-1]))


def char_poly(a, da=None):
    """Characteristic polynomial det(t*Id - A) via the Faddeev-LeVerrier
    trace recursion.

    Forward mode: given directions ``da`` of shape (K, n, n), returns
    ``(poly, dcoeffs)`` with ``dcoeffs[k, j]`` the derivative of
    ``poly.coeffs[j]`` along ``da[k]``, differentiated through the same
    recursion; the coefficients have the same bits either way.
    """
    a = _as_square(a)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    eye = np.eye(n)
    m = eye
    if da is not None:
        da = np.asarray(da, dtype=float)
        dcoeffs = np.zeros((len(da), n))
        dm = np.zeros_like(da)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[n - k] = c
        if da is not None:
            dam = da @ m + a @ dm
            dc = -np.trace(dam, axis1=1, axis2=2) / k
            dcoeffs[:, n - k] = dc
            dm = dam + dc[:, None, None] * eye
        m = am + c * eye
    poly = MonicPoly(tuple(coeffs[:n]))
    return poly if da is None else (poly, dcoeffs)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with algebraic multiplicities, canonically sorted.

    Entries are ``(value, multiplicity)`` pairs sorted by (real part,
    imaginary part).  Conjugate pairs are stored exactly conjugate.
    """

    entries: tuple

    def __post_init__(self):
        ents = tuple((complex(z), int(m)) for z, m in self.entries)
        ents = tuple(sorted(ents, key=lambda e: (e[0].real, e[0].imag)))
        object.__setattr__(self, "entries", ents)

    @property
    def dim(self) -> int:
        return sum(m for _, m in self.entries)

    def eigenvalues(self) -> list:
        """All eigenvalues repeated by multiplicity, canonical order."""
        out = []
        for z, m in self.entries:
            out.extend([z] * m)
        return out

    def values(self) -> list:
        return [z for z, _ in self.entries]


def unpaired_conjugate(values, tol: float, real_tol: float):
    """First value of the multiset whose conjugate is missing, or None.

    The conjugation-closure test shared by every caller.  A value z counts
    as real when ``|Im z| <= real_tol * s`` and is skipped; otherwise the
    values within ``tol * s`` of conj(z) must be as many as those within
    ``tol * s`` of z, with ``s = 1 + |z|``.
    """
    vals = [complex(v) for v in values]
    for z in vals:
        s = 1.0 + abs(z)
        if abs(z.imag) <= real_tol * s:
            continue
        near_conj = sum(abs(w - z.conjugate()) <= tol * s for w in vals)
        if near_conj != sum(abs(w - z) <= tol * s for w in vals):
            return z
    return None


def cluster_indices(values, radius: float) -> list:
    """Greedy conjugation-closed clustering of complex values.

    Values are visited in canonical (real, imag) order; each value not yet
    placed seeds a cluster that takes every unplaced value within
    ``radius`` of the seed or of its conjugate.  Returns the clusters as
    tuples of indices into ``values``, members in canonical order, so the
    result is deterministic.
    """
    vals = [complex(v) for v in values]
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    placed = set()
    clusters = []
    for pos, i in enumerate(order):
        if i in placed:
            continue
        seed, mirror = vals[i], vals[i].conjugate()
        members = tuple(
            j for j in order[pos:]
            if j not in placed
            and (abs(vals[j] - seed) <= radius or abs(vals[j] - mirror) <= radius)
        )
        placed.update(members)
        clusters.append(members)
    return clusters


def eigen(a, cluster_tol: float | None = None) -> Spectrum:
    """Eigenvalues of a real matrix, grouped into a Spectrum.

    The backward error of the underlying QR iteration is far below
    ``1e-9 * ||A||`` for matrices in the supported size range.  Complex
    eigenvalues are returned in exactly conjugate pairs.  ``cluster_tol``
    is the radius used to merge nearby values into a single entry with
    multiplicity; the default ``sqrt(eps) * (1 + ||A||)`` also absorbs the
    eigenvalue splitting of nontrivial Jordan blocks.
    """
    a = _as_square(a)
    n = a.shape[0]
    scale = 1.0 + frob(a)
    if cluster_tol is None:
        cluster_tol = math.sqrt(_EPS) * scale
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc

    # LAPACK returns the complex eigenvalues of a real matrix in exactly
    # conjugate pairs, so the upper half-plane values stand for both (the
    # count check below catches a lost partner)
    real_mask = np.abs(w.imag) <= cluster_tol
    reals = w.real[real_mask]
    paired = w[(~real_mask) & (w.imag > 0)]

    entries = []
    for members in cluster_indices(reals, cluster_tol):
        entries.append((complex(np.mean([reals[i] for i in members]), 0.0), len(members)))
    for members in cluster_indices(paired, cluster_tol):
        rep = sum(paired[i] for i in members) / len(members)
        entries.append((rep, len(members)))
        entries.append((rep.conjugate(), len(members)))

    spec = Spectrum(tuple(entries))
    if spec.dim != n:
        raise NoConvergence("internal inconsistency grouping eigenvalues")
    return spec


# ---------------------------------------------------------------------------
# scalar functions and the functional calculus


@dataclass(frozen=True)
class ScalarFunction:
    """Complex-analytic scalar function with derivatives of all orders.

    Carries closures for the value, the k-th derivative and a domain
    predicate.  Functions used with the matrix calculus must satisfy
    f(conj z) == conj(f(z)); this is verified pointwise on the spectrum.
    """

    name: str
    _value: Callable
    _deriv: Callable
    _domain: Callable

    def value(self, z) -> complex:
        return self.deriv(z, 0)

    def deriv(self, z, k: int) -> complex:
        """The k-th derivative at z; an overflow raises ``DomainError``."""
        try:
            return complex(self._deriv(complex(z), int(k)) if k else self._value(complex(z)))
        except OverflowError as exc:
            raise DomainError(f"{self.name} overflows at eigenvalue {z} ({exc})") from None

    def domain_ok(self, z) -> bool:
        return bool(self._domain(complex(z)))

    def conj_symmetric_at(self, z) -> bool:
        z = complex(z)
        if not (self.domain_ok(z) and self.domain_ok(z.conjugate())):
            return False
        fz = self.value(z)
        fzb = self.value(z.conjugate())
        return abs(fzb - fz.conjugate()) <= 1e-8 * (1.0 + abs(fz))

    # -- constructors -------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "ScalarFunction":
        """Real polynomial c0 + c1 z + ... + cd z^d."""
        cs = tuple(float(c) for c in coeffs)

        def val(z):
            acc = 0.0 + 0.0j
            for c in reversed(cs):
                acc = acc * z + c
            return acc

        def der(z, k):
            if k >= len(cs):
                return 0.0 + 0.0j
            acc = 0.0 + 0.0j
            for i in range(len(cs) - 1, k - 1, -1):
                f = math.prod(range(i - k + 1, i + 1))
                acc = acc * z + cs[i] * f
            return acc

        label = "poly:" + ",".join(repr(c) for c in cs)
        return cls(label, val, der, lambda z: True)

    @classmethod
    def one(cls) -> "ScalarFunction":
        return cls("one", lambda z: 1.0 + 0.0j, lambda z, k: 0.0 + 0.0j, lambda z: True)

    @classmethod
    def identity(cls) -> "ScalarFunction":
        return cls.polynomial((0.0, 1.0))

    @classmethod
    def exponential(cls) -> "ScalarFunction":
        return cls("exp", cmath.exp, lambda z, k: cmath.exp(z), lambda z: True)

    @classmethod
    def reciprocal(cls, c: float) -> "ScalarFunction":
        """f(z) = 1 / (z - c) for a real shift c outside the spectrum."""
        c = float(c)

        def val(z):
            return 1.0 / (z - c)

        def der(z, k):
            f = math.prod(range(1, k + 1))
            return ((-1.0) ** k) * f / (z - c) ** (k + 1)

        return cls(f"recip:{c!r}", val, der, lambda z: abs(z - c) > 1e-12 * (1 + abs(c)))

    @classmethod
    def sqrt(cls) -> "ScalarFunction":
        """Principal square root; domain excludes the branch cut (-inf, 0]."""
        def val(z):
            return cmath.sqrt(z)

        def der(z, k):
            coef = 1.0
            for j in range(k):
                coef *= 0.5 - j
            return coef * cmath.exp((0.5 - k) * cmath.log(z))

        def dom(z):
            return not (z.real <= 0.0 and abs(z.imag) <= 1e-12 * (1.0 + abs(z)))

        return cls("sqrt", val, der, dom)


def _hermite_coefficients(nodes, f: ScalarFunction):
    """Newton coefficients of the Hermite interpolant of ``f``.

    ``nodes`` is a list of (value, multiplicity) pairs.  The divided
    difference table is confluent: entries spanning a single repeated node
    are filled with scaled derivatives of ``f``.
    """
    seq_z: list[complex] = []
    seq_id: list[int] = []
    for idx, (z, m) in enumerate(nodes):
        seq_z.extend([z] * m)
        seq_id.extend([idx] * m)
    total = len(seq_z)
    table = [[0.0 + 0.0j] * total for _ in range(total)]
    for i in range(total):
        table[i][i] = f.value(seq_z[i])
    for span in range(1, total):
        for i in range(total - span):
            j = i + span
            if seq_id[i] == seq_id[j]:
                table[i][j] = f.deriv(seq_z[i], span) / math.factorial(span)
            else:
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / (seq_z[j] - seq_z[i])
    coeffs = [table[0][j] for j in range(total)]
    return seq_z, coeffs


def _newton_value(a, nodes, coeffs, da=None):
    """The Newton form sum_j coeffs[j] prod_{i<j} (A - nodes[i]) at the
    complex matrix ``a``; with directions ``da`` (K, n, n), also its
    derivative along each, by the product rule through every factor."""
    eye = np.eye(len(a), dtype=complex)
    result = coeffs[0] * eye
    prod = eye
    if da is not None:
        dprod = np.zeros(da.shape, dtype=complex)
        dresult = np.zeros(da.shape, dtype=complex)
    for j in range(1, len(coeffs)):
        factor = a - nodes[j - 1] * eye
        if da is not None:
            dprod = dprod @ factor + prod @ da
            dresult = dresult + coeffs[j] * dprod
        prod = prod @ factor
        result = result + coeffs[j] * prod
    return result if da is None else (result, dresult)


def matrix_function(a, f: ScalarFunction, da=None):
    """Evaluate f(A) by Hermite interpolation on the clustered spectrum.

    Eigenvalues within ``1e-8 * (1 + ||A||)`` are merged into a single
    interpolation node whose multiplicity is the summed algebraic
    multiplicity, so derivative information of ``f`` is reproduced on
    defective clusters.  The result of the complex Newton
    evaluation must be real up to ``1e-10 * ||result||``.

    Forward mode: given directions ``da`` of shape (K, n, n), returns
    ``(value, derivative)`` with ``derivative[k]`` the Frechet derivative
    of f at A along ``da[k]``.  That is the upper-right block of
    f([[A, da[k]], [0, A]]) (Higham, *Functions of Matrices*, 2008,
    ch. 3), whose spectrum is A's with every multiplicity doubled, so the
    Hermite interpolant on the doubled nodes reproduces it; its Newton
    form is differentiated along ``da[k]``.  The value has the same bits
    either way.
    """
    a = _as_square(a)
    spec = eigen(a, cluster_tol=1e-8 * (1.0 + frob(a)))

    for z, _ in spec.entries:
        if not f.domain_ok(z):
            raise DomainViolation(f"eigenvalue {z} outside the domain of {f.name}")
        if not f.conj_symmetric_at(z):
            raise SymmetryViolation(
                f"{f.name} violates conjugation symmetry at {z}"
            )

    ac = a.astype(complex)
    result = _newton_value(ac, *_hermite_coefficients(list(spec.entries), f))
    imag_norm = frob(result.imag)
    real_norm = frob(result.real)
    if imag_norm > 1e-10 * max(real_norm, 1e-300):
        raise ResidueTooLarge(
            f"imaginary residue {imag_norm:.3e} exceeds 1e-10 * ||result||"
        )
    value = np.ascontiguousarray(result.real)
    if da is None:
        return value
    doubled = [(z, 2 * m) for z, m in spec.entries]
    _, dresult = _newton_value(ac, *_hermite_coefficients(doubled, f),
                               np.asarray(da, dtype=float))
    return value, np.ascontiguousarray(dresult.real)
