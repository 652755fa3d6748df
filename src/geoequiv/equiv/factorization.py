"""Admissible factorizations of the characteristic polynomial.

An admissible factorization splits the characteristic polynomial of an
operator field into two coprime monic factors whose root groups stay
separated and conjugation-closed over the whole chart.  Groups are fixed
at the base point and continued to other points by greedy nearest-value
matching of eigenvalues along a straight sample path.
"""

from __future__ import annotations

import numpy as np

from ..errors import AdmissibilityViolation, ConjugationViolation
from ..fields import OperatorField
from ..smallmat import (MonicPoly, frob, indicator_function, matrix_function,
                        unpaired_conjugate)

# straight-path steps of the group tracker: the first try, and the cap the
# step count doubles up to
PATH_STEPS = 8
MAX_PATH_STEPS = 128


def gap_tolerance(lv: np.ndarray) -> float:
    """Smallest admissible distance between two eigenvalue groups of the
    operator value ``lv``: ``1e-6 * (1 + ||lv||)``."""
    return 1e-6 * (1.0 + frob(lv))


def _paired_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues in canonical (real, imag) order.

    Real input matrices yield exactly conjugate pairs from the QR
    iteration, so no symmetry repair is needed here.
    """
    w = np.linalg.eigvals(a)
    return w[np.lexsort((w.imag, w.real))]


def _greedy_match(prev: np.ndarray, cur: np.ndarray):
    """Greedy globally-minimal matching; returns perm with
    cur[perm[i]] tracking prev[i], and the largest matched distance."""
    n = len(prev)
    dist = np.abs(prev[:, None] - cur[None, :])
    perm = np.full(n, -1)
    used_r = np.zeros(n, dtype=bool)
    used_c = np.zeros(n, dtype=bool)
    max_d = 0.0
    for _ in range(n):
        best = np.inf
        bi = bj = -1
        for i in range(n):
            if used_r[i]:
                continue
            for j in range(n):
                if used_c[j]:
                    continue
                if dist[i, j] < best:
                    best = dist[i, j]
                    bi, bj = i, j
        perm[bi] = bj
        used_r[bi] = True
        used_c[bj] = True
        max_d = max(max_d, best)
    return perm, max_d


def track_eigenvalue_groups(
    L: OperatorField,
    base_values: np.ndarray,
    base_labels: np.ndarray,
    p,
    eps_gap: float,
):
    """Continue the base-point group labels to the point p.

    Walks a straight path from the chart base point, matching eigenvalues
    step to step.  The step count doubles (from ``PATH_STEPS`` up to
    ``MAX_PATH_STEPS``) whenever eigenvalues move more than a quarter of
    the admissibility gap within one step.  Returns ``(values, labels)``
    at p in matched order.
    """
    chart = L.chart
    p = np.asarray(p, dtype=float)
    p0 = np.asarray(chart.base_point)
    if np.array_equal(p, p0):
        return base_values.copy(), base_labels.copy()

    steps = PATH_STEPS
    while True:
        prev = base_values.copy()
        labels = base_labels.copy()
        ok = True
        for k in range(1, steps + 1):
            q = p0 + (k / steps) * (p - p0)
            cur = _paired_eigvals(L.value(q))
            perm, moved = _greedy_match(prev, cur)
            prev = cur[perm]
            gap = _check_step(prev, labels, q, eps_gap)
            # matching is trustworthy only while per-step motion stays
            # well below the actual group separation
            if moved > 0.25 * gap and steps < MAX_PATH_STEPS:
                ok = False
                break
        if ok:
            return prev, labels
        steps *= 2


def _check_step(values, labels, q, eps_gap):
    """Validate one tracking step; returns the min cross-group gap."""
    all_real = not np.any(values.imag)
    groups = [values[labels == c] for c in sorted(set(labels))]
    min_gap = np.inf
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            if not (len(groups[a]) and len(groups[b])):
                continue
            gap = np.min(np.abs(groups[a][:, None] - groups[b][None, :]))
            min_gap = min(min_gap, float(gap))
            if gap < eps_gap:
                raise AdmissibilityViolation(
                    f"group gap {gap:.3e} below {eps_gap:.3e} at {q}",
                    point=q,
                    witness=gap,
                )
    if all_real:
        return min_gap
    for grp in groups:
        z = unpaired_conjugate(grp, 1e-8, real_tol=1e-12)
        if z is not None:
            raise ConjugationViolation(
                f"conjugate of {z} left its group near {q}", point=q
            )
    return min_gap


class FactorizationResult:
    """Tracked two-group factorization of char(L) over a chart.

    ``groups_at``/``chi_at`` evaluate the factor data at arbitrary chart
    points; results are cached per point.  ``r`` is the degree of the
    first factor.
    """

    def __init__(self, L: OperatorField, base_values, base_labels, eps_gap: float):
        self.lfield = L
        self.chart = L.chart
        self.base_values = np.asarray(base_values, dtype=complex)
        self.base_labels = np.asarray(base_labels, dtype=int)
        self.eps_gap = float(eps_gap)
        self._cache: dict = {}

    @property
    def r(self) -> int:
        return int(np.sum(self.base_labels == 0))

    def groups_at(self, p):
        """Eigenvalues of the two groups at p (tracked from the base)."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key not in self._cache:
            values, labels = track_eigenvalue_groups(
                self.lfield, self.base_values, self.base_labels, p, self.eps_gap
            )
            self._cache[key] = (values[labels == 0], values[labels == 1])
        return self._cache[key]

    def chi_at(self, p):
        """Monic factor pair (chi1, chi2) at p."""
        g1, g2 = self.groups_at(p)
        try:
            return MonicPoly.from_roots(g1), MonicPoly.from_roots(g2)
        except Exception as exc:
            raise ConjugationViolation(
                f"factor coefficients not real at {np.asarray(p)}: {exc}",
                point=p,
            ) from exc


def admissible_factorization(L: OperatorField, grouping) -> FactorizationResult:
    """Fix a two-group partition of the base-point spectrum of L.

    ``grouping`` is a pair of index tuples into the canonically sorted
    eigenvalue list (sorted by real part, then imaginary part, repeated by
    multiplicity).  Both parts must be nonempty, together exhaust the
    spectrum, keep conjugate pairs together, and be separated by at least
    ``gap_tolerance`` of L at the base point.
    """
    chart = L.chart
    p0 = np.asarray(chart.base_point)
    lv = L.value(p0)
    values = _paired_eigvals(lv)
    n = len(values)
    eps_gap = gap_tolerance(lv)

    idx1, idx2 = (tuple(int(i) for i in grp) for grp in grouping)
    if not idx1 or not idx2:
        raise AdmissibilityViolation("both groups must be nonempty")
    if sorted(idx1 + idx2) != list(range(n)):
        raise AdmissibilityViolation(
            f"grouping must partition the {n} base eigenvalue indices, "
            f"got {idx1} | {idx2}"
        )
    labels = np.empty(n, dtype=int)
    labels[list(idx1)] = 0
    labels[list(idx2)] = 1

    g1 = values[labels == 0]
    g2 = values[labels == 1]
    for name, grp in (("first", g1), ("second", g2)):
        z = unpaired_conjugate(grp, 1e-9, real_tol=1e-12)
        if z is not None:
            raise ConjugationViolation(
                f"{name} group splits the conjugate pair of {z}"
            )
    gap = float(np.min(np.abs(g1[:, None] - g2[None, :])))
    if gap < eps_gap:
        raise AdmissibilityViolation(
            f"base-point group gap {gap:.3e} below eps_gap {eps_gap:.3e}",
            point=p0,
            witness=gap,
        )
    return FactorizationResult(L, values, labels, eps_gap)


def projectors(L: OperatorField, fact: FactorizationResult):
    """Spectral projector fields onto the two tracked eigenvalue groups.

    Each projector is the operator function of L given by the indicator
    of its group; its range is the kernel of the complementary factor
    polynomial evaluated at L.
    """
    chart = L.chart

    def make(which):
        def fn(p):
            lv = L.value(p)
            g1, g2 = fact.groups_at(p)
            own, other = (g1, g2) if which == 0 else (g2, g1)
            f = indicator_function(own, other)
            return matrix_function(lv, f)

        return OperatorField.from_function(chart, fn)

    return make(0), make(1)
