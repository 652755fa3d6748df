"""Admissible factorizations of the characteristic polynomial.

An admissible factorization splits the characteristic polynomial of an
operator field into k >= 2 pairwise coprime monic factors whose root
groups stay separated and conjugation-closed over the whole chart.
Groups are fixed at the base point and continued to other points by
greedy nearest-value matching of eigenvalues along a straight sample
path.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..errors import (AdmissibilityViolation, ConjugationViolation,
                      NotConjugationClosed)
from ..fields import OperatorField
from ..smallmat import MonicPoly, frob, unpaired_conjugate

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
    """Greedy globally-minimal matching: pairs are taken in increasing
    distance (the first in row-major order on ties) while their row and
    column are both free.  Returns perm with cur[perm[i]] tracking prev[i],
    and the largest matched distance."""
    n = len(prev)
    dist = np.abs(prev[:, None] - cur[None, :])
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    max_d = 0.0
    for flat in np.argsort(dist, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if perm[i] < 0 and not used[j]:
            perm[i], used[j] = j, True
            max_d = max(max_d, dist[i, j])
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
    """Tracked factorization of char(L) over a chart, one monic factor per
    eigenvalue group.

    ``groups_at``/``chi_at`` return one entry per group, in group order,
    at arbitrary chart points; the groups and their factors are built
    once per point and cached.  ``r`` is the degree of the first factor.
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
        """Eigenvalues of each group at p (tracked from the base)."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key not in self._cache:
            values, labels = track_eigenvalue_groups(
                self.lfield, self.base_values, self.base_labels, p, self.eps_gap
            )
            groups = tuple(values[labels == c] for c in range(labels.max() + 1))
            try:
                chis = tuple(MonicPoly.from_roots(grp) for grp in groups)
            except NotConjugationClosed as exc:
                raise ConjugationViolation(
                    f"factor coefficients not real at {p}: {exc}", point=p
                ) from exc
            self._cache[key] = groups, chis
        return self._cache[key][0]

    def chi_at(self, p):
        """Monic factor chi_i of each group at p."""
        self.groups_at(p)
        return self._cache[np.asarray(p, dtype=float).tobytes()][1]


def cofactors(chis):
    """Cofactors W_i = prod_{j != i} chi_j of the group factors ``chis``;
    with two groups W_1 = chi_2 and W_2 = chi_1."""
    return tuple(functools.reduce(MonicPoly.multiply, chis[:i] + chis[i + 1:])
                 for i in range(len(chis)))


def admissible_factorization(L: OperatorField, grouping) -> FactorizationResult:
    """Fix a partition of the base-point spectrum of L into k >= 2 groups.

    ``grouping`` holds one index tuple per group into the canonically
    sorted eigenvalue list (sorted by real part, then imaginary part,
    repeated by multiplicity).  The parts must be nonempty, together
    exhaust the spectrum, keep conjugate pairs together, and be pairwise
    separated by at least ``gap_tolerance`` of L at the base point.
    """
    chart = L.chart
    p0 = np.asarray(chart.base_point)
    lv = L.value(p0)
    values = _paired_eigvals(lv)
    n = len(values)
    eps_gap = gap_tolerance(lv)

    parts = [tuple(int(i) for i in grp) for grp in grouping]
    if len(parts) < 2 or not all(parts):
        raise AdmissibilityViolation("at least two groups, each nonempty")
    if sorted(sum(parts, ())) != list(range(n)):
        raise AdmissibilityViolation(
            f"grouping must partition the {n} base eigenvalue indices, "
            f"got {' | '.join(map(str, parts))}"
        )
    labels = np.empty(n, dtype=int)
    for c, part in enumerate(parts):
        labels[list(part)] = c

    groups = [values[labels == c] for c in range(len(parts))]
    for c, grp in enumerate(groups):
        z = unpaired_conjugate(grp, 1e-9, real_tol=1e-12)
        if z is not None:
            raise ConjugationViolation(f"group {c} splits the conjugate pair of {z}")
    gap = min(float(np.min(np.abs(a[:, None] - b[None, :])))
              for a, b in itertools.combinations(groups, 2))
    if gap < eps_gap:
        raise AdmissibilityViolation(
            f"base-point group gap {gap:.3e} below eps_gap {eps_gap:.3e}",
            point=p0,
            witness=gap,
        )
    return FactorizationResult(L, values, labels, eps_gap)


def projectors(L: OperatorField, fact: FactorizationResult):
    """Spectral projector fields, one per tracked eigenvalue group.

    Projector i is W_i(L) S^{-1} with S = sum_j W_j(L) and the cofactors
    W_j of the tracked factors: on group j's invariant subspace every
    W_i(L) but the invertible W_j(L) vanishes, so S acts there as W_j(L).
    """

    def make(i):
        def fn(p):
            lv = L.value(p)
            ws = [w.eval_matrix(lv) for w in cofactors(fact.chi_at(p))]
            return ws[i] @ np.linalg.inv(sum(ws[1:], ws[0]))

        return OperatorField.from_function(L.chart, fn)

    return tuple(make(i) for i in range(fact.base_labels.max() + 1))
