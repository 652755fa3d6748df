"""Admissible factorizations of the characteristic polynomial.

An admissible factorization splits the characteristic polynomial of an
operator field into k >= 2 pairwise coprime monic factors whose root
groups stay separated and conjugation-closed over the whole chart.
Groups are fixed at the base point and continued to other points by
greedy nearest-value matching of eigenvalues along a straight sample
path, which starts at the nearest point the factorization has already
tracked (the base point at first).  The last step lands on the point
itself and each group's values are put in canonical order before its
factor is multiplied out, so a factor depends only on the operator value
there and the labels, not on the path or on which points came first.

The factor values come from the tracked eigenvalues; their derivatives
come from the derivative of char(L) through one linear solve with the
Sylvester (resultant) matrix of the factors (``factors_and_derivatives``),
and the cofactors' from the product rule (``cofactors``).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..errors import (AdmissibilityViolation, ConjugationViolation,
                      NotConjugationClosed)
from ..fields import OperatorField, stacked_fields
from ..smallmat import MonicPoly, char_poly, frob, unpaired_conjugate

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
    values: np.ndarray,
    labels: np.ndarray,
    p,
    eps_gap: float,
    start=None,
):
    """Continue the group labels of the eigenvalues ``values`` at ``start``
    (default: the chart base point) to the point p.

    Walks a straight path from ``start``, matching eigenvalues step to
    step; the last step is p itself.  Each try evaluates L along its path
    as one batch; if that raises, the walk evaluates L step by step, so
    the error that propagates is the first one the walk meets (a failed
    check of an earlier step included).  The first try takes
    ``max(1, ceil(PATH_STEPS * |p - start| / |p - p0|))`` steps, so no
    step is longer than those of the base-point path to p, and the step
    count doubles (up to ``MAX_PATH_STEPS``) whenever eigenvalues move
    more than a quarter of the admissibility gap within one step.
    Returns ``(values, labels, trusted)`` at p in matched order;
    ``trusted`` is False when a step still moved that far at the largest
    step count, where two groups may have met between steps.
    """
    chart = L.chart
    p = np.asarray(p, dtype=float)
    p0 = np.asarray(chart.base_point)
    start = p0 if start is None else np.asarray(start, dtype=float)
    if np.array_equal(p, start):
        return values.copy(), labels.copy(), True

    hop, reach = float(np.linalg.norm(p - start)), float(np.linalg.norm(p - p0))
    steps = PATH_STEPS if hop >= reach else max(1, math.ceil(PATH_STEPS * hop / reach))
    start_values, start_labels = values, labels
    while True:
        qs = [start + (k / steps) * (p - start) for k in range(1, steps)] + [p]
        try:
            lvs = L.value(np.array(qs))
        except Exception:
            lvs = map(L.value, qs)
        prev = start_values.copy()
        labels = start_labels.copy()
        ok = trusted = True
        for q, lv in zip(qs, lvs):
            cur = _paired_eigvals(lv)
            perm, moved = _greedy_match(prev, cur)
            prev = cur[perm]
            gap = _check_step(prev, labels, q, eps_gap)
            # matching is trustworthy only while per-step motion stays
            # well below the actual group separation
            if moved > 0.25 * gap:
                if steps < MAX_PATH_STEPS:
                    ok = False
                    break
                trusted = False
        if ok:
            return prev, labels, trusted
        steps *= 2


def _min_gap(groups) -> float:
    """Smallest distance between two values of different groups."""
    return min(float(np.min(np.abs(a[:, None] - b[None, :])))
               for a, b in itertools.combinations(groups, 2))


def _check_step(values, labels, q, eps_gap):
    """Validate one tracking step; returns the min cross-group gap."""
    groups = [values[labels == c] for c in sorted(set(labels))]
    gap = _min_gap(groups)
    if gap < eps_gap:
        raise AdmissibilityViolation(
            f"group gap {gap:.3e} below {eps_gap:.3e} at {q}",
            point=q,
            witness=gap,
        )
    if not np.any(values.imag):
        return gap
    for grp in groups:
        z = unpaired_conjugate(grp, 1e-8, real_tol=1e-12)
        if z is not None:
            raise ConjugationViolation(
                f"conjugate of {z} left its group near {q}", point=q
            )
    return gap


class FactorizationResult:
    """Tracked factorization of char(L) over a chart, one monic factor per
    eigenvalue group.

    ``groups_at``/``chi_at`` return one entry per group, in group order,
    at arbitrary chart points; the groups and their factors are built
    once per point and cached.  A new point is tracked from the nearest
    point whose own path was trusted (the base point at first), and from
    the base point when that shorter path is not trusted, so labels pass
    on only along paths where the groups never came near each other.
    ``r`` is the degree of the first factor.
    """

    def __init__(self, L: OperatorField, base_values, base_labels, eps_gap: float):
        self.lfield = L
        self.chart = L.chart
        self.base_values = np.asarray(base_values, dtype=complex)
        self.base_labels = np.asarray(base_labels, dtype=int)
        self.eps_gap = float(eps_gap)
        self._cache: dict = {}
        # points tracked on trusted paths, and their (values, labels):
        # the starts of later paths
        self._points = [np.asarray(self.chart.base_point)]
        self._states = [(self.base_values, self.base_labels)]

    @property
    def r(self) -> int:
        return int(np.sum(self.base_labels == 0))

    def groups_at(self, p):
        """Eigenvalues of each group at p, in canonical order."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key not in self._cache:
            near = int(np.argmin(np.linalg.norm(np.array(self._points) - p, axis=1)))
            values, labels, trusted = track_eigenvalue_groups(
                self.lfield, *self._states[near], p, self.eps_gap,
                start=self._points[near])
            if not trusted and near:
                # the short path may have passed where groups meet: take
                # the base-point path, as if no point had come before
                values, labels, trusted = track_eigenvalue_groups(
                    self.lfield, self.base_values, self.base_labels, p, self.eps_gap)
            order = np.lexsort((values.imag, values.real))
            values, labels = values[order], labels[order]
            if trusted:
                self._points.append(p)
                self._states.append((values, labels))
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

    def gap_at(self, p) -> float:
        """Smallest distance between eigenvalues of different groups at p."""
        return _min_gap(self.groups_at(p))


def _shifted(poly: MonicPoly, count: int, width: int) -> np.ndarray:
    """Row j < count: the first ``width`` ascending coefficients of
    x^j poly(x), leading 1 included."""
    full = poly.coeffs + (1.0,)
    out = np.zeros((count, width))
    for j in range(count):
        out[j, j:j + len(full)] = full
    return out


def factors_and_derivatives(fact: FactorizationResult, p, lv, dl):
    """The tracked factors chi_i at p and their coefficient derivatives
    along the directions ``dl`` (K, n, n) of the operator value ``lv``.

    Differentiating char = chi_1 ... chi_k gives dchar = sum_i dchi_i W_i,
    with dchi_i of degree below deg chi_i: a linear system M dc = dchar
    whose n columns are the coefficients of x^j W_i, j < deg chi_i (the
    Sylvester matrix of the factors, invertible exactly when they are
    pairwise coprime); dchar comes from ``char_poly(lv, dl)``.  Returns
    ``(chis, dchis)`` with ``dchis[i]`` of shape (K, deg chi_i).
    """
    chis = fact.chi_at(p)
    _, dchar = char_poly(lv, dl)
    n = len(lv)
    m = np.vstack([_shifted(w, chi.degree, n) for chi, w in zip(chis, cofactors(chis))])
    try:
        dc = np.linalg.solve(m.T, dchar.T).T
    except np.linalg.LinAlgError:
        raise AdmissibilityViolation(
            f"group factors share a root at {np.asarray(p)}", point=p) from None
    return chis, np.split(dc, np.cumsum([chi.degree for chi in chis])[:-1], axis=1)


def cofactors(chis, dchis=None):
    """Cofactors W_i = prod_{j != i} chi_j of the group factors ``chis``;
    with two groups W_1 = chi_2 and W_2 = chi_1.

    Forward mode: given the factors' coefficient derivatives ``dchis``
    (one (K, deg chi_j) array each), returns ``(ws, dws)`` with the
    derivatives dW_i = sum_{j != i} dchi_j prod_{l != i, j} chi_l, each
    of shape (K, deg W_i).
    """
    k = len(chis)
    ws = tuple(functools.reduce(MonicPoly.multiply, chis[:i] + chis[i + 1:])
               for i in range(k))
    if dchis is None:
        return ws
    dws = []
    for i, w in enumerate(ws):
        dw = np.zeros((len(dchis[i]), w.degree))
        for j in range(k):
            if j != i:
                rest = functools.reduce(MonicPoly.multiply,
                                        [chis[l] for l in range(k) if l not in (i, j)],
                                        MonicPoly(()))
                dw += dchis[j] @ _shifted(rest, chis[j].degree, w.degree)
        dws.append(dw)
    return ws, tuple(dws)


def inverse_and_derivative(s, ds, p):
    """S^-1 for a sum of cofactor matrices S and its derivatives
    d(S^-1) = -S^-1 dS S^-1 along ``ds`` (K, n, n).  S is singular only
    when two groups share an eigenvalue, which is an
    ``AdmissibilityViolation`` at p."""
    try:
        sinv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        raise AdmissibilityViolation(
            f"cofactor sum singular at {np.asarray(p)}", point=p) from None
    return sinv, -sinv @ ds @ sinv


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
    gap = _min_gap(groups)
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
    The fields share one batch closure with an exact jacobian, forward
    mode through the factor derivatives, ``eval_matrix`` and d(S^-1) =
    -S^-1 dS S^-1, whose values have the same bits with or without it.
    """
    n = L.chart.dim

    def stack(rows, derivative):
        # every projector (m, k, n, n) and, with ``derivative``, their
        # derivatives (m, n, k, n, n); without it there are no directions
        if derivative:
            lvs, dls = L.value_and_derivative(rows)
        else:
            lvs, dls = L.value(rows), np.zeros((len(rows), 0, n, n))
        vals, derivs = [], []
        for q, lv, dl in zip(rows, lvs, dls):
            ws, dws = cofactors(*factors_and_derivatives(fact, q, lv, dl))
            a, da = zip(*(w.eval_matrix(lv, dl, dw) for w, dw in zip(ws, dws)))
            sinv, dsinv = inverse_and_derivative(sum(a[1:], a[0]), sum(da[1:], da[0]), q)
            vals.append([ai @ sinv for ai in a])
            derivs.append([dai @ sinv + ai @ dsinv for ai, dai in zip(a, da)])
        if not derivative:
            return np.array(vals)
        return np.array(vals), np.array(derivs).swapaxes(1, 2)

    return stacked_fields(OperatorField, L.chart, int(fact.base_labels.max()) + 1,
                          jac=stack)
