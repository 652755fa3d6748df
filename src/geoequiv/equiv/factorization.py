"""Admissible factorizations of the characteristic polynomial.

An admissible factorization splits the characteristic polynomial of an
operator field into k >= 2 pairwise coprime monic factors whose root
groups stay separated and conjugation-closed over the whole chart.
Groups are fixed at the base point and continued to other points by
greedy nearest-value matching of eigenvalues along the straight path
from the base point.  The points of one batch are tracked together: all
their paths advance in lockstep, with one batch of operator values and
one stacked eigenvalue call per step.  The last step lands on the point
itself and each group's values are put in canonical order before its
factor is multiplied out, so a factor depends only on the operator value
there and the labels; and since every path leaves from the base point,
the labels depend on the point alone, not on which points came before.
An error a path meets belongs to its point and is raised when that
point's groups are read.

The factor values come from the tracked eigenvalues; their derivatives
come from the derivative of char(L) through one linear solve with the
Sylvester (resultant) matrix of the factors (``factors_and_derivatives``),
and the cofactors' from the product rule (``cofactors``).
"""

from __future__ import annotations

import functools

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
    """Greedy globally-minimal matching of each row of the (m, n) batches
    ``prev`` and ``cur``: pairs are taken in increasing distance (the
    first in row-major order on ties) while their row and column are both
    free, one pair per round for every row.  Returns perm (m, n) with
    cur[r, perm[r, i]] tracking prev[r, i], and each row's largest
    matched distance (m,)."""
    m, n = prev.shape
    dist = np.abs(prev[:, :, None] - cur[:, None, :])
    free = dist.copy()
    perm = np.empty((m, n), dtype=int)
    moved = np.zeros(m)
    at = np.arange(m)
    for _ in range(n):
        i, j = np.divmod(free.reshape(m, n * n).argmin(axis=1), n)
        perm[at, i] = j
        moved = np.maximum(moved, dist[at, i, j])
        free[at, i, :] = np.inf
        free[at, :, j] = np.inf
    return perm, moved


def _gaps(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Smallest distance between two values of different groups, for each
    row of the (m, n) batches of values and their group labels."""
    dist = np.abs(values[:, :, None] - values[:, None, :])
    return np.where(labels[:, :, None] != labels[:, None, :], dist, np.inf).min(axis=(1, 2))


def _check_groups(values, labels, q, gap, eps_gap):
    """Validate the groups at one point (a tracking step, or the base
    point), given their min cross-group ``gap``: it must reach
    ``eps_gap``, and no group may hold a value without its conjugate."""
    if gap < eps_gap:
        raise AdmissibilityViolation(
            f"group gap {gap:.3e} below {eps_gap:.3e} at {q}",
            point=q,
            witness=gap,
        )
    if not np.any(values.imag):
        return
    for c in sorted(set(labels.tolist())):
        z = unpaired_conjugate(values[labels == c], 1e-9, real_tol=1e-12)
        if z is not None:
            raise ConjugationViolation(
                f"conjugate of {z} left its group near {q}", point=q
            )


class _Walk:
    """One point's straight path from the base point ``p0``, whose values
    and labels are ``base``: the step count, the step reached and its
    point ``q``, and the values matched so far.  ``outcome`` is None while
    the walk goes on, then ``(values, labels)`` at the point, or the error
    the walk met."""

    def __init__(self, p, p0, base):
        self.p, self.p0 = p, p0
        self.base_values, self.labels = base
        self.outcome = None
        if np.array_equal(p, p0):
            self.outcome = base
        else:
            self.retry(PATH_STEPS)

    def retry(self, steps):
        self.steps, self.k, self.prev = steps, 1, self.base_values

    def step_point(self):
        self.q = (self.p if self.k == self.steps
                  else self.p0 + (self.k / self.steps) * (self.p - self.p0))
        return self.q

    def advance(self, matched, real, moved, gap):
        """Take the values matched at step k; then retry with twice the
        steps, or go on, or finish."""
        self.prev = matched
        # matching is trustworthy only while per-step motion stays well
        # below the actual group separation; past the largest step count
        # the walk goes on regardless (ROADMAP item 2)
        if moved > 0.25 * gap and self.steps < MAX_PATH_STEPS:
            self.retry(2 * self.steps)
        elif self.k < self.steps:
            self.k += 1
        else:
            self.outcome = (matched.real if real else matched, self.labels)


def _stacked(fn, walks, items):
    """``fn`` of the stacked ``items``, one per walk.  If that raises,
    ``fn`` runs on one item at a time, and a walk whose item raises ends
    with that error.  Returns the walks whose items gave a value, and the
    values stacked."""
    try:
        return walks, fn(np.asarray(items))
    except Exception:
        kept, outs = [], []
        for walk, item in zip(walks, items):
            try:
                outs.append(fn(item[None])[0])
            except Exception as exc:
                walk.outcome = exc
            else:
                kept.append(walk)
        return kept, np.array(outs)


def track_eigenvalue_groups(L: OperatorField, rows, base, eps_gap: float):
    """Continue group labels from the base point to each row of the (m, n)
    batch ``rows``, all paths in lockstep.

    ``base`` holds the ``(values, labels)`` at the base point p0.  Each row
    walks the straight path from p0, matching eigenvalues step to step;
    the last step is the row itself, so a row's groups depend on the row
    alone.  A step evaluates L once for every row still walking and takes
    their eigenvalues in one stacked call; if that raises, the step runs
    one row at a time, so each row meets its own error at its own step.
    A path's first try takes ``PATH_STEPS`` steps, and its step count
    doubles (up to ``MAX_PATH_STEPS``) whenever eigenvalues move more than
    a quarter of the admissibility gap within one step.

    Returns one entry per row: ``(values, labels)`` at the row in matched
    order, real where the row's spectrum is real (as ``eigvals`` gives a
    single matrix's), or the first error its walk met (a failed check of
    a step, or an error of L or ``eigvals`` there).
    """
    p0 = np.asarray(L.chart.base_point)
    walks = [_Walk(p, p0, base) for p in rows]
    active = [w for w in walks if w.outcome is None]
    while active:
        going, eigs = _stacked(lambda qs: np.linalg.eigvals(L.value(qs)), active,
                               [w.step_point() for w in active])
        if going:
            cur = np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real), axis=-1), -1)
            perm, moved = _greedy_match(np.array([w.prev for w in going]), cur)
            matched = np.take_along_axis(cur, perm, -1)
            labels = np.array([w.labels for w in going])
            real = (~np.any(cur.imag, axis=1)).tolist()
            for w, vals, labs, is_real, mv, gap in zip(going, matched, labels, real,
                                                       moved.tolist(),
                                                       _gaps(matched, labels).tolist()):
                try:
                    _check_groups(vals, labs, w.q, gap, eps_gap)
                except (AdmissibilityViolation, ConjugationViolation) as exc:
                    w.outcome = exc
                else:
                    w.advance(vals, is_real, mv, gap)
        active = [w for w in active if w.outcome is None]
    return [w.outcome for w in walks]


class FactorizationResult:
    """Tracked factorization of char(L) over a chart, one monic factor per
    eigenvalue group.

    ``groups_at``/``chi_at`` return one entry per group, in group order,
    at arbitrary chart points; each point's groups come from the path
    from the base point to it, so they depend on the point alone.
    ``track_rows`` tracks a batch of points together and keeps their
    groups and factors until the next batch, as a field backing keeps
    its last batch; a read of a point outside it tracks that point as a
    batch of 1.  An error met on a point's path is kept with the point
    and raised whenever its groups or factors are read.  ``r`` is the
    degree of the first factor.
    """

    def __init__(self, L: OperatorField, base_values, base_labels, eps_gap: float):
        self.lfield = L
        self.chart = L.chart
        self.base_values = np.asarray(base_values, dtype=complex)
        self.base_labels = np.asarray(base_labels, dtype=int)
        self.eps_gap = float(eps_gap)
        self._cache: dict = {}  # the last batch: point bytes -> entry

    @property
    def r(self) -> int:
        return int(np.sum(self.base_labels == 0))

    def track_rows(self, rows):
        """Track the groups at every point of the (m, n) batch ``rows`` that
        the last batch does not hold, all in one ``track_eigenvalue_groups``
        call, and keep the batch in place of the last; reading its points
        later costs a lookup."""
        batch = {p.tobytes(): p for p in np.asarray(rows, dtype=float)}
        kept = {key: self._cache[key] for key in batch if key in self._cache}
        new = {key: p.copy() for key, p in batch.items() if key not in kept}
        if new:
            outcomes = track_eigenvalue_groups(self.lfield, list(new.values()),
                                               (self.base_values, self.base_labels),
                                               self.eps_gap)
            for (key, p), outcome in zip(new.items(), outcomes):
                if not isinstance(outcome, Exception):
                    try:
                        outcome = self._entry(p, *outcome)
                    except ConjugationViolation as exc:
                        outcome = exc
                kept[key] = outcome
        self._cache = kept

    @staticmethod
    def _entry(p, values, labels):
        """Cache entry at p from its tracked values: the groups and their
        factors; a factor with non-real coefficients raises
        ``ConjugationViolation``."""
        order = np.lexsort((values.imag, values.real))
        values, labels = values[order], labels[order]
        groups = tuple(values[labels == c] for c in range(labels.max() + 1))
        try:
            return groups, tuple(MonicPoly.from_roots(grp) for grp in groups)
        except NotConjugationClosed as exc:
            raise ConjugationViolation(
                f"factor coefficients not real at {p}: {exc}", point=p
            ) from exc

    def _read(self, p):
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key not in self._cache:
            self.track_rows(p[None])
        entry = self._cache[key]
        if isinstance(entry, Exception):
            raise entry.with_traceback(None)
        return entry

    def groups_at(self, p):
        """Eigenvalues of each group at p, in canonical order."""
        return self._read(p)[0]

    def chi_at(self, p):
        """Monic factor chi_i of each group at p."""
        return self._read(p)[1]

    def gap_at(self, p) -> float:
        """Smallest distance between eigenvalues of different groups at p."""
        groups = self.groups_at(p)
        labels = np.repeat(np.arange(len(groups)), [len(grp) for grp in groups])
        return float(_gaps(np.concatenate(groups)[None], labels[None])[0])


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
    ``(chis, dchis)`` with ``dchis[i]`` of shape (K, deg chi_i).  With no
    directions (K = 0, the value paths) neither runs: ``chi_at`` has
    already checked the groups' gap, so the factors share no root.
    """
    chis = fact.chi_at(p)
    if not len(dl):
        return chis, tuple(np.zeros((0, chi.degree)) for chi in chis)
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

    _check_groups(values, labels, p0, float(_gaps(values[None], labels[None])[0]), eps_gap)
    return FactorizationResult(L, values, labels, eps_gap)


def spectral_pieces(fact: FactorizationResult, q, lv, dl):
    """The per-point routine behind the projectors and the split pair: the
    cofactors W_i of the tracked factors at q, the matrices W_i(L) and
    S^-1 = (sum_i W_i(L))^-1, each with its derivatives along the
    directions ``dl`` (K, n, n) of the operator value ``lv``, by forward
    mode through ``factors_and_derivatives``, ``cofactors``,
    ``eval_matrix`` and ``inverse_and_derivative``; then the projectors
    W_i(L) S^-1 (k, n, n) and their derivatives (K, k, n, n).  Returns
    ``(ws, dws), (a, da), (sinv, dsinv), (projectors, derivatives)``."""
    ws, dws = cofactors(*factors_and_derivatives(fact, q, lv, dl))
    a, da = zip(*(w.eval_matrix(lv, dl, dw) for w, dw in zip(ws, dws)))
    sinv, dsinv = inverse_and_derivative(sum(a[1:], a[0]), sum(da[1:], da[0]), q)
    projs = (np.array([ai @ sinv for ai in a]),
             np.array([dai @ sinv + ai @ dsinv for ai, dai in zip(a, da)]).swapaxes(0, 1))
    return (ws, dws), (a, da), (sinv, dsinv), projs


def projectors(L: OperatorField, fact: FactorizationResult):
    """Spectral projector fields, one per tracked eigenvalue group.

    Projector i is W_i(L) S^{-1} with S = sum_j W_j(L) and the cofactors
    W_j of the tracked factors: on group j's invariant subspace every
    W_i(L) but the invertible W_j(L) vanishes, so S acts there as W_j(L).
    The fields share one batch closure over ``spectral_pieces`` with an
    exact jacobian, whose values have the same bits with or without it.
    """
    n, k = L.chart.dim, int(fact.base_labels.max()) + 1

    def stack(rows, derivative):
        vals = np.zeros((len(rows), k, n, n))
        derivs = np.zeros((len(rows), n if derivative else 0, k, n, n))
        if derivative:
            lvs, dls = L.value_and_derivative(rows)
        else:
            lvs, dls = L.value(rows), np.zeros((len(rows), 0, n, n))
        fact.track_rows(rows)
        for i, (q, lv, dl) in enumerate(zip(rows, lvs, dls)):
            vals[i], derivs[i] = spectral_pieces(fact, q, lv, dl)[3]
        return (vals, derivs) if derivative else vals

    return stacked_fields((OperatorField,) * k, L.chart, jac=stack)
