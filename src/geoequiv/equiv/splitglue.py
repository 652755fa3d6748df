"""Splitting and gluing of geodesically equivalent pairs.

Splitting turns a pair (g, gbar) with an admissible factorization
chi = chi_1 ... chi_k of char(L), whose cofactors are W_i = prod_{j != i}
chi_j (W_1 = chi_2, W_2 = chi_1 for k = 2), into local-product metrics

    h    = g    (W_1(L) + ... + W_k(L))^{-1}
    hbar = gbar (W_1(L)/W_1(0) + ... + W_k(L)/W_k(0))^{-1}

whose blocks restrict to geodesically equivalent factor pairs; the
iterated decomposition takes its factors as those restrictions to the
leaves of an adapted chart.  Gluing is the pointwise inverse: from factor
pairs whose operator spectra are disjoint (checked on every pair of probe
points of the two factors) it assembles

    g    = diag(h1 chi2(L1),            h2 chi1(L2))
    gbar = diag(hbar1 chi2(L1)/chi2(0), hbar2 chi1(L2)/chi1(0))

on the product chart, with derivatives by the block chain rule through
the factors' derivatives and forward-mode chi and Horner evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DegenerateMetric,
    NonSymmetricResult,
    NotAdapted,
    SpectraOverlap,
    ZeroChiAtZero,
)
from ..fields import (PROBE_SEED, Chart, MetricField, OperatorField, as_batch,
                      in_point_order, nondegenerate, probe_points, restrict,
                      stacked_fields)
from ..smallmat import MonicPoly, char_poly, cluster_indices as _base_clusters, frob
from .core import compatibility_residual, l_tensor_field
from .factorization import (
    FactorizationResult,
    _paired_eigvals,
    admissible_factorization,
    gap_tolerance,
    inverse_and_derivative,
    spectral_pieces,
)


def _sym_checked(m: np.ndarray, p, what: str) -> np.ndarray:
    asym = frob(m - m.T)
    if asym > 1e-8 * (1.0 + frob(m)):
        raise NonSymmetricResult(
            f"{what} lost symmetry at {np.asarray(p)} (defect {asym:.3e})",
            point=p,
        )
    return 0.5 * (m + m.T)


def _chi_zero_checked(chi: MonicPoly, groups, p, label: str) -> float:
    c0 = chi(0.0)
    scale = (1.0 + max(abs(z) for z in groups)) ** max(chi.degree, 1)
    if abs(c0) <= 1e-10 * scale:
        raise ZeroChiAtZero(
            f"{label}(0) = {c0:.3e} numerically zero at {np.asarray(p)}; "
            "shift the operator by c * Id first",
            point=p,
        )
    return float(c0)


@dataclass
class SplitResult:
    """Local-product metrics, one projector field per group, and the
    factorization that produced them."""

    h: MetricField
    hbar: MetricField
    projectors: tuple
    factorization: FactorizationResult


def split(g: MetricField, gbar: MetricField, fact: FactorizationResult) -> SplitResult:
    """Splitting construction (see the module docstring) for a compatible
    pair and an admissible factorization into k >= 2 groups, each chi_j(0)
    away from zero: the fields of ``_split_fields``, with h and hbar
    probed for degeneracy on one batch of probe points, whose errors come
    out in point order."""
    h, hbar, *projs = _split_fields(g, gbar, fact)

    def probe(rows):
        for p, hv, hbv in zip(rows, h.value(rows), hbar.value(rows)):
            for name, m in (("h", hv), ("hbar", hbv)):
                if not nondegenerate(m):
                    raise DegenerateMetric(
                        f"split metric {name} degenerate at {p}", point=p
                    )

    in_point_order(probe, probe_points(g.chart, 30))
    return SplitResult(h, hbar, tuple(projs), fact)


def _split_fields(g: MetricField, gbar: MetricField, fact: FactorizationResult):
    """h, hbar and the k projectors of the splitting, built lazily: one
    batch closure over ``spectral_pieces`` with an exact jacobian, forward
    mode through the factor derivatives, ``eval_matrix``,
    d(S^-1) = -S^-1 dS S^-1 and the quotient rule for the 1/W_i(0)
    factors.  Its values have the same bits with or without the jacobian,
    and its checks run in the same order: h's symmetry, every chi_j(0),
    then hbar's symmetry.  The closure tracks the groups of its whole
    batch before its per-row loop."""
    chart = g.chart
    L = fact.lfield
    n, k = chart.dim, int(fact.base_labels.max()) + 1

    def stack(rows, derivative):
        fs = [_along_product(f, rows, 0, n, derivative) for f in (L, g, gbar)]
        vals = np.zeros((len(rows), 2 + k, n, n))
        derivs = np.zeros((len(rows), n if derivative else 0, 2 + k, n, n))
        fact.track_rows(rows)
        for i, q in enumerate(rows):
            (lv, dl), (gv, dg), (gbv, dgb) = ((v[i], d[i]) for v, d in fs)
            (ws, dws), (a, da), sinv, projs = spectral_pieces(fact, q, lv, dl)
            h = _sym_product(gv, dg, *sinv, q, "split metric h")
            for j, (chi, grp) in enumerate(zip(fact.chi_at(q), fact.groups_at(q))):
                _chi_zero_checked(chi, grp, q, f"chi{j + 1}")
            m, dm = zip(*(_over(ai, dai, w(0.0), dw[:, 0])
                          for ai, dai, w, dw in zip(a, da, ws, dws)))
            minv = inverse_and_derivative(sum(m[1:], m[0]), sum(dm[1:], dm[0]), q)
            hbar = _sym_product(gbv, dgb, *minv, q, "split metric hbar")
            vals[i, 0], derivs[i, :, 0] = h
            vals[i, 1], derivs[i, :, 1] = hbar
            vals[i, 2:], derivs[i, :, 2:] = projs
        return (vals, derivs) if derivative else vals

    return stacked_fields((MetricField,) * 2 + (OperatorField,) * k, chart, jac=stack)


# ---------------------------------------------------------------------------
# gluing


def _orientation_sign(h: MetricField, hbar: MetricField, L: OperatorField) -> float:
    """Sign relating hbar to the reconstruction (1/det L) h L^{-1} at the
    factor base point; the two must be proportional with ratio +-1."""
    p0 = h.chart.base_point
    hv = h.value(p0)
    hbv = hbar.value(p0)
    lv = L.value(p0)
    det = float(np.linalg.det(lv))
    if not nondegenerate(lv, det):
        raise ZeroChiAtZero(
            "factor tensor singular at its base point; shift it by c * Id",
            point=p0,
        )
    recon = hv @ np.linalg.inv(lv) / det
    sign = 1.0 if np.trace(hbv @ np.linalg.inv(recon)) > 0 else -1.0
    if frob(hbv - sign * recon) > 1e-6 * (1.0 + frob(hbv)):
        raise ValueError(
            "explicit factor tensor is inconsistent with its metric pair "
            "(second metric is not a signed reconstruction from (h, L))"
        )
    return sign


@dataclass
class GlueInput:
    """Factor pairs on two charts, with optional explicit pair tensors.

    When ``L1``/``L2`` are omitted they are computed from the factor
    metrics; passing them explicitly keeps the split/glue round trip
    exact and avoids the root-sign convention on the factors.
    """

    h1: MetricField
    hbar1: MetricField
    h2: MetricField
    hbar2: MetricField
    L1: OperatorField | None = None
    L2: OperatorField | None = None

    def __post_init__(self):
        if self.L1 is None:
            self.L1 = l_tensor_field(self.h1, self.hbar1)
        if self.L2 is None:
            self.L2 = l_tensor_field(self.h2, self.hbar2)
        self.chart1 = self.h1.chart
        self.chart2 = self.h2.chart
        self.product_chart = self.chart1.product(self.chart2)
        self.eps_gap = max(gap_tolerance(self.L1.value(self.chart1.base_point)),
                           gap_tolerance(self.L2.value(self.chart2.base_point)))
        # Each factor's second metric is +-1 times the reconstruction from
        # (h_i, L_i); those orientation signs decide whether the textbook
        # second-block coefficient needs a flip so that the assembled pair
        # is globally a (signed) reconstruction from the direct-sum tensor,
        # hence genuinely geodesically equivalent.  With matched factor
        # orientations the flip reduces to (-1)^dim.
        eps1 = _orientation_sign(self.h1, self.hbar1, self.L1)
        eps2 = _orientation_sign(self.h2, self.hbar2, self.L2)
        n = self.product_chart.dim
        self.block2_sign = eps1 * eps2 * (-1.0) ** n

    def check_disjoint(self):
        """Verify the factor spectra stay disjoint over sampled points:
        every probe point of one factor against every probe point of the
        other, from one stacked eigenvalue call per factor over its probe
        batch; the first failing pair in row-major order raises."""
        pts = (probe_points(self.chart1, 30),
               probe_points(self.chart2, 30, PROBE_SEED + 1))
        w1, w2 = (np.linalg.eigvals(in_point_order(f.value, rows))
                  for f, rows in zip((self.L1, self.L2), pts))
        gaps = np.abs(w1[:, None, :, None] - w2[None, :, None, :]).min(axis=(2, 3))
        bad = np.argwhere(gaps < self.eps_gap)
        if len(bad):
            a, b = bad[0]
            _check_separated(w1[a], w2[b], self.eps_gap,
                             np.concatenate([pts[0][a], pts[1][b]]))


def _check_separated(w1, w2, eps_gap, p):
    """Raises SpectraOverlap when the eigenvalues w1 and w2 of the two
    factor tensors at the product point p come closer than ``eps_gap``."""
    gap = float(np.min(np.abs(w1[:, None] - w2[None, :])))
    if gap < eps_gap:
        raise SpectraOverlap(
            f"factor spectra gap {gap:.3e} below {eps_gap:.3e} at {p}",
            witness=gap,
            point=p,
        )


def _along_product(field, pts, lead, n, derivative):
    """A factor field's values along the batch ``pts`` and, with
    ``derivative``, its derivatives along the n product coordinates: the
    factor's own coordinates start at slot ``lead``, the other factor's
    give zero (with lead 0 and n its own dimension, a field's plain values
    and derivatives).  Without ``derivative`` there are no directions
    (K = 0)."""
    if not derivative:
        vals = field.value(pts)
        return vals, np.zeros((len(pts), 0) + vals.shape[1:])
    vals, derivs = field.value_and_derivative(pts)
    out = np.zeros((len(pts), n) + vals.shape[1:])
    out[:, lead:lead + derivs.shape[1]] = derivs
    return vals, out


def _sym_product(h, dh, a, da, p, what):
    """Checked symmetric part of h a, and the symmetric part of its
    derivative dh a + h da."""
    d = dh @ a + h @ da
    return _sym_checked(h @ a, p, what), 0.5 * (d + d.swapaxes(-1, -2))


def _over(m, dm, c, dc):
    """m / c and its derivative by the quotient rule."""
    return m / c, dm / c - m * (dc / c**2)[:, None, None]


def glue(inp: GlueInput, p, derivative=False):
    """Glued pair at a product point p = (x, y), or along a batch of them.

    Returns the two glued metrics stacked as (2, n, n), behind a leading
    batch axis when p is a batch of shape (m, n).  With ``derivative`` it
    returns them together with their exact derivatives (n, 2, n, n), the
    chain rule through the factors' own derivatives, the forward-mode
    characteristic polynomials and Horner evaluations of ``smallmat``, and
    the quotient rule for the 1/chi(0) factors.  The values have the same
    bits either way, and every check runs at every point in the same
    order; each point is computed on its own, so a batch gives each row
    the bits of a batch of 1.
    """
    rows, single = as_batch(p)
    m, r, n = len(rows), inp.chart1.dim, rows.shape[1]
    f1 = [_along_product(f, rows[:, :r], 0, n, derivative)
          for f in (inp.L1, inp.h1, inp.hbar1)]
    f2 = [_along_product(f, rows[:, r:], r, n, derivative)
          for f in (inp.L2, inp.h2, inp.hbar2)]
    vals = np.zeros((m, 2, n, n))
    derivs = np.zeros((m, n if derivative else 0, 2, n, n))
    for i, q in enumerate(rows):
        (lv1, dl1), (h1, dh1), (hb1, dhb1) = ((v[i], d[i]) for v, d in f1)
        (lv2, dl2), (h2, dh2), (hb2, dhb2) = ((v[i], d[i]) for v, d in f2)
        chi1, dc1 = char_poly(lv1, dl1)
        chi2, dc2 = char_poly(lv2, dl2)
        w1, w2 = np.linalg.eigvals(lv1), np.linalg.eigvals(lv2)
        _check_separated(w1, w2, inp.eps_gap, q)
        c10 = _chi_zero_checked(chi1, w1, q, "chi1")
        c20 = _chi_zero_checked(chi2, w2, q, "chi2")
        a, da = chi2.eval_matrix(lv1, dl1, dc2)
        b, db = chi1.eval_matrix(lv2, dl2, dc1)
        g1 = _sym_product(h1, dh1, a, da, q, "glued g block 1")
        g2 = _sym_product(h2, dh2, b, db, q, "glued g block 2")
        gb1 = _over(*_sym_product(hb1, dhb1, a, da, q, "glued gbar block 1"),
                    c20, dc2[:, 0])
        s2, ds2 = _sym_product(hb2, dhb2, b, db, q, "glued gbar block 2")
        gb2 = _over(inp.block2_sign * s2, inp.block2_sign * ds2, c10, dc1[:, 0])
        for k, (top, bottom) in enumerate(((g1, g2), (gb1, gb2))):
            vals[i, k, :r, :r], derivs[i, :, k, :r, :r] = top
            vals[i, k, r:, r:], derivs[i, :, k, r:, r:] = bottom
    if derivative:
        return (vals[0], derivs[0]) if single else (vals, derivs)
    return vals[0] if single else vals


def glue_fields(inp: GlueInput):
    """Glued pair as metric fields on the product chart, together with the
    block-diagonal pair tensor field.  The glued metrics carry the exact
    batch jacobian of ``glue``, and the pair tensor the factors'
    jacobians; each is as exact as the factor fields' own derivatives."""
    inp.check_disjoint()
    chart = inp.product_chart
    r = inp.chart1.dim

    g, gbar = stacked_fields(
        (MetricField,) * 2, chart,
        jac=lambda rows, derivative: glue(inp, rows, derivative=derivative))
    n = chart.dim

    def l_jac(rows, derivative):
        lv, dl = np.zeros((len(rows), n, n)), np.zeros((len(rows), n, n, n))
        for f, blk in ((inp.L1, slice(0, r)), (inp.L2, slice(r, n))):
            if derivative:
                lv[:, blk, blk], dl[:, blk, blk, blk] = f.value_and_derivative(rows[:, blk])
            else:
                lv[:, blk, blk] = f.value(rows[:, blk])
        return (lv, dl) if derivative else lv

    l_direct = OperatorField.from_function(chart, jac=l_jac)
    return g, gbar, l_direct


def block_condition_residuals(g: MetricField, L1: OperatorField,
                              L2: OperatorField, p):
    """Residuals of the three block conditions equivalent to compatibility
    for block-diagonal (g, L) in adapted product coordinates.

    c1: compatibility residual of the first block pair on its leaf
        (second-factor coordinates frozen);
    c2: norm of (g1^{-1} d_y g1) L2 - L1 (g1^{-1} d_y g1) - Id x d_y tr L2;
    c3: norm of the commutator (g2^{-1} d_x g2) L2 - L2 (g2^{-1} d_x g2).
    """
    p = np.asarray(p, dtype=float)
    chart = g.chart
    r = L1.chart.dim
    s = L2.chart.dim
    if r + s != chart.dim:
        raise ValueError("factor charts do not add up to the product chart")
    x0, y0 = p[:r], p[r:]
    c1, _ = compatibility_residual(restrict(g, range(r), p), L1, x0)

    gv, dg = g.value_and_derivative(p)
    g1 = gv[:r, :r]
    g2 = gv[r:, r:]
    lv1 = L1.value(x0)
    lv2, dl2 = L2.value_and_derivative(y0)
    dtr2 = np.einsum("kii->k", dl2)  # d tr L2 / d y^alpha

    g1inv = np.linalg.inv(g1)
    # X[j, k, alpha] = (g1^{-1} d_{y^alpha} g1)^j_k
    xten = np.einsum("jm,amk->jka", g1inv, dg[r:, :r, :r])
    lhs = np.einsum("jkb,ba->jka", xten, lv2) - np.einsum("jm,mka->jka", lv1, xten)
    rhs = np.einsum("jk,a->jka", np.eye(r), dtr2)
    c2 = frob(lhs - rhs)

    g2inv = np.linalg.inv(g2)
    # Y[a, b, k] = (g2^{-1} d_{x^k} g2)^a_b
    yten = np.einsum("ac,kcb->abk", g2inv, dg[:r, r:, r:])
    comm = np.einsum("agk,gb->abk", yten, lv2) - np.einsum("ag,gbk->abk", lv2, yten)
    c3 = frob(comm)
    return float(c1), float(c2), float(c3)


# ---------------------------------------------------------------------------
# iterated decomposition


@dataclass
class DecompositionFactor:
    """One factor of the iterated splitting: coordinate slots, fields on
    the sub-chart, the operator block, its base eigenvalues, and the
    verification residual."""

    coords: tuple
    chart: Chart
    h: MetricField
    hbar: MetricField
    l_block: OperatorField
    base_eigenvalues: tuple
    residual_max: float = 0.0


def full_decompose(g: MetricField, gbar: MetricField, residual_points: int = 20):
    """Iterated splitting into factors whose operator has a single real
    eigenvalue or a single conjugate pair.

    The base-point eigenvalue clusters of L are the groups of one
    ``admissible_factorization``, whose projectors must be coordinate
    projections at the base point (normal-form corpus pairs and glue
    outputs are block-adapted so).  Factor i lives on the leaf of its
    coordinates through the base point: its fields are ``split``'s h and
    hbar restricted there, ``l_block = restrict(L, coords, base point)``,
    and its residual is the compatibility residual of the factor pair
    sampled on the leaf.  On an adapted chart S = sum_j W_j(L) is
    block-diagonal with block i equal to W_i(L_i), so the factor pair is

        h_i    = g_i  W_i(L_i)^{-1}
        hbar_i = W_i(0) * gbar_i  W_i(L_i)^{-1},   W_i = prod_{j != i} chi_j.
    """
    chart = g.chart
    L = l_tensor_field(g, gbar)
    p0 = np.asarray(chart.base_point)
    lv0 = L.value(p0)
    values = _paired_eigvals(lv0)
    cluster_radius = np.sqrt(np.finfo(float).eps) * (1.0 + frob(lv0))
    clusters = _base_clusters(values, cluster_radius)

    if len(clusters) == 1:
        sub = DecompositionFactor(
            coords=tuple(range(chart.dim)),
            chart=chart,
            h=g,
            hbar=gbar,
            l_block=L,
            base_eigenvalues=tuple(values),
        )
        sub.residual_max = _factor_residual(sub, residual_points)
        return [sub]

    fact = admissible_factorization(L, clusters)
    pvs = spectral_pieces(fact, p0, lv0, np.zeros((0,) + lv0.shape))[3][0]
    coord_sets = []
    for ci, pv in enumerate(pvs):
        diag = np.diag(pv)
        coords = tuple(k for k in range(chart.dim) if diag[k] > 0.5)
        off = pv - np.diag(diag)
        if len(coords) != len(clusters[ci]) or frob(off) > 1e-6 * (1.0 + frob(pv)) \
                or np.any((diag > 1e-6) & (diag < 1 - 1e-6)):
            raise NotAdapted(
                "operator blocks are not aligned with the chart coordinates "
                f"at the base point (cluster {ci})"
            )
        coord_sets.append(coords)

    h, hbar, *_ = _split_fields(g, gbar, fact)
    factors = []
    for ci, coords in enumerate(coord_sets):
        l_block = restrict(L, coords, p0)
        sub = DecompositionFactor(
            coords=coords,
            chart=l_block.chart,
            h=restrict(h, coords, p0),
            hbar=restrict(hbar, coords, p0),
            l_block=l_block,
            base_eigenvalues=tuple(values[list(clusters[ci])]),
        )
        sub.residual_max = _factor_residual(sub, residual_points)
        factors.append(sub)
    return factors


def _factor_residual(factor: DecompositionFactor, points: int) -> float:
    lf = l_tensor_field(factor.h, factor.hbar)
    res = in_point_order(lambda rows: compatibility_residual(factor.h, lf, rows)[0],
                         probe_points(factor.chart, points))
    return float(np.max(res))
