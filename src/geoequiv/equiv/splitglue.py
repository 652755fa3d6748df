"""Splitting and gluing of geodesically equivalent pairs.

Splitting turns a pair (g, gbar) with an admissible factorization
chi = chi1 * chi2 of char(L) into a pair of local-product metrics

    h    = g  (chi2(L) + chi1(L))^{-1}
    hbar = gbar (chi2(L)/chi2(0) + chi1(L)/chi1(0))^{-1}

whose blocks restrict to geodesically equivalent factor pairs.  Gluing is
the pointwise inverse: from factor pairs with disjoint operator spectra it
assembles

    g    = diag(h1 chi2(L1),            h2 chi1(L2))
    gbar = diag(hbar1 chi2(L1)/chi2(0), hbar2 chi1(L2)/chi1(0))

on the product chart.
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
from ..fields import (PROBE_SEED, Chart, MetricField, OperatorField, metric_pair,
                      nondegenerate, probe_points)
from ..smallmat import (
    MonicPoly,
    char_poly,
    cluster_indices as _base_clusters,
    frob,
    indicator_function,
    matrix_function,
)
from .core import compatibility_residual, l_tensor_field
from .factorization import (
    FactorizationResult,
    _paired_eigvals,
    gap_tolerance,
    projectors,
    track_eigenvalue_groups,
)


def _sym_checked(m: np.ndarray, p, what: str) -> np.ndarray:
    asym = frob(m - m.T)
    if asym > 1e-8 * (1.0 + frob(m)):
        raise NonSymmetricResult(
            f"{what} lost symmetry at {np.asarray(p)} (defect {asym:.3e})",
            point=p,
        )
    return 0.5 * (m + m.T)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r = len(a)
    out = np.zeros((r + len(b),) * 2)
    out[:r, :r] = a
    out[r:, r:] = b
    return out


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
    """Local-product metrics, projector fields and the factorization that
    produced them."""

    h: MetricField
    hbar: MetricField
    P1: OperatorField
    P2: OperatorField
    factorization: FactorizationResult


def split(g: MetricField, gbar: MetricField, fact: FactorizationResult) -> SplitResult:
    """Splitting construction for a compatible pair and an admissible
    factorization.  The returned metric fields are derived closures with
    finite-difference derivative access, built from one closure."""
    chart = g.chart
    L = fact.lfield

    def pair_fn(p):
        lv = L.value(p)
        g1, g2 = fact.groups_at(p)
        chi1, chi2 = fact.chi_at(p)
        a1, a2 = chi1.eval_matrix(lv), chi2.eval_matrix(lv)
        h = _sym_checked(g.value(p) @ np.linalg.inv(a1 + a2), p, "split metric h")
        c10 = _chi_zero_checked(chi1, g1, p, "chi1")
        c20 = _chi_zero_checked(chi2, g2, p, "chi2")
        m = a2 / c20 + a1 / c10
        hbar = _sym_checked(gbar.value(p) @ np.linalg.inv(m), p, "split metric hbar")
        return np.stack([h, hbar])

    h, hbar = metric_pair(chart, pair_fn)
    p1, p2 = projectors(L, fact)

    for p in probe_points(chart, 30):
        for name, m in (("h", h.value(p)), ("hbar", hbar.value(p))):
            if not nondegenerate(m):
                raise DegenerateMetric(
                    f"split metric {name} degenerate at {p}", point=p
                )
    return SplitResult(h, hbar, p1, p2, fact)


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
        """Verify the factor spectra stay disjoint over sampled points."""
        pts1 = probe_points(self.chart1, 30)
        pts2 = probe_points(self.chart2, 30, PROBE_SEED + 1)
        for x, y in zip(pts1, pts2):
            for xx, yy in ((pts1[0], y), (x, y), (x, pts2[0])):
                _separated_eigvals(self.L1.value(xx), self.L2.value(yy),
                                   self.eps_gap, np.concatenate([xx, yy]))


def _separated_eigvals(lv1, lv2, eps_gap, p):
    """Eigenvalues of the two factor tensors at the product point p;
    raises SpectraOverlap when the spectra come closer than ``eps_gap``."""
    w1 = np.linalg.eigvals(lv1)
    w2 = np.linalg.eigvals(lv2)
    gap = float(np.min(np.abs(w1[:, None] - w2[None, :])))
    if gap < eps_gap:
        raise SpectraOverlap(
            f"factor spectra gap {gap:.3e} below {eps_gap:.3e} at {p}",
            witness=gap,
            point=p,
        )
    return w1, w2


def glue(inp: GlueInput, p):
    """Pointwise glued pair at a product point p = (x, y).

    Returns the two symmetric matrices of the glued metrics.
    """
    p = np.asarray(p, dtype=float)
    r = inp.chart1.dim
    x, y = p[:r], p[r:]
    lv1 = inp.L1.value(x)
    lv2 = inp.L2.value(y)
    chi1 = char_poly(lv1)
    chi2 = char_poly(lv2)
    w1, w2 = _separated_eigvals(lv1, lv2, inp.eps_gap, p)
    c10 = _chi_zero_checked(chi1, w1, p, "chi1")
    c20 = _chi_zero_checked(chi2, w2, p, "chi2")
    a = chi2.eval_matrix(lv1)
    b = chi1.eval_matrix(lv2)
    gv = _block_diag(_sym_checked(inp.h1.value(x) @ a, p, "glued g block 1"),
                     _sym_checked(inp.h2.value(y) @ b, p, "glued g block 2"))
    gbv = _block_diag(
        _sym_checked(inp.hbar1.value(x) @ a, p, "glued gbar block 1") / c20,
        inp.block2_sign
        * _sym_checked(inp.hbar2.value(y) @ b, p, "glued gbar block 2")
        / c10,
    )
    return gv, gbv


def glue_fields(inp: GlueInput):
    """Glued pair as metric fields on the product chart, together with the
    block-diagonal pair tensor field (exact jacobian when the factors
    provide one)."""
    inp.check_disjoint()
    chart = inp.product_chart
    r = inp.chart1.dim

    g, gbar = metric_pair(chart, lambda p: np.stack(glue(inp, p)))
    n = chart.dim

    def l_val(p):
        p = np.asarray(p, dtype=float)
        return _block_diag(inp.L1.value(p[:r]), inp.L2.value(p[r:]))

    def l_jac(rows):
        lv1, dl1 = inp.L1.value_and_derivative(rows[:, :r])
        lv2, dl2 = inp.L2.value_and_derivative(rows[:, r:])
        lv = np.zeros((len(rows), n, n))
        lv[:, :r, :r] = lv1
        lv[:, r:, r:] = lv2
        dl = np.zeros((len(rows), n, n, n))
        dl[:, :r, :r, :r] = dl1
        dl[:, r:, r:, r:] = dl2
        return lv, dl

    l_direct = OperatorField.from_function(chart, l_val, jac=l_jac)
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

    leaf_chart = L1.chart

    def leaf_fn(x):
        q = np.concatenate([x, y0])
        return g.value(q)[:r, :r]

    leaf_g = MetricField.from_function(leaf_chart, leaf_fn)
    c1, _ = compatibility_residual(leaf_g, L1, x0)

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

    Requires the inputs to be block-adapted to the chart coordinates at
    the base point (normal-form corpus pairs and glue outputs are).  Each
    factor i carries the fields

        h_i    = g_i  prod_{j != i} chi_j(L_i)^{-1}
        hbar_i = [prod_{j != i} chi_j](0) * gbar_i  prod_{j != i} chi_j(L_i)^{-1}

    on its own sub-chart (remaining coordinates frozen at the base point),
    together with the compatibility residual of the factor pair sampled on
    the sub-chart.
    """
    chart = g.chart
    L = l_tensor_field(g, gbar)
    p0 = np.asarray(chart.base_point)
    lv0 = L.value(p0)
    values = _paired_eigvals(lv0)
    eps_gap = gap_tolerance(lv0)
    cluster_radius = np.sqrt(np.finfo(float).eps) * (1.0 + frob(lv0))
    clusters = _base_clusters(values, cluster_radius)
    m = len(clusters)

    if m == 1:
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

    labels = np.empty(len(values), dtype=int)
    for ci, members in enumerate(clusters):
        labels[list(members)] = ci

    # coordinate adaptation via the spectral projector of each cluster
    coord_sets = []
    for ci, members in enumerate(clusters):
        own = values[[i for i in members]]
        other = values[[i for i in range(len(values)) if i not in members]]
        proj = matrix_function(lv0, indicator_function(own, other))
        diag = np.diag(proj)
        coords = tuple(k for k in range(chart.dim) if diag[k] > 0.5)
        off = proj - np.diag(diag)
        if len(coords) != len(members) or frob(off) > 1e-6 * (1.0 + frob(proj)) \
                or np.any((diag > 1e-6) & (diag < 1 - 1e-6)):
            raise NotAdapted(
                "operator blocks are not aligned with the chart coordinates "
                f"at the base point (cluster {ci})"
            )
        coord_sets.append(coords)

    factors = []
    for ci, members in enumerate(clusters):
        coords = coord_sets[ci]
        sub_chart = Chart(
            len(coords),
            tuple(chart.box[k] for k in coords),
            tuple(chart.base_point[k] for k in coords),
        )
        idx = np.array(coords)

        def embed(x, idx=idx):
            q = p0.copy()
            q[idx] = x
            return q

        def chi_hat_at(q, ci=ci):
            vals, labs = track_eigenvalue_groups(L, values, labels, q, eps_gap)
            poly = None
            for cj in range(m):
                if cj == ci:
                    continue
                pj = MonicPoly.from_roots(vals[labs == cj])
                poly = pj if poly is None else poly.multiply(pj)
            return poly

        def pair_fn(x, idx=idx, embed=embed, chi_hat_at=chi_hat_at):
            q = embed(x)
            block = np.ix_(idx, idx)
            w = chi_hat_at(q)
            winv = np.linalg.inv(w.eval_matrix(L.value(q)[block]))
            h = _sym_checked(g.value(q)[block] @ winv, x, "decomposition factor h")
            hbar = _sym_checked(w(0.0) * gbar.value(q)[block] @ winv, x,
                                "decomposition factor hbar")
            return np.stack([h, hbar])

        def l_fn(x, idx=idx, embed=embed):
            return L.value(embed(x))[np.ix_(idx, idx)]

        h, hbar = metric_pair(sub_chart, pair_fn)
        sub = DecompositionFactor(
            coords=coords,
            chart=sub_chart,
            h=h,
            hbar=hbar,
            l_block=OperatorField.from_function(sub_chart, l_fn),
            base_eigenvalues=tuple(values[list(members)]),
        )
        sub.residual_max = _factor_residual(sub, residual_points)
        factors.append(sub)
    return factors


def _factor_residual(factor: DecompositionFactor, points: int) -> float:
    lf = l_tensor_field(factor.h, factor.hbar)
    worst = 0.0
    for p in probe_points(factor.chart, points):
        res, _ = compatibility_residual(factor.h, lf, p)
        worst = max(worst, res)
    return worst
