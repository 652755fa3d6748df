"""Core constructions on metric pairs.

The central object is the (1,1)-tensor attached to a pair of
nondegenerate symmetric forms g, gbar:

    L = (det gbar / det g)^(1/(n+1)) * gbar^{-1} g

together with the first-order compatibility equation

    (nabla_k L)^i_j = 1/2 (delta^i_k l_j + g^{is} l_s g_{kj}),   l = d tr L,

whose vanishing residual characterizes pairs with the same unparameterized
geodesics.
"""

from __future__ import annotations

import numpy as np

from ..errors import (DegenerateMetric, DomainViolation, SingularL,
                      ZeroInImage)
from ..fields import (
    MetricField,
    OperatorField,
    VectorField,
    as_batch,
    covariant_derivative_op,
    first_degenerate,
    in_point_order,
    lie_derivative_metric,
    probe_points,
    stacked_fields,
)
from ..smallmat import (ScalarFunction, char_poly, eigen, frob, frob_ratio_rows,
                        matrix_function)


def _pair_tensor(jet, jet_bar, rows, dgv=None, dgbv=None):
    """Pair tensor from the jets of g and gbar at the points ``rows``:
    ``(L, dL, flipped)``, each with a leading batch axis.

    The single implementation behind ``compute_L`` and the closure of
    ``l_tensor_field``, so L has the same bits on every path.  ``dL`` is
    None unless the metric derivatives are given; ``flipped`` lists the
    sign flip of g per row (see ``compute_L``).  With rho the root of the
    determinant ratio,

        dL = d rho (x) gbar^{-1} g + rho gbar^{-1} (dg - dgbar gbar^{-1} g),
        d ln rho = (tr(gbar^{-1} dgbar) - tr(g^{-1} dg)) / (n + 1),

    O(n^4) per row, with no d(gbar^{-1}) and no determinant in d rho, so
    a constant rescaling of g or gbar cannot overflow it.  The determinant
    ratio, its root and the trace contractions are taken row by row, so
    each row has the bits of a batch of 1.
    """
    n = rows.shape[-1]
    failed = [j.degenerate for j in (jet, jet_bar) if j.degenerate is not None]
    if failed:
        i = min(failed)
        raise DegenerateMetric(
            f"metric degenerate at {rows[i]} (dets {jet.dets[i]:.3e}, {jet_bar.dets[i]:.3e})",
            point=rows[i],
        )
    flipped, rho = [], []
    for dg, dgb in zip(jet.dets, jet_bar.dets):
        ratio = dgb / dg
        flipped.append((n + 1) % 2 == 0 and ratio < 0.0)
        # the sign-preserving root; on a flipped row, -rho times gbar^{-1} g
        # is rho times gbar^{-1} (-g) to the bit, as negation is exact
        rho.append(np.sign(ratio) * abs(ratio) ** (1.0 / (n + 1)))
    rho = np.array(rho)
    core = jet_bar.inv() @ jet.values
    lv = rho[:, None, None] * core
    if dgv is None:
        return lv, None, flipped
    # d ln |det A| = tr(A^{-1} dA), the one read of g's inverse
    tr = np.array([np.einsum("ij,kji->k", a, d) for a, d in zip(jet.inv(), dgv)])
    trb = np.array([np.einsum("ij,kji->k", a, d) for a, d in zip(jet_bar.inv(), dgbv)])
    drho = rho[:, None] * ((trb - tr) / (n + 1))
    dcore = jet_bar.inv()[:, None] @ (dgv - dgbv @ core[:, None])
    dl = np.einsum("bk,bij->bkij", drho, core) + rho[:, None, None, None] * dcore
    return lv, dl, flipped


def compute_L(g: MetricField, gbar: MetricField, p, return_flag: bool = False):
    """Pointwise value of the pair tensor L(g, gbar).

    The (n+1)-th root of the determinant ratio is taken sign-preserving
    when n+1 is odd.  When n+1 is even and the ratio is negative, g is
    replaced by -g first; ``return_flag=True`` also returns whether that
    flip happened.
    """
    rows = np.asarray(p, dtype=float)[None]
    lv, _, flipped = _pair_tensor(g.jet(rows), gbar.jet(rows), rows)
    if return_flag:
        return lv[0], flipped[0]
    return lv[0]


def l_tensor_field(g: MetricField, gbar: MetricField) -> OperatorField:
    """Pair tensor as an operator field with an exact jacobian.

    Derivatives are obtained by forward-mode matrix calculus through the
    determinant, inverse and root, so they are as accurate as the metric
    derivatives themselves (exact for expression-backed metrics); the
    closure takes a batch of points.  The field carries ``sign_flipped``,
    the orientation fix at the base point, and ``base_value``, L there.
    """
    chart = g.chart

    def jac(rows, derivative):
        if not derivative:
            return _pair_tensor(g.jet(rows), gbar.jet(rows), rows)[0]
        dgv, dgbv = g.derivative(rows), gbar.derivative(rows)
        return _pair_tensor(g.jet(rows), gbar.jet(rows), rows, dgv, dgbv)[:2]

    field = OperatorField.from_function(chart, jac=jac)
    field.base_value, field.sign_flipped = compute_L(g, gbar, chart.base_point,
                                                     return_flag=True)
    return field


def reconstruct_gbar(g: MetricField, L: OperatorField, p) -> np.ndarray:
    """Second metric of the pair from (g, L): gbar = (1/det L) g L^{-1}."""
    p = np.asarray(p, dtype=float)
    lv = L.value(p)
    det = float(np.linalg.det(lv))
    if first_degenerate(lv[None], [det]) is not None:
        raise SingularL(f"operator singular at {p} (det {det:.3e})", point=p)
    gb = g.value(p) @ np.linalg.inv(lv) / det
    return 0.5 * (gb + gb.T)


def compatibility_residual(g: MetricField, L: OperatorField, p):
    """Residual of the geodesic-equivalence compatibility equation.

    Returns ``(scalar, array)``: the Frobenius norm of the residual
    normalized by ``1 + ||dL||``, and the raw residual array indexed like
    the covariant derivative output.  Along a batch of points the scalar
    is an array with one entry per row.
    """
    rows, single = as_batch(p)
    nabla = covariant_derivative_op(g, L, rows)
    lv, dl = L.value_and_derivative(rows)
    # l_q = d_q tr L
    l_cov = np.einsum("bkii->bk", dl)
    jet = g.jet(rows)
    n = g.chart.dim
    eye = np.eye(n)
    raised = (jet.inv() @ l_cov[..., None])[..., 0]
    # 1/2 (delta^i_k l_j + g^{is} l_s g_{kj}); differentiation index k last
    rhs = 0.5 * (
        np.einsum("ik,bj->bijk", eye, l_cov)
        + np.einsum("bi,bkj->bijk", raised, jet.values)
    )
    resid = nabla - rhs
    scalar = frob_ratio_rows(resid, dl)
    if single:
        return float(scalar[0]), resid[0]
    return scalar, resid


def topalov_sinjukov(g: MetricField, gbar: MetricField, f: ScalarFunction):
    """Rescale the pair by an operator function: (g f(L), gbar f(L)).

    For f holomorphic near the spectrum of L and conjugation-symmetric,
    the transformed pair is geodesically equivalent whenever the input
    pair is.  Requires 0 outside ``f(spectrum L)`` everywhere on the
    chart; checked eagerly on one batch of deterministic probe points,
    whose errors come out in point order, and lazily at every
    evaluation.  Applying the constant-one function returns the input
    fields unchanged.

    Both metrics come from one closure with an exact jacobian,
    d(g f(L)) = dg f(L) + g Df(L)[dL], symmetrized, where Df(L)[dL] is the
    forward mode of ``matrix_function``: one call per point gives f(L) and
    its derivative along every coordinate.
    """
    if f.name == "one":
        return g, gbar
    chart = g.chart
    L = l_tensor_field(g, gbar)

    def f_of_l(lv, p, dl=None):
        spec = eigen(lv)
        for z, _ in spec.entries:
            if not f.domain_ok(z):
                raise DomainViolation(
                    f"eigenvalue {z} outside the domain of {f.name} at {p}"
                )
        scale = 1.0 + max(abs(f.value(z)) for z, _ in spec.entries)
        for z, _ in spec.entries:
            if abs(f.value(z)) <= 1e-10 * scale:
                raise ZeroInImage(
                    f"f({z}) is numerically zero at {p}",
                    witness=z,
                    point=p,
                )
        return matrix_function(lv, f, dl)

    def symmetrized(m):
        return 0.5 * (m + m.swapaxes(-1, -2))

    def pair_jac(rows, derivative):
        if not derivative:
            fl = np.array([f_of_l(lv, p) for lv, p in zip(L.value(rows), rows)])
            gv = np.stack([g.value(rows), gbar.value(rows)], axis=1)
            return symmetrized(gv @ fl[:, None])
        lv, dl = L.value_and_derivative(rows)
        fl, dfl = zip(*(f_of_l(a, p, d) for a, p, d in zip(lv, rows, dl)))
        fl, dfl = np.array(fl), np.array(dfl)
        (gv, dgv), (gbv, dgbv) = (m.value_and_derivative(rows) for m in (g, gbar))
        gv, dgv = np.stack([gv, gbv], axis=1), np.stack([dgv, dgbv], axis=2)
        # d(g f(L))[k] = dg[k] f(L) + g Df(L)[dL[k]]
        dm = dgv @ fl[:, None, None] + gv[:, None] @ dfl[:, :, None]
        return symmetrized(gv @ fl[:, None]), symmetrized(dm)

    gf, gbf = stacked_fields((MetricField,) * 2, chart, jac=pair_jac)
    in_point_order(gf.value, probe_points(chart, 20))
    return gf, gbf


def charpoly_differential_residual(L: OperatorField, t: float, p) -> np.ndarray:
    """Residual covector of the characteristic-polynomial differential
    identity  d(chi(t)) . L - t * d(chi(t)) = chi(t) * l.

    The coefficient differentials come from the forward-mode ``char_poly``
    along the field's own derivative, as does l = d tr L.  Valid whenever
    the Nijenhuis torsion of L vanishes at p.
    """
    p = np.asarray(p, dtype=float)
    n = L.chart.dim
    lv, dl = L.value_and_derivative(p)
    chi, dcoeffs = char_poly(lv, dl)  # dcoeffs[coord, coefficient index]
    powers = np.array([t**j for j in range(n)])
    dchi = dcoeffs @ powers
    l_cov = np.einsum("kii->k", dl)
    return dchi @ lv - t * dchi - chi(t) * l_cov


def projective_deformation(v: VectorField, g: MetricField) -> OperatorField:
    """Trace-free part of A = g^{-1} (Lie_v g): compatible with g whenever
    v is a projective vector field of g.  Lie_v g is the expression-backed
    metric of ``lie_derivative_metric``, so g must be expression-backed,
    and the jacobian is exact: dA = g^{-1} (d(Lie_v g) - dg A)."""
    chart = g.chart
    n = chart.dim
    h = lie_derivative_metric(v, g)

    def trace_free(a):
        tr = np.trace(a, axis1=-2, axis2=-1)
        return a - (tr / (n + 1))[..., None, None] * np.eye(n)

    def jac(rows, derivative):
        gv, dg = g.value_and_derivative(rows)
        i = g.jet(rows).degenerate
        if i is not None:
            raise DegenerateMetric(f"metric degenerate at {rows[i]}", point=rows[i])
        hv, dh = h.value_and_derivative(rows)
        a = np.linalg.solve(gv, hv)
        if not derivative:
            return trace_free(a)
        da = np.linalg.solve(gv[:, None], dh - dg @ a[:, None])
        return trace_free(a), trace_free(da)

    return OperatorField.from_function(chart, jac=jac)


def shift_to_nondegenerate(L: OperatorField):
    """Shift L by c * Id when it is singular somewhere on the samples.

    L counts as singular where ``fields.first_degenerate`` with threshold
    1e-6 fails on the probe set of 20 points.  Returns ``(shifted_field,
    c)`` with c = 0 when no shift was needed and c = 1 + max ||L||
    otherwise.  Compatibility with any metric is preserved under the shift.
    """
    chart = L.chart
    values = np.array([L.value(p) for p in probe_points(chart, 20)])
    if first_degenerate(values, np.linalg.det(values).tolist(), 1e-6) is None:
        return L, 0.0
    c = 1.0 + max(frob(lv) for lv in values)
    n = chart.dim

    def jac(rows, derivative):
        if not derivative:
            return L.value(rows) + c * np.eye(n)
        lv, dl = L.value_and_derivative(rows)
        return lv + c * np.eye(n), dl

    return OperatorField.from_function(chart, jac=jac), c
