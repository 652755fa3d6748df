"""Charts, field backings, Christoffel symbols, covariant and Lie
derivatives, Nijenhuis torsion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoequiv.errors import DegenerateMetric, DomainError
from geoequiv.fields import (
    Chart,
    MetricField,
    OperatorField,
    VectorField,
    christoffel,
    covariant_derivative_op,
    in_point_order,
    lie_derivative_metric,
    nijenhuis,
    sample_points,
    stacked_fields,
)
from geoequiv.smallmat import frob

from conftest import central_difference


def euclidean(n=2, half=1.0):
    chart = Chart(n, tuple((-half, half) for _ in range(n)), (0.0,) * n)
    rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return chart, MetricField.from_exprs(chart, rows)


def test_sample_points_deterministic_and_in_box():
    chart = Chart(2, ((-1.0, 1.0), (0.0, 2.0)), (0.0, 1.0))
    a = sample_points(chart, 50, seed=42)
    b = sample_points(chart, 50, seed=42)
    assert np.array_equal(a, b)
    assert np.all(a[:, 0] >= -1.0) and np.all(a[:, 0] <= 1.0)
    assert np.all(a[:, 1] >= 0.0) and np.all(a[:, 1] <= 2.0)
    c = sample_points(chart, 50, seed=7)
    assert not np.array_equal(a, c)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(1, ((1.0, 0.0),), (0.5,))
    with pytest.raises(ValueError):
        Chart(1, ((0.0, 1.0),), (2.0,))


def test_chart_contains_rows_with_their_own_margins():
    chart = Chart(2, ((-1.0, 1.0), (0.0, 2.0)), (0.0, 1.0))
    rows = [(-1.0, 2.0), (1.5, 1.0), (1.5, 1.0), (0.0, math.nan), (0.0, -0.5)]
    margins = [0.0, 0.0, 0.5, 1.0, 0.25]
    want = [True, False, True, False, False]
    assert chart.contains_rows(rows, margins) == want
    assert [chart.contains(p, margin=m) for p, m in zip(rows, margins)] == want
    assert chart.contains_rows(rows) == [True, False, False, False, False]


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_christoffel_euclidean_zero():
    chart, g = euclidean(2)
    assert np.allclose(christoffel(g, (0.1, -0.2)), 0.0)


def test_christoffel_lorentzian_zero():
    chart = Chart(2, ((-1, 1), (-1, 1)), (0, 0))
    g = MetricField.from_exprs(chart, [["-1", "0"], ["0", "1"]])
    assert np.allclose(christoffel(g, (0.3, 0.4)), 0.0)


def test_christoffel_polar_like_hand_values():
    chart = Chart(2, ((1.0, 3.0), (-1.0, 1.0)), (2.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "x0^2"]])
    gamma = christoffel(g, (2.0, 0.0))
    assert np.isclose(gamma[0, 1, 1], -2.0)  # Gamma^1_{22} = -x0
    assert np.isclose(gamma[1, 0, 1], 0.5)  # Gamma^2_{12} = 1/x0
    assert np.isclose(gamma[1, 1, 0], 0.5)


def test_christoffel_metric_compatibility_identity():
    # independent oracle: d_k g_ij = Gamma^s_{ki} g_sj + Gamma^s_{kj} g_is
    chart = Chart(2, ((0.5, 1.5), (-0.5, 0.5)), (1.0, 0.0))
    g = MetricField.from_exprs(
        chart, [["1 + 0.3*x1^2", "0.1*x0*x1"], ["0.1*x0*x1", "2 + sin(x0)"]]
    )
    for p in sample_points(chart, 20, seed=5):
        gv, dg = g.value_and_derivative(p)
        gamma = christoffel(g, p)
        recon = np.einsum("ski,sj->kij", gamma, gv) + np.einsum(
            "skj,is->kij", gamma, gv
        )
        assert frob(dg - recon) <= 1e-9 * (1 + frob(dg))


def test_christoffel_degenerate_raises():
    chart = Chart(1, ((-1.0, 1.0),), (0.0,))
    g = MetricField.from_exprs(chart, [["x0"]])
    with pytest.raises(DegenerateMetric):
        christoffel(g, (0.0,))


# ---------------------------------------------------------------------------
# covariant derivative


def test_covariant_derivative_of_identity_is_zero():
    chart = Chart(2, ((0.5, 1.5), (-0.5, 0.5)), (1.0, 0.0))
    g = MetricField.from_exprs(
        chart, [["1 + 0.3*x1^2", "0"], ["0", "2 + sin(x0)"]]
    )
    L = OperatorField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    assert np.allclose(covariant_derivative_op(g, L, (1.1, 0.2)), 0.0, atol=1e-12)


def test_covariant_derivative_constant_operator_flat_metric():
    chart, g = euclidean(2)
    L = OperatorField.constant(chart, [[2.0, 1.0], [0.0, 3.0]])
    assert np.allclose(covariant_derivative_op(g, L, (0.2, 0.3)), 0.0)


# ---------------------------------------------------------------------------
# Nijenhuis torsion


def test_nijenhuis_constant_zero():
    chart, _ = euclidean(2)
    L = OperatorField.constant(chart, [[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(nijenhuis(L, (0.1, 0.2)), 0.0)


def test_nijenhuis_scalar_multiple_of_identity():
    chart, _ = euclidean(2)
    L = OperatorField.from_exprs(
        chart, [["exp(x0) + x1^2", "0"], ["0", "exp(x0) + x1^2"]]
    )
    for p in sample_points(chart, 10, seed=3):
        assert frob(nijenhuis(L, p)) <= 1e-12


def _bracket_fd(vfield_a, vfield_b, p, h=1e-6):
    """[u, v]^i = u^s d_s v^i - v^s d_s u^i by central differences."""
    n = len(p)
    ua = vfield_a(p)
    ub = vfield_b(p)
    out = np.zeros(n)
    for s in range(n):
        pp, pm = p.copy(), p.copy()
        pp[s] += h
        pm[s] -= h
        dva = (vfield_a(pp) - vfield_a(pm)) / (2 * h)
        dvb = (vfield_b(pp) - vfield_b(pm)) / (2 * h)
        out += ua[s] * dvb - ub[s] * dva
    return out


def test_nijenhuis_matches_bracket_bruteforce():
    chart = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.0, 0.0))
    L = OperatorField.from_exprs(
        chart, [["1 + 0.2*x1", "0.1*x0"], ["0.3*x0*x1", "2 - 0.1*x0^2"]]
    )
    p = np.array([0.1, -0.2])
    lv = L.value(p)
    nij = nijenhuis(L, p)

    def Le(j):
        return lambda q: L.value(q)[:, j]

    def e(j):
        basis = np.zeros(2)
        basis[j] = 1.0
        return lambda q: basis

    for j in range(2):
        for k in range(2):
            # N(e_j, e_k) = L^2 [e_j,e_k] - L [Le_j, e_k] - L [e_j, Le_k] + [Le_j, Le_k]
            b1 = _bracket_fd(e(j), e(k), p)
            b2 = _bracket_fd(Le(j), e(k), p)
            b3 = _bracket_fd(e(j), Le(k), p)
            b4 = _bracket_fd(Le(j), Le(k), p)
            want = lv @ lv @ b1 - lv @ b2 - lv @ b3 + b4
            assert np.allclose(nij[:, j, k], want, atol=1e-6)


def test_nijenhuis_exact_antisymmetry():
    chart = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.0, 0.0))
    L = OperatorField.from_exprs(
        chart, [["1 + 0.2*x1", "0.1*x0"], ["0.3*x0*x1", "2 - 0.1*x0^2"]]
    )
    nij = nijenhuis(L, (0.2, 0.1))
    assert np.array_equal(nij, -np.swapaxes(nij, 1, 2))


# ---------------------------------------------------------------------------
# Lie derivative


def test_lie_derivative_zero_field():
    chart, g = euclidean(2)
    v = VectorField(chart, ["0", "0"])
    assert np.allclose(lie_derivative_metric(v, g).value((0.1, 0.2)), 0.0)


def test_lie_derivative_killing_rotation():
    chart, g = euclidean(2)
    v = VectorField(chart, ["-x1", "x0"])
    assert np.allclose(lie_derivative_metric(v, g).value((0.3, -0.2)), 0.0)


def test_lie_derivative_euler_homothety():
    chart, g = euclidean(2)
    v = VectorField(chart, ["x0", "x1"])
    p = (0.3, -0.2)
    assert np.allclose(lie_derivative_metric(v, g).value(p), 2.0 * g.value(p))


def test_lie_derivative_is_an_exact_expression_backed_metric():
    # L_v g of a curved metric along a non-Killing field, against the
    # pointwise formula and a central difference of its own values
    chart = Chart(2, ((0.5, 1.5), (-0.5, 0.5)), (1.0, 0.0))
    g = MetricField.from_exprs(
        chart, [["1 + 0.3*x1^2", "0.1*x0*x1"], [None, "2 + sin(x0)"]])
    v = VectorField(chart, ["x1^2", "exp(0.5*x0) - x1"])
    h = lie_derivative_metric(v, g)
    assert h.component_exprs is not None
    for p in sample_points(chart, 10, seed=14):
        gv, dg = g.value_and_derivative(p)
        vv, dv = v.value(p), v.derivative(p)
        want = (np.einsum("s,sij->ij", vv, dg) + np.einsum("sj,is->ij", gv, dv)
                + np.einsum("is,js->ij", gv, dv))
        hv, dh = h.value_and_derivative(p)
        assert frob(hv - want) <= 1e-14 * (1 + frob(want))
        fd = central_difference(h.value, p)
        assert frob(dh - fd) <= 1e-7 * (1 + frob(dh))


# ---------------------------------------------------------------------------
# closure backing


def _matrices(entries):
    """(m, 2, 2) matrices from 2 x 2 nested entries, each an (m,) array."""
    return np.stack([np.stack(row, -1) for row in entries], -2)


def _analytic_metric(rows, derivative):
    """[[1 + 0.3 x1^2, 0.1 x0 x1], [0.1 x0 x1, 2 + sin x0]] and its exact
    jacobian, by hand."""
    x0, x1 = rows[:, 0], rows[:, 1]
    zero = np.zeros_like(x0)
    vals = _matrices([[1 + 0.3 * x1**2, 0.1 * x0 * x1], [0.1 * x0 * x1, 2 + np.sin(x0)]])
    if not derivative:
        return vals
    d0 = _matrices([[zero, 0.1 * x1], [0.1 * x1, np.cos(x0)]])
    d1 = _matrices([[0.6 * x1, 0.1 * x0], [0.1 * x0, zero]])
    return vals, np.stack([d0, d1], 1)


def _analytic_pair():
    chart = Chart(2, ((0.5, 1.5), (-0.5, 0.5)), (1.0, 0.0))
    g_expr = MetricField.from_exprs(
        chart, [["1 + 0.3*x1^2", "0.1*x0*x1"], ["0.1*x0*x1", "2 + sin(x0)"]]
    )
    return chart, g_expr, MetricField.from_function(chart, jac=_analytic_metric)


def test_closure_backed_derivative_matches_expr_backed():
    chart, g_expr, g_fn = _analytic_pair()
    for p in sample_points(chart, 10, seed=11):
        d_expr = g_expr.derivative(p)
        d_fn = g_fn.derivative(p)
        assert frob(d_expr - d_fn) <= 1e-15 * (1 + frob(d_expr))


def test_metric_compatibility_closure_tolerance():
    # exact closure jacobian: nabla g = 0 to rounding
    chart, _, g_fn = _analytic_pair()
    for p in sample_points(chart, 10, seed=13):
        gv, dg = g_fn.value_and_derivative(p)
        gamma = christoffel(g_fn, p)
        recon = np.einsum("ski,sj->kij", gamma, gv) + np.einsum(
            "skj,is->kij", gamma, gv
        )
        assert frob(dg - recon) <= 1e-13 * (1 + frob(dg))


# ---------------------------------------------------------------------------
# compiled kernels and symmetry


def test_compile_cache_keeps_signed_zeros_apart():
    # dataclass equality has Num(0.0) == Num(-0.0); the cache must not
    from geoequiv.exprdsl import Coord, Mul, Num
    from geoequiv.fields import _compiled

    assert math.copysign(1.0, _compiled(Mul(Num(0.0), Coord(0)), 1)([2.0])[0]) == 1.0
    assert math.copysign(1.0, _compiled(Mul(Num(-0.0), Coord(0)), 1)([2.0])[0]) == -1.0


def test_expr_backed_metric_is_exactly_symmetric():
    # mirrored by construction, so skipping 0.5 * (v + v.T) changes no bit
    chart = Chart(3, ((0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)), (1.0, 0.0, 0.0))
    g = MetricField.from_exprs(chart, [
        ["1 + 0.3*x1^2", "0.1*x0*x1", "sin(x2)/(3 + x0)"],
        [None, "2 + sin(x0)", "-0.0*x1"],
        [None, None, "exp(0.2*x0*x2)"],
    ])
    for p in sample_points(chart, 10, seed=5):
        v, d = g.value_and_derivative(p)
        assert np.array_equal(v, v.T) and np.array_equal(d, np.swapaxes(d, 1, 2))
        assert v.tobytes() == (0.5 * (v + v.T)).tobytes()
        assert d.tobytes() == (0.5 * (d + np.swapaxes(d, 1, 2))).tobytes()
        assert g.value(p).tobytes() == v.tobytes()


def test_function_backed_metric_is_symmetrized():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.0, 0.0))
    def jac(rows, derivative):
        vals = np.array([[[2.0, x0], [x0 + 0.5, 3.0]] for x0 in rows[:, 0]])
        d = np.array([[[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2))])
        return (vals, np.repeat(d[None], len(rows), 0)) if derivative else vals

    g = MetricField.from_function(chart, jac=jac)
    p = np.array([0.25, 0.0])
    want = np.array([[2.0, 0.5], [0.5, 3.0]])
    assert np.array_equal(g.value(p), want)
    v, d = g.value_and_derivative(p)
    assert np.array_equal(v, want)
    assert np.array_equal(d, np.swapaxes(d, 1, 2))


def test_metric_pair_halves_match_separate_fields():
    # slices of one stacked backing give the bits of one field per half,
    # and a half that is not symmetric is still symmetrized
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.0, 0.0))
    pair = _stacked_pair(chart)
    for half, fn in zip(pair, (_first, _second)):
        alone = MetricField.from_function(chart, jac=fn)
        for p in sample_points(chart, 5, seed=9):
            v, d = half.value_and_derivative(p)
            want_v, want_d = alone.value_and_derivative(p)
            assert v.tobytes() == want_v.tobytes()
            assert d.tobytes() == want_d.tobytes()
            assert half.value(p).tobytes() == alone.value(p).tobytes()
            assert np.array_equal(v, v.T)
            assert np.array_equal(d, np.swapaxes(d, 1, 2))
    p = np.array([0.5, 0.0])
    assert pair[1].value(p)[0, 1] == pair[1].value(p)[1, 0] == 0.75


# ---------------------------------------------------------------------------
# the one kept batch of a function-backed field


def _counted(calls, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


def _first(rows, derivative):
    """[[2 + sin x0, x0 x1], [x0 x1, 3 + x1^2]] and its exact jacobian."""
    x0, x1 = rows[:, 0], rows[:, 1]
    z = np.zeros_like(x0)
    vals = _matrices([[2.0 + np.sin(x0), x0 * x1], [x0 * x1, 3.0 + x1**2]])
    if not derivative:
        return vals
    return vals, np.stack([_matrices([[np.cos(x0), x1], [x1, z]]),
                           _matrices([[z, x0], [x0, 2.0 * x1]])], 1)


def _second(rows, derivative):
    """[[1 + x0^2, exp x1], [x0, 4]], not symmetric, and its exact jacobian."""
    x0, x1 = rows[:, 0], rows[:, 1]
    z = np.zeros_like(x0)
    vals = _matrices([[1.0 + x0**2, np.exp(x1)], [x0, 4.0 + z]])
    if not derivative:
        return vals
    return vals, np.stack([_matrices([[2.0 * x0, z], [1.0 + z, z]]),
                           _matrices([[z, np.exp(x1)], [z, z]])], 1)


def _stacked_pair(chart):
    def jac(rows, derivative):
        if not derivative:
            return np.stack([_first(rows, False), _second(rows, False)], 1)
        (v1, d1), (v2, d2) = _first(rows, True), _second(rows, True)
        return np.stack([v1, v2], 1), np.stack([d1, d2], 2)

    return stacked_fields((MetricField,) * 2, chart, jac=jac)


def test_values_at_a_kept_derivative_batch_make_no_closure_call():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.0, 0.0))
    g_expr = MetricField.from_exprs(
        chart, [["2 + sin(x0)", "x0*x1"], [None, "3 + x1^2"]])
    calls = []
    g = MetricField.from_function(chart, jac=_counted(
        calls, lambda rows, derivative: (g_expr.value_and_derivative(rows)
                                         if derivative else g_expr.value(rows))))
    rows = sample_points(chart, 5, seed=31)
    vals, _ = g.value_and_derivative(rows)
    assert g.value(rows).tobytes() == vals.tobytes()
    g.value_and_derivative(rows[2:3])
    assert g.value(rows[2]).tobytes() == vals[2].tobytes()
    assert [(len(r), d) for r, d in calls] == [(5, True), (1, True)]
    # a kept batch of values only does not serve derivatives
    g.value(rows)
    g.value_and_derivative(rows)
    assert [(len(r), d) for r, d in calls[2:]] == [(5, False), (5, True)]


def test_finite_difference_backing_keeps_one_batch():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.0, 0.0))
    calls = []
    g = MetricField.from_function(chart, jac=_counted(calls, _first))
    pts = sample_points(chart, 100, seed=32)
    for p in pts:
        g.value(p)
    assert len(calls) == 100
    g.value(pts[-1])
    assert len(calls) == 100
    g.value(pts[0])  # not kept: evaluated again
    assert len(calls) == 101
    key, vals, derivs = g._backing._kept
    assert key == pts[0].tobytes() and vals.shape == (1, 2, 2) and derivs is None


# ---------------------------------------------------------------------------
# batch axis: row i of a batch has the bits of a batch of 1 at that row


BATCH_PAIRS = ("lc2_sin", "lc3_mixed", "lc3_sig", "lc4_block3")


def _batch(chart, rows, seed):
    """Rows picked from a pool of sample points; repeats are allowed."""
    return sample_points(chart, 8, seed)[rows]


def _same_rows(batched, one_at_a_time, rows):
    """Row i of ``batched`` (an array or a tuple of arrays over the batch)
    is bit-equal to ``one_at_a_time`` on the batch of 1 at row i."""
    batched = batched if isinstance(batched, tuple) else (batched,)
    for i in range(len(rows)):
        single = one_at_a_time(rows[i:i + 1])
        single = single if isinstance(single, tuple) else (single,)
        for b, s in zip(batched, single, strict=True):
            assert np.array_equal(b[i], s[0])


def _operator(chart):
    n = chart.dim
    return OperatorField.from_exprs(chart, [
        [f"{1 + i + j} + 0.3*sin(x{(i + j) % n}) + 0.2*x{i}*x{j}" for j in range(n)]
        for i in range(n)
    ])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BATCH_PAIRS),
       st.lists(st.integers(0, 7), min_size=1, max_size=20),
       st.integers(0, 1000))
def test_batch_rows_match_batches_of_one(corpus, name, picks, seed):
    g, _ = corpus[name]
    rows = _batch(g.chart, picks, seed)
    L = _operator(g.chart)
    _same_rows(g.value(rows), g.value, rows)
    _same_rows(g.value_and_derivative(rows), g.value_and_derivative, rows)
    _same_rows(L.value_and_derivative(rows), L.value_and_derivative, rows)
    _same_rows(christoffel(g, rows), lambda r: christoffel(g, r), rows)
    _same_rows(covariant_derivative_op(g, L, rows),
               lambda r: covariant_derivative_op(g, L, r), rows)
    _same_rows(nijenhuis(L, rows), lambda r: nijenhuis(L, r), rows)
    # a single point of shape (n,) is row 0 of a batch of 1
    assert np.array_equal(christoffel(g, rows[0]), christoffel(g, rows[:1])[0])
    assert np.array_equal(g.value(rows[0]), g.value(rows[:1])[0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=20), st.integers(0, 1000))
def test_metric_pair_batch_rows_match_batches_of_one(picks, seed):
    # separate pairs, so the batch cannot read the single points' cache
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.0, 0.0))
    rows = _batch(chart, picks, seed)
    batched, single = _stacked_pair(chart), _stacked_pair(chart)
    for half_b, half_s in zip(batched, single):
        _same_rows(half_b.value_and_derivative(rows), half_s.value_and_derivative, rows)
        _same_rows(half_b.value(rows), half_s.value, rows)
        _same_rows(christoffel(half_b, rows), lambda r: christoffel(half_s, r), rows)


def test_batch_errors_replay_in_point_order():
    # the batch meets the domain error of row 2 before the degeneracy of
    # row 1; a per-point loop meets row 1 first
    chart = Chart(1, ((-1.0, 1.0),), (0.5,))
    g = MetricField.from_exprs(chart, [["x0*sqrt(0.5 - x0)"]])
    rows = np.array([[0.25], [0.0], [0.75], [0.1]])
    with pytest.raises(DomainError):
        christoffel(g, rows)
    with pytest.raises(DegenerateMetric) as err:
        in_point_order(lambda r: christoffel(g, r), rows)
    assert np.array_equal(err.value.point, [0.0])
    assert in_point_order(lambda r: christoffel(g, r), rows[[0, 3]]).shape == (2, 1, 1, 1)
