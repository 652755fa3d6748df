"""Charts, field backings, Christoffel symbols, covariant and Lie
derivatives, Nijenhuis torsion."""

import math

import numpy as np
import pytest

from geoequiv.errors import DegenerateMetric
from geoequiv.fields import (
    Chart,
    MetricField,
    OperatorField,
    VectorField,
    christoffel,
    covariant_derivative_op,
    lie_derivative_metric,
    metric_pair,
    nijenhuis,
    sample_points,
)
from geoequiv.smallmat import frob


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
    assert np.allclose(lie_derivative_metric(v, g, (0.1, 0.2)), 0.0)


def test_lie_derivative_killing_rotation():
    chart, g = euclidean(2)
    v = VectorField(chart, ["-x1", "x0"])
    assert np.allclose(lie_derivative_metric(v, g, (0.3, -0.2)), 0.0)


def test_lie_derivative_euler_homothety():
    chart, g = euclidean(2)
    v = VectorField(chart, ["x0", "x1"])
    p = (0.3, -0.2)
    assert np.allclose(lie_derivative_metric(v, g, p), 2.0 * g.value(p))


# ---------------------------------------------------------------------------
# finite-difference backing


def test_closure_backed_derivative_matches_expr_backed():
    chart = Chart(2, ((0.5, 1.5), (-0.5, 0.5)), (1.0, 0.0))
    g_expr = MetricField.from_exprs(
        chart, [["1 + 0.3*x1^2", "0.1*x0*x1"], ["0.1*x0*x1", "2 + sin(x0)"]]
    )
    g_fn = MetricField.from_function(chart, lambda p: g_expr.value(p))
    for p in sample_points(chart, 10, seed=11):
        d_expr = g_expr.derivative(p)
        d_fn = g_fn.derivative(p)
        assert frob(d_expr - d_fn) <= 1e-7 * (1 + frob(d_expr))


def test_metric_compatibility_closure_tolerance():
    # one finite-difference layer: nabla g = 0 to 1e-5
    chart = Chart(2, ((0.5, 1.5), (-0.5, 0.5)), (1.0, 0.0))
    g_expr = MetricField.from_exprs(
        chart, [["1 + 0.3*x1^2", "0.1*x0*x1"], ["0.1*x0*x1", "2 + sin(x0)"]]
    )
    g_fn = MetricField.from_function(chart, lambda p: g_expr.value(p))
    for p in sample_points(chart, 10, seed=13):
        gv, dg = g_fn.value_and_derivative(p)
        gamma = christoffel(g_fn, p)
        recon = np.einsum("ski,sj->kij", gamma, gv) + np.einsum(
            "skj,is->kij", gamma, gv
        )
        assert frob(dg - recon) <= 1e-5 * (1 + frob(dg))


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
    g = MetricField.from_function(
        chart, lambda p: np.array([[2.0, p[0]], [p[0] + 0.5, 3.0]]))
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

    def first(p):
        return np.array([[2.0 + np.sin(p[0]), p[0] * p[1]],
                         [p[0] * p[1], 3.0 + p[1] ** 2]])

    def second(p):
        return np.array([[1.0 + p[0] ** 2, np.exp(p[1])], [p[0], 4.0]])

    pair = metric_pair(chart, lambda p: np.stack([first(p), second(p)]))
    for half, fn in zip(pair, (first, second)):
        alone = MetricField.from_function(chart, fn)
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
