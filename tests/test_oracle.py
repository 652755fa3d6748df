"""Geodesic integration and the unparameterized-geodesic defect."""

import numpy as np
import pytest

from geoequiv.equiv import compatibility_residual, l_tensor_field
from geoequiv.errors import DegenerateMetric, LeftChart
from geoequiv.fields import Chart, MetricField, christoffel, sample_points
from geoequiv.oracle import (
    energy_drift,
    geodesic_defect_report,
    integrate_geodesic,
    unparam_defect,
)


def test_straight_line_in_flat_metric():
    chart = Chart(2, ((-2.0, 2.0), (-2.0, 2.0)), (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    traj = integrate_geodesic(g, (0.0, 0.0), (1.0, 0.0), T=1.0)
    assert not traj.truncated
    assert len(traj.times) == 64
    for t, y in zip(traj.times, traj.states):
        assert np.allclose(y[:2], [t, 0.0], atol=1e-12)
        assert np.allclose(y[2:], [1.0, 0.0], atol=1e-12)


def test_energy_conservation_curved():
    chart = Chart(2, ((0.5, 2.0), (-1.0, 1.0)), (1.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "x0^2"]])
    traj = integrate_geodesic(g, (1.0, 0.0), (0.0, 1.0), T=0.4)
    assert energy_drift(traj) <= 1e-8


def test_initial_point_outside_chart():
    chart = Chart(1, ((0.0, 1.0),), (0.5,))
    g = MetricField.from_exprs(chart, [["1"]])
    with pytest.raises(LeftChart):
        integrate_geodesic(g, (2.0,), (1.0,), T=1.0)


def test_degenerate_metric_along_path():
    chart = Chart(1, ((-1.0, 1.0),), (0.5,))
    g = MetricField.from_exprs(chart, [["x0"]])  # vanishes at 0
    with pytest.raises(DegenerateMetric):
        integrate_geodesic(g, (0.5,), (-1.0,), T=1.0)


def test_truncation_flagged_on_box_exit():
    chart = Chart(2, ((-0.2, 0.2), (-0.2, 0.2)), (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    traj = integrate_geodesic(g, (0.0, 0.0), (1.0, 0.0), T=1.0)
    assert traj.truncated
    assert len(traj.times) < 64
    for y in traj.states:
        assert chart.contains(y[:2])


def test_conformal_pair_zero_defect():
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)), (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1 + 0.2*x0^2", "0"], ["0", "1"]])
    gbar = MetricField.from_function(chart, lambda p: 3.0 * g.value(p))
    traj = integrate_geodesic(g, (0.1, 0.0), (0.6, 0.8), T=0.3)
    rep = unparam_defect(traj, gbar)
    assert rep.max_defect <= 1e-10


def test_corpus_defect_small(corpus):
    g, gbar = corpus["lc2_sin"]
    rep = geodesic_defect_report(g, gbar, trajectories=20, seed=42, T=0.5)
    assert rep.max_defect <= 1e-5
    assert rep.trajectories == 20


def test_negative_control_defect_large(negatives):
    g, gbar = negatives["neg2_exp"]
    rep = geodesic_defect_report(g, gbar, trajectories=10, seed=42, T=0.5)
    assert rep.max_defect > 1e-2


def test_defect_report_deterministic(corpus):
    g, gbar = corpus["lc2_sin"]
    a = geodesic_defect_report(g, gbar, trajectories=5, seed=9, T=0.3)
    b = geodesic_defect_report(g, gbar, trajectories=5, seed=9, T=0.3)
    assert a.per_trajectory == b.per_trajectory


def test_near_null_directions_skipped():
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)), (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "-1"]])
    gbar = MetricField.from_function(chart, lambda p: 2.0 * g.value(p))
    rep = geodesic_defect_report(
        g, gbar, trajectories=8, seed=21, T=0.3, null_threshold=0.5
    )
    assert rep.skipped_null > 0  # indefinite metric has null directions
    assert rep.max_defect <= 1e-10
    assert rep.flags["near_null_threshold"] == 0.5


def test_zero_velocity_rejected():
    from geoequiv.errors import ZeroVelocity

    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)), (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1"]])
    traj = integrate_geodesic(g, (0.0, 0.0), (0.0, 0.0), T=0.5)
    with pytest.raises(ZeroVelocity):
        unparam_defect(traj, g)


def test_pde_oracle_agreement(corpus, negatives):
    # residual small <-> defect small, on a positive and a negative pair
    g, gbar = corpus["lc2_lin"]
    L = l_tensor_field(g, gbar)
    res = max(
        compatibility_residual(g, L, p)[0]
        for p in sample_points(g.chart, 100, seed=2)
    )
    rep = geodesic_defect_report(g, gbar, trajectories=10, seed=2, T=0.5)
    assert res <= 1e-8 and rep.max_defect <= 1e-5

    gb, gbb = negatives["neg2_swap"]
    Lb = l_tensor_field(gb, gbb)
    resb = max(
        compatibility_residual(gb, Lb, p)[0]
        for p in sample_points(gb.chart, 100, seed=2)
    )
    repb = geodesic_defect_report(gb, gbb, trajectories=10, seed=2, T=0.5)
    assert resb > 1e-8 and repb.max_defect > 1e-5


def test_stored_accelerations_are_the_geodesic_equation(corpus):
    # unparam_defect reads x'' from the trajectory instead of recomputing
    # Gamma_g; the stored rows must equal the recomputation bit for bit
    g, _ = next(iter(corpus.values()))
    chart = g.chart
    p0 = np.array([lo + 0.4 * (hi - lo) for lo, hi in chart.box])
    v0 = np.ones(chart.dim) / np.sqrt(chart.dim)
    traj = integrate_geodesic(g, p0, v0, T=0.5)
    assert traj.accelerations.shape == (len(traj.states), chart.dim)
    n = chart.dim
    for y, acc in zip(traj.states, traj.accelerations):
        x, v = y[:n], y[n:]
        want = -np.einsum("ijk,j,k->i", christoffel(g, x), v, v)
        assert acc.tobytes() == want.tobytes()
