"""Geodesic integration and the unparameterized-geodesic defect."""

import numpy as np
import pytest

from geoequiv.equiv import compatibility_residual, l_tensor_field
from geoequiv.errors import DegenerateMetric, DomainError, LeftChart, ZeroVelocity
from geoequiv import oracle
from geoequiv.fields import Chart, MetricField, christoffel, sample_points
from geoequiv.oracle import (
    SAMPLES,
    GeodesicTrajectory,
    geodesic_defect_report,
    integrate_geodesic,
    unparam_defect,
)

from conftest import scaled


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
    assert traj.energy_drift <= 1e-8


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
    gbar = scaled(g, 3.0)
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
    gbar = scaled(g, 2.0)
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


def test_defect_matches_a_per_sample_loop(corpus):
    # Gamma_bar along all samples in one batch: every defect has the bits
    # of the per-sample loop it replaced
    for name in ("lc2_sin", "lc3_sig", "lc4_block3"):
        g, gbar = corpus[name]
        chart = g.chart
        p0 = np.array([lo + 0.4 * (hi - lo) for lo, hi in chart.box])
        v0 = np.ones(chart.dim) / np.sqrt(chart.dim)
        traj = integrate_geodesic(g, p0, v0, T=0.5)
        n = chart.dim
        defects = []
        for y, acc in zip(traj.states, traj.accelerations):
            x, v = y[:n], y[n:]
            a = acc + np.einsum("ijk,j,k->i", christoffel(gbar, x), v, v)
            tangential = (a @ v) / float(v @ v) * v
            defects.append(float(np.linalg.norm(a - tangential))
                           / (1.0 + float(np.linalg.norm(a))))
        rep = unparam_defect(traj, gbar)
        assert rep.max_defect == max(defects), name
        assert rep.mean_defect == float(np.mean(defects)), name


def _trajectory(xs, vs):
    states = np.array([[x, v] for x, v in zip(xs, vs)])
    return GeodesicTrajectory(
        times=np.linspace(0.0, 1.0, len(xs)), states=states,
        accelerations=np.zeros((len(xs), 1)), steps=len(xs), rejected=0,
        edge_retries=0, max_local_error=0.0, energy_drift=0.0, truncated=False)


@pytest.mark.parametrize("xs, vs, error, sample", [
    # gbar degenerates at x = 0 and leaves its domain for x > 0.5
    ([0.2, 0.0, 0.6, 0.3], [1.0, 1.0, 1.0, 1.0], DegenerateMetric, 1),
    ([0.2, 0.0, 0.6, 0.3], [1.0, 0.0, 1.0, 1.0], ZeroVelocity, 1),
    ([0.2, 0.0, 0.6, 0.3], [1.0, 1.0, 0.0, 1.0], DegenerateMetric, 1),
    ([0.2, 0.6, 0.0, 0.3], [1.0, 1.0, 1.0, 1.0], DomainError, 1),
    ([0.2, 0.3, 0.0, 0.6], [0.0, 1.0, 1.0, 1.0], ZeroVelocity, 0),
])
def test_defect_raises_the_first_error_in_sample_order(xs, vs, error, sample):
    chart = Chart(1, ((-1.0, 1.0),), (0.2,))
    gbar = MetricField.from_exprs(chart, [["x0*sqrt(0.5 - x0)"]])
    traj = _trajectory(xs, vs)
    with pytest.raises(error) as err:
        unparam_defect(traj, gbar)
    if error is DegenerateMetric:
        assert np.array_equal(err.value.point, [xs[sample]])


# ---------------------------------------------------------------------------
# dense output and integrator statistics


def test_continuous_extension_is_scipys_table():
    from scipy.integrate import RK45

    assert np.max(np.abs(oracle._DP_P - RK45.P)) <= 1e-15


def test_dense_samples_follow_the_straight_line_in_polar_coordinates():
    # g = diag(1, r^2) is the flat metric in polar coordinates (r, phi):
    # its geodesics are straight lines P0 + t V of the plane
    chart = Chart(2, ((0.5, 2.0), (-1.0, 1.0)), (1.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "x0^2"]])
    traj = integrate_geodesic(g, (1.0, 0.0), (0.3, 0.5), T=1.0)
    assert not traj.truncated and len(traj.times) == SAMPLES
    assert traj.steps < SAMPLES - 1  # the steps do not follow the samples
    for t, y in zip(traj.times, traj.states):
        px, py = 1.0 + 0.3 * t, 0.5 * t  # V = (0.3, r0 * 0.5) at phi = 0
        r = np.hypot(px, py)
        want = [r, np.arctan2(py, px), (px * 0.3 + py * 0.5) / r,
                (px * 0.5 - py * 0.3) / r**2]
        assert np.max(np.abs(y - want)) <= 1e-8, t


def _bump_metric():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)), (0.0, 0.0))
    return MetricField.from_exprs(
        chart, [["1 + 0.5*exp(-2000*(x0 - 0.2)^2)", "0"], ["0", "1"]])


def test_rejected_steps_are_counted(monkeypatch):
    # each attempted step evaluates six new stages; besides them the
    # integrator evaluates the start point once and the kept samples in one
    # batch
    calls = {"points": 0, "batches": 0}

    def counting(g, p):
        calls["points" if np.ndim(p) == 1 else "batches"] += 1
        return christoffel(g, p)

    monkeypatch.setattr(oracle, "christoffel", counting)
    traj = integrate_geodesic(_bump_metric(), (0.0, 0.0), (0.8, 0.6), T=1.0)
    assert traj.rejected > 0 and traj.edge_retries == 0 and not traj.truncated
    assert calls == {"points": 1 + 6 * (traj.steps + traj.rejected), "batches": 1}


def test_edge_retries_are_counted_near_the_box_edge():
    chart = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.0, 0.0))
    g = MetricField.from_exprs(chart, [["1", "0"], ["0", "1 + 0.2*x0"]])
    inner = integrate_geodesic(g, (0.0, 0.0), (0.6, 0.0), T=0.5)
    assert inner.edge_retries == 0 and not inner.truncated
    outward = integrate_geodesic(g, (0.3, 0.0), (1.0, 0.0), T=0.5)
    assert outward.edge_retries > 0 and outward.truncated
    assert outward.rejected == 0  # a retry is not a failed step


def test_energy_drift_matches_a_per_sample_loop(corpus):
    g, _ = corpus["lc3_sig"]
    chart = g.chart
    p0 = np.array([lo + 0.4 * (hi - lo) for lo, hi in chart.box])
    traj = integrate_geodesic(g, p0, np.ones(chart.dim) / np.sqrt(chart.dim), T=0.5)
    n = chart.dim
    vals = np.array([float(y[n:] @ g.value(y[:n]) @ y[n:]) for y in traj.states])
    want = (np.max(vals) - np.min(vals)) / max(1e-12, float(np.max(np.abs(vals))))
    assert 0.0 < traj.energy_drift <= 1e-8
    assert abs(traj.energy_drift - want) <= 1e-12 * max(1.0, want) + 1e-15


@pytest.mark.parametrize("field, attribute, reduce", [
    ("steps_accepted", "steps", sum),
    ("steps_rejected", "rejected", sum),
    ("max_local_error", "max_local_error", max),
    ("max_energy_drift", "energy_drift", max),
])
def test_defect_report_carries_the_integrator_statistics(
        monkeypatch, corpus, field, attribute, reduce):
    made = []

    def recording(*args, **kwargs):
        made.append(integrate_geodesic(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(oracle, "integrate_geodesic", recording)
    g, gbar = corpus["lc2_sin"]
    rep = geodesic_defect_report(g, gbar, trajectories=5, seed=3, T=0.5)
    assert len(made) == 5
    assert getattr(rep, field) == reduce(getattr(t, attribute) for t in made)
    if field == "max_local_error":
        assert 0.0 < rep.max_local_error <= 1.0  # accepted steps meet the tolerance
