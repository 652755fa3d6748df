"""Dynamical verification of geodesic equivalence.

Integrates geodesics of the first metric and measures how far they are
from being unparameterized geodesics of the second: along a curve with
x'' = -Gamma(x', x') the acceleration relative to the second connection,
a = x'' + Gamma_bar(x', x'), must stay collinear with the velocity.

Collinearity is measured in the Euclidean coordinate inner product so the
defect stays well defined near null directions of indefinite metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LeftChart, StepFailure, ZeroVelocity
from .fields import Chart, MetricField, SplitMix64, christoffel, in_point_order

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# the nonzero (j, coefficient) entries of each stage row and of both
# weight rows, in tableau order
_DP_A_NZ = [tuple((j, a) for j, a in enumerate(row) if a != 0.0) for row in _DP_A]
_DP_B5_NZ = tuple((j, b) for j, b in enumerate(_DP_B5) if b != 0.0)
_DP_B4_NZ = tuple((j, b) for j, b in enumerate(_DP_B4) if b != 0.0)

# integrator tolerances, and the uniform output times per trajectory
RTOL = 1e-10
ATOL = 1e-12
SAMPLES = 64


@dataclass
class GeodesicTrajectory:
    """Sampled geodesic with integrator statistics.

    ``states`` rows are (position, velocity); sampling stops early (with
    ``truncated`` set) once the position leaves the chart box.
    ``accelerations`` rows are x'' = -Gamma(x', x') at the same samples:
    the right-hand side the integrator already evaluated there (FSAL).
    """

    times: np.ndarray
    states: np.ndarray
    accelerations: np.ndarray
    metric: MetricField
    steps: int
    max_local_error: float
    truncated: bool

    @property
    def dim(self) -> int:
        return self.states.shape[1] // 2


@dataclass
class DefectReport:
    """Collinearity defects of a batch of trajectories."""

    per_trajectory: list
    max_defect: float
    mean_defect: float
    skipped_null: int
    box_exits: int
    trajectories: int
    flags: dict = field(default_factory=dict)


def _geodesic_rhs(g: MetricField, y: np.ndarray) -> np.ndarray:
    n = len(y) // 2
    x, v = y[:n], y[n:]
    gamma = christoffel(g, x)
    acc = -np.einsum("ijk,j,k->i", gamma, v, v)
    return np.concatenate([v, acc])


def integrate_geodesic(
    g: MetricField,
    p0,
    v0,
    T: float = 1.0,
) -> GeodesicTrajectory:
    """Integrate the geodesic equation with an embedded 5(4) pair.

    Steps land exactly on ``SAMPLES`` uniform output times, so sampled
    states carry no interpolation error.  The trajectory is truncated at
    the last in-box sample once it leaves the chart.
    """
    chart = g.chart
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not chart.contains(p0):
        raise LeftChart(f"initial point {p0} outside the chart box", point=p0)
    n = chart.dim
    out_times = np.linspace(0.0, T, SAMPLES)
    states = np.empty((SAMPLES, 2 * n))
    accelerations = np.empty((SAMPLES, n))
    y = np.concatenate([p0, v0])
    states[0] = y
    kept = 1
    truncated = False

    t = 0.0
    h = T / 100.0
    hmin = 1e-14 * max(T, 1.0)
    margin = 0.5 * max(hi - lo for lo, hi in chart.box)
    k = [np.zeros(2 * n)] * 7
    f0 = _geodesic_rhs(g, y)
    accelerations[0] = f0[n:]
    steps = 0
    max_err = 0.0

    for target_idx in range(1, SAMPLES):
        t_target = out_times[target_idx]
        while t < t_target - 1e-15 * max(T, 1.0) and not truncated:
            h = min(h, t_target - t)
            k[0] = f0
            failed_here = 0
            while True:
                # a stage far outside the box means the curve has left the
                # chart; truncate instead of fighting the step size
                out_of_chart = False
                for i in range(1, 7):
                    yi = y + h * sum(a * k[j] for j, a in _DP_A_NZ[i])
                    if not chart.contains(yi[:n], margin=margin):
                        out_of_chart = True
                        break
                    k[i] = _geodesic_rhs(g, yi)
                if out_of_chart:
                    truncated = True
                    break
                y5 = y + h * sum(b * k[j] for j, b in _DP_B5_NZ)
                y4 = y + h * sum(b * k[j] for j, b in _DP_B4_NZ)
                scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y5))
                err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
                if err <= 1.0:
                    break
                failed_here += 1
                h *= max(0.2, 0.9 * (1.0 / err) ** 0.2)
                if h < hmin or failed_here > 60:
                    raise StepFailure(
                        f"cannot meet tolerance near t={t:.6e} (err {err:.3e})"
                    )
            if truncated:
                break
            t += h
            y = y5
            f0 = k[6]  # FSAL: the last stage sits at the accepted point
            steps += 1
            max_err = max(max_err, err)
            h = h * min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-300)) ** 0.2))
        if truncated or not chart.contains(y[:n]):
            truncated = True
            break
        states[kept] = y
        accelerations[kept] = f0[n:]
        kept += 1

    return GeodesicTrajectory(
        times=out_times[:kept],
        states=states[:kept],
        accelerations=accelerations[:kept],
        metric=g,
        steps=steps,
        max_local_error=max_err,
        truncated=truncated,
    )


def unparam_defect(traj: GeodesicTrajectory, gbar: MetricField) -> DefectReport:
    """Collinearity defect of a trajectory against a second metric.

    At each sample, a = x'' + Gamma_bar(x', x') with x'' the acceleration
    the integrator stored for it; the defect is the norm of
    the component of a orthogonal to x' (Euclidean inner product)
    normalized by 1 + ||a||.  Gamma_bar is evaluated along all samples in
    one batch.
    """
    n = traj.dim
    xs, vs = traj.states[:, :n], traj.states[:, n:]
    speeds = [float(v @ v) for v in vs]
    # the first error in sample order: a zero velocity at sample i comes
    # before any failure of Gamma_bar after i
    stop = next((i for i, s in enumerate(speeds) if s == 0.0), len(speeds))
    gammas = in_point_order(lambda x: christoffel(gbar, x), xs[:stop]) if stop else ()
    if stop < len(speeds):
        raise ZeroVelocity("zero velocity sample in trajectory")
    defects = []
    for gamma, v, vnorm2, acc in zip(gammas, vs, speeds, traj.accelerations):
        a = acc + np.einsum("ijk,j,k->i", gamma, v, v)
        tangential = (a @ v) / vnorm2 * v
        defect = float(np.linalg.norm(a - tangential)) / (
            1.0 + float(np.linalg.norm(a))
        )
        defects.append(defect)
    worst = max(defects)
    return DefectReport(
        per_trajectory=[worst],
        max_defect=worst,
        mean_defect=float(np.mean(defects)),
        skipped_null=0,
        box_exits=int(traj.truncated),
        trajectories=1,
    )


def geodesic_defect_report(
    g: MetricField,
    gbar: MetricField,
    trajectories: int = 20,
    seed: int = 42,
    T: float = 1.0,
    null_threshold: float = 1e-3,
) -> DefectReport:
    """Batch defect check with deterministic initial data.

    Start points are uniform in the chart box (slightly shrunk so short
    trajectories stay inside); directions are uniform on the Euclidean
    unit sphere, rejecting near-null directions |g(v, v)| below the
    threshold.  The rejection count is reported.
    """
    chart = g.chart
    n = chart.dim
    rng = SplitMix64(seed)
    per = []
    skipped = 0
    exits = 0
    worst = 0.0
    means = []
    made = 0
    budget = 50 * trajectories
    while made < trajectories and budget > 0:
        budget -= 1
        p0 = np.array(
            [
                lo + (hi - lo) * (0.1 + 0.8 * rng.uniform())
                for lo, hi in chart.box
            ]
        )
        v = np.empty(n)
        for i in range(0, n, 2):
            a, b = rng.normal_pair()
            v[i] = a
            if i + 1 < n:
                v[i + 1] = b
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        v /= norm
        if abs(v @ g.value(p0) @ v) < null_threshold:
            skipped += 1
            continue
        traj = integrate_geodesic(g, p0, v, T=T)
        rep = unparam_defect(traj, gbar)
        per.append(rep.max_defect)
        means.append(rep.mean_defect)
        worst = max(worst, rep.max_defect)
        exits += rep.box_exits
        made += 1
    if made < trajectories:
        raise StepFailure(
            f"could not assemble {trajectories} non-null trajectories"
        )
    return DefectReport(
        per_trajectory=per,
        max_defect=worst,
        mean_defect=float(np.mean(means)),
        skipped_null=skipped,
        box_exits=exits,
        trajectories=trajectories,
        flags={"near_null_threshold": null_threshold},
    )


def energy_drift(traj: GeodesicTrajectory) -> float:
    """Relative drift of g(x', x') along the trajectory (a first integral
    of the geodesic flow)."""
    vals = []
    n = traj.dim
    for y in traj.states:
        x, v = y[:n], y[n:]
        vals.append(float(v @ traj.metric.value(x) @ v))
    vals = np.array(vals)
    scale = max(1e-12, float(np.max(np.abs(vals))))
    return float((np.max(vals) - np.min(vals)) / scale)
