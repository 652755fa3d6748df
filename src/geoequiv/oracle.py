"""Dynamical verification of geodesic equivalence.

Integrates geodesics of the first metric and measures how far they are
from being unparameterized geodesics of the second: along a curve with
x'' = -Gamma(x', x') the acceleration relative to the second connection,
a = x'' + Gamma_bar(x', x'), must stay collinear with the velocity.

Collinearity is measured in the Euclidean coordinate inner product so the
defect stays well defined near null directions of indefinite metrics.

The integrator's error controller alone sets its steps; the uniform output
times in between come from the pair's continuous extension.  The defect
compares both connections at the same sampled (x, x'), so an interpolated
sample moves where the defect is measured, not how small it is on a
geodesically equivalent pair (Gamma_bar - Gamma is a projective change).
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
# continuous extension (Hairer, Norsett and Wanner, Solving ODEs I, II.6):
# over an accepted step of size h from y with stages k,
# y(t + theta h) = y + h sum_i k_i sum_m _DP_P[i, m] theta^(m + 1)
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# integrator tolerances, and the uniform output times per trajectory
RTOL = 1e-10
ATOL = 1e-12
SAMPLES = 64


@dataclass
class GeodesicTrajectory:
    """Sampled geodesic with integrator statistics.

    ``states`` rows are (position, velocity) at the uniform output
    ``times``; sampling stops early (with ``truncated`` set) once the
    position leaves the chart box.  ``accelerations`` rows are
    x'' = -Gamma(x', x') at the same samples, and ``energy_drift`` is the
    relative spread of g(x', x') over them (a first integral of the
    geodesic flow).  ``steps`` counts accepted steps, ``rejected`` steps
    refused by the error test and ``edge_retries`` steps retried at the
    sample spacing because a stage left the box.
    """

    times: np.ndarray
    states: np.ndarray
    accelerations: np.ndarray
    steps: int
    rejected: int
    edge_retries: int
    max_local_error: float
    energy_drift: float
    truncated: bool

    @property
    def dim(self) -> int:
        return self.states.shape[1] // 2


@dataclass
class DefectReport:
    """Collinearity defects of a batch of trajectories, with what the
    integrator did for them: accepted and rejected steps summed, the
    largest local error and energy drift of any trajectory."""

    per_trajectory: list
    max_defect: float
    mean_defect: float
    skipped_null: int
    box_exits: int
    trajectories: int
    steps_accepted: int
    steps_rejected: int
    max_local_error: float
    max_energy_drift: float
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

    The error controller alone picks the steps, clipped only to land on
    T; the ``SAMPLES`` uniform output times inside each accepted step are
    filled from the pair's continuous extension, and the sample at T is
    the step's own fifth-order state.  While a step is longer than the
    sample spacing, a stage outside the box retries it at that spacing,
    so near the edge no stage reaches further out than a step of the
    sampling grid would.  The trajectory is truncated at the last in-box
    sample once it leaves the chart, or when a stage lands beyond half
    the box's width outside it.
    """
    chart = g.chart
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not chart.contains(p0):
        raise LeftChart(f"initial point {p0} outside the chart box", point=p0)
    n = chart.dim
    out_times = np.linspace(0.0, T, SAMPLES)
    states = np.empty((SAMPLES, 2 * n))
    y = np.concatenate([p0, v0])
    states[0] = y
    kept = 1
    truncated = False

    t = 0.0
    h = T / 100.0
    h_grid = T / (SAMPLES - 1)
    hmin = 1e-14 * max(T, 1.0)
    margin = 0.5 * max(hi - lo for lo, hi in chart.box)
    k = [_geodesic_rhs(g, y)] + [None] * 6
    steps = rejected = edge_retries = 0
    max_err = 0.0

    while kept < SAMPLES and not truncated:
        h = min(h, T - t)
        failed_here = 0
        while True:
            bound = 0.0 if h > h_grid else margin
            left = False
            for i in range(1, 7):
                yi = y + h * sum(a * k[j] for j, a in _DP_A_NZ[i])
                if not chart.contains(yi[:n], margin=bound):
                    left = True
                    break
                k[i] = _geodesic_rhs(g, yi)
            if left and h > h_grid:
                h = h_grid
                edge_retries += 1
                continue
            if left:
                # a stage far outside the box means the curve has left the
                # chart; truncate instead of fighting the step size
                truncated = True
                break
            y5 = y + h * sum(b * k[j] for j, b in _DP_B5_NZ)
            y4 = y + h * sum(b * k[j] for j, b in _DP_B4_NZ)
            scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if err <= 1.0:
                break
            rejected += 1
            failed_here += 1
            h *= max(0.2, 0.9 * (1.0 / err) ** 0.2)
            if h < hmin or failed_here > 60:
                raise StepFailure(
                    f"cannot meet tolerance near t={t:.6e} (err {err:.3e})"
                )
        if truncated:
            break
        t_next = T if h == T - t else t + h
        stop = int(np.searchsorted(out_times, t_next, side="right"))
        if stop > kept:
            theta = (out_times[kept:stop] - t) / h
            weights = (theta[:, None] ** np.arange(1, 5)) @ _DP_P.T
            fill = y + h * (weights @ np.array(k))
            if t_next == T:
                fill[-1] = y5
            for row in fill:
                if not chart.contains(row[:n]):
                    truncated = True
                    break
                states[kept] = row
                kept += 1
        t, y = t_next, y5
        k[0] = k[6]  # FSAL: the last stage sits at the accepted point
        steps += 1
        max_err = max(max_err, err)
        h = h * min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-300)) ** 0.2))

    # one batch of Christoffel symbols at the kept samples; the metric's
    # backing keeps that batch, so g.value reads it without a kernel pass
    xs, vs = states[:kept, :n], states[:kept, n:]
    gammas = in_point_order(lambda rows: christoffel(g, rows), xs)
    accelerations = np.array(
        [-np.einsum("ijk,j,k->i", gamma, v, v) for gamma, v in zip(gammas, vs)]
    )
    energies = np.einsum("bi,bij,bj->b", vs, g.value(xs), vs)
    drift = float(np.max(energies) - np.min(energies)) / max(
        1e-12, float(np.max(np.abs(energies)))
    )

    return GeodesicTrajectory(
        times=out_times[:kept],
        states=states[:kept],
        accelerations=accelerations,
        steps=steps,
        rejected=rejected,
        edge_retries=edge_retries,
        max_local_error=max_err,
        energy_drift=drift,
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
        steps_accepted=traj.steps,
        steps_rejected=traj.rejected,
        max_local_error=traj.max_local_error,
        max_energy_drift=traj.energy_drift,
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
    skipped = 0
    reps = []
    budget = 50 * trajectories
    while len(reps) < trajectories and budget > 0:
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
        reps.append(unparam_defect(integrate_geodesic(g, p0, v, T=T), gbar))
    if len(reps) < trajectories:
        raise StepFailure(
            f"could not assemble {trajectories} non-null trajectories"
        )
    per = [r.max_defect for r in reps]
    return DefectReport(
        per_trajectory=per,
        max_defect=max([0.0] + per),
        mean_defect=float(np.mean([r.mean_defect for r in reps])),
        skipped_null=skipped,
        box_exits=sum(r.box_exits for r in reps),
        trajectories=trajectories,
        steps_accepted=sum(r.steps_accepted for r in reps),
        steps_rejected=sum(r.steps_rejected for r in reps),
        max_local_error=max([0.0] + [r.max_local_error for r in reps]),
        max_energy_drift=max([0.0] + [r.max_energy_drift for r in reps]),
        flags={"near_null_threshold": null_threshold},
    )
