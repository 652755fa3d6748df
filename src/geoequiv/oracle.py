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

The trajectories of a report advance in lockstep, one Christoffel batch
per Dormand-Prince stage; each keeps its own step control, so it has the
bits of its own batch of 1, and a report's error is the one a loop over
single trajectories meets first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LeftChart, StepFailure, ZeroVelocity
from .fields import Chart, MetricField, SplitMix64, christoffel, in_point_order

# Dormand-Prince 5(4) tableau; the geodesic right-hand side is autonomous,
# so the nodes c_i are not needed
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

# integrator tolerances, the uniform output times per trajectory, the
# attempted steps (accepted, rejected and edge retries) a trajectory may
# take, and the trajectories a report integrates in lockstep at a time
# (which bounds the memory of its sample batches)
RTOL = 1e-10
ATOL = 1e-12
SAMPLES = 64
MAX_STEPS = 1000
LOCKSTEP = 32


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


def _geodesic_rhs(g: MetricField, ys: np.ndarray) -> np.ndarray:
    """(x', -Gamma(x', x')) at the (m, 2n) states ``ys`` from one
    Christoffel call."""
    n = ys.shape[1] // 2
    xs, vs = ys[:, :n], ys[:, n:]
    acc = -np.einsum("bijk,bj,bk->bi", christoffel(g, xs), vs, vs)
    return np.concatenate([vs, acc], axis=1)


def integrate_geodesics(g: MetricField, p0s, v0s, T: float = 1.0) -> list:
    """Integrate the geodesic equation with an embedded 5(4) pair from
    each row of the start points ``p0s`` and velocities ``v0s``; one
    ``GeodesicTrajectory`` per row.

    The error controller alone picks the steps, clipped only to land on
    T; the ``SAMPLES`` uniform output times inside each accepted step are
    filled from the pair's continuous extension, and the sample at T is
    the step's own fifth-order state.  While a step is longer than the
    sample spacing, a stage outside the box retries it at that spacing,
    so near the edge no stage reaches further out than a step of the
    sampling grid would.  The trajectory is truncated at the last in-box
    sample once it leaves the chart, or when a stage lands beyond half
    the box's width outside it.  A trajectory that has attempted
    ``MAX_STEPS`` steps without reaching T raises ``StepFailure``.

    The rows advance in lockstep: each stage is one Christoffel call on
    the rows still attempting it, while each row keeps its own time, step
    size, accept/reject state, step budget and truncation, so every
    trajectory has the bits of its own batch of 1.  The error raised is
    the first one the lockstep meets, which with several rows need not be
    the first row's; ``geodesic_defect_report`` replays its trajectories
    one at a time to raise that one.
    """
    chart = g.chart
    n = chart.dim
    y = np.hstack([np.asarray(p0s, dtype=float), np.asarray(v0s, dtype=float)])
    m = len(y)
    for p0 in y[:, :n]:
        if not chart.contains(p0):
            raise LeftChart(f"initial point {p0} outside the chart box", point=p0)
    # a stage must stay in the box while the step is longer than the
    # sample spacing, and in the box widened by this margin after that
    margin = 0.5 * max(hi - lo for lo, hi in chart.box)
    out_times = np.linspace(0.0, T, SAMPLES)
    h_grid = T / (SAMPLES - 1)
    hmin = 1e-14 * max(T, 1.0)
    states = np.empty((m, SAMPLES, 2 * n))
    states[:, 0] = y
    k0 = _geodesic_rhs(g, y)  # each row's first stage (FSAL after a step)
    # per row: time, next step size, failed attempts at this time, kept
    # samples, and the statistics
    t = [0.0] * m
    h = [min(T / 100.0, T)] * m
    failed = [0] * m
    kept = [1] * m
    truncated = [False] * m
    steps, rejected, retries = [0] * m, [0] * m, [0] * m
    max_err = [0.0] * m
    active = list(range(m))

    while active:
        for r in active:
            if steps[r] + rejected[r] + retries[r] >= MAX_STEPS:
                raise StepFailure(f"{MAX_STEPS} attempted steps, stuck near t={t[r]:.6e}")
        # views while every row is active: a row writes its own state only
        # after its last read of it
        rows = slice(None) if len(active) == m else active
        ya, hc = y[rows], np.array([h[r] for r in active])[:, None]
        margins = [margin if h[r] <= h_grid else 0.0 for r in active]
        ks = [k0[rows]]
        # the rows still in the attempt; the arrays above keep their rows
        live = active
        for i in range(1, 7):
            yi = ya + hc * sum(a * ks[j] for j, a in _DP_A_NZ[i])
            stays = chart.contains_rows(yi[:, :n].tolist(), margins)
            if not all(stays):
                for r in itertools.compress(live, [not s for s in stays]):
                    if h[r] > h_grid:
                        h[r] = h_grid
                        retries[r] += 1
                    else:
                        # a stage far outside the box means the curve has
                        # left the chart; truncate instead of fighting the
                        # step size
                        truncated[r] = True
                live = list(itertools.compress(live, stays))
                if not live:
                    break
                margins = list(itertools.compress(margins, stays))
                inside = np.array(stays)
                ya, hc, yi = ya[inside], hc[inside], yi[inside]
                ks = [kj[inside] for kj in ks]
            ks.append(_geodesic_rhs(g, yi))
        if live:
            y5 = ya + hc * sum(b * ks[j] for j, b in _DP_B5_NZ)
            y4 = ya + hc * sum(b * ks[j] for j, b in _DP_B4_NZ)
            scale = ATOL + RTOL * np.maximum(np.abs(ya), np.abs(y5))
            # the RMS norm: np.mean's sum and division, without its overhead
            errs = np.sqrt(np.add.reduce(((y5 - y4) / scale) ** 2, axis=1) / (2 * n)).tolist()
        for q, r in enumerate(live):
            hr, err = h[r], errs[q]
            if not err <= 1.0:
                rejected[r] += 1
                failed[r] += 1
                h[r] = hr * max(0.2, 0.9 * (1.0 / err) ** 0.2)
                if h[r] < hmin or failed[r] > 60:
                    raise StepFailure(
                        f"cannot meet tolerance near t={t[r]:.6e} (err {err:.3e})"
                    )
                continue
            tr = t[r]
            t[r] = T if hr == T - tr else tr + hr
            stop = int(np.searchsorted(out_times, t[r], side="right"))
            if stop > kept[r]:
                theta = (out_times[kept[r]:stop] - tr) / hr
                weights = (theta[:, None] ** np.arange(1, 5)) @ _DP_P.T
                fill = ya[q] + hr * (weights @ np.array([kj[q] for kj in ks]))
                if t[r] == T:
                    fill[-1] = y5[q]
                stays = chart.contains_rows(fill[:, :n].tolist())
                good = stays.index(False) if not all(stays) else len(fill)
                states[r, kept[r]:kept[r] + good] = fill[:good]
                kept[r] += good
                truncated[r] = good < len(fill)
            y[r], k0[r] = y5[q], ks[6][q]  # FSAL: the last stage sits at the new point
            steps[r] += 1
            max_err[r] = max(max_err[r], err)
            grow = min(5.0, max(0.2, 0.9 * (1.0 / max(err, 1e-300)) ** 0.2))
            h[r] = min(hr * grow, T - t[r])  # clipped to land on T
            failed[r] = 0
        active = [r for r in active if kept[r] < SAMPLES and not truncated[r]]

    # one batch of Christoffel symbols at every kept sample; the metric's
    # backing keeps that batch, so g.value reads it without a kernel pass
    samples = np.concatenate([states[r, :kept[r]] for r in range(m)])
    xs, vs = samples[:, :n], samples[:, n:]
    gammas = in_point_order(lambda rows: christoffel(g, rows), xs)
    accelerations = -np.einsum("bijk,bj,bk->bi", gammas, vs, vs)
    gvals = g.value(xs)
    trajs, off = [], 0
    for r in range(m):
        end = off + kept[r]
        v = states[r, :kept[r], n:]
        # per trajectory: on a batch of 1 this contraction gives other bits
        energies = np.einsum("bi,bij,bj->b", v, gvals[off:end], v)
        drift = float(np.max(energies) - np.min(energies)) / max(
            1e-12, float(np.max(np.abs(energies)))
        )
        trajs.append(GeodesicTrajectory(
            times=out_times[:kept[r]],
            states=states[r, :kept[r]],
            accelerations=accelerations[off:end],
            steps=steps[r],
            rejected=rejected[r],
            edge_retries=retries[r],
            max_local_error=max_err[r],
            energy_drift=drift,
            truncated=truncated[r],
        ))
        off = end
    return trajs


def integrate_geodesic(g: MetricField, p0, v0, T: float = 1.0) -> GeodesicTrajectory:
    """One trajectory: ``integrate_geodesics`` on a batch of 1."""
    return integrate_geodesics(g, [p0], [v0], T)[0]


def _defect_reports(trajs: list, gbar: MetricField) -> list:
    """``unparam_defect`` of each trajectory, with Gamma_bar evaluated
    along all their samples in one batch; an error is the first one met
    in sample order."""
    n = trajs[0].dim
    samples = np.concatenate([traj.states for traj in trajs])
    xs, vs = samples[:, :n], samples[:, n:]
    speeds = [float(v @ v) for v in vs]
    # a zero velocity at sample i comes before any failure of Gamma_bar
    # after i
    stop = next((i for i, s in enumerate(speeds) if s == 0.0), len(speeds))
    gammas = in_point_order(lambda x: christoffel(gbar, x), xs[:stop]) if stop else ()
    if stop < len(speeds):
        raise ZeroVelocity("zero velocity sample in trajectory")
    accs = np.concatenate([traj.accelerations for traj in trajs])
    defects = []
    for a, v, vnorm2 in zip(accs + np.einsum("bijk,bj,bk->bi", gammas, vs, vs),
                            vs, speeds):
        normal = a - (a @ v) / vnorm2 * v
        # Euclidean norms: the sqrt of the dot product, as np.linalg.norm
        # takes it, without its overhead
        defects.append(math.sqrt(normal @ normal) / (1.0 + math.sqrt(a @ a)))
    reports, off = [], 0
    for traj in trajs:
        own = defects[off:off + len(traj.states)]
        off += len(own)
        reports.append(DefectReport(
            per_trajectory=[max(own)],
            max_defect=max(own),
            mean_defect=float(np.mean(own)),
            skipped_null=0,
            box_exits=int(traj.truncated),
            trajectories=1,
            steps_accepted=traj.steps,
            steps_rejected=traj.rejected,
            max_local_error=traj.max_local_error,
            max_energy_drift=traj.energy_drift,
        ))
    return reports


def unparam_defect(traj: GeodesicTrajectory, gbar: MetricField) -> DefectReport:
    """Collinearity defect of a trajectory against a second metric.

    At each sample, a = x'' + Gamma_bar(x', x') with x'' the acceleration
    the integrator stored for it; the defect is the norm of
    the component of a orthogonal to x' (Euclidean inner product)
    normalized by 1 + ||a||.  Gamma_bar is evaluated along all samples in
    one batch.
    """
    return _defect_reports([traj], gbar)[0]


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

    Integration draws no random numbers, so every start is drawn first;
    the trajectories are then integrated in lockstep, ``LOCKSTEP`` at a
    time, and Gamma_bar is evaluated along each group's samples in one
    batch.  On any error the report replays the per-trajectory loop
    (draw, integrate, defect), so the error that propagates is the first
    one that loop meets.
    """
    chart = g.chart
    n = chart.dim
    rng = SplitMix64(seed)
    skipped = 0
    p0s, v0s = [], []
    budget = 50 * trajectories
    try:
        while len(p0s) < trajectories and budget > 0:
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
            p0s.append(p0)
            v0s.append(v)
        if len(p0s) < trajectories:
            raise StepFailure(
                f"could not assemble {trajectories} non-null trajectories"
            )
        reps = []
        for i in range(0, trajectories, LOCKSTEP):
            group = slice(i, i + LOCKSTEP)
            reps += _defect_reports(
                integrate_geodesics(g, p0s[group], v0s[group], T=T), gbar)
    except Exception:
        for p0, v in zip(p0s, v0s):
            unparam_defect(integrate_geodesic(g, p0, v, T=T), gbar)
        raise
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
