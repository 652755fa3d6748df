"""Batch front end: scene files, command dispatch, JSON reports.

A scene file is a JSON object with keys ``dim``, ``box``, ``base_point``,
``g`` and ``gbar`` (n x n expression-string matrices, upper triangle
sufficient); other keys are ignored.  Reports are emitted as
canonical JSON (sorted keys, repr-float formatting), so repeated runs with
the same inputs, seed and flags are byte-identical.

Exit codes: 0 all checks pass, 2 a check failed, 3 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import exprdsl
from .equiv import (
    GlueInput,
    admissible_factorization,
    block_condition_residuals,
    compatibility_residual,
    glue_fields,
    l_tensor_field,
    levi_civita_pair,
    LeviCivitaSpec,
    split,
    topalov_sinjukov,
)
from .errors import ExprError, GeoequivError
from .fields import (Chart, MetricField, covariant_derivative_op, in_point_order,
                     nijenhuis, nondegenerate, sample_points)
from .oracle import geodesic_defect_report
from .smallmat import ScalarFunction, char_poly, eigen, frob, frob_ratio_rows, frob_rows

EXIT_PASS = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT_ERROR = 3


class SceneError(Exception):
    """Invalid scene input; ``path`` points into the JSON document."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def tolerance_ladder():
    """Tolerances of the checks, scaled uniformly by the GEQ_TOL_SCALE
    environment variable, which must be a finite positive number.

    Every derivative is exact; the rungs keep the keys of the
    finite-difference chains they were first set for.  ``dual`` (1e-9)
    holds the pair checks of ``check``; ``fd1`` (1e-5) those of ``ts`` and
    ``glue`` and the geodesic oracle; ``fd2`` (1e-4) the product structure
    of ``split``.  A construction moves to a tighter rung only on evidence
    that it meets it across seeds, function kinds and spectra."""
    text = os.environ.get("GEQ_TOL_SCALE", "1")
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0.0):
        raise SceneError(f"not a finite positive number: {text!r}", "GEQ_TOL_SCALE")
    return {
        "dual": 1e-9 * scale,
        "fd1": 1e-5 * scale,
        "fd2": 1e-4 * scale,
        "orthogonality": 1e-8 * scale,
        "factor_charpoly": 1e-8 * scale,
        "nijenhuis": 1e-6 * scale,
        "self_adjoint": 1e-9 * scale,
    }


# ---------------------------------------------------------------------------
# scene loading


def _expr_matrix(rows, dim, key):
    if not isinstance(rows, list) or len(rows) != dim:
        raise SceneError(f"expected a {dim}x{dim} matrix of expressions", key)
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        if not isinstance(rows[i], list) or len(rows[i]) != dim:
            raise SceneError(f"expected {dim} entries", f"{key}[{i}]")
        for j in range(i, dim):
            entry = rows[i][j]
            if entry is None and i != j:
                entry = rows[j][i]
            if entry is None:
                entry = "0"
            if not isinstance(entry, str):
                raise SceneError("expression entries must be strings",
                                 f"{key}[{i}][{j}]")
            try:
                out[i][j] = exprdsl.parse(entry, dim)
            except ExprError as exc:
                raise SceneError(str(exc), f"{key}[{i}][{j}]") from exc
    return out


def load_scene(path):
    """Parse and validate a scene file into ``(chart, g, gbar)``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene: {exc}")
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    for key in ("dim", "box", "base_point", "g", "gbar"):
        if key not in data:
            raise SceneError("missing required key", key)
    dim = data["dim"]
    if not isinstance(dim, int) or not 1 <= dim <= 8:
        raise SceneError("dim must be an integer in 1..8", "dim")
    try:
        chart = Chart(dim, tuple(tuple(iv) for iv in data["box"]),
                      tuple(data["base_point"]))
    except (TypeError, ValueError, GeoequivError) as exc:
        raise SceneError(str(exc), "box/base_point") from exc

    g = MetricField.from_exprs(chart, _expr_matrix(data["g"], dim, "g"))
    gbar = MetricField.from_exprs(chart, _expr_matrix(data["gbar"], dim, "gbar"))
    for key, fld in (("g", g), ("gbar", gbar)):
        if not nondegenerate(fld.value(chart.base_point)):
            raise SceneError("metric degenerate at the base point", key)
    return chart, g, gbar


def parse_function_spec(spec: str) -> ScalarFunction:
    """CLI scalar-function syntax: poly:c0,c1,... | recip:c | exp | id."""
    if spec == "id":
        return ScalarFunction.one()
    if spec == "exp":
        return ScalarFunction.exponential()
    if spec.startswith("poly:"):
        try:
            coeffs = [float(c) for c in spec[5:].split(",")]
        except ValueError as exc:
            raise SceneError(f"bad polynomial coefficients: {exc}", "--f")
        return ScalarFunction.polynomial(coeffs)
    if spec.startswith("recip:"):
        try:
            c = float(spec[6:])
        except ValueError as exc:
            raise SceneError(f"bad shift: {exc}", "--f")
        return ScalarFunction.reciprocal(c)
    raise SceneError(f"unknown function spec {spec!r}", "--f")


# ---------------------------------------------------------------------------
# report helpers


def _finite(x):
    """x as a float, or None (JSON null) when it is NaN or infinite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _stats(values, tol):
    """Summary of a check's per-sample values.  A non-finite value fails the
    check: the statistics it spoils become null and ``non_finite`` (present
    only when above 0) counts such values, so the report stays strict JSON."""
    arr = np.asarray(values, dtype=float)
    non_finite = int(np.count_nonzero(~np.isfinite(arr)))
    with np.errstate(invalid="ignore"):
        q50, q90 = np.percentile(arr, [50, 90])
        out = {
            "max": _finite(np.max(arr)),
            "mean": _finite(np.mean(arr)),
            "q50": _finite(q50),
            "q90": _finite(q90),
            "tol": tol,
            "pass": bool(non_finite == 0 and np.max(arr) <= tol),
        }
    if non_finite:
        out["non_finite"] = non_finite
    return out


def _spectrum_entry_list(spec):
    return [[z.real, z.imag, m] for z, m in spec.entries]


# points per batch of the pair checks and of --export's lattice: bounds the
# memory one batch takes (a few arrays of m * n^3 floats) whatever --points
# or --grid is
CHECK_BATCH = 128


def _pair_checks(g, gbar, L, points, tols, residual_tier):
    def batch_checks(rows):
        res, _ = compatibility_residual(g, L, rows)
        lv, dl = L.value_and_derivative(rows)
        nij = frob_ratio_rows(nijenhuis(L, rows), dl)
        gl = g.value(rows) @ lv
        # frob squares the entries: a row with an entry of 2^500 or more is
        # first scaled by a power of two (the 1 with it), which keeps its
        # ratio; below 2^500 nothing is scaled, so the bits stay too
        shift = np.maximum(np.frexp(np.abs(gl).max(axis=(1, 2)))[1] - 500, 0)
        gl = np.ldexp(gl, -shift[:, None, None])
        selfadj = frob_ratio_rows(gl - gl.swapaxes(1, 2), gl, np.ldexp(1.0, -shift))
        return res.tolist(), nij.tolist(), selfadj.tolist()

    residuals, nij, selfadj = [], [], []
    for start in range(0, len(points), CHECK_BATCH):
        r, nj, sa = in_point_order(batch_checks, points[start:start + CHECK_BATCH])
        residuals += r
        nij += nj
        selfadj += sa
    return {
        "compatibility_residual": _stats(residuals, tols[residual_tier]),
        "nijenhuis": _stats(nij, tols["nijenhuis"]),
        "self_adjointness": _stats(selfadj, tols["self_adjoint"]),
    }


def _integrator(rep) -> dict:
    """What the geodesic integrator did for a defect report."""
    return {
        "steps_accepted": rep.steps_accepted,
        "steps_rejected": rep.steps_rejected,
        "max_local_error": _finite(rep.max_local_error),
        "max_energy_drift": _finite(rep.max_energy_drift),
    }


def emit(report) -> int:
    """Print the report; the exit code is its verdict.  A reader that has
    closed stdout (``| head``) misses the report but not the verdict:
    stdout then points at the null device, so neither this write nor the
    flush at exit raises."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILED


def _all_pass(checks) -> bool:
    return all(c["pass"] for c in checks.values())


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    chart, g, gbar = load_scene(args.scene)
    tols = tolerance_ladder()
    L = l_tensor_field(g, gbar)
    pts = sample_points(chart, args.points, args.seed)
    checks = _pair_checks(g, gbar, L, pts, tols, "dual")
    spec = eigen(L.base_value)
    report = {
        "command": "check",
        "scene": args.scene,
        "seed": args.seed,
        "points": args.points,
        "flags": {"sign_flip": bool(L.sign_flipped)},
        "spectrum_at_base": _spectrum_entry_list(spec),
        "checks": checks,
        "pass": _all_pass(checks),
    }
    return emit(report)


def _parse_groups(text, n):
    parts = text.split("|")
    if len(parts) != 2:
        raise SceneError("grouping must be 'i,j|k,...'", "--groups")
    try:
        grouping = tuple(
            tuple(int(tok) for tok in part.split(",") if tok != "")
            for part in parts
        )
    except ValueError as exc:
        raise SceneError(f"bad group index: {exc}", "--groups")
    for grp in grouping:
        for idx in grp:
            if not 0 <= idx < n:
                raise SceneError(f"index {idx} out of range 0..{n - 1}",
                                 "--groups")
    return grouping


def _grid_nodes(chart, k):
    axes = [np.linspace(lo, hi, k) for lo, hi in chart.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _export_grid(path, chart, k, fields):
    nodes = _grid_nodes(chart, k)
    values = {name: [] for name in fields}
    for start in range(0, len(nodes), CHECK_BATCH):
        rows = nodes[start:start + CHECK_BATCH]
        for name, fld in fields.items():
            values[name] += in_point_order(fld.value, rows).reshape(len(rows), -1).tolist()
    payload = {
        "grid": k,
        "dim": chart.dim,
        "box": [list(iv) for iv in chart.box],
        "order": "row-major over coordinates, then row-major matrix entries",
        "fields": values,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def cmd_split(args) -> int:
    chart, g, gbar = load_scene(args.scene)
    tols = tolerance_ladder()
    L = l_tensor_field(g, gbar)
    grouping = _parse_groups(args.groups, chart.dim)
    fact = admissible_factorization(L, grouping)
    sr = split(g, gbar, fact)
    P1, P2 = sr.projectors
    pts = sample_points(chart, args.points, args.seed)

    def batch_checks(rows):
        fact.track_rows(rows)
        gaps = [fact.gap_at(p) for p in rows]
        # the covariant derivatives first: they run the split closure with
        # its jacobian, and every later read at the rows hits the batch it
        # keeps
        nabla_h = frob_rows(covariant_derivative_op(sr.h, P1, rows)).tolist()
        nabla_hbar = frob_rows(covariant_derivative_op(sr.hbar, P1, rows)).tolist()
        ortho, charpoly_dev = [], []
        for p, p1, p2, gv, gbv, lv in zip(rows, P1.value(rows), P2.value(rows),
                                          g.value(rows), gbar.value(rows), L.value(rows)):
            ortho.append(max(frob(p1.T @ m @ p2) / (1.0 + frob(m)) for m in (gv, gbv)))
            # factor characteristic polynomial on range(P1), spanned by the
            # leading r left singular vectors of P1
            q = np.linalg.svd(p1)[0][:, :fact.r]
            lr = q.T @ lv @ q
            chi1, _ = fact.chi_at(p)
            charpoly_dev.append(
                float(np.max(np.abs(np.array(char_poly(lr).coeffs) - chi1.coeffs)))
            )
        return gaps, nabla_h, nabla_hbar, ortho, charpoly_dev

    gaps, nabla_h, nabla_hbar, ortho, charpoly_dev = [], [], [], [], []
    for start in range(0, len(pts), CHECK_BATCH):
        for out, got in zip((gaps, nabla_h, nabla_hbar, ortho, charpoly_dev),
                            in_point_order(batch_checks, pts[start:start + CHECK_BATCH])):
            out += got

    checks = {
        "orthogonality": _stats(ortho, tols["orthogonality"]),
        "product_parallel_h": _stats(nabla_h, tols["fd2"]),
        "product_parallel_hbar": _stats(nabla_hbar, tols["fd2"]),
        "factor_charpoly": _stats(charpoly_dev, tols["factor_charpoly"]),
    }
    report = {
        "command": "split",
        "scene": args.scene,
        "groups": args.groups,
        "seed": args.seed,
        "points": args.points,
        "flags": {"sign_flip": bool(L.sign_flipped)},
        "factor_dims": [fact.r, chart.dim - fact.r],
        "factorization": {"min_group_gap": _finite(min(gaps)),
                          "gap_tolerance": fact.eps_gap},
        "checks": checks,
        "pass": _all_pass(checks),
    }
    if args.export:
        _export_grid(args.export, chart, args.grid,
                     {"h": sr.h, "hbar": sr.hbar, "P1": P1})
    return emit(report)


def cmd_glue(args) -> int:
    chart1, h1, hb1 = load_scene(args.scene1)
    chart2, h2, hb2 = load_scene(args.scene2)
    tols = tolerance_ladder()
    inp = GlueInput(h1, hb1, h2, hb2)
    g, gbar, l_direct = glue_fields(inp)
    chart = inp.product_chart
    L = l_tensor_field(g, gbar)
    pts = sample_points(chart, args.points, args.seed)
    checks = _pair_checks(g, gbar, L, pts, tols, "fd1")
    conds = [[], [], []]
    for p in pts[: min(len(pts), 50)]:
        c1, c2, c3 = block_condition_residuals(g, inp.L1, inp.L2, p)
        for acc, val in zip(conds, (c1, c2, c3)):
            acc.append(val)
    checks["block_condition_1"] = _stats(conds[0], tols["fd1"])
    checks["block_condition_2"] = _stats(conds[1], tols["fd1"])
    checks["block_condition_3"] = _stats(conds[2], tols["fd1"])
    rep = geodesic_defect_report(g, gbar, trajectories=args.trajectories,
                                 seed=args.seed, T=0.5)
    checks["oracle_defect"] = _stats(rep.per_trajectory, tols["fd1"])
    report = {
        "command": "glue",
        "scenes": [args.scene1, args.scene2],
        "seed": args.seed,
        "points": args.points,
        "trajectories": args.trajectories,
        "flags": {
            "sign_flip": bool(L.sign_flipped),
            "skipped_null": rep.skipped_null,
            "box_exits": rep.box_exits,
            "block2_sign": inp.block2_sign,
        },
        "factor_dims": [chart1.dim, chart2.dim],
        "checks": checks,
        "integrator": _integrator(rep),
        "pass": _all_pass(checks),
    }
    if args.export:
        _export_grid(args.export, chart, args.grid, {"g": g, "gbar": gbar})
    return emit(report)


def cmd_ts(args) -> int:
    chart, g, gbar = load_scene(args.scene)
    tols = tolerance_ladder()
    f = parse_function_spec(args.f)
    gf, gbf = topalov_sinjukov(g, gbar, f)
    Lf = l_tensor_field(gf, gbf)
    pts = sample_points(chart, args.points, args.seed)
    tier = "dual" if gf is g else "fd1"
    checks = _pair_checks(gf, gbf, Lf, pts, tols, tier)
    report = {
        "command": "ts",
        "scene": args.scene,
        "f": args.f,
        "seed": args.seed,
        "points": args.points,
        "flags": {"sign_flip": bool(Lf.sign_flipped), "identity_transform": gf is g},
        "checks": checks,
        "pass": _all_pass(checks),
    }
    return emit(report)


def cmd_generate(args) -> int:
    try:
        with open(args.spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read spec: {exc}")
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid JSON: {exc}")
    try:
        spec = LeviCivitaSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"invalid normal-form spec: {exc}")
    g, gbar = levi_civita_pair(spec)
    chart = g.chart
    scene = {
        "dim": chart.dim,
        "box": [list(iv) for iv in chart.box],
        "base_point": list(chart.base_point),
        "g": [
            [exprdsl.to_text(e) for e in row] for row in g.component_exprs
        ],
        "gbar": [
            [exprdsl.to_text(e) for e in row] for row in gbar.component_exprs
        ],
    }
    text = json.dumps(scene, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS


def cmd_oracle(args) -> int:
    chart, g, gbar = load_scene(args.scene)
    tols = tolerance_ladder()
    rep = geodesic_defect_report(g, gbar, trajectories=args.trajectories,
                                 seed=args.seed, T=0.5)
    checks = {"oracle_defect": _stats(rep.per_trajectory, tols["fd1"])}
    report = {
        "command": "oracle",
        "scene": args.scene,
        "seed": args.seed,
        "trajectories": args.trajectories,
        "flags": {"skipped_null": rep.skipped_null, "box_exits": rep.box_exits},
        "checks": checks,
        "integrator": _integrator(rep),
        "mean_defect": _finite(rep.mean_defect),
        "pass": _all_pass(checks),
    }
    return emit(report)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SceneError(message, "arguments")


def _count(text):
    """argparse type for sample, trajectory and lattice counts: an
    integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it
    costs about a tenth of a small ``check`` report, and parsing leaves
    it as it was."""
    parser = _Parser(
        prog="geoequiv",
        description="Checks and constructions for geodesically equivalent "
        "metric pairs on coordinate charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, points_default=100):
        p.add_argument("--points", type=_count, default=points_default,
                       help="number of deterministic sample points")
        p.add_argument("--seed", type=int, default=42, help="sampling seed")

    p = sub.add_parser("check", help="compatibility checks for a scene pair")
    p.add_argument("scene")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("split", help="splitting construction and its checks")
    p.add_argument("scene")
    p.add_argument("--groups", required=True,
                   help="base-point eigenvalue grouping, e.g. '0|1,2' "
                   "(indices into the canonically sorted spectrum)")
    p.add_argument("--export", help="write h, hbar, P1 on a lattice to PATH")
    p.add_argument("--grid", type=_count, default=9, help="lattice nodes per axis")
    common(p)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("glue", help="glue two factor scenes")
    p.add_argument("scene1")
    p.add_argument("scene2")
    p.add_argument("--trajectories", type=_count, default=5)
    p.add_argument("--export", help="write glued g, gbar on a lattice to PATH")
    p.add_argument("--grid", type=_count, default=9)
    common(p, points_default=50)
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("ts", help="operator-function rescaling of the pair")
    p.add_argument("scene")
    p.add_argument("--f", required=True,
                   help="poly:c0,c1,... | recip:c | exp | id")
    common(p)
    p.set_defaults(fn=cmd_ts)

    p = sub.add_parser("generate",
                       help="emit a scene from a normal-form spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output", help="write the scene here instead of stdout")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("oracle", help="geodesic defect check for a scene")
    p.add_argument("scene")
    p.add_argument("--trajectories", type=_count, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except GeoequivError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
