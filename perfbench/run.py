"""geoequiv benchmark: CLI reports on generated scenes, end to end and per layer.

    python3 perfbench/run.py --workload pointwise|oracle|constructions|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is built from ``--seed`` by ``workloads.py`` and each phase
runs in a fresh process (``worker.py``) with BLAS threads pinned to 1, so
peak RSS and process-wide caches belong to that phase.

``--trace 0`` runs set-up alone a few times (``setup_s`` is their median
together with the measured run's own set-up), then one closed-loop run of
whole passes over the workload's reports for at least ``--seconds``.  It
prints every end-to-end metric.

``--trace 1`` runs the workload untraced for half the time and then traced
(tracer.py) for the other half, checks that both runs wrote byte-identical
reports, and prints every per-layer metric.  Counts and self times are per
report over whole passes; the spans and the bases of every ratio go to
``.perfbench_work/trace-<workload>-<seed>.json``, never to stdout.  An
untraced run leaves its latencies and set-up samples in
``.perfbench_work/run-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, sample counts and input size.  A failed correctness gate
still prints the result, with ``"correct": false``, and exits with status
1; a phase that could not run exits with status 1 or 2 and prints none.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload  # noqa: E402
from worker import percentile, tail_percentile  # noqa: E402

WORK = ".perfbench_work"
SETUP_SAMPLES = 6  # set-up-only processes, plus the measured run's own set-up
CHILD_TIMEOUT_S = 170
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Tail percentile per workload.  In each workload's report mix this
# percentile falls inside the costliest report kind (not at the edge between
# two kinds, where it would jump), and a run of the default length leaves
# more than ten reports beyond it.
TAIL = {"pointwise": 95.0, "oracle": 90.0, "constructions": 92.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_ms_p50": "ms",
    "report_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "correct_frac": "1",
    "tol_headroom_digits": "digits",
    "neg_margin_digits": "digits",
}


class BenchError(Exception):
    pass


def environment(root, child):
    lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env_for_children": BLAS_ENV,
        "geq_tol_scale_set": False,
        "src_lines": lines,
    }


def run_child(root, workdir, mode, out, seconds=0.0, trace=False):
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir,
           "--mode", mode, "--out", out, "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} failed:\n{proc.stderr[-2000:]}")
    with open(os.path.join(workdir, out)) as fh:
        result = json.load(fh)
    if not result["geoequiv_file"].startswith(env["PYTHONPATH"] + os.sep):
        raise BenchError(f"geoequiv imported from {result['geoequiv_file']}, "
                         f"not from {env['PYTHONPATH']}")
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, run, setups):
    lat = sorted(run["latencies_s"])
    n = len(lat)
    q = tail_percentile(n, TAIL[name])
    ok = run["attempted"] - run["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "reports_per_s": ok / run["elapsed_s"],
        "report_ms_p50": 1000.0 * percentile(lat, 50.0),
        "report_ms_tail": 1000.0 * percentile(lat, q),
        "peak_rss_mb": run["peak_rss_mb"],
        "correct_frac": ok / run["attempted"],
        "tol_headroom_digits": run["tol_headroom_digits"] or 0.0,
        "neg_margin_digits": run["neg_margin_digits"] or 0.0,
    }
    samples = {"reports": n, "setup": len(setups), "tail_percentile": q,
               "timed_s": run["elapsed_s"], "passes": run["passes"],
               "pass_ends_s": run["pass_ends_s"]}
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, samples


def per_layer(base, traced):
    """Per-layer metrics of the traced run; returns (metrics, bases)."""
    agg, edges, counts = (traced["trace"]["agg"], traced["trace"]["edges"],
                          traced["trace"]["counts"])
    n = traced["attempted"]

    def calls(span):
        return agg.get(span, [0, 0.0, 0.0])[0]

    def self_s(span):
        return agg.get(span, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    closure = calls("fields.closure")
    requests = counts.get("value.function", 0) + counts.get("vd.function", 0)
    rhs = edges.get("oracle.integrate>fields.christoffel", 0)
    steps = counts.get("oracle.steps_accepted", 0)
    l_evals = edges.get("equiv.track>fields.value", 0)
    glue_points = counts.get("glue.distinct_points", 0)
    base_rps = (base["attempted"] - base["failed"]) / base["elapsed_s"]
    traced_rps = (traced["attempted"] - traced["failed"]) / traced["elapsed_s"]
    setup_agg = traced["trace_setup"]["agg"]

    m = {}
    for span in ("cli.load_scene", "exprdsl.compile_dual", "exprdsl.eval",
                 "fields.value", "fields.christoffel", "fields.closure",
                 "smallmat.eigen", "smallmat.char_poly", "smallmat.matrix_function",
                 "smallmat.from_roots", "equiv.compatibility_residual",
                 "equiv.track", "equiv.glue"):
        m[span + ".calls"] = _metric(calls(span) / n, "calls/report")
    m["oracle.trajectories"] = _metric(calls("oracle.integrate") / n, "calls/report")
    for span in ("cli.load_scene", "cli.emit", "exprdsl.compile_dual",
                 "exprdsl.eval", "fields.vd", "fields.christoffel",
                 "fields.covariant_derivative_op", "fields.nijenhuis",
                 "smallmat.eigen", "smallmat.char_poly",
                 "smallmat.matrix_function", "equiv.compatibility_residual",
                 "equiv.track", "equiv.glue", "equiv.block_condition_residuals",
                 "equiv.split", "equiv.topalov_sinjukov", "equiv.glue_fields",
                 "oracle.integrate", "oracle.defect"):
        m[span + ".self_s"] = _metric(self_s(span) / n, "s/report")
    m["cli.report_bytes"] = _metric(statistics.fmean(traced["report_bytes"] or [0]),
                                    "bytes/report")
    m["fields.vd_exact.calls"] = _metric(
        (counts.get("vd.expr", 0) + counts.get("vd.jac", 0)) / n, "calls/report")
    m["fields.vd_fd.calls"] = _metric(counts.get("vd.fd", 0) / n, "calls/report")
    m["fields.cache_hit_ratio"] = _metric(1.0 - ratio(closure, requests) if requests else 0.0,
                                          "ratio")
    m["equiv.track.L_evals_per_call"] = _metric(ratio(l_evals, calls("equiv.track")),
                                                "ratio")
    m["equiv.groups_cache_hit_ratio"] = _metric(
        1.0 - ratio(calls("equiv.track"), calls("equiv.groups_at"))
        if calls("equiv.groups_at") else 0.0, "ratio")
    m["equiv.glue.calls_per_metric_eval"] = _metric(ratio(calls("equiv.glue"), glue_points),
                                                    "ratio")
    m["oracle.rhs_evals"] = _metric(rhs / n, "calls/report")
    m["oracle.steps_accepted"] = _metric(steps / n, "count/report")
    m["oracle.rhs_evals_per_accepted_step"] = _metric(ratio(rhs, steps), "ratio")
    m["oracle.box_exits"] = _metric(counts.get("oracle.box_exits", 0) / n, "count/report")
    m["oracle.skipped_null"] = _metric(counts.get("oracle.skipped_null", 0) / n,
                                       "count/report")
    m["setup.exprdsl.compile_dual.calls"] = _metric(
        setup_agg.get("exprdsl.compile_dual", [0])[0], "count")
    m["setup.exprdsl.compile_dual.self_s"] = _metric(
        setup_agg.get("exprdsl.compile_dual", [0, 0.0, 0.0])[2], "s")
    m["setup.cli.load_scene.self_s"] = _metric(
        setup_agg.get("cli.load_scene", [0, 0.0, 0.0])[2], "s")
    m["trace_overhead_frac"] = _metric(ratio(base_rps, traced_rps) - 1.0, "ratio")

    bases = {
        "reports": n,
        "fields.cache_hit_ratio": {"closure_calls": closure,
                                   "function_backed_requests": requests},
        "equiv.track.L_evals_per_call": {"L_evals": l_evals,
                                         "track_calls": calls("equiv.track")},
        "equiv.groups_cache_hit_ratio": {"track_calls": calls("equiv.track"),
                                         "groups_at_calls": calls("equiv.groups_at")},
        "equiv.glue.calls_per_metric_eval": {"glue_calls": calls("equiv.glue"),
                                             "distinct_glue_points": glue_points},
        "oracle.rhs_evals_per_accepted_step": {"rhs_evals": rhs, "steps_accepted": steps},
        "trace_overhead_frac": {"untraced_reports_per_s": base_rps,
                                "traced_reports_per_s": traced_rps},
    }
    return m, bases


def run_workload(root, name, seed, seconds, trace):
    """Run one workload; returns (result line, info record)."""
    workload = Workload(name, seed)
    work = os.path.join(root, WORK)
    workdir = os.path.join(work, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with open(os.path.join(workdir, "workload.json"), "w") as fh:
            json.dump({"specs": workload.specs, "negatives": workload.negatives,
                       "reports": workload.reports}, fh, indent=1)
        size = {"scenes": len(workload.specs) + len(workload.negatives),
                "negative_controls": len(workload.negatives),
                "reports_per_pass": 2 * len(workload.reports)}
        if not trace:
            # set-up samples before and after the timed run, so that one
            # slow stretch of the machine does not take all of them
            setups = [run_child(root, workdir, "setup", f"setup-{i}.json")["setup_s"]
                      for i in range(SETUP_SAMPLES // 2)]
            run = run_child(root, workdir, "run", "run.json", seconds)
            setups += [run_child(root, workdir, "setup", f"setup-{i}.json")["setup_s"]
                       for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]
            setups.append(run["setup_s"])
            metrics, samples = end_to_end(name, run, setups)
            failures, failed, attempted = run["failures"], run["failed"], run["attempted"]
            covered = run["distinct_reports"] == len(workload.reports)
        else:
            base = run_child(root, workdir, "run", "base.json", seconds / 2)
            run = run_child(root, workdir, "run", "traced.json", seconds / 2, trace=True)
            metrics, bases = per_layer(base, run)
            mismatched = sorted(k for k, v in run["digests"].items()
                                if base["digests"].get(k, v) != v)
            failures = run["failures"] + base["failures"] + [
                {"report": k, "reason": "traced report differs from untraced"}
                for k in mismatched]
            failed = run["failed"] + base["failed"] + len(mismatched)
            attempted = run["attempted"] + base["attempted"]
            covered = run["distinct_reports"] == len(workload.reports)
            samples = {"traced_reports": run["attempted"], "passes": run["passes"],
                       "untraced_reports": base["attempted"]}
        info = {"workload": name, "seed": seed, "trace": int(trace),
                "input_size": size, "samples": samples,
                "environment": environment(root, run), "failures": failures[:20]}
        if not covered:
            info["failures"].append({"report": "*", "reason": "not every report ran"})
        if not trace:
            with open(os.path.join(work, f"run-{name}-{seed}.json"), "w") as fh:
                json.dump({**info, "metrics": metrics, "setup_samples_s": setups,
                           "latencies_s": run["latencies_s"]}, fh)
        else:
            with open(os.path.join(work, f"trace-{name}-{seed}.json"), "w") as fh:
                json.dump({**info, "metrics": metrics, "bases": bases,
                           "setup_trace": run["trace_setup"], "trace": run["trace"],
                           "spans_fields": ["id", "parent", "name", "start_s", "end_s"],
                           "spans": run["spans"]}, fh)
        line = {"correct": failed == 0 and covered, "attempted": attempted,
                "failed": failed, "metrics": metrics}
        return line, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if "GEQ_TOL_SCALE" in os.environ:
        print("error: GEQ_TOL_SCALE is set; the benchmark runs at the stated "
              "tolerances only", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "geoequiv", "cli.py")):
        print(f"error: no geoequiv source under {root}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            line, info = run_workload(root, name, args.seed, args.seconds,
                                      bool(args.trace))
            print(json.dumps({**info, "metrics": line["metrics"]}))
            lines[name] = line
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = lines[names[0]]
    else:
        result = {
            "correct": all(ln["correct"] for ln in lines.values()),
            "attempted": sum(ln["attempted"] for ln in lines.values()),
            "failed": sum(ln["failed"] for ln in lines.values()),
            "metrics": {f"{w}.{k}": v for w, ln in lines.items()
                        for k, v in ln["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
