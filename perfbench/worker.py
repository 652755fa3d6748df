"""One benchmark phase in a fresh process.

    python3 perfbench/worker.py WORKDIR --mode setup|run --out FILE
                                [--seconds S] [--trace]

Reads ``WORKDIR/workload.json`` (written by run.py), works inside WORKDIR
and writes its result as JSON to ``WORKDIR/FILE``.

Set-up (timed as ``setup_s``): import geoequiv, write the normal-form
specs, turn them into scenes with ``geoequiv generate``, derive the
negative controls, and ``cli.load_scene`` every scene.  In ``run`` mode a
closed loop with one client then drives ``geoequiv.cli.main`` in-process
for ``--seconds``, one report at a time.  Each report runs twice in a row
and both outputs must be byte-identical.  A report counts as correct only
if it raised nothing, its exit code matches the expected verdict (0 for
positives, 2 for negative controls), its stdout is strict JSON (no NaN or
Infinity) and its ``pass`` field matches.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def invoke(cli, argv):
    """Run one CLI command in-process; returns (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
            error = err.getvalue() if code not in (0, 2) else None
        except Exception:  # a traceback is a failed report, never a crash
            code, error = None, traceback.format_exc()
    return code, out.getvalue(), error


def setup(workload, tracer=None):
    """Generate and load every scene; returns the geoequiv.cli module."""
    from geoequiv import cli

    if tracer is not None:
        tracer.install()
    for name, spec in workload["specs"].items():
        spec_path = "spec-" + name
        with open(spec_path, "w") as fh:
            json.dump(spec, fh, sort_keys=True, indent=2)
        code, _, error = invoke(cli, ["generate", spec_path, "-o", name])
        if code != 0:
            raise RuntimeError(f"generate {spec_path} failed: {error}")
    for name, neg in workload["negatives"].items():
        with open(neg["source"]) as fh:
            scene = json.load(fh)
        i, j = neg["entry"]
        factor = neg["factor"].format(last=scene["dim"] - 1)
        scene["gbar"][i][j] = f"({scene['gbar'][i][j]})*{factor}"
        with open(name, "w") as fh:
            json.dump(scene, fh, sort_keys=True, indent=2)
    for name in list(workload["specs"]) + list(workload["negatives"]):
        cli.load_scene(name)
    return cli


def judge(report, code, out, error):
    """Correctness of one report: (failure reason or None, parsed JSON)."""
    if error is not None:
        return "error: " + error.strip().splitlines()[-1], None
    if code != report["expect"]:
        return f"exit code {code}, expected {report['expect']}", None
    try:
        doc = strict_json(out)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}", None
    if not isinstance(doc, dict) or doc.get("pass") is not (report["expect"] == 0):
        return "verdict does not match the exit code", None
    must_fail = report["must_fail"]
    if must_fail is not None and doc["checks"][must_fail]["pass"]:
        return f"negative control passed {must_fail}", None
    return None, doc


def margins(report, doc):
    """(tolerance headroom digits of passing checks, negative margin digits)."""
    headroom, margin = [], None
    for name, check in sorted(doc["checks"].items()):
        if check["pass"] and check["max"] > 0.0:
            headroom.append(math.log10(check["tol"] / check["max"]))
        if name == report["must_fail"]:
            margin = math.log10(check["max"] / check["tol"])
    return headroom, margin


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n, preferred):
    """``preferred`` if at least ten of n samples lie beyond it, else the
    highest of a few lower percentiles that has ten beyond it."""
    for q in (preferred, 90.0, 85.0, 80.0, 75.0):
        if q <= preferred and n - max(1, math.ceil(q / 100.0 * n)) >= 10:
            return q
    return 50.0


def timed_loop(cli, reports, seconds):
    """Closed loop, one client: each report twice in a row, in whole passes
    over the list (at least one), until ``seconds`` have passed.  Whole
    passes keep the report mix, and so the latency percentiles, the same in
    every run."""
    digests = {}
    judged = set()
    latencies, failures, sizes = [], [], []
    headroom, neg_margins = [], []
    start = time.perf_counter()
    deadline = start + seconds
    per_pass = 2 * len(reports)
    pass_ends = []
    k = 0
    while k == 0 or k % per_pass or time.perf_counter() < deadline:
        report = reports[(k // 2) % len(reports)]
        t0 = time.perf_counter()
        code, out, error = invoke(cli, report["argv"])
        latencies.append(time.perf_counter() - t0)
        k += 1
        if k % per_pass == 0:
            pass_ends.append(time.perf_counter() - start)
        reason, doc = judge(report, code, out, error)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if reason is None and digests.setdefault(report["id"], digest) != digest:
            reason = "report bytes differ on rerun"
        if reason is not None:
            failures.append({"report": report["id"], "reason": reason})
            continue
        sizes.append(len(out.encode()))
        if report["id"] not in judged:
            judged.add(report["id"])
            h, m = margins(report, doc)
            headroom.extend(h)
            if m is not None:
                neg_margins.append(m)
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "passes": k // per_pass,
        "pass_ends_s": pass_ends,
        "attempted": k,
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": latencies,
        "report_bytes": sizes,
        "tol_headroom_digits": min(headroom) if headroom else None,
        "neg_margin_digits": min(neg_margins) if neg_margins else None,
        "digests": digests,
        "distinct_reports": len(digests),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True, help="result file name in WORKDIR")
    args = ap.parse_args(argv)

    os.chdir(args.workdir)
    with open("workload.json") as fh:
        workload = json.load(fh)
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
    cli = setup(workload, tracer)
    import numpy

    result = {"setup_s": time.perf_counter() - T_START,
              "numpy": numpy.__version__, "geoequiv_file": cli.__file__}
    if tracer is not None:
        result["trace_setup"] = tracer.snapshot()
        tracer.reset()
    if args.mode == "run":
        result.update(timed_loop(cli, workload["reports"], args.seconds))
        if tracer is not None:
            result["trace"] = tracer.snapshot()
            result["spans"] = tracer.spans
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
