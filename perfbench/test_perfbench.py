"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# The seed the recorded baseline starts from, and a seed held out from
# tuning; later claims are checked on the held-out seed too.
RECORDING_SEED = 1
HELD_OUT_SEED = 7919


def _workload_doc(w):
    return {"specs": w.specs, "negatives": w.negatives, "reports": w.reports}


def _setup_in(tmp_path, w, tracer=None):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return worker.setup(_workload_doc(w), tracer)
    finally:
        os.chdir(cwd)


def _one_pass(tmp_path, w, cli):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return worker.timed_loop(cli, w.reports, 0.0)
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_give_different_scenes_and_same_seed_repeats(name):
    a, b, again = Workload(name, 1), Workload(name, 2), Workload(name, 1)
    assert a.specs != b.specs
    assert (a.specs, a.negatives, a.reports) == (again.specs, again.negatives, again.reports)
    # the seed draws coefficients only; the structure is fixed
    assert [r["argv"][0] for r in a.reports] == [r["argv"][0] for r in b.reports]


@pytest.mark.parametrize("seed", [RECORDING_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_passes_on_recording_and_held_out_seed(tmp_path, name, seed):
    """Every scene generates and loads; one pass of every report (each
    run twice) meets the correctness gate."""
    w = Workload(name, seed)
    cli = _setup_in(tmp_path, w)
    for scene in list(w.specs) + list(w.negatives):
        assert (tmp_path / scene).is_file()
    result = _one_pass(tmp_path, w, cli)
    assert result["failures"] == []
    assert result["attempted"] == 2 * len(w.reports)
    assert result["distinct_reports"] == len(w.reports)
    assert result["neg_margin_digits"] is not None


def test_judge_rejects_non_strict_json_and_wrong_verdicts():
    pos = {"expect": 0, "must_fail": None}
    neg = {"expect": 2, "must_fail": "oracle_defect"}
    good = json.dumps({"pass": True, "checks": {}})
    assert worker.judge(pos, 0, good, None)[0] is None
    assert "strict JSON" in worker.judge(pos, 0, '{"pass": true, "x": NaN}', None)[0]
    assert "strict JSON" in worker.judge(pos, 0, '{"pass": true, "x": Infinity}', None)[0]
    assert "exit code" in worker.judge(pos, 2, good, None)[0]
    assert "exit code" in worker.judge(neg, 0, good, None)[0]
    assert "error" in worker.judge(pos, None, "", "Traceback\nKeyError: 1")[0]
    passed = json.dumps({"pass": False, "checks": {"oracle_defect": {"pass": True}}})
    assert "negative control passed" in worker.judge(neg, 2, passed, None)[0]


# ---------------------------------------------------------------------------
# tracer


def test_self_times_sum_to_root_inclusive_time():
    ticks = iter(range(1000))
    tr = tracer_mod.Tracer(clock=lambda: next(ticks))

    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: (leaf(), leaf()))
    side = tr.wrap("side", lambda: leaf())
    root = tr.wrap("root", lambda: (mid(), side(), leaf()))
    root()

    total_self = sum(rec[2] for rec in tr.agg.values())
    assert total_self == tr.agg["root"][1]
    assert tr.agg["leaf"][0] == 4
    assert tr.edges[("mid", "leaf")] == 2 and tr.edges[("root", "leaf")] == 1
    by_id = {s[0]: s for s in tr.spans}
    for sid, parent, name, start, end in tr.spans:
        if parent:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]
        else:
            assert name == "root"


def _leftover_bindings(originals, want_wrapped):
    """Bindings in loaded geoequiv modules that break the expectation.

    With ``want_wrapped`` true, lists every binding that is still one of
    ``originals`` and every unwrapped closure in ``fields._compile_cache``
    (a traced run must see no original).  With it false, lists every
    binding and cached closure that is a tracer wrapper (an untraced run
    must see only originals).
    """
    from geoequiv import fields

    originals = list(originals)
    bad = []
    for module in tracer_mod._geoequiv_modules():
        holders = [(module.__name__, vars(module))]
        holders += [(f"{module.__name__}.{k}", vars(v)) for k, v in vars(module).items()
                    if isinstance(v, type) and v.__module__ == module.__name__]
        for holder, namespace in holders:
            for key, value in namespace.items():
                func = value.__func__ if isinstance(value, classmethod) else value
                if want_wrapped and any(func is o for o in originals):
                    bad.append(f"{holder}.{key}")
                if not want_wrapped and hasattr(func, tracer_mod._MARK):
                    bad.append(f"{holder}.{key}")
    for key, fn in fields._compile_cache.items():
        if hasattr(fn, tracer_mod._MARK) != want_wrapped:
            bad.append(f"geoequiv.fields._compile_cache[{key[0]!r}]")
    return bad


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    import geoequiv.cli
    import geoequiv.equiv
    import geoequiv.equiv.splitglue
    import geoequiv.oracle

    w = Workload("constructions", RECORDING_SEED)
    before = {m.__name__: dict(vars(m)) for m in tracer_mod._geoequiv_modules()}
    tr = tracer_mod.Tracer()
    try:
        cli = _setup_in(tmp_path, w, tr)
        # the copies bound by `from ... import` are wrapped too
        assert hasattr(geoequiv.oracle.christoffel, tracer_mod._MARK)
        assert hasattr(geoequiv.cli.christoffel, tracer_mod._MARK)
        assert hasattr(geoequiv.equiv.splitglue.compatibility_residual, tracer_mod._MARK)
        assert hasattr(geoequiv.equiv.compatibility_residual, tracer_mod._MARK)
        assert _leftover_bindings(tr.originals.values(), True) == []
        tr.reset()
        _one_pass(tmp_path, w, cli)
        # call-time imports (cmd_split, projectors) reach the wrappers
        assert tr.edges[("cli.main", "smallmat.char_poly")] > 0
        assert tr.edges[("fields.closure", "smallmat.matrix_function")] > 0
        assert tr.edges[("oracle.integrate", "fields.christoffel")] > 0
        assert tr.agg["exprdsl.eval"][0] > 0
    finally:
        tr.uninstall()

    assert _leftover_bindings(tr.originals.values(), False) == []
    after = {m.__name__: dict(vars(m)) for m in tracer_mod._geoequiv_modules()}
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key} not restored"

    # an untraced run records nothing
    snapshot = tr.snapshot()
    _one_pass(tmp_path, w, cli)
    assert tr.snapshot() == snapshot


def _run_bench(name, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(HELD_OUT_SEED), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_does_not_change_reports(name):
    """The traced run's reports are byte-identical to the untraced run's
    (run.py counts any difference as a failure)."""
    info, result = _run_bench(name, trace=1)
    assert info["failures"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name in ("pointwise", "oracle"):
        assert metrics["fields.vd_fd.calls"] == 0
        assert metrics["smallmat.matrix_function.calls"] == 0
    else:
        assert metrics["equiv.glue.calls_per_metric_eval"] > 0
        assert metrics["fields.vd_fd.calls"] > 0
    if name != "pointwise":
        assert metrics["oracle.rhs_evals_per_accepted_step"] >= 6
    with open(os.path.join(ROOT, ".perfbench_work",
                           f"trace-{name}-{HELD_OUT_SEED}.json")) as fh:
        trace = json.load(fh)
    assert trace["bases"]["oracle.rhs_evals_per_accepted_step"]
    assert trace["spans"]


def test_refuses_tolerance_scale_and_missing_source(tmp_path):
    env = dict(os.environ, GEQ_TOL_SCALE="1")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "oracle",
           "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""
