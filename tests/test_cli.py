"""Command-line front end: scenes, reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoequiv.cli import main, parse_function_spec, load_scene, SceneError
from geoequiv.equiv import LeviCivitaSpec, l_tensor_field, levi_civita_pair
from geoequiv.exprdsl import parse, to_text
from geoequiv.fields import Chart, sample_points

from test_exprdsl import _expr_strategy

LC_SCENE = {
    "dim": 2,
    "box": [[-0.5, 0.5], [-0.5, 0.5]],
    "base_point": [0.0, 0.0],
    "g": [
        ["2 - (1 + 0.1*sin(x0))", "0"],
        [None, "2 - (1 + 0.1*sin(x0))"],
    ],
    "gbar": [
        ["(2 - (1 + 0.1*sin(x0)))/((1 + 0.1*sin(x0))^2*2)", "0"],
        [None, "(2 - (1 + 0.1*sin(x0)))/(4*(1 + 0.1*sin(x0)))"],
    ],
}

CONFORMAL_SCENE = {
    "dim": 2,
    "box": [[-0.5, 0.5], [-0.5, 0.5]],
    "base_point": [0.0, 0.0],
    "g": [["1", "0"], [None, "1"]],
    "gbar": [["2", "0"], [None, "2"]],
}

BAD_PAIR_SCENE = {
    "dim": 2,
    "box": [[-0.4, 0.4], [-0.4, 0.4]],
    "base_point": [0.0, 0.0],
    "g": [["1", "0"], [None, "1"]],
    "gbar": [["exp(x0)", "0"], [None, "1"]],
}

ONE_D_SCENE_A = {
    "dim": 1,
    "box": [[-0.4, 0.4]],
    "base_point": [0.0],
    "g": [["1"]],
    "gbar": [["1/((1 + 0.1*sin(x0))^2)"]],
}

ONE_D_SCENE_B = {
    "dim": 1,
    "box": [[-0.4, 0.4]],
    "base_point": [0.0],
    "g": [["1"]],
    "gbar": [["1/((3 + 0.1*x0)^2)"]],
}

REPO_SCENES = Path(__file__).resolve().parents[1] / "scenes"
REPO_LC3 = str(REPO_SCENES / "lc3.json")
REPO_FACTOR_A = str(REPO_SCENES / "factor-a.json")
REPO_FACTOR_B = str(REPO_SCENES / "factor-b.json")


def _scaled_identity_scene(n, g_scale, gbar_scale):
    def diag(c):
        return [[repr(c) if i == j else "0" for j in range(n)] for i in range(n)]

    return {
        "dim": n,
        "box": [[-0.5, 0.5]] * n,
        "base_point": [0.0] * n,
        "g": diag(g_scale),
        "gbar": diag(gbar_scale),
    }


LC3_SCENE = {
    "dim": 3,
    "box": [[-0.4, 0.4]] * 3,
    "base_point": [0.0, 0.0, 0.0],
    # generated from a three-eigenvalue normal-form spec (1+0.1*x0, 2, 3.5)
    "g": None,
    "gbar": None,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _lc3_scene(tmp_path, capsys):
    spec = {
        "simple": [
            {"lambda": "1 + 0.1*x0", "interval": [-0.4, 0.4]},
            {"lambda": "2", "interval": [-0.4, 0.4]},
            {"lambda": "3.5", "interval": [-0.4, 0.4]},
        ]
    }
    spec_path = _write(tmp_path, "lc3-spec.json", spec)
    out_path = str(tmp_path / "lc3-scene.json")
    code = main(["generate", spec_path, "-o", out_path])
    capsys.readouterr()
    assert code == 0
    return out_path


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_corpus_scene(tmp_path, capsys):
    scene = _write(tmp_path, "lc.json", LC_SCENE)
    code, report = _run(capsys, ["check", scene])
    assert code == 0
    assert report["pass"] is True
    assert report["checks"]["compatibility_residual"]["max"] <= 1e-9
    eigs = [e[0] for e in report["spectrum_at_base"]]
    assert np.allclose(sorted(eigs), [1.0, 2.0], atol=1e-9)


def test_check_conformal_reports_scaled_identity(tmp_path, capsys):
    scene = _write(tmp_path, "conf.json", CONFORMAL_SCENE)
    code, report = _run(capsys, ["check", scene])
    assert code == 0
    want = 2.0 ** (-1.0 / 3.0)
    assert report["spectrum_at_base"] == [[pytest.approx(want), 0.0, 2]]


def test_check_fails_on_non_equivalent_pair(tmp_path, capsys):
    scene = _write(tmp_path, "bad.json", BAD_PAIR_SCENE)
    code, report = _run(capsys, ["check", scene])
    assert code == 2
    assert report["pass"] is False
    assert report["checks"]["compatibility_residual"]["max"] > 1e-6


@pytest.mark.parametrize("g_scale, gbar_scale", [(1.0, 1e-3), (0.003, 0.003)])
def test_check_accepts_small_constant_metrics(tmp_path, capsys, g_scale, gbar_scale):
    # nondegeneracy is scale-relative: a constant multiple of a
    # nondegenerate metric stays nondegenerate however small its det
    scene = _write(tmp_path, "small.json", _scaled_identity_scene(4, g_scale, gbar_scale))
    code, report = _run(capsys, ["check", scene, "--points", "10"])
    assert code == 0
    assert report["pass"] is True


def test_check_runs_its_points_as_one_batch(monkeypatch, capsys):
    # 60 points: one call of Christoffel and of L's closure with its
    # jacobian, not one per point; the spectrum at the base point reads
    # the L that gave the sign flag, so the metric kernels run once at the
    # base point (the scene load's degeneracy test; L's sign reads that
    # batch) and once over the points, and the pair tensor runs once at
    # each
    from geoequiv import cli, fields
    from geoequiv.equiv import core, factorization, splitglue

    kernel_rows, pair_tensors = [], []
    real_kernel_rows, real_pair_tensor = fields._Backing._kernel_rows, core._pair_tensor
    monkeypatch.setattr(fields._Backing, "_kernel_rows", lambda self, rows: (
        kernel_rows.append(len(rows)) or real_kernel_rows(self, rows)))
    monkeypatch.setattr(core, "_pair_tensor", lambda gv, gbv, rows, dgv=None, dgbv=None: (
        pair_tensors.append((len(rows), dgv is not None))
        or real_pair_tensor(gv, gbv, rows, dgv, dgbv)))
    code, report = _run(capsys, ["check", REPO_LC3, "--points", "60"])
    assert code == 0 and report["pass"] is True
    assert kernel_rows == [1, 1, 60, 60]
    assert pair_tensors == [(1, False), (60, True)]
    monkeypatch.undo()

    jac_calls, christoffel_calls = [], []
    make_l = cli.l_tensor_field

    def counted_l(g, gbar):
        L = make_l(g, gbar)
        jac = L._backing._jac
        L._backing._jac = (lambda rows, derivative:
                           jac_calls.append((len(rows), derivative))
                           or jac(rows, derivative))
        return L

    real_christoffel = fields.christoffel
    monkeypatch.setattr(cli, "l_tensor_field", counted_l)
    monkeypatch.setattr(fields, "christoffel",
                        lambda g, p: christoffel_calls.append(1) or real_christoffel(g, p))
    code, report = _run(capsys, ["check", REPO_LC3, "--points", "60"])
    assert code == 0 and report["pass"] is True
    assert jac_calls == [(60, True)]
    assert len(christoffel_calls) == 1

    # split: h, hbar and the projectors share one closure and one batch,
    # so the factor pipeline runs once at each of the 31 probe points (the
    # degeneracy scan of h and hbar) and once at each of the 6 sample
    # points, where every read after the first hits the kept batch
    runs = []
    real_factors = factorization.factors_and_derivatives
    monkeypatch.setattr(factorization, "factors_and_derivatives",
                        lambda *args: runs.append(1) or real_factors(*args))
    # and the split closure runs once for the probe scan and once, with
    # its jacobian, per chunk of CHECK_BATCH sample points
    closure_calls = []
    make_fields = splitglue.stacked_fields

    def counted_fields(classes, chart, jac):
        return make_fields(classes, chart, lambda rows, derivative: closure_calls.append(
            (len(rows), derivative)) or jac(rows, derivative))

    monkeypatch.setattr(splitglue, "stacked_fields", counted_fields)
    code, report = _run(capsys, ["split", REPO_LC3, "--groups", "0|1,2",
                                 "--points", "6"])
    assert code == 0 and report["pass"] is True
    assert len(runs) == 31 + 6
    assert closure_calls == [(31, False), (6, True)]
    closure_calls.clear()
    monkeypatch.setattr(cli, "CHECK_BATCH", 4)
    code, chunked = _run(capsys, ["split", REPO_LC3, "--groups", "0|1,2",
                                  "--points", "6"])
    assert code == 0 and chunked == report
    assert closure_calls == [(31, False), (4, True), (2, True)]

    # ts: the pair closure runs once for its 21 probe points, whose last
    # row, the base point, serves the sign of L, then once, with its
    # jacobian, per chunk of sample points
    from geoequiv.equiv import core
    pair_calls = []
    make_pair = core.stacked_fields

    def counted_pair(classes, chart, jac):
        return make_pair(classes, chart, lambda rows, derivative: pair_calls.append(
            (len(rows), derivative)) or jac(rows, derivative))

    monkeypatch.setattr(core, "stacked_fields", counted_pair)
    code, report = _run(capsys, ["ts", REPO_LC3, "--f", "exp", "--points", "6"])
    assert code == 0 and report["pass"] is True
    assert pair_calls == [(21, False), (4, True), (2, True)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: check samples points "
                   "and never meets the line x0 = 0 where g degenerates")
@pytest.mark.parametrize("seed", ["42", "3"])
def test_check_fails_a_metric_that_degenerates_inside_the_box(tmp_path, capsys, seed):
    # g = gbar = diag(x0, 1) is degenerate on x0 = 0, inside the box
    scene = _write(tmp_path, "degenerate.json", {
        "dim": 2, "box": [[-1, 1], [-1, 1]], "base_point": [0.5, 0.0],
        "g": [["x0", "0"], [None, "1"]], "gbar": [["x0", "0"], [None, "1"]]})
    code, _ = _run(capsys, ["check", scene, "--points", "50", "--seed", seed])
    assert code != 0


def test_check_raises_the_first_error_of_a_per_point_loop(tmp_path, capsys):
    # g degenerates at sample 5 and gbar at sample 2: a batch meets g's
    # failure first (Christoffel runs before the pair tensor), the per-point
    # loop meets gbar's at sample 2, and check must report that one
    box = [[-0.5, 0.5], [-0.5, 0.5]]
    points = sample_points(Chart(2, tuple(map(tuple, box)), (0.0, 0.0)), 8, 42)
    late, early = float(points[5][0]), float(points[2][0])
    scene = {
        "dim": 2, "box": box, "base_point": [0.0, 0.0],
        "g": [[f"x0 - ({late!r})", "0"], [None, "1"]],
        "gbar": [[f"x0 - ({early!r})", "0"], [None, "2"]],
    }
    path = _write(tmp_path, "late-early.json", scene)
    code = main(["check", path, "--points", "8"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"error: DegenerateMetric: metric degenerate at {points[2]} (dets " in err


def test_check_input_error_exit_code(tmp_path, capsys):
    bad = dict(LC_SCENE)
    bad["g"] = [["x7", "0"], [None, "1"]]
    scene = _write(tmp_path, "badexpr.json", bad)
    code = main(["check", scene])
    err = capsys.readouterr().err
    assert code == 3
    assert "g[0][0]" in err


def test_missing_scene_file(capsys):
    code = main(["check", "/nonexistent/scene.json"])
    assert code == 3


# ---------------------------------------------------------------------------
# split


def test_split_command_with_export(tmp_path, capsys):
    scene = _lc3_scene(tmp_path, capsys)
    export = str(tmp_path / "grid.json")
    code, report = _run(
        capsys,
        ["split", scene, "--groups", "0|1,2", "--points", "20",
         "--export", export, "--grid", "3"],
    )
    assert code == 0
    assert report["pass"] is True
    assert report["factor_dims"] == [1, 2]
    grid = json.loads(open(export).read())
    assert grid["grid"] == 3
    assert len(grid["fields"]["h"]) == 27
    assert len(grid["fields"]["h"][0]) == 9


def test_split_report_shows_the_smallest_group_gap(capsys):
    # the smallest distance between the eigenvalue of group 0 and those of
    # group 1 over the sample points, and the tolerance it must stay above
    code, report = _run(capsys, ["split", REPO_LC3, "--groups", "0|1,2",
                                 "--points", "6", "--seed", "5"])
    assert code == 0
    chart, g, gbar = load_scene(REPO_LC3)
    L = l_tensor_field(g, gbar)
    gaps = []
    for p in sample_points(chart, 6, 5):
        w = np.sort_complex(np.linalg.eigvals(L.value(p)))
        gaps.append(np.min(np.abs(w[0] - w[1:])))
    lv0 = L.value(chart.base_point)
    assert report["factorization"] == {
        "min_group_gap": pytest.approx(min(gaps), rel=1e-12),
        "gap_tolerance": pytest.approx(1e-6 * (1.0 + np.linalg.norm(lv0)), rel=1e-12),
    }


def test_split_with_eigenvectors_off_the_coordinate_axes(tmp_path, capsys):
    # L has eigenvectors (1, 1) and (1, -1), so P1 has diagonal (1/2, 1/2)
    # and range(P1) is not spanned by coordinate columns of P1
    scene = _write(tmp_path, "diag-eigvecs.json", {
        "dim": 2,
        "box": [[-0.4, 0.4]] * 2,
        "base_point": [0.0, 0.0],
        "g": [["1", "0"], [None, "1"]],
        "gbar": [["0.035", "-0.015"], [None, "0.035"]],
    })
    code, report = _run(capsys, ["split", scene, "--groups", "0|1"])
    assert code == 0
    assert report["pass"] is True
    assert all(check["pass"] for check in report["checks"].values())
    assert report["factor_dims"] == [1, 1]


def test_split_conjugation_violation_exit(tmp_path, capsys):
    # complex pair must not be separated
    scene = _write(
        tmp_path,
        "rot.json",
        {
            "dim": 3,
            "box": [[-0.3, 0.3]] * 3,
            "base_point": [0.0, 0.0, 0.0],
            "g": [["1", "0", "0"], [None, "1", "0"], [None, None, "-1"]],
            # gbar chosen so the pair tensor has a conjugate pair + real
            "gbar": [
                ["0.2", "0", "0"],
                [None, "0.25", "0.1"],
                [None, None, "-0.25"],
            ],
        },
    )
    code = main(["split", scene, "--groups", "0|1,2", "--points", "5"])
    assert code in (2, 3)  # grouping that splits a pair is rejected


# ---------------------------------------------------------------------------
# glue


def test_glue_command(tmp_path, capsys):
    s1 = _write(tmp_path, "a.json", ONE_D_SCENE_A)
    s2 = _write(tmp_path, "b.json", ONE_D_SCENE_B)
    code, report = _run(
        capsys,
        ["glue", s1, s2, "--points", "15", "--trajectories", "3"],
    )
    assert code == 0
    assert report["pass"] is True
    assert report["factor_dims"] == [1, 1]
    assert report["checks"]["block_condition_3"]["max"] <= 1e-5


def test_glue_same_scene_rejected(tmp_path, capsys):
    s1 = _write(tmp_path, "a.json", ONE_D_SCENE_A)
    code = main(["glue", s1, s1, "--points", "5", "--trajectories", "2"])
    assert code == 3
    assert "Spectra" in capsys.readouterr().err or True


# ---------------------------------------------------------------------------
# ts


def test_ts_identity_matches_check(tmp_path, capsys):
    scene = _write(tmp_path, "lc.json", LC_SCENE)
    code1, rep1 = _run(capsys, ["check", scene])
    code2, rep2 = _run(capsys, ["ts", scene, "--f", "id"])
    assert code1 == code2 == 0
    assert rep2["flags"]["identity_transform"] is True
    assert rep1["checks"] == rep2["checks"]


def test_ts_sinjukov_case(tmp_path, capsys):
    scene = _write(tmp_path, "lc.json", LC_SCENE)
    code, report = _run(
        capsys, ["ts", scene, "--f", "poly:0,1", "--points", "40"]
    )
    assert code == 0
    assert report["pass"] is True


def test_ts_reciprocal_inside_spectrum_rejected(tmp_path, capsys):
    scene = _write(tmp_path, "lc.json", LC_SCENE)
    code = main(["ts", scene, "--f", "recip:2"])
    assert code == 3  # eigenvalue 2 sits on the pole


def test_parse_function_spec_errors():
    with pytest.raises(SceneError):
        parse_function_spec("cosh")
    with pytest.raises(SceneError):
        parse_function_spec("poly:a,b")


# ---------------------------------------------------------------------------
# generate


def test_generate_keeps_negative_block_eigenvalue(tmp_path, capsys):
    # the constant block writes (-1.5)^2 into gbar; printed as -1.5^2 it
    # would parse back as -(1.5^2) and flip gbar's sign
    spec = {
        "simple": [{"lambda": "1 + 0.1*x0", "interval": [-0.4, 0.4]}],
        "blocks": [{"lambda": -1.5, "dim": 2,
                    "metric": [["1", "0"], [None, "1"]],
                    "intervals": [[-0.4, 0.4], [-0.4, 0.4]]}],
    }
    out_path = str(tmp_path / "neg-block.json")
    assert main(["generate", _write(tmp_path, "neg-spec.json", spec),
                 "-o", out_path]) == 0
    capsys.readouterr()
    g, gbar = levi_civita_pair(LeviCivitaSpec.from_dict(spec))
    chart, g2, gbar2 = load_scene(out_path)
    p = chart.base_point
    assert np.array_equal(g2.value(p), g.value(p))
    assert np.array_equal(gbar2.value(p), gbar.value(p))


def test_generate_roundtrips_through_check(tmp_path, capsys):
    scene_path = _lc3_scene(tmp_path, capsys)
    scene = json.loads(open(scene_path).read())
    assert scene["dim"] == 3
    code, report = _run(capsys, ["check", scene_path, "--points", "50"])
    assert code == 0 and report["pass"] is True


def test_generate_invalid_spec(tmp_path, capsys):
    path = _write(tmp_path, "bad-spec.json", {"simple": [{"lambda": "x0"}]})
    code = main(["generate", path])
    assert code == 3


_UNIT_BLOCK = {"dim": 2, "metric": [["1", "0"], [None, "1"]],
               "intervals": [[-0.4, 0.4], [-0.4, 0.4]]}


@pytest.mark.parametrize("spec", [
    {"simple": [{"lambda": "1 + 0.1*x0", "interval": [-0.4, 0.4]}],
     "blocks": [dict(_UNIT_BLOCK, **{"lambda": float("nan")})]},
    {"simple": [{"lambda": "1 + 0.1*sin(x0)", "interval": [-0.4, float("inf")]},
                {"lambda": "2 + 0.1*x0", "interval": [-0.4, 0.4]}]},
    {"simple": [{"lambda": "1 + 0.1*x0", "interval": [0.4, -0.4]},
                {"lambda": "2", "interval": [-0.4, 0.4]}]},
    {"simple": [{"lambda": "1 + 0.1*x0", "interval": [-0.4, 0.4], "base": float("nan")},
                {"lambda": "2", "interval": [-0.4, 0.4]}]},
], ids=["nan-block-eigenvalue", "infinite-interval", "reversed-interval", "nan-base"])
def test_generate_rejects_hostile_spec(tmp_path, capsys, spec):
    # json.dumps writes NaN and Infinity, which json.load reads back
    path = _write(tmp_path, "hostile-spec.json", spec)
    code = main(["generate", path])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "error: invalid normal-form spec:" in err and "Traceback" not in err


@pytest.mark.parametrize("lam, interval", [
    ("exp(1000*x0)", [1, 2]),
    ("sin(x0^400)", [5, 6]),
], ids=["exp-overflow", "pow-overflow"])
def test_generate_arithmetic_error_exits_3(tmp_path, capsys, lam, interval):
    # an eigenvalue whose evaluation overflows on the probe points ends as
    # the DomainError of the kernel, not in a traceback
    path = _write(tmp_path, "overflow-spec.json",
                  {"simple": [{"lambda": lam, "interval": interval}]})
    code = main(["generate", path])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: DomainError: OverflowError ")
    assert f"evaluating {to_text(parse(lam, 1))} at [" in err


def test_generate_with_multiple_block(tmp_path, capsys):
    spec = {
        "simple": [{"lambda": "1 + 0.1*sin(x0)", "interval": [-0.4, 0.4]}],
        "blocks": [
            {
                "lambda": 4.0,
                "dim": 2,
                "metric": [["1", "0.2*x1"], [None, "1.5 + 0.1*x0^2"]],
                "intervals": [[-0.4, 0.4], [-0.4, 0.4]],
            }
        ],
    }
    spec_path = _write(tmp_path, "mixed-spec.json", spec)
    out_path = str(tmp_path / "mixed-scene.json")
    assert main(["generate", spec_path, "-o", out_path]) == 0
    capsys.readouterr()
    code, report = _run(capsys, ["check", out_path, "--points", "40"])
    assert code == 0 and report["pass"] is True
    eigs = sorted(e[0] for e in report["spectrum_at_base"])
    assert eigs == [pytest.approx(1.0), pytest.approx(4.0)]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_command(tmp_path, capsys):
    scene = _write(tmp_path, "lc.json", LC_SCENE)
    code, report = _run(capsys, ["oracle", scene, "--trajectories", "5"])
    assert code == 0
    assert report["checks"]["oracle_defect"]["max"] <= 1e-5


def test_oracle_negative_control(tmp_path, capsys):
    scene = _write(tmp_path, "bad.json", BAD_PAIR_SCENE)
    code, report = _run(capsys, ["oracle", scene, "--trajectories", "5"])
    assert code == 2
    assert report["checks"]["oracle_defect"]["max"] > 1e-2


# g has a square root that is undefined past x0 = 0.42, just outside the box
EDGE_SCENE = {
    "dim": 2,
    "box": [[-0.4, 0.4], [-0.4, 0.4]],
    "base_point": [0.0, 0.0],
    "g": [["1 + 0*sqrt(0.42 - x0)", "0"], ["0", "1 + 0.2*x0"]],
    "gbar": [["3*(1 + 0*sqrt(0.42 - x0))", "0"], ["0", "3*(1 + 0.2*x0)"]],
}


@pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
def test_oracle_stages_stay_near_the_box_edge(tmp_path, capsys, seed):
    # steps longer than the sample spacing that would put a stage outside
    # the box are retried at that spacing, so no stage reaches x0 > 0.42
    scene = _write(tmp_path, "edge.json", EDGE_SCENE)
    code, report = _run(capsys, ["oracle", scene, "--trajectories", "20",
                                 "--seed", seed])
    assert code == 0
    assert report["flags"]["box_exits"] > 0


def _strict(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["oracle", REPO_LC3, "--trajectories", "3"],
    ["glue", REPO_FACTOR_A, REPO_FACTOR_B, "--points", "4", "--trajectories", "2"],
], ids=["oracle", "glue"])
def test_reports_show_what_the_integrator_did(capsys, argv):
    code = main(argv)
    integrator = _strict(capsys.readouterr().out)["integrator"]
    assert code == 0
    assert sorted(integrator) == ["max_energy_drift", "max_local_error",
                                  "steps_accepted", "steps_rejected"]
    assert isinstance(integrator["steps_accepted"], int)
    assert isinstance(integrator["steps_rejected"], int)
    assert integrator["steps_accepted"] > 0 and integrator["steps_rejected"] >= 0
    assert 0.0 < integrator["max_local_error"] <= 1.0
    assert 0.0 <= integrator["max_energy_drift"] <= 1e-8


# ---------------------------------------------------------------------------
# determinism and plumbing


def test_reports_byte_identical_across_runs(tmp_path):
    scene = _write(tmp_path, "lc.json", LC_SCENE)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "geoequiv.cli", "check", scene,
             "--points", "30"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip() != ""


def test_tolerance_scale_env(tmp_path, capsys, monkeypatch):
    scene = _write(tmp_path, "bad.json", BAD_PAIR_SCENE)
    monkeypatch.setenv("GEQ_TOL_SCALE", "1e12")
    code, report = _run(capsys, ["check", scene])
    assert code == 0  # enormous scale makes everything pass
    monkeypatch.delenv("GEQ_TOL_SCALE")


@pytest.mark.parametrize("argv, tol_scale", [
    (["check", REPO_LC3, "--points", "0"], None),
    (["check", REPO_LC3, "--points", "-3"], None),
    (["oracle", REPO_LC3, "--trajectories", "0"], None),
    (["check", REPO_LC3, "--points", "5"], "abc"),
    (["check", REPO_LC3, "--points", "5"], "inf"),
    (["check", REPO_LC3, "--points", "5"], "nan"),
    (["ts", REPO_LC3, "--f", "recip:2.0", "--points", "5"], None),
    (["split", REPO_LC3, "--groups", "0|1,2", "--export", os.devnull,
      "--grid", "-1"], None),
    (["split", REPO_LC3, "--groups", "0|1,2", "--export", os.devnull,
      "--grid", "0"], None),
    (["glue", REPO_FACTOR_A, REPO_FACTOR_B, "--export", os.devnull,
      "--grid", "0"], None),
])
def test_invalid_input_exits_3_without_report(capsys, monkeypatch, argv, tol_scale):
    if tol_scale is None:
        monkeypatch.delenv("GEQ_TOL_SCALE", raising=False)
    else:
        monkeypatch.setenv("GEQ_TOL_SCALE", tol_scale)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_non_finite_literal_exits_3(tmp_path, capsys):
    scene = json.loads(Path(REPO_LC3).read_text())
    scene["g"][0][0] = "1e999*0 + 1"
    code = main(["check", _write(tmp_path, "inf.json", scene), "--points", "5"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "g[0][0]: number literal '1e999' is not finite (at offset 0)" in err


@pytest.mark.parametrize("command", ["check", "oracle"])
@pytest.mark.parametrize("box", [[float("-inf"), 1.0], [0.0, float("inf")], [-1e308, 1e308]],
                         ids=["infinite-lo", "infinite-hi", "width-overflows"])
def test_a_box_that_is_not_finite_exits_3(tmp_path, capsys, command, box):
    # an infinite bound made every sample point NaN, so every check of
    # `check` passed on nothing
    scene = {"dim": 1, "box": [box], "base_point": [0.0], "g": [["1"]], "gbar": [["2"]]}
    code = main([command, _write(tmp_path, "box.json", scene)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: box/base_point: box interval 0 must have a finite width\n"


def test_bad_arguments_exit_3(capsys):
    assert main(["split"]) == 3
    assert main(["nonsense"]) == 3


@pytest.mark.parametrize("argv", [["split", REPO_LC3], ["nonsense"]],
                         ids=["subcommand", "command"])
def test_usage_error_after_a_report_matches_a_fresh_process(capsys, monkeypatch, argv):
    # the parser is built once per process: a report parsed with it must
    # leave it as a fresh process has it
    monkeypatch.setenv("COLUMNS", "80")
    fresh = subprocess.run([sys.executable, "-m", "geoequiv.cli"] + argv,
                           capture_output=True, text=True)
    assert main(["check", REPO_LC3, "--points", "2"]) == 0
    capsys.readouterr()
    code = main(argv)
    assert code == fresh.returncode == 3
    assert capsys.readouterr().err == fresh.stderr
    assert fresh.stderr.startswith("usage: geoequiv")


def test_load_scene_mirrors_upper_triangle(tmp_path):
    scene = _write(
        tmp_path,
        "mirror.json",
        {
            "dim": 2,
            "box": [[-0.5, 0.5], [-0.5, 0.5]],
            "base_point": [0.0, 0.0],
            "g": [["1", "0.1*x0"], ["999", "2"]],  # lower triangle ignored
            "gbar": [["2", "0"], [None, "3"]],
        },
    )
    chart, g, gbar = load_scene(scene)
    gv = g.value((0.3, 0.1))
    assert gv[1, 0] == gv[0, 1] == pytest.approx(0.03)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("values", [[1e-12, float("nan")], [float("inf")]])
def test_non_finite_statistics_fail_as_strict_json(values, capsys):
    from geoequiv.cli import _stats, emit

    checks = {"residual": _stats(values, 1e-9)}
    code = emit({"checks": checks, "pass": checks["residual"]["pass"]})
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2 and doc["pass"] is False
    check = doc["checks"]["residual"]
    assert check["pass"] is False and check["max"] is None
    assert check["non_finite"] == 1


# an arithmetic error met while evaluating the pair: sin of an infinity
# inside a compiled kernel.  The steep exp(1000*x0) entry makes oracle give
# up on the step size, so that case exits 3 through StepFailure.
EXP = "exp(1000*x0) + 1"
SIN = "2 + sin(x0*1e300*1e300*x0)"
CHECK = ["check", "--points", "20"]
TS = ["ts", "--f", "exp", "--points", "20"]
ORACLE = ["oracle", "--trajectories", "2"]


@pytest.mark.parametrize("entry, command, error", [
    pytest.param(SIN, CHECK, "DomainError", id="check-sin-of-inf"),
    pytest.param(SIN, TS, "DomainError", id="ts-sin-of-inf"),
    pytest.param(EXP, ORACLE, "StepFailure", id="oracle-exp-step-failure"),
    pytest.param(SIN, ORACLE, "DomainError", id="oracle-sin-of-inf"),
])
def test_arithmetic_error_exits_3(tmp_path, capsys, entry, command, error):
    scene = _write(tmp_path, "overflow.json", {
        "dim": 2,
        "box": [[-0.5, 0.5], [-0.5, 0.5]],
        "base_point": [0.0, 0.0],
        "g": [[entry, "0"], [None, "1"]],
        "gbar": [[entry, "0"], [None, "1"]],
    })
    code = main([command[0], scene] + command[1:])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"error: {error}: " in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [CHECK, TS], ids=["check", "ts"])
def test_pair_with_a_huge_determinant_passes(tmp_path, capsys, command):
    # g = gbar = diag(exp(1000*x0) + 1, 1) is a valid pair whose determinant
    # reaches 1e217: the pair tensor's derivative takes no determinant, and
    # the self-adjointness ratio scales g L before its norms, so nothing
    # squares it past the float range
    scene = _write(tmp_path, "steep.json", {
        "dim": 2,
        "box": [[-0.5, 0.5], [-0.5, 0.5]],
        "base_point": [0.0, 0.0],
        "g": [[EXP, "0"], [None, "1"]],
        "gbar": [[EXP, "0"], [None, "1"]],
    })
    code = main([command[0], scene] + command[1:])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("negative, verdict", [(False, 0), (True, 2)],
                         ids=["pass", "fail"])
def test_closed_stdout_keeps_the_verdict(tmp_path, negative, verdict):
    # the reader closes the pipe before the report is written, as
    # ``| head -c 100`` may: no traceback, and the exit code is the verdict
    scene = json.loads(Path(REPO_LC3).read_text())
    if negative:
        scene["gbar"][0][0] = f"({scene['gbar'][0][0]})*(1 + 0.4*x2)"
    path = _write(tmp_path, "scene.json", scene)
    run = subprocess.Popen(
        [sys.executable, "-m", "geoequiv.cli", "check", path, "--points", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    run.stdout.close()
    err = run.stderr.read().decode()
    run.stderr.close()
    assert run.wait() == verdict
    assert err == ""


@pytest.mark.parametrize("command", [CHECK, ORACLE], ids=["check", "oracle"])
def test_kernel_overflow_exits_3_with_only_the_error_line(tmp_path, command):
    # a power that overflows raises OverflowError on the kernel's float row,
    # as in the interpreter, instead of carrying inf and nan into the
    # metric with numpy warnings on stderr; a fresh process, so no test
    # harness catches the warnings
    entry = "(1e200*x0)^2*0 + 1"
    scene = _write(tmp_path, "overflow.json", {
        "dim": 2,
        "box": [[-0.5, 0.5], [-0.5, 0.5]],
        "base_point": [0.0, 0.0],
        "g": [[entry, "0"], [None, "1"]],
        "gbar": [[entry, "0"], [None, "1"]],
    })
    run = subprocess.run(
        [sys.executable, "-m", "geoequiv.cli", command[0], scene] + command[1:],
        capture_output=True, text=True)
    assert run.returncode == 3 and run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("error: DomainError: OverflowError ")
    assert "evaluating (1e+200*x0)^2*0.0 + 1.0 at [" in run.stderr


def test_stiff_geodesic_stops_at_the_step_budget(tmp_path, capsys, monkeypatch):
    # the steep exp(1000*x0) entry cannot meet the tolerance: the
    # integrator gives up after MAX_STEPS attempted steps of at most six
    # Christoffel rows each, plus the first stage, for each of the two
    # trajectories in lockstep and for the first once more when the report
    # replays it
    from geoequiv import oracle

    rows = []
    christoffel = oracle.christoffel
    monkeypatch.setattr(oracle, "christoffel", lambda g, p: rows.append(
        len(np.atleast_2d(p))) or christoffel(g, p))
    scene = _write(tmp_path, "stiff.json", {
        "dim": 2,
        "box": [[-0.5, 0.5], [-0.5, 0.5]],
        "base_point": [0.0, 0.0],
        "g": [[EXP, "0"], [None, "1"]],
        "gbar": [[EXP, "0"], [None, "1"]],
    })
    code = main([ORACLE[0], scene] + ORACLE[1:])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "error: StepFailure: " in err
    assert 0 < sum(rows) <= 3 * (6 * oracle.MAX_STEPS + 1)


# ---------------------------------------------------------------------------
# bounded fuzz of the CLI contract: random expression trees as the
# eigenvalues of a normal-form spec and as the entries of a scene.  Every
# run exits 0, 2 or 3, prints strict JSON (nothing on exit 3) and raises
# nothing, so a command-line run never ends in a traceback; a
# RuntimeWarning from the package raises here too.

_BOXES = [(-0.4, 0.4), (1.0, 2.0), (-2.0, 3.0)]
# exp of a coordinate here nears the float range or leaves it
_FAR_BOX = (300.0, 800.0)


def _contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 3:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_expr_strategy(1), st.sampled_from(_BOXES + [_FAR_BOX])),
                min_size=1, max_size=3))
def test_fuzz_generate_keeps_the_cli_contract(tmp_path_factory, simple):
    spec = {"simple": [{"lambda": to_text(e), "interval": list(iv)} for e, iv in simple]}
    _contract(["generate", _write(tmp_path_factory.getbasetemp(), "fuzz-spec.json", spec)])


@st.composite
def _fuzz_scenes(draw, boxes):
    n = draw(st.integers(1, 3))
    box = draw(st.sampled_from(boxes))
    trees = _expr_strategy(n)  # built once: building it per entry took most of the time

    def metric():
        return [[to_text(draw(trees)) if j >= i else None for j in range(n)]
                for i in range(n)]

    return {"dim": n, "box": [list(box)] * n, "base_point": [0.5 * sum(box)] * n,
            "g": metric(), "gbar": metric()}


def _check_contract(tmp_path_factory, scene):
    _contract(["check", _write(tmp_path_factory.getbasetemp(), "fuzz-scene.json", scene),
               "--points", "3"])


@settings(max_examples=20, deadline=None)
@given(_fuzz_scenes(_BOXES))
def test_fuzz_check_keeps_the_cli_contract(tmp_path_factory, scene):
    _check_contract(tmp_path_factory, scene)


@settings(max_examples=20, deadline=None)
@given(_fuzz_scenes(_BOXES))
def test_fuzz_ts_and_oracle_keep_the_cli_contract(tmp_path_factory, scene):
    # the pair checks of a rescaled pair and the geodesic defect
    scene = _write(tmp_path_factory.getbasetemp(), "fuzz-scene.json", scene)
    _contract(["ts", scene, "--f", "exp", "--points", "3"])
    _contract(["oracle", scene, "--trajectories", "2"])


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="metric entries near the float range overflow numpy "
                          "products and norms (smallmat.frob, the self-adjointness "
                          "check) with RuntimeWarnings")
@settings(max_examples=10, deadline=None)
@given(_fuzz_scenes([_FAR_BOX]))
@example({"dim": 1, "box": [list(_FAR_BOX)], "base_point": [550.0],
          "g": [["exp(x0)"]], "gbar": [["1.0"]]})
def test_fuzz_check_near_the_float_range_keeps_the_cli_contract(tmp_path_factory, scene):
    # every pair in dimension 1 is geodesically equivalent, yet ``check`` on
    # the example warns twice and fails self-adjointness with a non-finite
    # value: g L, about g^(3/2), overflows
    _check_contract(tmp_path_factory, scene)
