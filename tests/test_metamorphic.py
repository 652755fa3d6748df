"""Verdicts that must not depend on a constant rescaling of g or gbar, on
which metric of the pair comes first, on the order of the coordinates, or
on the sampling seed."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from geoequiv.cli import main

LC3 = json.loads((Path(__file__).resolve().parents[1] / "scenes" / "lc3.json").read_text())


def _negative(scene):
    out = json.loads(json.dumps(scene))
    out["gbar"][0][0] = f"({out['gbar'][0][0]})*(1 + 0.4*x2)"
    return out


def _map(rows, fn):
    return [[fn(e) for e in row] for row in rows]


def _permuted(scene, perm):
    """The scene with coordinate k taken from coordinate perm[k]: box, base
    point, rows and columns of g and gbar, and the variables renamed."""
    new_index = {old: new for new, old in enumerate(perm)}

    def rename(e):
        return re.sub(r"x(\d+)", lambda m: f"x{new_index[int(m.group(1))]}", e)

    return dict(scene, box=[scene["box"][k] for k in perm],
                base_point=[scene["base_point"][k] for k in perm],
                **{key: [[rename(scene[key][i][j]) for j in perm] for i in perm]
                   for key in ("g", "gbar")})


CHANGES = {
    "gbar*3": lambda s: dict(s, gbar=_map(s["gbar"], lambda e: f"3*({e})")),
    "gbar/3": lambda s: dict(s, gbar=_map(s["gbar"], lambda e: f"({e})/3")),
    "g*3": lambda s: dict(s, g=_map(s["g"], lambda e: f"3*({e})")),
    "swap": lambda s: dict(s, g=s["gbar"], gbar=s["g"]),
    "x0<->x1": lambda s: _permuted(s, (1, 0, 2)),
    "x0->x2->x1->x0": lambda s: _permuted(s, (1, 2, 0)),
}


def _verdicts(tmp_path, scene, command):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command[0], str(path)] + command[1:])
    report = json.loads(out.getvalue())
    return code, {name: check["pass"] for name, check in report["checks"].items()}


@pytest.mark.parametrize("scene, expected", [(LC3, 0), (_negative(LC3), 2)],
                         ids=["lc3", "negative"])
@pytest.mark.parametrize("command", [["check", "--points", "20"],
                                     ["oracle", "--trajectories", "2"]],
                         ids=["check", "oracle"])
def test_verdicts_survive_rescaling_and_swap(tmp_path, scene, expected, command):
    base = _verdicts(tmp_path, scene, command)
    assert base[0] == expected
    for name, change in CHANGES.items():
        assert _verdicts(tmp_path, change(scene), command) == base, name


@pytest.mark.parametrize("scene, expected", [(LC3, 0), (_negative(LC3), 2)],
                         ids=["lc3", "negative"])
@pytest.mark.parametrize("command", [["check", "--points", "20"],
                                     ["oracle", "--trajectories", "2"]],
                         ids=["check", "oracle"])
def test_verdicts_survive_a_change_of_seed(tmp_path, scene, expected, command):
    verdicts = [_verdicts(tmp_path, scene, command + ["--seed", seed])
                for seed in ("1", "42", "7919")]
    assert verdicts[0][0] == expected
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]
