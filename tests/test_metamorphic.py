"""Verdicts that must not depend on a constant rescaling of g or gbar, or
on which metric of the pair comes first."""

import contextlib
import io
import json
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


CHANGES = {
    "gbar*3": lambda s: dict(s, gbar=_map(s["gbar"], lambda e: f"3*({e})")),
    "gbar/3": lambda s: dict(s, gbar=_map(s["gbar"], lambda e: f"({e})/3")),
    "g*3": lambda s: dict(s, g=_map(s["g"], lambda e: f"3*({e})")),
    "swap": lambda s: dict(s, g=s["gbar"], gbar=s["g"]),
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
