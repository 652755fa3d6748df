"""Bit-identity guard: sha256 of CLI reports on the example scenes.

Each case runs one command in-process from the repository root (so the
scene paths inside the reports are stable) and compares the sha256 of its
stdout with a pinned digest.  Any change to the numerics, however small,
changes a digest.  A change that alters numerics on purpose must update
the digests here and say so, with the reason, in ``CHANGES.md``.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from geoequiv.cli import main

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    (["check", "scenes/lc3.json", "--points", "20"],
     "b2b336df27b002641f37ff058d9957a260632117183daf7c50f66fd86917b6d1"),
    (["split", "scenes/lc3.json", "--groups", "0|1,2", "--points", "4"],
     "520ae5de434e7f49aa5b39797b7ed6177cf88fe074a09c23185e20ff495d979f"),
    (["ts", "scenes/lc3.json", "--f", "exp", "--points", "4"],
     "f1230b7f44e986367800a30a6dacbefb56ebe0b3e32145058e17ff8420b2e786"),
    (["oracle", "scenes/lc3.json", "--trajectories", "3"],
     "0d32aeb514f991737ef19a690f733e302e719097a46270c3292e50d04b7e92ed"),
    (["glue", "scenes/factor-a.json", "scenes/factor-b.json", "--points", "4",
      "--trajectories", "1"],
     "af5cb1cf1e431e9ea7365a9446d4d8a5cfc8f01aedfd11ac241366140e811332"),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[c[0][0] for c in CASES])
def test_report_digest(argv, digest, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GEQ_TOL_SCALE", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# a longer split, whose 40 samples and other grouping exercise the group
# tracker on many more paths than the 4-point case above
def test_split_report_digest_many_points(monkeypatch):
    test_report_digest(
        ["split", "scenes/lc3.json", "--groups", "0,1|2", "--points", "40",
         "--seed", "7"],
        "26220b13f674386a2b465cf952b2a968c06fb53ab2acb7aa715e81f8e4a8cd98",
        monkeypatch)


def test_split_export_digest(tmp_path, monkeypatch):
    # the grid file of --export: h, hbar and P1 at every lattice node
    grid = tmp_path / "grid.json"
    test_report_digest(
        ["split", "scenes/lc3.json", "--groups", "0|1,2", "--points", "12",
         "--export", str(grid)],
        "1df694031f5cbbdd6655d4d0a307ac8b1497e516ae4b57d0d20b93a196b415db",
        monkeypatch)
    assert (hashlib.sha256(grid.read_bytes()).hexdigest()
            == "c391f1cd04686a567d3824503f71c3f252832f69869c910f3a344922ca48156d")


def test_glue_export_digest(tmp_path, monkeypatch):
    # the grid file of glue's --export: g and gbar over the product chart
    grid = tmp_path / "grid.json"
    test_report_digest(
        ["glue", "scenes/factor-a.json", "scenes/factor-b.json", "--points", "4",
         "--trajectories", "1", "--export", str(grid)],
        "af5cb1cf1e431e9ea7365a9446d4d8a5cfc8f01aedfd11ac241366140e811332",
        monkeypatch)
    assert (hashlib.sha256(grid.read_bytes()).hexdigest()
            == "29d6e94fad8d00b59dd32739e7489caaf5e17c177063fc4a810c93c3b87b4180")
