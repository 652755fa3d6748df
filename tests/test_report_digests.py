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
