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
     "82c3e01a4ef3973318a63c57427fba86ff6791056ac589d982d28644d5464e0f"),
    (["split", "scenes/lc3.json", "--groups", "0|1,2", "--points", "4"],
     "2f9fdb8c630878c462d4160560b86851862033839813585c9f52f78bd39f63df"),
    (["ts", "scenes/lc3.json", "--f", "exp", "--points", "4"],
     "dbf805c09e2e79e33f21445e0cd62c23f88f6d74d08e00d5215cab95342c15f3"),
    (["oracle", "scenes/lc3.json", "--trajectories", "3"],
     "0d32aeb514f991737ef19a690f733e302e719097a46270c3292e50d04b7e92ed"),
    (["glue", "scenes/factor-a.json", "scenes/factor-b.json", "--points", "4",
      "--trajectories", "1"],
     "1185a7306e9238a43cb5e3b6720b8b917bd0fdeb4ad72428a8a3aaffffd8e4b9"),
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
