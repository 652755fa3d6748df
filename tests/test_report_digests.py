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
     "05415b6fb846073545f5eea93e99915ab7b69b7b3e17239e33a19aabf4662f12"),
    (["split", "scenes/lc3.json", "--groups", "0|1,2", "--points", "4"],
     "ab5a20ca7b7549139c3a1bd5e8f54d82963990382c7d0869b4d55b06bd56bd6f"),
    (["ts", "scenes/lc3.json", "--f", "exp", "--points", "4"],
     "c8bb8799e24a434e157e1209a1ed11575c267ab9e1822419cc3e8ef24e402505"),
    (["oracle", "scenes/lc3.json", "--trajectories", "3"],
     "0d32aeb514f991737ef19a690f733e302e719097a46270c3292e50d04b7e92ed"),
    (["glue", "scenes/factor-a.json", "scenes/factor-b.json", "--points", "4",
      "--trajectories", "1"],
     "859ce2ec0b4130d6468451d53b839f7c5b8273ed9f9bada1015b8cad0c3b8ff9"),
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
