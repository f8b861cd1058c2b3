"""Byte-exact stdout of fixed CLI commands against stored golden files.

Each case runs the CLI in a fresh process without a cache and compares its
stdout with ``tests/golden/<name>.out.gz``.  A refactor that changes any
byte fails here.  To record the outputs of the current code (only when an
output change is intended and explained), run

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
PAIRING = "fixtures/exceptional.tsv"

CASES = {
    "bern-7": ("bern", "7"),
    "bern-37": ("bern", "37"),
    "bern-1217": ("bern", "1217"),
    "bern-9829": ("bern", "9829"),
    "bern-1217-k784": ("bern", "1217", "--k", "784"),
    "irregular-2000": ("irregular", "--max-p", "2000"),
    "criteria-gk-1217-json": ("criteria", "gk", "1217", "--pairing", PAIRING),
    "criteria-gk-1217-tsv": ("criteria", "gk", "1217", "--pairing", PAIRING, "--format", "tsv"),
    "report-2000": ("report", "--max-p", "2000", "--pairing", PAIRING),
}


def run_case(args: tuple[str, ...]) -> bytes:
    env = {key: val for key, val in os.environ.items() if key != "CYCLOPAIR_CACHE_DIR"}
    res = subprocess.run(
        [sys.executable, "-m", "cyclopair", *args],
        cwd=REPO, capture_output=True, env=env, check=True,
    )
    return res.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    expected = gzip.decompress((GOLDEN / f"{name}.out.gz").read_bytes())
    assert run_case(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in sorted(CASES.items()):
        # mtime=0 keeps the compressed files byte-stable across recordings
        (GOLDEN / f"{name}.out.gz").write_bytes(gzip.compress(run_case(args), mtime=0))
