"""Byte-exact stdout of fixed CLI commands against stored golden files.

Each case runs the CLI in a fresh process without a cache and compares its
stdout with ``tests/golden/<name>.out.gz``.  A refactor that changes any
byte fails here.  The cases run again under one CPython >= 3.10 of each
other minor version found (the pyenv versions, then ``python3.X`` on PATH),
since the package may use what a given interpreter lacks or has renamed;
the test skips when there is none.  To record the outputs of the current code (only when an
output change is intended and explained), run

    PYTHONPATH=src python tests/test_golden.py
"""

import gzip
import os
import shutil
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
    "criteria-gk-1217-json": ("criteria", "1217", "--pairing", PAIRING),
    "criteria-gk-1217-tsv": ("criteria", "1217", "--pairing", PAIRING, "--format", "tsv"),
    "report-2000": ("report", "--max-p", "2000", "--pairing", PAIRING),
}


def run_case(args: tuple[str, ...], python: str = sys.executable) -> bytes:
    env = {key: val for key, val in os.environ.items() if key != "CYCLOPAIR_CACHE_DIR"}
    env["PYTHONPATH"] = str(REPO / "src")
    res = subprocess.run(
        [python, "-m", "cyclopair", *args],
        cwd=REPO, capture_output=True, env=env, check=True,
    )
    return res.stdout


def golden(name: str) -> bytes:
    return gzip.decompress((GOLDEN / f"{name}.out.gz").read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    assert run_case(CASES[name]) == golden(name)


def other_interpreters() -> list[str]:
    """One CPython >= 3.10 per minor version other than the running one,
    each checked to start: a pyenv shim may name a version not installed."""
    seen = {sys.version_info[:2]}
    paths = sorted(map(str, Path.home().glob(".pyenv/versions/*/bin/python3")))
    paths += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    found = []
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2])"
    for path in paths:
        try:
            res = subprocess.run([path, "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = res.stdout.split()
        if res.returncode or fields[:1] != ["CPython"]:
            continue
        version = tuple(map(int, fields[1:]))
        if version >= (3, 10) and version not in seen:
            seen.add(version)
            found.append(path)
    return found


def test_golden_stdout_other_interpreters():
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 found")
    for python in pythons:
        for name, args in sorted(CASES.items()):
            assert run_case(args, python) == golden(name), (python, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in sorted(CASES.items()):
        # mtime=0 keeps the compressed files byte-stable across recordings
        (GOLDEN / f"{name}.out.gz").write_bytes(gzip.compress(run_case(args), mtime=0))
