"""bench/traced_cli.py keeps reading what it measures from the program.

The per-layer metrics of the benchmark come from spans that wrap functions
by name and read counts off their results; a change to a result's shape
would otherwise show up only as a wrong metric.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cyclopair.bernoulli import irregular_sweep
from cyclopair.pairing import serialize_pairing_table, synth_table

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("CYCLOPAIR_CACHE_DIR", None)
    res = subprocess.run([sys.executable, *map(str, argv)], capture_output=True,
                         env=env, cwd=tmp_path, timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    return res.stdout


def test_traced_report_counts_parsed_rows(tmp_path):
    # the tracer patches cli.irregular_sweep, cli.parse_pairing_file and
    # cli.build_report; each must still be the name the CLI calls through
    primes = list(irregular_sweep(300))
    sets = [irr for irr in primes if irr.indices]
    table = tmp_path / "table.tsv"
    table.write_text("".join(
        serialize_pairing_table(synth_table(irr.p, irr, seed=irr.p)) for irr in sets))
    e_rows = sum(irr.r * ((irr.p - 1) // 2) for irr in sets)
    report = ["report", "--max-p", "300", "--pairing", table]
    spans = tmp_path / "spans"
    spans.mkdir()
    traced = _run([ROOT / "bench" / "traced_cli.py", spans, *report], tmp_path)
    untraced = _run(["-m", "cyclopair", *report], tmp_path)
    assert traced == untraced
    records = [json.loads(line) for path in spans.glob("*.jsonl")
               for line in path.read_text().splitlines()]
    parses = [r for r in records if r["n"] == "pairing.parse"]
    assert [r["rows"] for r in parses] == [e_rows]
    sweeps = [r for r in records if r["n"] == "bernoulli.irregular_sweep"]
    assert [r["primes"] for r in sweeps] == [len(primes)]
    reports = [r for r in records if r["n"] == "report.build_report"]
    assert len(reports) == len(primes)
