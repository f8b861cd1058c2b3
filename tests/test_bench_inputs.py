"""The benchmark's inputs stay the same bytes, and its workloads the same
outputs at full size.

bench/run.py builds every workload's table through serialize_pairing_table
over the synthetic generators and checks the reports against recorded
outputs; a change to the generators or to the text they serialize to would
change what the benchmark measures.  Each workload also runs once here at
its full bounds, with the inputs the harness sets up, and its stdout must
equal the recorded reference: the harness's own self-check runs them at
smaller bounds only (packing-full below p = 300, so not the p = 491 solve).
One traced packing-full run pins what bench/traced_cli.py records of the
exact solver.  The module is loaded by path without writing bytecode into
bench/; its make_table, load_sources, set_up and expected_lines run,
nothing else of the harness.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of make_table(kind, the workload's sources, seed)
PINNED = {
    ("b-tables", "report-extend", 1):
        "c613ee7a756413eac3a8ced2aa3abaa07069f81398d8cc4439cbce3fa7b0e14b",
    ("b-tables", "report-extend", 7):
        "849b341981a3184e472186d20cd553365492ddee2b9849cd4c864c7615d20da9",
    ("e-tables", "packing-full", 1):
        "86b6c2e157eeea0a8e86b6cae713e9b22043177219b6900fca7804eac8f447b0",
    ("e-tables", "packing-full", 7):
        "57eb8e586734395ed89f5b177d909415a23a665bad008e74e4b1abe6bc7468d2",
}


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in bench/
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, workload, seed", list(PINNED))
def test_make_table_bytes_are_pinned(bench_run, kind, workload, seed):
    w = bench_run.WORKLOADS[workload]
    assert w.table == kind
    table = bench_run.make_table(kind, bench_run.load_sources(w, ROOT), seed)
    assert hashlib.sha256(table).hexdigest() == PINNED[kind, workload, seed]


def run_workload(bench_run, name, tmp_path, traced=()):
    # the workload's CLI run on its full-size inputs: (stdout lines, the
    # reference lines with the table digest filled in)
    w = bench_run.WORKLOADS[name]
    argv, digest = bench_run.set_up(w, 1, bench_run.load_sources(w, ROOT), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CYCLOPAIR_CACHE_DIR", None)
    cmd = [*traced, *argv] if traced else ["-m", "cyclopair", *argv]
    res = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    want = [line.replace(bench_run.DIGEST_PLACEHOLDER, digest)
            for line in bench_run.expected_lines(name, w.max_p)]
    return res.stdout.splitlines(), want


@pytest.mark.parametrize("name", ["sweep-cold", "report-extend", "packing-full"])
def test_workload_output_matches_reference(bench_run, name, tmp_path):
    assert list(bench_run.WORKLOADS) == ["sweep-cold", "report-extend", "packing-full"]
    got, want = run_workload(bench_run, name, tmp_path)
    assert got == want


def test_traced_packing_full_records_every_exact_solve(bench_run, tmp_path):
    # one packing.exact span per irregular prime below 500, each with the
    # size of the instance the solver was given, and the witness checks
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    (tmp_path / "inputs").mkdir()
    got, want = run_workload(bench_run, "packing-full", tmp_path / "inputs",
                             [str(ROOT / "bench" / "traced_cli.py"), str(spans_dir)])
    assert got == want
    spans = [json.loads(line) for f in sorted(spans_dir.glob("*.jsonl"))
             for line in f.read_text().splitlines()]
    exact = [s for s in spans if s["n"] == "packing.exact"]
    reports = [json.loads(line) for line in got]
    irregular = [r for r in reports if r["r"] >= 1]
    assert len(exact) == len(irregular) == 28
    assert sum(s["candidates"] for s in exact) == sum(
        r["pairing"]["eligible"] for r in irregular) == 4004
    assert any(s["n"] == "packing.witness_check" for s in spans)
