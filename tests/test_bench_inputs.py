"""The benchmark's pairing tables stay the same bytes.

bench/run.py builds every workload's table through serialize_pairing_table
over the synthetic generators and checks the reports against recorded
outputs; a change to the generators or to the text they serialize to would
change what the benchmark measures.  The module is loaded by path and only
read: its make_table runs, nothing else of the harness.
"""

import hashlib
import importlib.util
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
