"""Run the cyclopair CLI with a span around every call into each layer.

    PYTHONPATH=src python3 bench/traced_cli.py SPAN_DIR CLI_ARGS...

Names are wrapped where their callers bound them (``cyclopair.bernoulli``
imported ``convolution_mod`` by name, ``cyclopair.cli`` imported
``irregular_sweep``, and so on): patching only the defining module would
miss those calls.  Each span is appended to ``SPAN_DIR/<pid>.jsonl`` as the
call returns, so spans of forked pool workers survive ``Pool.terminate``,
which skips exit handlers.  A span records its name, start, end, the time
covered by its direct child spans and, for some layers, work counts.
"""

import functools
import json
import os
import sys
import time
from pathlib import Path

import cyclopair.bernoulli
import cyclopair.cache
import cyclopair.cli
import cyclopair.criteria
import cyclopair.packing
import cyclopair.report


class Tracer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.open_spans: list[float] = []  # child time covered so far, per open span
        self.out = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # the parent's open spans never close in the child
        self.open_spans = []
        self.out = None

    def _write(self, record: dict) -> None:
        if self.out is None:
            self.out = open(self.directory / f"{os.getpid()}.jsonl", "a")
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    def wrap(self, name: str, fn, counts=None):
        """``fn`` timed as span ``name``; ``counts(result, *args, **kwargs)``
        returns the work counts recorded with it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = self.open_spans.pop()
                if self.open_spans:
                    self.open_spans[-1] += t1 - t0
            record = {"n": name, "pid": os.getpid(), "t0": t0, "t1": t1, "c": child}
            if counts is not None:
                record.update(counts(result, *args, **kwargs))
            self._write(record)
            return result

        return traced


def _convolution_counts(result, u, v, p):
    # the slot width the Kronecker kernel needs for these inputs
    width = ((min(len(u), len(v)) * (p - 1) ** 2).bit_length() + 7) // 8
    return {"coeffs": len(u) + len(v), "bytes": (len(u) + len(v)) * width}


def _store_counts(result, cache, entries):
    try:
        return {"bytes": cache.path.stat().st_size}
    except OSError:
        return {"bytes": 0}


def _sweep_list(sweep):
    # irregular_sweep finishes its work before returning an iterator, so
    # listing the result moves no work into the caller's span
    @functools.wraps(sweep)
    def listed(*args, **kwargs):
        return list(sweep(*args, **kwargs))

    return listed


def install(tracer: Tracer) -> None:
    bern = cyclopair.bernoulli
    cli = cyclopair.cli
    report = cyclopair.report
    Cache = cyclopair.cache.IrregularCache
    wrap = tracer.wrap

    bern.convolution_mod = wrap(
        "modmath.convolution_mod", bern.convolution_mod, _convolution_counts)
    fast_row = wrap("bernoulli.fast_row", bern.bernoulli_fast_row)
    bern.bernoulli_fast_row = fast_row
    bern._ROW_METHODS[bern.METHOD_FAST] = fast_row
    # runs in the pool workers: one span per prime computed
    bern.irregular_indices = wrap("bernoulli.irregular_indices", bern.irregular_indices)
    cli.irregular_sweep = wrap(
        "bernoulli.irregular_sweep", _sweep_list(cli.irregular_sweep),
        lambda result, *a, **k: {"primes": len(result)})

    Cache.load = wrap("cache.load", Cache.load,
                      lambda result, cache: {"entries": len(result)})
    Cache.store = wrap("cache.store", Cache.store, _store_counts)

    report.check_congruences = wrap(
        "eigenstructure.check_congruences", report.check_congruences)

    cli.parse_pairing_file = wrap(
        "pairing.parse", cli.parse_pairing_file,
        lambda result, *a, **k: {"rows": sum(
            len(t.b_entries) + len(t.e_entries) for t in result.values())})
    report.eligible_set = wrap(
        "pairing.eligible_set", report.eligible_set,
        # odd offsets checked against the table; none when R is empty
        lambda result, irr, table: {"offsets": (irr.p - 1) // 2 if irr.indices else 0})

    cyclopair.criteria.max_disjoint_translates_exact = wrap(
        "packing.exact", cyclopair.criteria.max_disjoint_translates_exact,
        lambda result, inst: {"candidates": len(inst.candidates)})
    cyclopair.packing.translates_disjoint = wrap(
        "packing.witness_check", cyclopair.packing.translates_disjoint)

    for verdict in ("greenberg_verdict", "height_lower_bound", "gk_verdict"):
        setattr(report, verdict, wrap(f"criteria.{verdict}", getattr(report, verdict)))

    cli.build_report = wrap("report.build_report", cli.build_report)
    report.Report.to_json = wrap("report.to_json", report.Report.to_json)


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    install(tracer)
    return tracer.wrap("cli.main", cyclopair.cli.main)(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
