"""Closed-loop benchmark of the cyclopair command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all     # every workload, one after another
    python3 bench/run.py --self-check       # the harness checks itself

Run it from the root of a source tree; it imports and runs ``src/cyclopair``
of that tree.  One client, one run at a time: each run sets up fresh inputs
from ``--seed`` (the synthetic nonzero table values; zero patterns and bounds
are fixed), starts the real CLI as a child process through
``bench/spawn.py``, which times it and takes its CPU time and peak RSS from
``os.wait4``, and checks its stdout line by line against
``bench/reference/expected/``.  Runs repeat while the next one is
expected to end within ``--seconds`` (there is always at least one), and the
end-to-end metrics are medians over them.  ``setup_s`` is the median of
every set-up timed in the measurement: each run's own, more after each run
for a quarter of a second, and then more until set-ups have been sampled for
two seconds in all.  The reference list and the fixture table are read once
per measurement, outside the timed set-ups.

With ``--trace 1`` the workload runs once untraced and once under
``bench/traced_cli.py``, which records a span around every call into each
module; the per-layer metrics come from those spans.

The last line of stdout is one JSON object: ``correct``, ``attempted`` (the
output lines expected, summed over runs), ``failed`` (lines missing, extra or
different; every line of a run that exits nonzero) and ``metrics``.  The
lines before it give each metric with its unit, ``failed_frac`` over its
base, and the machine the run was made on.
"""

import argparse
import dataclasses
import difflib
import gzip
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference" / "irregular-25000.tsv"
EXPECTED_DIR = BENCH_DIR / "reference" / "expected"
DIGEST_PLACEHOLDER = "@TABLE_DIGEST@"

CHILD_TIMEOUT_S = 170
SETUP_SLICE_S = 0.25   # set-ups sampled after each run
SETUP_TOTAL_S = 2.0    # set-ups sampled in a measurement, at least

# pairing tables cover the primes below the workload's --max-p
B_TABLES = "b-tables"   # fixtures/exceptional.tsv plus a synthetic b-table per prime with r >= 2
E_TABLES = "e-tables"   # a full synthetic e-table per irregular prime


@dataclass(frozen=True)
class Workload:
    command: str
    max_p: int
    jobs: int
    cache_below: int | None  # None: no --cache; else a fresh dir seeded with p < cache_below
    table: str | None


# Sized so that sweep-cold and report-extend run several times within a
# run's --seconds and report a median; packing-full is one p = 491 solve.
WORKLOADS = {
    "sweep-cold": Workload("irregular", 2500, 2, 0, None),
    "report-extend": Workload("report", 12000, 2, 11700, B_TABLES),
    "packing-full": Workload("report", 500, 1, None, E_TABLES),
}

# the same paths at bounds that run in a second or two, for --self-check
TINY = {
    "sweep-cold": {"max_p": 600},
    "report-extend": {"max_p": 700, "cache_below": 600},
    "packing-full": {"max_p": 300},
}


def checkout_root() -> Path:
    """The source tree in the working directory, with its package imported,
    so that no import lands in a timed set-up."""
    root = Path.cwd()
    package = root / "src" / "cyclopair"
    if not (package / "__init__.py").is_file():
        sys.exit("bench: run from the root of a cyclopair source tree (src/cyclopair not found)")
    sys.path.insert(0, str(root / "src"))
    import cyclopair.cache
    import cyclopair.report

    if Path(cyclopair.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported cyclopair from {cyclopair.__file__}, not from {package}")
    return root


def work_root(root: Path) -> Path:
    """Scratch space for run inputs and outputs, inside the source tree."""
    path = root / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


# -- inputs ----------------------------------------------------------------

def load_reference(max_p: int):
    """The reference irregular set of every prime below ``max_p``."""
    from cyclopair import IrregularSet

    sets = []
    for line in REFERENCE.read_text().splitlines():
        p, _, ks = line.partition("\t")
        if int(p) < max_p:
            sets.append(IrregularSet(int(p), () if ks == "-" else tuple(map(int, ks.split(",")))))
    return sets


@dataclass(frozen=True)
class Sources:
    """The files a set-up draws on, read once per measurement."""
    reference: list   # IrregularSet of every prime below the workload's max_p
    fixture: str      # fixtures/exceptional.tsv


def load_sources(w: Workload, root: Path) -> Sources:
    return Sources(load_reference(w.max_p), (root / "fixtures" / "exceptional.tsv").read_text())


def _table_seed(seed: int, p: int) -> int:
    return seed * 100_000 + p


def make_table(kind: str, sources: Sources, seed: int) -> bytes:
    from cyclopair import serialize_pairing_table, synth_b_table, synth_table

    if kind == B_TABLES:
        # a second B row for a fixture key would be a duplicate-key error
        fixed = {int(line.split()[1]) for line in sources.fixture.splitlines()
                 if line.strip() and not line.startswith("#")}
        parts = [sources.fixture] + [
            serialize_pairing_table(synth_b_table(irr.p, irr, seed=_table_seed(seed, irr.p)))
            for irr in sources.reference if irr.r >= 2 and irr.p not in fixed
        ]
    else:
        parts = [
            serialize_pairing_table(synth_table(irr.p, irr, seed=_table_seed(seed, irr.p)))
            for irr in sources.reference if irr.r >= 1
        ]
    return "".join(parts).encode()


def set_up(w: Workload, seed: int, sources: Sources, workdir: Path) -> tuple[list[str], str]:
    """Write one run's inputs under ``workdir``; return the CLI arguments and
    the table digest the reports will carry."""
    from cyclopair.cache import IrregularCache
    from cyclopair.report import table_digest

    argv = [w.command, "--max-p", str(w.max_p), "--jobs", str(w.jobs)]
    digest = ""
    if w.cache_below is not None:
        cache = IrregularCache(workdir / "cache")
        cache.path.parent.mkdir()
        if w.cache_below:
            cache.store({irr.p: irr.indices for irr in sources.reference
                         if irr.p < w.cache_below})
            if not cache.path.is_file():
                raise RuntimeError(f"could not seed the cache in {cache.path.parent}")
        argv += ["--cache", str(cache.path.parent)]
    if w.table:
        table = make_table(w.table, sources, seed)
        (workdir / "table.tsv").write_bytes(table)
        argv += ["--pairing", str(workdir / "table.tsv")]
        digest = table_digest(table)
    return argv, digest


def expected_lines(name: str, max_p: int) -> list[str]:
    with gzip.open(EXPECTED_DIR / f"{name}.out.gz", "rt") as fh:
        lines = fh.read().splitlines()
    return [line for line in lines if int(re.match(r"\D*(\d+)", line).group(1)) < max_p]


# -- one run ---------------------------------------------------------------

@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    load1_start: float
    load1_end: float


def run_child(cmd: list[str], root: Path, workdir: Path) -> RunResult:
    """Run ``cmd`` through bench/spawn.py; a run that reports nothing (killed
    on timeout) takes the launcher's exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("CYCLOPAIR_CACHE_DIR", None)
    out_path, err_path, result_path = workdir / "stdout", workdir / "stderr", workdir / "rusage"
    load1_start = os.getloadavg()[0]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawn.py"), str(result_path), *cmd],
            stdout=out, stderr=err, env=env, cwd=root, start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the whole group: the command and its pool workers too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        result = {"wall_s": CHILD_TIMEOUT_S, "cpu_s": 0.0, "peak_rss_mb": 0.0,
                  "exit_code": proc.returncode or 1}
    return RunResult(**result, stdout=out_path.read_bytes(), stderr=err_path.read_bytes(),
                     load1_start=load1_start, load1_end=os.getloadavg()[0])


def count_failed(stdout: bytes, expected: list[str], exit_code: int) -> int:
    """Lines missing, extra or different, at most the lines expected."""
    if exit_code != 0:
        return len(expected)
    actual = stdout.decode("utf-8", "replace").splitlines()
    matcher = difflib.SequenceMatcher(None, actual, expected, autojunk=False)
    failed = sum(max(i2 - i1, j2 - j1)
                 for op, i1, i2, j1, j2 in matcher.get_opcodes() if op != "equal")
    return min(failed, len(expected))


def cli_command(argv: list[str], span_dir: Path | None) -> list[str]:
    if span_dir is None:
        return [sys.executable, "-m", "cyclopair", *argv]
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(span_dir), *argv]


@dataclass
class Measured:
    runs: list[RunResult] = dataclasses.field(default_factory=list)
    setup_s: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: dict | None = None


def _one_run(w, seed, sources, root, expected, work, span_dir=None
             ) -> tuple[float, RunResult, int]:
    workdir = Path(tempfile.mkdtemp(dir=work))
    try:
        t0 = time.perf_counter()
        argv, digest = set_up(w, seed, sources, workdir)
        setup = time.perf_counter() - t0
        res = run_child(cli_command(argv, span_dir), root, workdir)
    finally:
        shutil.rmtree(workdir)
    want = [line.replace(DIGEST_PLACEHOLDER, digest) for line in expected]
    failed = count_failed(res.stdout, want, res.exit_code)
    if res.exit_code != 0:
        sys.stderr.write(res.stderr.decode("utf-8", "replace")[-2000:])
    return setup, res, failed


def measure(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
            expected: list[str]) -> Measured:
    work = work_root(root)
    sources = load_sources(w, root)
    m = Measured()
    sampled = 0.0  # time spent on set-ups beyond the runs' own

    def sample_set_ups(duration):
        nonlocal sampled
        begin = time.perf_counter()
        while time.perf_counter() - begin < duration:
            workdir = Path(tempfile.mkdtemp(dir=work))
            try:
                t0 = time.perf_counter()
                set_up(w, seed, sources, workdir)
                m.setup_s.append(time.perf_counter() - t0)
            finally:
                shutil.rmtree(workdir)
        sampled += time.perf_counter() - begin

    def record(setup, res, failed):
        m.setup_s.append(setup)
        m.runs.append(res)
        m.attempted += len(expected)
        m.failed += failed

    # start another run only while it is expected to end within --seconds
    start = time.perf_counter()
    took = []
    while not took or (not trace and time.perf_counter() - start
                       + statistics.median(took) <= seconds):
        t0 = time.perf_counter()
        record(*_one_run(w, seed, sources, root, expected, work))
        if not trace:
            sample_set_ups(SETUP_SLICE_S)
        took.append(time.perf_counter() - t0)
    if trace:
        span_dir = Path(tempfile.mkdtemp(dir=work))
        try:
            setup, res, failed = _one_run(w, seed, sources, root, expected, work, span_dir)
            record(setup, res, failed)
            spans = [json.loads(line) for f in sorted(span_dir.glob("*.jsonl"))
                     for line in f.read_text().splitlines()]
        finally:
            shutil.rmtree(span_dir)
        m.layers = layer_metrics(spans, w.jobs, len(res.stdout),
                                 res.wall_s / m.runs[0].wall_s - 1)
    else:
        sample_set_ups(SETUP_TOTAL_S - sampled)
    return m


# -- per-layer metrics from spans -------------------------------------------

def layer_metrics(spans: list[dict], jobs: int, stdout_bytes: int, overhead: float) -> dict:
    by = defaultdict(list)
    for s in spans:
        by[s["n"]].append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def total(name, key=None):
        return sum(s[key] if key else dur(s) for s in by[name])

    def self_time(*names):
        return sum(dur(s) - s["c"] for name in names for s in by[name])

    def longest(name):
        return max((dur(s) for s in by[name]), default=0.0)

    out = {
        "modmath.convolution_mod.calls": len(by["modmath.convolution_mod"]),
        "modmath.convolution_mod.coeffs": total("modmath.convolution_mod", "coeffs"),
        "modmath.convolution_mod.operand_bytes": total("modmath.convolution_mod", "bytes"),
        "modmath.convolution_mod.self_s": self_time("modmath.convolution_mod"),
        "bernoulli.fast_row.calls": len(by["bernoulli.fast_row"]),
        "bernoulli.fast_row.self_s": self_time("bernoulli.fast_row"),
        "bernoulli.fast_row.max_s": longest("bernoulli.fast_row"),
        "bernoulli.sweep.s": total("bernoulli.irregular_sweep"),
        "cache.load.s": total("cache.load"),
        "cache.load.entries": total("cache.load", "entries"),
        "cache.store.s": total("cache.store"),
        "cache.store.calls": len(by["cache.store"]),
        "cache.store.bytes": total("cache.store", "bytes"),
        "eigenstructure.check_congruences.s": total("eigenstructure.check_congruences"),
        "pairing.parse.s": total("pairing.parse"),
        "pairing.parse.rows": total("pairing.parse", "rows"),
        "pairing.eligible_set.s": total("pairing.eligible_set"),
        "pairing.eligible_set.offsets": total("pairing.eligible_set", "offsets"),
        "packing.exact.calls": len(by["packing.exact"]),
        "packing.exact.candidates": total("packing.exact", "candidates"),
        "packing.exact.self_s": self_time("packing.exact"),
        "packing.exact.max_s": longest("packing.exact"),
        "packing.witness_check.s": total("packing.witness_check"),
        "criteria.self_s": self_time("criteria.greenberg_verdict",
                                     "criteria.height_lower_bound", "criteria.gk_verdict"),
        "report.build_report.self_s": self_time("report.build_report"),
        "report.to_json.s": total("report.to_json"),
        "report.stdout_bytes": stdout_bytes,
        "cli.other_s": self_time("cli.main"),
        "trace.overhead_frac": overhead,
    }
    out.update(pool_metrics(by, jobs))
    return out


def pool_metrics(by: dict, jobs: int) -> dict:
    """Busy share and tail of the sweep's compute phase: from the end of the
    cache load (or the sweep's start) to the start of the cache store (or the
    sweep's end)."""
    busy = tail = hit_ratio = 0.0
    for sweep in by["bernoulli.irregular_sweep"]:
        inside = [s for s in by["cache.load"] + by["cache.store"]
                  if sweep["t0"] <= s["t0"] and s["t1"] <= sweep["t1"]]
        begin = max([sweep["t0"]] + [s["t1"] for s in inside if s["n"] == "cache.load"])
        end = min([sweep["t1"]] + [s["t0"] for s in inside if s["n"] == "cache.store"])
        work = [s for s in by["bernoulli.irregular_indices"]
                if sweep["t0"] <= s["t0"] and s["t1"] <= sweep["t1"]]
        hit_ratio = (sweep["primes"] - len(work)) / sweep["primes"] if sweep["primes"] else 0.0
        if not work:
            continue
        busy = sum(s["t1"] - s["t0"] for s in work) / (jobs * (end - begin))
        last_end = defaultdict(float)
        for s in work:
            last_end[s["pid"]] = max(last_end[s["pid"]], s["t1"])
        # a worker that got no task ran dry at once
        first_dry = min(last_end.values()) if len(last_end) >= jobs else begin
        tail = end - first_dry
    return {"bernoulli.pool.busy_frac": busy, "bernoulli.pool.tail_s": tail,
            "cache.hit_ratio": hit_ratio}


# -- reporting ---------------------------------------------------------------

def machine_facts() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def end_to_end(m: Measured) -> dict:
    return {
        "wall_s": statistics.median(r.wall_s for r in m.runs),
        "cpu_s": statistics.median(r.cpu_s for r in m.runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in m.runs),
        "setup_s": statistics.median(m.setup_s),
    }


def select(values: dict, spec: list[dict]) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in spec}


def run_workload(name: str, args, root: Path, spec: dict) -> tuple[Measured, dict]:
    w = WORKLOADS[name]
    m = measure(w, args.seed, args.seconds, args.trace, root, expected_lines(name, w.max_p))
    if args.trace:
        metrics = select(m.layers, spec["per_layer"])
    else:
        metrics = select(end_to_end(m), spec["end_to_end"])
    print(f"# workload {name}: {len(m.runs)} run(s), {len(m.setup_s)} set-up(s), "
          f"seed {args.seed}, machine {json.dumps(machine_facts())}")
    for i, r in enumerate(m.runs):
        print(f"# run {i}: wall_s {r.wall_s:.3f}, load1 at start {r.load1_start:.2f}, "
              f"at end {r.load1_end:.2f}")
    for key, v in metrics.items():
        print(f"{name}  {key:42s} {v['value']:>16.6g} {v['unit']}")
    print(f"{name}  {'failed_frac':42s} {m.failed / m.attempted:>16.6g} ratio"
          f"  ({m.failed} of ops={m.attempted} expected lines)")
    return m, metrics


def self_check(root: Path) -> int:
    """Every workload at tiny bounds must check clean, untraced and traced,
    and one altered expected line must be caught."""
    work = work_root(root)
    problems = []
    for name, w in WORKLOADS.items():
        tiny = dataclasses.replace(w, **TINY[name])
        expected = expected_lines(name, tiny.max_p)
        m = measure(tiny, 1, 0, True, root, expected)
        if m.failed or any(r.exit_code for r in m.runs):
            problems.append(f"{name}: {m.failed} of {m.attempted} lines failed at tiny bounds")
        altered = list(expected)
        altered[len(altered) // 2] += " "
        setup, res, failed = _one_run(tiny, 1, load_sources(tiny, root), root, altered, work)
        if failed != 1:
            problems.append(f"{name}: an altered expected line gave {failed} failed lines")
        print(f"self-check {name}: {len(expected)} lines, clean run failed {m.failed}, "
              f"altered reference failed {failed}, layers {json.dumps(m.layers)}")
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    root = checkout_root()
    if args.self_check:
        return self_check(root)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        m, got = run_workload(name, args, root, spec)
        attempted += m.attempted
        failed += m.failed
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}.{key}": v for key, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
