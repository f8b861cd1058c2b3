"""Regenerate the benchmark's reference data under bench/reference/.

    python3 bench/make_reference.py

Run it from the root of the source tree.  It sweeps every p < 25,000 through
the CLI (``irregular --max-p 25000 --jobs 2`` into a fresh cache directory,
about 8 minutes on two cores), checks the sweep against facts known
independently of this code, and writes

* ``reference/irregular-25000.tsv``: ``p<TAB>k1,k2,...`` (``-`` when p is
  regular) for every prime 7 <= p < 25,000;
* ``reference/expected/<workload>.out.gz``: each workload's expected stdout,
  with the table digest replaced by a placeholder.

sweep-cold's expected output is cut from the reference list; the report
workloads' outputs come from one run of the CLI at seed 0 and are checked
against the verdicts they must carry.  Exits nonzero when a check fails;
the expected outputs are then left as they were.
"""

import gzip
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run

MAX_P = 25_000
JOBS = 2
PRIMES = 2759
IRREGULAR_BY_R = {1: 831, 2: 221, 3: 35, 4: 2}
# the exceptional pairs of fixtures/exceptional.tsv, with the index of irregularity
EXCEPTIONAL = {1217: ((784, 866), 3), 7069: ((1478, 2570), 2), 9829: ((4562, 7548), 2)}
# packing-full: at p = 491, R = {292, 336, 338} and all 245 odd offsets are eligible
PACKING_491 = ([292, 336, 338], 76)


def sweep(root: Path) -> dict[int, tuple[int, ...]]:
    from cyclopair.cache import IrregularCache

    with tempfile.TemporaryDirectory(dir=run.work_root(root)) as tmp:
        subprocess.run(
            [sys.executable, "-m", "cyclopair", "irregular", "--max-p", str(MAX_P),
             "--jobs", str(JOBS), "--cache", tmp],
            env={"PYTHONPATH": str(root / "src")}, stdout=subprocess.DEVNULL, check=True)
        entries = IrregularCache(tmp).load()
    return {p: ks for p, ks in entries.items() if p < MAX_P}


def check_sweep(entries: dict[int, tuple[int, ...]]) -> list[str]:
    problems = []
    if len(entries) != PRIMES:
        problems.append(f"{len(entries)} primes, expected {PRIMES}")
    by_r = Counter(len(ks) for ks in entries.values() if ks)
    if dict(by_r) != IRREGULAR_BY_R:
        problems.append(f"irregular primes by r: {dict(by_r)}, expected {IRREGULAR_BY_R}")
    for p, (pair, r) in EXCEPTIONAL.items():
        ks = entries.get(p, ())
        if len(ks) != r or not set(pair) <= set(ks):
            problems.append(f"p={p}: R={ks}, expected r={r} containing {pair}")
    return problems


def workload_stdout(name: str, root: Path) -> list[str]:
    """One run of the workload at seed 0, with the table digest replaced."""
    with tempfile.TemporaryDirectory(dir=run.work_root(root)) as tmp:
        w = run.WORKLOADS[name]
        argv, digest = run.set_up(w, 0, run.load_sources(w, root), Path(tmp))
        res = run.run_child(run.cli_command(argv, None), root, Path(tmp))
    if res.exit_code != 0:
        sys.exit(f"{name}: exit {res.exit_code}\n{res.stderr.decode()}")
    text = res.stdout.decode()
    return (text.replace(digest, run.DIGEST_PLACEHOLDER) if digest else text).splitlines()


def check_reports(name: str, lines: list[str]) -> list[str]:
    rows = {row["p"]: row for row in map(json.loads, lines)}
    w = run.WORKLOADS[name]
    problems = []
    if len(rows) != len(lines) or len(rows) != len(run.load_reference(w.max_p)):
        problems.append(f"{name}: {len(lines)} lines, not one per prime below {w.max_p}")
    if name == "report-extend":
        fails = {p for p, row in rows.items() if row["gk"] == "FAILS"}
        if fails != set(EXCEPTIONAL):
            problems.append(f"{name}: gk FAILS at {sorted(fails)}, expected {sorted(EXCEPTIONAL)}")
    if name == "packing-full":
        R, d = PACKING_491
        row = rows.get(491, {})
        if row.get("R") != R or row.get("height", {}).get("d") != d:
            problems.append(f"{name}: p=491 reads {row}, expected R={R}, d={d}")
    return problems


def main() -> int:
    root = run.checkout_root()

    entries = sweep(root)
    problems = check_sweep(entries)
    if problems:
        sys.exit("reference sweep rejected:\n" + "\n".join(problems))
    run.REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    run.REFERENCE.write_text("".join(
        f"{p}\t{','.join(map(str, ks)) if ks else '-'}\n" for p, ks in sorted(entries.items())))

    limit = run.WORKLOADS["sweep-cold"].max_p
    outputs = {"sweep-cold": [f"{p}\t{','.join(map(str, ks))}"
                              for p, ks in sorted(entries.items()) if ks and p < limit]}
    if workload_stdout("sweep-cold", root) != outputs["sweep-cold"]:
        problems.append("sweep-cold: the CLI disagrees with the reference list")
    for name in ("report-extend", "packing-full"):
        outputs[name] = workload_stdout(name, root)
        problems += check_reports(name, outputs[name])
    if problems:
        sys.exit("expected outputs rejected:\n" + "\n".join(problems))
    run.EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    for name, lines in outputs.items():
        data = "".join(line + "\n" for line in lines).encode()
        (run.EXPECTED_DIR / f"{name}.out.gz").write_bytes(gzip.compress(data, mtime=0))
        print(f"{name}: {len(lines)} expected lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
