"""Command-line surface.

Subcommands: bern, irregular, congruence-sweep, criteria, report.  Output is
deterministic: byte-identical across runs and across --jobs settings.  Exit
codes: 0 success, 1 internal error, 2 usage or data error.
"""

import argparse
import os
import sys
import traceback

from . import __version__
from .bernoulli import (
    METHOD_FAST,
    METHOD_NAIVE,
    METHOD_VORONOI,
    IrregularSet,
    bernoulli_row,
    bernoulli_voronoi,
    irregular_indices,
    irregular_sweep,
)
from .cache import IrregularCache, read_entries
from .criteria import FLAG_TRUE, FLAG_UNKNOWN, HypothesisFlags
from .eigenstructure import congruence_sweep
from .modmath import require_odd_prime
from .pairing import PairingFormatError, parse_pairing_file
from .report import build_report, table_digest

CACHE_ENV_VAR = "CYCLOPAIR_CACHE_DIR"

# fast rows are cross-checked against the reference recurrence up to here
CROSS_CHECK_BOUND = 200


def _cache_from(args) -> IrregularCache | None:
    directory = args.cache or os.environ.get(CACHE_ENV_VAR)
    return IrregularCache(directory) if directory else None


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _resolve_flags(p: int, args) -> HypothesisFlags:
    defaults = HypothesisFlags.defaults_for(p)
    vandiver = defaults.vandiver if args.vandiver == "auto" else args.vandiver
    procyclic = defaults.procyclic if args.procyclic == "auto" else args.procyclic
    if args.surjective == "auto":
        surjective = defaults.pairing_surjective
    else:
        surjective = FLAG_TRUE if args.surjective == "yes" else FLAG_UNKNOWN
    return HypothesisFlags(vandiver, procyclic, surjective)


def _cross_checked_row(p: int, method: str):
    row = bernoulli_row(p, method)
    if method == METHOD_FAST and p <= CROSS_CHECK_BOUND:
        reference = bernoulli_row(p, METHOD_NAIVE)
        if row.values != reference.values:
            raise RuntimeError(f"fast row disagrees with the recurrence at p={p}")
    return row


def _cmd_bern(args) -> int:
    p = require_odd_prime(args.p)
    if args.k is not None:
        k = args.k
        if args.method == METHOD_VORONOI:
            value = bernoulli_voronoi(p, k)
        else:
            row = _cross_checked_row(p, args.method)
            if k not in row.values:
                raise ValueError(f"k must be even with 2 <= k <= p-3, got k={k}")
            value = row.values[k]
        sys.stdout.write(f"{k}\t{value}\n")
        return 0
    row = _cross_checked_row(p, args.method)
    for k in sorted(row.values):
        sys.stdout.write(f"{k}\t{row.values[k]}\n")
    return 0


def _format_irregular(irr: IrregularSet) -> str:
    return f"{irr.p}\t{','.join(map(str, irr.indices))}\n"


def _cmd_irregular(args) -> int:
    cache = _cache_from(args)
    for irr in irregular_sweep(args.max_p, jobs=args.jobs, cache=cache):
        if irr.indices:
            sys.stdout.write(_format_irregular(irr))
    return 0


def _cmd_congruence_sweep(args) -> int:
    if args.source:
        lines = _read_input(args.source).decode("utf-8").splitlines()
        source = [IrregularSet(p, ks) for p, ks in read_entries(lines, args.source).items()]
    else:
        source = irregular_sweep(args.max_p, jobs=args.jobs, cache=_cache_from(args))
    for cc in congruence_sweep(args.max_p, source):
        for k, kp in cc.sum_two_violations:
            sys.stdout.write(f"{cc.p}\tsum2\t{k}\t{kp}\n")
        for (j, jp), (k, kp) in cc.collision_violations:
            sys.stdout.write(f"{cc.p}\tcollision\t{j}\t{jp}\t{k}\t{kp}\n")
    return 0


def _write_reports(args, irregular_sets, fmt: str = "json") -> int:
    """One report per set from irregular_sets() against the --pairing table.

    The table is read first, so a bad path fails before a long sweep.
    """
    raw = _read_input(args.pairing)
    digest = table_digest(raw)
    sets = list(irregular_sets())
    tables = parse_pairing_file(raw, {irr.p: irr for irr in sets})
    for irr in sets:
        report = build_report(irr, tables.get(irr.p), _resolve_flags(irr.p, args), digest)
        sys.stdout.write(report.to_json() + "\n" if fmt == "json" else report.to_tsv())
    return 0


def _cmd_criteria(args) -> int:
    p = require_odd_prime(args.p)
    return _write_reports(args, lambda: [irregular_indices(p)], args.format)


def _cmd_report(args) -> int:
    return _write_reports(args, lambda: irregular_sweep(
        args.max_p, jobs=args.jobs, cache=_cache_from(args)))


def _add_flag_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vandiver", default="auto",
                        choices=["auto", "true", "assumed", "false-unknown"])
    parser.add_argument("--procyclic", default="auto",
                        choices=["auto", "true", "assumed", "false-unknown"])
    parser.add_argument("--surjective", default="auto",
                        choices=["yes", "no", "auto"],
                        help="pairing surjectivity; auto resolves to yes below 1000")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclopair",
        description="Verify irregular-pair, congruence, pairing, and "
                    "translate-packing criteria at desk scale.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("bern", help="Bernoulli numbers mod p")
    q.add_argument("p", type=int)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--method", default=METHOD_FAST,
                   choices=[METHOD_NAIVE, METHOD_VORONOI, METHOD_FAST])
    q.set_defaults(fn=_cmd_bern)

    q = sub.add_parser("irregular", help="sweep irregular primes below a bound")
    q.add_argument("--max-p", type=int, required=True, dest="max_p")
    q.add_argument("--jobs", type=int, default=1)
    q.add_argument("--cache", default=None,
                   help=f"cache directory (default: ${CACHE_ENV_VAR})")
    q.set_defaults(fn=_cmd_irregular)

    q = sub.add_parser("congruence-sweep",
                       help="report congruence-hypothesis violations")
    q.add_argument("--max-p", type=int, required=True, dest="max_p")
    q.add_argument("--jobs", type=int, default=1)
    q.add_argument("--cache", default=None)
    q.add_argument("--source", default=None,
                   help="read irregular sets (p<TAB>k1,k2,... lines, as irregular "
                        "prints them) from a file instead of computing")
    q.set_defaults(fn=_cmd_congruence_sweep)

    q = sub.add_parser("criteria", help="single-prime verdict report")
    q.add_argument("p", type=int)
    q.add_argument("--pairing", required=True, help="pairing TSV file, - for stdin")
    q.add_argument("--format", default="json", choices=["json", "tsv"])
    _add_flag_options(q)
    q.set_defaults(fn=_cmd_criteria)

    q = sub.add_parser("report", help="full per-prime report stream")
    q.add_argument("--max-p", type=int, required=True, dest="max_p")
    q.add_argument("--pairing", required=True, help="pairing TSV file, - for stdin")
    q.add_argument("--jobs", type=int, default=1)
    q.add_argument("--cache", default=None)
    _add_flag_options(q)
    q.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): not a usage error.  Point
        # stdout at devnull so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PairingFormatError, ValueError, OSError) as exc:
        print(f"cyclopair: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
