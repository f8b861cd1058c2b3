"""Command-line surface.

Subcommands: bern, irregular, congruence-sweep, criteria, report.  Output is
deterministic: byte-identical across runs and across --jobs settings.  Exit
codes: 0 success, 1 internal error, 2 usage or data error.  Only InputError
(PairingFormatError among them) and OSError map to 2; any other exception
is a bug and prints its traceback.

Only the sweep path loads at import.  A command that needs the cache,
eigenstructure or report modules imports them when it starts, before its
sweep: ``bern``, ``irregular`` and ``congruence-sweep`` never load the
pairing, packing, criteria or report modules.
"""

import argparse
import contextlib
import os
import sys

from . import InputError, __version__
from .bernoulli import (
    METHOD_FAST,
    METHOD_NAIVE,
    METHOD_VORONOI,
    IrregularSet,
    _check_row_prime,
    bernoulli_row,
    bernoulli_voronoi,
    irregular_indices,
    irregular_sweep,
)
from .modmath import MODULUS_LIMIT

CACHE_ENV_VAR = "CYCLOPAIR_CACHE_DIR"


def _prime_arg(p: int) -> int:
    """The positional p: an odd prime with even indices in [2, p-3]."""
    try:
        _check_row_prime(p)
    except ValueError as exc:  # not an odd prime, p = 3, or above 2^31
        raise InputError(str(exc)) from None
    return p


def _cache_from(args):
    """The IrregularCache in --cache or $CYCLOPAIR_CACHE_DIR, or None."""
    directory = args.cache or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    from .cache import IrregularCache

    return IrregularCache(directory)


def _check_sweep_options(args) -> None:
    """--jobs and --max-p, on every route of a sweeping command."""
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_p > MODULUS_LIMIT:  # the sieve allocates max_p bytes
        raise InputError(f"--max-p must be at most 2^31 = {MODULUS_LIMIT}, got {args.max_p}")


def _sweep(args):
    """The irregular sweep below --max-p with the --jobs and cache options."""
    _check_sweep_options(args)
    return irregular_sweep(args.max_p, jobs=args.jobs, cache=_cache_from(args))


def _open_input(path: str):
    """A binary handle on path, or on stdin for -; only a file is closed."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer)
    return open(path, "rb")


def _flags_for(args):
    """The map p -> HypothesisFlags at p: its defaults, with each flag option
    that is not auto put over them."""
    from .criteria import FLAG_TRUE, FLAG_UNKNOWN, HypothesisFlags

    surjective = {"yes": FLAG_TRUE, "no": FLAG_UNKNOWN}.get(args.surjective, "auto")
    options = {"vandiver": args.vandiver, "procyclic": args.procyclic,
               "pairing_surjective": surjective}
    overrides = {name: value for name, value in options.items() if value != "auto"}
    return lambda p: HypothesisFlags.defaults_for(p)._replace(**overrides)


def _cmd_bern(args) -> int:
    p = _prime_arg(args.p)
    if args.k is not None:
        k = args.k
        if k % 2 or not 2 <= k <= p - 3:
            raise InputError(f"k must be even with 2 <= k <= p-3, got k={k}")
        if args.method == METHOD_VORONOI:
            value = bernoulli_voronoi(p, k)
        else:
            value = bernoulli_row(p, args.method)[k]
        sys.stdout.write(f"{k}\t{value}\n")
        return 0
    row = bernoulli_row(p, args.method)
    for k in sorted(row):
        sys.stdout.write(f"{k}\t{row[k]}\n")
    return 0


def _cmd_irregular(args) -> int:
    for irr in _sweep(args):
        if irr.indices:
            sys.stdout.write(f"{irr.p}\t{','.join(map(str, irr.indices))}\n")
    return 0


def _cmd_congruence_sweep(args) -> int:
    _check_sweep_options(args)  # before --source is read, which skips the sweep
    from .eigenstructure import congruence_sweep

    if args.source:
        from .cache import read_entries

        with _open_input(args.source) as fh:
            raw = fh.read()
        try:
            entries = read_entries(raw.decode("utf-8").splitlines(), args.source)
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.source}: not UTF-8 text: {exc}") from None
        except ValueError as exc:  # a bad line
            raise InputError(str(exc)) from None
        source = [IrregularSet(p, ks) for p, ks in entries.items()]
    else:
        source = _sweep(args)
    for cc in congruence_sweep(args.max_p, source):
        for k, kp in cc.sum_two_violations:
            sys.stdout.write(f"{cc.p}\tsum2\t{k}\t{kp}\n")
        for (j, jp), (k, kp) in cc.collision_violations:
            sys.stdout.write(f"{cc.p}\tcollision\t{j}\t{jp}\t{k}\t{kp}\n")
    return 0


def parse_pairing_file(source, R_by_p):
    """pairing.parse_pairing_file, its module loaded on the first call."""
    from .pairing import parse_pairing_file

    return parse_pairing_file(source, R_by_p)


def build_report(irr, table, flags, digest):
    """report.build_report, its module loaded on the first call."""
    from .report import build_report

    return build_report(irr, table, flags, digest)


def _write_reports(args, irregular_sets, fmt: str = "json") -> int:
    """One report per set from irregular_sets() against the --pairing table.

    The table is opened first, so a bad path fails before a long sweep, and
    read in one streamed pass once the primes are known.
    """
    from .pairing import PairingFormatError, PairingTable, read_blocks
    from .report import digest_of, sha256

    sha = sha256()
    with _open_input(args.pairing) as fh:
        sets = list(irregular_sets())
        try:
            tables = parse_pairing_file(read_blocks(fh, sha), {irr.p: irr for irr in sets})
        except PairingFormatError as exc:  # named by the path as given, - for stdin
            raise PairingFormatError(f"{args.pairing}: {exc}") from None
    digest, flags_for = digest_of(sha), _flags_for(args)
    for irr in sets:
        table = tables.get(irr.p) or PairingTable(irr.p)  # no rows: an empty table
        report = build_report(irr, table, flags_for(irr.p), digest)
        sys.stdout.write(report.to_json() + "\n" if fmt == "json" else report.to_tsv())
    return 0


def _cmd_criteria(args) -> int:
    p = _prime_arg(args.p)
    return _write_reports(args, lambda: [irregular_indices(p)], args.format)


def _cmd_report(args) -> int:
    return _write_reports(args, lambda: _sweep(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclopair",
        description="Verify irregular-pair, congruence, pairing, and "
                    "translate-packing criteria at desk scale.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the options each sweeping command shares, and those of a verdict report
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--max-p", type=int, required=True, dest="max_p")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--cache", default=None,
                       help=f"cache directory (default: ${CACHE_ENV_VAR})")
    verdicts = argparse.ArgumentParser(add_help=False)
    verdicts.add_argument("--pairing", required=True, help="pairing TSV file, - for stdin")
    for flag in ("--vandiver", "--procyclic"):
        verdicts.add_argument(flag, default="auto",
                              choices=["auto", "true", "assumed", "false-unknown"])
    verdicts.add_argument("--surjective", default="auto", choices=["yes", "no", "auto"],
                          help="pairing surjectivity; auto resolves to yes below 1000")

    q = sub.add_parser("bern", help="Bernoulli numbers mod p")
    q.add_argument("p", type=int)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--method", default=METHOD_FAST,
                   choices=[METHOD_NAIVE, METHOD_VORONOI, METHOD_FAST])
    q.set_defaults(fn=_cmd_bern)

    q = sub.add_parser("irregular", parents=[sweep],
                       help="sweep irregular primes below a bound")
    q.set_defaults(fn=_cmd_irregular)

    q = sub.add_parser("congruence-sweep", parents=[sweep],
                       help="report congruence-hypothesis violations")
    q.add_argument("--source", default=None,
                   help="read irregular sets (p<TAB>k1,k2,... lines, as irregular "
                        "prints them) from a file instead of computing")
    q.set_defaults(fn=_cmd_congruence_sweep)

    q = sub.add_parser("criteria", parents=[verdicts], help="single-prime verdict report")
    q.add_argument("p", type=int)
    q.add_argument("--format", default="json", choices=["json", "tsv"])
    q.set_defaults(fn=_cmd_criteria)

    q = sub.add_parser("report", parents=[sweep, verdicts],
                       help="full per-prime report stream")
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
    except (InputError, OSError) as exc:
        print(f"cyclopair: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # imported here, as only an internal error needs it
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
