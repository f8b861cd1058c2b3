"""Per-prime machine-readable reports binding every criterion together.

Serialization is canonical: fixed key order, compact separators, nothing
nondeterministic, so identical inputs give byte-identical output.
"""

import json
from typing import NamedTuple

from . import __version__
from .bernoulli import IrregularSet
from .criteria import (
    HeightBound,
    HypothesisFlags,
    Verdict,
    gk_verdict,
    greenberg_verdict,
    height_lower_bound,
)
from .eigenstructure import CongruenceCheckResult, check_congruences
from .pairing import EligibleSet, PairingTable, eligible_set


def sha256(data: bytes = b""):
    """A SHA-256 hash object fed data.  The built-in module comes first, as in
    CPython's random.py: hashlib loads OpenSSL's libcrypto, 3.5 MB more."""
    # imported here, as only a pairing table's digest needs it
    try:
        from _sha2 import sha256 as new  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256 as new  # up to 3.11
        except ImportError:  # a build without the built-in modules
            from hashlib import sha256 as new
    return new(data)


def table_digest(raw: bytes) -> str:
    return digest_of(sha256(raw))


def digest_of(sha) -> str:
    """The report's form of a SHA-256 hash object fed the table's bytes."""
    return "sha256:" + sha.hexdigest()


class Report(NamedTuple):
    irr: IrregularSet
    congruence: CongruenceCheckResult
    elig: EligibleSet
    height: HeightBound
    greenberg: Verdict
    gk: Verdict
    flags: HypothesisFlags  # the one record of the flags the verdicts above used
    digest: str

    def to_obj(self) -> dict:
        h = self.height
        return {
            "p": self.irr.p,
            "R": list(self.irr.indices),
            "r": self.irr.r,
            "congruence": {
                "ok": self.congruence.ok,
                "sum_two": [list(v) for v in self.congruence.sum_two_violations],
                "collisions": [
                    [list(a), list(b)]
                    for a, b in self.congruence.collision_violations
                ],
            },
            "pairing": {
                "s": self.elig.s,
                "eligible": self.elig.eligible.bit_count(),
                "missing": self.elig.missing.bit_count(),
            },
            "height": {
                "module_zero": h.zero_module,
                "d": h.d,
                "bound_exact": h.bound_exact,
                "bound_corollary": h.bound_corollary and _ratio(h.bound_corollary),
                "corollary_ceiling": h.corollary_ceiling,
                "partial": h.partial,
            },
            "greenberg": self.greenberg.status,
            "gk": self.gk.status,
            "flags": self.flags._asdict(),
            "version": __version__,
            "table_digest": self.digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    def to_tsv(self) -> str:
        """Flat key<TAB>value projection of the same content."""
        return "".join(f"{key}\t{value}\n" for key, value in _flatten("", self.to_obj()))


def _ratio(pair: tuple[int, int]) -> str:
    """A reduced pair as str(Fraction) writes it: "a/b", or "a" when b is 1."""
    return f"{pair[0]}/{pair[1]}" if pair[1] != 1 else str(pair[0])


def _flatten(prefix: str, value):
    """(dotted key, TSV cell) pairs of a to_obj() value, depth first."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(f"{prefix}.{key}" if prefix else key, sub)
    elif isinstance(value, list):
        yield prefix, ",".join(json.dumps(v, separators=(",", ":"))
                               if isinstance(v, list) else str(v) for v in value) or "-"
    elif value is None:
        yield prefix, "-"
    elif isinstance(value, bool):
        yield prefix, "true" if value else "false"
    else:
        yield prefix, value


def build_report(
    irr: IrregularSet,
    table: PairingTable,
    flags: HypothesisFlags,
    digest: str,
) -> Report:
    """Every criterion at irr.p against its table, ``PairingTable(p)`` when
    the file holds no rows for p."""
    cc = check_congruences(irr)
    elig = eligible_set(irr, table)
    return Report(
        irr=irr,
        congruence=cc,
        elig=elig,
        height=height_lower_bound(irr, elig, flags),
        greenberg=greenberg_verdict(irr, elig, flags),
        gk=gk_verdict(irr, cc, table, flags),
        flags=flags,
        digest=digest,
    )
