"""Per-prime machine-readable reports binding every criterion together.

Serialization is canonical: fixed key order, compact separators, nothing
nondeterministic, so identical inputs give byte-identical output.
"""

import hashlib
import json
from dataclasses import dataclass

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


def table_digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


@dataclass(frozen=True)
class Report:
    p: int
    irr: IrregularSet
    congruence: CongruenceCheckResult
    elig: EligibleSet
    height: HeightBound | None
    greenberg: Verdict
    gk: Verdict
    flags: HypothesisFlags
    digest: str

    def to_obj(self) -> dict:
        h = self.height
        return {
            "p": self.p,
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
                "eligible": len(self.elig.eligible),
                "missing": len(self.elig.missing),
            },
            "height": {
                "module_zero": h.zero_module if h else False,
                "d": h.d if h else None,
                "bound_exact": h.bound_exact if h else None,
                "bound_corollary": str(h.bound_corollary)
                if h and h.bound_corollary is not None else None,
                "corollary_ceiling": h.corollary_ceiling if h else None,
                "partial": h.partial if h else False,
            },
            "greenberg": self.greenberg.status,
            "gk": self.gk.status,
            "flags": {
                "vandiver": self.flags.vandiver,
                "procyclic": self.flags.procyclic,
                "pairing_surjective": self.flags.pairing_surjective,
            },
            "version": __version__,
            "table_digest": self.digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    def to_tsv(self) -> str:
        """Flat key<TAB>value projection of the same content."""
        return "".join(f"{key}\t{value}\n" for key, value in _flatten("", self.to_obj()))


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
    table: PairingTable | None,
    flags: HypothesisFlags,
    digest: str,
) -> Report:
    cc = check_congruences(irr)
    elig = eligible_set(irr, table)
    height = (
        height_lower_bound(irr, elig, flags) if flags.vandiver_usable else None
    )
    return Report(
        p=irr.p,
        irr=irr,
        congruence=cc,
        elig=elig,
        height=height,
        greenberg=greenberg_verdict(irr, elig, flags),
        gk=gk_verdict(irr, cc, table, flags),
        flags=flags,
        digest=digest,
    )
