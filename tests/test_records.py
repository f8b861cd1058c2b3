"""The records passed between layers: built with their invariants, read-only
once built, and never handed to output code as records."""

import pytest

from cyclopair.bernoulli import BernoulliRow, IrregularSet
from cyclopair.criteria import HeightBound, HypothesisFlags, Verdict
from cyclopair.eigenstructure import CongruenceCheckResult
from cyclopair.packing import PackingInstance, PackingResult
from cyclopair.pairing import EligibleSet, PairingTable, Rows, synth_table
from cyclopair.report import Report, build_report
from helpers import parsed

FLAGS = HypothesisFlags.defaults_for(37)
IRR_37 = IrregularSet(37, (32,))
REPORT_37 = build_report(IRR_37, parsed(IRR_37, synth_table(37, IRR_37, seed=1)),
                         FLAGS, "sha256:-")

RECORDS = [
    BernoulliRow(7, {2: 6, 4: 3}, "naive"),
    IRR_37,
    CongruenceCheckResult(37, (), ()),
    PackingInstance.from_sets(12, [2, 6], [1, 3, 5]),
    PackingResult(1, (1,), "exact"),
    PairingTable(37),
    EligibleSet(37, 0b11, 0),
    FLAGS,
    Verdict("HOLDS", {}, FLAGS),
    HeightBound(37, False, 1, 2, (5, 2), 3, (1,), False, FLAGS),
    REPORT_37,
]


def test_every_record_kind_is_covered():
    kinds = {type(record) for record in RECORDS}
    assert len(kinds) == len(RECORDS) == 11
    assert {type(value) for value in REPORT_37} >= {
        IrregularSet, CongruenceCheckResult, EligibleSet, HeightBound, Verdict,
        HypothesisFlags}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_irregular_set_stores_sorted_indices():
    for irr in (IrregularSet(157, [110, 62]), IrregularSet(p=157, indices=iter((110, 62)))):
        assert irr.indices == (62, 110)
        assert irr.r == 2
    assert IRR_37._replace(indices=[110, 62]).indices == (62, 110)


def test_flags_are_validated_on_every_construction():
    with pytest.raises(ValueError, match="bad surjectivity flag"):
        HypothesisFlags(vandiver="assumed", procyclic="assumed", pairing_surjective="maybe")
    with pytest.raises(ValueError, match="bad vandiver flag"):
        FLAGS._replace(vandiver="yes")
    assert HypothesisFlags.defaults_for(1217).pairing_surjective == "unknown"


def test_default_pairing_entries_are_empty_and_read_only():
    # the default rows are shared by every table built without them
    a, b = PairingTable(37), PairingTable(41)
    for rows in (a.b_entries, a.e_entries, b.b_entries, b.e_entries):
        assert len(rows) == 0 and rows == Rows({}, {})
        for masks in (rows.present, rows.zero):
            with pytest.raises(TypeError):
                masks[32] = 1
        with pytest.raises(AttributeError):
            rows.extra = 1


def _plain(value) -> bool:
    """Whether value is built only of dicts, lists, str, int, bool and None."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return value is None or type(value) in (str, int, bool)


def test_report_output_holds_no_record():
    # records are tuples: json would write one as a list, and the TSV
    # flattener would print its repr, so to_obj must convert every field
    violation = IrregularSet(13, (4, 10))  # 4 + 10 == 2 mod 12
    flags = HypothesisFlags.defaults_for(13)
    for report in (REPORT_37, build_report(violation, PairingTable(13), flags, "sha256:-")):
        assert _plain(report.to_obj())
    obj = REPORT_37.to_obj()
    assert obj["R"] == [32] and obj["height"]["bound_corollary"] == "19"
