"""The event-line parser and writer, the records as immutable tuples, and
the engine's per-day labels.

`seed_oracles` keeps the previous parser and writer. Both sides get the
same random records and files, malformed ones included, and must agree
exactly: records, metadata, bytes written, and each error's line number
and message. `compute_report` labels each record through a per-day memo;
its years and dates must equal the seed oracle's `seed_tax_year` and the
UTC day counted from 1970-01-01, per record. A plain decimal price is read off its digits, with
no Fraction built from its text, to the value Fraction gives; on the pinned
event file every report asks lot_move a fixed number of times, whatever
the file's length.
"""

import string
from contextlib import contextmanager
from datetime import date, timedelta
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisc import amounts
from fisc.amounts import Amount, parse_rational
from fisc.lineformat import LineError
from fisc.tax import engine
from fisc.tax.engine import LedgerLine, compute_report
from fisc.tax.events import (
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    ChainEventRecord,
    EventKind,
    parse_event_file,
    serialize_event_file,
)
from fisc.tax.lots import AccountingMethod, DisposalResult, LotConsumption
from fisc.tax.policy import JurisdictionPolicy, parse_policy
from seed_oracles import seed_parse_event_file, seed_serialize_event, seed_tax_year

TOKEN = st.text(string.ascii_letters + string.digits + "._-:", min_size=1, max_size=8)
# Metadata values may hold '=': only the first one splits a field.
VALUE = st.text(string.ascii_letters + string.digits + "._-:=/", max_size=8)
# datetime's range, 0001-01-01 to 9999-12-31, as days from the epoch, two
# days in from each end: the test adds stamps up to two days either side.
DAYS = st.integers(-719_162 + 2, 2_932_896 - 2)
TIMESTAMPS = st.builds(lambda day, second: day * 86_400 + second, DAYS, st.integers(0, 86_399))


@st.composite
def event_files(draw):
    decimals = draw(st.dictionaries(TOKEN, st.integers(0, 18), min_size=1, max_size=3))
    records = []
    for seq in range(1, draw(st.integers(0, 12)) + 1):
        kind = draw(st.sampled_from(list(EventKind)))
        low = 0 if kind is EventKind.SELF_TRANSFER else 1
        records.append(ChainEventRecord(
            seq=seq,
            timestamp=draw(st.integers(MIN_TIMESTAMP, MAX_TIMESTAMP)),
            kind=kind,
            asset=draw(st.sampled_from(sorted(decimals))),
            quantity=draw(st.integers(low, 10**24)),
            fmv_unit=draw(st.fractions(min_value=0, max_value=10**9)),
            counterparty_address=draw(st.none() | TOKEN),
            specid_lot=draw(st.none() | st.lists(st.integers(0, 10**6), min_size=1,
                                                 max_size=4).map(tuple)),
            metadata=draw(st.dictionaries(TOKEN, VALUE, max_size=3)),
        ))
    return decimals, records


@given(event_files())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip(file):
    decimals, records = file
    text = serialize_event_file(decimals, records)
    assert text.splitlines()[len(decimals):] == list(map(seed_serialize_event, records))
    parsed_decimals, parsed = parse_event_file(text)
    assert parsed_decimals == decimals
    assert parsed == records
    assert [r.metadata for r in parsed] == [r.metadata for r in records]
    assert outcome(parse_event_file, text) == outcome(seed_parse_event_file, text)


def outcome(parse, text):
    """Decimals, records and metadata, or the error's line number and message."""
    try:
        decimals, records = parse(text)
    except LineError as exc:
        return exc.line_no, str(exc)
    return decimals, records, [r.metadata for r in records]


@given(event_files(), st.data())
@settings(max_examples=150, deadline=None)
def test_extra_fields_parse_like_seed(file, data):
    """Unknown keys, `meta`-like keys and repeated known keys."""
    decimals, records = file
    field = st.builds("{}{}={}".format,
                      st.sampled_from(("", "meta", "meta.", "kind", "qty", "fmv")), TOKEN, VALUE)
    lines = [
        " ".join([line, *data.draw(st.lists(field, max_size=3))]) if line.startswith("event")
        else line
        for line in serialize_event_file(decimals, records).splitlines()
    ]
    text = "\n".join(lines) + "\n"
    assert outcome(parse_event_file, text) == outcome(seed_parse_event_file, text)


@given(event_files(), st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_line_same_error_as_seed(file, data):
    decimals, records = file
    lines = serialize_event_file(decimals, records).splitlines()
    index = data.draw(st.integers(len(decimals), len(lines)))
    if index == len(lines):  # a new last line
        lines.append("event seq=0 ts=0 kind=sale asset=%s qty=1 fmv=1" % min(decimals))
    fields = lines[index].split()

    def replace(key, value):
        return [f for f in fields if not f.startswith(key + "=")] + ["%s=%s" % (key, value)]

    fault = data.draw(st.sampled_from(("no_equals", "unknown_kind", "undeclared_asset",
                                       "zero_qty", "negative_qty", "late_ts", "bad_iso_ts",
                                       "bad_qty_and_fmv")))
    if fault == "no_equals":
        bad = data.draw(TOKEN.filter(lambda t: "=" not in t))
        fields.insert(data.draw(st.integers(1, len(fields))), bad)
    elif fault == "unknown_kind":
        fields = replace("kind", data.draw(
            TOKEN.filter(lambda t: t not in {k.value for k in EventKind})))
    elif fault == "undeclared_asset":
        fields = replace("asset", data.draw(TOKEN.filter(lambda t: t not in decimals)))
    elif fault == "zero_qty":  # a fee-only self transfer may move nothing; no other kind may
        fields = replace("qty", "0")
        fields = replace("kind", data.draw(st.sampled_from(
            [k.value for k in EventKind if k is not EventKind.SELF_TRANSFER])))
    elif fault == "negative_qty":
        fields = replace("qty", "-1")
    elif fault == "late_ts":
        fields = replace("ts", data.draw(st.sampled_from([MAX_TIMESTAMP + 1, 10**12])))
    elif fault == "bad_iso_ts":  # an ISO text datetime cannot read: a five-digit year
        fields = replace("ts", "%d-01-01T00:00:00%s" % (
            data.draw(st.integers(10_000, 99_999)), data.draw(st.sampled_from(["Z", "", "+01:00"]))))
    else:  # the line's first fault is the one reported
        fields = replace("qty", data.draw(st.sampled_from(["-1", "0", "1.5"])))
        fields = replace("fmv", data.draw(st.sampled_from(["-1", "1/0", "x"])))
    lines[index:index + 1] = [" ".join(fields)]
    text = "\n".join(lines) + "\n"
    error = outcome(parse_event_file, text)
    assert error[0] == index + 1
    assert error == outcome(seed_parse_event_file, text)


def test_records_cannot_be_assigned():
    part = LotConsumption(1, 5, Fraction(2), 0)
    records = [
        ChainEventRecord(1, 0, EventKind.PURCHASE, "X", 5, Fraction(2)),
        part,
        DisposalResult("X", 5, Fraction(3), Fraction(2), (part,)),
        LedgerLine(1, "1970-01-01", "sale", "X", 5, Fraction(3), Fraction(2), Fraction(1),
                   "short"),
    ]
    for record in records:
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda kind: kind.value)
def test_quantity_checked_at_construction(kind):
    with pytest.raises(ValueError, match="^quantity must be non-negative$"):
        ChainEventRecord(1, 0, kind, "X", -1, Fraction(2))
    if kind is EventKind.SELF_TRANSFER:  # a fee-only self transfer moves nothing
        assert ChainEventRecord(1, 0, kind, "X", 0, Fraction(2)).quantity == 0
    else:
        with pytest.raises(ValueError, match="^quantity must be positive for %s$" % kind.value):
            ChainEventRecord(seq=1, timestamp=0, kind=kind, asset="X", quantity=0,
                             fmv_unit=Fraction(2))


def test_equality_covers_metadata():
    def spend(**meta):
        return ChainEventRecord(1, 0, EventKind.SPEND, "X", 5, Fraction(2), metadata=meta)

    # With meta.deduction a spend is a deduction, not a disposal: the records differ.
    assert spend() != spend(deduction="1")
    assert spend(deduction="1") == spend(deduction="1")
    plain, other = (ChainEventRecord(1, 0, EventKind.SPEND, "X", 5, Fraction(2))
                    for _ in range(2))
    assert plain == other == spend()
    assert plain.metadata == {} and plain.metadata is not other.metadata


@given(
    start=st.dates(date(2001, 1, 1), date(2001, 12, 31)),
    stamps=st.lists(st.sampled_from((-30_636_403_200, -86_400, -1, 0)) | TIMESTAMPS,
                    min_size=1, max_size=30),
    repeats=st.lists(st.integers(-2 * 86_400, 3 * 86_400 - 1), max_size=10),
)
@example(start=date(2001, 4, 6), stamps=[-30_636_403_200, -1, 8_207_999, 8_208_000], repeats=[])
@example(start=date(2001, 1, 1), stamps=[-1, 0, -86_400], repeats=[1, 86_399])
@settings(max_examples=150, deadline=None)
def test_per_day_labels_match_per_record_calls(start, stamps, repeats):
    # More records on and around the first day drawn, so the memo is hit
    # and neighbouring days must not share an entry.
    stamps += [stamps[0] // 86_400 * 86_400 + second for second in repeats]
    policy = JurisdictionPolicy(tax_year_start=(start.month, start.day))
    records = [ChainEventRecord(seq, ts, EventKind.MINING_REWARD, "X", 1, 1)
               for seq, ts in enumerate(stamps, start=1)]
    report = compute_report(records, policy, AccountingMethod.FIFO, {"X": 0})
    assert [(line.seq, line.date) for line in report.lines] == [
        (r.seq, (date(1970, 1, 1) + timedelta(days=r.timestamp // 86_400)).isoformat())
        for r in records
    ]
    expected: dict[int, int] = {}
    for record in records:
        year = seed_tax_year(record.timestamp, policy)
        expected[year] = expected.get(year, 0) + 1
    assert {year: t.ordinary_income for year, t in report.years.items()} == expected


@contextmanager
def fraction_texts():
    """The texts fisc.amounts builds a Fraction from while the block runs."""
    texts = []

    def counted(*args):
        if isinstance(args[0], str):
            texts.append(args[0])
        return Fraction(*args)

    with patch.object(amounts, "Fraction", counted):
        yield texts


# ASCII `digits[.digits]`, with leading zeros and trailing zeros.
PLAIN_DECIMALS = st.builds(
    lambda lead, whole, fraction, trail: "0" * lead + whole + (
        "" if fraction is None else "." + fraction + "0" * trail),
    st.integers(0, 3), st.text("0123456789", min_size=1, max_size=30),
    st.none() | st.text("0123456789", min_size=1, max_size=30), st.integers(0, 3))


@given(PLAIN_DECIMALS)
@example("0")
@example("000.000")
@example("2012.55")
@example("0010.2500")
@settings(max_examples=300)
def test_plain_decimals_are_read_off_their_digits(text):
    """parse_rational reads them with no Fraction(str), to the same value;
    from_decimal_str, which shares the reading, gives the same units."""
    with fraction_texts() as texts:
        value = parse_rational(text)
        units = Amount.from_decimal_str(text, 30).base_units
    assert texts == []
    assert type(value) is Fraction and value == Fraction(text)
    assert units == Fraction(text) * 10**30


@pytest.mark.parametrize("text,expected", [
    ("1.", Fraction(1)),
    (".5", Fraction(1, 2)),
    ("+2", Fraction(2)),
    ("-1.5", Fraction(-3, 2)),
    (" 3 ", Fraction(3)),
    ("1_000", Fraction(1000)),
    ("1.5e3", Fraction(1500)),
    ("\u0663.\u0665", Fraction(7, 2)),  # Arabic-Indic digits: not ASCII
    ("1e4301", "exponent of 1e4301 exceeds 4300 in magnitude"),
    ("1/0", "zero denominator in '1/0'"),
])
def test_other_price_forms_parse_as_before(text, expected):
    """Every other form goes to Fraction(str) as before, or is refused
    with the same message; an exponent past the limit before Fraction."""
    with fraction_texts() as texts:
        try:
            outcome = parse_rational(text)
        except ValueError as exc:
            outcome = str(exc)
    assert outcome == expected
    assert texts == ([] if text == "1e4301" else [text])


@pytest.mark.parametrize("fmv,refused", [("-1.5", True), ("-2/3", True), ("-0", False),
                                         ("0", False)])
def test_negative_fmv_is_refused_at_its_line(fmv, refused):
    text = "asset BTC 8\n# a comment\nevent seq=1 ts=0 kind=purchase asset=BTC qty=1 fmv=%s\n" % fmv
    if not refused:
        assert parse_event_file(text)[1][0].fmv_unit == 0
        return
    with pytest.raises(LineError) as err:
        parse_event_file(text)
    assert (err.value.line_no, err.value.exit_code) == (3, 2)
    assert str(err.value) == "fmv must be non-negative, got %s" % fmv


def test_pipeline_report_parses_two_price_texts_and_classifies_a_fixed_number_of_times(
        monkeypatch):
    """The pinned event file, under every method: parsing builds a Fraction
    from a text only for the two prices that are not plain decimals, and a
    report asks lot_move as often for the whole file as for its first
    record: once per (kind, deduction flag) in each move table it builds."""
    pipeline = Path(__file__).parent / "pipeline"
    with fraction_texts() as texts:
        decimals, records = parse_event_file((pipeline / "events.fisc").read_text())
    assert texts == ["1/3", "40/3"]

    policy = parse_policy((pipeline / "policy.cfg").read_text())
    asked = []
    fresh = engine.lot_move

    def lot_move(kind, deduction, policy):
        asked.append((kind, deduction))
        return fresh(kind, deduction, policy)

    monkeypatch.setattr(engine, "lot_move", lot_move)
    table = {(kind, deduction) for kind in EventKind for deduction in (False, True)}
    for method in AccountingMethod:
        counts = []
        for part in (records, records[:1]):
            asked.clear()
            compute_report(part, policy, method, decimals)
            counts.append(len(asked))
        tables = 2 if method is AccountingMethod.AVG_TOTAL else 1  # and its pre-pass
        assert counts == [tables * len(table)] * 2 and set(asked) == table, method
