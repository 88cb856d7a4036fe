"""The indexed lot books, the per-method reports in both money domains,
integer format_rational and format_units, the print check as lines are
appended, year totals summed per denominator, the attribution query's
sorted delivery list and the event parser's timestamps, against the seed
versions.

`seed_oracles` holds the original implementations. Both sides get the same
random operation sequences and must agree exactly, errors included.
"""

from datetime import datetime, timezone
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fisc.amounts import DigitLimit, format_rational, format_units, parse_rational
from fisc.attribution.protocol import build_ownership_proof
from fisc.attribution.sim import AttributionNetwork, LinkConfig
from fisc.lineformat import LineError
from fisc.signatures import DEFAULT_SCHEME
from fisc.tax import engine
from fisc.tax.events import ChainEventRecord, EventKind, parse_event_file
from fisc.tax.lots import AccountingMethod, Hifo, Lifo, LotError, LotStore, Periodic, SpecId
from fisc.tax.policy import HobbyMinerRule, JurisdictionPolicy, ReceiptTreatment
from seed_oracles import (
    SeedAttributionNetwork,
    SeedLotStore,
    seed_compute_report,
    seed_format_rational,
    seed_parse_event_file,
    seed_to_csv,
)

DECIMALS = {"A": 0, "B": 2}
ASSETS = sorted(DECIMALS)
PRICES = st.fractions(min_value=0, max_value=1000, max_denominator=12)
# Each lot book and the seed store ordering it follows. Periodic is the FIFO
# book whose year end revalues its lots, as the seed store's rebase_all does.
ORDERS = ((Periodic, AccountingMethod.FIFO), (Lifo, AccountingMethod.LIFO),
          (Hifo, AccountingMethod.HIFO), (SpecId, AccountingMethod.SPEC_ID))


def outcome(call):
    try:
        return call()
    except (LotError, engine.EngineError) as exc:
        return type(exc), str(exc)


def draw_specid(data, store: SeedLotStore, asset: str) -> tuple[int, ...]:
    """Distinct references: a prefix of the asset's open lots in random order,
    sometimes followed by an id that is exhausted, foreign or unknown."""
    open_ids = data.draw(st.permutations([l.lot_id for l in store.lots(asset)]))
    refs = open_ids[: data.draw(st.integers(0, len(open_ids)))]
    extra = data.draw(st.none() | st.integers(1, store._next_id + 1))
    if extra is not None and extra not in refs:
        refs.append(extra)
    return tuple(refs)


def assert_same_books(new: LotStore, old: SeedLotStore) -> None:
    assert new.all_assets() == old.all_assets()
    for asset in ASSETS:
        assert new.total_qty(asset) == old.total_qty(asset)
        assert new.total_basis(asset) == old.total_basis(asset)
        assert new.lots(asset) == old.lots(asset)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_lot_store_matches_seed_store(data):
    book, method = data.draw(st.sampled_from(ORDERS))
    new, old = book([], JurisdictionPolicy(), DECIMALS), SeedLotStore(DECIMALS)
    ops = ("add",) * 3 + ("dispose",) * 3 + (("rebase",) if book is Periodic else ())
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(ops))
        asset = data.draw(st.sampled_from(ASSETS))
        if op == "add":
            # acquired_at is drawn independently of the order of additions,
            # so FIFO must follow timestamps, not insertion.
            args = (asset, data.draw(st.integers(1, 500)), data.draw(PRICES),
                    data.draw(st.integers(0, 30)))
            assert new.add_lot(*args) == old.add_lot(*args)
        elif op == "dispose":
            qty = data.draw(st.integers(1, old.total_qty(asset) + 5))
            specid = draw_specid(data, old, asset) if book is SpecId else None
            price = data.draw(PRICES)
            record = ChainEventRecord(1, 0, EventKind.SALE, asset, qty, price, specid_lot=specid)
            assert (outcome(lambda: new.dispose(record))
                    == outcome(lambda: old.dispose(asset, qty, price, method, specid)))
        else:
            prices = data.draw(st.dictionaries(st.sampled_from(ASSETS), PRICES))
            new.prices = dict(prices)
            new.year_end(0)
            old.rebase_all(prices)
        assert_same_books(new, old)


KINDS = (EventKind.PURCHASE, EventKind.PURCHASE, EventKind.MINING_REWARD,
         EventKind.SALE, EventKind.SALE, EventKind.SWAP, EventKind.SPEND, EventKind.GIFT,
         EventKind.LP_DEPOSIT, EventKind.LP_WITHDRAWAL, EventKind.SELF_TRANSFER)
START = int(datetime(2019, 1, 1, tzinfo=timezone.utc).timestamp())


FMVS = st.fractions(1, 500, max_denominator=8)


@st.composite
def report_cases(draw, prices=FMVS, faults=True, decimals=DECIMALS, kinds=KINDS):
    """A policy and a stream over the assets of `decimals` that the policy
    can replay, of events whose kinds are drawn from `kinds`.

    Disposal kinds may carry `meta.deduction` (with or without
    `meta.slashing`) and then dispose of nothing; LP events dispose and
    acquire only under `lp_events_are_disposals`. Every disposal names
    open lots for SpecID, now and then (with `faults`) one lot too few or
    an unknown lot. Timestamps wander over three years and need not rise
    with seq. Prices are drawn from `prices`.
    """
    policy = JurisdictionPolicy(
        gift_taxable=draw(st.booleans()),
        lp_events_are_disposals=draw(st.booleans()),
        slashing_deductible=draw(st.booleans()),
    )
    records = []
    lots = {asset: [] for asset in decimals}  # [lot id, remaining] as SpecID consumes them
    next_lot = 1
    for seq in range(1, draw(st.integers(1, 30)) + 1):
        kind = draw(st.sampled_from(kinds))
        asset = draw(st.sampled_from(sorted(decimals)))
        moves = policy.lp_events_are_disposals or kind not in (EventKind.LP_DEPOSIT,
                                                               EventKind.LP_WITHDRAWAL)
        held = sum(remaining for _, remaining in lots[asset])
        meta, specid = {}, None
        if kind in engine.DISPOSAL_KINDS and draw(st.integers(1, 4)) == 1:
            meta = {"deduction": "1"}
            if draw(st.booleans()):
                meta["slashing"] = "1"
            qty = draw(st.integers(1, 300))
        elif kind in engine.DISPOSAL_KINDS or kind is EventKind.LP_DEPOSIT:
            if not held:
                continue
            qty = draw(st.integers(1, held))
            specid = []
            rest = qty if moves else 0
            for lot in draw(st.permutations(lots[asset])):
                if rest == 0:
                    break
                take = min(lot[1], rest)
                lot[1] -= take
                rest -= take
                specid.append(lot[0])
            lots[asset] = [lot for lot in lots[asset] if lot[1]]
            fault = draw(st.sampled_from((None,) * 6 + ("short", "unknown"))) if faults else None
            if fault == "short" and len(specid) > 1:
                specid.pop()
            elif fault == "unknown":
                specid.append(next_lot + 5)
            specid = tuple(specid) or None
        else:
            qty = draw(st.integers(1, 300))
            if moves and kind is not EventKind.SELF_TRANSFER:
                lots[asset].append([next_lot, qty])
                next_lot += 1
        when = START + draw(st.integers(0, 3 * 365)) * 86_400
        records.append(ChainEventRecord(seq, when, kind, asset, qty, draw(prices),
                                        specid_lot=specid, metadata=meta))
    return policy, records


def report_outputs(report: engine.TaxReport) -> tuple[str, str]:
    return report.to_csv(), report.to_totals_json()


@pytest.mark.parametrize("method", list(AccountingMethod))
@given(case=report_cases())
@settings(max_examples=70, deadline=None)
def test_report_matches_seed_store(method, case):
    policy, records = case
    new = outcome(lambda: report_outputs(engine.compute_report(records, policy, method, DECIMALS)))
    old = outcome(lambda: report_outputs(seed_compute_report(records, policy, method, DECIMALS)))
    assert new == old


@pytest.mark.parametrize("method", [AccountingMethod.AVG_TOTAL, AccountingMethod.PVCT])
@given(case=report_cases())
@settings(max_examples=100, deadline=None)
def test_override_methods_match_seed_report(method, case):
    """The two pooled-cost methods, whose basis the parent set by override,
    on more draws than the eight-method differential gives them."""
    policy, records = case
    new = outcome(lambda: report_outputs(engine.compute_report(records, policy, method, DECIMALS)))
    old = outcome(lambda: report_outputs(seed_compute_report(records, policy, method, DECIMALS)))
    assert new == old


# Prices over 21 primes: a year's totals hold many denominators, some of
# them reached more than once.
PRIMES = [p for p in range(11, 100) if all(p % d for d in range(2, 10))]
PRIME_PRICES = st.builds(Fraction, st.integers(1, 10**6), st.sampled_from(PRIMES))


@pytest.mark.parametrize("method", list(AccountingMethod))
@given(case=report_cases(prices=PRIME_PRICES, faults=False))
@settings(max_examples=40, deadline=None)
def test_year_totals_over_many_denominators(method, case):
    """Year totals, summed as integers per denominator, equal the seed
    loop's running Fraction sums and plain sums of the ledger values."""
    policy, records = case
    for record in records:  # every field of YearTotals gets amounts
        if record.kind in engine.DISPOSAL_KINDS:
            record.metadata["attribution"] = "affirmed" if record.seq % 2 else "unresolved"
    report = outcome(lambda: engine.compute_report(records, policy, method, DECIMALS))
    seed = outcome(lambda: seed_compute_report(records, policy, method, DECIMALS))
    if isinstance(report, tuple):  # a lot fault or an overdrawn avg_total year
        assert report == seed
        return
    assert report.years == seed.years
    assert report_outputs(report) == report_outputs(seed)
    year_of = {record.seq: engine.tax_year_of(record.timestamp, policy) for record in records}
    for year, totals in report.years.items():
        lines = [line for line in report.lines if year_of[line.seq] == year]
        assert totals.ordinary_income == sum(l.proceeds for l in lines if l.term == "-")
        assert totals.short_term_gain == sum(l.gain for l in lines if l.term == "short")
        assert totals.long_term_gain == sum(l.gain for l in lines if l.term == "long")
        assert all(type(value) is Fraction for value in vars(totals).values())


# Prices of 0 to 6 decimal places, over assets of 0 to 18 decimals.
DECIMAL_PRICES = st.builds(lambda n, places: Fraction(n, 10**places),
                           st.integers(0, 10**9), st.integers(0, 6))
WIDE_DECIMALS = {"A": 0, "B": 2, "E": 18}
# Receipts that may have a zero basis, and gifts, taxable or exempt.
RECEIPT_KINDS = KINDS + (EventKind.AIRDROP, EventKind.FORK_RECEIPT, EventKind.GIFT)
LOT_METHODS = {AccountingMethod.FIFO, AccountingMethod.LIFO, AccountingMethod.HIFO,
               AccountingMethod.SPEC_ID, AccountingMethod.PERIODIC}


@st.composite
def decimal_cases(draw):
    """report_cases at decimal prices, with zero-basis receipt and hobby
    mining switches, a withholding rate of 1/3 that does not terminate,
    and `meta.attribution` on disposals; now and then one price is 1/3."""
    policy, records = draw(report_cases(prices=DECIMAL_PRICES, faults=False,
                                        decimals=WIDE_DECIMALS, kinds=RECEIPT_KINDS))
    policy = policy._replace(
        standard_withholding=Fraction(1, 3), elevated_withholding=Fraction(1, 2),
        airdrop_treatment=draw(st.sampled_from(ReceiptTreatment)),
        fork_treatment=draw(st.sampled_from(ReceiptTreatment)),
        mining_is_business=draw(st.booleans()), hobby_miner=draw(st.sampled_from(HobbyMinerRule)))
    for record in records:
        if record.kind in engine.DISPOSAL_KINDS and draw(st.booleans()):
            record.metadata["attribution"] = draw(st.sampled_from(("affirmed", "unresolved")))
    if records and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(records) - 1))
        records[at] = ChainEventRecord(*records[at][:5], Fraction(1, 3), *records[at][6:])
    return policy, records


@pytest.mark.parametrize("method", list(AccountingMethod))
@given(case=decimal_cases())
@settings(max_examples=100, deadline=None)
def test_integer_money_matches_fraction_oracle(method, case):
    """A lot book whose prices all terminate counts in ints of 10**-D, an
    exempt gift's parts included; every other report in Fractions. Either
    way the CSV, totals JSON, lines and year totals equal the Fraction
    oracle's."""
    policy, records = case
    report = outcome(lambda: engine.compute_report(records, policy, method, WIDE_DECIMALS))
    seed = outcome(lambda: seed_compute_report(records, policy, method, WIDE_DECIMALS))
    if isinstance(report, tuple):  # an overdrawn avg_total year
        assert report == seed
        return
    assert (report.to_csv(), report.to_totals_json()) == seed_rendering(seed)
    assert report.lines == seed.lines and report.years == seed.years
    thirds = any(r.fmv_unit == Fraction(1, 3) for r in records)
    integral = method in LOT_METHODS and not thirds
    assert (report.places is not None) == integral
    if integral:
        assert all(type(amount) is int for line in report.ledger for amount in line[5:8])


@given(st.integers(-10**40, 10**40), st.integers(0, 40))
@example(0, 0)
@example(0, 5)
@example(-5, 1)
@example(1500, 3)
@example(-10**20, 20)
@example(123, 0)
def test_format_units_matches_format_rational(units, places):
    assert format_units(units, places) == format_rational(Fraction(units, 10**places))


@pytest.mark.parametrize("units,places", [
    ((10**640 - 1) * 10**100, 100), (10**740, 100), (10**700 + 1, 100), (-(10**650), 20),
    (7 * 10**700, 0)])
def test_format_units_decides_the_digit_limit_as_format_rational(low_digit_limit, units,
                                                                 places):
    """Past the digit limit as an int, a count of 10**-places can still
    print once its trailing zeros are gone; format_rational decides."""
    def text(call):
        try:
            return call()
        except ValueError as exc:
            return str(exc)

    assert text(lambda: format_units(units, places)) == text(
        lambda: format_rational(Fraction(units, 10**places)))


def seed_rendering(report: engine.TaxReport) -> tuple[str, str]:
    return seed_to_csv(report), report.to_totals_json()


def printed(call):
    try:
        return call()
    except engine.EngineError as exc:
        return str(exc)


# Prices of 300 to 360 digits over as many: a gain over two of them has a
# denominator of about 640 digits or more, so about half the cases below
# stop at an unprintable ledger line and some more at a year total.
HUGE = st.builds(Fraction, st.integers(10**300, 10**360), st.integers(10**300, 10**360))


@pytest.mark.parametrize("method", list(AccountingMethod))
@given(case=report_cases(prices=FMVS | HUGE, faults=False))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_unprintable_report_matches_seed_rendering(low_digit_limit, method, case):
    """compute_report stops at the first line to_csv could not print; the
    seed loop builds every line and its rendering fails at that line. With
    no lot fault drawn, only printing, or an avg_total tax year that
    disposes of more than it holds, can stop either side early."""
    policy, records = case
    new = printed(lambda: report_outputs(engine.compute_report(records, policy, method, DECIMALS)))
    assert new == printed(lambda: seed_rendering(seed_compute_report(records, policy, method,
                                                                     DECIMALS)))


@given(st.integers(-10**40, 10**40), st.integers(0, 60), st.integers(0, 60))
@example(0, 0, 0)
@example(0, 3, 2)
@example(-1, 1, 0)
@example(-7, 0, 5)
@example(123456789, 60, 0)
@example(1, 0, 60)
def test_format_rational_terminating_matches_seed(num, a, b):
    value = Fraction(num, 2**a * 5**b)
    text = format_rational(value)
    assert text == seed_format_rational(value)
    assert parse_rational(text) == value


@given(st.fractions() | st.integers())
@example(0)
@example(Fraction(0))
@example(7)
@example(-10**50)
@example(True)
@example(Fraction(-5, 1))
@example(Fraction(1, 3))
@example(Fraction(-22, 7))
@example(Fraction(7, 30))
@example(Fraction(1, 2**10 * 3))
def test_format_rational_matches_seed(value):
    assert format_rational(value) == seed_format_rational(value)
    assert parse_rational(format_rational(value)) == value


def printable(value: Fraction) -> bool:
    try:
        format_rational(value)
    except ValueError:
        return False
    return True


# A numerator of 0 to 700 digits over 2^a 5^b, times 3 in the a/b form:
# every form on both sides of the 640-digit limit.
DIGITS = st.integers(0, 700).flatmap(lambda k: st.integers(10**k // 10, 10**k))


@given(DIGITS, st.booleans(), st.integers(0, 2_500), st.integers(0, 1_100), st.booleans())
@example(10**640 - 1, True, 0, 0, False)  # 640 digits and a sign: prints
@example(10**640, False, 0, 0, False)
@example(2 * 10**639 - 1, False, 1, 0, False)  # 640 digits over 1 place: prints
@example(2 * 10**639 + 1, False, 1, 0, False)
@example(10**640 - 2, False, 0, 0, True)  # a/b with a 640-digit numerator: prints
@example(10**640 + 1, False, 0, 0, True)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_digit_limit_decides_as_format_rational(low_digit_limit, num, negative, a, b, by_three):
    value = Fraction(-num if negative else num, 2**a * 5**b * (3 if by_three else 1))
    limit = DigitLimit()
    assert limit.fits(value) == printable(value)
    if value.numerator.bit_length() + 3 * value.denominator.bit_length() <= limit.room:
        assert printable(value)


CODES = ("AT", "BE", "CH", "DE", "ES", "FR")
WALLETS = ("w0", "w1", "w2", "unregistered")
DROPS = (0.0, 1 / 3, 0.5, 1.0)


@cache
def ownership(code: str, wallet: str):
    """(holder public key, proof) binding `wallet` to a TIN of `code`; the
    same wallet gives the same address in every jurisdiction."""
    tin = "%s-%s" % (code, wallet)
    holder_private, holder_public = DEFAULT_SCHEME.keypair(b"holder|" + tin.encode())
    return holder_public, build_ownership_proof(tin, b"wallet|" + wallet.encode(), holder_private)


@st.composite
def mesh_cases(draw):
    """A mesh of 2 to 6 jurisdictions whose latencies of 0 to 4 ticks make
    many deliveries share a tick, with drops, EOI rows and wallets held in
    up to two jurisdictions, and the queries to send through it."""
    codes = CODES[: draw(st.integers(2, 6))]
    pairs = st.sampled_from([(a, b) for a in codes for b in codes if a != b])
    links = dict(
        latency=draw(st.dictionaries(pairs, st.integers(0, 4))),
        drop=draw(st.dictionaries(pairs, st.sampled_from(DROPS))),
        default_latency=draw(st.integers(0, 4)),
        default_drop=draw(st.sampled_from(DROPS[:3])),  # below 1: some messages get through
    )
    homes = {wallet: draw(st.lists(st.sampled_from(codes), max_size=2, unique=True))
             for wallet in WALLETS[:-1]}
    queries = draw(st.lists(st.tuples(st.sampled_from(codes), st.sampled_from(WALLETS),
                                      st.integers(0, 6)), min_size=1, max_size=8))
    return (draw(st.integers(0, 2**32)), codes, links, draw(st.sets(pairs)), homes, queries)


def build_mesh(cls, seed, codes, links, eoi, homes):
    network = cls(seed=seed, links=LinkConfig(**links))
    for code in codes:
        network.add_authority(code)
    for asker, responder in eoi:
        network.eoi.allow(asker, responder)
    for wallet, wallet_homes in homes.items():
        for code in wallet_homes:
            holder_public, proof = ownership(code, wallet)
            network.authorities[code].issue_dsc(proof.tin, holder_public)
            network.register(code, proof)
    return network


def address_of(wallet: str) -> str:
    return ownership(CODES[0], wallet)[1].address.text


@given(case=mesh_cases())
@settings(max_examples=300, deadline=None)
def test_query_matches_seed_event_queue(case):
    seed, codes, links, eoi, homes, queries = case
    new = build_mesh(AttributionNetwork, seed, codes, links, eoi, homes)
    old = build_mesh(SeedAttributionNetwork, seed, codes, links, eoi, homes)
    for origin, wallet, deadline in queries:
        address = address_of(wallet)
        assert (new.query_beneficiary_jurisdiction(origin, address, deadline)
                == old.query_beneficiary_jurisdiction(origin, address, deadline))
        assert new.now == old.now
    assert new.trace == old.trace
    assert new._rng.getstate() == old._rng.getstate()


# Event-file timestamps: integers near and past both ends of the years 1 to
# 9999, and ISO 8601 texts in whole seconds, naive (UTC), `Z` or with an
# offset, which can carry a moment past either end.
INT_STAMPS = st.integers(-2, 2).flatmap(lambda step: st.sampled_from(
    (-62_135_596_800 + step, 253_402_300_799 + step))) | st.integers(-10**12, 10**12)
ISO_STAMPS = st.builds(
    lambda moment, zone: "%04d-%02d-%02dT%02d:%02d:%02d%s" % (
        moment.year, moment.month, moment.day, moment.hour, moment.minute, moment.second, zone),
    st.datetimes(),
    st.sampled_from(("", "Z")) | st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"),
                                           st.integers(0, 23), st.integers(0, 59)))


@given(st.one_of(INT_STAMPS.map(str), ISO_STAMPS))
@example("9999-12-31T23:59:59-01:00")  # 10000-01-01T00:59:59Z
@example("0001-01-01T00:00:00+01:00")
@example("2020-06-01T12:00:00+05:30")
@settings(max_examples=300, deadline=None)
def test_timestamps_parse_like_seed(ts):
    text = "asset X 0\nevent seq=1 ts=%s kind=purchase asset=X qty=1 fmv=1\n" % ts

    def parsed(parse):
        try:
            return parse(text)[1][0].timestamp
        except LineError as exc:
            return exc.line_no, str(exc)

    assert parsed(parse_event_file) == parsed(seed_parse_event_file)
