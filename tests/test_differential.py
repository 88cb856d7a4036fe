"""The indexed lot books, the per-method reports in both money domains,
integer format_rational and format_units, the print check as lines are
appended, year totals summed per denominator, the attribution query's
cached broadcast plans and the event parser's timestamps, against the seed
versions.

`seed_oracles` holds the original implementations. Both sides get the same
random operation sequences and must agree exactly, errors included.
"""

import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fisc.amounts import (
    _RESIDUE_MODULUS,
    DigitLimit,
    decimal_places,
    format_rational,
    format_units,
    parse_rational,
)
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
    seed_tax_year,
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
    """The ledger CSV, its chunks joined, and the totals JSON."""
    chunks = []
    report.to_csv(lambda name, text: chunks.append(text))
    return "".join(chunks), report.to_totals_json()


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
    year_of = {record.seq: seed_tax_year(record.timestamp, policy) for record in records}
    for year, totals in report.years.items():
        lines = [line for line in report.lines if year_of[line.seq] == year]
        assert totals.ordinary_income == sum(l.proceeds for l in lines if l.term == "-")
        assert totals.short_term_gain == sum(l.gain for l in lines if l.term == "short")
        assert totals.long_term_gain == sum(l.gain for l in lines if l.term == "long")
        assert all(type(value) is Fraction for value in vars(totals).values())


# Denominators of up to 90 bits, parts of either sign: 0 to 12 terms.
SUM_TERMS = st.dictionaries(st.integers(1, 2**90), st.integers(-2**90, 2**90), max_size=12)


@given(SUM_TERMS, st.integers(0, 30), st.data())
@example({}, 0, None)  # no term
@example({7: 3}, 2, None)  # one term
@example({3: 1, 6: -2}, 0, None)  # cancels to 0
@example({2: 1, 3: 1, 5: 1}, 1, None)  # an odd count: the last carries a round
@example({1: 4, 10: -40, 3: 9, 7: -1, 14: 2}, 3, None)
def test_exact_sum_totals_its_terms_in_any_order(terms, k, data):
    """_ExactSum.total(one) is the plain Fraction sum over `one`, for one of
    1 and of 10**k, whatever order the denominators were added in."""
    order = list(terms) if data is None else data.draw(st.permutations(list(terms)))
    expected = sum((Fraction(part, den) for den, part in terms.items()), Fraction(0))
    for one in (1, 10**k):
        total = engine._ExactSum((den, terms[den]) for den in order).total(one)
        assert type(total) is Fraction and total == expected / one


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
    assert report_outputs(report) == seed_rendering(seed)
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


def test_no_digit_limit_fits_every_value(monkeypatch):
    """With the limit off (0, or a CPython before 3.10.7) every value prints."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    limit = DigitLimit()
    assert limit.fits(Fraction(10**5000 + 1, 3)) and 10**5000 < limit.ceiling
    assert limit.room == sys.maxsize


def places_by_definition(den: int) -> int | None:
    """The smallest p with den | 10**p, else None, by search: such a p is at
    most den's bit length, and every larger p works too."""
    low, high = 0, den.bit_length()
    if 10**high % den:
        return None
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if 10**mid % den == 0 else (mid + 1, high)
    return low


ODD_COFACTORS = st.one_of(
    st.just(1),
    st.integers(1, 10**6).filter(lambda m: m % 2 and m % 5),  # coprime to 10
    st.integers(1, 10**6).map(lambda m: 5 * m),  # a multiple of 5
    st.integers(2**59, 2**60 - 1).map(lambda m: m | 1),  # 60 bits, odd
)


@given(st.integers(0, 4_000), st.integers(0, 4_000), ODD_COFACTORS)
@example(0, 0, 1)
@example(4_000, 0, 1)
@example(0, 4_000, 1)
@example(0, 4_000, 3)
@example(4_001, 4_000, 1)
@example(0, 59, 1)  # powers of 5 just below a power of 2
@example(0, 643, 1)
@settings(max_examples=300)
def test_decimal_places_matches_its_definition(a, b, m):
    den = 2**a * 5**b * m
    assert decimal_places(den) == places_by_definition(den)


@pytest.mark.parametrize("b", [20, 643, 4_000])
def test_decimal_places_refuses_a_residue_collision(b):
    """An odd number with the bit length and the residue of 5**b that is not
    5**b: the exact comparison, not the residue, decides."""
    odd = 5**b + 2 * _RESIDUE_MODULUS
    assert odd.bit_length() == (5**b).bit_length()
    assert decimal_places(odd) is None and decimal_places(odd << 7) is None


CODES = ("AT", "BE", "CH", "DE", "ES", "FR")
JOINING = ("BG", "DK")  # authorities that join a mesh between its queries
WALLETS = ("w0", "w1", "w2", "unregistered")
DROPS = (0.0, 1 / 3, 0.5, 1.0)


@cache
def ownership(code: str, wallet: str):
    """(holder public key, proof) binding `wallet` to a TIN of `code`; the
    same wallet gives the same address in every jurisdiction."""
    tin = "%s-%s" % (code, wallet)
    holder_private, holder_public = DEFAULT_SCHEME.keypair(b"holder|" + tin.encode())
    return holder_public, build_ownership_proof(tin, b"wallet|" + wallet.encode(), holder_private)


def link_configs(codes):
    """LinkConfig arguments over `codes`, with latencies of 0 to 4 ticks so
    that many deliveries share a tick."""
    pairs = st.sampled_from([(a, b) for a in codes for b in codes if a != b])
    return st.fixed_dictionaries(dict(
        latency=st.dictionaries(pairs, st.integers(0, 4)),
        drop=st.dictionaries(pairs, st.sampled_from(DROPS)),
        default_latency=st.integers(0, 4),
        default_drop=st.sampled_from(DROPS[:3]),  # below 1: some messages get through
    ))


@st.composite
def mesh_cases(draw):
    """A mesh of 2 to 6 jurisdictions with drops, EOI rows and wallets held
    in up to two jurisdictions, and the steps to run on it: queries, and
    between them changes to the mesh. A change rebinds the links, adds an
    authority, or registers a wallet straight with an authority."""
    codes = CODES[: draw(st.integers(2, 6))]
    every = codes + JOINING
    pairs = st.sampled_from([(a, b) for a in every for b in every if a != b])
    links = draw(link_configs(every))
    homes = {wallet: draw(st.lists(st.sampled_from(codes), max_size=2, unique=True))
             for wallet in WALLETS[:-1]}
    present, owned = list(codes), {(code, w) for w, homes_of in homes.items() for code in homes_of}
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("query", "query", "links", "add", "own")))
        if kind == "links":
            steps.append(("links", draw(link_configs(every))))
        elif kind == "add" and len(present) < len(every):
            present.append(JOINING[len(present) - len(codes)])
            steps.append(("add", present[-1]))
        elif kind == "own" and len(owned) < len(present) * 3:
            code, wallet = draw(st.sampled_from(
                [(c, w) for c in present for w in WALLETS[:-1] if (c, w) not in owned]))
            owned.add((code, wallet))
            steps.append(("own", code, wallet))
        else:
            steps.append(("query", draw(st.sampled_from(present)),
                          draw(st.sampled_from(WALLETS)), draw(st.integers(0, 6))))
    return (draw(st.integers(0, 2**32)), codes, links, draw(st.sets(pairs)), homes, steps)


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


def run_step(network, step):
    """Run one mesh step; a query returns its outcome and the clock after it."""
    kind, *args = step
    if kind == "query":
        origin, wallet, deadline = args
        outcome = network.query_beneficiary_jurisdiction(origin, address_of(wallet), deadline)
        return outcome, network.now
    if kind == "links":
        network.links = LinkConfig(**args[0])
    elif kind == "add":
        network.add_authority(args[0])
    else:  # past AttributionNetwork.register: the network sees only the registry
        holder_public, proof = ownership(*args)
        authority = network.authorities[args[0]]
        authority.issue_dsc(proof.tin, holder_public)
        authority.register_ownership(proof)
    return None


NO_LINKS = dict(latency={}, drop={}, default_latency=1, default_drop=0.0)


@given(case=mesh_cases())
@settings(max_examples=300, deadline=None)
# Every link lossy by default, across link rebinding and a joining authority.
@example(case=(7, CODES[:4], dict(NO_LINKS, default_drop=0.5), {("AT", "DE")},
               {"w0": ["DE"], "w1": ["BE"], "w2": []},
               [("query", "AT", "w0", 3), ("add", "BG"), ("query", "AT", "w1", 6),
                ("links", dict(NO_LINKS, default_drop=1 / 3, latency={("AT", "BG"): 0})),
                ("query", "BG", "w0", 2), ("query", "AT", "w2", 6)]))
# w0 held in BE and CH, both affirming on the same tick; then in DK as well.
@example(case=(1, CODES[:3], NO_LINKS, {("AT", "BE"), ("AT", "CH"), ("AT", "DK")},
               {"w0": ["BE", "CH"], "w1": [], "w2": []},
               [("query", "AT", "w0", 4), ("add", "BG"), ("add", "DK"), ("own", "DK", "w0"),
                ("links", dict(NO_LINKS, latency={("AT", "DK"): 0, ("DK", "AT"): 0})),
                ("query", "AT", "w0", 4)]))
def test_query_matches_seed_event_queue(case):
    seed, codes, links, eoi, homes, steps = case
    new = build_mesh(AttributionNetwork, seed, codes, links, eoi, homes)
    old = build_mesh(SeedAttributionNetwork, seed, codes, links, eoi, homes)
    for step in steps:
        assert run_step(new, step) == run_step(old, step)
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


# Texts `datetime.fromisoformat` or `int` take, on some Python versions, that
# are no `ts`: no seconds, a fraction, a week date, a space for `T`, the basic
# format, and digits of other scripts.
LOOSE_STAMPS = st.sampled_from((
    "2020-01-01T00:00", "2020-01-01T00:00:00.5", "2020-W01-1", "2020-01-01 00:00:00",
    "20200101T000000Z", "\u0661\u0662\u0663", "-\u0661", "\u0662\u0660\u0662\u0660-01-01",
    "2020-01-01T00:00:00+0530", "2020-01-01T00:00:00+05:30:00", "2020-01-01T00:00:00z"))

# Texts of a `ts`'s form whose fields are out of range: no timestamp either.
RANGE_STAMPS = st.sampled_from((
    "2020-02-30", "2021-02-29T00:00:00Z", "2020-13-01", "2020-01-01T24:00:00",
    "2020-01-01T00:60:00", "2020-01-01T00:00:60Z", "2020-01-01T00:00:00+24:00",
    "2020-01-01T00:00:00-00:60"))


@given(st.one_of(INT_STAMPS.map(str), ISO_STAMPS, LOOSE_STAMPS, RANGE_STAMPS))
@example("9999-12-31T23:59:59-01:00")  # 10000-01-01T00:59:59Z
@example("0001-01-01T00:00:00+01:00")
@example("2020-06-01T12:00:00+05:30")
@example("2020-01-01T00:00:00-00:60")  # fromisoformat takes it on some Python versions
@settings(max_examples=300, deadline=None)
def test_timestamps_parse_like_seed(ts):
    text = "asset X 0\nevent seq=1 ts=%s kind=purchase asset=X qty=1 fmv=1\n" % ts

    def parsed(parse):
        try:
            return parse(text)[1][0].timestamp
        except LineError as exc:
            return exc.line_no, str(exc)

    assert parsed(parse_event_file) == parsed(seed_parse_event_file)
