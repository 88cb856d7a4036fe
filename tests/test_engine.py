import itertools
import sys
from datetime import datetime, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisc.lineformat import LineError
from fisc.tax import engine
from fisc.tax.engine import (
    EngineError,
    LedgerLine,
    PolicyViolation,
    SequenceError,
    compute_report,
    lot_moves,
    withholding_rate,
)
from fisc.tax.events import (
    ChainEventRecord,
    EventKind,
    parse_event_file,
    serialize_event_file,
)
from fisc.tax.lots import AccountingMethod, DisposalResult, Lot, LotConsumption, LotStore
from fisc.tax.policy import (
    HobbyMinerRule,
    JurisdictionPolicy,
    ReceiptTreatment,
    parse_policy,
)
from seed_oracles import _seed_acquisition_treatment, _seed_moves

BTC = 10**8


def ts(year, month=6, day=1):
    return int(datetime(year, month, day, tzinfo=timezone.utc).timestamp())


def ledger_csv(report) -> str:
    """The ledger CSV that to_csv writes, its chunks joined."""
    chunks = []
    report.to_csv(lambda name, text: chunks.append(text))
    return "".join(chunks)


def ev(seq, when, kind, qty, fmv, asset="BTC", **kwargs):
    return ChainEventRecord(seq, when, kind, asset, qty, Fraction(fmv), **kwargs)


DEFAULT = JurisdictionPolicy()


class TestEventFile:
    def test_round_trip(self):
        records = [
            ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 7), EventKind.SALE, BTC // 2, Fraction(501, 2),
               metadata={"note": "oddprice"}),
        ]
        text = serialize_event_file({"BTC": 8}, records)
        decimals, parsed = parse_event_file(text)
        assert decimals == {"BTC": 8}
        assert parsed == records
        assert parsed[1].metadata == {"note": "oddprice"}

    def test_undeclared_asset_rejected_with_line(self):
        text = "event seq=1 ts=0 kind=purchase asset=BTC qty=1 fmv=1\n"
        with pytest.raises(LineError) as err:
            parse_event_file(text)
        assert err.value.line_no == 1

    def test_bad_tag_line_number(self):
        text = "asset BTC 8\ngarbage here\n"
        with pytest.raises(LineError) as err:
            parse_event_file(text)
        assert err.value.line_no == 2

    def test_iso_timestamps_accepted(self):
        text = "asset BTC 8\nevent seq=1 ts=2020-06-01T00:00:00Z kind=purchase asset=BTC qty=1 fmv=1\n"
        _, records = parse_event_file(text)
        assert records[0].timestamp == ts(2020)

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nasset BTC 8\n"
        assert parse_event_file(text) == ({"BTC": 8}, [])


class TestPolicyFile:
    def test_defaults_from_empty(self):
        assert parse_policy("") == JurisdictionPolicy()

    def test_full_parse(self):
        policy = parse_policy(
            "fork_treatment = zero_basis\n"
            "hobby_miner = exempt_with_cost_basis\n"
            "mining_is_business = false\n"
            "allowed_methods = fifo, hifo\n"
            "standard_withholding = 1/20\n"
            "tax_year_start = 4-6\n"
            "long_term_days = 730\n"
            "slashing_deductible = yes\n"
        )
        assert policy.fork_treatment is ReceiptTreatment.ZERO_BASIS
        assert policy.allowed_methods == frozenset(
            {AccountingMethod.FIFO, AccountingMethod.HIFO}
        )
        assert policy.tax_year_start == (4, 6)
        assert policy.slashing_deductible

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_policy("frobnicate = 1\n")

    def test_elevated_below_standard_rejected(self):
        with pytest.raises(ValueError):
            parse_policy("standard_withholding = 1/2\nelevated_withholding = 1/10\n")


def tax_year(timestamp, policy):
    return engine.TaxDays(policy)[timestamp // 86_400][0]


class TestTaxYear:
    def test_calendar_year(self):
        assert tax_year(ts(2021, 1, 1), DEFAULT) == 2021
        assert tax_year(ts(2021, 12, 31), DEFAULT) == 2021

    def test_shifted_fiscal_year(self):
        policy = JurisdictionPolicy(tax_year_start=(4, 6))
        assert tax_year(ts(2021, 4, 5), policy) == 2020
        assert tax_year(ts(2021, 4, 6), policy) == 2021


def fifo(policy, *records, decimals=8):
    return compute_report(list(records), policy, AccountingMethod.FIFO,
                          {record.asset: decimals for record in records})


def income_and_basis(record, policy):
    """The income `record` recognizes and the basis of the lot it adds, as
    a sale of all of it at 0 reads that lot."""
    sale = ev(2, record.timestamp + 1, EventKind.SALE, record.quantity, 0, asset=record.asset)
    report = fifo(policy, record, sale)
    return report.total_income, sum(line.basis for line in report.lines if line.seq == 2)


class TestIngestTreatments:
    """Each switch of the policy, as compute_report applies it to one event."""

    def test_mining_business_income_at_fmv(self):
        record = ev(1, ts(2020), EventKind.MINING_REWARD, 2 * BTC, 10_000)
        assert income_and_basis(record, DEFAULT) == (20_000, 20_000)

    def test_hobby_exempt_keeps_cost_basis(self):
        policy = JurisdictionPolicy(
            mining_is_business=False, hobby_miner=HobbyMinerRule.EXEMPT_WITH_COST_BASIS
        )
        record = ev(1, ts(2020), EventKind.MINING_REWARD, BTC, 10_000)
        assert income_and_basis(record, policy) == (0, 10_000)

    def test_hobby_zero_basis(self):
        policy = JurisdictionPolicy(
            mining_is_business=False, hobby_miner=HobbyMinerRule.ZERO_BASIS_NO_DEDUCTION
        )
        record = ev(1, ts(2020), EventKind.MINING_REWARD, BTC, 10_000)
        assert income_and_basis(record, policy) == (0, 0)

    @pytest.mark.parametrize("kind", [EventKind.FORK_RECEIPT, EventKind.AIRDROP])
    def test_receipt_treatment_switch(self, kind):
        fmv_policy = DEFAULT
        zero_policy = JurisdictionPolicy(
            fork_treatment=ReceiptTreatment.ZERO_BASIS,
            airdrop_treatment=ReceiptTreatment.ZERO_BASIS,
        )
        record = ev(1, ts(2020), kind, 8 * BTC, 50, asset="BCH")
        for policy, income, basis in ((fmv_policy, 400, 400), (zero_policy, 0, 0)):
            assert income_and_basis(record, policy) == (income, basis)

    def test_self_transfer_is_a_noop(self):
        report = fifo(DEFAULT, ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
                      ev(2, ts(2021), EventKind.SELF_TRANSFER, BTC, 500),
                      ev(3, ts(2021, 7), EventKind.SALE, BTC, 0))
        assert [(line.seq, line.qty, line.basis) for line in report.lines] == [(3, BTC, 100)]
        assert report.total_income == 0

    def test_gift_exempt_has_zero_gain(self):
        report = fifo(JurisdictionPolicy(gift_taxable=False),
                      ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
                      ev(2, ts(2021), EventKind.GIFT, BTC, 900))
        assert [(line.seq, line.qty, line.gain) for line in report.lines] == [(2, BTC, 0)]

    @pytest.mark.parametrize("method", ["fifo", "hifo", "avg_moving", "pvct"])
    def test_exempt_gift_of_two_lots_shifts_no_gain_between_terms(self, method):
        # A long-term lot at 10 and a short-term one at 100, given away at 55:
        # each part leaves at its own basis, not at a share of the total.
        records = [ev(1, ts(2019), EventKind.PURCHASE, BTC, 10),
                   ev(2, ts(2021), EventKind.PURCHASE, BTC, 100),
                   ev(3, ts(2021, 9), EventKind.GIFT, 2 * BTC, 55)]
        report = compute_report(records, JurisdictionPolicy(gift_taxable=False),
                                AccountingMethod(method), {"BTC": 8})
        gift = [line for line in report.lines if line.kind == "gift"]
        assert sum(line.qty for line in gift) == 2 * BTC
        assert all(line.gain == 0 and line.proceeds == line.basis for line in gift)
        assert sum(line.basis for line in gift) == 110
        assert all(value == 0 for totals in report.years.values() for value in vars(totals).values())

    def test_vault_liquidation_parses_and_disposes(self):
        decimals, records = parse_event_file(
            "asset ETH 18\n"
            "event seq=1 ts=2021-01-01T00:00:00Z kind=purchase asset=ETH qty=%d fmv=1000\n"
            "event seq=2 ts=2021-03-01T00:00:00Z kind=vault_liquidation asset=ETH qty=%d fmv=800\n"
            % (10**18, 10**18))
        report = compute_report(records, DEFAULT, AccountingMethod.FIFO, decimals)
        assert [line[2:] for line in report.lines] == [
            ("vault_liquidation", "ETH", 10**18, 800, 1000, -200, "short")]

    def test_gift_taxable_realizes_gain(self):
        report = fifo(DEFAULT, ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
                      ev(2, ts(2021), EventKind.GIFT, BTC, 900))
        assert report.total_gain == 800

    def test_slashing_deduction_gate(self):
        record = ev(
            1, ts(2021), EventKind.SPEND, 10**18, 2000, asset="ETH",
            metadata={"deduction": "1", "slashing": "1"},
        )
        blocked = fifo(DEFAULT, record, decimals=18)
        assert blocked.years[2021].deductible_expenses == 0 and blocked.lines == []
        allowed = fifo(JurisdictionPolicy(slashing_deductible=True), record, decimals=18)
        assert allowed.years[2021].deductible_expenses == 2000

    def test_plain_deduction_passes(self):
        record = ev(
            1, ts(2021), EventKind.SPEND, 10**18, 100, asset="ETH",
            metadata={"deduction": "1"},
        )
        assert fifo(DEFAULT, record, decimals=18).years[2021].deductible_expenses == 100

    def test_lp_events_default_to_transfers(self):
        report = fifo(DEFAULT, ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
                      ev(2, ts(2021), EventKind.LP_DEPOSIT, BTC, 500),
                      ev(3, ts(2021, 7), EventKind.SALE, BTC, 0))
        assert [(line.seq, line.qty, line.basis) for line in report.lines] == [(3, BTC, 100)]

    def test_lp_events_as_disposals_when_enabled(self):
        report = fifo(JurisdictionPolicy(lp_events_are_disposals=True),
                      ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
                      ev(2, ts(2021), EventKind.LP_DEPOSIT, BTC, 500))
        assert [(line.seq, line.qty, line.gain) for line in report.lines] == [(2, BTC, 400)]


# Every combination of the switches lot_move reads.
MOVE_POLICIES = [
    JurisdictionPolicy(mining_is_business=business, hobby_miner=hobby, fork_treatment=fork,
                       airdrop_treatment=airdrop, lp_events_are_disposals=lp)
    for business, hobby, fork, airdrop, lp in itertools.product(
        (True, False), HobbyMinerRule, ReceiptTreatment, ReceiptTreatment, (False, True))
]


class TestLotMoves:
    def test_table_matches_the_seed_oracle(self):
        """Every (kind, deduction flag) entry moves lots as the seed oracle's
        _seed_moves says, and an acquisition takes its basis and income at
        the FMV as _seed_acquisition_treatment does."""
        fmv = Fraction(7, 3)
        for policy in MOVE_POLICIES:
            table = lot_moves(policy)
            assert len(table) == 2 * len(EventKind)
            for kind, deduction in itertools.product(EventKind, (False, True)):
                record = ChainEventRecord(1, ts(2020), kind, "BTC", 1, fmv,
                                          metadata={"deduction": "1"} if deduction else {})
                moves = _seed_moves(record, policy)
                expected = (0 if moves is None else -1, False, False)
                if moves == "acquires":
                    income, basis = _seed_acquisition_treatment(record, policy)
                    expected = (1, basis == fmv, income == fmv)
                assert table[kind, deduction] == expected, (policy, kind, deduction)


class TestWithholding:
    def test_rates(self):
        assert Fraction(1000) * withholding_rate("affirmed", DEFAULT) == 100
        assert Fraction(1000) * withholding_rate("unaffirmed", DEFAULT) == 300

    def test_flows_into_report(self):
        records = [
            ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 7), EventKind.SALE, BTC, 1000,
               metadata={"attribution": "unaffirmed"}),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})
        assert report.years[2020].withholding_owed == 300


class TestReport:
    def test_mining_plus_zero_basis_fork(self):
        # 2 BTC mined at 10000 (income 20000); fork coins at zero basis
        # sold later for 3200 of pure gain.
        policy = JurisdictionPolicy(fork_treatment=ReceiptTreatment.ZERO_BASIS)
        records = [
            ev(1, ts(2020), EventKind.MINING_REWARD, 2 * BTC, 10_000),
            ev(2, ts(2020, 7), EventKind.FORK_RECEIPT, 8 * BTC, 300, asset="BCH"),
            ev(3, ts(2020, 8), EventKind.SALE, 8 * BTC, 400, asset="BCH"),
        ]
        report = compute_report(
            records, policy, AccountingMethod.FIFO, {"BTC": 8, "BCH": 8}
        )
        assert report.total_income == 20_000
        assert report.total_gain == 3200

    def test_long_short_term_split(self):
        day = 86_400
        records = [
            ev(1, 0, EventKind.PURCHASE, 2 * BTC, 100),
            ev(2, 365 * day, EventKind.SALE, BTC, 200),
            ev(3, 366 * day, EventKind.SALE, BTC, 200),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})
        short = sum(t.short_term_gain for t in report.years.values())
        long = sum(t.long_term_gain for t in report.years.values())
        # Exactly 365 days is still short term; strictly more is long.
        assert short == 100
        assert long == 100

    def test_sequence_enforced(self):
        records = [
            ev(2, ts(2020), EventKind.PURCHASE, BTC, 100),
            ev(1, ts(2020, 7), EventKind.SALE, BTC, 200),
        ]
        with pytest.raises(SequenceError):
            compute_report(records, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})

    def test_disallowed_method(self):
        policy = JurisdictionPolicy(allowed_methods=frozenset({AccountingMethod.FIFO}))
        with pytest.raises(PolicyViolation):
            compute_report([], policy, AccountingMethod.HIFO)

    # Under a 640-digit limit: seq 3's gain, 1/7^700 - 1/3^1000, has a
    # 1,069-digit denominator; seq 4's income has 701 digits; seq 6 sells
    # more than is held. Proceeds and basis of seq 3 print.
    STREAM = [
        ev(1, ts(2020), EventKind.PURCHASE, 1, Fraction(1, 3**1000), asset="X"),
        ev(2, ts(2020), EventKind.MINING_REWARD, 1, 5, asset="X"),
        ev(3, ts(2020), EventKind.SALE, 1, Fraction(1, 7**700), asset="X"),
        ev(4, ts(2020), EventKind.MINING_REWARD, 10**700, 1, asset="X"),
        ev(5, ts(2020), EventKind.PURCHASE, 1, 1, asset="X"),
        ev(6, ts(2020), EventKind.SALE, 10**800, 1, asset="X"),
    ]

    @pytest.mark.parametrize("skip,seq,ingested", [(None, 3, 3), (3, 4, 3)])
    def test_stops_at_first_unprintable_line(self, low_digit_limit, monkeypatch, skip, seq,
                                             ingested):
        calls = []  # the seq of each record passed to the book

        class Counted(LotStore):
            def acquire(self, record, unit):
                calls.append(record.seq)
                super().acquire(record, unit)

            def dispose(self, record):
                calls.append(record.seq)
                return super().dispose(record)

        monkeypatch.setitem(engine.BOOKS, AccountingMethod.FIFO, Counted)
        records = [record for record in self.STREAM if record.seq != skip]
        with pytest.raises(EngineError, match=r"^seq %d: exact value too long to print: "
                                              r"Exceeds the limit \(640 digits\)" % seq):
            compute_report(records, DEFAULT, AccountingMethod.FIFO, {"X": 0})
        assert len(calls) == ingested

    @pytest.mark.parametrize("method", list(AccountingMethod))
    def test_every_method_completes(self, method):
        records = [
            ev(1, ts(2020), EventKind.PURCHASE, 2 * BTC, 100),
            ev(2, ts(2020, 7), EventKind.PURCHASE, BTC, 300),
            ev(3, ts(2021), EventKind.SALE, BTC, 400,
               specid_lot=(2,) if method is AccountingMethod.SPEC_ID else None),
            ev(4, ts(2021, 7), EventKind.SALE, BTC, 500,
               specid_lot=(1,) if method is AccountingMethod.SPEC_ID else None),
        ]
        report = compute_report(records, DEFAULT, method, {"BTC": 8})
        # All methods agree on lifetime proceeds; basis stays non-negative.
        sold_basis = sum(line.basis for line in report.lines)
        assert sum(line.proceeds for line in report.lines) == 900
        assert sold_basis >= 0
        assert len(report.lines) >= 2

    def test_ledger_lines_sum_to_totals(self):
        records = [
            ev(1, ts(2020), EventKind.PURCHASE, 2 * BTC, 100),
            ev(2, ts(2020, 7), EventKind.MINING_REWARD, BTC, 250),
            ev(3, ts(2021, 8), EventKind.SALE, 3 * BTC, 400),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})
        gain_lines = sum(l.gain for l in report.lines if l.term != "-")
        income_lines = sum(l.proceeds for l in report.lines if l.term == "-")
        assert gain_lines == report.total_gain
        assert income_lines == report.total_income

    def test_byte_identical_reruns(self):
        records = [
            ev(1, ts(2020), EventKind.PURCHASE, 2 * BTC, Fraction(301, 3)),
            ev(2, ts(2021), EventKind.SALE, BTC, Fraction(999, 7)),
        ]
        first = compute_report(records, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})
        second = compute_report(records, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})
        assert ledger_csv(first) == ledger_csv(second)
        assert first.to_totals_json() == second.to_totals_json()
        # Non-terminating decimals render as exact fractions.
        assert "1000/7" in ledger_csv(first) or "999/7" in ledger_csv(first)


class TestNoConstructorPerRow:
    """Lots are plain lists and ledger rows, lot parts and disposal results
    plain tuples: no Python-level constructor runs per lot, row or part."""

    CONSTRUCTORS = {id(getattr(cls, name).__code__): cls.__name__ + "." + name
                    for cls, name in ((Lot, "__init__"), (LedgerLine, "__new__"),
                                      (LotConsumption, "__new__"), (DisposalResult, "__new__"))}

    def test_fifo_income_and_hifo_disposals(self):
        income = [ev(seq, ts(2020, seq), EventKind.MINING_REWARD, BTC, fmv)
                  for seq, fmv in enumerate((100, 100, 200, 100), 1)]
        trades = [ev(1, ts(2020), EventKind.PURCHASE, BTC, 100),
                  ev(2, ts(2020, 2), EventKind.PURCHASE, BTC, 300),
                  ev(3, ts(2020, 3), EventKind.PURCHASE, BTC, 200),
                  ev(4, ts(2021), EventKind.SALE, BTC + BTC // 2, 400),
                  ev(5, ts(2021, 2), EventKind.SALE, BTC, 400)]
        entered = []

        def profile(frame, event, arg):
            if event == "call" and id(frame.f_code) in self.CONSTRUCTORS:
                entered.append(self.CONSTRUCTORS[id(frame.f_code)])

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            fifo = compute_report(income, DEFAULT, AccountingMethod.FIFO, {"BTC": 8})
            hifo = compute_report(trades, DEFAULT, AccountingMethod.HIFO, {"BTC": 8})
        finally:
            sys.setprofile(previous)
        assert entered == []
        assert [(l.seq, l.basis) for l in hifo.lines] == [(4, 300), (4, 100), (5, 100), (5, 50)]
        # A repeated amount reuses the row above's text, also after a change.
        assert ledger_csv(fifo).splitlines()[1:] == [
            "%d,2020-0%d-01,mining_reward,BTC,100000000,%d,0,0,-" % (seq, seq, fmv)
            for seq, fmv in enumerate((100, 100, 200, 100), 1)]


class TestAverageTotal:
    def test_yearly_average_with_carry(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 3), EventKind.PURCHASE, BTC, 300),
            ev(3, ts(2020, 9), EventKind.SALE, BTC, 400),
            ev(4, ts(2021, 2), EventKind.PURCHASE, BTC, 400),
            ev(5, ts(2021, 9), EventKind.SALE, 2 * BTC, 500),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.AVG_TOTAL, {"BTC": 8})
        # 2020 average (100+300)/2 = 200: gain 200. Carry 1 BTC at 200;
        # 2021 average (200+400)/2 = 300: basis 600, gain 400.
        assert report.years[2020].short_term_gain + report.years[2020].long_term_gain == 200
        assert report.years[2021].short_term_gain + report.years[2021].long_term_gain == 400

    def test_single_year_matches_moving_average(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 3), EventKind.PURCHASE, BTC, 300),
            ev(3, ts(2020, 9), EventKind.SALE, BTC, 350),
        ]
        total = compute_report(records, DEFAULT, AccountingMethod.AVG_TOTAL, {"BTC": 8})
        moving = compute_report(records, DEFAULT, AccountingMethod.AVG_MOVING, {"BTC": 8})
        assert total.total_gain == moving.total_gain == 150


    def test_deduction_spend_is_not_a_disposal(self):
        # The spend disposes of nothing, so all 100 bought in 2020 carry into
        # 2021: (1000 + 2000) / 150 = 20 a unit, the 3000 paid.
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, 100, 10, asset="X"),
            ev(2, ts(2020, 3), EventKind.SPEND, 50, 10, asset="X",
               metadata={"deduction": "1"}),
            ev(3, ts(2021, 2), EventKind.PURCHASE, 50, 40, asset="X"),
            ev(4, ts(2021, 9), EventKind.SALE, 150, 50, asset="X"),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.AVG_TOTAL, {"X": 0})
        assert [l.basis for l in report.lines if l.seq == 4] == [3000]

    def test_lp_events_move_the_pool_when_disposals(self):
        # 2020: 100 carried at 1000, a 50 withdrawal at 20 (1000) and 10
        # bought at 30 (300) give 2300 over 160 units. The deposit and the
        # sale take 50 and 110 of them, both from the pool dated 2017.
        policy = JurisdictionPolicy(lp_events_are_disposals=True)
        records = [
            ev(1, ts(2017, 2), EventKind.PURCHASE, 100, 10, asset="X"),
            ev(2, ts(2020, 2), EventKind.LP_DEPOSIT, 50, 20, asset="X"),
            ev(3, ts(2020, 3), EventKind.LP_WITHDRAWAL, 50, 20, asset="X"),
            ev(4, ts(2020, 4), EventKind.PURCHASE, 10, 30, asset="X"),
            ev(5, ts(2020, 5), EventKind.SALE, 110, 30, asset="X"),
        ]
        report = compute_report(records, policy, AccountingMethod.AVG_TOTAL, {"X": 0})
        assert [(l.seq, l.basis, l.term) for l in report.lines] == [
            (2, Fraction("718.75"), "long"), (5, Fraction("1581.25"), "long")]

    def test_tax_year_taken_once_per_day_across_a_shifted_start(self, monkeypatch):
        # Tax years start on 6 April. Seq 1-2 fall on 5 April 2020 (year 2019),
        # 3-4 on 6 April (2020), 5 on 5 April 2021 (2020), 6 on 6 April 2021.
        policy = JurisdictionPolicy(tax_year_start=(4, 6))
        at = lambda *when: int(datetime(*when, tzinfo=timezone.utc).timestamp())
        records = [
            ev(1, at(2020, 4, 5, 1), EventKind.PURCHASE, 10, 10, asset="X"),
            ev(2, at(2020, 4, 5, 23, 59), EventKind.SALE, 5, 30, asset="X"),
            ev(3, at(2020, 4, 6), EventKind.PURCHASE, 5, 40, asset="X"),
            ev(4, at(2020, 4, 6, 12), EventKind.SALE, 4, 50, asset="X"),
            ev(5, at(2021, 4, 5, 12), EventKind.SALE, 2, 60, asset="X"),
            ev(6, at(2021, 4, 6), EventKind.SALE, 4, 70, asset="X"),
        ]
        calls = []
        missing = engine.TaxDays.__missing__
        monkeypatch.setattr(engine.TaxDays, "__missing__",
                            lambda days, day: calls.append(day) or missing(days, day))
        report = compute_report(records, policy, AccountingMethod.AVG_TOTAL, {"X": 0})
        assert len(calls) == 4  # one per distinct UTC day, shared by the pre-pass and the loop
        # 2019: 100 / 10 = 10 a unit, 5 carried out (50). 2020: (50 + 200) / 10
        # = 25, 4 carried out (100). 2021 prices its sale at that 25.
        assert [(l.seq, l.basis) for l in report.lines] == [(2, 50), (4, 100), (5, 50), (6, 100)]
        assert {year: t.short_term_gain + t.long_term_gain
                for year, t in report.years.items()} == {2019: 100, 2020: 170, 2021: 180}

    def test_year_disposing_of_more_than_it_holds_is_refused(self):
        # The sale is dated in 2020, a year before the purchase it follows:
        # 2020 holds nothing, so it has no average to price the sale at.
        records = [
            ev(1, ts(2021), EventKind.PURCHASE, 10, 5, asset="X"),
            ev(2, ts(2020), EventKind.SALE, 10, 12, asset="X"),
        ]
        fifo = compute_report(records, DEFAULT, AccountingMethod.FIFO, {"X": 0})
        assert fifo.lines[0].basis == 50
        with pytest.raises(EngineError, match="tax year 2020 disposes of 10 X but carries in "
                                              "and acquires only 0"):
            compute_report(records, DEFAULT, AccountingMethod.AVG_TOTAL, {"X": 0})


class TestPeriodic:
    def test_rebase_at_year_boundary(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 11), EventKind.PURCHASE, 1, 300),  # dust, fixes year-end price
            ev(3, ts(2021, 6), EventKind.SALE, BTC, 500),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.PERIODIC, {"BTC": 8})
        # Basis rebased to the last 2020 price (300): gain is 200, not 400.
        assert report.total_gain == 200

    def test_no_boundary_no_rebase(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 11), EventKind.SALE, BTC, 500),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.PERIODIC, {"BTC": 8})
        assert report.total_gain == 400


class TestPvct:
    def test_global_cost_apportionment(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, BTC, 100),
            ev(2, ts(2020, 3), EventKind.PURCHASE, BTC, 100),
            ev(3, ts(2020, 9), EventKind.SALE, BTC, 400),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.PVCT, {"BTC": 8})
        # Basis = total cost 200 x proceeds 400 / portfolio value 800 = 100.
        line = [l for l in report.lines if l.kind == "sale"]
        assert sum(l.basis for l in line) == 100
        assert report.total_gain == 300

    def test_cost_pool_depletes(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, 2 * BTC, 100),
            ev(2, ts(2020, 9), EventKind.SALE, BTC, 100),
            ev(3, ts(2020, 10), EventKind.SALE, BTC, 100),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.PVCT, {"BTC": 8})
        # Flat prices: every sale recovers exactly its share of cost.
        assert report.total_gain == 0
        assert sum(l.basis for l in report.lines) == 200

    def test_deduction_spend_leaves_next_sale_basis_unchanged(self):
        # The deduction spend disposes of nothing, so the cost pool must not
        # shrink: the next sale takes 200/1800 of the 900 left, 100.
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, 100, 10, asset="X"),
            ev(2, ts(2020, 3), EventKind.SALE, 10, 20, asset="X"),
            ev(3, ts(2020, 4), EventKind.SPEND, 5, 30, asset="X", metadata={"deduction": "1"}),
            ev(4, ts(2020, 5), EventKind.SALE, 10, 20, asset="X"),
        ]
        with_spend = compute_report(records, DEFAULT, AccountingMethod.PVCT, {"X": 0})
        without = compute_report(records[:2] + records[3:], DEFAULT, AccountingMethod.PVCT,
                                 {"X": 0})
        bases = [[l.basis for l in r.lines if l.seq == 4] for r in (with_spend, without)]
        assert bases == [[100], [100]]
        assert with_spend.years[2020].deductible_expenses == 150

    def test_lp_round_trip_keeps_its_cost(self):
        # The deposit is priced like a sale and the withdrawal adds its FMV
        # cost back to the pool, so the final sale recovers the 1000 paid.
        policy = JurisdictionPolicy(lp_events_are_disposals=True)
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, 100, 10, asset="X"),
            ev(2, ts(2020, 3), EventKind.LP_DEPOSIT, 100, 10, asset="X"),
            ev(3, ts(2020, 4), EventKind.LP_WITHDRAWAL, 100, 10, asset="X"),
            ev(4, ts(2020, 5), EventKind.SALE, 100, 10, asset="X"),
        ]
        report = compute_report(records, policy, AccountingMethod.PVCT, {"X": 0})
        assert [(l.basis, l.gain) for l in report.lines if l.seq == 4] == [(1000, 0)]

    def test_basis_spread_over_fifo_parts_by_quantity(self):
        records = [
            ev(1, ts(2020, 2), EventKind.PURCHASE, 30, 10, asset="X"),
            ev(2, ts(2020, 3), EventKind.PURCHASE, 30, 20, asset="X"),
            ev(3, ts(2020, 4), EventKind.PURCHASE, 40, 40, asset="X"),
            ev(4, ts(2020, 5), EventKind.SALE, 80, 30, asset="X"),
        ]
        report = compute_report(records, DEFAULT, AccountingMethod.PVCT, {"X": 0})
        # 2400 of a 3000 portfolio takes 4/5 of the 2500 cost: 2000.
        assert [(l.qty, l.basis) for l in report.lines] == [(30, 750), (30, 750), (20, 500)]


DECIMALS = {"A": 0, "B": 2}
LP_KINDS = (EventKind.LP_DEPOSIT, EventKind.LP_WITHDRAWAL)
STREAM_KINDS = (EventKind.PURCHASE, EventKind.PURCHASE, EventKind.MINING_REWARD,
                EventKind.SALE, EventKind.SWAP, EventKind.SPEND, EventKind.GIFT) + LP_KINDS
DISPOSING = {EventKind.SALE, EventKind.SWAP, EventKind.SPEND, EventKind.GIFT,
             EventKind.LP_DEPOSIT}


@st.composite
def liquidated_streams(draw):
    """(policy, records, acquisition cost, overdrawn): a stream with LP
    events under both policy values, deduction spends and gifts, prices of
    at least 1/8 and timestamps that step back as well as forward, that
    ends by selling every holding. `overdrawn` tells whether some calendar
    year disposes of more of an asset than it carries in and acquires."""
    policy = JurisdictionPolicy(lp_events_are_disposals=draw(st.booleans()),
                                gift_taxable=draw(st.booleans()))
    held = dict.fromkeys(DECIMALS, 0)
    records, cost, when = [], Fraction(0), ts(2019)
    moved: dict[tuple[int, str], int] = {}  # (year, asset) -> net quantity moved in
    prices = st.fractions(Fraction(1, 8), 100, max_denominator=8)

    def add(kind, qty, price, asset, meta, move):
        records.append(ev(len(records) + 1, when, kind, qty, price, asset=asset, metadata=meta))
        key = (datetime.fromtimestamp(when, tz=timezone.utc).year, asset)
        moved[key] = moved.get(key, 0) + move

    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(STREAM_KINDS))
        asset, price = draw(st.sampled_from(sorted(DECIMALS))), draw(prices)
        moves = policy.lp_events_are_disposals or kind not in LP_KINDS
        meta, move = {}, 0
        if kind is EventKind.SPEND and draw(st.booleans()):
            meta, qty = {"deduction": "1"}, draw(st.integers(1, 300))
        elif kind in DISPOSING:
            if not held[asset]:
                continue
            qty = draw(st.integers(1, held[asset]))
            move = -qty if moves else 0
        else:
            qty = draw(st.integers(1, 300))
            if moves:
                move = qty
                cost += Fraction(qty, 10 ** DECIMALS[asset]) * price
        held[asset] += move
        when += draw(st.integers(-200, 200)) * 86_400
        add(kind, qty, price, asset, meta, move)
    for asset, qty in held.items():
        if qty:
            when += 86_400
            add(EventKind.SALE, qty, draw(prices), asset, {}, -qty)
    carried = dict.fromkeys(DECIMALS, 0)
    overdrawn = False
    for (year, asset), move in sorted(moved.items()):
        carried[asset] += move
        overdrawn |= carried[asset] < 0
    return policy, records, cost, overdrawn


@pytest.mark.parametrize("method", [
    AccountingMethod.FIFO, AccountingMethod.LIFO, AccountingMethod.HIFO,
    AccountingMethod.AVG_MOVING, AccountingMethod.AVG_TOTAL, AccountingMethod.PVCT,
])
@given(case=liquidated_streams())
@settings(max_examples=60, deadline=None)
def test_liquidation_disposes_of_exactly_the_cost_acquired(method, case):
    """Every method conserves cost, even when timestamps run backwards;
    avg_total instead refuses a stream with an overdrawn year."""
    policy, records, cost, overdrawn = case
    if method is AccountingMethod.AVG_TOTAL and overdrawn:
        with pytest.raises(EngineError, match="disposes of"):
            compute_report(records, policy, method, DECIMALS)
        return
    report = compute_report(records, policy, method, DECIMALS)
    assert sum(l.basis for l in report.lines if l.term != "-") == cost
