import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisc.amounts import Amount, btc, eth
from fisc.scenarios import run_chain_scenario, run_validator_scenario
from fisc.tax.events import parse_event_file
from fisc.consensus import (
    AttestationVote,
    DutyEvent,
    MevBlockAccounting,
    PosParams,
    RewardSchedule,
    attestation_score,
    block_subsidy,
    collision_time_years,
    era_count,
    mev_net_builder_fee,
    mining_expectation,
    penalty_or_slash,
    pos_issuance_and_return,
    total_issuance,
)

STAKE = 32 * 10**18


class TestSubsidy:
    def test_genesis_era(self):
        assert block_subsidy(0) == btc("50")
        assert block_subsidy(209_999) == btc("50")

    def test_first_halving(self):
        assert block_subsidy(210_000) == btc("25")

    def test_third_era_worked_value(self):
        assert block_subsidy(630_000) == btc("6.25")

    def test_subsidy_zero_after_last_era(self):
        interval = RewardSchedule().halving_interval_blocks
        assert block_subsidy(era_count() * interval).base_units == 0

    def test_era_count(self):
        assert era_count() == 33

    def test_total_issuance_exact(self):
        # Oracle: direct sum over every era with integer halving.
        expected = sum((50 * 10**8 >> era) * 210_000 for era in range(64))
        assert total_issuance().base_units == expected == 2_099_999_997_690_000

    def test_total_issuance_below_cap(self):
        schedule = RewardSchedule()
        cap = schedule.supply_cap.base_units
        shortfall = cap - total_issuance().base_units
        # Truncation loses at most one base unit per era per block of the
        # halving interval.
        assert 0 < shortfall <= era_count() * schedule.halving_interval_blocks

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            block_subsidy(-1)

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=6),
        # Up to 8 eras of 1 to 6 blocks: ranges cross halvings, run past the
        # last era, overlap, and are reversed (start > end mines nothing).
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=5),
    )
    @settings(max_examples=150)
    # 13 units last 4 eras of 3 blocks; the ranges overlap, one is reversed.
    @example(initial=13, interval=3, ranges=[(2, 20), (5, 4), (10, 14)])
    def test_chain_replay_matches_block_subsidy_per_height(self, initial, interval, ranges):
        """Asked once per era, the chain runner still gives each height
        block_subsidy(height), and an income event when that is nonzero."""
        text = "schedule initial=%d interval=%d decimals=0\nprice fmv=3/7\n" % (initial, interval)
        text += "".join("mine start=%d end=%d\n" % r for r in ranges)
        outputs = {"events.fisc": "", "state.txt": ""}

        def write(name, chunk):
            outputs[name] += chunk

        run_chain_scenario(text, write)
        events, state = outputs["events.fisc"], outputs["state.txt"]
        schedule = RewardSchedule(Amount(initial, 0), interval)
        heights = [h for start, end in ranges for h in range(start, end + 1)]
        subsidies = [block_subsidy(h, schedule).base_units for h in heights]
        lines = ["height %d subsidy %d" % hs for hs in zip(heights, subsidies)]
        assert state == "\n".join(lines) + "\n"
        _, records = parse_event_file(events)
        assert [(r.seq, r.timestamp, r.quantity, r.metadata) for r in records] == [
            (seq, h * 600, subsidy, {"height": str(h)})
            for seq, (h, subsidy) in enumerate(zip(heights, subsidies), start=1) if subsidy
        ]


class TestExpectation:
    def test_small_miner_worked_example(self):
        # A 0.001% hash share waits 100000 blocks, about 99.2 weeks.
        blocks, weeks = mining_expectation(Fraction(1, 100_000))
        assert blocks == 100_000
        assert weeks == Fraction(100_000 * 2, 2016)
        assert abs(float(weeks) - 99.206) < 0.001

    def test_full_network_mines_next_block(self):
        blocks, _ = mining_expectation(1)
        assert blocks == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mining_expectation(0)
        with pytest.raises(ValueError):
            mining_expectation(2)


class TestCollision:
    def test_published_estimate(self):
        # 600 EH/s against 2^128 work: about 1.8e10 years.
        years = collision_time_years(600 * 10**18)
        assert abs(years - 17_983_805_117) / 17_983_805_117 < 1e-3

    def test_inverse_linearity(self):
        assert collision_time_years(10**18) == 2 * collision_time_years(2 * 10**18)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            collision_time_years(0)


class TestPosIssuance:
    @pytest.mark.parametrize("n", [1, 7, 100, 10_000, 123_456])
    def test_four_x_scaling_exact(self, n):
        issuance_n, return_n = pos_issuance_and_return(n)
        issuance_4n, return_4n = pos_issuance_and_return(4 * n)
        assert issuance_4n == 2 * issuance_n
        assert return_4n * 2 == return_n

    def test_square_counts_are_exact(self):
        issuance, ret = pos_issuance_and_return(10_000)
        assert issuance == 100
        assert ret == Fraction(1, 100)

    def test_monotone(self):
        prev = Fraction(0)
        for n in (1, 2, 10, 50, 1000):
            issuance, _ = pos_issuance_and_return(n)
            assert issuance > prev
            prev = issuance

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pos_issuance_and_return(0)


class TestAttestationScore:
    def test_all_correct_next_slot(self):
        vote = AttestationVote(True, True, True, 1)
        assert attestation_score(vote) == {"source", "target", "head"}

    def test_head_lost_after_one_slot(self):
        vote = AttestationVote(True, True, True, 2)
        assert attestation_score(vote) == {"source", "target"}

    def test_source_only_within_five(self):
        assert attestation_score(AttestationVote(True, False, False, 5)) == {"source"}
        assert attestation_score(AttestationVote(True, False, False, 6)) == frozenset()

    def test_target_window_is_32(self):
        assert attestation_score(AttestationVote(True, True, False, 32)) == {
            "source",
            "target",
        }
        assert attestation_score(AttestationVote(True, True, False, 33)) == frozenset()

    def test_wrong_source_scores_nothing(self):
        assert attestation_score(AttestationVote(False, True, True, 1)) == frozenset()

    def test_delay_six_all_correct(self):
        # Past the source window, nothing but target path remains; with
        # correct target it still earns source+target.
        assert attestation_score(AttestationVote(True, True, True, 6)) == {
            "source",
            "target",
        }

    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            AttestationVote(True, True, True, 0)


class TestPenalties:
    def test_missed_head_is_free(self):
        assert penalty_or_slash(STAKE, DutyEvent.MISSED_HEAD) == (STAKE, False)

    def test_missed_source_deducts_configured_fraction(self):
        after, slashed = penalty_or_slash(STAKE, DutyEvent.MISSED_SOURCE)
        assert STAKE - after == 32 * 10**18 // 100_000 and not slashed

    def test_missed_sync_forfeits_the_reward(self):
        params = PosParams()
        after, _ = penalty_or_slash(STAKE, DutyEvent.MISSED_SYNC, params)
        assert STAKE - after == math.floor(Fraction(STAKE) * params.sync_duty_reward)

    @pytest.mark.parametrize("event", [DutyEvent.DOUBLE_PROPOSAL, DutyEvent.DOUBLE_VOTE])
    def test_equivocation_slashes_and_ejects(self, event):
        assert penalty_or_slash(STAKE, event) == (32 * 10**18 - 10**18, True)

    @given(
        st.integers(min_value=0, max_value=10**40),
        st.sampled_from([DutyEvent.MISSED_SOURCE, DutyEvent.MISSED_TARGET, DutyEvent.MISSED_SYNC,
                         DutyEvent.DOUBLE_PROPOSAL, DutyEvent.DOUBLE_VOTE]),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**12),
                 min_size=4, max_size=4),
    )
    @settings(max_examples=200)
    def test_integer_cut_matches_rational_oracle(self, stake, event, rates):
        """The cut stake * num // den equals floor(Fraction(stake) * rate),
        the expression it replaced, for each penalised duty kind."""
        params = PosParams(missed_source_penalty=rates[0], missed_target_penalty=rates[1],
                           sync_duty_reward=rates[2], slash_fraction=rates[3])
        rate = {DutyEvent.MISSED_SOURCE: rates[0], DutyEvent.MISSED_TARGET: rates[1],
                DutyEvent.MISSED_SYNC: rates[2]}.get(event, rates[3])
        slashed = event in (DutyEvent.DOUBLE_PROPOSAL, DutyEvent.DOUBLE_VOTE)
        assert penalty_or_slash(stake, event, params) == (
            stake - math.floor(Fraction(stake) * rate), slashed)

    def test_slashed_validator_is_done(self):
        """The replay skips every duty of a slashed validator after the slash."""
        outputs = {}
        run_validator_scenario("validator v1\nduty v1 double_vote\nduty v1 missed_source\n"
                               "duty v1 double_proposal\n",
                               lambda name, chunk: outputs.setdefault(name, []).append(chunk))
        assert outputs["state.txt"] == ["v1 stake=31000000000000000000 status=slashed\n"]
        _, records = parse_event_file("".join(outputs["events.fisc"]))
        assert [(r.timestamp, r.quantity, r.metadata) for r in records] == [
            (0, 10**18, {"validator": "v1", "deduction": "1", "slashing": "1"})]

class TestDecimalAmounts:
    @given(
        st.integers(min_value=-10**30, max_value=10**30),
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=0, max_value=30),
        st.sampled_from(["ratio", "decimal", "exponent"]),
    )
    @settings(max_examples=300)
    def test_from_decimal_str_matches_rational_oracle(self, num, den, decimals, form):
        """Integer scaling equals the Fraction product it replaced, and a
        value finer than one base unit is refused, as a/b, as a decimal and
        with an exponent."""
        if form == "ratio":
            text = "%d/%d" % (num, den)
        else:  # num / 10**places, which is finer than a base unit when places > decimals
            places = den % 40
            digits = str(abs(num)).rjust(places + 1, "0")
            cut = len(digits) - places
            text = "-" * (num < 0) + digits[:cut] + "." + digits[cut:]
            if form == "exponent":
                text = text.replace(".", "") + "e-%d" % places
        units = Fraction(text) * 10**decimals
        if units.denominator != 1:
            with pytest.raises(ValueError, match="not representable with %d decimals" % decimals):
                Amount.from_decimal_str(text, decimals)
        else:
            assert Amount.from_decimal_str(text, decimals) == Amount(int(units), decimals)


class TestMev:
    def test_published_block_accounting(self):
        # 0.031971 reward + (0.013180 + 0.032166) searcher payments
        # - 0.063398 to the proposer leaves 0.013919 ETH.
        acc = MevBlockAccounting(
            eth("0.031971"),
            (eth("0.013180"), eth("0.032166")),
            eth("0.063398"),
        )
        assert mev_net_builder_fee(acc) == eth("0.013919")

    def test_negative_net_allowed(self):
        acc = MevBlockAccounting(eth("0.01"), (), eth("0.02"))
        assert mev_net_builder_fee(acc).base_units == -(10**16)

    @given(
        st.integers(min_value=0, max_value=10**18),
        st.lists(st.integers(min_value=0, max_value=10**18), max_size=5),
        st.integers(min_value=0, max_value=10**18),
    )
    @settings(max_examples=50)
    def test_linearity(self, reward, payments, payout):
        acc = MevBlockAccounting(
            Amount(reward, 18), tuple(Amount(p, 18) for p in payments), Amount(payout, 18)
        )
        assert mev_net_builder_fee(acc).base_units == reward + sum(payments) - payout
