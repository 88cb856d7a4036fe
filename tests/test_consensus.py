import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisc.amounts import Amount, btc, eth
from fisc.blocks import BlockHeader, pool_share_valid, pow_hash_value
from fisc.consensus import (
    AttestationVote,
    DutyEvent,
    MevBlockAccounting,
    PosParams,
    RetargetRule,
    RewardSchedule,
    SlashedValidatorError,
    Validator,
    ValidatorStatus,
    apply_penalty_or_slash,
    attestation_score,
    block_subsidy,
    collision_time_years,
    era_count,
    inactivity_leak_active,
    mev_net_builder_fee,
    mining_expectation,
    pos_issuance_and_return,
    retarget_difficulty,
    total_issuance,
)


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


class TestRetarget:
    def test_on_schedule_is_identity(self):
        rule = RetargetRule()
        assert retarget_difficulty(10**60, rule.expected_timespan, rule) == 10**60

    def test_fast_blocks_shrink_target(self):
        rule = RetargetRule()
        new = retarget_difficulty(10**60, rule.expected_timespan // 2, rule)
        assert new == 10**60 // 2

    def test_clamped_at_factor_four(self):
        rule = RetargetRule()
        assert retarget_difficulty(10**60, rule.expected_timespan * 100, rule) == 4 * 10**60
        assert retarget_difficulty(10**60, 1, rule) == 10**60 // 4

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=50)
    def test_homogeneous_in_old_target(self, timespan):
        rule = RetargetRule()
        # Doubling the old target doubles the result up to truncation.
        one = retarget_difficulty(10**30, timespan, rule)
        two = retarget_difficulty(2 * 10**30, timespan, rule)
        assert abs(two - 2 * one) <= 1

    def test_nonpositive_timespan_rejected(self):
        with pytest.raises(ValueError):
            retarget_difficulty(10**60, 0)


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


class TestPoolShares:
    def make_header(self, nonce):
        return BlockHeader(2, b"\x01" * 32, b"\x02" * 32, 1_700_000_000, 2**240, nonce)

    def test_k_one_matches_full_pow(self):
        for nonce in range(200):
            header = self.make_header(nonce)
            full = pow_hash_value(header) < 2**240
            assert pool_share_valid(header, 2**240, 1) == full

    def test_every_solution_is_a_share(self):
        # Any header meeting the network target passes for k >= 1.
        for nonce in range(2000):
            header = self.make_header(nonce)
            if pow_hash_value(header) < 2**240:
                assert pool_share_valid(header, 2**240, 1600)

    def test_brute_force_count_matches(self):
        # Independent count of qualifying nonces at the relaxed bound.
        k = 1600
        bound = 2**240 * k
        expected = sum(
            1 for nonce in range(3000) if pow_hash_value(self.make_header(nonce)) < bound
        )
        got = sum(
            1
            for nonce in range(3000)
            if pool_share_valid(self.make_header(nonce), 2**240, k)
        )
        assert got == expected
        assert got > 0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            pool_share_valid(self.make_header(0), 2**240, Fraction(1, 2))


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
        v = Validator("v1")
        assert apply_penalty_or_slash(v, DutyEvent.MISSED_HEAD) == v

    def test_missed_source_deducts_configured_fraction(self):
        v = Validator("v1")
        after = apply_penalty_or_slash(v, DutyEvent.MISSED_SOURCE)
        expected_cut = 32 * 10**18 // 100_000
        assert v.stake.base_units - after.stake.base_units == expected_cut

    def test_missed_sync_forfeits_the_reward(self):
        params = PosParams()
        v = Validator("v1")
        after = apply_penalty_or_slash(v, DutyEvent.MISSED_SYNC, params)
        cut = v.stake.base_units - after.stake.base_units
        assert cut == math.floor(Fraction(v.stake.base_units) * params.sync_duty_reward)

    @pytest.mark.parametrize("event", [DutyEvent.DOUBLE_PROPOSAL, DutyEvent.DOUBLE_VOTE])
    def test_equivocation_slashes_and_ejects(self, event):
        v = Validator("v1")
        after = apply_penalty_or_slash(v, event)
        assert after.status is ValidatorStatus.SLASHED
        assert not after.effective
        assert after.stake.base_units == 32 * 10**18 - 10**18

    def test_slashed_validator_is_done(self):
        v = Validator("v1", status=ValidatorStatus.SLASHED)
        with pytest.raises(SlashedValidatorError):
            apply_penalty_or_slash(v, DutyEvent.MISSED_SOURCE)

    def test_inactivity_leak_strictly_after_four(self):
        assert not inactivity_leak_active(4)
        assert inactivity_leak_active(5)
        with pytest.raises(ValueError):
            inactivity_leak_active(-1)


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
