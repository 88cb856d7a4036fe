"""Closed-form mining and staking economics.

Subsidy schedule, block interval, miner expectation, issuance scaling,
attestation scoring, penalties/slashing, and MEV block accounting.

The value types are immutable tuples (`NamedTuple`s), each checked as it
is built, and the penalty rule works on an `int` stake, so that a
`simulate` process, which imports this module, loads no `dataclasses`
and its validators replay builds no object per duty.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .amounts import SATOSHI_PER_BTC, Amount


class _ScheduleFields(NamedTuple):
    initial_subsidy: Amount = Amount(50 * SATOSHI_PER_BTC)
    halving_interval_blocks: int = 210_000
    supply_cap: Amount = Amount(21_000_000 * SATOSHI_PER_BTC)


class RewardSchedule(_ScheduleFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        schedule = super().__new__(cls, *args, **kwargs)
        if schedule.halving_interval_blocks <= 0:
            raise ValueError("halving interval must be positive")
        if schedule.initial_subsidy.is_negative:
            raise ValueError("initial subsidy must be non-negative")
        return schedule


def block_subsidy(height: int, schedule: RewardSchedule = RewardSchedule()) -> Amount:
    """Subsidy at a height: initial halved once per elapsed era, truncated."""
    if height < 0:
        raise ValueError("height must be non-negative")
    era = height // schedule.halving_interval_blocks
    return Amount(schedule.initial_subsidy.base_units >> era, schedule.initial_subsidy.decimals)


def era_count(schedule: RewardSchedule = RewardSchedule()) -> int:
    """Number of eras with a nonzero subsidy."""
    return schedule.initial_subsidy.base_units.bit_length()


def total_issuance(schedule: RewardSchedule = RewardSchedule()) -> Amount:
    """Exact lifetime issuance: sum of per-era subsidy x interval."""
    total = 0
    subsidy = schedule.initial_subsidy.base_units
    while subsidy:
        total += subsidy * schedule.halving_interval_blocks
        subsidy >>= 1
    return Amount(total, schedule.initial_subsidy.decimals)


class _RetargetFields(NamedTuple):
    window_blocks: int = 2016
    target_block_interval: int = 600


class RetargetRule(_RetargetFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rule = super().__new__(cls, *args, **kwargs)
        if rule.window_blocks <= 0 or rule.target_block_interval <= 0:
            raise ValueError("window and interval must be positive")
        return rule


def mining_expectation(
    hash_share: Fraction | float, rule: RetargetRule = RetargetRule()
) -> tuple[Fraction, Fraction]:
    """(expected blocks until success, expected weeks) for a hash-rate share.

    The window mines in two weeks at equilibrium, so weeks = blocks
    / window x 2.
    """
    share = Fraction(hash_share)
    if not 0 < share <= 1:
        raise ValueError("hash share must be in (0, 1]")
    expected_blocks = 1 / share
    expected_weeks = expected_blocks / rule.window_blocks * 2
    return expected_blocks, expected_weeks


SECONDS_PER_YEAR = 365 * 86_400


def collision_time_years(hash_rate_per_second: int) -> float:
    """Expected years to brute-force a 2^128-work hash collision."""
    if hash_rate_per_second <= 0:
        raise ValueError("hash rate must be positive")
    return 2**128 / (hash_rate_per_second * SECONDS_PER_YEAR)


# --- proof of stake ---


class PosParams(NamedTuple):
    issuance_coefficient: Fraction = Fraction(1)
    return_coefficient: Fraction = Fraction(1)
    missed_source_penalty: Fraction = Fraction(1, 100_000)
    missed_target_penalty: Fraction = Fraction(1, 100_000)
    sync_duty_reward: Fraction = Fraction(1, 200_000)
    slash_fraction: Fraction = Fraction(1, 32)


def pos_issuance_and_return(
    validator_count: int, params: PosParams = PosParams()
) -> tuple[Fraction, Fraction]:
    """(annual issuance, per-validator return): c*sqrt(N) and c'/sqrt(N).

    Exact when N is a perfect square; otherwise sqrt(N) is kept symbolic
    by returning c * sqrt(N) computed with integer square-root pairs, so
    the 4x-scaling identities hold exactly for every N.
    """
    if validator_count < 1:
        raise ValueError("need at least one validator")
    root = _exact_sqrt(validator_count)
    return params.issuance_coefficient * root, params.return_coefficient / root


def _exact_sqrt(n: int) -> Fraction:
    """sqrt(n) as a Fraction: exact for squares, else a high-precision value
    computed so that sqrt(4n) = 2*sqrt(n) holds bit-for-bit."""
    # Factor out the largest square so scaling by 4 stays exact.
    square = 1
    remainder = n
    f = 2
    while f * f <= remainder:
        while remainder % (f * f) == 0:
            remainder //= f * f
            square *= f
        f += 1
    # remainder is square-free; fix its root at 128-bit precision.
    scale = 1 << 128
    approx = Fraction(math.isqrt(remainder * scale * scale), scale)
    return square * approx


class DutyEvent(Enum):
    MISSED_SOURCE = "missed_source"
    MISSED_TARGET = "missed_target"
    MISSED_HEAD = "missed_head"
    MISSED_SYNC = "missed_sync"
    DOUBLE_PROPOSAL = "double_proposal"
    DOUBLE_VOTE = "double_vote"


DUTY_BY_TEXT = {duty.value: duty for duty in DutyEvent}  # without Enum.__call__


def penalty_or_slash(
    stake: int, event: DutyEvent, params: PosParams = PosParams()
) -> tuple[int, bool]:
    """(stake left, whether the event slashes) for an active validator's
    duty event: the configured penalty is deducted, and equivocation
    slashes, which ejects the validator from every later duty.

    Missed head votes carry no penalty; a missed sync duty forfeits
    exactly the reward it would have earned.
    """
    if event is DutyEvent.MISSED_HEAD:
        return stake, False
    slashed = event is DutyEvent.DOUBLE_PROPOSAL or event is DutyEvent.DOUBLE_VOTE
    if slashed:
        rate = params.slash_fraction
    elif event is DutyEvent.MISSED_SOURCE:
        rate = params.missed_source_penalty
    elif event is DutyEvent.MISSED_TARGET:
        rate = params.missed_target_penalty
    elif event is DutyEvent.MISSED_SYNC:
        rate = params.sync_duty_reward
    else:
        raise ValueError("unknown duty event %r" % event)
    return stake - stake * rate.numerator // rate.denominator, slashed


class _VoteFields(NamedTuple):
    correct_source: bool
    correct_target: bool
    correct_head: bool
    delay_slots: int


class AttestationVote(_VoteFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        vote = super().__new__(cls, *args, **kwargs)
        if vote.delay_slots < 1:
            raise ValueError("inclusion delay is at least one slot")
        return vote


def attestation_score(vote: AttestationVote) -> frozenset[str]:
    """Rewarded vote components under the timeliness table.

    Source alone within 5 slots; source+target within 32; head only when
    source and target are also correct and inclusion is within 1 slot.
    """
    rewarded: set[str] = set()
    if vote.correct_source and vote.delay_slots <= 5:
        rewarded.add("source")
    if vote.correct_source and vote.correct_target and vote.delay_slots <= 32:
        rewarded.update(("source", "target"))
    if (
        vote.correct_source
        and vote.correct_target
        and vote.correct_head
        and vote.delay_slots <= 1
    ):
        rewarded.add("head")
    return frozenset(rewarded)


# --- MEV accounting ---


class MevBlockAccounting(NamedTuple):
    block_reward_to_builder: Amount
    searcher_payments: tuple[Amount, ...] = ()
    proposer_payout: Amount = Amount(0, 18)


def mev_net_builder_fee(acc: MevBlockAccounting) -> Amount:
    """Builder's net: block reward + searcher payments - proposer payout.

    Exact integer wei; negative when the builder discounts the block.
    """
    decimals = acc.block_reward_to_builder.decimals
    total = acc.block_reward_to_builder.base_units
    for payment in acc.searcher_payments:
        total += payment.base_units
    total -= acc.proposer_payout.base_units
    return Amount(total, decimals)
