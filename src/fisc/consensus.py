"""Closed-form mining and staking economics.

Subsidy schedule, difficulty retargeting, miner expectation, issuance
scaling, attestation scoring, penalties/slashing, and MEV block
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .amounts import SATOSHI_PER_BTC, Amount


@dataclass(frozen=True)
class RewardSchedule:
    initial_subsidy: Amount = Amount(50 * SATOSHI_PER_BTC)
    halving_interval_blocks: int = 210_000
    supply_cap: Amount = Amount(21_000_000 * SATOSHI_PER_BTC)

    def __post_init__(self):
        if self.halving_interval_blocks <= 0:
            raise ValueError("halving interval must be positive")
        if self.initial_subsidy.is_negative:
            raise ValueError("initial subsidy must be non-negative")


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


@dataclass(frozen=True)
class RetargetRule:
    window_blocks: int = 2016
    target_block_interval: int = 600
    clamp_factor: Fraction = Fraction(4)

    def __post_init__(self):
        if self.window_blocks <= 0 or self.target_block_interval <= 0:
            raise ValueError("window and interval must be positive")
        if self.clamp_factor < 1:
            raise ValueError("clamp factor must be >= 1")

    @property
    def expected_timespan(self) -> int:
        return self.window_blocks * self.target_block_interval


def retarget_difficulty(
    old_target: int, actual_timespan_seconds: int, rule: RetargetRule = RetargetRule()
) -> int:
    """Scale the target by actual/expected time, clamped to the rule's factor.

    A lower target means higher difficulty: fast blocks shrink the target.
    """
    if actual_timespan_seconds <= 0:
        raise ValueError("timespan must be positive")
    ratio = Fraction(actual_timespan_seconds, rule.expected_timespan)
    ratio = min(max(ratio, 1 / rule.clamp_factor), rule.clamp_factor)
    scaled = Fraction(old_target) * ratio
    return scaled.numerator // scaled.denominator


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


class ValidatorStatus(Enum):
    ACTIVE = "active"
    SLASHED = "slashed"


ETH_STAKE_WEI = 32 * 10**18


@dataclass(frozen=True)
class Validator:
    id: str
    stake: Amount = Amount(ETH_STAKE_WEI, 18)
    effective: bool = True
    status: ValidatorStatus = ValidatorStatus.ACTIVE

    def __post_init__(self):
        if self.stake.is_negative:
            raise ValueError("stake must be non-negative")


@dataclass(frozen=True)
class PosParams:
    inactivity_leak_epochs: int = 4
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


class SlashedValidatorError(Exception):
    pass


def apply_penalty_or_slash(
    v: Validator, event: DutyEvent, params: PosParams = PosParams()
) -> Validator:
    """Deduct the configured penalty, or slash and eject for equivocation.

    Missed head votes carry no penalty; a missed sync duty forfeits
    exactly the reward it would have earned.
    """
    if v.status is not ValidatorStatus.ACTIVE:
        raise SlashedValidatorError("validator %s is not active" % v.id)
    stake = v.stake.base_units
    if event is DutyEvent.MISSED_HEAD:
        return v
    if event is DutyEvent.MISSED_SOURCE:
        cut = (Fraction(stake) * params.missed_source_penalty).__floor__()
        return replace(v, stake=Amount(stake - cut, v.stake.decimals))
    if event is DutyEvent.MISSED_TARGET:
        cut = (Fraction(stake) * params.missed_target_penalty).__floor__()
        return replace(v, stake=Amount(stake - cut, v.stake.decimals))
    if event is DutyEvent.MISSED_SYNC:
        cut = (Fraction(stake) * params.sync_duty_reward).__floor__()
        return replace(v, stake=Amount(stake - cut, v.stake.decimals))
    if event in (DutyEvent.DOUBLE_PROPOSAL, DutyEvent.DOUBLE_VOTE):
        cut = (Fraction(stake) * params.slash_fraction).__floor__()
        return replace(
            v,
            stake=Amount(stake - cut, v.stake.decimals),
            status=ValidatorStatus.SLASHED,
            effective=False,
        )
    raise ValueError("unknown duty event %r" % event)


def inactivity_leak_active(epochs_since_finality: int, params: PosParams = PosParams()) -> bool:
    """The leak starts strictly after the configured epoch count."""
    if epochs_since_finality < 0:
        raise ValueError("epoch count must be non-negative")
    return epochs_since_finality > params.inactivity_leak_epochs


@dataclass(frozen=True)
class AttestationVote:
    correct_source: bool
    correct_target: bool
    correct_head: bool
    delay_slots: int

    def __post_init__(self):
        if self.delay_slots < 1:
            raise ValueError("inclusion delay is at least one slot")


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


@dataclass(frozen=True)
class MevBlockAccounting:
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
