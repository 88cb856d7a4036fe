"""Replay scenarios for the simulate subcommands.

Each runner parses a small line-based scenario file, replays it through
the relevant engine, and returns the text of an event file the tax engine
ingests and of the final state. Replay and rendering run inside the
LineReader block, so a fault there, such as a value past CPython's int->str
digit limit, is a LineError at line 0. An asset id, price or timestamp the
event parser would refuse is refused at its scenario line by the parser's
own checks, so `report` reads every event file `simulate` writes.

Each runner imports its engine itself (`fisc.defi.pool` or
`fisc.consensus`): every `fisc` command is a new process that compiles
what it imports, and `report` and the other runners need none of them.
"""

from __future__ import annotations

from fractions import Fraction

from .amounts import Amount, parse_decimals, parse_rational
from .lineformat import LineError, LineReader, pairs
from .tax.events import (
    ChainEventRecord,
    EventKind,
    check_asset_id,
    check_timestamp,
    parse_fmv,
    serialize_event_file,
)


# --- pool ---


def run_pool_scenario(text: str) -> tuple[str, str]:
    """Replay swaps and LP operations against one constant-product pool."""
    from .defi.pool import LiquidityPool, LpPosition

    pool: LiquidityPool | None = None
    decimals = 8
    asset_x, asset_y = "X", "Y"
    price_x, price_y = Fraction(1), Fraction(1)
    positions: dict[str, LpPosition] = {}
    events: list[ChainEventRecord] = []
    timestamp = 0

    def emit(kind: EventKind, asset: str, qty: int, fmv: Fraction, **meta: str):
        events.append(
            ChainEventRecord(len(events) + 1, timestamp, kind, asset, qty, fmv, metadata=meta)
        )

    with LineReader(text) as lines:
        for fields in lines:
            tag, kv = fields[0], pairs(fields[1:])
            if tag == "pool":
                decimals = parse_decimals(kv.get("decimals", "8"))
                asset_x = check_asset_id(kv.get("asset_x", "X"))
                asset_y = check_asset_id(kv.get("asset_y", "Y"))
                declared = pool
                pool = LiquidityPool(
                    Amount.from_decimal_str(kv["reserve_x"], decimals).base_units,
                    Amount.from_decimal_str(kv["reserve_y"], decimals).base_units,
                    parse_rational(kv.get("fee", "3/1000")),
                )
                # The event file declares one asset pair, so one pool per scenario.
                if declared is not None:
                    raise ValueError("the pool is already declared")
            elif pool is None:
                raise ValueError("pool must be declared first")
            elif tag == "price":
                price_x = parse_fmv(kv.get("x", "1"))
                price_y = parse_fmv(kv.get("y", "1"))
            elif tag == "time":
                timestamp = check_timestamp(int(kv["at"]))
            elif tag == "deposit":
                owner = kv["owner"]
                position = pool.add_liquidity(
                    owner,
                    Amount.from_decimal_str(kv["x"], decimals).base_units,
                    Amount.from_decimal_str(kv["y"], decimals).base_units,
                    price_x, price_y,
                )
                if owner in positions:  # a repeat deposit adds to the owner's units
                    position.lp_units += positions[owner].lp_units
                positions[owner] = position
                emit(EventKind.LP_DEPOSIT, asset_x, position.x_in, price_x, owner=owner)
                emit(EventKind.LP_DEPOSIT, asset_y, position.y_in, price_y, owner=owner)
            elif tag == "swap":
                direction = kv.get("dir", "x2y")
                if direction not in ("x2y", "y2x"):
                    raise ValueError("dir must be x2y or y2x, got %r" % direction)
                x_to_y = direction == "x2y"
                amount_in = Amount.from_decimal_str(kv["in"], decimals).base_units
                out = pool.swap_exact_in(amount_in, x_to_y)
                sold = asset_x if x_to_y else asset_y
                bought = asset_y if x_to_y else asset_x
                emit(EventKind.SWAP, sold, amount_in, price_x if x_to_y else price_y)
                emit(EventKind.PURCHASE, bought, out, price_y if x_to_y else price_x)
            elif tag == "withdraw":
                owner = kv["owner"]
                if owner not in positions:
                    raise ValueError("owner %r has no open position" % owner)
                x_out, y_out = pool.remove_liquidity(positions.pop(owner))
                if x_out:
                    emit(EventKind.LP_WITHDRAWAL, asset_x, x_out, price_x, owner=owner)
                if y_out:
                    emit(EventKind.LP_WITHDRAWAL, asset_y, y_out, price_y, owner=owner)
            else:
                raise ValueError("unknown directive %r" % tag)
        if pool is None:
            raise LineError(0, "scenario declares no pool")
        state = (
            "reserve_x %d\nreserve_y %d\nproduct %d\ntotal_lp_units %d\n"
            % (pool.reserve_x, pool.reserve_y, pool.k, pool.total_lp_units)
        )
        return serialize_event_file({asset_x: decimals, asset_y: decimals}, events), state


# --- chain ---


def run_chain_scenario(text: str) -> tuple[str, str]:
    """Replay block heights through the subsidy schedule as mining income.

    A height past the last halving earns no subsidy and so no income event.
    Height h is stamped h times the retarget interval, so each `mine` and
    `retarget` line checks the stamp of the highest height mined so far.
    """
    from .consensus import RetargetRule, RewardSchedule, block_subsidy

    schedule = RewardSchedule()
    rule = RetargetRule()
    price = Fraction(0)
    mined: list[tuple[int, int]] = []
    top = 0  # the highest height mined
    asset = "BTC"
    with LineReader(text) as lines:
        for fields in lines:
            tag, kv = fields[0], pairs(fields[1:])
            if tag == "schedule":
                decimals = parse_decimals(kv.get("decimals", "8"))
                schedule = RewardSchedule(
                    initial_subsidy=Amount.from_decimal_str(kv.get("initial", "50"), decimals),
                    halving_interval_blocks=int(kv.get("interval", "210000")),
                )
            elif tag == "retarget":
                rule = RetargetRule(
                    window_blocks=int(kv.get("window", "2016")),
                    target_block_interval=int(kv.get("interval", "600")),
                )
                check_timestamp(top * rule.target_block_interval)
            elif tag == "price":
                price = parse_fmv(kv["fmv"])
            elif tag == "asset":
                asset = check_asset_id(kv["id"])
            elif tag == "mine":
                start, end = int(kv["start"]), int(kv["end"])
                if start < 0:
                    raise ValueError("height must be non-negative")
                mined.append((start, end))
                if start <= end and end > top:
                    top = end
                    check_timestamp(top * rule.target_block_interval)
            else:
                raise ValueError("unknown directive %r" % tag)
        decimals = schedule.initial_subsidy.decimals
        events = []
        state_lines = []
        seq = 0
        for start, end in mined:
            for height in range(start, end + 1):
                if height == start or not height % schedule.halving_interval_blocks:
                    subsidy = block_subsidy(height, schedule).base_units
                seq += 1
                if subsidy:
                    events.append(ChainEventRecord(
                        seq, height * rule.target_block_interval, EventKind.MINING_REWARD,
                        asset, subsidy, price, metadata={"height": str(height)}))
                state_lines.append("height %d subsidy %d" % (height, subsidy))
        return serialize_event_file({asset: decimals}, events), "\n".join(state_lines) + "\n"


# --- validators ---


def run_validator_scenario(text: str) -> tuple[str, str]:
    """Replay duty/penalty streams over a validator set."""
    from .consensus import (
        DUTY_BY_TEXT,
        DutyEvent,
        PosParams,
        SlashedValidatorError,
        Validator,
        ValidatorStatus,
        apply_penalty_or_slash,
    )

    params = PosParams()
    price = Fraction(0)
    validators: dict[str, Validator] = {}
    duty_log: list[tuple[str, DutyEvent]] = []
    with LineReader(text) as lines:
        for fields in lines:
            tag = fields[0]
            if tag == "validator":
                vid, kv = fields[1], pairs(fields[2:])
                validator = Validator(vid, Amount.from_decimal_str(kv.get("stake", "32"), 18))
                if validators.setdefault(vid, validator) is not validator:
                    raise ValueError("validator %s is already declared" % vid)
            elif tag == "price":
                price = parse_fmv(pairs(fields[1:])["fmv"])
            elif tag == "duty":
                duty_log.append((fields[1], DUTY_BY_TEXT.get(fields[2]) or DutyEvent(fields[2])))
            else:
                raise ValueError("unknown directive %r" % tag)
        events = []
        seq = 0
        for index, (vid, duty) in enumerate(duty_log):
            if vid not in validators:
                raise LineError(0, "duty for unknown validator %s" % vid)
            before = validators[vid]
            try:
                after = apply_penalty_or_slash(before, duty, params)
            except SlashedValidatorError:
                continue
            validators[vid] = after
            loss = before.stake.base_units - after.stake.base_units
            if loss:
                seq += 1
                meta = {"validator": vid, "deduction": "1"}
                if after.status is ValidatorStatus.SLASHED:
                    meta["slashing"] = "1"
                events.append(
                    ChainEventRecord(
                        seq, index, EventKind.SPEND, "ETH", loss, price, metadata=meta
                    )
                )
        state_lines = [
            "%s stake=%d status=%s" % (vid, v.stake.base_units, v.status.value)
            for vid, v in sorted(validators.items())
        ]
        return serialize_event_file({"ETH": 18}, events), "\n".join(state_lines) + "\n"
