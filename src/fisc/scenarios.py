"""Replay scenarios for the simulate subcommands.

Each runner parses a small line-based scenario file, replays it through
the relevant engine, and writes an event file the tax engine ingests and
the final state with `write(name, text)`, in chunks of CHUNK_LINES (from
`fisc.lineformat`) lines rendered as it replays, so a run holds little
more than its parsed scenario. A fault of a line, or a PoolError, is a
LineError at that line. Outside the LineReader blocks (the pool's steps,
the chain and validators replays, every runner's last writes) the one
refusal is a value past CPython's int->str digit limit, a LineError at
line 0; any other exception is a bug. An asset id, price or timestamp the
event parser would refuse is refused at its scenario line by the parser's
own checks, so `report` reads every event file `simulate` writes.

Each runner checks its lines with `lineformat.directive` against its
directive forms, as `attrib` does: a line with too few or too many tokens,
or with a key its directive does not take, is refused at its line, not
ignored. The validators replay keeps each stake as an int of wei, and a
swap reads its input as one Amount, without a Fraction.

Each runner imports its engine itself (`fisc.defi.pool` or
`fisc.consensus`): every `fisc` command is a new process that compiles
what it imports, and `report` and the other runners need none of them.
"""

from __future__ import annotations

from fractions import Fraction

from .amounts import Amount, parse_decimals, parse_rational
from .lineformat import CHUNK_LINES, LineError, LineReader, directive, directives
from .tax.events import (
    EventKind,
    check_asset_id,
    check_quantity,
    check_timestamp,
    parse_fmv,
    serialize_event_file,
)


class _Events:
    """The event file of a run: rows of ChainEventRecord's fields, numbered
    from 1, that serialize_event_file renders every CHUNK_LINES rows, with
    the asset lines in the first chunk."""

    def __init__(self, write, decimals: dict[str, int]):
        self.write, self.decimals, self.rows, self.prices = write, decimals, [], {}
        self.seq = 0

    def add(self, stamp: int, kind: EventKind, asset: str, qty: int, fmv: Fraction,
            metadata: dict[str, str]) -> None:
        if qty <= 0:
            check_quantity(qty, kind)
        self.seq += 1
        self.rows.append((self.seq, stamp, kind, asset, qty, fmv, None, None, metadata))
        if len(self.rows) == CHUNK_LINES:
            self.flush()

    def flush(self) -> None:
        """Write the rows held, perhaps none."""
        try:
            text = serialize_event_file(self.decimals, self.rows, self.prices)
        except ValueError as exc:  # past the int->str digit limit
            raise LineError(0, str(exc)) from exc
        self.write("events.fisc", text)
        self.decimals = {}
        self.rows.clear()


def _digits(n: int) -> str:
    """str(n); an int past CPython's int->str digit limit is a fault of the
    whole file."""
    try:
        return str(n)
    except ValueError as exc:
        raise LineError(0, str(exc)) from exc


# --- pool ---

_POOL_DIRECTIVES = directives(
    "pool reserve_x=... reserve_y=... fee=... decimals=... asset_x=... asset_y=...",
    "price x=... y=...", "time at=...", "deposit owner=... x=... y=...", "swap in=... dir=...",
    "withdraw owner=...")


def run_pool_scenario(text: str, write) -> None:
    """Replay swaps and LP operations against one constant-product pool."""
    from .defi.pool import LiquidityPool, LpPosition, PoolError

    pool: LiquidityPool | None = None
    decimals = 8
    asset_x, asset_y = "X", "Y"
    price_x, price_y = Fraction(1), Fraction(1)
    positions: dict[str, LpPosition] = {}
    events: _Events | None = None
    timestamp = 0

    def emit(kind: EventKind, asset: str, qty: int, fmv: Fraction, **meta: str):
        events.add(timestamp, kind, asset, qty, fmv, meta)

    lines = LineReader(text)
    for fields in lines:
        with lines:  # the line's own faults; the pool's calls come after the block
            tag = fields[0]
            if pool is None and tag != "pool":
                raise ValueError("pool must be declared first")
            _, kv = directive(fields, _POOL_DIRECTIVES)
            if tag == "pool":
                decimals = parse_decimals(kv.get("decimals", "8"))
                asset_x = check_asset_id(kv.get("asset_x", "X"))
                asset_y = check_asset_id(kv.get("asset_y", "Y"))
                args = (Amount.from_decimal_str(kv["reserve_x"], decimals).base_units,
                        Amount.from_decimal_str(kv["reserve_y"], decimals).base_units,
                        parse_rational(kv.get("fee", "3/1000")))
            elif tag == "price":
                price_x = parse_fmv(kv.get("x", "1"))
                price_y = parse_fmv(kv.get("y", "1"))
            elif tag == "time":
                timestamp = check_timestamp(int(kv["at"]))
            elif tag == "deposit":
                owner = kv["owner"]
                args = (owner, Amount.from_decimal_str(kv["x"], decimals).base_units,
                        Amount.from_decimal_str(kv["y"], decimals).base_units, price_x, price_y)
            elif tag == "swap":
                direction = kv.get("dir", "x2y")
                if direction not in ("x2y", "y2x"):
                    raise ValueError("dir must be x2y or y2x, got %r" % direction)
                x_to_y = direction == "x2y"
                amount_in = Amount.from_decimal_str(kv["in"], decimals).base_units
            else:  # withdraw
                owner = kv["owner"]
                if owner not in positions:
                    raise ValueError("owner %r has no open position" % owner)
        try:  # a PoolError is a refusal at this line; any other exception, a bug
            if tag == "pool":
                declared, pool = pool, LiquidityPool(*args)
                # The event file declares one asset pair, so one pool per scenario.
                if declared is not None:
                    raise PoolError("the pool is already declared")
                events = _Events(write, {asset_x: decimals, asset_y: decimals})
            elif tag == "deposit":
                position = pool.add_liquidity(*args)
                if owner in positions:  # a repeat deposit adds to the owner's units
                    position.lp_units += positions[owner].lp_units
                positions[owner] = position
                emit(EventKind.LP_DEPOSIT, asset_x, position.x_in, price_x, owner=owner)
                emit(EventKind.LP_DEPOSIT, asset_y, position.y_in, price_y, owner=owner)
            elif tag == "swap":
                out = pool.swap_exact_in(amount_in, x_to_y)
                sold = asset_x if x_to_y else asset_y
                bought = asset_y if x_to_y else asset_x
                emit(EventKind.SWAP, sold, amount_in, price_x if x_to_y else price_y)
                emit(EventKind.PURCHASE, bought, out, price_y if x_to_y else price_x)
            elif tag == "withdraw":
                x_out, y_out = pool.remove_liquidity(positions.pop(owner))
                if x_out:
                    emit(EventKind.LP_WITHDRAWAL, asset_x, x_out, price_x, owner=owner)
                if y_out:
                    emit(EventKind.LP_WITHDRAWAL, asset_y, y_out, price_y, owner=owner)
        except PoolError as exc:
            raise LineError(lines.line_no, str(exc)) from exc
    if pool is None:
        raise LineError(0, "scenario declares no pool")
    events.flush()
    write("state.txt", "reserve_x %s\nreserve_y %s\nproduct %s\ntotal_lp_units %s\n" % tuple(
        map(_digits, (pool.reserve_x, pool.reserve_y, pool.k, pool.total_lp_units))))


# --- chain ---

_CHAIN_DIRECTIVES = directives(
    "schedule initial=... interval=... decimals=...", "retarget window=... interval=...",
    "price fmv=...", "asset id=...", "mine start=... end=...")


def run_chain_scenario(text: str, write) -> None:
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
            tag, (_, kv) = fields[0], directive(fields, _CHAIN_DIRECTIVES)
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
            else:  # mine
                start, end = int(kv["start"]), int(kv["end"])
                if start < 0:
                    raise ValueError("height must be non-negative")
                mined.append((start, end))
                if start <= end and end > top:
                    top = end
                    check_timestamp(top * rule.target_block_interval)
    events = _Events(write, {asset: schedule.initial_subsidy.decimals})
    rows, kind, spacing = events.rows, EventKind.MINING_REWARD, rule.target_block_interval
    state: list[str] = []
    seq = 0
    for start, end in mined:
        for height in range(start, end + 1):
            if height == start or not height % schedule.halving_interval_blocks:
                subsidy = block_subsidy(height, schedule).base_units
                form = "height %%d subsidy %s\n" % _digits(subsidy)  # one per era
            seq += 1
            # The schedule refuses a negative subsidy, so this quantity is positive.
            if subsidy:
                rows.append((seq, height * spacing, kind, asset, subsidy, price, None, None,
                             {"height": str(height)}))
            state.append(form % height)
            if len(state) == CHUNK_LINES:
                events.flush()
                write("state.txt", "".join(state))
                state.clear()
    events.flush()
    # A replay of no height writes one blank line, as it always has.
    write("state.txt", "".join(state) if seq else "\n")


# --- validators ---

_VALIDATOR_DIRECTIVES = directives(
    "validator <id> stake=...", "price fmv=...", "duty <validator> <event>")


def run_validator_scenario(text: str, write) -> None:
    """Replay duty/penalty streams over a validator set, each stake an int
    of wei; a slashed validator's later duties are skipped, and a duty for
    a validator the file never declares is refused at its line."""
    from .consensus import DUTY_BY_TEXT, DutyEvent, PosParams, penalty_or_slash

    params = PosParams()
    price = Fraction(0)
    stakes: dict[str, int] = {}
    slashed: set[str] = set()
    duty_log: list[tuple[int, str, DutyEvent]] = []  # (line, validator, event)
    with LineReader(text) as lines:
        for fields in lines:
            tag, (args, kv) = fields[0], directive(fields, _VALIDATOR_DIRECTIVES)
            if tag == "validator":
                stake = Amount.from_decimal_str(kv.get("stake", "32"), 18).base_units
                if stake < 0:
                    raise ValueError("stake must be non-negative")
                if args[0] in stakes:
                    raise ValueError("validator %s is already declared" % args[0])
                stakes[args[0]] = stake
            elif tag == "price":
                price = parse_fmv(kv["fmv"])
            else:  # duty
                duty_log.append((lines.line_no, args[0],
                                 DUTY_BY_TEXT.get(args[1]) or DutyEvent(args[1])))
    events = _Events(write, {"ETH": 18})
    for index, (line_no, vid, duty) in enumerate(duty_log):
        if vid not in stakes:  # a duty may name a validator declared below it
            raise LineError(line_no, "duty for unknown validator %s" % vid)
        if vid in slashed:
            continue
        before = stakes[vid]
        stakes[vid], slashes = penalty_or_slash(before, duty, params)
        loss = before - stakes[vid]
        if slashes:
            slashed.add(vid)
        if loss:
            meta = {"validator": vid, "deduction": "1"}
            if slashes:
                meta["slashing"] = "1"
            events.add(index, EventKind.SPEND, "ETH", loss, price, meta)
    events.flush()
    state_lines = [
        "%s stake=%s status=%s" % (vid, _digits(stake), "slashed" if vid in slashed else "active")
        for vid, stake in sorted(stakes.items())
    ]
    write("state.txt", "\n".join(state_lines) + "\n")
