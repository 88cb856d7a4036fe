"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns file text; the same
seed always gives byte-identical files. The program under test only ever
sees these files.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

# (asset, decimals, starting price in cents, base-unit size of a typical buy)
LEDGER_ASSETS = (
    ("BTC", 8, 3_000_000, 10**5),
    ("ETH", 18, 200_000, 10**15),
    ("SOL", 9, 10_000, 10**8),
    ("ADA", 6, 50, 10**7),
)
LEDGER_START = datetime(2018, 1, 1, tzinfo=timezone.utc)
LEDGER_SPAN_DAYS = 5 * 365
# Each asset's events come from a shuffled bag of 11 buys and 9 sales, so
# every seed has the same buy/sale mix. With sales of at most 2.5% of
# holdings this keeps roughly a hundred lots open per asset.
TRADE_BAG = (True,) * 11 + (False,) * 9
MAX_SALE_SHARE = 0.025


def _cents(value: int) -> str:
    return "%d.%02d" % divmod(value, 100)


def ledger_events(rng: random.Random, n_events: int) -> str:
    """A DCA-style portfolio: assets in turn, frequent small buys, sales of at most 2.5% of
    holdings, cent prices, and a valid `specid=` reference on every sale.

    Lot ids follow `LotStore`: one id per acquisition, counted across all
    assets. Each sale names open lots, in the order they are to be consumed,
    until they cover its quantity, so the file is valid under `--method specid`.
    """
    lines = ["asset %s %d" % (asset, decimals) for asset, decimals, _, _ in LEDGER_ASSETS]
    prices = {asset: price for asset, _, price, _ in LEDGER_ASSETS}
    buy_size = {asset: size for asset, _, _, size in LEDGER_ASSETS}
    open_lots: dict[str, list[list[int]]] = {asset: [] for asset, _, _, _ in LEDGER_ASSETS}
    bags: dict[str, list[bool]] = {asset: [] for asset in prices}
    step = LEDGER_SPAN_DAYS * 86_400 / n_events
    next_lot = 1
    for seq in range(1, n_events + 1):
        asset = LEDGER_ASSETS[seq % len(LEDGER_ASSETS)][0]
        prices[asset] = max(1, round(prices[asset] * (1 + rng.gauss(0, 0.02))))
        stamp = LEDGER_START + timedelta(seconds=int(seq * step + rng.random() * step / 2))
        head = "event seq=%d ts=%s" % (seq, stamp.strftime("%Y-%m-%dT%H:%M:%SZ"))
        lots = open_lots[asset]
        held = sum(remaining for _, remaining in lots)
        if not bags[asset]:
            bags[asset] = rng.sample(TRADE_BAG, len(TRADE_BAG))
        if bags[asset].pop() or held == 0:
            qty = rng.randint(buy_size[asset] // 2, buy_size[asset] * 3 // 2)
            lots.append([next_lot, qty])
            next_lot += 1
            lines.append("%s kind=purchase asset=%s qty=%d fmv=%s"
                         % (head, asset, qty, _cents(prices[asset])))
            continue
        qty = max(1, int(held * rng.uniform(0.002, MAX_SALE_SHARE)))
        picked = []
        rest = qty
        for index in rng.sample(range(len(lots)), len(lots)):
            if rest == 0:
                break
            lot = lots[index]
            take = min(lot[1], rest)
            lot[1] -= take
            rest -= take
            picked.append(lot[0])
        open_lots[asset] = [lot for lot in lots if lot[1]]
        lines.append("%s kind=sale asset=%s qty=%d fmv=%s specid=%s"
                     % (head, asset, qty, _cents(prices[asset]), ",".join(map(str, picked))))
    return "\n".join(lines) + "\n"


def attribution_scenario(rng: random.Random, jurisdictions: int, wallets: int,
                         transfers: int) -> str:
    """A mesh of authorities with a partial EOI matrix, slow and lossy links,
    some tampered registrations and transfers to unregistered addresses."""
    codes = ["J%02d" % i for i in range(jurisdictions)]
    lines = ["seed %d" % rng.randrange(1 << 30), "withholding standard=3/20 elevated=7/20"]
    lines += ["jurisdiction %s" % code for code in codes]
    for asker in codes:
        for responder in codes:
            if asker == responder:
                continue
            lines.append("eoi %s %s %s" % (asker, responder,
                                           "allow" if rng.random() < 0.7 else "deny"))
            if rng.random() < 0.1:
                lines.append("latency %s %s %d" % (asker, responder, rng.randint(2, 6)))
            if rng.random() < 0.05:
                lines.append("drop %s %s 1/%d" % (asker, responder, rng.choice((50, 20, 10))))
    registered = []
    for index in range(wallets):
        label = "w%05d" % index
        home = rng.choice(codes)
        lines.append("dsc %s T%05d h%05d" % (home, index, index))
        if rng.random() < 0.02:
            lines.append("register_tampered %s T%05d %s" % (home, index, label))
        else:
            lines.append("register %s T%05d %s" % (home, index, label))
            registered.append(label)
        if rng.random() < 0.3:
            lines.append("identity %s name=Holder%05d physical=Street%d" % (label, index, index))
    for _ in range(transfers):
        origin = rng.choice(registered)
        if rng.random() < 0.15:
            beneficiary = "u%05d" % rng.randrange(wallets)
        else:
            beneficiary = "w%05d" % rng.randrange(wallets)
        lines.append("transfer %s %s %d %d" % (origin, beneficiary,
                                               rng.randint(10**4, 10**9), rng.randint(4, 10)))
    return "\n".join(lines) + "\n"


def chain_scenario(rng: random.Random, blocks: int) -> str:
    """Mining income over a block range that crosses several halvings."""
    start = rng.randrange(1000)
    return "\n".join([
        "schedule initial=50 interval=%d" % rng.randint(blocks // 5, blocks // 3),
        "retarget window=2016 interval=600",
        "price fmv=%s" % _cents(rng.randint(100_000, 6_000_000)),
        "asset id=BTC",
        "mine start=%d end=%d" % (start, start + blocks - 1),
    ]) + "\n"


DUTIES = (("missed_source", 30), ("missed_target", 30), ("missed_head", 25),
          ("missed_sync", 15), ("double_proposal", 0.1), ("double_vote", 0.1))


def validator_scenario(rng: random.Random, validators: int, duties: int) -> str:
    """Penalty and slashing duties over a validator set."""
    lines = ["price fmv=%s" % _cents(rng.randint(50_000, 500_000))]
    lines += ["validator v%05d stake=%d" % (i, rng.choice((32, 32, 32, 64))) for i in range(validators)]
    names = [name for name, _ in DUTIES]
    weights = [weight for _, weight in DUTIES]
    for duty in rng.choices(names, weights, k=duties):
        lines.append("duty v%05d %s" % (rng.randrange(validators), duty))
    return "\n".join(lines) + "\n"


def pool_scenario(rng: random.Random, swaps: int) -> str:
    """Swaps in both directions around one LP deposit and withdrawal."""
    lines = [
        "pool reserve_x=100000 reserve_y=200000 fee=3/1000 decimals=8 asset_x=WBTC asset_y=USDC",
        "price x=2 y=1",
        "time at=1600000000",
        "deposit owner=lp1 x=10 y=20",
    ]
    for index in range(swaps):
        if index % 100 == 0:
            lines.append("time at=%d" % (1_600_000_000 + index * 12))
        lines.append("swap in=%d.%03d dir=%s" % (rng.randint(0, 4), rng.randint(1, 999),
                                                 rng.choice(("x2y", "y2x"))))
    lines.append("withdraw owner=lp1")
    return "\n".join(lines) + "\n"
