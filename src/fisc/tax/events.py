"""Normalized chain events and their line-delimited file format.

Event files start with asset declarations fixing per-asset decimals,
followed by one `event` line per record; quantities are integer base
units and prices exact rationals.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from ..amounts import format_rational, parse_decimals, parse_rational
from ..lineformat import LineReader, pairs


class EventKind(Enum):
    PURCHASE = "purchase"
    MINING_REWARD = "mining_reward"
    POOL_PAYOUT = "pool_payout"
    STAKING_REWARD = "staking_reward"
    AIRDROP = "airdrop"
    FORK_RECEIPT = "fork_receipt"
    ICO_ALLOCATION = "ico_allocation"
    NFT_ROYALTY = "nft_royalty"
    LP_DEPOSIT = "lp_deposit"
    LP_WITHDRAWAL = "lp_withdrawal"
    VAULT_LIQUIDATION = "vault_liquidation"
    MEV_PAYOUT = "mev_payout"
    SALE = "sale"
    SWAP = "swap"
    SPEND = "spend"
    GIFT = "gift"
    SELF_TRANSFER = "self_transfer"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality and keeps `kind in SET` tests out of Python code.
    __hash__ = object.__hash__


_KINDS = {kind.value: kind for kind in EventKind}

ACQUISITION_KINDS = {
    EventKind.PURCHASE,
    EventKind.MINING_REWARD,
    EventKind.POOL_PAYOUT,
    EventKind.STAKING_REWARD,
    EventKind.AIRDROP,
    EventKind.FORK_RECEIPT,
    EventKind.ICO_ALLOCATION,
    EventKind.NFT_ROYALTY,
    EventKind.MEV_PAYOUT,
}

DISPOSAL_KINDS = {
    EventKind.SALE,
    EventKind.SWAP,
    EventKind.SPEND,
    EventKind.GIFT,
    EventKind.VAULT_LIQUIDATION,
}


class _EventFields(NamedTuple):
    seq: int
    timestamp: int  # unix seconds, UTC
    kind: EventKind
    asset: str
    quantity: int  # base units; positive except fee-only self transfers
    fmv_unit: Fraction  # reference-currency price per whole asset unit
    counterparty_address: str | None = None
    specid_lot: tuple[int, ...] | None = None
    metadata: dict[str, str] | None = None


class ChainEventRecord(_EventFields):
    """One event: an immutable tuple whose equality includes `metadata`,
    which defaults to a fresh empty dict."""

    __slots__ = ()

    def __new__(cls, seq, timestamp, kind, asset, quantity, fmv_unit,
                counterparty_address=None, specid_lot=None, metadata=None):
        check_quantity(quantity, kind)
        return tuple.__new__(cls, (seq, timestamp, kind, asset, quantity, fmv_unit,
                                   counterparty_address, specid_lot,
                                   {} if metadata is None else metadata))


def check_quantity(quantity: int, kind: EventKind) -> None:
    """Refuse a quantity no event may carry: a negative one, or 0 in any
    event but a fee-only self transfer."""
    if quantity < 0:
        raise ValueError("quantity must be non-negative")
    if quantity == 0 and kind is not EventKind.SELF_TRANSFER:
        raise ValueError("quantity must be positive for %s" % kind.value)


# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the ends of datetime's range.
MIN_TIMESTAMP, MAX_TIMESTAMP = -62_135_596_800, 253_402_300_799


def check_timestamp(stamp: int, text: str | None = None) -> int:
    """`stamp`, if it lies in the years 1 to 9999 UTC; else a ValueError
    naming `text`, the stamp as written, by default the number."""
    if not MIN_TIMESTAMP <= stamp <= MAX_TIMESTAMP:
        raise ValueError("timestamp %s is outside the years 1 to 9999 UTC"
                         % (stamp if text is None else text))
    return stamp


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# The ISO forms a `ts` may take, whole seconds only. fromisoformat alone
# takes more, such as an offset of 60 minutes, and more on some Python
# versions than on others.
_ISO_STAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:Z|[+-][0-9]{2}:[0-5][0-9])?)?")


def _parse_timestamp(text: str) -> int:
    """Unix seconds of ASCII `-?[0-9]+` or of `YYYY-MM-DD[THH:MM:SS[Z|±HH:MM]]`
    (UTC without an offset), within the years 1 to 9999 UTC."""
    if text.isascii() and (text.isdigit() or (text[:1] == "-" and text[1:].isdigit())):
        stamp = int(text)
    elif _ISO_STAMP.fullmatch(text) is None:
        raise ValueError("not a timestamp: %r" % text)
    else:
        try:
            moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise ValueError("not a timestamp: %r" % text) from None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        since = moment - _EPOCH  # whole seconds: no float timestamp() needed
        stamp = since.days * 86400 + since.seconds
    return check_timestamp(stamp, text)


def check_asset_id(asset: str) -> str:
    """`asset`, if it holds neither ',' nor '"', which would split a ledger row."""
    if "," in asset or '"' in asset:
        raise ValueError("asset id %s holds ',' or '\"'" % asset)
    return asset


def parse_fmv(text: str) -> Fraction:
    """A price per whole unit: an exact rational >= 0."""
    value = parse_rational(text)
    if value.numerator < 0:  # the sign, without a slow Fraction comparison
        raise ValueError("fmv must be non-negative, got %s" % text)
    return value


class _Prices(dict):
    """Price text -> parse_fmv(text), parsed once per distinct text in a file."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = parse_fmv(text)
        return value


def parse_event_file(text: str) -> tuple[dict[str, int], list[ChainEventRecord]]:
    """Parse an event file into (asset decimals, ordered records). Each
    record is built as a plain tuple once it has passed ChainEventRecord's
    checks, made here in the order its construction makes them."""
    decimals: dict[str, int] = {}
    records: list[ChainEventRecord] = []
    prices = _Prices()
    new = tuple.__new__
    with LineReader(text) as lines:
        for fields in lines:
            tag = fields[0]
            if tag == "asset":
                if len(fields) != 3:
                    raise ValueError("asset lines are 'asset <id> <decimals>'")
                decimals[check_asset_id(fields[1])] = parse_decimals(fields[2])
                continue
            if tag != "event":
                raise ValueError("unknown line tag %r" % tag)
            kv = pairs(fields[1:])
            # An unknown kind falls through to EventKind(), which raises.
            kind = _KINDS.get(kv["kind"]) or EventKind(kv["kind"])
            asset = kv["asset"]
            if asset not in decimals:
                raise ValueError("asset %r not declared" % asset)
            meta = {}
            if len(kv) > 6:  # more than seq, ts, kind, asset, qty and fmv
                for key in kv:
                    if key[:5] == "meta.":
                        meta[key[5:]] = kv[key]
            seq, stamp, qty = int(kv["seq"]), _parse_timestamp(kv["ts"]), int(kv["qty"])
            fmv = prices[kv["fmv"]]
            specid = tuple(map(int, kv["specid"].split(","))) if "specid" in kv else None
            if qty <= 0:
                check_quantity(qty, kind)
            records.append(new(ChainEventRecord, (seq, stamp, kind, asset, qty, fmv,
                                                  kv.get("counterparty"), specid, meta)))
    return decimals, records


def serialize_event_file(decimals: dict[str, int], records, prices: dict | None = None) -> str:
    """The text of an event file: an `asset` line per entry of `decimals`,
    then an `event` line per record, a ChainEventRecord or a plain tuple of
    its fields. A file written in chunks is this text of each chunk, with
    `decimals` given to the first and one `prices` dict to all of them, so
    that each distinct price is rendered once."""
    lines = ["asset %s %d" % (asset, d) for asset, d in sorted(decimals.items())]
    if prices is None:
        prices = {}  # (numerator, denominator) -> text; ints hash fast
    form = kind0 = asset0 = fmv0 = None
    for seq, stamp, kind, asset, qty, fmv, counterparty, specid, metadata in records:
        # The constant part of a line, joined once per run of one kind, asset and price.
        if kind is not kind0 or fmv is not fmv0 or asset != asset0:
            kind0, asset0, fmv0 = kind, asset, fmv
            key = fmv.numerator, fmv.denominator
            form = "event seq=%%d ts=%%d kind=%s asset=%s qty=%%d fmv=%s" % (
                kind._value_, asset.replace("%", "%%"),
                prices.get(key) or prices.setdefault(key, format_rational(fmv)))
        line = form % (seq, stamp, qty)
        if counterparty:
            line += " counterparty=%s" % counterparty
        if specid:
            line += " specid=" + ",".join(map(str, specid))
        for name in sorted(metadata):
            line += " meta.%s=%s" % (name, metadata[name])
        lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""
