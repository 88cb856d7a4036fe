"""Normalized chain events and their line-delimited file format.

Event files start with asset declarations fixing per-asset decimals,
followed by one `event` line per record; quantities are integer base
units and prices exact rationals.
"""

from __future__ import annotations

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
        if quantity < 0:
            raise ValueError("quantity must be non-negative")
        if quantity == 0 and kind is not EventKind.SELF_TRANSFER:
            raise ValueError("quantity must be positive for %s" % kind.value)
        return tuple.__new__(cls, (seq, timestamp, kind, asset, quantity, fmv_unit,
                                   counterparty_address, specid_lot,
                                   {} if metadata is None else metadata))

    def date_str(self) -> str:
        # Four-digit years: strftime("%Y") may print year 1 as "1".
        return datetime.fromtimestamp(self.timestamp, tz=timezone.utc).date().isoformat()


# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, the ends of datetime's range.
MIN_TIMESTAMP, MAX_TIMESTAMP = -62_135_596_800, 253_402_300_799


def check_timestamp(stamp: int, text: str | None = None) -> int:
    """`stamp`, if it lies in the years 1 to 9999 UTC; else a ValueError
    naming `text`, the stamp as written, by default the number."""
    if not MIN_TIMESTAMP <= stamp <= MAX_TIMESTAMP:
        raise ValueError("timestamp %s is outside the years 1 to 9999 UTC"
                         % (stamp if text is None else text))
    return stamp


def _parse_timestamp(text: str) -> int:
    if text.isdigit() or (text.startswith("-") and text[1:].isdigit()):
        stamp = int(text)
    else:
        moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        stamp = int(moment.timestamp())
    return check_timestamp(stamp, text)


def check_asset_id(asset: str) -> str:
    """`asset`, if it holds neither ',' nor '"', which would split a ledger row."""
    if "," in asset or '"' in asset:
        raise ValueError("asset id %s holds ',' or '\"'" % asset)
    return asset


def parse_fmv(text: str) -> Fraction:
    """A price per whole unit: an exact rational >= 0."""
    value = parse_rational(text)
    if value < 0:
        raise ValueError("fmv must be non-negative, got %s" % text)
    return value


class _Prices(dict):
    """Price text -> parse_fmv(text), parsed once per distinct text in a file."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = parse_fmv(text)
        return value


def parse_event_file(text: str) -> tuple[dict[str, int], list[ChainEventRecord]]:
    """Parse an event file into (asset decimals, ordered records)."""
    decimals: dict[str, int] = {}
    records: list[ChainEventRecord] = []
    prices = _Prices()
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
            for key in kv:
                if key[:5] == "meta.":
                    meta[key[5:]] = kv[key]
            records.append(ChainEventRecord(
                int(kv["seq"]), _parse_timestamp(kv["ts"]), kind, asset, int(kv["qty"]),
                prices[kv["fmv"]], kv.get("counterparty"),
                tuple(int(x) for x in kv["specid"].split(",")) if "specid" in kv else None,
                meta,
            ))
    return decimals, records


def serialize_event(record: ChainEventRecord) -> str:
    return _event_line(record, format_rational(record.fmv_unit))


def _event_line(record: ChainEventRecord, fmv: str) -> str:
    line = "event seq=%d ts=%d kind=%s asset=%s qty=%d fmv=%s" % (
        record.seq, record.timestamp, record.kind.value, record.asset, record.quantity, fmv,
    )
    if record.counterparty_address:
        line += " counterparty=%s" % record.counterparty_address
    if record.specid_lot:
        line += " specid=" + ",".join(map(str, record.specid_lot))
    for key in sorted(record.metadata):
        line += " meta.%s=%s" % (key, record.metadata[key])
    return line


def serialize_event_file(decimals: dict[str, int], records: list[ChainEventRecord]) -> str:
    lines = ["asset %s %d" % (asset, d) for asset, d in sorted(decimals.items())]
    prices: dict[Fraction, str] = {}  # each distinct price rendered once
    for r in records:
        fmv = prices.get(r.fmv_unit) or prices.setdefault(r.fmv_unit, format_rational(r.fmv_unit))
        lines.append(_event_line(r, fmv))
    return "\n".join(lines) + "\n"
