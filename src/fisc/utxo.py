"""UTXO set modeling, transaction validation and hard-fork duplication."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .addresses import Address, Scheme, address_from_pubkey
from .amounts import Amount
from .signatures import DEFAULT_SCHEME


class UtxoError(Exception):
    pass


class UnknownOutpoint(UtxoError):
    pass


class OwnerMismatch(UtxoError):
    pass


class Overspend(UtxoError):
    pass


class DuplicateInput(UtxoError):
    pass


class BadSignature(UtxoError):
    pass


Outpoint = tuple[bytes, int]  # (txid, output index)


@dataclass(frozen=True)
class Utxo:
    outpoint: Outpoint
    owner: Address
    value: Amount

    def __post_init__(self):
        if self.value.base_units <= 0:
            raise ValueError("UTXO value must be positive")


@dataclass(frozen=True)
class TxInput:
    outpoint: Outpoint
    pubkey: bytes
    signature: bytes = b""


@dataclass(frozen=True)
class UtxoTransaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[tuple[Address, Amount], ...]
    weight_units: int = 1

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("transaction needs at least one output")
        if self.weight_units <= 0:
            raise ValueError("weight must be positive")

    def sighash(self) -> bytes:
        """Canonical byte form signed by every input."""
        parts = []
        for txin in self.inputs:
            parts.append(txin.outpoint[0])
            parts.append(txin.outpoint[1].to_bytes(4, "little"))
        for addr, amount in self.outputs:
            parts.append(addr.text.encode())
            parts.append(amount.base_units.to_bytes(16, "little", signed=True))
        return b"".join(parts)


class UtxoSet:
    """Mutable outpoint-keyed UTXO map; single-writer by contract."""

    def __init__(self, utxos: list[Utxo] = ()):
        self._by_outpoint: dict[Outpoint, Utxo] = {}
        for u in utxos:
            self.add(u)

    def add(self, utxo: Utxo) -> None:
        if utxo.outpoint in self._by_outpoint:
            raise ValueError("duplicate outpoint %r" % (utxo.outpoint,))
        self._by_outpoint[utxo.outpoint] = utxo

    def get(self, outpoint: Outpoint) -> Utxo | None:
        return self._by_outpoint.get(outpoint)


def validate_utxo_tx(tx: UtxoTransaction, utxo_set: UtxoSet) -> Amount:
    """Validate a spend against the set and return the miner fee.

    fee = sum(inputs) - sum(outputs), exactly, in base units; a negative
    output is a UtxoError, and the Amount sums raise ValueError on mixed
    decimals. The set is not mutated.
    """
    if any(amount.is_negative for _, amount in tx.outputs):
        raise UtxoError("outputs must be non-negative")
    seen: set[Outpoint] = set()
    decimals = tx.outputs[0][1].decimals
    total_in = Amount(0, decimals)
    message = tx.sighash()
    for txin in tx.inputs:
        if txin.outpoint in seen:
            raise DuplicateInput("outpoint %r spent twice in one tx" % (txin.outpoint,))
        seen.add(txin.outpoint)
        utxo = utxo_set.get(txin.outpoint)
        if utxo is None:
            raise UnknownOutpoint("outpoint %r not in UTXO set" % (txin.outpoint,))
        derived = address_from_pubkey(txin.pubkey, Scheme.BASE58CHECK_P2PKH)
        if derived.text != utxo.owner.text:
            raise OwnerMismatch("signer key does not hash to %s" % utxo.owner.text)
        if not DEFAULT_SCHEME.verify(txin.pubkey, message, txin.signature):
            raise BadSignature("invalid signature for outpoint %r" % (txin.outpoint,))
        total_in += utxo.value
    total_out = sum((amount for _, amount in tx.outputs), Amount(0, decimals))
    if total_out > total_in:
        raise Overspend("outputs %d exceed inputs %d" % (total_out.base_units, total_in.base_units))
    return total_in - total_out


@dataclass(frozen=True)
class ForkSpec:
    fork_height: int
    parent_asset: str
    child_asset: str
    ratio: Fraction = Fraction(1)

    def __post_init__(self):
        if self.fork_height <= 0:
            raise ValueError("fork height must be positive")
        if self.ratio <= 0:
            raise ValueError("ratio must be positive")


def apply_hard_fork(holdings: dict[str, Amount], spec: ForkSpec) -> dict[str, Amount]:
    """Duplicate a pre-fork balance snapshot onto the child asset.

    Every holder receives ratio x balance of the child; parent balances
    are untouched (the snapshot is taken at fork_height - 1).
    """
    return {addr: amount.scale(spec.ratio) for addr, amount in holdings.items()}
