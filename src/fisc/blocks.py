"""Block headers, merkle roots, proof-of-work, pool shares and template assembly."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .addresses import dsha256

MAX_TARGET = 2**256 - 1
DEFAULT_WEIGHT_LIMIT = 4_000_000


def compact_from_target(target: int) -> int:
    """Encode a 256-bit target in Bitcoin's 4-byte compact (nBits) form."""
    if target < 0:
        raise ValueError("target must be non-negative")
    if target == 0:
        return 0
    size = (target.bit_length() + 7) // 8
    if size <= 3:
        mantissa = target << (8 * (3 - size))
    else:
        mantissa = target >> (8 * (size - 3))
    if mantissa & 0x800000:
        mantissa >>= 8
        size += 1
    return (size << 24) | mantissa


def target_from_compact(compact: int) -> int:
    size = compact >> 24
    mantissa = compact & 0x7FFFFF
    if size <= 3:
        return mantissa >> (8 * (3 - size))
    return mantissa << (8 * (size - 3))


@dataclass(frozen=True)
class BlockHeader:
    version: int
    prev_hash: bytes
    merkle_root: bytes
    time: int
    target: int
    nonce: int

    def __post_init__(self):
        if len(self.prev_hash) != 32 or len(self.merkle_root) != 32:
            raise ValueError("prev_hash and merkle_root must be 32 bytes")
        if not 0 <= self.target <= MAX_TARGET:
            raise ValueError("target out of 256-bit range")

    def serialize(self) -> bytes:
        """Fixed 80-byte layout: version, prev, merkle, time, nBits, nonce."""
        return (
            self.version.to_bytes(4, "little")
            + self.prev_hash
            + self.merkle_root
            + (self.time & 0xFFFFFFFF).to_bytes(4, "little")
            + compact_from_target(self.target).to_bytes(4, "little")
            + (self.nonce & 0xFFFFFFFF).to_bytes(4, "little")
        )


def compute_merkle_root(tx_ids: list[bytes]) -> bytes:
    """Pairwise double-SHA256 tree; odd levels duplicate the last node."""
    if not tx_ids:
        raise ValueError("merkle root of an empty list is undefined")
    for txid in tx_ids:
        if len(txid) != 32:
            raise ValueError("tx ids must be 32 bytes")
    level = list(tx_ids)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [dsha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def pow_hash_value(header: BlockHeader) -> int:
    """Header hash as a big-endian 256-bit integer (compared to the target)."""
    return int.from_bytes(dsha256(header.serialize()), "big")


def pool_share_valid(header: BlockHeader, network_target: int, k: Fraction | int) -> bool:
    """Share check against the relaxed k x target bound.

    k = 1 coincides with full proof-of-work; every full solution is a
    valid share for any k >= 1.
    """
    if Fraction(k) < 1:
        raise ValueError("share multiplier must be >= 1")
    bound = Fraction(network_target) * Fraction(k)
    return Fraction(pow_hash_value(header)) < bound


def verify_pow(header: BlockHeader) -> bool:
    """Check the hash against the target the header carries: its nBits
    decoded, as Bitcoin Core's CheckProofOfWork does, not `header.target`,
    which nBits may round down."""
    return pow_hash_value(header) < target_from_compact(compact_from_target(header.target))


def mine_nonce(header_prefix: BlockHeader, target: int, max_iters: int) -> int | None:
    """Smallest nonce in [0, max_iters) meeting the target, else None."""
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    candidate = replace(header_prefix, target=target)
    for nonce in range(max_iters):
        if verify_pow(replace(candidate, nonce=nonce)):
            return nonce
    return None


def build_block_template(
    mempool: list[tuple[bytes, int, int]],
    weight_limit: int = DEFAULT_WEIGHT_LIMIT,
) -> list[bytes]:
    """Greedy fee-per-weight selection of (txid, fee, weight) entries.

    Descending fee/weight, ties broken by lower txid; stops adding a tx
    when it would push total weight past the limit but keeps scanning so
    smaller transactions can still fit.
    """
    if weight_limit <= 0:
        raise ValueError("weight limit must be positive")
    for txid, fee, weight in mempool:
        if weight <= 0:
            raise ValueError("tx weight must be positive")
        if fee < 0:
            raise ValueError("tx fee must be non-negative")
    # fee/weight compared exactly via cross-multiplication order key.
    ranked = sorted(mempool, key=lambda t: (_ratio_key(t[1], t[2]), t[0]))
    chosen: list[bytes] = []
    total_weight = 0
    for txid, fee, weight in ranked:
        if total_weight + weight <= weight_limit:
            chosen.append(txid)
            total_weight += weight
    return chosen


def _ratio_key(fee: int, weight: int):
    return -Fraction(fee, weight)
