"""Block headers and toy proof-of-work."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .addresses import dsha256

MAX_TARGET = 2**256 - 1


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


def pow_hash_value(header: BlockHeader) -> int:
    """Header hash as a big-endian 256-bit integer (compared to the target)."""
    return int.from_bytes(dsha256(header.serialize()), "big")


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

