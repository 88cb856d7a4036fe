"""Signature checking.

The scheme is a deterministic hash-based mock, so scenario traces replay
byte-for-byte.
"""

from __future__ import annotations

import hashlib


class MockScheme:
    """Deterministic stand-in: sig = H(pubkey || message || tag).

    Not secret (anyone holding the pubkey can forge); sufficient for
    simulation and tests where only binding and tamper-evidence matter.
    """

    _TAG = b"fisc-mock-sig"

    def keypair(self, seed: bytes) -> tuple[bytes, bytes]:
        private = hashlib.sha256(b"priv" + seed).digest()
        return private, self.public_key(private)

    @staticmethod
    def public_key(private_key: bytes) -> bytes:
        return hashlib.sha256(b"pub" + private_key).digest()

    def sign(self, private_key: bytes, message: bytes) -> bytes:
        return hashlib.sha256(self.public_key(private_key) + message + self._TAG).digest()

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return signature == hashlib.sha256(public_key + message + self._TAG).digest()


DEFAULT_SCHEME = MockScheme()
