"""Address encoding, decoding and classification.

Supports Base58Check (P2PKH/P2SH/WIF detection), Bech32 v0 witness
programs per BIP-173, and structural mnemonic detection.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import NamedTuple

from .ripemd160 import ripemd160

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_BASE58_INDEX = {c: i for i, c in enumerate(BASE58_ALPHABET)}
# The two base58 digits of every value below 58**2, so that encoding takes
# one big-int division per two digits.
_BASE58_PAIRS = [high + low for high in BASE58_ALPHABET for low in BASE58_ALPHABET]

BECH32_CHARSET = "qpzry9x8gf2tvdw0s3jn54khce6mua7l"
_BECH32_INDEX = {c: i for i, c in enumerate(BECH32_CHARSET)}
_BECH32_GEN = [0x3B6A57B2, 0x26508E6D, 0x1EA119FA, 0x3D4233DD, 0x2A1462B3]


class AddressKind(Enum):
    P2PKH = "p2pkh"
    P2SH = "p2sh"
    BECH32 = "bech32"
    ACCOUNT_HEX = "account_hex"
    WIF_KEY = "wif_key"
    MNEMONIC = "mnemonic"


class _AddressFields(NamedTuple):
    kind: AddressKind
    text: str
    payload: bytes = b""


class Address(_AddressFields):
    """An immutable classified address. It compares and hashes on its kind
    and text only: the payload is what decoding found in the text."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Address) and self.kind is other.kind and self.text == other.text

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.kind, self.text))


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def dsha256(data: bytes) -> bytes:
    return sha256(sha256(data))


def hash160(data: bytes) -> bytes:
    """RIPEMD160(SHA256(data)) — the standard pubkey-to-address digest."""
    return ripemd160(sha256(data))


# --- Base58Check ---

def base58_encode(data: bytes) -> str:
    num = int.from_bytes(data, "big")
    out = []
    while num:
        num, rem = divmod(num, 3364)  # 58**2
        out.append(_BASE58_PAIRS[rem])
    # The leading pair may start with a zero digit, '1'; leading zero bytes
    # map to '1'.
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + "".join(reversed(out)).lstrip("1")


def base58_decode(text: str) -> bytes:
    num = 0
    for ch in text:
        if ch not in _BASE58_INDEX:
            raise ValueError("invalid base58 character %r" % ch)
        num = num * 58 + _BASE58_INDEX[ch]
    body = num.to_bytes((num.bit_length() + 7) // 8, "big")
    pad = len(text) - len(text.lstrip("1"))
    return b"\x00" * pad + body


def base58check_encode(version: int, payload: bytes) -> str:
    raw = bytes([version]) + payload
    return base58_encode(raw + dsha256(raw)[:4])


def base58check_decode(text: str) -> tuple[int, bytes]:
    raw = base58_decode(text)
    if len(raw) < 5:
        raise ValueError("base58check string too short")
    body, checksum = raw[:-4], raw[-4:]
    if dsha256(body)[:4] != checksum:
        raise ValueError("bad base58check checksum")
    return body[0], body[1:]


# --- Bech32 (BIP-173) ---

def _bech32_polymod(values):
    chk = 1
    for v in values:
        top = chk >> 25
        chk = ((chk & 0x1FFFFFF) << 5) ^ v
        for i in range(5):
            if (top >> i) & 1:
                chk ^= _BECH32_GEN[i]
    return chk


def _bech32_hrp_expand(hrp):
    return [ord(c) >> 5 for c in hrp] + [0] + [ord(c) & 31 for c in hrp]


def _bech32_create_checksum(hrp, data):
    values = _bech32_hrp_expand(hrp) + data
    polymod = _bech32_polymod(values + [0] * 6) ^ 1
    return [(polymod >> 5 * (5 - i)) & 31 for i in range(6)]


def _bech32_verify_checksum(hrp, data):
    return _bech32_polymod(_bech32_hrp_expand(hrp) + data) == 1


def _convertbits(data, frombits, tobits, pad=True):
    acc = 0
    bits = 0
    out = []
    maxv = (1 << tobits) - 1
    for value in data:
        if value < 0 or value >> frombits:
            raise ValueError("value out of range")
        acc = (acc << frombits) | value
        bits += frombits
        while bits >= tobits:
            bits -= tobits
            out.append((acc >> bits) & maxv)
    if pad:
        if bits:
            out.append((acc << (tobits - bits)) & maxv)
    elif bits >= frombits or ((acc << (tobits - bits)) & maxv):
        raise ValueError("invalid padding")
    return out


def bech32_encode_v0(program: bytes, hrp: str = "bc") -> str:
    data = [0] + _convertbits(program, 8, 5)
    return hrp + "1" + "".join(BECH32_CHARSET[d] for d in data + _bech32_create_checksum(hrp, data))


def bech32_decode(text: str) -> tuple[str, int, bytes]:
    """Returns (hrp, witness_version, program). Raises on malformed input."""
    if text.lower() != text and text.upper() != text:
        raise ValueError("mixed-case bech32 string")
    text = text.lower()
    pos = text.rfind("1")
    if pos < 1 or pos + 7 > len(text) or len(text) > 90:
        raise ValueError("invalid separator position")
    hrp, body = text[:pos], text[pos + 1:]
    data = []
    for ch in body:
        if ch not in _BECH32_INDEX:
            raise ValueError("invalid bech32 character %r" % ch)
        data.append(_BECH32_INDEX[ch])
    if not _bech32_verify_checksum(hrp, data):
        raise ValueError("bad bech32 checksum")
    payload = data[:-6]
    if not payload:
        raise ValueError("empty bech32 payload")
    version = payload[0]
    program = bytes(_convertbits(payload[1:], 5, 8, pad=False))
    return hrp, version, program


# --- classification ---

def _is_base58(text: str) -> bool:
    return bool(text) and all(c in _BASE58_INDEX for c in text)


def _looks_like_mnemonic(text: str) -> bool:
    # Structural BIP-39 shape: 12/18/24 lowercase words of 3-8 letters.
    # The full 2048-word list is not bundled; detection is shape-only.
    words = text.split()
    if len(words) not in (12, 18, 24):
        return False
    return all(w.isascii() and w.isalpha() and w.islower() and 3 <= len(w) <= 8 for w in words)


def _checked_payload(text: str, version: int) -> bytes:
    # Best-effort payload extraction; classification itself is structural
    # (prefix + length + alphabet), so a bad checksum yields an empty payload.
    try:
        got_version, payload = base58check_decode(text)
    except ValueError:
        return b""
    return payload if got_version == version else b""


def classify_address(text: str) -> Address | None:
    """Classify an address-like string; None when nothing matches.

    Matching is by prefix, length and alphabet; checksums are only used
    to populate the decoded payload when they verify.
    """
    if not text:
        raise ValueError("empty string")
    if _looks_like_mnemonic(text):
        return Address(AddressKind.MNEMONIC, text)
    if text.lower().startswith("0x") and len(text) == 42:
        try:
            payload = bytes.fromhex(text[2:])
        except ValueError:
            return None
        return Address(AddressKind.ACCOUNT_HEX, text, payload)
    if text.lower().startswith("bc1"):
        body = text[3:].lower()
        if 6 <= len(body) <= 87 and all(c in _BECH32_INDEX for c in body):
            try:
                _, _, program = bech32_decode(text)
            except ValueError:
                program = b""
            return Address(AddressKind.BECH32, text, program)
        return None
    if _is_base58(text):
        if text[0] == "1" and 26 <= len(text) <= 36:
            return Address(AddressKind.P2PKH, text, _checked_payload(text, 0x00))
        if text[0] == "3" and 26 <= len(text) <= 36:
            return Address(AddressKind.P2SH, text, _checked_payload(text, 0x05))
        if text[0] in "KL5" and len(text) in (51, 52):
            return Address(AddressKind.WIF_KEY, text, _checked_payload(text, 0x80))
    return None


# --- derivation ---

class Scheme(Enum):
    BASE58CHECK_P2PKH = "base58check-p2pkh"
    BECH32_V0 = "bech32-v0"


def derive_address(pubkey_hash: bytes, scheme: Scheme) -> str:
    """Encode a 20-byte pubkey hash as an address under the given scheme."""
    if len(pubkey_hash) != 20:
        raise ValueError("pubkey hash must be exactly 20 bytes, got %d" % len(pubkey_hash))
    if scheme is Scheme.BASE58CHECK_P2PKH:
        return base58check_encode(0x00, pubkey_hash)
    if scheme is Scheme.BECH32_V0:
        return bech32_encode_v0(pubkey_hash)
    raise ValueError("unsupported scheme %r" % scheme)


def address_from_pubkey(pubkey: bytes, scheme: Scheme = Scheme.BASE58CHECK_P2PKH) -> Address:
    """Derive the address owned by a public key (hash160 then encode)."""
    digest = hash160(pubkey)
    text = derive_address(digest, scheme)
    kind = AddressKind.P2PKH if scheme is Scheme.BASE58CHECK_P2PKH else AddressKind.BECH32
    return Address(kind, text, digest)
