import hashlib
import importlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fisc.ripemd160
from fisc.addresses import (
    BASE58_ALPHABET,
    Address,
    AddressKind,
    Scheme,
    base58_decode,
    base58_encode,
    base58check_decode,
    base58check_encode,
    bech32_decode,
    bech32_encode_v0,
    classify_address,
    derive_address,
    hash160,
)
from fisc.ripemd160 import ripemd160, ripemd160_pure

# Widely published sample: compressed pubkey -> hash160.
SAMPLE_PUBKEY = bytes.fromhex(
    "0250863AD64A87AE8A2FE83C1AF1A8403CB53F53E486D8511DAD8A04887E5B2352"
)
SAMPLE_HASH160 = "f54a5851e9372b87810a8e60cdd2e7cfd80b6e31"


# Official RIPEMD-160 test vectors.
@pytest.mark.parametrize(
    "message,digest",
    [
        (b"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"),
        (b"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"),
        (b"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"),
        (b"abcdefghijklmnopqrstuvwxyz", "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"),
        (b"a" * 1000, "aa69deee9a8922e92f8105e007f76110f381e9cf"),
    ],
)
def test_ripemd160_vectors(message, digest):
    assert ripemd160(message).hex() == digest
    assert ripemd160_pure(message).hex() == digest


# 55/56 and 119/120 bytes are where the padding spills into one more block;
# 63/64 is a block edge.
@pytest.mark.skipif(not fisc.ripemd160._HASHLIB_RIPEMD160,
                    reason="hashlib lacks ripemd160 (OpenSSL without the legacy provider)")
@given(st.binary(min_size=0, max_size=300))
@example(b"\x00" * 55)
@example(b"\xff" * 56)
@example(b"a" * 63)
@example(b"a" * 64)
@example(b"\x80" * 119)
@example(b"\x01" * 120)
def test_ripemd160_pure_matches_hashlib(data):
    assert ripemd160_pure(data) == hashlib.new("ripemd160", data).digest()


def test_fallback_selected_without_hashlib_ripemd160(monkeypatch):
    real_new = hashlib.new

    def new(name, *args, **kwargs):
        if name.lower() == "ripemd160":
            raise ValueError("unsupported hash type " + name)
        return real_new(name, *args, **kwargs)

    selected = fisc.ripemd160._HASHLIB_RIPEMD160
    try:
        with monkeypatch.context() as patch:
            patch.setattr(hashlib, "new", new)
            importlib.reload(fisc.ripemd160)
            assert not fisc.ripemd160._HASHLIB_RIPEMD160
            # fisc.addresses keeps the function bound at its import; the
            # reload re-ran the selection in that function's globals, and
            # the patched hashlib.new would raise if it were still used.
            assert hash160(SAMPLE_PUBKEY).hex() == SAMPLE_HASH160
            assert fisc.ripemd160.ripemd160(b"abc").hex() == (
                "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"
            )
    finally:
        importlib.reload(fisc.ripemd160)
    assert fisc.ripemd160._HASHLIB_RIPEMD160 == selected


def test_hash160_known_pubkey():
    assert hash160(SAMPLE_PUBKEY).hex() == SAMPLE_HASH160


class TestClassify:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("1KfVFNTxkknugXhA9uYkohMWxG8f78nyax", AddressKind.P2PKH),
            ("bc1q9jayxqvah5gynukddmms7jc9xwjc0c6emulpp", AddressKind.BECH32),
            ("Kx4cBkAHgD9CrYNhTM12P5cNgVfwTeG5nN2R4KxcZjPPLx7DfrEr", AddressKind.WIF_KEY),
            ("3FGs7JfaoAZTT6Sda73XrJ6i5Gwsuw9GUC", AddressKind.P2SH),
        ],
    )
    def test_known_samples(self, text, kind):
        address = classify_address(text)
        assert address is not None and address.kind is kind

    def test_non_address_text(self):
        assert classify_address("hello world") is None

    def test_empty_string_is_an_error(self):
        with pytest.raises(ValueError):
            classify_address("")

    def test_mnemonic_word_counts(self):
        words12 = " ".join(["abandon"] * 11 + ["about"])
        assert classify_address(words12).kind is AddressKind.MNEMONIC
        words13 = " ".join(["abandon"] * 13)
        assert classify_address(words13) is None

    def test_account_hex(self):
        addr = classify_address("0x" + "ab" * 20)
        assert addr.kind is AddressKind.ACCOUNT_HEX
        assert addr.payload == bytes.fromhex("ab" * 20)


class TestDerive:
    def test_zero_payload_base58check(self):
        # Independent-oracle value for version 0x00 + 20 zero bytes.
        assert derive_address(bytes(20), Scheme.BASE58CHECK_P2PKH) == (
            "1111111111111111111114oLvT2"
        )

    def test_bech32_reference_vector(self):
        # BIP-173 P2WPKH example program.
        program = bytes.fromhex("751e76e8199196d454941c45d1b3a323f1433bd6")
        assert bech32_encode_v0(program) == "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4"

    def test_deterministic(self):
        payload = bytes(range(20))
        assert derive_address(payload, Scheme.BECH32_V0) == derive_address(
            payload, Scheme.BECH32_V0
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            derive_address(b"\x00" * 19, Scheme.BASE58CHECK_P2PKH)

    @pytest.mark.parametrize("scheme", [Scheme.BASE58CHECK_P2PKH, Scheme.BECH32_V0])
    def test_roundtrip_random_payloads(self, scheme):
        import random

        rng = random.Random(1234)
        expected_kind = (
            AddressKind.P2PKH if scheme is Scheme.BASE58CHECK_P2PKH else AddressKind.BECH32
        )
        for _ in range(10):
            payload = bytes(rng.randrange(256) for _ in range(20))
            text = derive_address(payload, scheme)
            address = classify_address(text)
            assert address.kind is expected_kind
            assert address.payload == payload


def test_base58check_roundtrip():
    version, payload = base58check_decode(base58check_encode(0x05, bytes(range(20))))
    assert version == 0x05 and payload == bytes(range(20))


def base58_digitwise(data: bytes) -> str:
    """Base58 at one digit per division: the reference for base58_encode."""
    num, digits = int.from_bytes(data, "big"), ""
    while num:
        num, rem = divmod(num, 58)
        digits = BASE58_ALPHABET[rem] + digits
    return "1" * (len(data) - len(data.lstrip(b"\x00"))) + digits


@given(st.integers(0, 4), st.binary(max_size=40))
@example(4, b"")
@example(0, b"\x39")  # 57: one digit, so the leading pair starts with '1'
@example(1, b"\x3a")  # 58: two digits, the second '1'
def test_base58_encode_matches_one_digit_per_division(zeros, payload):
    data = b"\x00" * zeros + payload
    text = base58_encode(data)
    assert text == base58_digitwise(data)
    assert base58_decode(text) == data


def test_address_compares_and_hashes_on_kind_and_text():
    address = Address(AddressKind.P2PKH, "1x", b"\x01")
    assert address == Address(AddressKind.P2PKH, "1x")
    assert hash(address) == hash(Address(AddressKind.P2PKH, "1x", b"\x02"))
    assert address != Address(AddressKind.P2SH, "1x", b"\x01")
    assert address != tuple(address) and tuple(address) != address


def test_base58check_rejects_bad_checksum():
    text = base58check_encode(0x00, bytes(20))
    corrupted = text[:-1] + ("2" if text[-1] != "2" else "3")
    with pytest.raises(ValueError):
        base58check_decode(corrupted)


def test_bech32_rejects_corruption():
    text = bech32_encode_v0(bytes(20))
    bad = text[:-1] + ("p" if text[-1] != "p" else "q")
    with pytest.raises(ValueError):
        bech32_decode(bad)
