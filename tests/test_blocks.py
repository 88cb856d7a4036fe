import random

from hypothesis import given
from hypothesis import strategies as st

from fisc.blocks import (
    BlockHeader,
    compact_from_target,
    mine_nonce,
    pow_hash_value,
    target_from_compact,
    verify_pow,
)


def header(target=2**256 - 1, nonce=0, prev=b"\x11" * 32, merkle=b"\x22" * 32):
    return BlockHeader(2, prev, merkle, 1_700_000_000, target, nonce)


class TestSerialization:
    def test_fixed_width(self):
        assert len(header().serialize()) == 80

    def test_compact_roundtrip_known(self):
        # The historical maximum target encoding.
        assert compact_from_target(0xFFFF * 2**208) == 0x1D00FFFF
        assert target_from_compact(0x1D00FFFF) == 0xFFFF * 2**208

    @given(st.integers(min_value=0, max_value=2**256 - 1))
    def test_compact_roundtrip_is_close(self, target):
        # nBits keeps 3 bytes of mantissa; round-tripping the decoded
        # value is exact.
        decoded = target_from_compact(compact_from_target(target))
        assert target_from_compact(compact_from_target(decoded)) == decoded


class TestPow:
    def test_max_target_always_true(self):
        assert verify_pow(header(target=2**256 - 1))

    def test_hash_between_nbits_and_in_memory_target_rejected(self):
        # nBits keeps the top 16 bits of 2**256 - 1, so a hash in the top
        # 2**-16 of the range passes the in-memory target but not the
        # target the serialized header carries.
        target = 2**256 - 1
        decoded = target_from_compact(compact_from_target(target))
        nonce = next(n for n in range(1 << 20)
                     if decoded <= pow_hash_value(header(target, n)) < target)
        assert not verify_pow(header(target, nonce))

    def test_zero_target_always_false(self):
        assert not verify_pow(header(target=0))

    def test_mine_then_verify(self):
        nonce = mine_nonce(header(), 2**248, 10_000)
        assert nonce is not None
        assert verify_pow(header(target=2**248, nonce=nonce))

    def test_trivial_target_mines_nonce_zero(self):
        assert mine_nonce(header(), 2**256 - 1, 10) == 0

    def test_exhaustion(self):
        assert mine_nonce(header(), 0, 1) is None

    def test_mean_attempts_near_256(self):
        # Success probability 2^-8 per nonce; the mean over 100 tries
        # should land well inside [128, 512].
        rng = random.Random(99)
        attempts = []
        for _ in range(100):
            prev = bytes(rng.randrange(256) for _ in range(32))
            nonce = mine_nonce(header(prev=prev), 2**248, 10_000)
            assert nonce is not None
            attempts.append(nonce + 1)
        mean = sum(attempts) / len(attempts)
        assert 128 <= mean <= 512

