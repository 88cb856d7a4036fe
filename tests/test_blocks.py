import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisc.addresses import dsha256
from fisc.blocks import (
    BlockHeader,
    build_block_template,
    compact_from_target,
    compute_merkle_root,
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


class TestMerkle:
    def test_single_leaf_is_identity(self):
        leaf = hashlib.sha256(b"tx").digest()
        assert compute_merkle_root([leaf]) == leaf

    def test_two_leaves(self):
        h1 = hashlib.sha256(b"a").digest()
        h2 = hashlib.sha256(b"b").digest()
        assert compute_merkle_root([h1, h2]) == dsha256(h1 + h2)

    def test_odd_count_duplicates_last(self):
        leaves = [hashlib.sha256(bytes([i])).digest() for i in range(3)]
        expected = dsha256(
            dsha256(leaves[0] + leaves[1]) + dsha256(leaves[2] + leaves[2])
        )
        assert compute_merkle_root(leaves) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_merkle_root([])

    @given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_any_leaf_flip_changes_root(self, count, rng):
        leaves = [hashlib.sha256(b"leaf%d" % i).digest() for i in range(count)]
        root = compute_merkle_root(leaves)
        index = rng.randrange(count)
        bit = 1 << rng.randrange(8)
        byte_pos = rng.randrange(32)
        mutated = bytearray(leaves[index])
        mutated[byte_pos] ^= bit
        flipped = list(leaves)
        flipped[index] = bytes(mutated)
        assert compute_merkle_root(flipped) != root


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


class TestTemplate:
    def test_smaller_tx_wins_at_equal_fee(self):
        small = (b"\x02" * 32, 1000, 400)
        large = (b"\x01" * 32, 1000, 900)
        assert build_block_template([large, small], 10_000) == [small[0], large[0]]

    def test_empty_mempool(self):
        assert build_block_template([], 100) == []

    def test_weight_limit_respected(self):
        txs = [(bytes([i]) * 32, 10 * i, 300) for i in range(1, 10)]
        chosen = build_block_template(txs, 1000)
        weights = {txid: w for txid, _, w in txs}
        assert sum(weights[t] for t in chosen) <= 1000

    def test_tie_break_lower_txid_first(self):
        a = (b"\x01" * 32, 500, 250)
        b = (b"\x02" * 32, 500, 250)
        assert build_block_template([b, a], 10_000)[0] == a[0]

    def test_greedy_vs_knapsack_oracle(self):
        # Exhaustive subset knapsack over 12 random transactions; greedy
        # must reach the optimum or stay within the largest single fee
        # (classic bound for the density heuristic).
        rng = random.Random(2024)
        txs = [
            (bytes([i]) * 32, rng.randrange(100, 5000), rng.randrange(100, 1500))
            for i in range(12)
        ]
        limit = 4000
        best = 0
        for mask in range(1 << len(txs)):
            fee = weight = 0
            for i in range(len(txs)):
                if mask >> i & 1:
                    fee += txs[i][1]
                    weight += txs[i][2]
            if weight <= limit:
                best = max(best, fee)
        fees = {txid: f for txid, f, _ in txs}
        greedy_fee = sum(fees[t] for t in build_block_template(txs, limit))
        max_single = max(f for _, f, _ in txs)
        assert greedy_fee <= best
        assert greedy_fee >= best - max_single
        # Output fee total is at least any single admissible tx's fee.
        admissible = max(f for _, f, w in txs if w <= limit)
        assert greedy_fee >= admissible
