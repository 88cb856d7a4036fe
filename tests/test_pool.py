import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisc.defi.pool import (
    DustOutput,
    LiquidityPool,
    LpPosition,
    PoolError,
    divergence_loss,
)


def fresh_pool(x=40, y=40, fee=Fraction(0)):
    return LiquidityPool(x, y, fee)


class TestSwap:
    def test_fee_free_worked_example(self):
        # 40/40 reserves, 10 in: K/(40+10)=32, so 8 comes out.
        pool = fresh_pool()
        assert pool.swap_exact_in(10, x_to_y=True) == 8
        assert (pool.reserve_x, pool.reserve_y) == (50, 32)
        assert pool.k == 1600

    def test_fee_tier_output_matches_rational_oracle(self):
        # Base-unit sized reserves with the 0.3% tier.
        pool = LiquidityPool(500 * 10**8, 200 * 10**8, Fraction(3, 1000))
        amount_in = 2 * 10**8
        k = pool.k
        effective = Fraction(amount_in) * Fraction(997, 1000)
        expected = math.floor(
            Fraction(pool.reserve_y) - Fraction(k) / (Fraction(pool.reserve_x) + effective)
        )
        assert pool.swap_exact_in(amount_in, x_to_y=True) == expected == 79443180

    def test_dust_output_rejected(self):
        pool = LiquidityPool(10**12, 10, Fraction(0))
        with pytest.raises(DustOutput):
            pool.swap_exact_in(1, x_to_y=True)

    def test_nonpositive_input_rejected(self):
        with pytest.raises(PoolError):
            fresh_pool().swap_exact_in(0)

    @given(
        st.integers(min_value=1000, max_value=10**12),
        st.integers(min_value=1000, max_value=10**12),
        st.integers(min_value=1, max_value=10**9),
        # No fee and the 0.05%, 0.3% and 1% tiers.
        st.sampled_from([Fraction(0), Fraction(5, 10_000), Fraction(3, 1_000), Fraction(1, 100)]),
        st.booleans(),
    )
    @settings(max_examples=80)
    def test_product_never_decreases(self, x, y, amount_in, fee, x_to_y):
        pool = LiquidityPool(x, y, fee)
        before = pool.k
        try:
            pool.swap_exact_in(amount_in, x_to_y)
        except DustOutput:
            return
        assert pool.k >= before
        if fee > 0:
            assert pool.k > before

    @given(
        st.integers(min_value=1, max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
        st.sampled_from([Fraction(0), Fraction(5, 10_000), Fraction(3, 1_000), Fraction(1, 100)]),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_integer_swap_matches_rational_oracle(self, x, y, amount_in, fee, x_to_y):
        """The integer swap gives floor(R_out - K / (R_in + in*(1-fee))), the
        Fraction expression it replaced, and refuses exactly when that is 0."""
        reserve_in, reserve_out = (x, y) if x_to_y else (y, x)
        expected = math.floor(
            Fraction(reserve_out) - Fraction(x * y) / (reserve_in + Fraction(amount_in) * (1 - fee))
        )
        pool = LiquidityPool(x, y, fee)
        if expected <= 0:
            with pytest.raises(DustOutput):
                pool.swap_exact_in(amount_in, x_to_y)
            assert (pool.reserve_x, pool.reserve_y) == (x, y)
            return
        assert pool.swap_exact_in(amount_in, x_to_y) == expected
        after = (reserve_in + amount_in, reserve_out - expected)
        assert (pool.reserve_x, pool.reserve_y) == (after if x_to_y else after[::-1])

    @given(
        st.integers(min_value=10**6, max_value=10**12),
        st.integers(min_value=10**6, max_value=10**12),
        st.integers(min_value=100, max_value=10**6),
    )
    @settings(max_examples=60)
    def test_round_trip_never_profits(self, x, y, amount_in):
        pool = LiquidityPool(x, y, Fraction(3, 1000))
        try:
            out = pool.swap_exact_in(amount_in, x_to_y=True)
            back = pool.swap_exact_in(out, x_to_y=False)
        except DustOutput:
            return
        assert back <= amount_in


class TestLiquidity:
    def test_initial_mint_is_geometric_mean(self):
        pool = LiquidityPool(0, 0, Fraction(0))
        position = pool.add_liquidity("lp", 300 * 10**8, 100 * 10**8, Fraction(1, 3), Fraction(1))
        assert position.lp_units == math.isqrt(300 * 10**8 * 100 * 10**8)
        assert pool.total_lp_units == position.lp_units

    def test_unequal_value_deposit_rejected(self):
        pool = LiquidityPool(0, 0, Fraction(0))
        with pytest.raises(PoolError):
            pool.add_liquidity("lp", 100, 100, Fraction(1), Fraction(2))

    def test_tolerance_admits_rounding_residue(self):
        pool = LiquidityPool(0, 0, Fraction(0))
        # 0.05% value mismatch sits inside the 0.1% band.
        pool.add_liquidity("lp", 10_000, 10_005, Fraction(1), Fraction(1))

    def test_followup_mint_pro_rata(self):
        pool = LiquidityPool(0, 0, Fraction(0))
        first = pool.add_liquidity("a", 1000, 1000, Fraction(1), Fraction(1))
        second = pool.add_liquidity("b", 500, 500, Fraction(1), Fraction(1))
        assert second.lp_units == first.lp_units // 2

    def test_full_withdrawal_drains_reserves(self):
        pool = LiquidityPool(0, 0, Fraction(3, 1000))
        positions = [
            pool.add_liquidity("a", 1000, 1000, Fraction(1), Fraction(1)),
            pool.add_liquidity("b", 333, 333, Fraction(1), Fraction(1)),
            pool.add_liquidity("c", 777, 777, Fraction(1), Fraction(1)),
        ]
        pool.swap_exact_in(100, x_to_y=True)
        reserves = (pool.reserve_x, pool.reserve_y)
        total_x = total_y = 0
        for position in positions:
            x_out, y_out = pool.remove_liquidity(position)
            total_x += x_out
            total_y += y_out
        assert (total_x, total_y) == reserves
        assert pool.reserve_x == pool.reserve_y == pool.total_lp_units == 0

    def test_over_redemption_rejected(self):
        pool = LiquidityPool(0, 0, Fraction(0))
        pool.add_liquidity("a", 100, 100, Fraction(1), Fraction(1))
        with pytest.raises(PoolError):
            pool.remove_liquidity(LpPosition("b", 10**9, 0, 0))

    def test_fee_accrues_to_remaining_lps(self):
        pool = LiquidityPool(0, 0, Fraction(1, 100))
        position = pool.add_liquidity("a", 10**9, 10**9, Fraction(1), Fraction(1))
        for _ in range(50):
            pool.swap_exact_in(10**6, x_to_y=True)
            pool.swap_exact_in(10**6, x_to_y=False)
        x_out, y_out = pool.remove_liquidity(position)
        # Sole LP collects every fee: combined holdings grew.
        assert x_out + y_out > 2 * 10**9


class TestDivergenceLoss:
    def test_no_move_no_loss(self):
        assert divergence_loss(1) == 0

    def test_four_x_move_worked_value(self):
        # 2*sqrt(4)/(1+4) - 1 = -0.2
        assert abs(divergence_loss(4) + 0.2) < 1e-12

    @given(st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=80)
    def test_symmetric_and_nonpositive(self, p):
        loss = divergence_loss(p)
        assert loss <= 1e-15
        assert abs(loss - divergence_loss(1 / p)) < 1e-9

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            divergence_loss(0)
