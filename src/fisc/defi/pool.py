"""Constant-product pool mechanics and LP position accounting.

Reserves are integer base units; swap and withdrawal rounding always
favors the pool so the product invariant never decreases. The pool and
its positions are plain `__slots__` classes, so a `simulate pool`
process loads no `dataclasses`.
"""

from __future__ import annotations

import math
from fractions import Fraction

EQUAL_VALUE_TOLERANCE = Fraction(1, 1000)


class PoolError(Exception):
    """A pool operation refused; not a ValueError, which from the pool is a bug."""


class DustOutput(PoolError):
    pass


class LpPosition:
    __slots__ = ("owner", "lp_units", "x_in", "y_in")

    def __init__(self, owner: str, lp_units: int, x_in: int, y_in: int):
        self.owner, self.lp_units, self.x_in, self.y_in = owner, lp_units, x_in, y_in


class LiquidityPool:
    """x*y=K pair. reserve_x / reserve_y are base units of the two assets."""

    __slots__ = ("reserve_x", "reserve_y", "fee_rate", "total_lp_units")

    def __init__(self, reserve_x: int = 0, reserve_y: int = 0,
                 fee_rate: Fraction = Fraction(3, 1_000), total_lp_units: int = 0):
        self.reserve_x, self.reserve_y = reserve_x, reserve_y
        self.fee_rate, self.total_lp_units = fee_rate, total_lp_units
        if self.reserve_x < 0 or self.reserve_y < 0:
            raise PoolError("reserves must be non-negative")
        if (self.reserve_x == 0) != (self.reserve_y == 0):
            raise PoolError("reserves must both be zero or both be positive")
        if not 0 <= self.fee_rate < 1:
            raise PoolError("fee rate must be in [0, 1)")
        if self.live and self.total_lp_units == 0:
            # Declared reserves are backed by units no position holds, so a
            # deposit mints only its own share, as every later deposit does.
            self.total_lp_units = math.isqrt(self.k)

    @property
    def k(self) -> int:
        return self.reserve_x * self.reserve_y

    @property
    def live(self) -> bool:
        return self.reserve_x > 0 and self.reserve_y > 0

    # --- swaps ---

    def swap_exact_in(self, amount_in: int, x_to_y: bool = True) -> int:
        """Swap a fixed input for the other asset; returns the output.

        out = floor(R_out - K/(R_in + in*(1-fee))) = net*R_out // (R_in*q + net)
        for fee = p/q and net = in*(q-p). The full input (fee included) lands in
        the reserves, so K never decreases and strictly grows whenever the fee is nonzero.
        """
        if amount_in <= 0:
            raise PoolError("swap input must be positive")
        if not self.live:
            raise PoolError("pool is not live")
        reserve_in = self.reserve_x if x_to_y else self.reserve_y
        reserve_out = self.reserve_y if x_to_y else self.reserve_x
        q = self.fee_rate.denominator
        net = amount_in * (q - self.fee_rate.numerator)
        out = net * reserve_out // (reserve_in * q + net)
        if out <= 0:
            raise DustOutput("output rounds to zero")
        if x_to_y:
            self.reserve_x += amount_in
            self.reserve_y -= out
        else:
            self.reserve_y += amount_in
            self.reserve_x -= out
        return out

    # --- liquidity ---

    def add_liquidity(
        self,
        owner: str,
        x_in: int,
        y_in: int,
        price_x: Fraction,
        price_y: Fraction,
    ) -> LpPosition:
        """Mint LP units for an equal-value two-sided deposit (V2 rule)."""
        if x_in <= 0 or y_in <= 0:
            raise PoolError("deposits must be positive on both sides")
        value_x = x_in * price_x
        value_y = y_in * price_y
        if abs(value_x - value_y) > EQUAL_VALUE_TOLERANCE * max(value_x, value_y):
            try:
                message = "deposit values differ beyond tolerance: %s vs %s" % (value_x, value_y)
            except ValueError as exc:  # a value past CPython's int->str digit limit
                message = str(exc)
            raise PoolError(message)
        if self.total_lp_units == 0:
            minted = math.isqrt(x_in * y_in)
            if minted <= 0:
                raise PoolError("initial deposit too small")
        else:
            minted = min(
                x_in * self.total_lp_units // self.reserve_x,
                y_in * self.total_lp_units // self.reserve_y,
            )
            if minted <= 0:
                raise DustOutput("deposit mints zero units")
        self.reserve_x += x_in
        self.reserve_y += y_in
        self.total_lp_units += minted
        return LpPosition(owner, minted, x_in, y_in)

    def remove_liquidity(self, position: LpPosition) -> tuple[int, int]:
        """Burn a position for its pro-rata share of current reserves.

        Shares are taken sequentially (floor against the current totals),
        so redeeming every unit drains the reserves exactly.
        """
        if position.lp_units <= 0:
            raise PoolError("position has no units")
        if position.lp_units > self.total_lp_units:
            raise PoolError("redeeming more units than outstanding")
        x_out = self.reserve_x * position.lp_units // self.total_lp_units
        y_out = self.reserve_y * position.lp_units // self.total_lp_units
        self.reserve_x -= x_out
        self.reserve_y -= y_out
        self.total_lp_units -= position.lp_units
        position.lp_units = 0
        return x_out, y_out


def divergence_loss(p: float | Fraction) -> float:
    """LP value shortfall versus holding, for price ratio p = now/at-deposit.

    2*sqrt(p)/(1+p) - 1: zero at p=1, negative elsewhere, symmetric in
    p <-> 1/p.
    """
    p = float(p)
    if p <= 0:
        raise ValueError("price ratio must be positive")
    return 2 * math.sqrt(p) / (1 + p) - 1
