"""Fixed-point asset amounts and exact rational helpers.

All ledger arithmetic is integer base units (satoshi, wei, ...); rationals
(Fraction) appear only for prices, rates and fee math, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Common decimal conventions.
BTC_DECIMALS = 8
ETH_DECIMALS = 18

SATOSHI_PER_BTC = 10**BTC_DECIMALS
WEI_PER_ETH = 10**ETH_DECIMALS


@dataclass(frozen=True, order=True)
class Amount:
    """A quantity of one asset in integer base units.

    Negative values are permitted (signed accounting deltas, e.g. a net
    builder fee); positivity is enforced where the ledger requires it
    (UTXO values, lot quantities).
    """

    base_units: int
    decimals: int = BTC_DECIMALS

    def __post_init__(self):
        if not isinstance(self.base_units, int):
            raise TypeError("base_units must be an integer")
        if self.decimals < 0:
            raise ValueError("decimals must be non-negative")

    def _check(self, other: "Amount") -> None:
        if not isinstance(other, Amount):
            raise TypeError("expected Amount")
        if other.decimals != self.decimals:
            raise ValueError("mismatched decimals: %d vs %d" % (self.decimals, other.decimals))

    def __add__(self, other: "Amount") -> "Amount":
        self._check(other)
        return Amount(self.base_units + other.base_units, self.decimals)

    def __sub__(self, other: "Amount") -> "Amount":
        self._check(other)
        return Amount(self.base_units - other.base_units, self.decimals)

    def __neg__(self) -> "Amount":
        return Amount(-self.base_units, self.decimals)

    def scale(self, factor: Fraction | int) -> "Amount":
        """Multiply by an exact factor, rounding down to the base unit."""
        scaled = Fraction(self.base_units) * Fraction(factor)
        return Amount(scaled.numerator // scaled.denominator, self.decimals)

    @property
    def is_negative(self) -> bool:
        return self.base_units < 0

    def as_fraction(self) -> Fraction:
        """Value in whole-asset units as an exact rational."""
        return Fraction(self.base_units, 10**self.decimals)

    @classmethod
    def from_decimal_str(cls, text: str, decimals: int = BTC_DECIMALS) -> "Amount":
        """Parse a decimal string like '2.5' into base units, exactly."""
        frac = Fraction(text)
        units = frac * 10**decimals
        if units.denominator != 1:
            raise ValueError("%r is not representable with %d decimals" % (text, decimals))
        return cls(int(units), decimals)

    def __str__(self) -> str:
        sign = "-" if self.base_units < 0 else ""
        mag = abs(self.base_units)
        whole, frac = divmod(mag, 10**self.decimals)
        if frac == 0:
            return "%s%d" % (sign, whole)
        return "%s%d.%s" % (sign, whole, str(frac).rjust(self.decimals, "0").rstrip("0"))


def btc(text: str) -> Amount:
    return Amount.from_decimal_str(text, BTC_DECIMALS)


def eth(text: str) -> Amount:
    return Amount.from_decimal_str(text, ETH_DECIMALS)


def format_rational(value: Fraction | int) -> str:
    """Canonical exact rendering of a rational: decimal when finite, else a/b.

    Used everywhere reports are serialized so identical inputs produce
    byte-identical outputs.
    """
    frac = Fraction(value)
    num, den = frac.numerator, frac.denominator
    # Finite decimal expansion iff denominator is 2^a * 5^b.
    a = (den & -den).bit_length() - 1
    odd = den >> a
    b = 0
    while odd % 5 == 0:
        odd //= 5
        b += 1
    if odd != 1:
        return "%d/%d" % (num, den)
    if den == 1:
        return str(num)
    # 10^places is the smallest power of ten that den divides.
    places = max(a, b)
    digits = abs(num) * (10**places // den)
    sign = "-" if num < 0 else ""
    text = str(digits).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, text[:-places], text[-places:])


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; also accepts plain decimals and a/b."""
    return Fraction(text)
