"""Fixed-point asset amounts and exact rational helpers.

Quantities are integer base units (satoshi, wei, ...). Money is an int
count of 10**-D currency units in a lot-book report whose prices all
terminate (see `fisc.tax.lots.Book`; `format_units` prints it), else a
Fraction, as rates and fee math are; never a float.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

# Common decimal conventions.
BTC_DECIMALS = 8
ETH_DECIMALS = 18

SATOSHI_PER_BTC = 10**BTC_DECIMALS
# ERC-20 `decimals` is a uint8, so this covers every real token.
MAX_DECIMALS = 255


def parse_decimals(text: str) -> int:
    """An asset's decimals from an input file, in [0, MAX_DECIMALS]."""
    try:
        decimals = int(text)
    except ValueError:
        raise ValueError("bad decimals %r" % text) from None
    if decimals < 0:
        raise ValueError("decimals must be non-negative")
    if decimals > MAX_DECIMALS:
        raise ValueError("decimals must be at most %d" % MAX_DECIMALS)
    return decimals


class _AmountFields(NamedTuple):
    base_units: int
    decimals: int = BTC_DECIMALS


class Amount(_AmountFields):
    """A quantity of one asset in integer base units: an immutable tuple,
    ordered by base units, then decimals.

    Negative values are permitted (signed accounting deltas, e.g. a net
    builder fee); positivity is enforced where the ledger requires it
    (UTXO values, lot quantities).
    """

    __slots__ = ()

    def __new__(cls, base_units, decimals=BTC_DECIMALS):
        if not isinstance(base_units, int):
            raise TypeError("base_units must be an integer")
        if decimals < 0:
            raise ValueError("decimals must be non-negative")
        return tuple.__new__(cls, (base_units, decimals))

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

    @classmethod
    def from_decimal_str(cls, text: str, decimals: int = BTC_DECIMALS) -> "Amount":
        """Parse a decimal string like '2.5' (or a/b) into base units, exactly;
        a value finer than one base unit is refused, not truncated."""
        units = parse_rational(text) * 10**decimals
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


def decimal_places(den: int) -> int | None:
    """The smallest p with den dividing 10**p, or None if there is none."""
    # den divides a power of ten iff den = 2^a * 5^b; then p = max(a, b).
    a = (den & -den).bit_length() - 1
    odd = den >> a
    b = 0
    while odd % 5 == 0:
        odd //= 5
        b += 1
    return max(a, b) if odd == 1 else None


def format_rational(value: Fraction | int) -> str:
    """Canonical exact rendering of a rational: decimal when finite, else a/b.

    Used everywhere reports are serialized so identical inputs produce
    byte-identical outputs.
    """
    frac = value if type(value) is Fraction else Fraction(value)
    num, den = frac.numerator, frac.denominator
    if den == 1:
        return str(num)
    places = decimal_places(den)
    if places is None:
        return "%d/%d" % (num, den)
    digits = abs(num) * (10**places // den)
    sign = "-" if num < 0 else ""
    text = str(digits).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, text[:-places], text[-places:])


def format_units(units: int, places: int) -> str:
    """format_rational(Fraction(units, 10**places)), read off the digits of
    the int `units`: no Fraction and no gcd."""
    try:
        text = str(abs(units)).rjust(places + 1, "0")
    except ValueError:  # more digits than format_rational converts: it decides
        return format_rational(Fraction(units, 10**places))
    whole, frac = text[:len(text) - places], text[len(text) - places:].rstrip("0")
    sign = "-" if units < 0 else ""
    return "%s%s.%s" % (sign, whole, frac) if frac else sign + whole


class DigitLimit:
    """CPython's int->str digit limit L as format_rational meets it, read
    once; no limit (0, or before 3.10.7) makes `room` sys.maxsize.

    A value whose numerator and denominator have n and d bits prints if
    n + 3d <= `room` = 3L. As log10(2) < 1/3, an int of k bits has under
    k/3 + 1 digits, which bounds the integer and a/b forms. The decimal
    form prints |num| * 10**p / den with 2**p <= den, so p < d and it has
    under n/3 + 1 + p <= n/3 + d <= L digits. `fits` decides the rest.
    """

    def __init__(self):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        limit = get_limit() if get_limit else 0
        self.room = 3 * limit if limit else sys.maxsize
        self._ceiling = 10**limit

    def fits(self, value: Fraction) -> bool:
        """Whether every int format_rational(value) converts is below 10**L,
        that is has at most L digits; converts nothing."""
        num, den = abs(value.numerator), value.denominator
        places = decimal_places(den)
        if places is not None:  # printed as the digits of num * 10**p / den
            num, den = num * (10**places // den), 1
        return num < self._ceiling and den < self._ceiling


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; also accepts plain decimals and a/b."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
