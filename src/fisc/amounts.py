"""Fixed-point asset amounts and exact rational helpers.

Quantities are integer base units (satoshi, wei, ...). Money is an int
count of 10**-D currency units in a lot-book report whose prices all
terminate (see `fisc.tax.lots.Book`; `format_units` prints it), else a
Fraction, as rates and fee math are; never a float.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

# Common decimal conventions.
BTC_DECIMALS = 8
ETH_DECIMALS = 18

SATOSHI_PER_BTC = 10**BTC_DECIMALS
# ERC-20 `decimals` is a uint8, so this covers every real token.
MAX_DECIMALS = 255
# decimal_places takes residues modulo this prime below 2**30: one machine word.
_RESIDUE_MODULUS = 2**30 - 35


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
        a value finer than one base unit is refused, not truncated. Plain
        `digits[.digits]` is read off its digits, as Fraction reads them."""
        num, den = _plain_decimal(text) or parse_rational(text).as_integer_ratio()
        units, rest = divmod(num * 10**decimals, den)
        if rest:
            raise ValueError("%r is not representable with %d decimals" % (text, decimals))
        return cls(units, decimals)


def btc(text: str) -> Amount:
    return Amount.from_decimal_str(text, BTC_DECIMALS)


def eth(text: str) -> Amount:
    return Amount.from_decimal_str(text, ETH_DECIMALS)


def decimal_places(den: int) -> int | None:
    """The smallest p with den dividing 10**p, or None if there is none, in a
    fixed number of big-int steps whatever the power of 5: a shift, a residue
    and, unless the residue rules it out, one exact power and comparison."""
    # den divides a power of ten iff den = 2^a * 5^b; then p = max(a, b).
    a = (den & -den).bit_length() - 1
    odd = den >> a
    # 5**b has floor(b * log2 5) + 1 bits, so only b = floor(n / log2 5) can
    # have odd's n bits; b + 1 covers n * (1 / log2 5) rounding below b.
    b, rest = int(odd.bit_length() * 0.43067655807339306), odd % _RESIDUE_MODULUS
    for b in (b, b + 1):
        if pow(5, b, _RESIDUE_MODULUS) == rest and 5**b == odd:
            return a if a > b else b
    return None


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
    once. An int prints if its magnitude is below `ceiling`, 10**L; no
    limit (0, or before 3.10.7) makes `ceiling` infinite and `room`
    sys.maxsize.

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
        self.ceiling = 10**limit if limit else math.inf

    def fits(self, value: Fraction) -> bool:
        """Whether every int format_rational(value) converts is below 10**L,
        that is has at most L digits; converts nothing."""
        num, den = abs(value.numerator), value.denominator
        places = decimal_places(den)
        if places is not None:  # printed as the digits of num * 10**p / den
            num, den = num * (10**places // den), 1
        return num < self.ceiling and den < self.ceiling


# The exponent of a decimal text, as Fraction's own parser reads it.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _plain_decimal(text: str) -> tuple[int, int] | None:
    """(numerator, 10**places) of ASCII `digits[.digits]`, unreduced; else None."""
    whole, dot, fraction = text.partition(".")
    if whole.isdigit() and (fraction.isdigit() or not dot) and text.isascii():
        return int(whole + fraction), 10 ** len(fraction)
    return None


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; also accepts plain decimals, read off their
    digits, and a/b. An exponent larger in magnitude than CPython's int->str
    digit limit is refused: Fraction would build 10**exponent, hours past 10**9."""
    if plain := _plain_decimal(text):
        return Fraction(*plain)
    exponent = _EXPONENT.search(text)
    if exponent:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and abs(int(exponent[1])) > limit:
            raise ValueError("exponent of %s exceeds %d in magnitude" % (text, limit))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
