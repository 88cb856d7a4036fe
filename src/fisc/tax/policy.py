"""Per-jurisdiction tax treatment switches."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from fractions import Fraction

from ..amounts import parse_rational
from ..lineformat import LineError, LineReader, pair
from .lots import AccountingMethod


class ReceiptTreatment(Enum):
    FMV_INCOME = "fmv_income"
    ZERO_BASIS = "zero_basis"


class HobbyMinerRule(Enum):
    NONE = "none"
    EXEMPT_WITH_COST_BASIS = "exempt_with_cost_basis"
    ZERO_BASIS_NO_DEDUCTION = "zero_basis_no_deduction"


ALL_METHODS = frozenset(AccountingMethod)


def _in_every_year(month_day: tuple[int, int]) -> bool:
    try:
        return bool(date(2001, *month_day))  # a common year: no 29 February
    except (TypeError, ValueError):
        return False


_RANGES = {  # field -> (test of a value in range, message); see check_range
    "tax_year_start": (_in_every_year, "tax_year_start {!r} is not a day found in every year"),
    "long_term_days": (lambda days: days >= 0, "long_term_days must be non-negative"),
    **dict.fromkeys(("standard_withholding", "elevated_withholding"),
                    (lambda rate: 0 <= rate <= 1, "withholding rate {} is outside [0, 1]")),
    "allowed_methods": (bool, "allowed_methods must be non-empty"),
}


def check_range(name: str, value: object) -> None:
    """Raise ValueError if a policy field's value is out of range; the policy
    checks each field, parse_policy and the attribution scenario parser
    each value at its key's line."""
    in_range, message = _RANGES.get(name, (None, ""))
    if in_range and not in_range(value):
        raise ValueError(message.format(value))


@dataclass(frozen=True)
class JurisdictionPolicy:
    fork_treatment: ReceiptTreatment = ReceiptTreatment.FMV_INCOME
    airdrop_treatment: ReceiptTreatment = ReceiptTreatment.FMV_INCOME
    hobby_miner: HobbyMinerRule = HobbyMinerRule.NONE
    mining_is_business: bool = True
    allowed_methods: frozenset = ALL_METHODS
    standard_withholding: Fraction = Fraction(1, 10)
    elevated_withholding: Fraction = Fraction(3, 10)
    tax_year_start: tuple[int, int] = (1, 1)  # (month, day)
    slashing_deductible: bool = False
    long_term_days: int = 365
    gift_taxable: bool = True
    lp_events_are_disposals: bool = False

    def __post_init__(self):
        for name in _RANGES:
            check_range(name, getattr(self, name))
        if self.elevated_withholding < self.standard_withholding:
            raise ValueError("elevated withholding must be >= standard")


def _month_day(value: str) -> tuple[int, int]:
    month, day = value.split("-")
    return int(month), int(day)


_CONVERTERS = {
    **dict.fromkeys(("fork_treatment", "airdrop_treatment"), ReceiptTreatment),
    "hobby_miner": HobbyMinerRule,
    **dict.fromkeys(("mining_is_business", "slashing_deductible", "gift_taxable",
                     "lp_events_are_disposals"), lambda v: v.lower() in ("1", "true", "yes")),
    "allowed_methods": lambda v: frozenset(AccountingMethod(m.strip()) for m in v.split(",")),
    **dict.fromkeys(("standard_withholding", "elevated_withholding"), parse_rational),
    "tax_year_start": _month_day,
    "long_term_days": int,
}


def parse_policy(text: str) -> JurisdictionPolicy:
    """Parse a `key = value` policy file mirroring the field names.

    A bad line or a value out of range raises LineError at its line. The
    policy checks the withholding rates against each other once all lines
    are read; a failure is a LineError at the later of the two rate keys.
    """
    values: dict[str, object] = {}
    rates_line = 0
    with LineReader(text) as lines:
        for fields in lines:
            key, value = (part.strip() for part in pair(" ".join(fields)))
            if key not in _CONVERTERS:
                raise ValueError("unknown policy key %r" % key)
            values[key] = _CONVERTERS[key](value)
            check_range(key, values[key])
            if key.endswith("_withholding"):
                rates_line = lines.line_no
    return policy_at(rates_line, **values)


def policy_at(rates_line: int, **values) -> JurisdictionPolicy:
    """The policy of `values`, each already range-checked at its own line;
    the withholding rates' order, the one check left, fails as a LineError
    at `rates_line`, the line of the later rate."""
    try:
        return JurisdictionPolicy(**values)
    except ValueError as exc:
        raise LineError(rates_line, str(exc)) from None
