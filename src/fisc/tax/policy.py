"""Per-jurisdiction tax treatment switches."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from fractions import Fraction

from ..amounts import parse_rational
from .lots import AccountingMethod


class ReceiptTreatment(Enum):
    FMV_INCOME = "fmv_income"
    ZERO_BASIS = "zero_basis"


class HobbyMinerRule(Enum):
    NONE = "none"
    EXEMPT_WITH_COST_BASIS = "exempt_with_cost_basis"
    ZERO_BASIS_NO_DEDUCTION = "zero_basis_no_deduction"


ALL_METHODS = frozenset(AccountingMethod)


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
        try:
            date(2001, *self.tax_year_start)  # a common year: no 29 February
        except (TypeError, ValueError):
            raise ValueError("tax_year_start %r is not a day found in every year"
                             % (self.tax_year_start,)) from None
        if self.long_term_days < 0:
            raise ValueError("long_term_days must be non-negative")
        for rate in (self.standard_withholding, self.elevated_withholding):
            if not 0 <= rate <= 1:
                raise ValueError("withholding rate %s is outside [0, 1]" % rate)
        if self.elevated_withholding < self.standard_withholding:
            raise ValueError("elevated withholding must be >= standard")
        if not self.allowed_methods:
            raise ValueError("allowed_methods must be non-empty")


def parse_policy(text: str) -> JurisdictionPolicy:
    """Parse a `key = value` policy file mirroring the field names."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "fork_treatment":
            values[key] = ReceiptTreatment(value)
        elif key == "airdrop_treatment":
            values[key] = ReceiptTreatment(value)
        elif key == "hobby_miner":
            values[key] = HobbyMinerRule(value)
        elif key in ("mining_is_business", "slashing_deductible", "gift_taxable",
                     "lp_events_are_disposals"):
            values[key] = value.lower() in ("1", "true", "yes")
        elif key == "allowed_methods":
            values[key] = frozenset(AccountingMethod(m.strip()) for m in value.split(","))
        elif key in ("standard_withholding", "elevated_withholding"):
            values[key] = parse_rational(value)
        elif key == "tax_year_start":
            month, day = value.split("-")
            values[key] = (int(month), int(day))
        elif key == "long_term_days":
            values[key] = int(value)
        else:
            raise ValueError("line %d: unknown policy key %r" % (line_no, key))
    return JurisdictionPolicy(**values)
