"""The travel rule: the mandated originator and beneficiary fields of a transfer."""

from __future__ import annotations

from typing import NamedTuple

from ..lineformat import FiscError


class TravelRuleError(FiscError):
    pass


class PartyIdentity(NamedTuple):
    """A wallet holder's identity; the wallet's registered address is its account."""

    name: str
    physical_address: str | None = None
    national_id: str | None = None
    customer_id: str | None = None
    birth_date_place: str | None = None


def check_travel_rule(originator: PartyIdentity, beneficiary: PartyIdentity) -> None:
    """Raise TravelRuleError at the first mandated field missing: each
    party's name, and one of the originator's physical identifiers."""
    if not originator.name:
        raise TravelRuleError("originator name is mandatory")
    if not (originator.physical_address or originator.national_id
            or originator.customer_id or originator.birth_date_place):
        raise TravelRuleError(
            "originator needs a physical address, national id, customer id, "
            "or date and place of birth"
        )
    if not beneficiary.name:
        raise TravelRuleError("beneficiary name is mandatory")
