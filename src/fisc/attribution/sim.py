"""Deterministic simulation of the attribution protocol.

A single logical timeline: every delivery tick of a query is known when it
is broadcast, so each query walks its origin's schedule, sorted once by
(latency, code); identical scenarios and seeds replay the exact trace.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from ..tax.policy import JurisdictionPolicy
from ..tax.engine import withholding_rate
from .protocol import AttributionError, EoiMatrix, OwnershipProof, TaxAuthority


class QueryOutcome(NamedTuple):
    affirmed: bool
    jurisdiction: str | None = None


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class LinkConfig(NamedTuple):
    """Per-(sender, receiver) latency in ticks and drop threshold.

    A network reads its links at an origin's first query and keeps what it
    read; to change them, rebind `AttributionNetwork.links`. The default
    maps are empty and read-only."""

    latency: dict[tuple[str, str], int] = MappingProxyType({})
    drop: dict[tuple[str, str], float] = MappingProxyType({})
    default_latency: int = 1
    default_drop: float = 0.0


class AttributionNetwork:
    """Authorities joined by a latency/drop-configured broadcast bus."""

    def __init__(self, links: LinkConfig | None = None, seed: int = 0):
        self.eoi = EoiMatrix()
        self.authorities: dict[str, TaxAuthority] = {}
        self._codes: list[str] = []  # sorted(authorities), kept by add_authority
        self.homes: dict[str, str] = {}  # registered address -> its lowest code, kept by register
        self.links = links if links is not None else LinkConfig()
        self.trace: list[str] = []  # rendered lines: tick actor kind digest
        self.now = 0
        self._rng = random.Random(seed)

    @property
    def links(self) -> LinkConfig:
        return self._links

    @links.setter
    def links(self, links: LinkConfig) -> None:
        self._links, self._plans = links, {}

    def add_authority(self, code: str) -> TaxAuthority:
        if code in self.authorities:
            raise AttributionError("jurisdiction %s already present" % code)
        authority = TaxAuthority(code)
        self.authorities[code] = authority
        self._codes, self._plans = sorted(self.authorities), {}
        return authority

    def _emit(self, tick: int, actor: str, kind: str, digest: str) -> None:
        self.trace.append(f"{tick} {actor} {kind} {digest}")

    def register(self, code: str, proof: OwnershipProof) -> None:
        """Register a proof with `code`'s authority and trace the outcome.
        The address's home is the lowest code it is registered with."""
        try:
            self.authorities[code].register_ownership(proof)
        except AttributionError as exc:
            self._emit(self.now, code, "registration_rejected", _digest(str(exc)))
            raise
        address = proof.address.text
        self.homes[address] = min(code, self.homes.get(address, code))
        self._emit(self.now, code, "registered", _digest(address))

    # --- the query protocol ---

    def query_beneficiary_jurisdiction(
        self, origin_code: str, beneficiary_address: str, deadline_ticks: int
    ) -> QueryOutcome:
        """Broadcast a signed query; first affirmative before the deadline
        wins (ties resolved to the lowest jurisdiction code).

        Each authority the query reaches gets it at start + latency, in code
        order on equal ticks; an affirmation counts if it reaches the origin
        by the deadline. Deliveries after the deadline never happen.
        """
        if origin_code not in self.authorities:
            raise AttributionError("origin jurisdiction %s not in simulation" % origin_code)
        others, droppable, schedule = self._plans.get(origin_code) or self._plan(origin_code)
        start = self.now
        deadline = start + deadline_ticks
        query_digest = _digest("query|%s|%s" % (origin_code, beneficiary_address))
        emit, draw = self.trace.append, self._rng.random
        emit(f"{start} {origin_code} query_broadcast {query_digest}")
        draws = [draw() for _ in others]
        dropped = [code for index, code, threshold in droppable if draws[index] < threshold]
        for code in dropped:
            emit(f"{start} {origin_code} query_dropped_to_{code} {query_digest}")

        responses: list[tuple[int, str]] = []
        for latency, code, no_response, reply_drop, reply_latency, authority in schedule:
            if latency > deadline_ticks:
                break
            if code in dropped:
                continue
            at = start + latency
            if (beneficiary_address in authority.registry
                    and authority.knows_address(beneficiary_address)
                    and self.eoi.permits(origin_code, code)):
                reply_digest = _digest("affirm|%s|%s" % (code, beneficiary_address))
                emit(f"{at} {code} affirm {reply_digest}")
                if draw() < reply_drop:
                    emit(f"{at} {code} affirm_dropped {reply_digest}")
                elif at + reply_latency <= deadline:
                    responses.append((at + reply_latency, code))
            else:
                emit(f"{at}{no_response}{query_digest}")
        self.now = deadline
        if not responses:
            self._emit(deadline, origin_code, "unaffirmed", query_digest)
            return QueryOutcome(False)
        arrival, winner = min(responses)
        if len({code for at, code in responses if at == arrival}) > 1:
            self._emit(arrival, origin_code, "anomaly_multiple_affirmations", query_digest)
        self._emit(arrival, origin_code, "affirmed_" + winner, query_digest)
        return QueryOutcome(True, winner)

    def _plan(self, origin: str) -> tuple:
        """Build and keep `origin`'s broadcast plan: the other codes in code
        order; those a query may be dropped to, as (index, code, threshold);
        and the deliveries sorted by (latency, code), each with its
        no_response text, the reply's drop threshold and latency, and the
        authority delivered to."""
        links = self.links
        latency, default_latency = links.latency, links.default_latency
        drop, default_drop = links.drop, links.default_drop
        others = [code for code in self._codes if code != origin]
        droppable = [(index, code, threshold) for index, code in enumerate(others)
                     if (threshold := drop.get((origin, code), default_drop)) > 0]
        schedule = sorted((latency.get((origin, code), default_latency), code,
                           " %s no_response " % code, drop.get((code, origin), default_drop),
                           latency.get((code, origin), default_latency), self.authorities[code])
                          for code in others)
        plan = self._plans[origin] = (others, droppable, schedule)
        return plan

    # --- originating a transfer ---

    def originate_transfer(
        self,
        origin_address: str,
        beneficiary_address: str,
        amount_base_units: int,
        policy: JurisdictionPolicy,
        deadline_ticks: int = 8,
    ) -> tuple[str, Fraction]:
        """Resolve the counterparty of a BTC transfer and compute its
        withholding: the attribution, "affirmed" or "unaffirmed", and the
        amount withheld. The origin wallet must have been registered
        through `register`."""
        if amount_base_units < 0:
            raise ValueError("amount must be non-negative")
        origin_home = self.homes.get(origin_address)
        if origin_home is None:
            raise AttributionError("origin address %s is not registered" % origin_address)
        outcome = self.query_beneficiary_jurisdiction(
            origin_home, beneficiary_address, deadline_ticks
        )
        attribution = "affirmed" if outcome.affirmed else "unaffirmed"
        # The BTC amount times the rate as one exact product: one gcd.
        rate = withholding_rate(attribution, policy)
        withheld = Fraction(amount_base_units * rate.numerator, 10**8 * rate.denominator)
        self._emit(self.now, origin_home, "withholding_" + attribution,
                   _digest("withhold|%s|%s" % (origin_address, withheld)))
        return attribution, withheld

    def render_trace(self) -> str:
        return "\n".join(self.trace) + "\n"
