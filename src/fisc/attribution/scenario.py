"""Declarative attribution scenarios: parse, run, and render outputs."""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from ..addresses import Scheme as AddrScheme, address_from_pubkey
from ..amounts import DigitLimit, format_rational, parse_rational
from ..lineformat import CHUNK_LINES, LineError, LineReader, directive, directives
from ..signatures import DEFAULT_SCHEME
from ..tax.policy import JurisdictionPolicy, check_range, policy_at
from .protocol import AttributionError, build_ownership_proof
from .sim import AttributionNetwork, LinkConfig
from .travelrule import PartyIdentity, check_travel_rule


class AttributionScenario:
    """What a scenario file declares, in file order. `seed` may be set after
    parsing: the CLI's --seed does."""

    __slots__ = ("seed", "jurisdictions", "eoi_rows", "latencies", "drops", "dscs",
                 "registrations", "identities", "transfers", "policy")

    def __init__(self):
        self.seed = 0
        self.jurisdictions: list[str] = []
        self.eoi_rows: list[tuple[str, str, str]] = []
        self.latencies: list[tuple[str, str, int]] = []
        self.drops: list[tuple[str, str, Fraction]] = []
        self.dscs: list[tuple[str, str, str]] = []  # (jurisdiction, tin, holder label)
        self.registrations: list[tuple[str, str, str, bool]] = []
        self.identities: dict[str, PartyIdentity] = {}
        self.transfers: list[tuple[str, str, int, int]] = []
        self.policy = JurisdictionPolicy()


_DIRECTIVES = directives(
    "seed <n>", "jurisdiction <code>", "eoi <asker> <responder> allow|deny",
    "latency <asker> <responder> <ticks>", "drop <asker> <responder> <probability>",
    "dsc <jurisdiction> <tin> <holder-label>", "register <jurisdiction> <tin> <wallet-label>",
    "register_tampered <jurisdiction> <tin> <wallet-label>",
    "identity <wallet-label> name=... physical=... national_id=... customer_id=... birth=...",
    "transfer <origin-label> <beneficiary> <base-units> <deadline>",
    "withholding standard=... elevated=...")
# What a reference names, and how a reference to something undeclared reads.
_UNKNOWN = {"jurisdiction": "jurisdiction %r is not declared",
            "dsc": "no dsc line for %s %s",
            "wallet": "wallet %r has no register line"}


def parse_attribution_scenario(text: str) -> AttributionScenario:
    scenario = AttributionScenario()
    refs: list[tuple[int, str, object]] = []  # (line, what it names, name), checked at the end
    rates: dict[str, Fraction] = {}
    rates_line = 0
    ticks, ceiling = 0, DigitLimit().ceiling  # the deadlines' sum bounds every traced tick
    with LineReader(text) as lines:
        for fields in lines:
            tag, (args, kv) = fields[0], directive(fields, _DIRECTIVES)
            if tag in ("eoi", "latency", "drop"):
                refs += [(lines.line_no, "jurisdiction", code) for code in args[:2]]
            if tag == "seed":
                scenario.seed = int(args[0])
            elif tag == "jurisdiction":
                scenario.jurisdictions.append(args[0])
            elif tag == "eoi":
                if args[2] not in ("allow", "deny"):
                    raise ValueError("eoi must be allow or deny")
                scenario.eoi_rows.append((args[0], args[1], args[2]))
            elif tag == "latency":
                ticks = int(args[2])
                if ticks < 0:
                    raise ValueError("latency must be non-negative")
                scenario.latencies.append((args[0], args[1], ticks))
            elif tag == "drop":
                probability = parse_rational(args[2])
                if not 0 <= probability <= 1:
                    raise ValueError("drop probability must be in [0, 1]")
                scenario.drops.append((args[0], args[1], probability))
            elif tag == "dsc":
                scenario.dscs.append((args[0], args[1], args[2]))
                refs.append((lines.line_no, "jurisdiction", args[0]))
            elif tag in ("register", "register_tampered"):
                scenario.registrations.append(
                    (args[0], args[1], args[2], tag == "register_tampered")
                )
                refs.append((lines.line_no, "dsc", (args[0], args[1])))
            elif tag == "identity":
                refs.append((lines.line_no, "wallet", args[0]))
                scenario.identities[args[0]] = PartyIdentity(
                    name=kv.get("name", ""),
                    physical_address=kv.get("physical"),
                    national_id=kv.get("national_id"),
                    customer_id=kv.get("customer_id"),
                    birth_date_place=kv.get("birth"),
                )
            elif tag == "transfer":
                # The beneficiary is a wallet label or addr:<address>.
                amount, deadline = int(args[2]), int(args[3])
                if amount < 0 or deadline < 0:
                    raise ValueError("transfer amount and deadline must be non-negative")
                ticks += deadline
                if ticks >= ceiling:
                    raise ValueError("transfer deadlines sum to a tick too long to print")
                scenario.transfers.append((args[0], args[1], amount, deadline))
                refs.append((lines.line_no, "wallet", args[0]))
            elif tag == "withholding":
                for level, value in kv.items():
                    name = level + "_withholding"
                    rates[name] = parse_rational(value)
                    check_range(name, rates[name])
                rates_line = lines.line_no
    if not scenario.jurisdictions:
        raise LineError(0, "scenario declares no jurisdictions")
    declared = {"jurisdiction": set(scenario.jurisdictions),
                "dsc": {(code, tin) for code, tin, _ in scenario.dscs},
                "wallet": {label for _, _, label, _ in scenario.registrations}}
    for line_no, what, name in refs:
        if name not in declared[what]:
            raise LineError(line_no, _UNKNOWN[what] % name)
    scenario.policy = policy_at(rates_line, **rates)
    return scenario


def drop_threshold(probability: Fraction) -> float:
    """The float t for which random() < t decides exactly as random() <
    probability: random() returns multiples of 2**-53, so t is the least
    such multiple at or above the probability, which a float holds exactly."""
    return math.ceil(probability * 2**53) / 2**53


def run_attribution_scenario(scenario: AttributionScenario,
                             write: Callable[[str, str], None]) -> None:
    """Execute a scenario deterministically, writing `trace.txt` and
    `withholding.txt` with `write(name, text)` in chunks as the run goes:
    after each transfer once CHUNK_LINES trace lines are held, each file's
    lines so far, and the rest at the end. Joined, the trace chunks are the
    whole trace's `render_trace()`. An affirmed transfer between two
    identified wallets must pass the travel rule, or the run raises
    TravelRuleError."""
    network = AttributionNetwork(seed=scenario.seed)
    network.links = LinkConfig(
        latency={(a, b): t for a, b, t in scenario.latencies},
        drop={(a, b): drop_threshold(p) for a, b, p in scenario.drops},
    )
    for code in scenario.jurisdictions:
        network.add_authority(code)
    for asker, responder, verdict in scenario.eoi_rows:
        if verdict == "allow":
            network.eoi.allow(asker, responder)

    holder_keys: dict[tuple[str, str], bytes] = {}
    for jurisdiction, tin, holder_label in scenario.dscs:
        private, public = DEFAULT_SCHEME.keypair(b"holder|" + holder_label.encode())
        network.authorities[jurisdiction].issue_dsc(tin, public)
        holder_keys[(jurisdiction, tin)] = private

    wallets: dict[str, str] = {}  # label -> registered address
    for jurisdiction, tin, wallet_label, tampered in scenario.registrations:
        seed = b"wallet|" + wallet_label.encode()
        proof = build_ownership_proof(tin, seed, holder_keys[(jurisdiction, tin)])
        if tampered:
            bad_sig = bytes([proof.wallet_signature[0] ^ 1]) + proof.wallet_signature[1:]
            proof = proof._replace(wallet_signature=bad_sig)
        try:
            network.register(jurisdiction, proof)
        except AttributionError:  # traced as registration_rejected
            continue
        wallets[wallet_label] = proof.address.text
    # By address; a wallet whose registration was rejected has none.
    identities = {wallets[label]: identity for label, identity in scenario.identities.items()
                  if label in wallets}

    derived: dict[str, str] = {}  # unregistered label -> its would-be address
    trace, chunks = network.trace, 0
    ledger_lines = ["index origin beneficiary attribution withheld\n"]
    for index, (origin_label, beneficiary_ref, amount, deadline) in enumerate(scenario.transfers):
        origin = wallets.get(origin_label)
        if origin is None:  # its registration was rejected
            raise AttributionError("transfer %d: origin wallet %s is not registered"
                                   % (index, origin_label))
        if beneficiary_ref.startswith("addr:"):
            beneficiary = beneficiary_ref[5:]
        elif beneficiary_ref in wallets:
            beneficiary = wallets[beneficiary_ref]
        elif beneficiary_ref in derived:
            beneficiary = derived[beneficiary_ref]
        else:
            _, pub = DEFAULT_SCHEME.keypair(b"wallet|" + beneficiary_ref.encode())
            beneficiary = derived[beneficiary_ref] = address_from_pubkey(
                pub, AddrScheme.BASE58CHECK_P2PKH).text
        try:  # the amount withheld, as its trace digest and its ledger line print it
            attribution, withheld = network.originate_transfer(
                origin, beneficiary, amount, scenario.policy, deadline_ticks=deadline)
            ledger_lines.append("%d %s %s %s %s\n" % (index, origin, beneficiary, attribution,
                                                      format_rational(withheld)))
        except ValueError as exc:  # past CPython's int->str digit limit
            raise AttributionError("transfer %d: withheld amount too long to print: %s"
                                   % (index, exc)) from None
        if attribution == "affirmed" and origin in identities and beneficiary in identities:
            check_travel_rule(identities[origin], identities[beneficiary])
        if len(trace) >= CHUNK_LINES:
            write("trace.txt", network.render_trace())
            write("withholding.txt", "".join(ledger_lines))
            trace.clear()
            ledger_lines.clear()
            chunks += 1
    if trace or not chunks:  # an empty trace renders as one "\n"
        write("trace.txt", network.render_trace())
    if ledger_lines:
        write("withholding.txt", "".join(ledger_lines))
