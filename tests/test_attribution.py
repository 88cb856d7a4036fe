import math
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

from fisc.attribution.protocol import (
    AddressConflict,
    AttributionError,
    DuplicateTin,
    EoiMatrix,
    ProofRejected,
    TaxAuthority,
    UnknownTin,
    build_ownership_proof,
)
from fisc.attribution.scenario import (
    drop_threshold,
    parse_attribution_scenario,
    run_attribution_scenario,
)
from fisc.attribution.sim import AttributionNetwork, LinkConfig
from fisc.attribution.travelrule import PartyIdentity, TravelRuleError, check_travel_rule
from fisc.lineformat import LineError
from fisc.signatures import MockScheme
from fisc.tax.policy import JurisdictionPolicy

SCHEME = MockScheme()
PINNED_SCENARIO = Path(__file__).with_name("attrib_pinned.scn")
POLICY = JurisdictionPolicy()


def holder_key(label=b"holder"):
    private, public = SCHEME.keypair(label)
    return private, public


class TestCertificates:
    def test_duplicate_tin_rejected(self):
        authority = TaxAuthority("DE")
        _, public = holder_key()
        authority.issue_dsc("DE-TIN-1", public)
        with pytest.raises(DuplicateTin):
            authority.issue_dsc("DE-TIN-1", public)


class TestRegistration:
    def setup_method(self):
        self.authority = TaxAuthority("DE")
        self.holder_private, holder_public = holder_key()
        self.authority.issue_dsc("T1", holder_public)

    def test_valid_proof_accepted(self):
        proof = build_ownership_proof("T1", b"w1", self.holder_private)
        self.authority.register_ownership(proof)
        assert self.authority.knows_address(proof.address.text)

    def test_unknown_tin(self):
        proof = build_ownership_proof("T9", b"w1", self.holder_private)
        with pytest.raises(UnknownTin):
            self.authority.register_ownership(proof)

    def test_tampered_wallet_signature(self):
        proof = build_ownership_proof("T1", b"w1", self.holder_private)
        bad = type(proof)(
            proof.tin, proof.address, proof.challenge, proof.wallet_pubkey,
            b"\x00" * len(proof.wallet_signature), proof.dsc_signature,
        )
        with pytest.raises(ProofRejected):
            self.authority.register_ownership(bad)

    def test_wrong_holder_signature(self):
        mallory_private, _ = holder_key(b"mallory")
        proof = build_ownership_proof("T1", b"w1", mallory_private)
        with pytest.raises(ProofRejected):
            self.authority.register_ownership(proof)

    def test_one_address_one_tin(self):
        other_private, other_public = holder_key(b"other")
        self.authority.issue_dsc("T2", other_public)
        first = build_ownership_proof("T1", b"w1", self.holder_private)
        self.authority.register_ownership(first)
        second = build_ownership_proof("T2", b"w1", other_private)
        with pytest.raises(AddressConflict):
            self.authority.register_ownership(second)

    def test_rebinding_same_tin_is_fine(self):
        proof = build_ownership_proof("T1", b"w1", self.holder_private)
        self.authority.register_ownership(proof)
        self.authority.register_ownership(proof)

    def test_unknown_address_not_known(self):
        assert not self.authority.knows_address("1BoatSLRHtKNngkdXEeobR76b53LETtpyT")


class TestEoi:
    def test_diagonal_always_allowed(self):
        matrix = EoiMatrix()
        assert matrix.permits("DE", "DE")

    def test_directional(self):
        matrix = EoiMatrix()
        matrix.allow("DE", "FR")
        assert matrix.permits("DE", "FR")
        assert not matrix.permits("FR", "DE")


def build_network(seed=0, drop=None, latency=None):
    network = AttributionNetwork(seed=seed)
    network.links = LinkConfig(latency=latency or {}, drop=drop or {})
    for code in ("AT", "DE", "FR"):
        network.add_authority(code)
    return network


def register_wallet(network, code, tin, wallet_seed):
    holder_private, holder_public = SCHEME.keypair(b"h|" + tin.encode())
    network.authorities[code].issue_dsc(tin, holder_public)
    proof = build_ownership_proof(tin, wallet_seed, holder_private)
    network.register(code, proof)
    return proof.address.text


class TestQueries:
    def test_affirmation_when_permitted(self):
        network = build_network()
        network.eoi.allow("DE", "FR")
        address = register_wallet(network, "FR", "FR-1", b"wa")
        outcome = network.query_beneficiary_jurisdiction("DE", address, 8)
        assert outcome.affirmed and outcome.jurisdiction == "FR"

    def test_no_false_affirmation(self):
        network = build_network()
        network.eoi.allow("DE", "FR")
        outcome = network.query_beneficiary_jurisdiction(
            "DE", "1BoatSLRHtKNngkdXEeobR76b53LETtpyT", 8
        )
        assert not outcome.affirmed and outcome.jurisdiction is None

    def test_eoi_denial_silences_responder(self):
        network = build_network()
        address = register_wallet(network, "FR", "FR-1", b"wa")
        outcome = network.query_beneficiary_jurisdiction("DE", address, 8)
        assert not outcome.affirmed

    def test_deadline_monotone(self):
        # An affirmation obtained at some deadline is also obtained at any
        # longer deadline (no drops, fixed latency).
        latency = {("DE", "FR"): 3, ("FR", "DE"): 3}
        address = None
        results = []
        for deadline in (1, 5, 6, 10, 20):
            network = build_network(latency=dict(latency))
            network.eoi.allow("DE", "FR")
            address = register_wallet(network, "FR", "FR-1", b"wa")
            results.append(network.query_beneficiary_jurisdiction("DE", address, deadline).affirmed)
        assert results == [False, False, True, True, True]

    def test_total_drop_means_unaffirmed(self):
        network = build_network(drop={("DE", "FR"): 1.0})
        network.eoi.allow("DE", "FR")
        address = register_wallet(network, "FR", "FR-1", b"wa")
        assert not network.query_beneficiary_jurisdiction("DE", address, 8).affirmed

    def test_trace_deterministic_across_reruns(self):
        def run():
            network = build_network(seed=42, drop={("DE", "FR"): 0.5})
            network.eoi.allow("DE", "FR")
            network.eoi.allow("DE", "AT")
            address = register_wallet(network, "FR", "FR-1", b"wa")
            for _ in range(5):
                network.query_beneficiary_jurisdiction("DE", address, 8)
            return network.render_trace()

        assert run() == run()

    def test_register_traces_outcome(self):
        network = build_network()
        holder_private, holder_public = SCHEME.keypair(b"h|FR-1")
        network.authorities["FR"].issue_dsc("FR-1", holder_public)
        proof = build_ownership_proof("FR-1", b"wa", holder_private)
        network.register("FR", proof)
        with pytest.raises(UnknownTin):
            network.register("DE", proof)
        assert [tuple(line.split()[1:3]) for line in network.trace] == [
            ("FR", "registered"), ("DE", "registration_rejected"),
        ]
        assert proof.address.text in network.authorities["FR"].registry
        assert proof.address.text not in network.authorities["DE"].registry

    def test_soundness_under_registry_tampering(self):
        # A proof mutated after registration fails re-verification at
        # response time, so the authority stays silent.
        network = build_network()
        network.eoi.allow("DE", "FR")
        address = register_wallet(network, "FR", "FR-1", b"wa")
        registry = network.authorities["FR"].registry
        proof = registry[address]
        registry[address] = type(proof)(
            proof.tin, proof.address, proof.challenge, proof.wallet_pubkey,
            b"\x00" * len(proof.wallet_signature), proof.dsc_signature,
        )
        assert not network.query_beneficiary_jurisdiction("DE", address, 8).affirmed


class TestTransfers:
    def test_affirmed_standard_withholding(self):
        network = build_network()
        network.eoi.allow("DE", "FR")
        origin = register_wallet(network, "DE", "DE-1", b"wo")
        beneficiary = register_wallet(network, "FR", "FR-1", b"wb")
        attribution, withheld = network.originate_transfer(
            origin, beneficiary, 10**8, POLICY
        )
        assert attribution == "affirmed"
        assert withheld == Fraction(1, 10)

    def test_unaffirmed_elevated_withholding(self):
        network = build_network()
        origin = register_wallet(network, "DE", "DE-1", b"wo")
        attribution, withheld = network.originate_transfer(
            origin, "1BoatSLRHtKNngkdXEeobR76b53LETtpyT", 10**8, POLICY
        )
        assert attribution == "unaffirmed"
        assert withheld == Fraction(3, 10)

    def test_origin_registered_thrice_queries_from_its_lowest_code(self):
        network = build_network()
        origin = register_wallet(network, "FR", "FR-1", b"wo")
        for code in ("AT", "DE"):
            assert register_wallet(network, code, code + "-1", b"wo") == origin
        network.originate_transfer(origin, "1BoatSLRHtKNngkdXEeobR76b53LETtpyT", 1, POLICY)
        assert [line.split()[1] for line in network.trace
                if line.split()[2] == "query_broadcast"] == ["AT"]

    def test_unregistered_origin_rejected(self):
        network = build_network()
        with pytest.raises(AttributionError):
            network.originate_transfer(
                "1BoatSLRHtKNngkdXEeobR76b53LETtpyT",
                "1BoatSLRHtKNngkdXEeobR76b53LETtpyT",
                1, POLICY,
            )


class TestTravelRule:
    ALICE = PartyIdentity("Alice", physical_address="1 Main St")
    BOB = PartyIdentity("Bob")

    def test_five_components_present(self):
        # Both names and a physical identifier; each account is the
        # wallet's registered address.
        check_travel_rule(self.ALICE, self.BOB)

    def test_birth_date_alone_suffices(self):
        check_travel_rule(PartyIdentity("Alice", birth_date_place="1980-01-01 Vienna"), self.BOB)

    def test_missing_name_rejected(self):
        with pytest.raises(TravelRuleError, match="originator name is mandatory"):
            check_travel_rule(PartyIdentity("", physical_address="x"), self.BOB)
        with pytest.raises(TravelRuleError, match="beneficiary name is mandatory"):
            check_travel_rule(self.ALICE, PartyIdentity(""))

    def test_missing_physical_identifier_rejected(self):
        with pytest.raises(TravelRuleError, match="originator needs a physical address"):
            check_travel_rule(PartyIdentity("Alice"), self.BOB)


SCENARIO = """
seed 7
jurisdiction AT
jurisdiction DE
eoi AT DE allow
dsc DE T1 bob
dsc AT T2 ann
register DE T1 wallet_bob
register AT T2 wallet_ann
register_tampered DE T1 wallet_eve
transfer wallet_ann wallet_bob 100000000 8
transfer wallet_ann stranger 50000000 8
withholding standard=1/10 elevated=3/10
"""


def run_scenario(text: str):
    """The scenario's withholding ledger and its whole trace, each joined
    from the chunks the run wrote under its name."""
    chunks: dict[str, list[str]] = {"withholding.txt": [], "trace.txt": []}
    run_attribution_scenario(parse_attribution_scenario(text),
                             lambda name, chunk: chunks[name].append(chunk))
    return tuple("".join(parts) for parts in chunks.values())


class TestScenario:
    def test_end_to_end(self):
        ledger, trace = run_scenario(SCENARIO)
        lines = ledger.strip().splitlines()
        assert lines[1].split()[3:] == ["affirmed", "0.1"]
        assert lines[2].split()[3:] == ["unaffirmed", "0.15"]
        # The tampered registration is traced once, with its reason's digest.
        rejected = sha256(b"wallet signature invalid").hexdigest()[:12]
        assert [line for line in trace.splitlines() if "registration_rejected" in line] == [
            "0 DE registration_rejected " + rejected]

    def test_deterministic_outputs(self):
        first, first_trace = run_scenario(SCENARIO)
        second, second_trace = run_scenario(SCENARIO)
        assert first_trace == second_trace
        assert first == second

    def test_pinned_outputs(self):
        # The scenario reaches every trace kind. Its digests pin every byte
        # of both outputs, so a reordered trace or a digest taken over the
        # wrong payload fails here, where a rerun comparison would pass.
        ledger, trace = run_scenario(PINNED_SCENARIO.read_text())
        assert sha256(trace.encode()).hexdigest() == (
            "b922238142057c91f1ba8b009cc34eaf80afc7b0312d600a600acc9024cf6b3f"
        )
        assert sha256(ledger.encode()).hexdigest() == (
            "b5342c08cecabd954abf90b4cdf7d708b793d2f12183c32f96377960a564e332"
        )

    def test_travel_rule_checked_only_when_affirmed_with_identities(self):
        """Ann has no physical identifier, so her affirmed transfer to an
        identified Bob breaks the travel rule. With Bob unidentified, or
        with the transfer unaffirmed, nothing is checked and the identity
        lines change no output."""
        ann, bob = "identity wallet_ann name=Ann\n", "identity wallet_bob name=Bob\n"
        with pytest.raises(TravelRuleError, match="originator needs a physical address"):
            run_scenario(SCENARIO + ann + bob)
        denied = SCENARIO.replace("eoi AT DE allow", "eoi AT DE deny")
        for plain, identified in [(SCENARIO, SCENARIO + ann), (denied, denied + ann + bob)]:
            assert run_scenario(identified) == run_scenario(plain)

    def test_missing_jurisdiction_rejected(self):
        with pytest.raises(LineError):
            parse_attribution_scenario("seed 1\n")

    def test_bad_directive_line_number(self):
        with pytest.raises(LineError) as err:
            parse_attribution_scenario("jurisdiction AT\nbogus x\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("offset,dropped", [(-1, True), (0, False)], ids=["below", "at"])
    def test_drop_threshold_decides_as_the_exact_probability(self, offset, dropped):
        # random() returns k / 2**53. float(2/3) rounds down past the
        # multiple just below 2/3, so it would deliver the one draw there
        # that the exact probability drops.
        probability = Fraction(2, 3)
        k = math.ceil(probability * 2**53) + offset
        assert (Fraction(k, 2**53) < probability) is dropped
        assert (k / 2**53 < drop_threshold(probability)) is dropped
        assert (k / 2**53 < float(probability)) is False
