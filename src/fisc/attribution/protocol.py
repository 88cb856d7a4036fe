"""Tax authorities, signature certificates and ownership proofs.

An authority issues a certificate binding a TIN to a holder key; the
holder then registers a dual-signed proof binding a wallet address to the
TIN. Registered addresses are answerable to cross-jurisdiction queries
subject to the exchange-of-information matrix.
"""

from __future__ import annotations

from typing import NamedTuple

from ..addresses import Address, Scheme, address_from_pubkey
from ..lineformat import FiscError
from ..signatures import DEFAULT_SCHEME


class AttributionError(FiscError):
    pass


class DuplicateTin(AttributionError):
    pass


class UnknownTin(AttributionError):
    pass


class ProofRejected(AttributionError):
    pass


class AddressConflict(ProofRejected):
    pass


class DigitalSignatureCertificate(NamedTuple):
    tin: str
    holder_pubkey: bytes
    issuer: str  # jurisdiction code
    issuer_signature: bytes

    def signed_payload(self) -> bytes:
        return b"dsc|" + self.tin.encode() + b"|" + self.holder_pubkey + b"|" + self.issuer.encode()


class OwnershipProof(NamedTuple):
    tin: str
    address: Address
    challenge: bytes
    wallet_pubkey: bytes
    wallet_signature: bytes  # over the challenge, by the address's key
    dsc_signature: bytes  # over (tin, address), by the certificate holder key

    def dsc_payload(self) -> bytes:
        return b"own|" + self.tin.encode() + b"|" + self.address.text.encode()


class EoiMatrix:
    """Pairwise exchange-of-information permissions; the diagonal is allow."""

    __slots__ = ("allowed",)

    def __init__(self):
        self.allowed: set[tuple[str, str]] = set()

    def allow(self, asker: str, responder: str) -> None:
        self.allowed.add((asker, responder))

    def permits(self, asker: str, responder: str) -> bool:
        if asker == responder:
            return True
        return (asker, responder) in self.allowed


class TaxAuthority:
    """A jurisdiction's certificate issuer and address registry."""

    __slots__ = ("jurisdiction_code", "_private", "public_key", "_certificates", "registry")

    def __init__(self, jurisdiction_code: str):
        self.jurisdiction_code = jurisdiction_code
        self._private, self.public_key = DEFAULT_SCHEME.keypair(
            b"authority|" + jurisdiction_code.encode()
        )
        self._certificates: dict[str, DigitalSignatureCertificate] = {}
        self.registry: dict[str, OwnershipProof] = {}

    # --- certificate issuance ---

    def issue_dsc(self, tin: str, holder_pubkey: bytes) -> DigitalSignatureCertificate:
        if tin in self._certificates:
            raise DuplicateTin("TIN %s already has a certificate" % tin)
        cert = DigitalSignatureCertificate(tin, holder_pubkey, self.jurisdiction_code, b"")
        signature = DEFAULT_SCHEME.sign(self._private, cert.signed_payload())
        cert = DigitalSignatureCertificate(tin, holder_pubkey, self.jurisdiction_code, signature)
        self._certificates[tin] = cert
        return cert

    # --- ownership registration ---

    def register_ownership(self, proof: OwnershipProof) -> None:
        """Accept a proof iff both signatures verify and the address is
        actually derived from the wallet key; raises on any failure."""
        cert = self._certificates.get(proof.tin)
        if cert is None:
            raise UnknownTin("no certificate issued for TIN %s" % proof.tin)
        derived = address_from_pubkey(proof.wallet_pubkey, Scheme.BASE58CHECK_P2PKH)
        if derived.text != proof.address.text:
            raise ProofRejected("address does not match the wallet public key")
        if not DEFAULT_SCHEME.verify(proof.wallet_pubkey, proof.challenge, proof.wallet_signature):
            raise ProofRejected("wallet signature invalid")
        if not DEFAULT_SCHEME.verify(cert.holder_pubkey, proof.dsc_payload(), proof.dsc_signature):
            raise ProofRejected("certificate-holder signature invalid")
        existing = self.registry.get(proof.address.text)
        if existing is not None and existing.tin != proof.tin:
            raise AddressConflict(
                "address %s already bound to TIN %s" % (proof.address.text, existing.tin)
            )
        self.registry[proof.address.text] = proof

    def knows_address(self, address_text: str) -> bool:
        """Registry hit with re-verification at response time (soundness)."""
        proof = self.registry.get(address_text)
        if proof is None:
            return False
        cert = self._certificates.get(proof.tin)
        if cert is None:
            return False
        return DEFAULT_SCHEME.verify(
            proof.wallet_pubkey, proof.challenge, proof.wallet_signature
        ) and DEFAULT_SCHEME.verify(cert.holder_pubkey, proof.dsc_payload(), proof.dsc_signature)


def build_ownership_proof(tin: str, wallet_seed: bytes, holder_private: bytes) -> OwnershipProof:
    """Construct a well-formed dual-signed proof for tests and scenarios."""
    challenge = b"prove-ownership"
    wallet_private, wallet_pub = DEFAULT_SCHEME.keypair(wallet_seed)
    address = address_from_pubkey(wallet_pub, Scheme.BASE58CHECK_P2PKH)
    wallet_sig = DEFAULT_SCHEME.sign(wallet_private, challenge)
    proof = OwnershipProof(tin, address, challenge, wallet_pub, wallet_sig, b"")
    dsc_sig = DEFAULT_SCHEME.sign(holder_private, proof.dsc_payload())
    return OwnershipProof(tin, address, challenge, wallet_pub, wallet_sig, dsc_sig)
