"""ECDSA/secp256k1 signature scheme, backed by the optional `cryptography` package."""

import pytest

pytest.importorskip("cryptography")

from fisc.attribution.protocol import TaxAuthority, build_ownership_proof  # noqa: E402
from fisc.signatures import EcdsaScheme  # noqa: E402


@pytest.fixture(scope="module")
def scheme():
    return EcdsaScheme()


def test_sign_verify_round_trip(scheme):
    private, public = scheme.keypair(b"alice")
    assert len(private) == 32 and len(public) == 33
    assert scheme.keypair(b"alice") == (private, public)
    signature = scheme.sign(private, b"transfer 1 BTC")
    assert scheme.verify(public, b"transfer 1 BTC", signature)


def test_tampered_message_rejected(scheme):
    private, public = scheme.keypair(b"alice")
    signature = scheme.sign(private, b"transfer 1 BTC")
    assert not scheme.verify(public, b"transfer 9 BTC", signature)
    assert not scheme.verify(scheme.keypair(b"mallory")[1], b"transfer 1 BTC", signature)


def test_ownership_registration(scheme):
    authority = TaxAuthority("DE", scheme=scheme)
    holder_private, holder_public = scheme.keypair(b"holder")
    assert authority.verify_dsc(authority.issue_dsc("T1", holder_public))
    proof = build_ownership_proof("T1", b"wallet", holder_private, scheme=scheme)
    authority.register_ownership(proof)
    assert authority.knows_address(proof.address.text)
    assert not authority.knows_address("1BoatSLRHtKNngkdXEeobR76b53LETtpyT")
