import pytest
from fractions import Fraction

from fisc.addresses import Scheme, address_from_pubkey
from fisc.amounts import Amount, btc
from fisc.signatures import MockScheme
from fisc.utxo import (
    DuplicateInput,
    ForkSpec,
    Overspend,
    OwnerMismatch,
    TxInput,
    UnknownOutpoint,
    Utxo,
    UtxoSet,
    UtxoError,
    UtxoTransaction,
    apply_hard_fork,
    validate_utxo_tx,
)

SCHEME = MockScheme()


def make_wallet(label: bytes):
    private, public = SCHEME.keypair(label)
    return private, public, address_from_pubkey(public, Scheme.BASE58CHECK_P2PKH)


def signed_tx(inputs, outputs, keys):
    """Build a transaction and sign every input with the matching key."""
    tx = UtxoTransaction(
        tuple(TxInput(op, pub) for (op, pub) in inputs), tuple(outputs)
    )
    message = tx.sighash()
    signed_inputs = tuple(
        TxInput(op, pub, SCHEME.sign(keys[pub], message)) for (op, pub) in inputs
    )
    return UtxoTransaction(signed_inputs, tuple(outputs))


@pytest.fixture
def alice_utxos():
    priv, pub, addr = make_wallet(b"alice")
    utxo_set = UtxoSet(
        [
            Utxo((b"\x01" * 32, 0), addr, btc("1.2")),
            Utxo((b"\x02" * 32, 1), addr, btc("1.8")),
        ]
    )
    return priv, pub, addr, utxo_set


class TestValidation:
    def test_fee_matches_worked_example(self, alice_utxos):
        # Alice sends 2.5 to Bob, 0.2 to Carol, 0.25 change; 0.05 is the fee.
        priv, pub, addr, utxo_set = alice_utxos
        _, _, bob = make_wallet(b"bob")
        _, _, carol = make_wallet(b"carol")
        tx = signed_tx(
            [((b"\x01" * 32, 0), pub), ((b"\x02" * 32, 1), pub)],
            [(bob, btc("2.5")), (carol, btc("0.2")), (addr, btc("0.25"))],
            {pub: priv},
        )
        fee = validate_utxo_tx(tx, utxo_set)
        assert fee == btc("0.05")

    def test_zero_fee(self, alice_utxos):
        priv, pub, addr, utxo_set = alice_utxos
        tx = signed_tx([((b"\x01" * 32, 0), pub)], [(addr, btc("1.2"))], {pub: priv})
        assert validate_utxo_tx(tx, utxo_set) == btc("0")

    def test_overspend_rejected(self, alice_utxos):
        priv, pub, addr, utxo_set = alice_utxos
        tx = signed_tx([((b"\x01" * 32, 0), pub)], [(addr, btc("1.5"))], {pub: priv})
        with pytest.raises(Overspend):
            validate_utxo_tx(tx, utxo_set)

    def test_unknown_outpoint(self, alice_utxos):
        priv, pub, addr, utxo_set = alice_utxos
        tx = signed_tx([((b"\xff" * 32, 0), pub)], [(addr, btc("1"))], {pub: priv})
        with pytest.raises(UnknownOutpoint):
            validate_utxo_tx(tx, utxo_set)

    def test_duplicate_input(self, alice_utxos):
        priv, pub, addr, utxo_set = alice_utxos
        op = (b"\x01" * 32, 0)
        tx = signed_tx([(op, pub), (op, pub)], [(addr, btc("2"))], {pub: priv})
        with pytest.raises(DuplicateInput):
            validate_utxo_tx(tx, utxo_set)

    def test_owner_mismatch(self, alice_utxos):
        _, _, addr, utxo_set = alice_utxos
        mallory_priv, mallory_pub, _ = make_wallet(b"mallory")
        tx = signed_tx(
            [((b"\x01" * 32, 0), mallory_pub)], [(addr, btc("1"))],
            {mallory_pub: mallory_priv},
        )
        with pytest.raises(OwnerMismatch):
            validate_utxo_tx(tx, utxo_set)

    def test_negative_output_rejected(self, alice_utxos):
        # 1.2 in, 10 and -8.8 out: the sums balance, but the payee would
        # hold 10 where 1.2 was.
        priv, pub, addr, utxo_set = alice_utxos
        _, _, bob = make_wallet(b"bob")
        tx = signed_tx([((b"\x01" * 32, 0), pub)], [(bob, btc("10")), (addr, btc("-8.8"))],
                       {pub: priv})
        with pytest.raises(UtxoError):
            validate_utxo_tx(tx, utxo_set)

    def test_outputs_in_other_decimals_rejected(self, alice_utxos):
        # 1.2 BTC in (8 decimals) and 1.2e8 base units out at 6 decimals:
        # equal base-unit sums, a hundred times the value.
        priv, pub, addr, utxo_set = alice_utxos
        tx = signed_tx([((b"\x01" * 32, 0), pub)], [(addr, Amount(btc("1.2").base_units, 6))],
                       {pub: priv})
        with pytest.raises(ValueError):
            validate_utxo_tx(tx, utxo_set)

    def test_bad_signature(self, alice_utxos):
        priv, pub, addr, utxo_set = alice_utxos
        tx = UtxoTransaction(
            (TxInput((b"\x01" * 32, 0), pub, b"\x00" * 32),), ((addr, btc("1")),)
        )
        from fisc.utxo import BadSignature

        with pytest.raises(BadSignature):
            validate_utxo_tx(tx, utxo_set)


class TestHardFork:
    def test_worked_example(self):
        spec = ForkSpec(478558, "BTC", "BCH")
        child = apply_hard_fork({"3FGs...": btc("8.0")}, spec)
        assert child == {"3FGs...": btc("8.0")}

    def test_empty_holdings(self):
        assert apply_hard_fork({}, ForkSpec(1, "BTC", "BCH")) == {}

    def test_ratio(self):
        spec = ForkSpec(100, "A", "B", Fraction(2))
        assert apply_hard_fork({"x": btc("3.0")}, spec) == {"x": btc("6.0")}

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ForkSpec(0, "A", "B")
        with pytest.raises(ValueError):
            ForkSpec(1, "A", "B", Fraction(-1))
