"""End-to-end acceptance checks, one per published criterion.

Each test prints a single pass/fail line; run with `pytest -v -s
tests/test_acceptance.py` to see them. Tolerances are stated inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from fisc.addresses import AddressKind, Scheme, classify_address, derive_address
from fisc.amounts import btc, eth
from fisc.attribution.protocol import (
    ProofRejected,
    TaxAuthority,
    build_ownership_proof,
)
from fisc.attribution.sim import AttributionNetwork, LinkConfig
from fisc.blocks import BlockHeader, mine_nonce, verify_pow
from fisc.consensus import (
    AttestationVote,
    MevBlockAccounting,
    RewardSchedule,
    attestation_score,
    block_subsidy,
    collision_time_years,
    era_count,
    mev_net_builder_fee,
    mining_expectation,
    pos_issuance_and_return,
    total_issuance,
)
from fisc.defi.pool import LiquidityPool, divergence_loss
from fisc.signatures import MockScheme
from fisc.tax.engine import compute_report
from fisc.tax.events import ChainEventRecord, EventKind
from fisc.tax.lots import AccountingMethod, Hifo
from fisc.tax.policy import JurisdictionPolicy, ReceiptTreatment
from fisc.utxo import (
    Overspend,
    TxInput,
    Utxo,
    UtxoSet,
    UtxoTransaction,
    validate_utxo_tx,
)
from fisc.addresses import address_from_pubkey

SCHEME = MockScheme()


def report(criterion: str, ok: bool) -> None:
    print("criterion %s: %s" % (criterion, "PASS" if ok else "FAIL"))
    assert ok


def timed(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_01_mev_reproduction():
    acc = MevBlockAccounting(
        eth("0.031971"), (eth("0.013180"), eth("0.032166")), eth("0.063398")
    )
    result, elapsed = timed(lambda: mev_net_builder_fee(acc))
    ok = result == eth("0.013919") and result.base_units == 13_919_000_000_000_000
    report("01 mev-reproduction (exact wei, <1ms)", ok and elapsed < 0.001)


def test_02_collision_estimate():
    result, elapsed = timed(lambda: collision_time_years(600 * 10**18))
    ok = abs(result - 17_983_805_117) / 17_983_805_117 < 1e-3
    report("02 collision-estimate (0.1%, <1ms)", ok and elapsed < 0.001)


def test_03_miner_expectation():
    blocks, weeks = mining_expectation(Fraction(1, 100_000))
    report("03 miner-expectation (100000 blocks, ~100 weeks)",
           blocks == 100_000 and 99 <= weeks <= 101)


def test_04_supply_cap():
    # Interpreted as: integer halving loses at most one base unit per
    # block per era, so lifetime issuance sits within
    # era_count x halving_interval base units of the cap.
    schedule = RewardSchedule()
    total = total_issuance().base_units
    cap = schedule.supply_cap.base_units
    slack = era_count() * schedule.halving_interval_blocks
    per_era_truncation = sum(
        (Fraction(50 * 10**8, 2**era) - (50 * 10**8 >> era)) for era in range(era_count())
    )
    report(
        "04 supply-cap (within one sat/block/era of 21M BTC)",
        cap - slack <= total <= cap and per_era_truncation <= era_count(),
    )


def test_05_fork_duplication():
    from fisc.utxo import ForkSpec, apply_hard_fork

    child = apply_hard_fork({"addr": btc("8.0")}, ForkSpec(478_558, "BTC", "BCH"))
    policy = JurisdictionPolicy(fork_treatment=ReceiptTreatment.ZERO_BASIS)
    records = [
        ChainEventRecord(1, 1_501_593_374, EventKind.FORK_RECEIPT, "BCH",
                         8 * 10**8, Fraction(300)),
        ChainEventRecord(2, 1_509_593_374, EventKind.SALE, "BCH",
                         8 * 10**8, Fraction(400)),
    ]
    rep = compute_report(records, policy, AccountingMethod.FIFO, {"BCH": 8})
    report(
        "05 fork-duplication (8.0 child units, zero-basis full gain)",
        child == {"addr": btc("8.0")} and rep.total_income == 0 and rep.total_gain == 3200,
    )


def test_06_utxo_fee():
    private, public = SCHEME.keypair(b"alice")
    address = address_from_pubkey(public, Scheme.BASE58CHECK_P2PKH)
    utxos = UtxoSet([
        Utxo((b"\x01" * 32, 0), address, btc("1.2")),
        Utxo((b"\x02" * 32, 1), address, btc("1.8")),
    ])
    outputs = ((address, btc("2.5")), (address, btc("0.2")), (address, btc("0.25")))
    inputs = (((b"\x01" * 32, 0), public), ((b"\x02" * 32, 1), public))
    tx = UtxoTransaction(tuple(TxInput(op, pk) for op, pk in inputs), outputs)
    sig = SCHEME.sign(private, tx.sighash())
    tx = UtxoTransaction(tuple(TxInput(op, pk, sig) for op, pk in inputs), outputs)
    fee = validate_utxo_tx(tx, utxos)

    over_outputs = ((address, btc("3.5")),)
    over = UtxoTransaction(tuple(TxInput(op, pk) for op, pk in inputs), over_outputs)
    over_sig = SCHEME.sign(private, over.sighash())
    over = UtxoTransaction(tuple(TxInput(op, pk, over_sig) for op, pk in inputs), over_outputs)
    try:
        validate_utxo_tx(over, utxos)
        rejected = False
    except Overspend:
        rejected = True
    report("06 utxo-fee (0.05 BTC exact, overspend rejected)",
           fee == btc("0.05") and rejected)


def test_07_amm():
    pool = LiquidityPool(40, 40, Fraction(0))
    out = pool.swap_exact_in(10, x_to_y=True)
    no_fee_ok = out == 8 and pool.k >= 1600 and pool.k - 1600 <= max(pool.reserve_x, pool.reserve_y)

    fee_pool = LiquidityPool(500 * 10**8, 200 * 10**8, Fraction(3, 1000))
    amount_in = 2 * 10**8
    effective = Fraction(amount_in) * Fraction(997, 1000)
    oracle = math.floor(
        Fraction(fee_pool.reserve_y)
        - Fraction(fee_pool.k) / (Fraction(fee_pool.reserve_x) + effective)
    )
    fee_ok = fee_pool.swap_exact_in(amount_in, x_to_y=True) == oracle
    report("07 amm (40/40 K=1600 swap, 0.3% fee vs rational oracle)", no_fee_ok and fee_ok)


def test_08_divergence_loss():
    exact_zero = divergence_loss(1) == 0
    four = abs(divergence_loss(4) + 0.2) < 1e-12
    symmetric = nonpositive = True
    for i in range(1000):
        p = 10 ** (-3 + 6 * i / 999)
        loss = divergence_loss(p)
        symmetric &= abs(loss - divergence_loss(1 / p)) < 1e-12
        nonpositive &= loss <= 1e-15
    report("08 divergence-loss (DL(1)=0, DL(4)=-0.2, symmetry, <=0)",
           exact_zero and four and symmetric and nonpositive)


def _min_gain_oracle(lots, qty, scale, unit_proceeds):
    """Brute-force minimum gain = proceeds - max basis over all selections."""
    best_basis = None
    indexed = list(enumerate(lots))
    for r in range(len(lots) + 1):
        for subset in itertools.combinations(indexed, r):
            subset_qty = sum(q for _, (q, _) in subset)
            if subset_qty > qty:
                continue
            shortfall = qty - subset_qty
            basis = sum(Fraction(q, scale) * b for _, (q, b) in subset)
            if shortfall == 0:
                candidates = [basis]
            else:
                chosen = {i for i, _ in subset}
                candidates = [
                    basis + Fraction(shortfall, scale) * b
                    for i, (q, b) in indexed
                    if i not in chosen and q >= shortfall
                ]
            for candidate in candidates:
                if best_basis is None or candidate > best_basis:
                    best_basis = candidate
    return Fraction(qty, scale) * unit_proceeds - best_basis


def test_09_cost_basis_oracles():
    start = time.perf_counter()
    rng = random.Random(2026)
    scale = 10**8
    methods = (
        AccountingMethod.FIFO,
        AccountingMethod.LIFO,
        AccountingMethod.HIFO,
        AccountingMethod.AVG_MOVING,
    )
    ok = True
    for _ in range(500):
        lots = [
            (rng.randrange(1, 4) * scale, Fraction(rng.randrange(10, 1000)))
            for _ in range(rng.randrange(1, 9))
        ]
        total_qty = sum(q for q, _ in lots)
        total_cost = sum(Fraction(q, scale) * b for q, b in lots)
        price = Fraction(rng.randrange(10, 1000))

        # (a) full liquidation is method independent.
        disposal_count = rng.randrange(1, 6)
        cuts = sorted(rng.randrange(1, total_qty) for _ in range(disposal_count - 1))
        chunks = [b - a for a, b in zip([0] + cuts, cuts + [total_qty])]
        chunks = [c for c in chunks if c > 0]
        events = [ChainEventRecord(i + 1, i, EventKind.PURCHASE, "BTC", q, b)
                  for i, (q, b) in enumerate(lots)]
        events += [ChainEventRecord(len(events) + i + 1, len(events) + i, EventKind.SALE, "BTC",
                                    chunk, price) for i, chunk in enumerate(chunks)]
        gains = []
        for method in methods:
            ledger = compute_report(events, JurisdictionPolicy(), method, {"BTC": 8})
            ok &= sum(line.qty for line in ledger.lines) == total_qty
            gains.append(ledger.total_gain)
        expected_total = Fraction(total_qty, scale) * price - total_cost
        ok &= all(g == expected_total for g in gains)

        # (b) HIFO single disposal hits the brute-force minimum gain.
        qty = rng.randrange(1, total_qty + 1)
        store = Hifo([], JurisdictionPolicy(), {"BTC": 8})
        for i, (q, b) in enumerate(lots):
            store.add_lot("BTC", q, b, i)
        result = store.dispose(ChainEventRecord(len(lots) + 1, len(lots), EventKind.SALE, "BTC",
                                                qty, price))
        ok &= result.gain == _min_gain_oracle(lots, qty, scale, price)

        # (c) conservation.
        ok &= store.total_qty("BTC") == total_qty - qty
        ok &= store.total_basis("BTC") == total_cost - result.basis
        ok &= sum(p.qty for p in result.parts) == qty
        ok &= sum(p.basis for p in result.parts) == result.basis
    elapsed = time.perf_counter() - start
    report("09 cost-basis-oracles (500 ledgers, <10s)", ok and elapsed < 10)


def test_10_attestation_table():
    rows = (
        (AttestationVote(True, True, True, 1), {"source", "target", "head"}),
        (AttestationVote(True, True, False, 10), {"source", "target"}),
        (AttestationVote(True, False, False, 40), frozenset()),
    )
    boundaries = (
        (AttestationVote(True, False, False, 5), {"source"}),
        (AttestationVote(True, False, False, 6), frozenset()),
        (AttestationVote(True, True, False, 32), {"source", "target"}),
        (AttestationVote(True, True, False, 33), frozenset()),
        (AttestationVote(True, True, True, 1), {"source", "target", "head"}),
        (AttestationVote(True, True, True, 2), {"source", "target"}),
    )
    ok = all(attestation_score(v) == set(expected) for v, expected in rows + boundaries)
    report("10 attestation-table (3 rows + boundary cases)", ok)


def test_11_pos_scaling():
    ok = True
    for n in (1, 10, 10_000):
        issuance_n, return_n = pos_issuance_and_return(n)
        issuance_4n, return_4n = pos_issuance_and_return(4 * n)
        ok &= issuance_4n / issuance_n == 2
        ok &= return_4n / return_n == Fraction(1, 2)
    report("11 pos-scaling (exact 2x / 0.5x for N in {1,10,10^4})", ok)


def test_12_attribution_protocol():
    start = time.perf_counter()

    def network():
        net = AttributionNetwork(seed=5)
        for code in ("AT", "DE", "FR"):
            net.add_authority(code)
        return net

    policy = JurisdictionPolicy()

    def register(net, code, tin, seed):
        holder_private, holder_public = SCHEME.keypair(b"h|" + tin.encode())
        net.authorities[code].issue_dsc(tin, holder_public)
        proof = build_ownership_proof(tin, seed, holder_private)
        net.register(code, proof)
        return proof.address.text, holder_private

    # registered + allow => affirmed at the standard rate
    net = network()
    net.eoi.allow("DE", "FR")
    origin, _ = register(net, "DE", "D1", b"wo")
    beneficiary, _ = register(net, "FR", "F1", b"wb")
    attribution, withheld = net.originate_transfer(origin, beneficiary, 10**8, policy)
    allow_ok = attribution == "affirmed" and withheld == Fraction(1, 10)

    # registered + deny => unaffirmed at the elevated rate
    net = network()
    origin, _ = register(net, "DE", "D1", b"wo")
    beneficiary, _ = register(net, "FR", "F1", b"wb")
    attribution, withheld = net.originate_transfer(origin, beneficiary, 10**8, policy)
    deny_ok = attribution == "unaffirmed" and withheld == Fraction(3, 10)

    # tampered proof rejected at registration
    net = network()
    holder_private, holder_public = SCHEME.keypair(b"h|T")
    net.authorities["AT"].issue_dsc("T", holder_public)
    proof = build_ownership_proof("T", b"we", holder_private)
    bad = type(proof)(
        proof.tin, proof.address, proof.challenge, proof.wallet_pubkey,
        b"\x00" * len(proof.wallet_signature), proof.dsc_signature,
    )
    try:
        net.authorities["AT"].register_ownership(bad)
        tamper_ok = False
    except ProofRejected:
        tamper_ok = True

    # identical seed => byte-identical trace
    def traced():
        net = AttributionNetwork(seed=9, links=LinkConfig(drop={("DE", "FR"): 0.5}))
        for code in ("AT", "DE", "FR"):
            net.add_authority(code)
        net.eoi.allow("DE", "FR")
        address, _ = register(net, "FR", "F1", b"wb")
        origin, _ = register(net, "DE", "D1", b"wo")
        for _ in range(4):
            net.originate_transfer(origin, address, 10**8, policy)
        return net.render_trace()

    determinism_ok = traced() == traced()
    elapsed = time.perf_counter() - start
    report(
        "12 attribution-protocol (allow/deny/tamper/determinism, <1s each)",
        allow_ok and deny_ok and tamper_ok and determinism_ok and elapsed < 4,
    )


def test_13_address_handling():
    samples = (
        ("1KfVFNTxkknugXhA9uYkohMWxG8f78nyax", AddressKind.P2PKH),
        ("bc1q9jayxqvah5gynukddmms7jc9xwjc0c6emulpp", AddressKind.BECH32),
        ("Kx4cBkAHgD9CrYNhTM12P5cNgVfwTeG5nN2R4KxcZjPPLx7DfrEr", AddressKind.WIF_KEY),
        ("3FGs7JfaoAZTT6Sda73XrJ6i5Gwsuw9GUC", AddressKind.P2SH),
    )
    classify_ok = all(
        (a := classify_address(text)) is not None and a.kind is kind
        for text, kind in samples
    )
    oracle_ok = derive_address(bytes(20), Scheme.BASE58CHECK_P2PKH) == (
        "1111111111111111111114oLvT2"
    )
    rng = random.Random(99)
    roundtrip_ok = True
    for _ in range(10):
        payload = bytes(rng.randrange(256) for _ in range(20))
        for scheme in (Scheme.BASE58CHECK_P2PKH, Scheme.BECH32_V0):
            parsed = classify_address(derive_address(payload, scheme))
            roundtrip_ok &= parsed is not None and parsed.payload == payload
    report("13 address-handling (4 samples, zero-payload oracle, 10 round trips)",
           classify_ok and oracle_ok and roundtrip_ok)


def test_14_toy_pow():
    rng = random.Random(14)
    target = 2**248
    attempts = []
    ok = True
    for _ in range(100):
        prev = bytes(rng.randrange(256) for _ in range(32))
        header = BlockHeader(2, prev, b"\x22" * 32, 1_700_000_000, target, 0)
        nonce = mine_nonce(header, target, 10_000)
        ok &= nonce is not None
        if nonce is None:
            continue
        ok &= verify_pow(
            BlockHeader(2, prev, b"\x22" * 32, 1_700_000_000, target, nonce)
        )
        attempts.append(nonce + 1)
    mean = sum(attempts) / len(attempts)
    report("14 toy-pow (100 seeded runs, mean attempts in [128,512])",
           ok and 128 <= mean <= 512)
