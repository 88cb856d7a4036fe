"""The indexed lot store and integer format_rational against the seed versions.

`seed_oracles` holds the original implementations. Both sides get the same
random operation sequences and must agree exactly, errors included.
"""

from datetime import datetime, timezone
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisc.amounts import format_rational, parse_rational
from fisc.tax import engine
from fisc.tax.events import ChainEventRecord, EventKind
from fisc.tax.lots import AccountingMethod, LotError, LotStore
from fisc.tax.policy import JurisdictionPolicy
from seed_oracles import SeedLotStore, seed_format_rational

DECIMALS = {"A": 0, "B": 2}
ASSETS = sorted(DECIMALS)
PRICES = st.fractions(min_value=0, max_value=1000, max_denominator=12)
# The engine-level methods all consume in FIFO order, so the other
# orderings are drawn more often.
METHODS = (AccountingMethod.LIFO, AccountingMethod.HIFO, AccountingMethod.SPEC_ID) * 2 + tuple(
    AccountingMethod
)


def outcome(call):
    try:
        return call()
    except LotError as exc:
        return type(exc)


def draw_specid(data, store: SeedLotStore, asset: str) -> tuple[int, ...]:
    """Distinct references: a prefix of the asset's open lots in random order,
    sometimes followed by an id that is exhausted, foreign or unknown."""
    open_ids = data.draw(st.permutations([l.lot_id for l in store.lots(asset)]))
    refs = open_ids[: data.draw(st.integers(0, len(open_ids)))]
    extra = data.draw(st.none() | st.integers(1, store._next_id + 1))
    if extra is not None and extra not in refs:
        refs.append(extra)
    return tuple(refs)


def assert_same_books(new: LotStore, old: SeedLotStore) -> None:
    assert new.all_assets() == old.all_assets()
    for asset in ASSETS:
        assert new.total_qty(asset) == old.total_qty(asset)
        assert new.total_basis(asset) == old.total_basis(asset)
        assert new.lots(asset) == old.lots(asset)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_lot_store_matches_seed_store(data):
    new, old = LotStore(DECIMALS), SeedLotStore(DECIMALS)
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(("add",) * 3 + ("dispose",) * 3 + ("rebase",)))
        asset = data.draw(st.sampled_from(ASSETS))
        if op == "add":
            # acquired_at is drawn independently of the order of additions,
            # so FIFO must follow timestamps, not insertion.
            args = (asset, data.draw(st.integers(1, 500)), data.draw(PRICES),
                    data.draw(st.integers(0, 30)))
            # A pooled merge rebuilds the heaps, so keep most additions unpooled.
            pooled = data.draw(st.sampled_from((False, False, False, True)))
            assert new.add_lot(*args, pooled=pooled) == old.add_lot(*args, pooled=pooled)
        elif op == "dispose":
            method = data.draw(st.sampled_from(METHODS))
            qty = data.draw(st.integers(1, old.total_qty(asset) + 5))
            specid = draw_specid(data, old, asset) if method is AccountingMethod.SPEC_ID else None
            args = (asset, qty, data.draw(PRICES), method, specid, data.draw(st.none() | PRICES))
            assert outcome(lambda: new.dispose(*args)) == outcome(lambda: old.dispose(*args))
        else:
            prices = data.draw(st.dictionaries(st.sampled_from(ASSETS), PRICES))
            new.rebase_all(prices)
            old.rebase_all(prices)
        assert_same_books(new, old)


KINDS = (EventKind.PURCHASE, EventKind.PURCHASE, EventKind.MINING_REWARD,
         EventKind.SALE, EventKind.SALE, EventKind.GIFT, EventKind.SELF_TRANSFER)
START = int(datetime(2019, 1, 1, tzinfo=timezone.utc).timestamp())


@st.composite
def event_streams(draw):
    records = []
    held = dict.fromkeys(ASSETS, 0)
    for seq in range(1, draw(st.integers(1, 25)) + 1):
        kind = draw(st.sampled_from(KINDS))
        asset = draw(st.sampled_from(ASSETS))
        if kind in engine.DISPOSAL_KINDS:
            if not held[asset]:
                continue
            qty = draw(st.integers(1, held[asset]))
            held[asset] -= qty
        else:
            qty = draw(st.integers(1, 300))
            if kind is not EventKind.SELF_TRANSFER:
                held[asset] += qty
        # Timestamps wander over three years and need not rise with seq.
        when = START + draw(st.integers(0, 3 * 365)) * 86_400
        records.append(ChainEventRecord(seq, when, kind, asset, qty,
                                        draw(st.fractions(1, 500, max_denominator=8))))
    return records


@pytest.mark.parametrize(
    "method", [m for m in AccountingMethod if m is not AccountingMethod.SPEC_ID]
)
@given(records=event_streams())
@settings(max_examples=40, deadline=None)
def test_report_matches_seed_store(method, records):
    policy = JurisdictionPolicy()
    new = engine.compute_report(records, policy, method, DECIMALS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "LotStore", SeedLotStore)
        old = engine.compute_report(records, policy, method, DECIMALS)
    assert new.to_csv() == old.to_csv()
    assert new.to_totals_json() == old.to_totals_json()


@given(st.integers(-10**40, 10**40), st.integers(0, 60), st.integers(0, 60))
@example(0, 0, 0)
@example(0, 3, 2)
@example(-1, 1, 0)
@example(-7, 0, 5)
@example(123456789, 60, 0)
@example(1, 0, 60)
def test_format_rational_terminating_matches_seed(num, a, b):
    value = Fraction(num, 2**a * 5**b)
    text = format_rational(value)
    assert text == seed_format_rational(value)
    assert parse_rational(text) == value


@given(st.fractions() | st.integers())
@example(Fraction(1, 3))
@example(Fraction(-22, 7))
@example(Fraction(7, 30))
@example(Fraction(1, 2**10 * 3))
def test_format_rational_matches_seed(value):
    assert format_rational(value) == seed_format_rational(value)
    assert parse_rational(format_rational(value)) == value
