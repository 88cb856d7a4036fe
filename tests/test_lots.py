import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisc.tax.lots import (
    AccountingMethod,
    InsufficientQuantity,
    Lot,
    LotError,
    LotStore,
    _respread_basis,
    LotConsumption,
)

BTC = 10**8


def store_with_three_lots():
    """1 BTC at 100, 1 at 300, 1 at 200, acquired in that order."""
    store = LotStore({"BTC": 8})
    store.add_lot("BTC", BTC, Fraction(100), 10)
    store.add_lot("BTC", BTC, Fraction(300), 20)
    store.add_lot("BTC", BTC, Fraction(200), 30)
    return store


class TestOrderedMethods:
    def test_fifo_gain(self):
        store = store_with_three_lots()
        result = store.dispose("BTC", BTC, Fraction(250), AccountingMethod.FIFO)
        assert result.basis == 100 and result.gain == 150

    def test_lifo_gain(self):
        store = store_with_three_lots()
        result = store.dispose("BTC", BTC, Fraction(250), AccountingMethod.LIFO)
        assert result.basis == 200 and result.gain == 50

    def test_hifo_gain(self):
        store = store_with_three_lots()
        result = store.dispose("BTC", BTC, Fraction(250), AccountingMethod.HIFO)
        assert result.basis == 300 and result.gain == -50

    def test_partial_lot_consumption(self):
        store = store_with_three_lots()
        result = store.dispose("BTC", BTC + BTC // 2, Fraction(250), AccountingMethod.FIFO)
        assert result.basis == 100 + 150
        assert [p.lot_id for p in result.parts] == [1, 2]
        assert store.total_qty("BTC") == BTC + BTC // 2

    def test_overdraw_rejected(self):
        store = store_with_three_lots()
        with pytest.raises(InsufficientQuantity):
            store.dispose("BTC", 4 * BTC, Fraction(1), AccountingMethod.FIFO)


    def test_mixed_orderings_share_one_book(self):
        store = store_with_three_lots()
        store.dispose("BTC", BTC // 2, Fraction(250), AccountingMethod.FIFO)
        # SpecID uses up lot 1 while FIFO's order still lists it first.
        store.dispose(
            "BTC", BTC // 2, Fraction(250), AccountingMethod.SPEC_ID, specid_lots=(1,)
        )
        result = store.dispose("BTC", BTC // 2, Fraction(250), AccountingMethod.FIFO)
        assert [(p.lot_id, p.qty) for p in result.parts] == [(2, BTC // 2)]


class TestSpecId:
    def test_explicit_lot_choice(self):
        store = store_with_three_lots()
        result = store.dispose(
            "BTC", BTC, Fraction(250), AccountingMethod.SPEC_ID, specid_lots=(3,)
        )
        assert result.basis == 200

    def test_missing_reference_rejected(self):
        store = store_with_three_lots()
        with pytest.raises(LotError):
            store.dispose("BTC", BTC, Fraction(250), AccountingMethod.SPEC_ID)

    def test_unknown_lot_rejected(self):
        store = store_with_three_lots()
        with pytest.raises(LotError):
            store.dispose(
                "BTC", BTC, Fraction(250), AccountingMethod.SPEC_ID, specid_lots=(99,)
            )

    def test_repeated_lot_rejected(self):
        # Referencing lot 1 twice used to count its quantity twice: the
        # disposal passed the cover check and consumed only one lot's worth.
        store = store_with_three_lots()
        with pytest.raises(LotError):
            store.dispose(
                "BTC", BTC + BTC // 2, Fraction(250), AccountingMethod.SPEC_ID,
                specid_lots=(1, 1),
            )
        assert store.total_qty("BTC") == 3 * BTC

    def test_referenced_lots_too_small(self):
        store = store_with_three_lots()
        with pytest.raises(InsufficientQuantity):
            store.dispose(
                "BTC", 2 * BTC, Fraction(250), AccountingMethod.SPEC_ID, specid_lots=(1,)
            )


class TestAveragePooling:
    def test_pooled_lots_merge(self):
        store = LotStore({"BTC": 8})
        store.add_lot("BTC", BTC, Fraction(100), 10, pooled=True)
        store.add_lot("BTC", BTC, Fraction(300), 20, pooled=True)
        lots = store.lots("BTC")
        assert len(lots) == 1
        assert lots[0].unit_basis == 200
        assert lots[0].remaining_qty == 2 * BTC

    def test_moving_average_gain(self):
        store = LotStore({"BTC": 8})
        store.add_lot("BTC", BTC, Fraction(100), 10, pooled=True)
        store.add_lot("BTC", BTC, Fraction(300), 20, pooled=True)
        result = store.dispose("BTC", BTC, Fraction(350), AccountingMethod.AVG_MOVING)
        assert result.basis == 200 and result.gain == 150


    def test_pooled_merge_reorders_later_disposals(self):
        store = LotStore({"BTC": 8})
        store.add_lot("BTC", BTC, Fraction(100), 10)
        store.add_lot("BTC", BTC, Fraction(300), 20)
        store.dispose("BTC", BTC // 2, Fraction(350), AccountingMethod.HIFO)
        # Merging into lot 1 raises its basis above lot 2's.
        store.add_lot("BTC", BTC, Fraction(1000), 30, pooled=True)
        result = store.dispose("BTC", BTC // 2, Fraction(350), AccountingMethod.HIFO)
        assert [p.lot_id for p in result.parts] == [1]


class TestOverride:
    def test_respread_sums_exactly(self):
        parts = [
            LotConsumption(1, 30, Fraction(0), 1),
            LotConsumption(2, 30, Fraction(0), 2),
            LotConsumption(3, 40, Fraction(0), 3),
        ]
        total = Fraction(1000, 3)
        out = _respread_basis(parts, 100, total)
        assert sum(p.basis for p in out) == total
        assert [p.qty for p in out] == [30, 30, 40]

    def test_dispose_with_override(self):
        store = store_with_three_lots()
        result = store.dispose(
            "BTC", 2 * BTC, Fraction(250), AccountingMethod.AVG_TOTAL,
            basis_override=Fraction(333),
        )
        assert result.basis == 333
        assert sum(p.basis for p in result.parts) == 333


class TestRebase:
    def test_rebase_sets_unit_basis(self):
        store = store_with_three_lots()
        store.rebase_all({"BTC": Fraction(500)})
        assert all(l.unit_basis == 500 for l in store.lots("BTC"))

    def test_hifo_after_rebase_follows_new_basis(self):
        store = store_with_three_lots()
        store.dispose("BTC", BTC // 2, Fraction(250), AccountingMethod.HIFO)
        store.rebase_all({"BTC": Fraction(500)})
        # Every lot now has basis 500, so HIFO falls back to lot id order.
        result = store.dispose("BTC", BTC // 2, Fraction(250), AccountingMethod.HIFO)
        assert [p.lot_id for p in result.parts] == [1]

    def test_unknown_asset_untouched(self):
        store = store_with_three_lots()
        store.rebase_all({"ETH": Fraction(500)})
        assert {l.unit_basis for l in store.lots("BTC")} == {100, 300, 200}


def hifo_oracle(lots, qty):
    """Minimal-gain basis: enumerate (fully consumed subset, partial lot)."""
    best = None
    indexed = list(enumerate(lots))
    for r in range(len(lots) + 1):
        for subset in itertools.combinations(indexed, r):
            subset_qty = sum(q for _, (q, _) in subset)
            if subset_qty > qty:
                continue
            shortfall = qty - subset_qty
            basis = sum(Fraction(q, BTC) * b for _, (q, b) in subset)
            if shortfall == 0:
                candidates = [basis]
            else:
                chosen = {i for i, _ in subset}
                candidates = [
                    basis + Fraction(shortfall, BTC) * b
                    for i, (q, b) in indexed
                    if i not in chosen and q >= shortfall
                ]
            for candidate in candidates:
                if best is None or candidate > best:
                    best = candidate
    return best


class TestHifoOracle:
    def test_matches_exhaustive_enumeration(self):
        # HIFO maximizes the consumed basis (a fractional knapsack), and
        # every optimum is "some lots consumed fully plus at most one
        # partial lot", so brute force over those shapes is a complete
        # independent oracle.
        rng = random.Random(7)
        for _ in range(20):
            lots = [
                (rng.randrange(1, 5) * BTC, Fraction(rng.randrange(50, 500)))
                for _ in range(rng.randrange(2, 8))
            ]
            total = sum(q for q, _ in lots)
            qty = rng.randrange(BTC, total + 1)
            store = LotStore({"BTC": 8})
            for i, (q, b) in enumerate(lots):
                store.add_lot("BTC", q, b, i)
            result = store.dispose("BTC", qty, Fraction(1000), AccountingMethod.HIFO)
            assert result.basis == hifo_oracle(lots, qty)


class TestConservation:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5 * BTC),
                st.fractions(min_value=0, max_value=1000),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(
            [AccountingMethod.FIFO, AccountingMethod.LIFO, AccountingMethod.HIFO]
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_basis_and_quantity_conserved(self, lots, method, rng):
        store = LotStore({"BTC": 8})
        for i, (q, b) in enumerate(lots):
            store.add_lot("BTC", q, b, i)
        total_qty = store.total_qty("BTC")
        total_basis = store.total_basis("BTC")
        qty = rng.randrange(1, total_qty + 1)
        result = store.dispose("BTC", qty, Fraction(100), method)
        assert result.qty == qty
        assert sum(p.qty for p in result.parts) == qty
        assert sum(p.basis for p in result.parts) == result.basis
        # Whatever leaves the store is exactly what the disposal reports.
        assert store.total_qty("BTC") == total_qty - qty
        assert store.total_basis("BTC") == total_basis - result.basis
