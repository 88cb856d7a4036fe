import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisc.tax.engine import AvgMoving
from fisc.tax.events import ChainEventRecord, EventKind
from fisc.tax.lots import (
    Hifo,
    InsufficientQuantity,
    Lifo,
    LotError,
    LotStore,
    Periodic,
    SpecId,
)
from fisc.tax.policy import JurisdictionPolicy

BTC = 10**8


def book_with_three_lots(book_class=LotStore):
    """1 BTC at 100, 1 at 300, 1 at 200, acquired in that order."""
    book = book_class([], JurisdictionPolicy(), {"BTC": 8})
    book.add_lot("BTC", BTC, Fraction(100), 10)
    book.add_lot("BTC", BTC, Fraction(300), 20)
    book.add_lot("BTC", BTC, Fraction(200), 30)
    return book


def sale(qty, price=250, specid=None):
    return ChainEventRecord(9, 90, EventKind.SALE, "BTC", qty, Fraction(price),
                            specid_lot=specid)


class TestOrderedMethods:
    def test_fifo_gain(self):
        result = book_with_three_lots(LotStore).dispose(sale(BTC))
        assert result.basis == 100 and result.gain == 150

    def test_lifo_gain(self):
        result = book_with_three_lots(Lifo).dispose(sale(BTC))
        assert result.basis == 200 and result.gain == 50

    def test_hifo_gain(self):
        result = book_with_three_lots(Hifo).dispose(sale(BTC))
        assert result.basis == 300 and result.gain == -50

    def test_hifo_tie_goes_to_the_lowest_lot_id(self):
        book = Hifo([], JurisdictionPolicy(), {"BTC": 8})
        for acquired_at in (30, 10, 20):
            book.add_lot("BTC", BTC, Fraction(100), acquired_at)
        book.dispose(sale(BTC // 2))  # builds the heap
        book.add_lot("BTC", BTC, Fraction(100), 0)
        result = book.dispose(sale(2 * BTC))
        assert [(p.lot_id, p.qty) for p in result.parts] == [(1, BTC // 2), (2, BTC),
                                                             (3, BTC // 2)]

    def test_partial_lot_consumption(self):
        book = book_with_three_lots()
        result = book.dispose(sale(BTC + BTC // 2))
        assert result.basis == 100 + 150
        assert [p.lot_id for p in result.parts] == [1, 2]
        assert book.total_qty("BTC") == BTC + BTC // 2

    def test_overdraw_rejected(self):
        book = book_with_three_lots()
        with pytest.raises(InsufficientQuantity):
            book.dispose(sale(4 * BTC, 1))


class TestSpecId:
    def test_explicit_lot_choice(self):
        result = book_with_three_lots(SpecId).dispose(sale(BTC, specid=(3,)))
        assert result.basis == 200

    def test_missing_reference_rejected(self):
        with pytest.raises(LotError):
            book_with_three_lots(SpecId).dispose(sale(BTC))

    def test_unknown_lot_rejected(self):
        with pytest.raises(LotError):
            book_with_three_lots(SpecId).dispose(sale(BTC, specid=(99,)))

    def test_repeated_lot_rejected(self):
        # Referencing lot 1 twice used to count its quantity twice: the
        # disposal passed the cover check and consumed only one lot's worth.
        book = book_with_three_lots(SpecId)
        with pytest.raises(LotError):
            book.dispose(sale(BTC + BTC // 2, specid=(1, 1)))
        assert book.total_qty("BTC") == 3 * BTC

    def test_referenced_lots_too_small(self):
        with pytest.raises(InsufficientQuantity):
            book_with_three_lots(SpecId).dispose(sale(2 * BTC, specid=(1,)))


class TestAveragePooling:
    """The moving-average book keeps one pool per asset instead of lots."""

    @staticmethod
    def pooled_book():
        book = AvgMoving([], JurisdictionPolicy(), {"BTC": 8})
        for seq, price in ((1, 100), (2, 300)):
            book.acquire(ChainEventRecord(seq, seq * 10, EventKind.PURCHASE, "BTC", BTC,
                                          Fraction(price)), Fraction(price))
        return book

    def test_pooled_lots_merge(self):
        assert self.pooled_book().pools["BTC"] == [2 * BTC, 400, 10]

    def test_moving_average_gain(self):
        sale = ChainEventRecord(3, 30, EventKind.SALE, "BTC", BTC, Fraction(350))
        book = self.pooled_book()
        result = book.dispose(sale)
        assert result.basis == 200 and result.gain == 150
        assert book.pools["BTC"] == [BTC, 200, 10]


class TestRebase:
    """Periodic revalues its open lots to each asset's last price at year end."""

    def test_rebase_sets_unit_basis(self):
        book = book_with_three_lots(Periodic)
        book.prices["BTC"] = Fraction(500)
        book.year_end(2020)
        assert all(l.unit_basis == 500 for l in book.lots("BTC"))

    def test_fifo_order_survives_rebase(self):
        book = book_with_three_lots(Periodic)
        book.dispose(sale(BTC // 2))
        book.prices["BTC"] = Fraction(500)
        book.year_end(2020)
        result = book.dispose(sale(BTC))
        assert [(p.lot_id, p.qty) for p in result.parts] == [(1, BTC // 2), (2, BTC // 2)]
        assert result.basis == 500

    def test_unknown_asset_untouched(self):
        book = book_with_three_lots(Periodic)
        book.prices["ETH"] = Fraction(500)
        book.year_end(2020)
        assert {l.unit_basis for l in book.lots("BTC")} == {100, 300, 200}


class TestUnitCache:
    """Book.unit keeps the last price and its unit, by identity."""

    @pytest.mark.parametrize("price_places", [None, 3])
    @given(picks=st.lists(st.integers(0, 4), max_size=30))
    def test_unit_through_the_cache_is_the_price_in_book_money(self, price_places, picks):
        # Two equal prices that are distinct objects, a zero, and two more.
        prices = [Fraction(5, 4), Fraction(5, 4), Fraction(0), Fraction(3, 1000), Fraction(7)]
        book = LotStore([], JurisdictionPolicy(), {"BTC": 8}, price_places)
        for pick in picks:
            price = prices[pick]
            unit = book.unit(price)
            assert unit == (price if price_places is None else price * 10**price_places)
            assert type(unit) is (Fraction if price_places is None else int)

    def test_rebase_after_a_cached_unit(self):
        """Periodic's year end converts the last price afresh, not the unit
        cached for an earlier one."""
        book = Periodic([], JurisdictionPolicy(), {"BTC": 8}, 0)
        book.add_lot("BTC", BTC, book.unit(Fraction(100)), 10)
        book.prices["BTC"] = Fraction(500)
        book.year_end(2020)
        assert [lot.unit_basis for lot in book.lots("BTC")] == [500]


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
            book = Hifo([], JurisdictionPolicy(), {"BTC": 8})
            for i, (q, b) in enumerate(lots):
                book.add_lot("BTC", q, b, i)
            result = book.dispose(sale(qty, 1000))
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
        st.sampled_from([LotStore, Lifo, Hifo]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_basis_and_quantity_conserved(self, lots, book_class, rng):
        store = book_class([], JurisdictionPolicy(), {"BTC": 8})
        for i, (q, b) in enumerate(lots):
            store.add_lot("BTC", q, b, i)
        total_qty = store.total_qty("BTC")
        total_basis = store.total_basis("BTC")
        qty = rng.randrange(1, total_qty + 1)
        result = store.dispose(sale(qty, 100))
        assert result.qty == qty
        assert sum(p.qty for p in result.parts) == qty
        assert sum(p.basis for p in result.parts) == result.basis
        # Whatever leaves the store is exactly what the disposal reports.
        assert store.total_qty("BTC") == total_qty - qty
        assert store.total_basis("BTC") == total_basis - result.basis
