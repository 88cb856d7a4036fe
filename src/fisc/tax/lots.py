"""Cost-basis lot books: FIFO, LIFO, HIFO, SpecID and Periodic.

Quantities are integer base units; money is exact, as Fractions or as
ints (see `Book`). Every accounting method is a `Book`; the pooled-cost
books (moving and total average, PVCT) are in `fisc.tax.engine`.

`LotStore` is the FIFO book, and each lot book takes its lots in one order.
Each asset keeps its open lots, each a plain list `[remaining_qty,
unit_basis, acquired_at, lot_id]` (`lots()` lists them as `Lot`s), in a
dict keyed by `lot_id` (exhausted lots are dropped), a running open quantity
and, from the asset's first disposal on, one heap of `key(lot) + (lot,)`,
so a book that only acquires builds none. FIFO is keyed `(acquired_at,
lot_id)`, not on insertion order, because timestamps need not rise with
`seq`. SpecID takes the lots each disposal names instead. Disposal parts
and results are plain tuples, built with no Python-level constructor.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from ..lineformat import FiscError
from .events import ChainEventRecord

if TYPE_CHECKING:  # fisc.tax.policy imports AccountingMethod from here
    from .policy import JurisdictionPolicy


class AccountingMethod(Enum):
    FIFO = "fifo"
    LIFO = "lifo"
    HIFO = "hifo"
    SPEC_ID = "specid"
    AVG_TOTAL = "avg_total"
    AVG_MOVING = "avg_moving"
    PERIODIC = "periodic"
    PVCT = "pvct"


class LotError(FiscError):
    pass


class InsufficientQuantity(LotError):
    pass


class Lot:
    """An open lot as `LotStore.lots` lists it: `remaining_qty` base units
    left, at `unit_basis`, a price per whole asset unit (see Book.unit).
    Lots are equal when their fields are."""

    __slots__ = ("lot_id", "asset", "remaining_qty", "unit_basis", "acquired_at")

    def __init__(self, lot_id: int, asset: str, remaining_qty: int,
                 unit_basis: Fraction | int, acquired_at: int):
        self.lot_id, self.asset, self.remaining_qty = lot_id, asset, remaining_qty
        self.unit_basis, self.acquired_at = unit_basis, acquired_at

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is Lot and self._values() == other._values()

    def __repr__(self) -> str:
        return "Lot(%s)" % ", ".join("%s=%r" % pair for pair in zip(self.__slots__, self._values()))


class LotConsumption(NamedTuple):
    lot_id: int
    qty: int
    basis: Fraction | int  # in the book's money, as are the amounts below
    acquired_at: int


class DisposalResult(NamedTuple):
    asset: str
    qty: int
    proceeds: Fraction | int
    basis: Fraction | int
    parts: tuple[LotConsumption, ...]

    @property
    def gain(self) -> Fraction | int:
        return self.proceeds - self.basis


class Book:
    """One accounting method's holdings. `acquire(record, unit)` adds the
    record's quantity at `unit`, a basis per whole unit in this book's money
    (a `unit(price)`), `dispose(record)` consumes and prices it, and
    `year_end(year)` runs as each tax year closes. compute_report keeps
    `prices`, each asset's last FMV, current.

    Money is Fractions of the currency unit (`places` None), or, given the
    most decimal places P of any price, int counts of 10**-`places` of it,
    `places` being the largest asset decimals plus P, and a price is itself
    × 10**P. Only an `integral` book may count in ints.
    """

    integral = False
    _price = _unit = None  # Book.unit's last price and its unit

    def __init__(self, records: list[ChainEventRecord], policy: JurisdictionPolicy,
                 decimals: dict[str, int] | None, price_places: int | None = None):
        self.decimals = dict(decimals or {})
        self.prices: dict[str, Fraction] = {}
        self.places: int | None = None
        if price_places is not None:
            self.decimals = dict.fromkeys({r.asset for r in records}, 8) | self.decimals
            top = max(self.decimals.values(), default=0)
            self.places, self._price_one = top + price_places, 10**price_places
            self._factors = {asset: 10 ** (top - d) for asset, d in self.decimals.items()}

    def scale(self, asset: str) -> int:
        return 10 ** self.decimals.setdefault(asset, 8)

    def unit(self, price: Fraction) -> Fraction | int:
        """A price per whole unit in this book's money (exact: P places suffice),
        cached for the last price by identity: records share price objects."""
        if price is not self._price:
            self._price, self._unit = price, price if self.places is None else (
                price.numerator * (self._price_one // price.denominator))
        return self._unit

    def value(self, qty: int, asset: str, unit: Fraction | int) -> Fraction | int:
        """`qty` base units of `asset` at `unit`, a `unit(price)`, normalised once."""
        if self.places is None:
            return Fraction(qty * unit.numerator, self.scale(asset) * unit.denominator)
        return qty * unit * self._factors[asset]

    def year_end(self, year: int) -> None:
        pass


class LotStore(Book):
    """FIFO: consume the open lots acquired first. Subclasses change `key`,
    or the choice of lots itself."""

    integral = True  # a value is a quantity times a price

    def __init__(self, records, policy, decimals, price_places=None):
        super().__init__(records, policy, decimals, price_places)
        self._open: dict[str, dict[int, list]] = defaultdict(dict)  # asset -> id -> lot
        self._open_qty: dict[str, int] = {}
        self._heaps: dict[str, list[tuple]] = {}
        self._next_id = 1

    @staticmethod
    def key(lot: list) -> tuple:
        """Disposal order, lowest first; `lot_id` makes every key unique."""
        return (lot[2], lot[3])

    def lots(self, asset: str) -> list[Lot]:
        """Open lots of `asset` in acquisition-record (lot id) order."""
        return [Lot(lot_id, asset, qty, unit_basis, acquired_at)
                for qty, unit_basis, acquired_at, lot_id in self._open.get(asset, {}).values()]

    def all_assets(self) -> list[str]:
        return sorted(a for a, qty in self._open_qty.items() if qty)

    def total_qty(self, asset: str) -> int:
        return self._open_qty.get(asset, 0)

    def total_basis(self, asset: str) -> Fraction:
        """The cost of the open lots, in currency units."""
        total = sum(self.value(l.remaining_qty, asset, l.unit_basis) for l in self.lots(asset))
        return Fraction(total, 10 ** (self.places or 0))

    def acquire(self, record: ChainEventRecord, unit: Fraction | int) -> None:
        self.add_lot(record.asset, record.quantity, unit, record.timestamp)

    def add_lot(self, asset: str, qty: int, unit_basis: Fraction, acquired_at: int) -> None:
        """Record an acquisition as a new lot."""
        if qty <= 0:
            raise ValueError("acquired quantity must be positive")
        if unit_basis.numerator < 0:  # the sign, without a slow Fraction comparison
            raise ValueError("unit basis must be non-negative")
        lot_id, self._next_id = self._next_id, self._next_id + 1
        lot = self._open[asset][lot_id] = [qty, unit_basis, acquired_at, lot_id]
        self._open_qty[asset] = self._open_qty.get(asset, 0) + qty
        heap = self._heaps.get(asset)
        if heap is not None:
            heapq.heappush(heap, self.key(lot) + (lot,))

    def _choose(self, record: ChainEventRecord) -> list[list]:
        """The lots a disposal consumes, in order. Every lot it uses up
        leaves the heap; one it takes only part of stays on top."""
        heap = self._heaps.get(record.asset)
        if heap is None:
            heap = [self.key(lot) + (lot,) for lot in self._open[record.asset].values()]
            heapq.heapify(heap)
            self._heaps[record.asset] = heap
        chosen, rest = [], record.quantity
        while rest > 0:
            lot = heap[0][-1]
            chosen.append(lot)
            rest -= lot[0]
            if rest >= 0:
                heapq.heappop(heap)
        return chosen

    def dispose(self, record: ChainEventRecord) -> DisposalResult:
        """Consume the record's quantity in this book's order and price it."""
        asset, qty = record.asset, record.quantity
        available = self.total_qty(asset)
        if qty > available:
            raise InsufficientQuantity("disposing %d but only %d %s held"
                                       % (qty, available, asset))
        book, value = self._open[asset], self.value
        remaining, basis, new = qty, 0, tuple.__new__
        parts: list[LotConsumption] = []
        for lot in self._choose(record):
            left, unit_basis, acquired_at, lot_id = lot
            take = min(left, remaining)
            lot[0] = left = left - take
            if not left:
                del book[lot_id]
            basis += (part := value(take, asset, unit_basis))
            parts.append(new(LotConsumption, (lot_id, take, part, acquired_at)))
            remaining -= take
            if remaining == 0:
                break
        # Quantity conservation: the parts add up to exactly the disposal.
        if remaining:
            raise LotError("disposal of %d %s left %d unconsumed" % (qty, asset, remaining))
        self._open_qty[asset] = available - qty
        proceeds = value(qty, asset, self.unit(record.fmv_unit))
        return new(DisposalResult, (asset, qty, proceeds, basis, tuple(parts)))


class Lifo(LotStore):
    """Consume the open lots acquired last."""

    @staticmethod
    def key(lot: list) -> tuple:
        return (-lot[2], -lot[3])


class Hifo(LotStore):
    """Consume the open lots of highest unit basis first, lowest lot id on a tie."""

    @staticmethod
    def key(lot: list) -> tuple:
        return (-lot[1], lot[3])


class SpecId(LotStore):
    """Consume the open lots each disposal names, in the order named."""

    def _choose(self, record: ChainEventRecord) -> list[list]:
        refs, asset = record.specid_lot, record.asset
        if not refs:
            raise LotError("SpecID disposal requires lot references")
        if len(set(refs)) != len(refs):
            raise LotError("SpecID references repeat a lot: %s" % (refs,))
        book = self._open[asset]
        chosen = []
        for lot_id in refs:
            lot = book.get(lot_id)
            if lot is None:
                raise LotError("SpecID lot %d not available for %s" % (lot_id, asset))
            chosen.append(lot)
        if sum(lot[0] for lot in chosen) < record.quantity:
            raise InsufficientQuantity("referenced lots cannot cover the disposal")
        return chosen


class Periodic(LotStore):
    """FIFO lots revalued to each asset's last price as every year closes.
    FIFO's key ignores the basis, so the heaps stay valid."""

    def year_end(self, year: int) -> None:
        for asset, book in self._open.items():
            if asset in self.prices:
                unit = self.unit(self.prices[asset])
                for lot in book.values():
                    lot[1] = unit
