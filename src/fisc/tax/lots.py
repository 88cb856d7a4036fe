"""Cost-basis lots and the eight disposal accounting methods.

All basis and gain arithmetic is exact (Fraction); quantities are integer
base units. FIFO/LIFO/HIFO/SpecID pick whole or partial lots; the
average-cost methods pool lots per asset; Periodic and PVCT adjust basis
at the engine level and consume here in FIFO order.

The books are indexed so that a disposal touches only the lots it
consumes. Each asset keeps its open lots in a dict keyed by `lot_id`
(exhausted lots are dropped) and a running open quantity. Each
(asset, ordering) pair gets a heap the first time that ordering disposes
of the asset: FIFO `(acquired_at, lot_id)`, LIFO `(-acquired_at, -lot_id)`,
HIFO `(-unit_basis, lot_id)`. FIFO is keyed on `acquired_at`, not on
insertion order, because timestamps need not rise with `seq`. Lots
exhausted through another ordering leave a heap lazily when they reach its
top, and an asset's heaps are dropped whenever a sort key changes (a
pooled merge or `rebase_all`) and rebuilt on the next disposal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .events import EventKind


class AccountingMethod(Enum):
    FIFO = "fifo"
    LIFO = "lifo"
    HIFO = "hifo"
    SPEC_ID = "specid"
    AVG_TOTAL = "avg_total"
    AVG_MOVING = "avg_moving"
    PERIODIC = "periodic"
    PVCT = "pvct"


class LotError(Exception):
    pass


class InsufficientQuantity(LotError):
    pass


@dataclass
class Lot:
    lot_id: int
    asset: str
    remaining_qty: int  # base units
    unit_basis: Fraction  # reference currency per whole asset unit
    acquired_at: int
    source: EventKind = EventKind.PURCHASE

    def __post_init__(self):
        if self.remaining_qty < 0:
            raise ValueError("lot quantity must be non-negative")
        if self.unit_basis < 0:
            raise ValueError("unit basis must be non-negative")


@dataclass(frozen=True)
class LotConsumption:
    lot_id: int
    qty: int
    basis: Fraction
    acquired_at: int


@dataclass(frozen=True)
class DisposalResult:
    asset: str
    qty: int
    proceeds: Fraction
    basis: Fraction
    parts: tuple[LotConsumption, ...]

    @property
    def gain(self) -> Fraction:
        return self.proceeds - self.basis


def _heap_entry(lot: Lot, method: AccountingMethod) -> tuple:
    """Sort key plus the lot; `lot_id` makes every key unique."""
    if method is AccountingMethod.LIFO:
        return (-lot.acquired_at, -lot.lot_id, lot)
    if method is AccountingMethod.HIFO:
        return (-lot.unit_basis, lot.lot_id, lot)
    # FIFO order is also the physical order for the engine-level methods.
    return (lot.acquired_at, lot.lot_id, lot)


def _ordering(method: AccountingMethod) -> AccountingMethod:
    if method in (AccountingMethod.LIFO, AccountingMethod.HIFO):
        return method
    return AccountingMethod.FIFO


class LotStore:
    """Per-asset lot inventory with deterministic disposal ordering."""

    def __init__(self, decimals: dict[str, int] | None = None):
        self._open: dict[str, dict[int, Lot]] = {}
        self._open_qty: dict[str, int] = {}
        self._heaps: dict[str, dict[AccountingMethod, list[tuple]]] = {}
        self._decimals: dict[str, int] = dict(decimals or {})
        self._next_id = 1

    def decimals(self, asset: str) -> int:
        return self._decimals.setdefault(asset, 8)

    def declare_asset(self, asset: str, decimals: int) -> None:
        self._decimals[asset] = decimals

    def lots(self, asset: str) -> list[Lot]:
        """Open lots of `asset` in acquisition-record (lot id) order."""
        return list(self._open.get(asset, {}).values())

    def all_assets(self) -> list[str]:
        return sorted(a for a, qty in self._open_qty.items() if qty)

    def total_qty(self, asset: str) -> int:
        return self._open_qty.get(asset, 0)

    def total_basis(self, asset: str) -> Fraction:
        scale = 10 ** self.decimals(asset)
        return sum(
            (Fraction(l.remaining_qty, scale) * l.unit_basis for l in self.lots(asset)),
            Fraction(0),
        )

    def add_lot(
        self,
        asset: str,
        qty: int,
        unit_basis: Fraction,
        acquired_at: int,
        source: EventKind = EventKind.PURCHASE,
        pooled: bool = False,
    ) -> Lot:
        """Record an acquisition; under average-cost pooling the asset keeps
        one merged lot whose basis is the running average."""
        if qty <= 0:
            raise ValueError("acquired quantity must be positive")
        book = self._open.setdefault(asset, {})
        if pooled and book:
            pool = next(iter(book.values()))
            scale = 10 ** self.decimals(asset)
            old_cost = Fraction(pool.remaining_qty, scale) * pool.unit_basis
            new_cost = Fraction(qty, scale) * unit_basis
            pool.remaining_qty += qty
            pool.unit_basis = (old_cost + new_cost) / Fraction(pool.remaining_qty, scale)
            pool.acquired_at = min(pool.acquired_at, acquired_at)
            self._open_qty[asset] += qty
            self._heaps.pop(asset, None)
            return pool
        lot = Lot(self._next_id, asset, qty, unit_basis, acquired_at, source)
        self._next_id += 1
        book[lot.lot_id] = lot
        self._open_qty[asset] = self._open_qty.get(asset, 0) + qty
        for method, heap in self._heaps.get(asset, {}).items():
            heapq.heappush(heap, _heap_entry(lot, method))
        return lot

    # --- disposal ---

    def _heap(self, asset: str, method: AccountingMethod) -> list[tuple]:
        heaps = self._heaps.setdefault(asset, {})
        heap = heaps.get(method)
        if heap is None:
            heap = [_heap_entry(lot, method) for lot in self._open[asset].values()]
            heapq.heapify(heap)
            heaps[method] = heap
        return heap

    def _specid_order(
        self, asset: str, qty: int, specid_lots: tuple[int, ...] | None
    ) -> list[Lot]:
        if not specid_lots:
            raise LotError("SpecID disposal requires lot references")
        if len(set(specid_lots)) != len(specid_lots):
            raise LotError("SpecID references repeat a lot: %s" % (specid_lots,))
        book = self._open.get(asset, {})
        order = []
        for lot_id in specid_lots:
            lot = book.get(lot_id)
            if lot is None:
                raise LotError("SpecID lot %d not available for %s" % (lot_id, asset))
            order.append(lot)
        if sum(l.remaining_qty for l in order) < qty:
            raise InsufficientQuantity("referenced lots cannot cover the disposal")
        return order

    def _take(self, lot: Lot, take: int, scale: int) -> LotConsumption:
        lot.remaining_qty -= take
        self._open_qty[lot.asset] -= take
        if lot.remaining_qty == 0:
            del self._open[lot.asset][lot.lot_id]
        return LotConsumption(lot.lot_id, take, Fraction(take, scale) * lot.unit_basis,
                              lot.acquired_at)

    def dispose(
        self,
        asset: str,
        qty: int,
        unit_proceeds: Fraction,
        method: AccountingMethod,
        specid_lots: tuple[int, ...] | None = None,
        basis_override: Fraction | None = None,
    ) -> DisposalResult:
        """Consume `qty` base units and return the priced disposal.

        basis_override (total basis for the disposal) is used by the
        engine for AvgTotal/PVCT where basis is not a per-lot property.
        """
        if qty <= 0:
            raise ValueError("disposal quantity must be positive")
        available = self.total_qty(asset)
        if qty > available:
            raise InsufficientQuantity(
                "disposing %d but only %d %s held" % (qty, available, asset)
            )
        scale = 10 ** self.decimals(asset)
        remaining = qty
        parts: list[LotConsumption] = []
        if method is AccountingMethod.SPEC_ID:
            for lot in self._specid_order(asset, qty, specid_lots):
                if remaining == 0:
                    break
                take = min(lot.remaining_qty, remaining)
                parts.append(self._take(lot, take, scale))
                remaining -= take
        else:
            heap = self._heap(asset, _ordering(method))
            while remaining:
                lot = heap[0][-1]
                if lot.remaining_qty == 0:  # exhausted through another ordering
                    heapq.heappop(heap)
                    continue
                take = min(lot.remaining_qty, remaining)
                parts.append(self._take(lot, take, scale))
                remaining -= take
                if lot.remaining_qty == 0:
                    heapq.heappop(heap)
        # Quantity conservation: the parts add up to exactly the disposal.
        if remaining:
            raise LotError("disposal of %d %s left %d unconsumed" % (qty, asset, remaining))
        basis_total = sum((p.basis for p in parts), Fraction(0))
        proceeds = Fraction(qty, scale) * unit_proceeds
        if basis_override is not None:
            # Re-spread the override across the consumed parts pro rata by qty
            # so ledger lines still sum exactly to the totals.
            parts = _respread_basis(parts, qty, basis_override)
            basis_total = basis_override
        return DisposalResult(asset, qty, proceeds, basis_total, tuple(parts))

    def rebase_all(self, prices: dict[str, Fraction]) -> None:
        """Reset every open lot's unit basis to the given per-asset value
        (Periodic: year-end FMV; AvgTotal: the year's average).

        Assets without a given price keep their existing basis.
        """
        for asset, book in self._open.items():
            if asset in prices and book:
                for lot in book.values():
                    lot.unit_basis = prices[asset]
                self._heaps.pop(asset, None)


def _respread_basis(
    parts: list[LotConsumption], qty: int, basis_total: Fraction
) -> list[LotConsumption]:
    out = []
    assigned = Fraction(0)
    for i, part in enumerate(parts):
        if i == len(parts) - 1:
            share = basis_total - assigned
        else:
            share = basis_total * Fraction(part.qty, qty)
        assigned += share
        out.append(LotConsumption(part.lot_id, part.qty, share, part.acquired_at))
    return out
