"""Reference implementations kept for differential tests.

`SeedLotStore` is the original filter-and-sort lot store and
`seed_format_rational` the original scale-by-ten decimal renderer. Both
are deliberately simple and slow; `fisc` must produce exactly what they do.
"""

from __future__ import annotations

from fractions import Fraction

from fisc.tax.events import EventKind
from fisc.tax.lots import (
    AccountingMethod,
    DisposalResult,
    InsufficientQuantity,
    Lot,
    LotConsumption,
    LotError,
)


class SeedLotStore:
    """Per-asset lot inventory; every disposal filters and sorts all lots."""

    def __init__(self, decimals: dict[str, int] | None = None):
        self._lots: dict[str, list[Lot]] = {}
        self._decimals: dict[str, int] = dict(decimals or {})
        self._next_id = 1

    def decimals(self, asset: str) -> int:
        return self._decimals.setdefault(asset, 8)

    def declare_asset(self, asset: str, decimals: int) -> None:
        self._decimals[asset] = decimals

    def lots(self, asset: str) -> list[Lot]:
        return [l for l in self._lots.get(asset, []) if l.remaining_qty > 0]

    def all_assets(self) -> list[str]:
        return sorted(a for a, lots in self._lots.items() if any(l.remaining_qty for l in lots))

    def total_qty(self, asset: str) -> int:
        return sum(l.remaining_qty for l in self.lots(asset))

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
        if qty <= 0:
            raise ValueError("acquired quantity must be positive")
        lots = self._lots.setdefault(asset, [])
        scale = 10 ** self.decimals(asset)
        if pooled and lots and any(l.remaining_qty for l in lots):
            pool = next(l for l in lots if l.remaining_qty > 0)
            old_cost = Fraction(pool.remaining_qty, scale) * pool.unit_basis
            new_cost = Fraction(qty, scale) * unit_basis
            pool.remaining_qty += qty
            pool.unit_basis = (old_cost + new_cost) / Fraction(pool.remaining_qty, scale)
            pool.acquired_at = min(pool.acquired_at, acquired_at)
            return pool
        lot = Lot(self._next_id, asset, qty, unit_basis, acquired_at, source)
        self._next_id += 1
        lots.append(lot)
        return lot

    def get_lot(self, lot_id: int) -> Lot | None:
        for lots in self._lots.values():
            for lot in lots:
                if lot.lot_id == lot_id:
                    return lot
        return None

    def _ordered(self, asset: str, method: AccountingMethod) -> list[Lot]:
        lots = self.lots(asset)
        if method is AccountingMethod.LIFO:
            return sorted(lots, key=lambda l: (-l.acquired_at, -l.lot_id))
        if method is AccountingMethod.HIFO:
            return sorted(lots, key=lambda l: (-l.unit_basis, l.lot_id))
        return sorted(lots, key=lambda l: (l.acquired_at, l.lot_id))

    def dispose(
        self,
        asset: str,
        qty: int,
        unit_proceeds: Fraction,
        method: AccountingMethod,
        specid_lots: tuple[int, ...] | None = None,
        basis_override: Fraction | None = None,
    ) -> DisposalResult:
        if qty <= 0:
            raise ValueError("disposal quantity must be positive")
        available = self.total_qty(asset)
        if qty > available:
            raise InsufficientQuantity(
                "disposing %d but only %d %s held" % (qty, available, asset)
            )
        if method is AccountingMethod.SPEC_ID:
            if not specid_lots:
                raise LotError("SpecID disposal requires lot references")
            order = []
            for lot_id in specid_lots:
                lot = self.get_lot(lot_id)
                if lot is None or lot.asset != asset or lot.remaining_qty == 0:
                    raise LotError("SpecID lot %d not available for %s" % (lot_id, asset))
                order.append(lot)
            if sum(l.remaining_qty for l in order) < qty:
                raise InsufficientQuantity("referenced lots cannot cover the disposal")
        else:
            order = self._ordered(asset, method)

        scale = 10 ** self.decimals(asset)
        remaining = qty
        parts: list[LotConsumption] = []
        basis_total = Fraction(0)
        for lot in order:
            if remaining == 0:
                break
            take = min(lot.remaining_qty, remaining)
            part_basis = Fraction(take, scale) * lot.unit_basis
            lot.remaining_qty -= take
            remaining -= take
            parts.append(LotConsumption(lot.lot_id, take, part_basis, lot.acquired_at))
            basis_total += part_basis
        proceeds = Fraction(qty, scale) * unit_proceeds
        if basis_override is not None:
            parts = _respread_basis(parts, qty, basis_override)
            basis_total = basis_override
        return DisposalResult(asset, qty, proceeds, basis_total, tuple(parts))

    def rebase_all(self, prices: dict[str, Fraction]) -> None:
        for asset, lots in self._lots.items():
            if asset in prices:
                for lot in lots:
                    if lot.remaining_qty > 0:
                        lot.unit_basis = prices[asset]


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


def seed_format_rational(value: Fraction | int) -> str:
    """Decimal when finite, else a/b; places found by repeated *10."""
    frac = Fraction(value)
    den = frac.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return "%d/%d" % (frac.numerator, frac.denominator)
    if den == 1:
        return str(frac.numerator)
    places = 0
    scaled = frac
    while scaled.denominator != 1:
        scaled *= 10
        places += 1
    digits = abs(int(scaled))
    sign = "-" if frac < 0 else ""
    text = str(digits).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, text[:-places], text[-places:])
