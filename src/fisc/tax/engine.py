"""The report path: `lot_moves`, each event kind's effect on the lots under
a policy; the pooled-cost books and `BOOKS`, each method's book; and
`compute_report`, which passes every record to its book after one lookup
in that table. The lot books are in `fisc.tax.lots`."""

from __future__ import annotations

from datetime import date, timedelta
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import NamedTuple

from ..amounts import DigitLimit, decimal_places, format_rational, format_units
from ..lineformat import CHUNK_LINES, FiscError
from .events import DISPOSAL_KINDS, ChainEventRecord, EventKind
from .lots import (
    AccountingMethod,
    Book,
    DisposalResult,
    Hifo,
    InsufficientQuantity,
    Lifo,
    LotConsumption,
    LotStore,
    Periodic,
    SpecId,
)
from .policy import HobbyMinerRule, JurisdictionPolicy, ReceiptTreatment


class EngineError(FiscError):
    pass


class PolicyViolation(EngineError):
    pass


class SequenceError(EngineError):
    pass


MINING_KINDS = {EventKind.MINING_REWARD, EventKind.POOL_PAYOUT}

LP_KINDS = {EventKind.LP_DEPOSIT, EventKind.LP_WITHDRAWAL}

COST_KINDS = {EventKind.PURCHASE, EventKind.ICO_ALLOCATION, EventKind.LP_WITHDRAWAL}

_ZERO = Fraction(0)
_EPOCH = date(1970, 1, 1)


class TaxDays(dict):
    """UTC day (a timestamp // 86_400) -> its (tax year, ledger date) under
    one policy, each worked out once: the year is the calendar year the tax
    year started in, the date its ISO form."""

    def __init__(self, policy: JurisdictionPolicy):
        super().__init__()
        self.start = tuple(policy.tax_year_start)

    def __missing__(self, day: int) -> tuple[int, str]:
        stamp = _EPOCH + timedelta(days=day)
        label = self[day] = stamp.year - ((stamp.month, stamp.day) < self.start), stamp.isoformat()
        return label


def withholding_rate(attribution_result: str, policy: JurisdictionPolicy) -> Fraction:
    """The rate withheld at source: standard when affirmed, elevated otherwise."""
    if attribution_result == "affirmed":
        return policy.standard_withholding
    return policy.elevated_withholding


def lot_move(kind: EventKind, deduction: bool,
             policy: JurisdictionPolicy) -> tuple[int, bool, bool]:
    """How an event of `kind`, flagged as a deduction or not, moves lots:
    (1 if it adds a lot, -1 if it consumes lots, 0 if neither; whether the
    added lot's basis is the FMV, else 0; whether that FMV is also
    recognized as income).

    Under lp_events_are_disposals an LP deposit is a sale and a withdrawal a
    purchase at FMV; otherwise both leave the lots with the owner.
    """
    lp_transfer = kind in LP_KINDS and not policy.lp_events_are_disposals
    if deduction or kind is EventKind.SELF_TRANSFER or lp_transfer:
        return 0, False, False
    if kind in DISPOSAL_KINDS or kind is EventKind.LP_DEPOSIT:
        return -1, False, False
    hobby = None if policy.mining_is_business or kind not in MINING_KINDS else policy.hobby_miner
    receipt = (policy.fork_treatment if kind is EventKind.FORK_RECEIPT
               else policy.airdrop_treatment if kind is EventKind.AIRDROP else None)
    if kind in COST_KINDS or hobby is HobbyMinerRule.EXEMPT_WITH_COST_BASIS:
        return 1, True, False
    if hobby is HobbyMinerRule.ZERO_BASIS_NO_DEDUCTION or receipt is ReceiptTreatment.ZERO_BASIS:
        return 1, False, False
    return 1, True, True  # income at FMV, basis at FMV


def lot_moves(policy: JurisdictionPolicy) -> dict[tuple[EventKind, bool], tuple[int, bool, bool]]:
    """lot_move for each (kind, deduction flag). compute_report and the
    total-average pre-pass both look every record up here, so every method
    sees the same acquisitions and disposals."""
    return {(kind, deduction): lot_move(kind, deduction, policy)
            for kind in EventKind for deduction in (False, True)}


class Pvct(LotStore):
    """Portfolio-value cost apportionment: one cost pool for the portfolio.

    A disposal's basis is the pool times the disposal's share of the
    portfolio's value at last prices, and the pool keeps the rest. The basis
    is spread over the FIFO lots the disposal consumes, which give it its
    dates. Every step multiplies by a small ratio: adding two rationals
    whose denominators are both thousands of bits needs a gcd of full-size
    operands, a product with a small one only gcds of the small factors.
    """

    integral = False  # a basis is a share of the pool
    cost = _ZERO  # the pool; immutable, so each book rebinds its own

    def acquire(self, record: ChainEventRecord, unit: Fraction) -> None:
        super().acquire(record, unit)
        self.cost += self.value(record.quantity, record.asset, unit)

    def dispose(self, record: ChainEventRecord) -> DisposalResult:
        value = sum(self.value(self.total_qty(asset), asset, self.prices[asset])
                    for asset in self.all_assets())
        disposal = super().dispose(record)
        share = disposal.proceeds / value if value else _ZERO
        basis = self.cost * share
        self.cost *= 1 - share
        qty = disposal.qty
        parts = tuple(LotConsumption(p.lot_id, p.qty, basis * Fraction(p.qty, qty), p.acquired_at)
                      for p in disposal.parts)
        return DisposalResult(disposal.asset, qty, disposal.proceeds, basis, parts)


class AvgMoving(Book):
    """Moving average: one pool per asset of running quantity, cost and
    earliest acquisition date. A disposal takes its quantity's share of the
    pool's cost; a pool that runs empty restarts at its next acquisition."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pools: dict[str, list] = {}  # asset -> [qty, cost, acquired_at]

    def acquire(self, record: ChainEventRecord, unit: Fraction) -> None:
        cost = self.value(record.quantity, record.asset, unit)
        pool = self.pools.get(record.asset)
        if pool and pool[0]:
            pool[0] += record.quantity
            pool[1] += cost
            pool[2] = min(pool[2], record.timestamp)
        else:
            self.pools[record.asset] = [record.quantity, cost, record.timestamp]

    def dispose(self, record: ChainEventRecord) -> DisposalResult:
        asset, qty = record.asset, record.quantity
        pool = self.pools.get(asset) or [0, _ZERO, 0]
        held = pool[0]
        if qty > held:
            raise InsufficientQuantity("disposing %d but only %d %s held" % (qty, held, asset))
        basis = self._basis(record, pool)
        pool[0] = held - qty
        proceeds = self.value(qty, asset, record.fmv_unit)
        return DisposalResult(asset, qty, proceeds, basis,
                              (LotConsumption(0, qty, basis, pool[2]),))

    def _basis(self, record: ChainEventRecord, pool: list) -> Fraction:
        held, cost = pool[0], pool[1]
        pool[1] = cost * Fraction(held - record.quantity, held)  # a product, not cost - basis
        return cost * Fraction(record.quantity, held)


class AvgTotal(AvgMoving):
    """Total average: pools give quantities and dates as under the moving
    average (their cost goes unread), but each disposal is priced at its
    tax year's average cost of the asset.

    The constructor fixes each (tax year, asset) average: the cost carried
    in plus the cost added during the year, over the quantity carried in
    plus the quantity added. The carry-out is priced at that average, so
    the years chain exactly. Timestamps need not rise with seq, so a year
    may dispose of more than it carries in and acquires; that has no
    average to price it and raises EngineError.
    """

    def __init__(self, records, policy, *args):
        super().__init__(records, policy, *args)
        self.days, moves = TaxDays(policy), lot_moves(policy)  # compute_report reads days too
        self.averages: dict[tuple[int, str], Fraction] = {}
        flows: dict[int, dict[str, list]] = {}  # year -> asset -> [added, its cost, taken]
        for record in records:
            move, at_fmv, _ = moves[record.kind, "deduction" in record.metadata]
            flow = flows.setdefault(self.days[record.timestamp // 86_400][0], {}).setdefault(
                record.asset, [0, _ZERO, 0])
            if move > 0:
                flow[0] += record.quantity
                flow[1] += self.value(record.quantity, record.asset,
                                      record.fmv_unit if at_fmv else _ZERO)
            elif move < 0:
                flow[2] += record.quantity
        carry: dict[str, tuple[int, Fraction]] = {}  # asset -> (qty, cost)
        for year in sorted(flows):
            for asset in sorted(flows[year].keys() | carry.keys()):  # one error on every run
                added, added_cost, taken = flows[year].get(asset, (0, _ZERO, 0))
                qty, cost = carry.get(asset, (0, _ZERO))
                qty, cost, scale = qty + added, cost + added_cost, self.scale(asset)
                if taken > qty:
                    raise EngineError("tax year %d disposes of %d %s but carries in and "
                                      "acquires only %d" % (year, taken, asset, qty))
                avg = self.averages[year, asset] = cost / Fraction(qty, scale) if qty else _ZERO
                carry[asset] = (qty - taken, Fraction(qty - taken, scale) * avg)

    def _basis(self, record: ChainEventRecord, pool: list) -> Fraction:
        year = self.days[record.timestamp // 86_400][0]
        return self.value(record.quantity, record.asset, self.averages[year, record.asset])


class LedgerLine(NamedTuple):
    seq: int
    date: str
    kind: str
    asset: str
    qty: int
    proceeds: Fraction | int  # in the book's money, see TaxReport
    basis: Fraction | int
    gain: Fraction | int
    term: str  # "short" | "long" | "-" for income lines


YEAR_FIELDS = ("ordinary_income", "short_term_gain", "long_term_gain", "deductible_expenses",
               "withholding_owed")


class YearTotals(SimpleNamespace):
    """One tax year's totals in currency units, the YEAR_FIELDS: equal when
    all are, and `vars()` lists them."""

    def __init__(self, ordinary_income: Fraction = _ZERO, short_term_gain: Fraction = _ZERO,
                 long_term_gain: Fraction = _ZERO, deductible_expenses: Fraction = _ZERO,
                 withholding_owed: Fraction = _ZERO):
        super().__init__(ordinary_income=ordinary_income, short_term_gain=short_term_gain,
                         long_term_gain=long_term_gain, deductible_expenses=deductible_expenses,
                         withholding_owed=withholding_owed)


class _ExactSum(dict):
    """A running total kept as denominator -> sum of numerators (an int's is
    1): one int addition per term, one Fraction once all are in."""

    def add(self, value: Fraction | int) -> None:
        den = value.denominator
        self[den] = self.get(den, 0) + value.numerator

    def total(self, one: int) -> Fraction:
        """The terms over their least common denominator, over `one`, reduced
        once: sorted by denominator and combined pairwise, in rounds, so that
        each gcd and division works on operands of similar size."""
        terms = sorted(self.items())  # (den, part); each den is a distinct key
        while len(terms) > 1:
            merged = []
            for (d1, n1), (d2, n2) in zip(terms[::2], terms[1::2]):
                g = gcd(d1, d2)
                merged.append((d1 // g * d2, n1 * (d2 // g) + n2 * (d1 // g)))
            terms = merged + terms[2 * len(merged):]  # an odd count carries its last
        den, num = terms[0] if terms else (1, 0)
        return Fraction(num, den * one)


class TaxReport:
    """compute_report appends only lines that to_csv can print, so the
    ledger streams to its writer with no fault of its own; a year total is
    judged once every line is in, by to_totals_json. `ledger` is in the
    book's money (see `Book`); `lines` and `years` are in currency units."""

    def __init__(self, method: AccountingMethod, places: int | None = None):
        self.method, self.places = method, places
        self.ledger: list[LedgerLine] = []
        self.years: dict[int, YearTotals] = {}

    @property
    def lines(self) -> list[LedgerLine]:
        if self.places is None:
            return self.ledger
        return [LedgerLine(*line[:5], *(Fraction(v, 10**self.places) for v in line[5:8]),
                           line.term) for line in self.ledger]

    @property
    def total_gain(self) -> Fraction:
        return sum(
            (y.short_term_gain + y.long_term_gain for y in self.years.values()), Fraction(0)
        )

    @property
    def total_income(self) -> Fraction:
        return sum((y.ordinary_income for y in self.years.values()), Fraction(0))

    def to_csv(self, write) -> None:
        """Write the ledger with `write("ledger.csv", text)`, a chunk every
        CHUNK_LINES rows, the header in the first."""
        places = self.places
        fmt = format_rational if places is None else lambda units: format_units(units, places)
        rows = ["seq,date,kind,asset,qty,proceeds,basis,gain,term"]
        for start in range(0, len(self.ledger) or 1, CHUNK_LINES):
            for seq, date, kind, asset, qty, proceeds, basis, gain, term in (
                    self.ledger[start:start + CHUNK_LINES]):
                # A zero, as an income line's basis and gain are, prints as 0 directly.
                rows.append("%d,%s,%s,%s,%d,%s,%s,%s,%s" % (
                    seq, date, kind, asset, qty, fmt(proceeds) if proceeds else "0",
                    fmt(basis) if basis else "0", fmt(gain) if gain else "0", term))
            write("ledger.csv", "\n".join(rows) + "\n")
            rows.clear()

    def to_totals_json(self) -> str:
        import json

        years: dict[str, dict[str, str]] = {}
        for year, totals in sorted(self.years.items()):
            row = years[str(year)] = {}
            for name, value in vars(totals).items():
                try:
                    row[name] = format_rational(value)
                except ValueError as exc:  # past CPython's int->str digit limit
                    raise EngineError("year %d %s: exact value too long to print: %s"
                                      % (year, name, exc)) from None
        payload = {"method": self.method.value, "years": years}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


BOOKS: dict[AccountingMethod, type[Book]] = {
    AccountingMethod.FIFO: LotStore,
    AccountingMethod.LIFO: Lifo,
    AccountingMethod.HIFO: Hifo,
    AccountingMethod.SPEC_ID: SpecId,
    AccountingMethod.PERIODIC: Periodic,
    AccountingMethod.PVCT: Pvct,
    AccountingMethod.AVG_MOVING: AvgMoving,
    AccountingMethod.AVG_TOTAL: AvgTotal,
}


def _price_places(records: list[ChainEventRecord]) -> int | None:
    """The most decimal places of any price; None if one does not terminate."""
    places = {decimal_places(den) for den in {r.fmv_unit.denominator for r in records}}
    return None if None in places else max(places, default=0)


def compute_report(
    records: list[ChainEventRecord],
    policy: JurisdictionPolicy,
    method: AccountingMethod,
    decimals: dict[str, int] | None = None,
) -> TaxReport:
    """Deterministic per-year tax report over a seq-ordered single portfolio,
    in ints where `_price_places` allows, else in Fractions: the same text.
    Each record is classified by one lookup in `lot_moves(policy)` and
    passed straight to its method's book.

    Stops with EngineError at the first ledger line too long to print.
    """
    if method not in policy.allowed_methods:
        raise PolicyViolation("method %s not allowed by policy" % method.value)
    book_class = BOOKS[method]
    book = book_class(records, policy, decimals,
                      _price_places(records) if book_class.integral else None)
    report = TaxReport(method, places=book.places)
    one, zero = (1, _ZERO) if book.places is None else (10**book.places, 0)
    moves = lot_moves(policy)
    days = getattr(book, "days", None) or TaxDays(policy)  # AvgTotal's, labelled in its pre-pass
    exempt = None if policy.gift_taxable else EventKind.GIFT  # parts leave at their own basis
    cutoff = policy.long_term_days * 86_400
    current_year: int | None = None
    last_seq: int | None = None
    sums: dict[int, dict[str, _ExactSum]] = {}  # year -> YearTotals field -> its sum
    limit = DigitLimit()
    # The bounds read an int n as n/1, not n/one: take one's extra bits off the room.
    room = limit.room - 3 * (one.bit_length() - 1)

    for record in records:
        if last_seq is not None and record.seq <= last_seq:
            raise SequenceError("seq %d out of order (after %d)" % (record.seq, last_seq))
        last_seq = record.seq

        year, date = days[record.timestamp // 86_400]
        if year not in sums:
            sums[year] = {name: _ExactSum() for name in YEAR_FIELDS}
        totals = sums[year]
        if current_year is None:
            current_year = year
        while year > current_year:
            book.year_end(current_year)
            current_year += 1

        book.prices[record.asset] = record.fmv_unit
        # A line's kind is `kind._value_`, a plain attribute; Enum's `value` is a Python property.
        kind, asset, deduction = record.kind, record.asset, "deduction" in record.metadata
        move, at_fmv, income = moves[kind, deduction]
        if move > 0:
            unit = book.unit(record.fmv_unit if at_fmv else _ZERO)
            book.acquire(record, unit)
            if income and (value := book.value(record.quantity, asset, unit)):
                totals["ordinary_income"].add(value)
                line = LedgerLine(record.seq, date, kind._value_, asset,
                                  record.quantity, value, zero, zero, "-")
                if value.numerator.bit_length() + 3 * value.denominator.bit_length() > room:
                    _check_printable(line, limit, one)
                report.ledger.append(line)
        elif move < 0:
            disposal = book.dispose(record)
            # Proceeds per part: its own basis for an exempt gift, else its quantity at the price.
            unit = None if kind is exempt else book.unit(record.fmv_unit)
            attribution = record.metadata.get("attribution")
            if attribution and kind is not EventKind.LP_DEPOSIT:
                proceeds = disposal.basis if unit is None else disposal.proceeds
                totals["withholding_owed"].add(proceeds * withholding_rate(attribution, policy))
            for part in disposal.parts:
                basis = part.basis
                proceeds = basis if unit is None else book.value(part.qty, asset, unit)
                gain = proceeds - basis
                term = "long" if record.timestamp - part.acquired_at > cutoff else "short"
                totals["long_term_gain" if term == "long" else "short_term_gain"].add(gain)
                line = LedgerLine(record.seq, date, kind._value_, asset,
                                  part.qty, proceeds, basis, gain, term)
                # One sum bounds all three values: with n and d the numerator and
                # denominator bit lengths of proceeds (p) and basis (b), the gain
                # has at most dp + db denominator and max(np + db, nb + dp) + 1
                # numerator bits, so each value's n + 3d is at most the sum + 1.
                if (proceeds.numerator.bit_length() + basis.numerator.bit_length() + 4 * (
                        proceeds.denominator.bit_length() + basis.denominator.bit_length())
                        >= room):
                    _check_printable(line, limit, one)
                report.ledger.append(line)
        elif deduction and (policy.slashing_deductible or "slashing" not in record.metadata):
            totals["deductible_expenses"].add(
                book.value(record.quantity, asset, book.unit(record.fmv_unit)))
    for year, totals in sums.items():
        report.years[year] = YearTotals(**{name: s.total(one) for name, s in totals.items()})
    return report


def _check_printable(line: LedgerLine, limit: DigitLimit, one: int) -> None:
    """Raise EngineError if to_csv could not print `line`, whose amounts
    count 1/`one` currency units."""
    for value in (Fraction(amount, one) if one > 1 else amount for amount in line[5:8]):
        if not limit.fits(value):
            try:
                format_rational(value)
            except ValueError as exc:  # past the limit, in CPython's words
                raise EngineError("seq %d: exact value too long to print: %s"
                                  % (line.seq, exc)) from None
