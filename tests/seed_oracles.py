"""Reference implementations kept for differential tests.

`SeedLotStore` is the original filter-and-sort lot store, with its pooled
merge and basis override; its `_respread_basis` gives the last part of an
override what the others leave. `seed_compute_report` is the original
report loop on that store, with its own copy of the original per-method
routing (`ingest_event` with a method and an override, the AVG_TOTAL
pre-pass) and the PVCT cost pool kept as a running sum: acquisitions add
their cost, every disposal subtracts its basis. It keeps its own result
record and per-record tax years (`seed_tax_year`), and imports no engine
internals, only the report types and `withholding_rate`. It has three
corrections: `_seed_moves` makes every method see the same acquisitions
and disposals, the AVG_TOTAL pre-pass refuses a year that disposes of
more than it carries in and acquires, where the original carried a
negative quantity on, and each part of an exempt gift leaves at its own
basis, where the original split the gift's total basis over its parts by
quantity.
`seed_format_rational` is the original scale-by-ten decimal renderer,
`seed_to_csv` the original ledger rendering, which judged every line only
once the whole report was built, and `seed_parse_event_file` /
`seed_serialize_event` the original event-line parser and writer. The
parser has three corrections: it refuses an asset id holding ',' or '"',
which would add a ledger column, a negative `fmv`, and a timestamp outside
the years 1 to 9999, where the original accepted all three and the report
then wrote the first two and failed on the third. Its timestamp parser,
`seed_timestamp`, is its own: integers, and ISO 8601 texts in whole seconds
read with a regular expression and `calendar.timegm`, not `datetime`;
its digits are ASCII `[0-9]`, not the decimal digits of every script.
`SeedAttributionNetwork` answers each attribution query from the original
heap event queue, deliveries and responses pushed with a sequence number
and popped in (tick, seq) order. All are deliberately simple and slow;
`fisc` must produce exactly what they do, errors included.
"""

from __future__ import annotations

import calendar
import hashlib
import heapq
import re
from datetime import datetime, timezone
from fractions import Fraction

from fisc.amounts import parse_rational
from fisc.attribution.protocol import AttributionError
from fisc.attribution.sim import AttributionNetwork, LinkConfig, QueryOutcome
from fisc.lineformat import LineError as EventParseError
from fisc.tax import engine
from fisc.tax.events import (
    ACQUISITION_KINDS,
    DISPOSAL_KINDS,
    ChainEventRecord,
    EventKind,
)
from fisc.tax.lots import (
    AccountingMethod,
    DisposalResult,
    InsufficientQuantity,
    Lot,
    LotConsumption,
    LotError,
)
from fisc.tax.policy import HobbyMinerRule, JurisdictionPolicy, ReceiptTreatment


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
        lot = Lot(self._next_id, asset, qty, unit_basis, acquired_at)
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


def _seed_acquisition_treatment(
    record: ChainEventRecord, policy: JurisdictionPolicy
) -> tuple[Fraction, Fraction]:
    """(per-unit income recognized, per-unit basis for the new lot)."""
    fmv = record.fmv_unit
    if record.kind in (EventKind.PURCHASE, EventKind.ICO_ALLOCATION):
        return Fraction(0), fmv
    if record.kind in (EventKind.MINING_REWARD, EventKind.POOL_PAYOUT):
        if policy.mining_is_business or policy.hobby_miner is HobbyMinerRule.NONE:
            return fmv, fmv
        if policy.hobby_miner is HobbyMinerRule.EXEMPT_WITH_COST_BASIS:
            return Fraction(0), fmv
        return Fraction(0), Fraction(0)
    if record.kind is EventKind.FORK_RECEIPT:
        if policy.fork_treatment is ReceiptTreatment.FMV_INCOME:
            return fmv, fmv
        return Fraction(0), Fraction(0)
    if record.kind is EventKind.AIRDROP:
        if policy.airdrop_treatment is ReceiptTreatment.FMV_INCOME:
            return fmv, fmv
        return Fraction(0), Fraction(0)
    if record.kind is EventKind.LP_WITHDRAWAL:
        return Fraction(0), fmv
    return fmv, fmv  # staking, MEV, royalties


def _seed_moves(record: ChainEventRecord, policy: JurisdictionPolicy) -> str | None:
    """"acquires", "disposes" or None: whether the event moves lots.

    Correction: the original decided this by kind alone, so its AVG_TOTAL
    pre-pass counted `meta.deduction` events as disposals, and its AVG_TOTAL
    pre-pass and PVCT pool left out LP events under lp_events_are_disposals.
    """
    if "deduction" in record.metadata:
        return None
    lp = policy.lp_events_are_disposals
    if record.kind in ACQUISITION_KINDS or (lp and record.kind is EventKind.LP_WITHDRAWAL):
        return "acquires"
    if record.kind in DISPOSAL_KINDS or (lp and record.kind is EventKind.LP_DEPOSIT):
        return "disposes"
    return None


def seed_tax_year(timestamp: int, policy: JurisdictionPolicy) -> int:
    """The calendar year a moment's tax year started in, worked out per record."""
    stamp = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return stamp.year - ((stamp.month, stamp.day) < tuple(policy.tax_year_start))


class _SeedIngestResult:
    """One event's effect: each amount 0 and `disposal` None unless set."""

    income: Fraction = Fraction(0)
    deduction: Fraction = Fraction(0)
    disposal: DisposalResult | None = None
    withholding: Fraction = Fraction(0)


def _seed_ingest_event(
    record: ChainEventRecord,
    policy: JurisdictionPolicy,
    store: SeedLotStore,
    method: AccountingMethod,
    basis_override: Fraction | None,
) -> _SeedIngestResult:
    """The original ingest_event: the method and the override routed in."""
    result = _SeedIngestResult()
    scale = 10 ** store.decimals(record.asset)
    if "deduction" in record.metadata:
        if "slashing" in record.metadata and not policy.slashing_deductible:
            return result
        result.deduction = Fraction(record.quantity, scale) * record.fmv_unit
        return result
    if record.kind is EventKind.SELF_TRANSFER:
        return result
    if record.kind in (EventKind.LP_DEPOSIT, EventKind.LP_WITHDRAWAL):
        if not policy.lp_events_are_disposals:
            return result
        if record.kind is EventKind.LP_DEPOSIT:
            result.disposal = store.dispose(record.asset, record.quantity, record.fmv_unit,
                                            method, record.specid_lot, basis_override)
        else:
            store.add_lot(record.asset, record.quantity, record.fmv_unit, record.timestamp,
                          pooled=method is AccountingMethod.AVG_MOVING)
        return result
    if record.kind in ACQUISITION_KINDS:
        income_unit, basis_unit = _seed_acquisition_treatment(record, policy)
        result.income = Fraction(record.quantity, scale) * income_unit
        store.add_lot(record.asset, record.quantity, basis_unit, record.timestamp,
                      pooled=method is AccountingMethod.AVG_MOVING)
        return result
    disposal = store.dispose(record.asset, record.quantity, record.fmv_unit, method,
                             record.specid_lot, basis_override)
    if record.kind is EventKind.GIFT and not policy.gift_taxable:
        disposal = DisposalResult(disposal.asset, disposal.qty, disposal.basis,
                                  disposal.basis, disposal.parts)
    result.disposal = disposal
    attribution = record.metadata.get("attribution")
    if attribution:
        result.withholding = disposal.proceeds * engine.withholding_rate(attribution, policy)
    return result


def _seed_avg_total_averages(
    records: list[ChainEventRecord], policy: JurisdictionPolicy, store: SeedLotStore
) -> dict[tuple[int, str], Fraction]:
    """Each (year, asset) average: (cost carried in + cost acquired) over
    (qty carried in + qty acquired); the carry-out is priced at it."""
    averages: dict[tuple[int, str], Fraction] = {}
    carry_qty: dict[str, int] = {}
    carry_cost: dict[str, Fraction] = {}
    by_year: dict[int, list[ChainEventRecord]] = {}
    for record in records:
        by_year.setdefault(seed_tax_year(record.timestamp, policy), []).append(record)
    for year in sorted(by_year):
        acq_qty: dict[str, int] = {}
        acq_cost: dict[str, Fraction] = {}
        disp_qty: dict[str, int] = {}
        for record in by_year[year]:
            scale = 10 ** store.decimals(record.asset)
            moves = _seed_moves(record, policy)
            if moves == "acquires":
                _, basis_unit = _seed_acquisition_treatment(record, policy)
                acq_qty[record.asset] = acq_qty.get(record.asset, 0) + record.quantity
                acq_cost[record.asset] = (acq_cost.get(record.asset, Fraction(0))
                                          + Fraction(record.quantity, scale) * basis_unit)
            elif moves == "disposes":
                disp_qty[record.asset] = disp_qty.get(record.asset, 0) + record.quantity
        for asset in sorted(set(acq_qty) | set(disp_qty) | set(carry_qty)):
            scale = 10 ** store.decimals(asset)
            total_q = carry_qty.get(asset, 0) + acq_qty.get(asset, 0)
            total_c = carry_cost.get(asset, Fraction(0)) + acq_cost.get(asset, Fraction(0))
            avg = total_c / Fraction(total_q, scale) if total_q else Fraction(0)
            averages[(year, asset)] = avg
            remaining = total_q - disp_qty.get(asset, 0)
            if remaining < 0:
                raise engine.EngineError("tax year %d disposes of %d %s but carries in and "
                                         "acquires only %d"
                                         % (year, disp_qty[asset], asset, total_q))
            carry_qty[asset] = remaining
            carry_cost[asset] = Fraction(remaining, scale) * avg
    return averages


def _seed_record_disposal(report, totals, record, date, disposal, policy) -> None:
    cutoff = policy.long_term_days * 86_400
    exempt_gift = record.kind is EventKind.GIFT and not policy.gift_taxable
    for part in disposal.parts:
        part_proceeds = (part.basis if exempt_gift
                         else disposal.proceeds * Fraction(part.qty, disposal.qty))
        gain = part_proceeds - part.basis
        term = "long" if record.timestamp - part.acquired_at > cutoff else "short"
        if term == "long":
            totals.long_term_gain += gain
        else:
            totals.short_term_gain += gain
        report.lines.append(engine.LedgerLine(
            record.seq, date, record.kind.value, record.asset,
            part.qty, part_proceeds, part.basis, gain, term,
        ))


def seed_compute_report(
    records: list[ChainEventRecord],
    policy: JurisdictionPolicy,
    method: AccountingMethod,
    decimals: dict[str, int] | None = None,
) -> engine.TaxReport:
    """The original report loop, per-method routing and all, with per-record
    year labels and the summed PVCT pool; lots move as `_seed_moves` says."""
    if method not in policy.allowed_methods:
        raise engine.PolicyViolation("method %s not allowed by policy" % method.value)
    store = SeedLotStore(decimals)
    report = engine.TaxReport(method)
    last_price: dict[str, Fraction] = {}
    pvct_cost = Fraction(0)
    current_year = None
    last_seq = None
    year_averages = {}
    if method is AccountingMethod.AVG_TOTAL:
        year_averages = _seed_avg_total_averages(records, policy, store)
    for record in records:
        if last_seq is not None and record.seq <= last_seq:
            raise engine.SequenceError("seq %d out of order (after %d)" % (record.seq, last_seq))
        last_seq = record.seq
        year = seed_tax_year(record.timestamp, policy)
        totals = report.years.setdefault(year, engine.YearTotals())
        if current_year is None:
            current_year = year
        while year > current_year:
            current_year += 1
            if method is AccountingMethod.PERIODIC:
                store.rebase_all(dict(last_price))
            if method is AccountingMethod.AVG_TOTAL:
                store.rebase_all({asset: avg for (y, asset), avg in year_averages.items()
                                  if y == current_year - 1})
        last_price[record.asset] = record.fmv_unit

        scale = 10 ** store.decimals(record.asset)
        moves = _seed_moves(record, policy)
        basis_override = None
        if moves == "disposes":
            if method is AccountingMethod.AVG_TOTAL:
                avg = year_averages.get((year, record.asset), Fraction(0))
                basis_override = Fraction(record.quantity, scale) * avg
            elif method is AccountingMethod.PVCT:
                proceeds = Fraction(record.quantity, scale) * record.fmv_unit
                portfolio_fmv = sum(
                    (Fraction(store.total_qty(a), 10 ** store.decimals(a)) * last_price[a]
                     for a in store.all_assets() if a in last_price),
                    Fraction(0),
                )
                basis_override = (
                    pvct_cost * proceeds / portfolio_fmv if portfolio_fmv else Fraction(0)
                )

        effective_method = method
        if method in (AccountingMethod.AVG_TOTAL, AccountingMethod.PVCT):
            effective_method = AccountingMethod.FIFO if moves == "disposes" else method
        if method is AccountingMethod.AVG_TOTAL and moves == "acquires":
            effective_method = AccountingMethod.AVG_MOVING
        if method is AccountingMethod.PERIODIC and record.kind in DISPOSAL_KINDS:
            effective_method = AccountingMethod.FIFO

        result = _seed_ingest_event(record, policy, store, effective_method, basis_override)

        if method is AccountingMethod.PVCT:
            if moves == "acquires":
                _, basis_unit = _seed_acquisition_treatment(record, policy)
                pvct_cost += Fraction(record.quantity, scale) * basis_unit
            if result.disposal is not None:
                pvct_cost -= result.disposal.basis

        # The seed's ChainEventRecord.date_str, frozen here.
        date = datetime.fromtimestamp(record.timestamp, tz=timezone.utc).date().isoformat()
        if result.income:
            totals.ordinary_income += result.income
            report.lines.append(engine.LedgerLine(
                record.seq, date, record.kind.value, record.asset, record.quantity,
                result.income, Fraction(0), Fraction(0), "-",
            ))
        if result.deduction:
            totals.deductible_expenses += result.deduction
        if result.withholding:
            totals.withholding_owed += result.withholding
        if result.disposal is not None:
            _seed_record_disposal(report, totals, record, date, result.disposal, policy)
    return report


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


def seed_to_csv(report: engine.TaxReport) -> str:
    """The original ledger rendering: once the report is built, the first
    unprintable value raises EngineError naming its line's seq."""
    rows = ["seq,date,kind,asset,qty,proceeds,basis,gain,term"]
    for line in report.lines:
        try:
            values = [seed_format_rational(v) for v in (line.proceeds, line.basis, line.gain)]
        except ValueError as exc:  # past CPython's int->str digit limit
            raise engine.EngineError("seq %d: exact value too long to print: %s"
                                     % (line.seq, exc)) from None
        rows.append("%d,%s,%s,%s,%d,%s,%s,%s,%s" % (line.seq, line.date, line.kind, line.asset,
                                                    line.qty, *values, line.term))
    return "\n".join(rows) + "\n"


def seed_parse_event_file(text: str) -> tuple[dict[str, int], list[ChainEventRecord]]:
    """Every field checked for '=' and split again; kind by EventKind(value)."""
    decimals: dict[str, int] = {}
    records: list[ChainEventRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "asset":
            if len(fields) != 3:
                raise EventParseError(line_no, "asset lines are 'asset <id> <decimals>'")
            if "," in fields[1] or '"' in fields[1]:
                raise EventParseError(line_no, "asset id %s holds ',' or '\"'" % fields[1])
            try:
                decimals[fields[1]] = int(fields[2])
            except ValueError:
                raise EventParseError(line_no, "bad decimals %r" % fields[2])
            continue
        if tag != "event":
            raise EventParseError(line_no, "unknown line tag %r" % tag)
        kv: dict[str, str] = {}
        meta: dict[str, str] = {}
        for item in fields[1:]:
            if "=" not in item:
                raise EventParseError(line_no, "expected key=value, got %r" % item)
            key, value = item.split("=", 1)
            if key.startswith("meta."):
                meta[key[5:]] = value
            else:
                kv[key] = value
        try:
            kind = EventKind(kv["kind"])
            asset = kv["asset"]
            if asset not in decimals:
                raise EventParseError(line_no, "asset %r not declared" % asset)
            record = ChainEventRecord(
                seq=int(kv["seq"]),
                timestamp=seed_timestamp(kv["ts"]),
                kind=kind,
                asset=asset,
                quantity=int(kv["qty"]),
                fmv_unit=_seed_price(kv["fmv"]),
                counterparty_address=kv.get("counterparty"),
                specid_lot=tuple(int(x) for x in kv["specid"].split(",")) if "specid" in kv else None,
                metadata=meta,
            )
        except EventParseError:
            raise
        except KeyError as exc:
            raise EventParseError(line_no, "missing field %s" % exc)
        except (ValueError, ZeroDivisionError) as exc:
            raise EventParseError(line_no, str(exc))
        records.append(record)
    return decimals, records


_ISO = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
                  r"(?:T([0-9]{2}):([0-9]{2}):([0-9]{2})(Z|([+-])([0-9]{2}):([0-9]{2}))?)?")
# The first second of the year 1 and the last of the year 9999, UTC.
_FIRST, _LAST = calendar.timegm((1, 1, 1, 0, 0, 0)), calendar.timegm((9999, 12, 31, 23, 59, 59))


def seed_timestamp(text: str) -> int:
    """Unix seconds of an integer, or of `YYYY-MM-DD[THH:MM:SS[Z|+HH:MM|-HH:MM]]`
    (no offset: UTC); outside the years 1 to 9999 UTC, a ValueError."""
    if re.fullmatch(r"-?[0-9]+", text):
        stamp = int(text)
    else:
        iso = _ISO.fullmatch(text)
        if iso is None:
            raise ValueError("not a timestamp: %r" % text)
        sign, hours, minutes = iso.groups()[7:]
        try:  # a field out of range, such as 2021-02-29, T24:00:00 or +24:00
            if sign and (int(hours) > 23 or int(minutes) > 59):
                raise ValueError
            moment = datetime(*(int(part or 0) for part in iso.groups()[:6]))
        except ValueError:
            raise ValueError("not a timestamp: %r" % text) from None
        stamp = calendar.timegm(moment.timetuple())
        if sign:
            stamp -= int(sign + "1") * (int(hours) * 3600 + int(minutes) * 60)
    if not _FIRST <= stamp <= _LAST:
        raise ValueError("timestamp %s is outside the years 1 to 9999 UTC" % text)
    return stamp


def _seed_price(text: str) -> Fraction:
    price = parse_rational(text)
    if price < 0:
        raise ValueError("fmv must be non-negative, got %s" % text)
    return price


def seed_serialize_event(record: ChainEventRecord) -> str:
    """One formatted part per field, joined at the end."""
    parts = [
        "event",
        "seq=%d" % record.seq,
        "ts=%d" % record.timestamp,
        "kind=%s" % record.kind.value,
        "asset=%s" % record.asset,
        "qty=%d" % record.quantity,
        "fmv=%s" % seed_format_rational(record.fmv_unit),
    ]
    if record.counterparty_address:
        parts.append("counterparty=%s" % record.counterparty_address)
    if record.specid_lot:
        parts.append("specid=%s" % ",".join(str(i) for i in record.specid_lot))
    for key in sorted(record.metadata):
        parts.append("meta.%s=%s" % (key, record.metadata[key]))
    return " ".join(parts)


def _seed_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _seed_latency_of(links: LinkConfig, src: str, dst: str) -> int:
    return links.latency.get((src, dst), links.default_latency)


def _seed_drop_of(links: LinkConfig, src: str, dst: str) -> float:
    return links.drop.get((src, dst), links.default_drop)


class SeedAttributionNetwork(AttributionNetwork):
    """The original query protocol: one heap of (tick, seq) deliveries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seq = 0
        self._queue: list[tuple[int, int, str, str, str]] = []  # (at, seq, actor, kind, payload)

    def _post(self, deliver_at: int, actor: str, kind: str, payload: str) -> None:
        heapq.heappush(self._queue, (deliver_at, self._seq, actor, kind, payload))
        self._seq += 1

    def query_beneficiary_jurisdiction(
        self, origin_code: str, beneficiary_address: str, deadline_ticks: int
    ) -> QueryOutcome:
        if origin_code not in self.authorities:
            raise AttributionError("origin jurisdiction %s not in simulation" % origin_code)
        start = self.now
        deadline = start + deadline_ticks
        query_payload = "query|%s|%s" % (origin_code, beneficiary_address)
        query_digest = _seed_digest(query_payload)
        self._emit(start, origin_code, "query_broadcast", query_digest)
        for code in sorted(self.authorities):
            if code == origin_code:
                continue
            if self._rng.random() < _seed_drop_of(self.links, origin_code, code):
                self._emit(start, origin_code, "query_dropped_to_" + code, query_digest)
                continue
            self._post(start + _seed_latency_of(self.links, origin_code, code), code, "query",
                       query_payload)

        responses: list[tuple[int, str]] = []
        while self._queue and self._queue[0][0] <= deadline:
            at, _, actor, kind, payload = heapq.heappop(self._queue)
            self.now = max(self.now, at)
            if kind == "query":
                responder = self.authorities[actor]
                if responder.knows_address(beneficiary_address) and self.eoi.permits(
                    origin_code, actor
                ):
                    reply = "affirm|%s|%s" % (actor, beneficiary_address)
                    reply_digest = _seed_digest(reply)
                    self._emit(at, actor, "affirm", reply_digest)
                    if self._rng.random() < _seed_drop_of(self.links, actor, origin_code):
                        self._emit(at, actor, "affirm_dropped", reply_digest)
                        continue
                    self._post(at + _seed_latency_of(self.links, actor, origin_code),
                               origin_code, "response", reply)
                else:
                    self._emit(at, actor, "no_response", query_digest)
            elif kind == "response":
                code = payload.split("|")[1]
                responses.append((at, code))
        # Drop anything past the deadline without acting on it.
        self._queue.clear()
        self.now = deadline
        if not responses:
            self._emit(deadline, origin_code, "unaffirmed", query_digest)
            return QueryOutcome(False)
        arrival, winner = min(responses)
        if len({code for at, code in responses if at == arrival}) > 1:
            self._emit(arrival, origin_code, "anomaly_multiple_affirmations", query_digest)
        self._emit(arrival, origin_code, "affirmed_" + winner, query_digest)
        return QueryOutcome(True, winner)
