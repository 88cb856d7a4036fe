"""Event ingestion, disposal routing and report assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from ..amounts import format_rational
from .events import (
    ACQUISITION_KINDS,
    DISPOSAL_KINDS,
    ChainEventRecord,
    EventKind,
)
from .lots import (
    AccountingMethod,
    DisposalResult,
    LotStore,
)
from .policy import HobbyMinerRule, JurisdictionPolicy, ReceiptTreatment


class EngineError(Exception):
    pass


class PolicyViolation(EngineError):
    pass


class SequenceError(EngineError):
    pass


MINING_KINDS = {EventKind.MINING_REWARD, EventKind.POOL_PAYOUT}

INCOME_KINDS = MINING_KINDS | {
    EventKind.STAKING_REWARD,
    EventKind.MEV_PAYOUT,
    EventKind.NFT_ROYALTY,
}

COST_KINDS = {EventKind.PURCHASE, EventKind.ICO_ALLOCATION}


def tax_year_of(timestamp: int, policy: JurisdictionPolicy) -> int:
    """Label a moment with the calendar year its tax year started in."""
    stamp = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    month, day = policy.tax_year_start
    if (stamp.month, stamp.day) >= (month, day):
        return stamp.year
    return stamp.year - 1


@dataclass
class IngestResult:
    income: Fraction = Fraction(0)
    deduction: Fraction = Fraction(0)
    disposal: DisposalResult | None = None
    withholding: Fraction = Fraction(0)


def withholding_amount(
    proceeds: Fraction, attribution_result: str, policy: JurisdictionPolicy
) -> Fraction:
    """Tax retained at source: standard when affirmed, elevated otherwise."""
    if proceeds < 0:
        raise ValueError("proceeds must be non-negative")
    rate = (
        policy.standard_withholding
        if attribution_result == "affirmed"
        else policy.elevated_withholding
    )
    return Fraction(proceeds) * rate


def _acquisition_treatment(
    record: ChainEventRecord, policy: JurisdictionPolicy
) -> tuple[Fraction, Fraction]:
    """(per-unit income recognized, per-unit basis for the new lot)."""
    fmv = record.fmv_unit
    if record.kind in COST_KINDS:
        return Fraction(0), fmv
    if record.kind in MINING_KINDS:
        if policy.mining_is_business or policy.hobby_miner is HobbyMinerRule.NONE:
            return fmv, fmv  # income at FMV, basis at FMV
        if policy.hobby_miner is HobbyMinerRule.EXEMPT_WITH_COST_BASIS:
            return Fraction(0), fmv
        return Fraction(0), Fraction(0)  # zero basis, no deduction
    if record.kind in (EventKind.STAKING_REWARD, EventKind.MEV_PAYOUT, EventKind.NFT_ROYALTY):
        return fmv, fmv
    if record.kind is EventKind.FORK_RECEIPT:
        if policy.fork_treatment is ReceiptTreatment.FMV_INCOME:
            return fmv, fmv
        return Fraction(0), Fraction(0)
    if record.kind is EventKind.AIRDROP:
        if policy.airdrop_treatment is ReceiptTreatment.FMV_INCOME:
            return fmv, fmv
        return Fraction(0), Fraction(0)
    raise EngineError("not an acquisition kind: %s" % record.kind.value)


def ingest_event(
    record: ChainEventRecord,
    policy: JurisdictionPolicy,
    store: LotStore,
    method: AccountingMethod = AccountingMethod.FIFO,
    basis_override: Fraction | None = None,
) -> IngestResult:
    """Apply one event: create lots and income, or route to disposal.

    Callers must apply records in seq order; compute_report enforces it.
    """
    result = IngestResult()
    scale = 10 ** store.decimals(record.asset)
    qty_units = Fraction(record.quantity, scale)

    if "deduction" in record.metadata:
        amount = qty_units * record.fmv_unit
        if "slashing" in record.metadata and not policy.slashing_deductible:
            return result
        result.deduction = amount
        return result

    if record.kind is EventKind.SELF_TRANSFER:
        return result

    if record.kind in (EventKind.LP_DEPOSIT, EventKind.LP_WITHDRAWAL):
        if not policy.lp_events_are_disposals:
            # Treated like a self transfer: lots stay with the owner.
            return result
        if record.kind is EventKind.LP_DEPOSIT:
            result.disposal = store.dispose(
                record.asset, record.quantity, record.fmv_unit, method,
                record.specid_lot, basis_override,
            )
        else:
            store.add_lot(
                record.asset, record.quantity, record.fmv_unit, record.timestamp,
                record.kind, pooled=method in (AccountingMethod.AVG_MOVING,),
            )
        return result

    if record.kind in ACQUISITION_KINDS:
        income_unit, basis_unit = _acquisition_treatment(record, policy)
        result.income = qty_units * income_unit
        store.add_lot(
            record.asset, record.quantity, basis_unit, record.timestamp,
            record.kind, pooled=method in (AccountingMethod.AVG_MOVING,),
        )
        return result

    if record.kind in DISPOSAL_KINDS:
        disposal = store.dispose(
            record.asset, record.quantity, record.fmv_unit, method,
            record.specid_lot, basis_override,
        )
        if record.kind is EventKind.GIFT and not policy.gift_taxable:
            # Exempt gift: lots leave the portfolio with no recognized gain.
            disposal = DisposalResult(
                disposal.asset, disposal.qty, disposal.basis, disposal.basis, disposal.parts
            )
        result.disposal = disposal
        attribution = record.metadata.get("attribution")
        if attribution:
            result.withholding = withholding_amount(disposal.proceeds, attribution, policy)
        return result

    raise EngineError("unknown event kind %s" % record.kind.value)


@dataclass(frozen=True)
class LedgerLine:
    seq: int
    date: str
    kind: str
    asset: str
    qty: int
    proceeds: Fraction
    basis: Fraction
    gain: Fraction
    term: str  # "short" | "long" | "-" for income lines


@dataclass
class YearTotals:
    ordinary_income: Fraction = Fraction(0)
    short_term_gain: Fraction = Fraction(0)
    long_term_gain: Fraction = Fraction(0)
    deductible_expenses: Fraction = Fraction(0)
    withholding_owed: Fraction = Fraction(0)


@dataclass
class TaxReport:
    method: AccountingMethod
    lines: list[LedgerLine] = field(default_factory=list)
    years: dict[int, YearTotals] = field(default_factory=dict)

    @property
    def total_gain(self) -> Fraction:
        return sum(
            (y.short_term_gain + y.long_term_gain for y in self.years.values()), Fraction(0)
        )

    @property
    def total_income(self) -> Fraction:
        return sum((y.ordinary_income for y in self.years.values()), Fraction(0))

    def to_csv(self) -> str:
        rows = ["seq,date,kind,asset,qty,proceeds,basis,gain,term"]
        for line in self.lines:
            rows.append(
                "%d,%s,%s,%s,%d,%s,%s,%s,%s"
                % (
                    line.seq, line.date, line.kind, line.asset, line.qty,
                    format_rational(line.proceeds), format_rational(line.basis),
                    format_rational(line.gain), line.term,
                )
            )
        return "\n".join(rows) + "\n"

    def to_totals_json(self) -> str:
        import json

        payload = {
            "method": self.method.value,
            "years": {
                str(year): {
                    "ordinary_income": format_rational(t.ordinary_income),
                    "short_term_gain": format_rational(t.short_term_gain),
                    "long_term_gain": format_rational(t.long_term_gain),
                    "deductible_expenses": format_rational(t.deductible_expenses),
                    "withholding_owed": format_rational(t.withholding_owed),
                }
                for year, t in sorted(self.years.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _year(report: TaxReport, year: int) -> YearTotals:
    return report.years.setdefault(year, YearTotals())


def compute_report(
    records: list[ChainEventRecord],
    policy: JurisdictionPolicy,
    method: AccountingMethod,
    decimals: dict[str, int] | None = None,
) -> TaxReport:
    """Deterministic per-year tax report over a seq-ordered single portfolio."""
    if method not in policy.allowed_methods:
        raise PolicyViolation("method %s not allowed by policy" % method.value)
    store = LotStore(decimals)
    report = TaxReport(method)
    last_price: dict[str, Fraction] = {}
    pvct_cost = Fraction(0)  # remaining global acquisition cost (PVCT only)
    current_year: int | None = None
    last_seq: int | None = None

    year_averages: dict[tuple[int, str], Fraction] = {}
    if method is AccountingMethod.AVG_TOTAL:
        year_averages = _avg_total_averages(records, policy, store)

    for record in records:
        if last_seq is not None and record.seq <= last_seq:
            raise SequenceError("seq %d out of order (after %d)" % (record.seq, last_seq))
        last_seq = record.seq

        year = tax_year_of(record.timestamp, policy)
        if current_year is None:
            current_year = year
        while year > current_year:
            current_year += 1
            if method is AccountingMethod.PERIODIC:
                store.rebase_all(dict(last_price))
            if method is AccountingMethod.AVG_TOTAL:
                _rebase_pools_to_average(store, year_averages, current_year - 1)

        last_price[record.asset] = record.fmv_unit

        basis_override = None
        scale = 10 ** store.decimals(record.asset)
        if record.kind in DISPOSAL_KINDS:
            if method is AccountingMethod.AVG_TOTAL:
                avg = year_averages.get((year, record.asset), Fraction(0))
                basis_override = Fraction(record.quantity, scale) * avg
            elif method is AccountingMethod.PVCT:
                proceeds = Fraction(record.quantity, scale) * record.fmv_unit
                portfolio_fmv = _portfolio_fmv(store, last_price)
                basis_override = (
                    pvct_cost * proceeds / portfolio_fmv if portfolio_fmv else Fraction(0)
                )

        effective_method = method
        if method in (AccountingMethod.AVG_TOTAL, AccountingMethod.PVCT):
            effective_method = AccountingMethod.FIFO if record.kind in DISPOSAL_KINDS else method
        if method is AccountingMethod.AVG_TOTAL and record.kind in ACQUISITION_KINDS:
            effective_method = AccountingMethod.AVG_MOVING  # pooled lot bookkeeping
        if method is AccountingMethod.PERIODIC and record.kind in DISPOSAL_KINDS:
            effective_method = AccountingMethod.FIFO

        result = ingest_event(record, policy, store, effective_method, basis_override)

        if method is AccountingMethod.PVCT:
            if record.kind in ACQUISITION_KINDS:
                pvct_cost += Fraction(record.quantity, scale) * _pvct_unit_cost(record, policy)
            if result.disposal is not None:
                pvct_cost -= result.disposal.basis

        totals = _year(report, year)
        if result.income:
            totals.ordinary_income += result.income
            report.lines.append(
                LedgerLine(
                    record.seq, record.date_str(), record.kind.value, record.asset,
                    record.quantity, result.income, Fraction(0), Fraction(0), "-",
                )
            )
        if result.deduction:
            totals.deductible_expenses += result.deduction
        if result.withholding:
            totals.withholding_owed += result.withholding
        if result.disposal is not None:
            _record_disposal(report, totals, record, result.disposal, policy, store)
    return report


def _pvct_unit_cost(record: ChainEventRecord, policy: JurisdictionPolicy) -> Fraction:
    income, basis = _acquisition_treatment(record, policy)
    del income
    return basis


def _portfolio_fmv(store: LotStore, last_price: dict[str, Fraction]) -> Fraction:
    """Open holdings at last known prices, from the store's running quantities."""
    total = Fraction(0)
    for asset in store.all_assets():
        price = last_price.get(asset)
        if price is not None:
            total += Fraction(store.total_qty(asset), 10 ** store.decimals(asset)) * price
    return total


def _record_disposal(
    report: TaxReport,
    totals: YearTotals,
    record: ChainEventRecord,
    disposal: DisposalResult,
    policy: JurisdictionPolicy,
    store: LotStore,
) -> None:
    scale = 10 ** store.decimals(record.asset)
    cutoff = policy.long_term_days * 86_400
    for part in disposal.parts:
        part_proceeds = disposal.proceeds * Fraction(part.qty, disposal.qty)
        gain = part_proceeds - part.basis
        term = "long" if record.timestamp - part.acquired_at > cutoff else "short"
        if term == "long":
            totals.long_term_gain += gain
        else:
            totals.short_term_gain += gain
        report.lines.append(
            LedgerLine(
                record.seq, record.date_str(), record.kind.value, record.asset,
                part.qty, part_proceeds, part.basis, gain, term,
            )
        )


def _avg_total_averages(
    records: list[ChainEventRecord],
    policy: JurisdictionPolicy,
    store: LotStore,
) -> dict[tuple[int, str], Fraction]:
    """Pass one of the total-average method: fix each (year, asset) average.

    The average for a year is (cost carried in + cost acquired during the
    year) / (qty carried in + qty acquired); carry-out is priced at that
    average, chaining exactly into the next year.
    """
    averages: dict[tuple[int, str], Fraction] = {}
    carry_qty: dict[str, int] = {}
    carry_cost: dict[str, Fraction] = {}
    by_year: dict[int, list[ChainEventRecord]] = {}
    for record in records:
        by_year.setdefault(tax_year_of(record.timestamp, policy), []).append(record)
    for year in sorted(by_year):
        acq_qty: dict[str, int] = {}
        acq_cost: dict[str, Fraction] = {}
        disp_qty: dict[str, int] = {}
        for record in by_year[year]:
            scale = 10 ** store.decimals(record.asset)
            if record.kind in ACQUISITION_KINDS:
                _, basis_unit = _acquisition_treatment(record, policy)
                acq_qty[record.asset] = acq_qty.get(record.asset, 0) + record.quantity
                acq_cost[record.asset] = acq_cost.get(record.asset, Fraction(0)) + Fraction(
                    record.quantity, scale
                ) * basis_unit
            elif record.kind in DISPOSAL_KINDS:
                disp_qty[record.asset] = disp_qty.get(record.asset, 0) + record.quantity
        assets = set(acq_qty) | set(disp_qty) | set(carry_qty)
        for asset in assets:
            scale = 10 ** store.decimals(asset)
            total_q = carry_qty.get(asset, 0) + acq_qty.get(asset, 0)
            total_c = carry_cost.get(asset, Fraction(0)) + acq_cost.get(asset, Fraction(0))
            avg = total_c / Fraction(total_q, scale) if total_q else Fraction(0)
            averages[(year, asset)] = avg
            remaining = total_q - disp_qty.get(asset, 0)
            carry_qty[asset] = remaining
            carry_cost[asset] = Fraction(remaining, scale) * avg
    return averages


def _rebase_pools_to_average(
    store: LotStore, averages: dict[tuple[int, str], Fraction], year: int
) -> None:
    store.rebase_all({asset: avg for (y, asset), avg in averages.items() if y == year})
