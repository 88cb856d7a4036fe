"""Workload definitions: inputs, CLI invocations and output checks.

`build(name, seed, work)` writes a workload's generated inputs under
`work/in` and returns its invocations. Paths are relative to `work`, which
is the working directory of every invocation, so each `manifest.json`
depends only on the seed and the program.

The checks recompute invariants from the inputs with the benchmark's own
code; they do not call the engine they check, except the chain check,
which compares against `fisc.consensus.block_subsidy`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

SIZES = {
    "ledger-deep": {"events": 4000},
    "ledger-pooled": {"events": 1000},
    "attrib-mesh": {"jurisdictions": 40, "wallets": 1000, "transfers": 4000},
    "sim-pipeline": {"blocks": 30000, "validators": 1000, "duties": 12000, "swaps": 6000},
}
WORKLOADS = tuple(SIZES)

DEEP_METHODS = ("fifo", "lifo", "hifo", "specid", "periodic")
POOLED_METHODS = ("avg_total", "avg_moving", "pvct")
METHODS = DEEP_METHODS + POOLED_METHODS

DISPOSAL_KINDS = {"sale", "swap", "spend", "gift", "vault_liquidation"}
# Acquisitions recognized as income at FMV under the default policy.
INCOME_KINDS = {"mining_reward", "pool_payout", "staking_reward", "mev_payout",
                "nft_royalty", "airdrop", "fork_receipt"}


@dataclass
class Invocation:
    key: str  # unique within the workload, e.g. "report.hifo", "simulate.chain"
    argv: list[str]  # fisc CLI arguments
    out: str  # output directory, relative to the work directory
    items: Callable[[Path], int]  # input work items: event lines, blocks, duties, swaps, transfers
    check: Callable[[Path], list[str]]  # invariant check on the outputs

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def context(self) -> str:
        """Per-layer metric suffix: the method for reports, else the subcommand."""
        if self.subcommand == "report":
            return self.argv[self.argv.index("--method") + 1]
        return self.subcommand


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    rng = random.Random("%s:%d" % (name, seed))
    size = SIZES[name]
    (work / "in").mkdir(parents=True, exist_ok=True)

    def write(file_name: str, text: str) -> str:
        (work / "in" / file_name).write_text(text)
        return "in/" + file_name

    if name in ("ledger-deep", "ledger-pooled"):
        events = write("events.fisc", gen.ledger_events(rng, size["events"]))
        methods = DEEP_METHODS if name == "ledger-deep" else POOLED_METHODS
        return [_report("report." + m, events, m, "out/" + m) for m in methods]
    if name == "attrib-mesh":
        scenario = write("mesh.scn", gen.attribution_scenario(
            rng, size["jurisdictions"], size["wallets"], size["transfers"]))
        return [Invocation("attrib", ["attrib", scenario, "--out", "out/attrib"], "out/attrib",
                           lambda w: size["transfers"],
                           lambda w: check_attrib(w / scenario, w / "out/attrib"))]
    chain = write("chain.scn", gen.chain_scenario(rng, size["blocks"]))
    validators = write("validators.scn",
                       gen.validator_scenario(rng, size["validators"], size["duties"]))
    pool = write("pool.scn", gen.pool_scenario(rng, size["swaps"]))
    return [
        _simulate("chain", chain, size["blocks"], check_chain),
        _report("report.chain", "out/chain/events.fisc", "fifo", "out/chain-report"),
        _simulate("validators", validators, size["duties"], check_validators),
        _report("report.validators", "out/validators/events.fisc", "fifo",
                "out/validators-report"),
        # No report on the pool output: it sells assets it never bought,
        # which the CLI rightly refuses with exit 3.
        _simulate("pool", pool, size["swaps"], check_pool),
    ]


def _report(key: str, events: str, method: str, out: str) -> Invocation:
    return Invocation(key, ["report", events, "--method", method, "--out", out], out,
                      lambda w: _event_lines(w / events),
                      lambda w: check_report(w / events, w / out))


def _simulate(kind: str, scenario: str, items: int, checker) -> Invocation:
    out = "out/" + kind
    return Invocation("simulate." + kind, ["simulate", kind, scenario, "--out", out], out,
                      lambda w: items, lambda w: checker(w / scenario, w / out))


def _event_lines(path: Path) -> int:
    with open(path) as handle:
        return sum(line.startswith("event ") for line in handle)


# --- manifest ---


def manifest_problems(out: Path) -> list[str]:
    """The manifest must list every output with its true sha256."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return ["manifest.json unreadable: %s" % exc]
    problems = []
    for name, digest in manifest.get("outputs", {}).items():
        path = out / name
        if not path.is_file():
            problems.append("manifest lists missing output %s" % name)
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append("digest of %s does not match the manifest" % name)
    if not manifest.get("outputs"):
        problems.append("manifest lists no outputs")
    return problems


# --- report ---


def _fields(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split()[1:] if "=" in item)


def _year(stamp: str) -> int:
    if stamp.lstrip("-").isdigit():
        return datetime.fromtimestamp(int(stamp), tz=timezone.utc).year
    return int(stamp[:4])


def check_report(events: Path, out: Path) -> list[str]:
    """Ledger disposal qty per seq equals the event qty; ledger gains and
    income sum to totals.json per year; income and deductions match the
    events priced at FMV (default policy: calendar years, FMV income,
    slashing not deductible)."""
    decimals: dict[str, int] = {}
    disposals: dict[int, int] = {}
    income: dict[int, Fraction] = {}
    deductions: dict[int, Fraction] = {}
    with open(events) as handle:
        for line in handle:
            if line.startswith("asset "):
                _, asset, places = line.split()
                decimals[asset] = int(places)
            elif line.startswith("event "):
                kv = _fields(line)
                value = Fraction(int(kv["qty"]), 10 ** decimals[kv["asset"]]) * Fraction(kv["fmv"])
                year = _year(kv["ts"])
                if "meta.deduction" in kv:
                    if "meta.slashing" not in kv:
                        deductions[year] = deductions.get(year, 0) + value
                elif kv["kind"] in DISPOSAL_KINDS:
                    disposals[int(kv["seq"])] = int(kv["qty"])
                elif kv["kind"] in INCOME_KINDS:
                    income[int(kv["seq"])] = value

    problems = manifest_problems(out)
    try:
        totals = json.loads((out / "totals.json").read_text())["years"]
        with open(out / "ledger.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except (OSError, ValueError, KeyError) as exc:
        return problems + ["report outputs unreadable: %s" % exc]

    disposed: dict[int, int] = {}
    ledger_income: dict[int, Fraction] = {}
    sums: dict[int, dict[str, Fraction]] = {}
    for row in rows:
        seq, year = int(row["seq"]), int(row["date"][:4])
        proceeds, basis, gain = (Fraction(row[k]) for k in ("proceeds", "basis", "gain"))
        year_sums = sums.setdefault(year, {})
        if row["term"] == "-":
            ledger_income[seq] = ledger_income.get(seq, 0) + proceeds
            year_sums["ordinary_income"] = year_sums.get("ordinary_income", 0) + proceeds
            continue
        if gain != proceeds - basis:
            problems.append("seq %d: gain is not proceeds - basis" % seq)
        disposed[seq] = disposed.get(seq, 0) + int(row["qty"])
        field = "long_term_gain" if row["term"] == "long" else "short_term_gain"
        year_sums[field] = year_sums.get(field, 0) + gain
    if disposed != disposals:
        wrong = sorted(set(disposed.items()) ^ set(disposals.items()))[:3]
        problems.append("ledger disposal qty differs from the events, e.g. %s" % wrong)
    if ledger_income != income:
        problems.append("ledger income differs from qty x fmv of the income events")
    for year, year_deductions in deductions.items():
        sums.setdefault(year, {})["deductible_expenses"] = year_deductions
    for year in sorted(set(sums) | {int(y) for y in totals}):
        reported = totals.get(str(year), {})
        for field in ("ordinary_income", "short_term_gain", "long_term_gain",
                      "deductible_expenses"):
            if Fraction(reported.get(field, "0")) != sums.get(year, {}).get(field, 0):
                problems.append("%d %s in totals.json differs from the ledger" % (year, field))
    return problems[:10]


# --- attrib ---


def check_attrib(scenario: Path, out: Path) -> list[str]:
    """One withholding line per transfer, and withheld = amount x the
    standard rate when affirmed, the elevated rate otherwise."""
    rates = {"affirmed": Fraction(1, 10), "unaffirmed": Fraction(3, 10)}
    amounts = []
    for line in scenario.read_text().splitlines():
        fields = line.split()
        if fields and fields[0] == "transfer":
            amounts.append(int(fields[3]))
        elif fields and fields[0] == "withholding":
            kv = _fields(line)
            rates["affirmed"] = Fraction(kv.get("standard", rates["affirmed"]))
            rates["unaffirmed"] = Fraction(kv.get("elevated", rates["unaffirmed"]))
    problems = manifest_problems(out)
    try:
        lines = (out / "withholding.txt").read_text().splitlines()[1:]
        trace_lines = (out / "trace.txt").read_text().count("\n")
    except OSError as exc:
        return problems + ["attrib outputs unreadable: %s" % exc]
    if len(lines) != len(amounts):
        return problems + ["%d withholding lines for %d transfers" % (len(lines), len(amounts))]
    for index, (line, amount) in enumerate(zip(lines, amounts)):
        fields = line.split()
        if int(fields[0]) != index or fields[3] not in rates:
            problems.append("withholding line %d malformed" % index)
        elif Fraction(fields[4]) != Fraction(amount, 10**8) * rates[fields[3]]:
            problems.append("transfer %d: withheld %s is not amount x rate" % (index, fields[4]))
    if trace_lines < len(amounts):
        problems.append("trace has fewer lines than transfers")
    return problems[:10]


# --- simulate ---


def check_chain(scenario: Path, out: Path) -> list[str]:
    """The subsidy at every height matches fisc.consensus.block_subsidy."""
    from fisc.amounts import Amount
    from fisc.consensus import RewardSchedule, block_subsidy

    lines = {line.split()[0]: _fields(line) for line in scenario.read_text().splitlines()}
    kv = lines["schedule"]
    schedule = RewardSchedule(Amount(int(Fraction(kv["initial"]) * 10**8), 8), int(kv["interval"]))
    heights = range(int(lines["mine"]["start"]), int(lines["mine"]["end"]) + 1)
    problems = manifest_problems(out)
    try:
        state = (out / "state.txt").read_text().splitlines()
        events = [line for line in (out / "events.fisc").read_text().splitlines()
                  if line.startswith("event ")]
    except OSError as exc:
        return problems + ["chain outputs unreadable: %s" % exc]
    if len(state) != len(heights) or len(events) != len(heights):
        return problems + ["%d state lines and %d events for %d heights"
                           % (len(state), len(events), len(heights))]
    for height, line, event in zip(heights, state, events):
        expected = block_subsidy(height, schedule).base_units
        if line != "height %d subsidy %d" % (height, expected) or \
                _fields(event).get("qty") != str(expected):
            problems.append("height %d: subsidy differs from block_subsidy" % height)
            break
    return problems


def check_validators(scenario: Path, out: Path) -> list[str]:
    """One state line per validator; no stake above its starting stake."""
    stakes = {}
    for line in scenario.read_text().splitlines():
        if line.startswith("validator "):
            stakes[line.split()[1]] = int(_fields(line)["stake"]) * 10**18
    problems = manifest_problems(out)
    try:
        state = (out / "state.txt").read_text().splitlines()
    except OSError as exc:
        return problems + ["validator outputs unreadable: %s" % exc]
    seen = {}
    for line in state:
        vid = line.split()[0]
        seen[vid] = int(_fields(line)["stake"])
    if set(seen) != set(stakes):
        problems.append("state does not list each validator once")
    elif any(seen[v] > stakes[v] for v in stakes):
        problems.append("a validator's stake grew")
    return problems


def check_pool(scenario: Path, out: Path) -> list[str]:
    """One swap and one purchase event per swap; product = x * y."""
    swaps = sum(line.startswith("swap ") for line in scenario.read_text().splitlines())
    problems = manifest_problems(out)
    try:
        events = (out / "events.fisc").read_text()
        state = dict(line.split() for line in (out / "state.txt").read_text().splitlines())
    except (OSError, ValueError) as exc:
        return problems + ["pool outputs unreadable: %s" % exc]
    if events.count(" kind=swap ") != swaps or events.count(" kind=purchase ") != swaps:
        problems.append("pool events do not match the %d swaps" % swaps)
    if int(state["product"]) != int(state["reserve_x"]) * int(state["reserve_y"]):
        problems.append("pool product is not reserve_x * reserve_y")
    return problems
