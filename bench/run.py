"""Seeded end-to-end and per-layer benchmark of the fisc CLI.

    python3 bench/run.py --workload ledger-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. With `--trace 0` it drives `python -m fisc.cli` as one closed-loop
client, one subprocess at a time, repeating the workload's invocations
for `--seconds`, and reports end-to-end metrics. With `--trace 1` it runs
one untraced round, then repeats the invocations in-process through
`fisc.cli.main` with every traced function wrapped (see spans.py) and
reports per-layer metrics and the tracing overhead.

A shared host gives the benchmark a CPU whose speed drifts by 2x and
more, within seconds and over minutes, as other tenants' load comes and
goes. The untraced times are therefore calibrated: a fixed reference
load runs on the same CPU before and after every timed span, and each
span is rescaled to a CPU that runs the reference load in REFERENCE_S
seconds (see Calibration). The raw times are kept in the results file.

Every invocation's outputs are checked (see workloads.py) and its
`manifest.json` must be byte-identical in every round. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`, holding the metrics BENCHMARK.json names. The
full results, output digests included, go to
`.bench_build/bench/results/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "bench"
CHILD_TIMEOUT_S = 120
REFERENCE_S = 0.1  # calibrated seconds are seconds on a CPU running reference_load() this fast
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


class SetupError(Exception):
    pass


def fail(message: str) -> None:
    print("bench: %s" % message, file=sys.stderr)
    raise SystemExit(2)


# --- calibration against the host's drifting CPU speed ---


def reference_load() -> int:
    """A fixed load in the mix of fisc's own hot paths, in two halves of
    about equal time: interpreted work (small fractions, 32-bit word
    rotations, string formatting, dict stores) and exact fractions with
    10k-bit terms, whose big-integer C loops slow down less than the
    interpreter on a contended host."""
    total = Fraction(0)
    word = 0x67452301
    seen = {}
    for i in range(1, 8000):
        total += Fraction(i % 89 + 1, i % 12 + 1)
        for _ in range(8):
            word = ((word << 5 | word >> 27) ^ i) & 0xFFFFFFFF
        seen[format(word, "08x")] = "%d.%02d" % divmod(i, 100)
    for _ in range(18):
        big = Fraction(3 ** 6000 + 1, 7 ** 3500 + 3)
        for i in range(1, 120):
            big = big * Fraction(i + 7, i % 97 + 3) + Fraction(1, i + 2)
    return len(seen) + total.denominator + big.denominator.bit_length()


class Calibration:
    """Times reference_load() between timed spans on the same CPU.

    factor() times it again and returns REFERENCE_S divided by the mean of
    this and the previous reference time: multiplied by it, the time of the
    span in between becomes its time on a CPU that runs the reference load
    in REFERENCE_S seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = self.time_reference()

    def time_reference(self) -> float:
        start = time.perf_counter()
        reference_load()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        now = self.time_reference()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def pin_to_one_cpu() -> None:
    """Run the benchmark and its children on one CPU, so that the reference
    load and the CLI share whatever contention that CPU sees."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# --- untraced rounds: the CLI in subprocesses ---


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FISC_CONFIG", None)
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[float, int, int, str]:
    """Run `python -m fisc.cli argv`; return (seconds, exit code, max RSS KiB, stderr).

    A child still running after CHILD_TIMEOUT_S is killed, and so is one
    left behind when the benchmark itself is interrupted.
    """
    with open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fisc.cli"] + argv, cwd=cwd,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return seconds, proc.returncode, usage.ru_maxrss, stderr


def setup_times(work: Path, count: int) -> list[float]:
    """Times of `python -m fisc.cli --version`: process start plus import."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fisc.cli", "--version"], cwd=work,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("fisc "):
            raise SetupError("`fisc --version` failed: %s" % proc.stderr.strip()[-300:])
    return times


class Session:
    """The invocations of one workload and the results of every round."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.invocations = workloads.build(name, seed, work)
        self.records: list[dict] = []  # one per invocation run
        self.manifests: dict[str, bytes] = {}
        self.items: dict[str, int] = {}
        self.problems: list[str] = []

    def prepare(self, inv) -> None:
        shutil.rmtree(self.work / inv.out, ignore_errors=True)

    def finish(self, inv, round_no: int, traced: bool, seconds: float, code: int,
               rss_kib: int, stderr: str, calibrated: float | None = None) -> dict:
        """Check one invocation's outputs and record it."""
        ok = code == 0 and "Traceback" not in stderr
        problems: list[str] = []
        digest = None
        manifest_path = self.work / inv.out / "manifest.json"
        if ok and not manifest_path.is_file():
            problems = ["no manifest.json"]
        elif ok:
            manifest = manifest_path.read_bytes()
            digest = hashlib.sha256(manifest).hexdigest()
            if inv.key not in self.manifests:
                self.manifests[inv.key] = manifest
                self.items[inv.key] = inv.items(self.work)
                problems = inv.check(self.work)
            elif manifest != self.manifests[inv.key]:
                problems = ["manifest.json differs from the first round"]
            else:
                # Identical manifest: the outputs checked in the first round,
                # provided the files still match the digests it lists.
                problems = workloads.manifest_problems(self.work / inv.out)
        self.problems += ["%s: %s" % (inv.key, p) for p in problems]
        record = {
            "key": inv.key, "subcommand": inv.subcommand, "round": round_no, "traced": traced,
            "seconds": seconds, "calibrated_s": calibrated, "exit": code, "ok": ok and not problems,
            "rss_mb": rss_kib / 1024, "manifest_sha256": digest,
            "items": self.items.get(inv.key, 0) if ok and not problems else 0,
            "output_bytes": sum(p.stat().st_size for p in (self.work / inv.out).glob("*")),
        }
        if not ok:
            tail = stderr.strip().splitlines()[-1:] or [""]
            record["error"] = tail[0][-300:]
            record["known_defect"] = KNOWN_DEFECT in stderr
        self.records.append(record)
        return record

    def untraced_round(self, round_no: int, calibration: Calibration | None = None) -> float:
        wall = 0.0
        for inv in self.invocations:
            self.prepare(inv)
            seconds, code, rss, stderr = run_child(inv.argv, self.work)
            calibrated = seconds * calibration.factor() if calibration else None
            self.finish(inv, round_no, False, seconds, code, rss, stderr, calibrated)
            wall += seconds
        return wall


def repeat(seconds: float, one_round, first: int = 0) -> list[float]:
    """Run rounds first, first + 1, ... while at least half of the next one
    fits in `seconds`, judged by the last round's time without its checks;
    at least one."""
    start = time.perf_counter()
    walls: list[float] = []
    while not walls or time.perf_counter() - start + walls[-1] / 2 < seconds:
        walls.append(one_round(first + len(walls)))
    return walls


def end_to_end(session: Session, setup: list[float], raw_setup: list[float],
               calibration: Calibration) -> dict:
    """End-to-end metrics over every round, from calibrated times.

    wall_s sums, over the workload's invocations, each one's median time.
    """
    records = session.records
    per_key: dict[str, list[float]] = {}
    raw_per_key: dict[str, list[float]] = {}
    for record in records:
        per_key.setdefault(record["key"], []).append(record["calibrated_s"])
        raw_per_key.setdefault(record["key"], []).append(record["seconds"])
    medians = {key: statistics.median(times) for key, times in per_key.items()}
    wall = sum(medians.values())
    rounds = 1 + max(r["round"] for r in records)
    items = sum(r["items"] for r in records) / rounds
    failed = sum(not r["ok"] for r in records)
    attempted = len(records)
    metrics = {
        "wall_s": (wall, "s"),
        "rounds": (rounds, "count"),
        "records_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "setup_samples": (len(setup), "count"),
        "raw_wall_s": (sum(statistics.median(t) for t in raw_per_key.values()), "s"),
        "raw_setup_s": (statistics.median(raw_setup), "s"),
        "reference_s": (statistics.median(calibration.samples), "s"),
        "reference_samples": (len(calibration.samples), "count"),
        "error_rate": (failed / attempted, "ratio"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    for sub in sorted({r["subcommand"] for r in records}):
        metrics["%s_s" % sub] = (sum(t for k, t in medians.items() if k.split(".")[0] == sub), "s")
    for key, times in sorted(per_key.items()):
        name = key.replace(".", "_")
        if name != key:  # "attrib" is already attrib_s
            metrics["%s_s" % name] = (medians[key], "s")
        metrics["%s_max_s" % name] = (max(times), "s")
        metrics["%s_samples" % name] = (len(times), "count")
    return metrics


# --- traced rounds: fisc.cli.main in-process ---


def traced_round(session: Session, tracer, round_no: int) -> float:
    import fisc.cli

    tracer.reset()
    wall = 0.0
    cwd = os.getcwd()
    os.chdir(session.work)
    try:
        for inv in session.invocations:
            session.prepare(inv)
            tracer.set_context(inv.context)
            err = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = fisc.cli.main(list(inv.argv))
            except Exception:  # the CLI let an exception escape: count it as failed
                code = 1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
            wall += seconds
            record = session.finish(inv, round_no, True, seconds, code, 0, err.getvalue())
            tracer.count("cli.output_bytes", record["output_bytes"])
    finally:
        os.chdir(cwd)
    return wall


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of the round the tracer holds."""
    import spans

    by_name, by_layer = tracer.profile()

    def span(context: str, name: str, field: str = "inclusive_s") -> float:
        return by_name.get((context, name), {}).get(field, 0)

    def total(name: str, field: str = "inclusive_s") -> float:
        return sum(v[field] for (_, n), v in by_name.items() if n == name)

    def counter(context: str | None, name: str) -> int:
        return sum(v for (c, n), v in tracer.counters.items()
                   if n == name and context in (None, c))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for ctx in workloads.METHODS:
        dispose_calls = span(ctx, spans.DISPOSE, "calls")
        listed = counter(ctx, "tax.lots.listed")
        parts = counter(ctx, "tax.lots.parts")
        m.update({
            "tax.lots.dispose_s." + ctx: (span(ctx, spans.DISPOSE), "s"),
            "tax.lots.dispose_calls." + ctx: (dispose_calls, "count"),
            "tax.lots.add_s." + ctx: (span(ctx, "tax.lots.LotStore.add_lot"), "s"),
            "tax.lots.add_calls." + ctx: (span(ctx, "tax.lots.LotStore.add_lot", "calls"), "count"),
            "tax.lots.listed_per_dispose." + ctx: (ratio(listed, dispose_calls), "count"),
            "tax.lots.parts_per_dispose." + ctx: (ratio(parts, dispose_calls), "count"),
            "tax.lots.useful_ratio." + ctx: (ratio(parts, listed), "ratio"),
            "tax.engine.compute_s." + ctx: (span(ctx, spans.COMPUTE), "s"),
            "tax.engine.compute_self_s." + ctx:
                (by_layer.get((ctx, "tax.engine"), {}).get("in_compute_s", 0.0), "s"),
            "tax.engine.to_csv_s." + ctx: (span(ctx, "tax.engine.TaxReport.to_csv"), "s"),
            "tax.engine.to_totals_json_s." + ctx:
                (span(ctx, "tax.engine.TaxReport.to_totals_json"), "s"),
            "tax.engine.ledger_lines." + ctx: (counter(ctx, "tax.engine.ledger_lines"), "count"),
            "tax.events.parse_s." + ctx: (span(ctx, "tax.events.parse_event_file"), "s"),
            "tax.events.records." + ctx: (counter(ctx, "tax.events.records"), "count"),
        })
    for ctx in workloads.METHODS + ("simulate", "attrib"):
        m.update({
            "amounts.format_rational_s." + ctx: (span(ctx, "amounts.format_rational"), "s"),
            "amounts.format_rational_calls." + ctx:
                (span(ctx, "amounts.format_rational", "calls"), "count"),
            "amounts.max_denominator_bits." + ctx:
                (counter(ctx, "amounts.max_denominator_bits"), "bits"),
        })
    queries = total("attribution.sim.AttributionNetwork.query_beneficiary_jurisdiction", "calls")
    register = "attribution.protocol.TaxAuthority.register_ownership"
    m.update({
        "tax.events.serialize_s": (total("tax.events.serialize_event_file"), "s"),
        "scenarios.chain_s": (total("scenarios.run_chain_scenario"), "s"),
        "scenarios.validators_s": (total("scenarios.run_validator_scenario"), "s"),
        "scenarios.pool_s": (total("scenarios.run_pool_scenario"), "s"),
        "addresses.hash160_s": (total("addresses.hash160"), "s"),
        "addresses.hash160_calls": (total("addresses.hash160", "calls"), "count"),
        "addresses.derive_calls": (total("addresses.derive_address", "calls"), "count"),
        "signatures.sign_calls": (total("signatures.MockScheme.sign", "calls"), "count"),
        "signatures.verify_calls": (total("signatures.MockScheme.verify", "calls"), "count"),
        "signatures.verify_s": (total("signatures.MockScheme.verify"), "s"),
        "attribution.protocol.register_s": (total(register), "s"),
        "attribution.protocol.registrations_rejected":
            (sum(v for (_, n), v in tracer.errors.items() if n == register), "count"),
        "attribution.protocol.knows_address_calls":
            (total("attribution.protocol.TaxAuthority.knows_address", "calls"), "count"),
        "attribution.sim.query_s":
            (total("attribution.sim.AttributionNetwork.query_beneficiary_jurisdiction"), "s"),
        "attribution.sim.queries": (queries, "count"),
        "attribution.sim.find_home_s": (total("attribution.sim.AttributionNetwork.find_home"), "s"),
        "attribution.sim.affirmed_ratio":
            (ratio(counter(None, "attribution.sim.affirmed"), queries), "ratio"),
        "attribution.sim.dropped": (counter(None, "attribution.sim.dropped"), "count"),
        "attribution.sim.trace_entries": (counter(None, "attribution.sim.trace_entries"), "count"),
        "attribution.sim.render_trace_s":
            (total("attribution.sim.AttributionNetwork.render_trace"), "s"),
        "attribution.scenario.parse_s":
            (total("attribution.scenario.parse_attribution_scenario"), "s"),
        "cli.output_bytes": (counter(None, "cli.output_bytes"), "bytes"),
        "trace.spans": (len(tracer.span_name), "count"),
    })
    for (_, layer), values in by_layer.items():
        key = "self_s.%s" % layer
        m[key] = (m.get(key, (0.0, "s"))[0] + values["self_s"], "s")
    return m


def run_traced(session: Session, seconds: float) -> tuple[dict, list[float]]:
    """Per-layer metrics: medians over traced rounds, after untraced round 0."""
    from spans import Tracer

    untraced = session.untraced_round(0)
    tracer = Tracer()
    tracer.install()
    rounds: list[dict] = []

    def one_round(index: int) -> float:
        wall = traced_round(session, tracer, index)
        rounds.append(layer_metrics(tracer))
        return wall

    try:
        walls = repeat(seconds, one_round, first=1)
    finally:
        tracer.uninstall()
    tracer.write_spans(session.work / "spans")
    metrics = {}
    for name, (_, unit) in rounds[0].items():
        metrics[name] = (statistics.median(r[name][0] for r in rounds), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / untraced, "ratio")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    return metrics, walls


# --- entry point ---


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fisc" / "cli.py").is_file():
        fail("no fisc sources under %s; run from a source checkout" % SRC)
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        fail("cannot read %s: %s" % (spec_path, exc))
    sys.path.insert(0, str(SRC))

    work = BUILD / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(args.workload, args.seed, work)
    pin_to_one_cpu()
    try:
        setup_times(work, 1)  # fails early when fisc cannot start, and writes the bytecode cache
        if args.trace:
            metrics, walls = run_traced(session, args.seconds)
            listed = spec["per_layer"]
        else:
            calibration = Calibration()
            raw_setup: list[float] = []
            setup: list[float] = []

            def measure_setup(count: int) -> None:
                times = setup_times(work, count)
                factor = calibration.factor()
                raw_setup.extend(times)
                setup.extend(t * factor for t in times)

            def one_round(index: int) -> float:
                measure_setup(3)
                return session.untraced_round(index, calibration)

            walls = repeat(args.seconds, one_round)
            if len(setup) < 9:
                measure_setup(9 - len(setup))
            metrics = end_to_end(session, setup, raw_setup, calibration)
            listed = spec["end_to_end"]
    except SetupError as exc:
        fail(str(exc))

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        fail("metrics not measured: %s" % ", ".join(missing))
    failed = sum(not r["ok"] for r in session.records)
    result = {
        "correct": not session.problems,
        "attempted": len(session.records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "src_lines": src_line_count(), "sizes": workloads.SIZES[args.workload],
        "round_walls_s": walls, "problems": session.problems,
        "known_defect_failures": sum(r.get("known_defect", False) for r in session.records),
        "output_digests": {k: hashlib.sha256(v).hexdigest()
                           for k, v in sorted(session.manifests.items())},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
        "invocations": session.records,
        "result": result,
    }
    results = BUILD / "results" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(details, indent=1) + "\n")

    print("workload %s  seed %d  python %s  src_lines %d  rounds %d"
          % (args.workload, args.seed, details["python"], details["src_lines"], len(walls)))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-44s %14.6g %s" % (name, value, unit))
    for key, digest in details["output_digests"].items():
        print("  manifest %-35s %s" % (key, digest[:16]))
    for record in session.records:
        if "error" in record:
            print("  failed %s round %d: exit %d%s: %s" % (
                record["key"], record["round"], record["exit"],
                " (known seed defect)" if record["known_defect"] else "", record["error"]))
    for problem in session.problems[:20]:
        print("  check failed: %s" % problem)
    print("  results: %s" % results.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
