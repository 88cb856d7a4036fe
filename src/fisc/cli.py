"""Command-line front end: report, simulate, attrib.

Exit codes: 0 success, 2 parse error, 3 policy/scenario violation. Every
run writes a manifest next to its outputs; identical inputs and seed
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import hashlib
import json
import os
import re
import sys
from pathlib import Path

from . import __version__
from .lineformat import LineError
from .scenarios import run_chain_scenario, run_pool_scenario, run_validator_scenario
from .tax.engine import EngineError, PolicyViolation, compute_report
from .tax.events import parse_event_file
from .tax.lots import AccountingMethod, LotError
from .tax.policy import parse_policy

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_POLICY = 3


def _read(path: Path, digests: dict[str, str]) -> str:
    """The text of `path`, read once: the sha256 of the bytes parsed goes in
    `digests` under the path, and the bytes are freed before parsing starts."""
    data = path.read_bytes()
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data.decode()


class _Staged:
    """The output files of one run, written into a staging directory and
    moved into `out` at commit, so that a run that fails before commit leaves
    `out` as it was. The staging directory is named after `out` and this
    process. It sits inside `out` when `out` is already a directory, so that
    the moves never cross a filesystem, as they would for a mount point or a
    symlink to another device; otherwise it sits in the nearest existing
    directory above `out`, and `out`'s missing parents are made at commit.

    The run holds an exclusive flock on the file `lock` in its staging
    directory until the directory is removed, so a staging directory of
    `out` whose lock is free was left by a run that died, and the next run
    removes it."""

    def __init__(self, out: Path):
        self.out = out
        base = out if out.is_dir() else next(
            (parent for parent in out.parents if parent.exists()), out.parent)
        self.dir = base / (".%s.%d.tmp" % (out.name, os.getpid()))
        self.files: dict[str, tuple] = {}  # name -> (open file, sha256 of the bytes written)
        self.lock = None

    def make(self) -> None:
        """Create the staging directory and lock it, then remove every other
        staging directory of `out`, in `out` or beside it, whose lock it can
        take. The directory is made and locked under a private name, `.new`
        for `.tmp`, and renamed into place, so no run ever sees a live run's
        directory unlocked. A directory of either name with this pid was left
        by a killed run whose pid this process has reused: it goes first."""
        private = self.dir.with_suffix(".new")
        for path in (private, self.dir):
            if path.is_dir():
                _remove(path)
        private.mkdir()
        self.lock = open(private / "lock", "wb")
        fcntl.flock(self.lock, fcntl.LOCK_EX)
        os.rename(private, self.dir)
        name = re.compile(r"\.%s\.\d+\.tmp" % re.escape(self.out.name))
        for base in {self.dir.parent, self.out.parent}:
            for entry in os.listdir(base) if base.is_dir() else ():
                if name.fullmatch(entry) and entry != self.dir.name:
                    try:
                        with open(base / entry / "lock", "rb") as lock:
                            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                            _remove(base / entry)
                    except OSError:  # no lock file, a live run's lock, or removed by another run
                        pass

    def write(self, name: str, text: str) -> None:
        """Append `text`, encoded once, to output `name`; its first write creates it."""
        if name not in self.files:
            self.files[name] = (open(self.dir / name, "wb"), hashlib.sha256())
        file, digest = self.files[name]
        data = text.encode()
        file.write(data)
        digest.update(data)

    def commit(self, manifest: dict) -> None:
        """Move every output into `out`, then `manifest.json` with `manifest`
        and the outputs' digests. A stale manifest is moved out of `out`
        first, so `out` never holds one that does not describe its files: a
        move that fails after it leaves `out` without a manifest."""
        manifest["outputs"] = {}
        for name, (file, digest) in self.files.items():
            file.close()
            manifest["outputs"][name] = digest.hexdigest()
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (self.dir / "manifest.json").write_text(text)
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(self.out / "manifest.json", self.dir / "manifest.old")
        except FileNotFoundError:
            pass
        for name in [*self.files, "manifest.json"]:
            os.replace(self.dir / name, self.out / name)

    def discard(self) -> None:
        """Close the outputs and remove the staging directory with whatever
        is still in it, then release the lock."""
        for file, _ in self.files.values():
            try:
                file.close()
            except OSError:  # a buffer that cannot be flushed; the file goes anyway
                pass
        try:
            for path in (self.dir, self.dir.with_suffix(".new")):
                if path.is_dir():
                    _remove(path)
        finally:
            if self.lock is not None:
                self.lock.close()


def _remove(path: Path) -> None:
    """Remove a staging directory and the files in it."""
    for file in path.iterdir():
        file.unlink()
    path.rmdir()


def _write_outputs(out: str, command: str, inputs: dict[str, str], produce,
                   seed: int | None = None) -> int:
    """Run `produce(write)`, which writes each output with `write(name, text)`,
    into a staging directory; then make `out` and its missing parents, move
    the outputs into it and write `manifest.json` last, with the sha256 of
    every output's bytes and the `inputs` digests. A failure before the moves
    removes the staging directory and leaves `out` as it was; a move that
    fails once the stale manifest is out leaves `out` without one, so it
    reads as partial. An `out`
    that cannot be made or written exits 2 with one line; anything else
    `produce` raises propagates."""
    staged = _Staged(Path(out))
    try:
        try:
            staged.make()
            produce(staged.write)
            staged.commit({"command": command, "engine_version": __version__,
                           "inputs": inputs, "seed": seed})
        finally:
            staged.discard()
    except OSError as exc:
        print("%s: %s" % (out, exc.strerror or exc), file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


# What reading and parsing an input file may raise: an unreadable file, bytes
# that are not UTF-8, or a bad line.
_INPUT_ERRORS = (LineError, OSError, UnicodeDecodeError)


def _bad_input(path: Path, exc: Exception) -> int:
    """Print why an input file was refused; line 0 is a whole-file violation."""
    if not isinstance(exc, LineError):
        print(str(exc) if isinstance(exc, OSError) else "%s: %s" % (path, exc),
              file=sys.stderr)
        return EXIT_PARSE
    print("%s:%d: %s" % (path, exc.line_no, exc), file=sys.stderr)
    return EXIT_POLICY if exc.line_no == 0 else EXIT_PARSE


def cmd_report(args) -> int:
    events_path = Path(args.events)
    policy_path = Path(args.config) if args.config else None
    inputs: dict[str, str] = {}
    try:
        decimals, records = parse_event_file(_read(events_path, inputs))
    except _INPUT_ERRORS as exc:
        return _bad_input(events_path, exc)
    try:
        policy = parse_policy(_read(policy_path, inputs) if policy_path else "")
    except _INPUT_ERRORS as exc:
        return _bad_input(policy_path, exc)
    try:
        method = AccountingMethod(args.method)
        report = compute_report(records, policy, method, decimals)
        totals = report.to_totals_json()  # a year total too long to print exits before --out
    except PolicyViolation as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_POLICY
    except (EngineError, LotError, ValueError) as exc:
        print("%s: %s" % (events_path, exc), file=sys.stderr)
        return EXIT_POLICY

    def produce(write) -> None:
        write("totals.json", totals)
        report.to_csv(write)

    return _write_outputs(args.out, "report", inputs, produce)


_SIM_RUNNERS = {
    "pool": run_pool_scenario,
    "chain": run_chain_scenario,
    "validators": run_validator_scenario,
}


def cmd_simulate(args) -> int:
    scenario_path = Path(args.scenario)
    inputs: dict[str, str] = {}
    runner = _SIM_RUNNERS[args.kind]
    try:
        text = _read(scenario_path, inputs)
        # The runner writes its outputs into the staging directory as it replays.
        return _write_outputs(args.out, "simulate " + args.kind, inputs,
                              lambda write: runner(text, write))
    except _INPUT_ERRORS as exc:
        return _bad_input(scenario_path, exc)


def cmd_attrib(args) -> int:
    # Imported here, so that report and simulate do not load the package.
    from .attribution.protocol import AttributionError
    from .attribution.scenario import parse_attribution_scenario, run_attribution_scenario
    from .attribution.travelrule import TravelRuleError

    scenario_path = Path(args.scenario)
    inputs: dict[str, str] = {}
    try:
        scenario = parse_attribution_scenario(_read(scenario_path, inputs))
    except _INPUT_ERRORS as exc:
        return _bad_input(scenario_path, exc)
    if args.seed is not None:
        scenario.seed = args.seed
    try:
        # The run writes its outputs into the staging directory as it goes.
        return _write_outputs(args.out, "attrib", inputs,
                              lambda write: run_attribution_scenario(scenario, write),
                              scenario.seed)
    except (AttributionError, TravelRuleError, ValueError) as exc:
        print("%s: %s" % (scenario_path, exc), file=sys.stderr)
        return EXIT_POLICY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fisc", description=__doc__)
    parser.add_argument("--version", action="version", version="fisc " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")

    p_report = sub.add_parser("report", parents=[common], help="compute a tax report")
    p_report.add_argument("events", help="event file")
    p_report.add_argument("--config", help="policy file")
    p_report.add_argument("--method", default="fifo",
                          choices=[m.value for m in AccountingMethod])
    p_report.set_defaults(func=cmd_report)

    p_sim = sub.add_parser("simulate", parents=[common], help="replay a scenario")
    p_sim.add_argument("kind", choices=sorted(_SIM_RUNNERS))
    p_sim.add_argument("scenario")
    p_sim.set_defaults(func=cmd_simulate)

    p_attrib = sub.add_parser("attrib", parents=[common],
                              help="run an attribution-protocol scenario")
    p_attrib.add_argument("scenario")
    p_attrib.add_argument("--seed", type=int, default=None,
                          help="override the scenario's seed line")
    p_attrib.set_defaults(func=cmd_attrib)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off: a run makes
    no cyclic garbage that grows with its input, so each collection would
    only walk the growing lists of records, lots and lines again. The
    collector's state is restored for in-process callers."""
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
