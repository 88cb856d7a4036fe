"""Command-line front end: report, simulate, attrib.

Exit codes: 0 success; 2 parse error: an input that cannot be read or is
not UTF-8, a bad line, an unusable --out or an unknown option; 3 policy or
scenario violation: a fault of a whole file (line 0) or a refusal of the
engine or the replay, printed after the name of the event file or scenario.
Any other exit, such as 1 with a traceback, is a bug in fisc, not a
verdict on the input. Every run writes a manifest next to its outputs;
identical inputs and seed reproduce byte-identical files.
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
from .lineformat import FiscError, LineError
from .scenarios import run_chain_scenario, run_pool_scenario, run_validator_scenario
from .tax.engine import compute_report
from .tax.events import parse_event_file
from .tax.lots import AccountingMethod
from .tax.policy import parse_policy

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_POLICY = 3


class _Unreadable(FiscError):
    """An input that cannot be read or is not UTF-8, exit 2; its text names
    the file, so main prints it as it is."""

    exit_code = EXIT_PARSE


def _read(path: Path, digests: dict[str, str]) -> str:
    """The text of `path`, read once: the sha256 of the bytes parsed goes in
    `digests` under the path, and the bytes are freed before parsing starts."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise _Unreadable(exc) from None
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise _Unreadable("%s: %s" % (path, exc)) from None


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


def cmd_report(args) -> int:
    inputs: dict[str, str] = {}
    events, config = args.input, Path(args.config) if args.config else None
    decimals, records = parse_event_file(_read(events, inputs))
    args.input = config  # the file main names in a refusal, until the policy parses
    policy = parse_policy(_read(config, inputs) if config else "")
    args.input = events
    report = compute_report(records, policy, AccountingMethod(args.method), decimals)
    totals = report.to_totals_json()  # a year total too long to print exits before --out

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
    inputs: dict[str, str] = {}
    runner, text = _SIM_RUNNERS[args.kind], _read(args.input, inputs)
    # The runner writes its outputs into the staging directory as it replays.
    return _write_outputs(args.out, "simulate " + args.kind, inputs,
                          lambda write: runner(text, write))


def cmd_attrib(args) -> int:
    # Imported here, so that report and simulate do not load the package.
    from .attribution.scenario import parse_attribution_scenario, run_attribution_scenario

    inputs: dict[str, str] = {}
    scenario = parse_attribution_scenario(_read(args.input, inputs))
    if args.seed is not None:
        scenario.seed = args.seed
    # The run writes its outputs into the staging directory as it goes.
    return _write_outputs(args.out, "attrib", inputs,
                          lambda write: run_attribution_scenario(scenario, write),
                          scenario.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fisc", description=__doc__)
    parser.add_argument("--version", action="version", version="fisc " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")

    p_report = sub.add_parser("report", parents=[common], help="compute a tax report")
    p_report.add_argument("input", type=Path, metavar="events", help="event file")
    p_report.add_argument("--config", help="policy file")
    p_report.add_argument("--method", default="fifo",
                          choices=[m.value for m in AccountingMethod])
    p_report.set_defaults(func=cmd_report)

    p_sim = sub.add_parser("simulate", parents=[common], help="replay a scenario")
    p_sim.add_argument("kind", choices=sorted(_SIM_RUNNERS))
    p_sim.add_argument("input", type=Path, metavar="scenario")
    p_sim.set_defaults(func=cmd_simulate)

    p_attrib = sub.add_parser("attrib", parents=[common],
                              help="run an attribution-protocol scenario")
    p_attrib.add_argument("input", type=Path, metavar="scenario")
    p_attrib.add_argument("--seed", type=int, default=None,
                          help="override the scenario's seed line")
    p_attrib.set_defaults(func=cmd_attrib)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a refusal of its input, `args.input`, prints one
    line on stderr and returns its exit code. The cyclic garbage collector is
    off: a run makes no cyclic garbage that grows with its input, so each
    collection would only walk the growing lists of records, lots and lines
    again. The collector's state is restored for in-process callers."""
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except FiscError as exc:
        where = "%s:%d" % (args.input, exc.line_no) if isinstance(exc, LineError) else args.input
        print(exc if isinstance(exc, _Unreadable) else "%s: %s" % (where, exc), file=sys.stderr)
        return exc.exit_code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
