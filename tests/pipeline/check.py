"""Run the pinned simulate → report steps and compare their outputs with SHA256SUMS.

Standard library only, so that any CPython the package supports can run it
from a source checkout, with nothing installed:

    python3 tests/pipeline/check.py

The steps run through `fisc.cli.main` in a temporary directory that holds
this directory's inputs under `in/`. The script prints each output whose
digest differs, is missing or is not pinned, and each directory that is
neither `in/` nor a step's --out (a staging directory left behind), and
exits 1 if there is one.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

PIPELINE = Path(__file__).resolve().parent
SRC = PIPELINE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from fisc.cli import EXIT_OK, main as fisc  # noqa: E402
from fisc.tax.lots import AccountingMethod  # noqa: E402

POLICY = ["--config", "in/policy.cfg"]
STEPS = [
    ["simulate", "chain", "in/chain.scn", "--out", "chain"],
    ["report", "chain/events.fisc", *POLICY, "--out", "chain-report"],
    ["simulate", "validators", "in/validators.scn", "--out", "validators"],
    ["report", "validators/events.fisc", *POLICY, "--out", "validators-report"],
    ["simulate", "pool", "in/pool.scn", "--out", "pool"],
] + [
    ["report", "in/events.fisc", "--method", m.value, *POLICY, "--out", "events-" + m.value]
    for m in AccountingMethod
]


def pinned() -> dict[str, str]:
    """Output path -> sha256, as `SHA256SUMS` lists them."""
    lines = (PIPELINE / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in map(str.split, lines)}


def written(root: Path) -> dict[str, str]:
    """Output path -> sha256 of every file under `root` outside `in/`."""
    return {
        path.relative_to(root).as_posix(): sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file() and path.relative_to(root).parts[0] != "in"
    }


def stray_directories(root: Path) -> list[str]:
    """Each directory under `root` that is neither `in/` nor a step's --out,
    such as a staging directory a step left behind."""
    outs = {argv[argv.index("--out") + 1] for argv in STEPS}
    found = (path.relative_to(root) for path in root.rglob("*") if path.is_dir())
    return sorted(rel.as_posix() + "/" for rel in found
                  if rel.parts[0] != "in" and rel.as_posix() not in outs)


def run(root: Path) -> dict[str, str]:
    """Copy the inputs to `root/in`, run STEPS in `root` and return `written(root)`.
    Manifests record input paths as given, so the steps run from that layout."""
    shutil.copytree(PIPELINE, root / "in", ignore=shutil.ignore_patterns("__pycache__"))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in STEPS:
            if fisc(argv) != EXIT_OK:
                raise SystemExit("step failed: fisc " + " ".join(argv))
    finally:
        os.chdir(cwd)
    return written(root)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run(Path(tmp))
        strays = stray_directories(Path(tmp))
    expected = pinned()
    bad = sorted(name for name in outputs.keys() | expected.keys()
                 if outputs.get(name) != expected.get(name))
    for name in bad:
        print("%s: %s" % (name, "not pinned" if name not in expected
                          else "missing" if name not in outputs else "digest differs"))
    for name in strays:
        print("%s: not an output directory" % name)
    matched = sum(outputs.get(name) == digest for name, digest in expected.items())
    print("Python %s: %d of %d pinned outputs match"
          % (sys.version.split()[0], matched, len(expected)))
    return 1 if bad or strays else 0


if __name__ == "__main__":
    sys.exit(main())
