"""simulate → report through `fisc.cli.main` on committed inputs, pinned by digest.

`tests/pipeline/` holds a chain, a validators and a pool scenario, an event
file and a policy whose tax year starts on 6 April. The event file has an
event in year 999, negative timestamps just before the epoch, and
`counterparty=`, `specid=` and `meta.` fields. `SHA256SUMS` lists the
sha256 of every file the steps in `tests/pipeline/check.py` write, in
`sha256sum` format. That script runs the steps and checks the digests with
the standard library only, so the same outputs are checked here under every
CPython 3.10+ installed with pyenv.
"""

import os
import subprocess
from pathlib import Path

import pytest

from pipeline.check import PIPELINE, pinned, run

PYENV = Path.home() / ".pyenv" / "versions"


def test_pinned_pipeline_outputs(tmp_path):
    assert run(tmp_path) == pinned()


def pyenv_python(minor: str) -> Path | None:
    """The newest `~/.pyenv` CPython `minor`.x that has a `python3`."""
    found = sorted(PYENV.glob(minor + ".*/bin/python3"),
                   key=lambda p: [int(n) for n in p.parts[-3].split(".")])
    return found[-1] if found else None


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13"])
def test_pinned_pipeline_outputs_under_each_cpython(minor):
    python = pyenv_python(minor)
    if python is None:
        pytest.skip("no CPython %s under %s" % (minor, PYENV))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    result = subprocess.run([str(python), "-I", "-B", str(PIPELINE / "check.py")], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(": %d of %d pinned outputs match\n"
                                  % (len(pinned()), len(pinned())))
