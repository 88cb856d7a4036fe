"""simulate → report through `fisc.cli.main` on committed inputs, pinned by digest.

`tests/pipeline/` holds a chain, a validators and a pool scenario, an event
file and a policy whose tax year starts on 6 April. The event file has an
event in year 999, negative timestamps just before the epoch, and
`counterparty=`, `specid=` and `meta.` fields. `SHA256SUMS` lists the
sha256 of every file the steps below write, in `sha256sum` format, so the
same outputs can be checked from a shell: run the steps with
`python -m fisc.cli` in a directory holding the inputs under `in/`, then
`sha256sum -c tests/pipeline/SHA256SUMS` there.
"""

import shutil
from hashlib import sha256
from pathlib import Path

from fisc.cli import EXIT_OK, main
from fisc.tax.lots import AccountingMethod

PIPELINE = Path(__file__).with_name("pipeline")
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


def test_pinned_pipeline_outputs(tmp_path, monkeypatch):
    shutil.copytree(PIPELINE, tmp_path / "in")
    # Manifests record input paths as given, so run from a fixed layout.
    monkeypatch.chdir(tmp_path)
    for argv in STEPS:
        assert main(argv) == EXIT_OK, argv
    outputs = {
        path.relative_to(tmp_path).as_posix(): sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file() and path.relative_to(tmp_path).parts[0] != "in"
    }
    pinned = {}
    for line in (PIPELINE / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        pinned[name] = digest
    assert outputs == pinned
