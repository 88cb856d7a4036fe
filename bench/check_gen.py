"""Generator checks. Run: python3 -m pytest -q bench/check_gen.py

Same seed, byte-identical inputs; another seed, other inputs; and every
generated `specid=` reference is accepted by `fisc report --method specid`.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


def inputs(name: str, seed: int, work: Path) -> dict[str, bytes]:
    workloads.build(name, seed, work)
    return {p.name: p.read_bytes() for p in sorted((work / "in").iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    first = inputs(name, 7, tmp_path / "a")
    assert first == inputs(name, 7, tmp_path / "b")
    other = inputs(name, 8, tmp_path / "c")
    assert other.keys() == first.keys()
    assert all(other[key] != first[key] for key in first)


@pytest.mark.parametrize("name,seed", [("ledger-deep", 3), ("ledger-pooled", 4)])
def test_specid_references_are_valid(name, seed, tmp_path):
    from fisc.cli import EXIT_OK, main

    workloads.build(name, seed, tmp_path)
    events = tmp_path / "in" / "events.fisc"
    assert events.read_text().count("specid=") > 100
    out = tmp_path / "specid"
    assert main(["report", str(events), "--method", "specid", "--out", str(out)]) == EXIT_OK
    assert workloads.check_report(events, out) == []
