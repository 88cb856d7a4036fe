"""`tests/test_reach.py` in a session that leaves out some of its roots
skips, and names each root it left out."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args,missing", [
    (["tests/test_reach.py"],
     "tests/test_acceptance.py, tests/test_attribution.py::TestScenario::test_pinned_outputs, "
     "tests/test_cli.py, tests/test_pipeline.py::test_pinned_pipeline_outputs"),
    (["tests/test_attribution.py", "tests/test_reach.py", "-k", "pinned_outputs or reach"],
     "tests/test_acceptance.py, tests/test_cli.py, "
     "tests/test_pipeline.py::test_pinned_pipeline_outputs"),
], ids=["alone", "one-root"])
def test_reach_check_skips_and_names_the_roots_left_out(args, missing):
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
                             *args], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "roots not run in full in this session: %s\n" % missing in result.stdout
    assert "1 skipped" in result.stdout
