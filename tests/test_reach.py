"""Every function under `src/` is entered by a run the project stands behind.

A fresh interpreter records, with a profile hook, each function entered
while these run:
- the pinned simulate → report steps of `tests/pipeline/check.py`;
- `fisc attrib tests/attrib_pinned.scn`;
- `tests/test_cli.py` and `tests/test_acceptance.py`.
A function defined under `src/` that none of them enters fails this test,
unless `KEPT` names it with the reason it stays. Whether the inner tests
pass is the rest of the suite's business; only what they enter counts here.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

KEPT = {
    **dict.fromkeys(("fisc/addresses.py::Address.__eq__", "fisc/addresses.py::Address.__ne__",
                     "fisc/addresses.py::Address.__hash__"),
                    "an Address is equal by kind and text, not payload; test_addresses.py checks it"),
    "fisc/ripemd160.py::_fi": "part of ripemd160_pure",
    "fisc/ripemd160.py::_rol": "part of ripemd160_pure",
    "fisc/ripemd160.py::_compress": "part of ripemd160_pure",
    "fisc/ripemd160.py::ripemd160_pure":
        "the only RIPEMD-160 where hashlib's OpenSSL 3 has no legacy provider",
    "fisc/tax/lots.py::Lot._values": "what Lot.__eq__ compares",
    "fisc/tax/lots.py::Lot.__eq__": "the differential tests compare lots with the seed oracle's",
    "fisc/tax/lots.py::Lot.__repr__": "names the lots a failed differential test compared",
}

PROBE = r"""
import json, sys, tempfile
from pathlib import Path

root, out = Path(sys.argv[1]), sys.argv[2]
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.path[:0] = [str(root / "src"), str(root / "tests" / "pipeline")]
sys.setprofile(hook)
import check
import pytest
from fisc.cli import main

with tempfile.TemporaryDirectory() as tmp:
    check.run(Path(tmp, "pipeline"))
    main(["attrib", str(root / "tests" / "attrib_pinned.scn"), "--out", str(Path(tmp, "attrib"))])
pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci",
             str(root / "tests" / "test_cli.py"), str(root / "tests" / "test_acceptance.py")])
sys.setprofile(None)
with open(out, "w") as f:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in entered}), f)
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> `path::Qual.name` of every function under `src/`.
    A decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(str(path), first)] = "%s::%s" % (path.relative_to(SRC).as_posix(), name)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def test_every_src_function_is_reached_or_kept(tmp_path):
    out = tmp_path / "entered.json"
    subprocess.run([sys.executable, "-c", PROBE, str(ROOT), str(out)], cwd=tmp_path,
                   stdout=subprocess.DEVNULL, timeout=600, check=True)
    entered = {tuple(site) for site in json.loads(out.read_text())}
    defined = defined_functions()
    assert set(KEPT) <= set(defined.values()), "KEPT names a function that is gone"
    unreached = sorted(name for site, name in defined.items()
                       if site not in entered and name not in KEPT)
    assert not unreached, "never entered: " + ", ".join(unreached)
