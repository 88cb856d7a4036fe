"""Shared fixtures, Hypothesis profiles and the reach record.

`--hypothesis-profile=ci` drops the per-example deadline, because shared CI
runners swing too much in speed for 200 ms to mean anything, and prints a
blob that reproduces any failure. `reach` is what `tests/test_reach.py`
checks: each code object entered, under a profile hook, while every `fisc`
module is imported at configure time and, in a session that runs
`tests/test_reach.py`, while each `ROOTS` item runs.
"""

import importlib
import pkgutil
import sys

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, print_blob=True)

ROOTS = ("tests/test_cli.py", "tests/test_acceptance.py",
         "tests/test_pipeline.py::test_pinned_pipeline_outputs",
         "tests/test_attribution.py::TestScenario::test_pinned_outputs")
entered, ran = set(), set()  # code objects; node ids of the root items run
REACH = "tests/test_reach.py"
hooked = False  # whether this session runs REACH, so the roots are profiled


def _enter(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


def _root(nodeid: str) -> str | None:
    return next((root for root in ROOTS if (nodeid + "::").startswith(root + "::")), None)


def _items(node):
    for child in node.collect():
        yield from _items(child) if isinstance(child, pytest.Collector) else [child]


def pytest_configure():
    sys.setprofile(_enter)
    import fisc
    for module in pkgutil.walk_packages(fisc.__path__, "fisc."):
        importlib.import_module(module.name)
    sys.setprofile(None)


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.nodeid.startswith(REACH))


def pytest_collection_finish(session):
    global hooked
    hooked = any(item.nodeid.startswith(REACH) for item in session.items)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    if not (hooked and _root(item.nodeid)):
        return (yield)
    sys.setprofile(_enter)
    try:
        return (yield)
    finally:
        sys.setprofile(None)
        ran.add(item.nodeid)


@pytest.fixture
def reach(request):
    """The code objects entered, and the roots left out: those with an item
    not run, found by collecting each root's module again."""
    session = request.session
    items = {item.nodeid for root in ROOTS for item in _items(pytest.Module.from_parent(
        session, path=session.config.rootpath / root.partition("::")[0]))}
    return entered, sorted({_root(nodeid) for nodeid in items - ran} - {None})


@pytest.fixture
def low_digit_limit():
    """CPython's int->str digit limit at its floor, 640, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int->str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(saved)
