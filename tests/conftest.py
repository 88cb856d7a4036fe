"""Shared fixtures and Hypothesis profiles.

`--hypothesis-profile=ci` drops the per-example deadline, because shared CI
runners swing too much in speed for 200 ms to mean anything, and prints a
blob that reproduces any failure.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, print_blob=True)


@pytest.fixture
def low_digit_limit():
    """CPython's int->str digit limit at its floor, 640, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int->str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(saved)
