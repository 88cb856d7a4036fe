import pytest

from fisc.defi.pool import PoolError
from fisc.lineformat import LineError, LineReader, directive, directives, pair, pairs


def read(text):
    with LineReader(text) as lines:
        return [(lines.line_no, fields) for fields in lines]


def test_comments_blanks_and_line_numbers():
    text = "# header\n\n  a b=1  # trailing\n#\nc\t d#e\n"
    assert read(text) == [(3, ["a", "b=1"]), (5, ["c", "d"])]


def test_pairs_keep_the_last_value_and_split_once():
    assert pairs(["a=1", "b=x=y", "a=2", "c="]) == {"a": "2", "b": "x=y", "c": ""}
    assert pair("k = v") == ("k ", " v")


@pytest.mark.parametrize("tokens,bad", [(["a=1", "b", "c"], "b"), (["x"], "x")])
def test_first_token_without_equals_is_named(tokens, bad):
    with pytest.raises(ValueError, match="expected key=value, got %r" % bad):
        pairs(tokens)


# KeyError and ValueError are the faults parsing raises. Any other fault,
# such as IndexError or ZeroDivisionError, is a bug: it leaves the block as
# it was raised, not as a LineError that would read as a refusal. A
# PoolError is not a parse fault either: run_pool_scenario refuses it itself.
@pytest.mark.parametrize(
    "fault,message",
    [
        (KeyError("qty"), "missing field 'qty'"),
        (ValueError("bad value"), "bad value"),
        (IndexError("list index out of range"), "list index out of range"),
        (ZeroDivisionError("division by zero"), "division by zero"),
        (PoolError("pool is not live"), "pool is not live"),
    ],
)
def test_faults_become_line_errors_at_their_line(fault, message):
    parse_fault = isinstance(fault, (KeyError, ValueError))
    with pytest.raises(LineError if parse_fault else type(fault)) as err:
        with LineReader("ok\n\nbad\n") as lines:
            for fields in lines:
                if fields == ["bad"]:
                    raise fault
    if parse_fault:
        assert (err.value.line_no, str(err.value)) == (3, message)
        assert err.value.__cause__ is fault
    else:
        assert err.value is fault and str(err.value) == message


def test_fault_after_the_last_line_is_a_whole_file_error():
    with pytest.raises(LineError) as err:
        with LineReader("a\nb\n") as lines:
            for _ in lines:
                pass
            raise ValueError("nothing declared")
    assert err.value.line_no == 0


def test_line_errors_and_other_exceptions_pass_through():
    error = LineError(7, "kept")
    with pytest.raises(LineError) as err:
        with LineReader("a\n") as lines:
            for _ in lines:
                raise error
    assert err.value is error
    with pytest.raises(TypeError):
        with LineReader("a\n") as lines:
            for _ in lines:
                raise TypeError("not a line fault")


TABLE = directives("eoi <asker> <responder> allow|deny", "swap in=... dir=...",
                   "validator <id> stake=...")


def test_directives_count_positional_tokens_and_keys():
    assert TABLE == {
        "eoi": (3, frozenset(), "eoi <asker> <responder> allow|deny"),
        "swap": (0, frozenset({"in", "dir"}), "swap in=... dir=..."),
        "validator": (1, frozenset({"stake"}), "validator <id> stake=..."),
    }


@pytest.mark.parametrize(
    "line,args,kv",
    [
        ("eoi AT DE allow", ["AT", "DE", "allow"], {}),  # allow|deny is one token
        ("validator v1", ["v1"], {}),  # exactly its tokens: no fields split
        ("swap", [], {}),
        ("validator v1 stake=2 stake=3", ["v1"], {"stake": "3"}),
        ("swap dir=y2x in=1=2", [], {"dir": "y2x", "in": "1=2"}),
    ],
)
def test_directive_splits_tokens_and_fields(line, args, kv):
    assert directive(line.split(), TABLE) == (args, kv)


@pytest.mark.parametrize(
    "line,message",
    [
        ("bogus x", "unknown directive 'bogus'"),
        ("eoi AT DE", "usage: eoi <asker> <responder> allow|deny"),  # too few
        ("validator", "usage: validator <id> stake=..."),
        ("eoi AT DE allow extra", "usage: eoi <asker> <responder> allow|deny"),  # takes no keys
        ("eoi AT DE allow x=1", "usage: eoi <asker> <responder> allow|deny"),
        ("swap in=1 dirr=y2x inn=2", "unknown swap key 'dirr'"),  # the first one named
        ("validator v1 v2", "expected key=value, got 'v2'"),
        ("swap in=1 x2y", "expected key=value, got 'x2y'"),
    ],
)
def test_directive_refuses_a_line_its_form_does_not_take(line, message):
    with pytest.raises(ValueError) as err:
        directive(line.split(), TABLE)
    assert str(err.value) == message
