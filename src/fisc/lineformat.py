"""The line format of every fisc input file: events, policies, scenarios;
FiscError, the one type of every refusal of an input; and CHUNK_LINES, how
many records (events, ledger rows, trace lines) each write of an output
file carries.

`#` starts a comment anywhere on a line, blank lines are skipped, and a
line is its whitespace-separated tokens. A field is a `key=value` token.

Every scenario file, `simulate`'s pool, chain and validators and `attrib`'s,
checks its lines with `directive` against a table that `directives` builds
from each directive's form, such as `duty <validator> <event>`.
"""

from __future__ import annotations

from itertools import repeat

# Raised while a line is parsed, these become a LineError at that line.
_LINE_FAULTS = (KeyError, ValueError)
_EQUALS, _ONCE = repeat("="), repeat(1)

CHUNK_LINES = 4096


class FiscError(Exception):
    """A refusal of a run's input: `fisc.cli.main` prints it on one line of
    stderr and exits with its `exit_code`, 3 (a policy or scenario
    violation) unless a subclass says otherwise. Any other exception is a
    bug, not a verdict on the input."""

    exit_code = 3


class LineError(FiscError, ValueError):
    """A fault at a 1-based line, exit 2; line 0 is a fault of the whole
    file, exit 3."""

    def __init__(self, line_no: int, message: str):
        super().__init__(message)
        self.line_no = line_no
        self.exit_code = 2 if line_no else 3


class LineReader:
    """`with LineReader(text) as lines: for fields in lines: ...`

    A KeyError or ValueError raised in the block, the faults parsing raises,
    becomes a LineError at `lines.line_no`, the current line or 0 once all
    are read; a KeyError reads as a missing field. Any other exception
    passes through unchanged. The block holds a whole file, or one line
    where the pool's replay must run outside it.
    """

    def __init__(self, text: str):
        self.text = text
        self.line_no = 0

    def __iter__(self):
        for self.line_no, raw in enumerate(self.text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            fields = raw.split()
            if fields:
                yield fields
        self.line_no = 0

    def __enter__(self) -> LineReader:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, _LINE_FAULTS) and not isinstance(exc, LineError):
            message = "missing field %s" % exc if isinstance(exc, KeyError) else str(exc)
            raise LineError(self.line_no, message) from exc


def pair(token: str) -> tuple[str, str]:
    """Split a `key=value` token at its first `=`."""
    key, eq, value = token.partition("=")
    if not eq:
        raise ValueError("expected key=value, got %r" % token)
    return key, value


def pairs(tokens: list[str]) -> dict[str, str]:
    """`key=value` tokens as a dict; a repeated key keeps its last value."""
    try:
        return dict(map(str.split, tokens, _EQUALS, _ONCE))
    except ValueError:
        return dict(map(pair, tokens))  # raises at the first token without '='


def directives(*forms: str) -> dict[str, tuple[int, frozenset[str], str]]:
    """name -> (positional token count, keys, form) of each directive form
    `name <token>... key=...`; a token such as `allow|deny` is positional."""
    table = {}
    for form in forms:
        name, *tokens = form.split()
        keys = frozenset(token[:-4] for token in tokens if token.endswith("=..."))
        table[name] = (len(tokens) - len(keys), keys, form)
    return table


def directive(fields: list[str], table: dict) -> tuple[list[str], dict[str, str]]:
    """A scenario line's positional tokens and `key=value` fields: it names
    a directive of `table`, holds that directive's tokens and, if the
    directive takes no keys, nothing more, else only fields with keys it
    takes. A line of exactly its tokens has no fields to split."""
    form = table.get(fields[0])
    if form is None:
        raise ValueError("unknown directive %r" % fields[0])
    count, keys, usage = form
    if len(fields) == count + 1:
        return fields[1:], {}
    if len(fields) <= count or not keys:
        raise ValueError("usage: " + usage)
    kv = pairs(fields[count + 1:])
    if not kv.keys() <= keys:
        raise ValueError("unknown %s key %r" % (fields[0], next(k for k in kv if k not in keys)))
    return fields[1:count + 1], kv
