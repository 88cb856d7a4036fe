import contextlib
import errno
import fcntl
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import fisc
import fisc.cli
from fisc.amounts import Amount, format_rational, parse_rational
from fisc.cli import EXIT_OK, EXIT_PARSE, EXIT_POLICY, main
from fisc.lineformat import CHUNK_LINES
from fisc.scenarios import run_chain_scenario, run_pool_scenario, run_validator_scenario
from fisc.tax.engine import compute_report
from fisc.tax.events import ChainEventRecord, parse_event_file, serialize_event_file
from fisc.tax.lots import AccountingMethod
from fisc.tax.policy import JurisdictionPolicy

EVENTS = """\
asset BTC 8
event seq=1 ts=2020-02-01T00:00:00Z kind=purchase asset=BTC qty=200000000 fmv=100
event seq=2 ts=2021-08-01T00:00:00Z kind=sale asset=BTC qty=100000000 fmv=400
"""

POOL_SCENARIO = """\
pool reserve_x=40 reserve_y=40 fee=0 decimals=0 asset_x=GNO asset_y=DAI
price x=1 y=1
swap in=10 dir=x2y
"""

CHAIN_SCENARIO = """\
schedule initial=50 interval=210000
price fmv=100
mine start=209999 end=210000
"""

VALIDATOR_SCENARIO = """\
validator v1 stake=32
validator v2 stake=32
price fmv=2000
duty v1 missed_source
duty v2 double_vote
duty v2 missed_source
"""

ATTRIB_SCENARIO = """\
seed 3
jurisdiction AT
jurisdiction DE
eoi AT DE allow
dsc DE T1 bob
dsc AT T2 ann
register DE T1 wallet_bob
register AT T2 wallet_ann
transfer wallet_ann wallet_bob 100000000 8
"""


DUTIES = ["missed_source", "missed_target", "missed_sync", "missed_head"]


def mesh_scenario(codes: int, wallets: int, transfers: int) -> str:
    """Jurisdictions that all ask one another, so each transfer adds about
    `codes` trace lines. Some links deny, lag or drop, and one transfer in
    six pays an unregistered address."""
    names = ["J%02d" % i for i in range(codes)]
    lines = ["seed 5"] + ["jurisdiction " + code for code in names]
    for i, asker in enumerate(names):
        for j, responder in enumerate(names):
            if i != j:
                lines.append("eoi %s %s %s" % (asker, responder,
                                               "deny" if (i + j) % 5 == 0 else "allow"))
                if i * j % 7 == 1:
                    lines.append("latency %s %s %d" % (asker, responder, 2 + (i + j) % 4))
                if i * j % 11 == 2:
                    lines.append("drop %s %s 1/%d" % (asker, responder, 3 + j % 4))
    for w in range(wallets):
        home = names[w * 5 % codes]
        lines += ["dsc %s T%d h%d" % (home, w, w), "register %s T%d w%d" % (home, w, w)]
    lines += ["transfer w%d %s%d %d %d" % (t % wallets, "w" if t % 6 else "u",
                                           (t * 7 + 3) % wallets, 1000 + t, 3 + t % 6)
              for t in range(transfers)]
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def counting(kind=Fraction):
    """Count the instances of `kind` constructed inside the block, in a
    one-item list; `kind` defines its own `__new__`."""
    count = [0]
    saved = vars(kind)["__new__"]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return saved.__func__(cls, *args, **kwargs)

    kind.__new__ = counted
    try:
        yield count
    finally:
        kind.__new__ = saved


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def rewards(n: int) -> str:
    """An event file of `n` mining rewards at a decimal price: one income
    line each in the ledger."""
    return "asset BTC 8\n" + "".join(
        "event seq=%d ts=%d kind=mining_reward asset=BTC qty=%d fmv=30000.5\n"
        % (seq, seq * 600, 5_000_000 + seq) for seq in range(1, n + 1))


def unprintable_total(tmp_path) -> Path:
    """800 sales at 1/p for distinct 7-digit primes p: every ledger line
    prints, but the year's gain has a denominator of about 5,600 digits."""
    primes = [p for p in range(1_000_003, 1_020_000, 2)
              if all(p % d for d in range(3, 1_011, 2))][:800]
    lines = ["asset X 0", "event seq=1 ts=0 kind=purchase asset=X qty=800 fmv=1"]
    lines += ["event seq=%d ts=%d kind=sale asset=X qty=1 fmv=1/%d" % (seq, seq, p)
              for seq, p in enumerate(primes, start=2)]
    return write(tmp_path, "events.fisc", "\n".join(lines) + "\n")


def replay(runner, text: str) -> dict[str, list[str]]:
    """The chunks a scenario runner writes, by output name."""
    chunks: dict[str, list[str]] = {}
    runner(text, lambda name, chunk: chunks.setdefault(name, []).append(chunk))
    return chunks


class TestReport:
    def test_golden_report(self, tmp_path):
        events = write(tmp_path, "events.fisc", EVENTS)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        ledger = (out / "ledger.csv").read_text()
        assert ledger.splitlines()[0] == "seq,date,kind,asset,qty,proceeds,basis,gain,term"
        assert "2,2021-08-01,sale,BTC,100000000,400,100,300,long" in ledger
        totals = json.loads((out / "totals.json").read_text())
        assert totals["years"]["2021"]["long_term_gain"] == "300"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"ledger.csv", "totals.json"}
        assert manifest["seed"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        events = write(tmp_path, "events.fisc", EVENTS)
        out = tmp_path / "runs" / "out"
        main(["report", str(events), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        write(out, "notes.txt", "kept\n")  # not an output: the rerun keeps it
        main(["report", str(events), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert second == dict(first, **{"notes.txt": b"kept\n"})
        assert os.listdir(out.parent) == ["out"]

    def test_empty_event_file(self, tmp_path):
        events = write(tmp_path, "events.fisc", "asset BTC 8\n")
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        assert (out / "ledger.csv").read_text().strip().count("\n") == 0

    def test_malformed_file_exit_2_with_line(self, tmp_path, capsys):
        events = write(tmp_path, "events.fisc", "asset BTC 8\nevent seq=1 nonsense\n")
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_PARSE
        assert ":2:" in capsys.readouterr().err

    def test_manifest_digests_the_bytes_parsed(self, tmp_path, monkeypatch):
        # The events file is rewritten while the report is computed: the
        # manifest must describe the bytes that were parsed, not the new ones.
        events = write(tmp_path, "events.fisc", EVENTS)
        parsed = events.read_bytes()

        def rewrite_then_compute(*args):
            events.write_text(EVENTS + "# rewritten\n")
            return compute_report(*args)

        monkeypatch.setattr("fisc.cli.compute_report", rewrite_then_compute)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {str(events): hashlib.sha256(parsed).hexdigest()}

    def test_crlf_event_file_reads_as_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        events = tmp_path / "events.fisc"
        events.write_bytes(EVENTS.encode())
        assert main(["report", str(events), "--out", str(lf)]) == EXIT_OK
        crlf_bytes = EVENTS.replace("\n", "\r\n").encode()
        events.write_bytes(crlf_bytes)
        assert main(["report", str(events), "--out", str(crlf)]) == EXIT_OK
        for name in ("ledger.csv", "totals.json"):
            assert (crlf / name).read_bytes() == (lf / name).read_bytes()
        manifest = json.loads((crlf / "manifest.json").read_text())
        assert manifest["inputs"] == {str(events): hashlib.sha256(crlf_bytes).hexdigest()}

    def test_trailing_comment_on_event_line(self, tmp_path):
        events = write(tmp_path, "events.fisc", EVENTS.replace("fmv=400", "fmv=400 # sold"))
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        ledger = (out / "ledger.csv").read_text()
        assert "2,2021-08-01,sale,BTC,100000000,400,100,300,long" in ledger

    def test_disallowed_method_exit_3(self, tmp_path, capsys):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.conf", "allowed_methods = fifo\n")
        out = tmp_path / "out"
        code = main(["report", str(events), "--method", "hifo",
                     "--config", str(policy), "--out", str(out)])
        assert code == EXIT_POLICY
        assert "not allowed" in capsys.readouterr().err

    def test_overdisposal_exit_3(self, tmp_path):
        events = write(
            tmp_path, "events.fisc",
            "asset BTC 8\nevent seq=1 ts=0 kind=sale asset=BTC qty=1 fmv=1\n",
        )
        assert main(["report", str(events), "--out", str(tmp_path / "o")]) == EXIT_POLICY

    def test_specid_repeated_lot_exit_3(self, tmp_path):
        events = write(
            tmp_path, "events.fisc",
            "asset X 0\n"
            "event seq=1 ts=0 kind=purchase asset=X qty=100 fmv=1\n"
            "event seq=2 ts=1 kind=purchase asset=X qty=100 fmv=2\n"
            "event seq=3 ts=2 kind=sale asset=X qty=150 fmv=3 specid=1,1\n",
        )
        out = tmp_path / "out"
        code = main(["report", str(events), "--method", "specid", "--out", str(out)])
        assert code == EXIT_POLICY
        assert not out.exists()

    def test_config_comes_only_from_argv(self, tmp_path, monkeypatch):
        # A policy in the environment would change a run its argv does not show.
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.conf", "allowed_methods = lifo\n")
        monkeypatch.setenv("FISC_CONFIG", str(policy))
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["inputs"]) == [str(events)]

    def test_policy_zero_denominator_exit_2(self, tmp_path, capsys):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.cfg", "standard_withholding = 1/0\n")
        out = tmp_path / "out"
        code = main(["report", str(events), "--config", str(policy), "--out", str(out)])
        assert code == EXIT_PARSE
        assert "zero denominator" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("tax_year_start = 13-40", "tax_year_start (13, 40) is not a day"),
            ("tax_year_start = 0-1", "tax_year_start (0, 1) is not a day"),
            ("tax_year_start = 2-29", "tax_year_start (2, 29) is not a day"),
            ("long_term_days = -5", "long_term_days must be non-negative"),
            ("standard_withholding = -1/10", "withholding rate -1/10 is outside [0, 1]"),
            ("elevated_withholding = 3/2", "withholding rate 3/2 is outside [0, 1]"),
        ],
    )
    def test_policy_out_of_range_exit_2(self, tmp_path, capsys, line, message):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.cfg", line + "\n")
        out = tmp_path / "out"
        code = main(["report", str(events), "--config", str(policy), "--out", str(out)])
        assert code == EXIT_PARSE
        assert "policy.cfg:1: " + message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("standard_withholding = 1/2\nelevated_withholding = 1/10\n", 2),
            ("elevated_withholding = 1/10\n# rates\nstandard_withholding = 1/2\n", 3),
            ("standard_withholding = 1/2\nlong_term_days = 30\n", 1),
        ],
        ids=["elevated-last", "standard-last", "standard-only"],
    )
    def test_withholding_order_exit_2_at_later_rate(self, tmp_path, capsys, text, line_no):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.cfg", text)
        out = tmp_path / "out"
        code = main(["report", str(events), "--config", str(policy), "--out", str(out)])
        assert code == EXIT_PARSE
        message = "policy.cfg:%d: elevated withholding must be >= standard" % line_no
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_policy_bad_line_exit_2_with_line(self, tmp_path, capsys):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.cfg", "# fiscal year\ntax_year_start = 4\n")
        out = tmp_path / "out"
        code = main(["report", str(events), "--config", str(policy), "--out", str(out)])
        assert code == EXIT_PARSE
        assert "policy.cfg:2: not enough values to unpack" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_range_edges_accepted(self, tmp_path):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.cfg", (
            "tax_year_start = 2-28\nlong_term_days = 0\n"
            "standard_withholding = 0\nelevated_withholding = 1\n"
        ))
        out = tmp_path / "out"
        assert main(["report", str(events), "--config", str(policy), "--out", str(out)]) == EXIT_OK
        assert "2,2021-08-01,sale,BTC,100000000,400,100,300,long" in (out / "ledger.csv").read_text()

    def test_missing_file(self, tmp_path):
        code = main(["report", str(tmp_path / "nope.fisc"), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    def test_unreadable_config_exit_2_names_it_once(self, tmp_path, capsys, directory):
        events = write(tmp_path, "events.fisc", EVENTS)
        config = tmp_path / "nope.cfg"
        if directory:
            config.mkdir()
        number = errno.EISDIR if directory else errno.ENOENT
        out = tmp_path / "o"
        code = main(["report", str(events), "--config", str(config), "--out", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "[Errno %d] %s: %r\n" % (
            number, os.strerror(number), str(config))
        assert not out.exists()

    @pytest.mark.parametrize(
        "decimals,message",
        [("-1", "decimals must be non-negative"), ("256", "decimals must be at most 255"),
         ("5000", "decimals must be at most 255"), ("8.5", "bad decimals '8.5'")],
    )
    def test_asset_decimals_out_of_range_exit_2_with_line(self, tmp_path, capsys, decimals,
                                                          message):
        events = write(tmp_path, "events.fisc", EVENTS.replace("BTC 8", "BTC " + decimals))
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_PARSE
        assert "events.fisc:1: %s" % message in capsys.readouterr().err
        assert not out.exists()

    # Each fault is on the last line of its file.
    @pytest.mark.parametrize(
        "text,message",
        [
            ("asset BTC 8\nevent seq=1 ts=100000000000000000000 kind=airdrop asset=BTC qty=1 fmv=1",
             "timestamp 100000000000000000000 is outside the years 1 to 9999 UTC"),
            ("asset BTC 8\nevent seq=1 ts=-100000000000 kind=airdrop asset=BTC qty=1 fmv=1",
             "timestamp -100000000000 is outside the years 1 to 9999 UTC"),
            ("asset BTC 8\nevent seq=1 ts=-62135596801 kind=airdrop asset=BTC qty=1 fmv=1",
             "timestamp -62135596801 is outside the years 1 to 9999 UTC"),
            ("asset BTC 8\nevent seq=1 ts=253402300800 kind=airdrop asset=BTC qty=1 fmv=1",
             "timestamp 253402300800 is outside the years 1 to 9999 UTC"),
            ("asset BTC 8\nevent seq=1 ts=0001-01-01T00:00:00+01:00 kind=airdrop asset=BTC qty=1"
             " fmv=1", "timestamp 0001-01-01T00:00:00+01:00 is outside the years 1 to 9999 UTC"),
            (EVENTS.replace("fmv=400", "fmv=-5"), "fmv must be non-negative, got -5"),
            ("asset BTC 8\nevent seq=1 ts=0 kind=purchase asset=BTC qty=1 fmv=-3",
             "fmv must be non-negative, got -3"),
            ("asset a,b 0", "asset id a,b holds ',' or '\"'"),
            ('asset a"b 0', "asset id a\"b holds ',' or '\"'"),
        ],
        ids=["ts-huge", "ts-ancient", "ts-before-year-1", "ts-after-year-9999",
             "iso-before-year-1", "negative-sale-price", "negative-purchase-price",
             "asset-comma", "asset-quote"],
    )
    def test_event_file_boundary_exit_2_with_line(self, tmp_path, capsys, text, message):
        events = write(tmp_path, "events.fisc", text.rstrip("\n") + "\n")
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_PARSE
        line_no = text.rstrip("\n").count("\n") + 1
        assert "events.fisc:%d: %s" % (line_no, message) in capsys.readouterr().err
        assert not out.exists()

    # Fraction would build 10**exponent: 1e10000000 takes seconds, 1e1000000000 hours.
    @pytest.mark.parametrize("fmv", ["1e4301", "1E-4301", "2.5e+10000000"])
    def test_price_exponent_past_the_digit_limit_exit_2(self, tmp_path, capsys, fmv):
        if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("this Python has no int->str digit limit")
        limit = sys.get_int_max_str_digits()
        events = write(tmp_path, "events.fisc",
                       "asset BTC 8\nevent seq=1 ts=0 kind=purchase asset=BTC qty=1 fmv=%s\n" % fmv)
        out = tmp_path / "out"
        started = time.perf_counter()
        assert main(["report", str(events), "--out", str(out)]) == EXIT_PARSE
        assert time.perf_counter() - started < 1
        err = capsys.readouterr().err
        assert "events.fisc:2: exponent of %s exceeds %d in magnitude" % (fmv, limit) in err
        assert not out.exists()

    @pytest.mark.parametrize("fmv,income", [("1e3", "0.00001"), ("1e4300", "1" + "0" * 4292)])
    def test_price_exponent_within_the_digit_limit(self, tmp_path, fmv, income):
        events = write(tmp_path, "events.fisc", "asset BTC 8\n"
                       "event seq=1 ts=0 kind=mining_reward asset=BTC qty=1 fmv=%s\n" % fmv)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        assert ",%s,0,0,-" % income in (out / "ledger.csv").read_text()

    @pytest.mark.parametrize(
        "ts,date",
        [("-62135596800", "0001-01-01"), ("0001-01-01T01:00:00+01:00", "0001-01-01"),
         ("-30636403200", "0999-03-04"), ("253402300799", "9999-12-31")],
    )
    def test_dates_print_four_digit_years(self, tmp_path, ts, date):
        events = write(tmp_path, "events.fisc",
                       "asset X 0\nevent seq=1 ts=%s kind=mining_reward asset=X qty=1 fmv=1\n" % ts)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        assert (out / "ledger.csv").read_text().splitlines()[1].split(",")[1] == date

    def test_asset_decimals_255_accepted(self, tmp_path):
        events = write(tmp_path, "events.fisc", "asset X 255\n"
                       "event seq=1 ts=0 kind=purchase asset=X qty=%d fmv=3\n" % 10**255)
        assert main(["report", str(events), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_unprintable_ledger_line_exit_3(self, tmp_path, capsys):
        # Income of a 4,000-digit quantity at a 4,000-digit price: 8,000 digits.
        big = "9" * 4_000
        line = "event seq=7 ts=0 kind=mining_reward asset=X qty=%s fmv=%s\n" % (big, big)
        events = write(tmp_path, "events.fisc", "asset X 0\n" + line)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_POLICY
        err = capsys.readouterr().err
        assert "events.fisc: seq 7: exact value too long to print: Exceeds the limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("digits,code", [(3_000, EXIT_OK), (4_000, EXIT_POLICY)])
    def test_long_value_at_a_decimal_price(self, tmp_path, capsys, digits, code):
        # A quantity at a 400-digit price of 200 places, counted in ints of
        # 10**-208: income of 3,400 digits prints, and of 4,400 does not.
        price = "1" * 200 + "." + "3" * 200
        line = "event seq=7 ts=0 kind=mining_reward asset=X qty=%s fmv=%s\n" % ("9" * digits, price)
        events = write(tmp_path, "events.fisc", "asset X 8\n" + line)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == code
        if code == EXIT_OK:
            decimals, records = parse_event_file(events.read_text())
            report = compute_report(records, JurisdictionPolicy(), AccountingMethod.FIFO, decimals)
            assert report.places == 208
            income = format_rational(Fraction(int("9" * digits) * parse_rational(price), 10**8))
            assert ",%s,0,0,-" % income in (out / "ledger.csv").read_text()
            return
        err = capsys.readouterr().err
        assert "events.fisc: seq 7: exact value too long to print: Exceeds the limit" in err
        assert not out.exists()

    def test_unprintable_total_exit_3(self, tmp_path, capsys):
        events = unprintable_total(tmp_path)
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_POLICY
        err = capsys.readouterr().err
        assert "events.fisc: year 1970 short_term_gain: exact value too long to print" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unprintable_total_exits_3_before_an_unusable_out(self, tmp_path, capsys):
        """The year totals are judged before --out is touched: exit 3, not
        the exit 2 of an --out that cannot be made, and nothing written."""
        events = unprintable_total(tmp_path)
        blocker = write(tmp_path, "afile", "kept\n")
        assert main(["report", str(events), "--out", str(blocker / "sub")]) == EXIT_POLICY
        assert "year 1970 short_term_gain: exact value too long to print" in (
            capsys.readouterr().err)
        assert blocker.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["afile", "events.fisc"]

    def test_ledger_streams_across_chunk_boundaries(self, tmp_path, monkeypatch):
        """Over 13,000 ledger rows, three chunks and more: every ledger.csv
        write but the last holds CHUNK_LINES rows, the header in the first,
        and the chunks joined are the file."""
        written = []
        staged_write = fisc.cli._Staged.write

        def spy(self, name, text):
            if name == "ledger.csv":
                written.append(text)
            staged_write(self, name, text)

        monkeypatch.setattr(fisc.cli._Staged, "write", spy)
        events = write(tmp_path, "events.fisc", rewards(13_000))
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        assert "".join(written) == (out / "ledger.csv").read_text()
        assert written[0].startswith("seq,date,kind,")
        rows = [text.count("\n") for text in written]
        rows[0] -= 1
        assert len(rows) >= 4 and set(rows[:-1]) == {CHUNK_LINES} and sum(rows) == 13_000, rows

    def test_ledger_rendering_memory_is_bounded(self):
        """With the ledger built, to_csv holds one chunk, not the whole CSV:
        four times the rows, written to a hashing sink, peak within 1.5
        times the memory."""
        peaks = []
        for n in (2 * CHUNK_LINES, 8 * CHUNK_LINES):
            decimals, records = parse_event_file(rewards(n))
            report = compute_report(records, JurisdictionPolicy(), AccountingMethod.FIFO,
                                    decimals)
            digest = hashlib.sha256()
            tracemalloc.start()
            try:
                report.to_csv(lambda name, text: digest.update(text.encode()))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestSimulate:
    def test_pool_scenario(self, tmp_path):
        scenario = write(tmp_path, "pool.scn", POOL_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "pool", str(scenario), "--out", str(out)]) == EXIT_OK
        state = (out / "state.txt").read_text()
        assert "reserve_x 50" in state and "reserve_y 32" in state
        assert "product 1600" in state
        events = (out / "events.fisc").read_text()
        assert "kind=swap" in events and "kind=purchase" in events
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"events.fisc", "state.txt"}
        assert manifest["seed"] is None

    def test_chain_halving_boundary(self, tmp_path):
        scenario = write(tmp_path, "chain.scn", CHAIN_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "chain", str(scenario), "--out", str(out)]) == EXIT_OK
        state = (out / "state.txt").read_text()
        assert "height 209999 subsidy 5000000000" in state
        assert "height 210000 subsidy 2500000000" in state

    def test_validator_scenario(self, tmp_path):
        scenario = write(tmp_path, "validators.scn", VALIDATOR_SCENARIO)
        out = tmp_path / "out"
        assert main(["simulate", "validators", str(scenario), "--out", str(out)]) == EXIT_OK
        state = (out / "state.txt").read_text()
        assert "v2" in state and "status=slashed" in state
        events = (out / "events.fisc").read_text()
        assert "meta.slashing=1" in events
        assert "meta.deduction=1" in events

    def test_parse_error_exit_2(self, tmp_path, capsys):
        scenario = write(tmp_path, "bad.scn", "pool reserve_x=40\n")
        code = main(["simulate", "pool", str(scenario), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert ":1:" in capsys.readouterr().err

    def test_empty_scenario_exit_3(self, tmp_path):
        scenario = write(tmp_path, "empty.scn", "# nothing\n")
        code = main(["simulate", "pool", str(scenario), "--out", str(tmp_path / "o")])
        assert code == EXIT_POLICY

    # 4,296 nines in whole units are 4,304 digits in base units: past the
    # int->str limit once the state or event file is rendered.
    @pytest.mark.parametrize(
        "kind,text",
        [
            ("chain", "schedule initial=%s\nmine start=0 end=0\n" % ("9" * 4_296)),
            ("pool", "pool reserve_x=%s reserve_y=100\n" % ("9" * 4_296)),
            ("validators", "validator v1 stake=%s\n" % ("9" * 4_296)),
            # Rendered with the first chunk, while the swaps are still read.
            ("pool", "pool reserve_x=0 reserve_y=0\ndeposit owner=a x=1e4299 y=1e4299\n"
             + "swap in=1\n" * 2_100),
            # Found after the last line: in the state a replay renders, in
            # 4,308 digits of wei, 4,545 base units, or a product of reserves.
            ("validators", "validator v1 stake=%s\n" % ("9" * 4_290)),
            ("chain", "schedule initial=%s decimals=255\nmine start=0 end=0\n" % ("9" * 4_290)),
            ("pool", "pool reserve_x=%s reserve_y=%s\n" % ("9" * 2_200, "9" * 2_200)),
        ],
        ids=["chain", "pool", "validators", "pool-mid-stream", "validators-stake",
             "chain-decimals-255", "pool-product"],
    )
    def test_unprintable_output_exit_3(self, tmp_path, capsys, kind, text):
        scenario = write(tmp_path, "big.scn", text)
        out = tmp_path / "o"
        assert main(["simulate", kind, str(scenario), "--out", str(out)]) == EXIT_POLICY
        err = capsys.readouterr().err
        assert "big.scn:0: Exceeds the limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    # Each line is appended to a valid scenario of its kind. Every fault must
    # be caught at its line, before the replay and before any output exists.
    @pytest.mark.parametrize(
        "kind,line,message",
        [
            ("chain", "schedule interval=0", "halving interval must be positive"),
            ("chain", "schedule interval=-5", "halving interval must be positive"),
            ("chain", "schedule initial=-1", "initial subsidy must be non-negative"),
            ("chain", "mine start=-3 end=2", "height must be non-negative"),
            ("chain", "schedule initial=1/0", "zero denominator"),
            ("validators", "validator v1 stake=-1", "stake must be non-negative"),
            ("validators", "validator v1 stake=1/0", "zero denominator"),
            ("pool", "pool reserve_x=40 reserve_y=40 decimals=-2 asset_x=WBTC",
             "decimals must be non-negative"),
            ("pool", "pool reserve_x=40 reserve_y=40 decimals=4400",
             "decimals must be at most 255"),
            ("chain", "schedule decimals=256", "decimals must be at most 255"),
            ("chain", "schedule decimals=-1", "decimals must be non-negative"),
            # Amounts finer than one base unit are refused, not truncated.
            ("pool", "pool reserve_x=0.000000015 reserve_y=1",
             "'0.000000015' is not representable with 8 decimals"),
            ("pool", "deposit owner=a x=1.5 y=1.5", "'1.5' is not representable with 0 decimals"),
            ("pool", "swap in=5/2", "'5/2' is not representable with 0 decimals"),
            ("chain", "schedule initial=0.000000015",
             "'0.000000015' is not representable with 8 decimals"),
            ("validators", "validator v3 stake=1/3", "'1/3' is not representable with 18 decimals"),
            # What the event parser refuses, refused at its scenario line.
            ("chain", "asset id=a,b", "asset id a,b holds ',' or '\"'"),
            ("chain", 'asset id=a"b', "asset id a\"b holds ',' or '\"'"),
            ("pool", "pool reserve_x=40 reserve_y=40 asset_x=a,b", "asset id a,b holds ','"),
            ("pool", 'pool reserve_x=40 reserve_y=40 asset_y=a"b', "asset id a\"b holds ','"),
            ("chain", "price fmv=-1", "fmv must be non-negative, got -1"),
            ("validators", "price fmv=-2000", "fmv must be non-negative, got -2000"),
            ("validators", "duty v1 missed_nothing", "'missed_nothing' is not a valid DutyEvent"),
            ("pool", "price x=-1 y=1", "fmv must be non-negative, got -1"),
            ("pool", "price x=1 y=-1/2", "fmv must be non-negative, got -1/2"),
            # Heights 209999 and 210000 at 10**11 seconds a block are past the year 9999.
            ("chain", "retarget interval=100000000000",
             "timestamp 21000000000000000 is outside the years 1 to 9999 UTC"),
            ("pool", "time at=253402300800",
             "timestamp 253402300800 is outside the years 1 to 9999 UTC"),
            ("pool", "time at=-62135596801",
             "timestamp -62135596801 is outside the years 1 to 9999 UTC"),
            # The event file declares one asset pair and each validator once.
            ("pool", "pool reserve_x=1 reserve_y=1 asset_x=AAA asset_y=BBB decimals=6",
             "the pool is already declared"),
            ("validators", "validator v1 stake=64", "validator v1 is already declared"),
            # Each directive takes its own keys and token count, and no others.
            ("pool", "swap in=1.5 dirr=y2x", "unknown swap key 'dirr'"),
            ("chain", "schedule interval=300 intial=25", "unknown schedule key 'intial'"),
            ("validators", "duty v1 missed_head surplus", "usage: duty <validator> <event>"),
            ("validators", "duty v1", "usage: duty <validator> <event>"),
            ("validators", "validator", "usage: validator <id> stake=..."),
        ],
    )
    def test_replay_fault_exit_2_with_line(self, tmp_path, capsys, kind, line, message):
        base = {"chain": CHAIN_SCENARIO, "validators": VALIDATOR_SCENARIO,
                "pool": POOL_SCENARIO}[kind]
        scenario = write(tmp_path, "bad.scn", base + line + "\n")
        out = tmp_path / "o"
        assert main(["simulate", kind, str(scenario), "--out", str(out)]) == EXIT_PARSE
        line_no = base.count("\n") + 1
        assert "bad.scn:%d: %s" % (line_no, message) in capsys.readouterr().err
        assert not out.exists()

    def test_repeat_deposit_adds_to_the_owner_position(self, tmp_path):
        scenario = write(tmp_path, "pool.scn",
                         "pool reserve_x=0 reserve_y=0 asset_x=WBTC asset_y=USDC\n"
                         "price x=2 y=1\n" + "deposit owner=a x=1 y=2\n" * 2
                         + "withdraw owner=a\n")
        out = tmp_path / "out"
        assert main(["simulate", "pool", str(scenario), "--out", str(out)]) == EXIT_OK
        assert (out / "state.txt").read_text() == (
            "reserve_x 0\nreserve_y 0\nproduct 0\ntotal_lp_units 0\n")
        _, records = parse_event_file((out / "events.fisc").read_text())
        assert {r.asset: r.quantity for r in records if r.kind.value == "lp_withdrawal"} == {
            "WBTC": 2 * 10**8, "USDC": 4 * 10**8}

    def test_declared_reserves_stay_with_the_pool(self, tmp_path):
        # The declared reserves are not the first depositor's to withdraw.
        scenario = write(tmp_path, "pool.scn",
                         "pool reserve_x=10 reserve_y=20 asset_x=WBTC asset_y=USDC\n"
                         "price x=2 y=1\ndeposit owner=a x=1 y=2\nwithdraw owner=a\n")
        out = tmp_path / "out"
        assert main(["simulate", "pool", str(scenario), "--out", str(out)]) == EXIT_OK
        _, records = parse_event_file((out / "events.fisc").read_text())
        withdrawn = {r.asset: r.quantity for r in records if r.kind.value == "lp_withdrawal"}
        assert withdrawn["WBTC"] <= 1 * 10**8 and withdrawn["USDC"] <= 2 * 10**8

    @pytest.mark.parametrize("reserves", ["reserve_x=0 reserve_y=5", "reserve_x=5 reserve_y=0"])
    def test_one_sided_pool_exit_2_with_line(self, tmp_path, capsys, reserves):
        scenario = write(tmp_path, "bad.scn", "# one reserve\npool %s\n" % reserves)
        out = tmp_path / "o"
        assert main(["simulate", "pool", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert ("bad.scn:2: reserves must both be zero or both be positive"
                in capsys.readouterr().err)
        assert not out.exists()

    # Each a PoolError, raised by the pool after its line is read and
    # refused at that line by run_pool_scenario.
    @pytest.mark.parametrize("text,message", [
        ("pool reserve_x=-1 reserve_y=5\n", "1: reserves must be non-negative"),
        ("pool reserve_x=1 reserve_y=5 fee=1\n", "1: fee rate must be in [0, 1)"),
        ("pool reserve_x=0 reserve_y=0\nswap in=1\n", "2: pool is not live"),
        ("pool reserve_x=10000000 reserve_y=10 fee=0 decimals=0\nswap in=1\n",
         "2: output rounds to zero"),
        ("pool reserve_x=40 reserve_y=40 decimals=0\ndeposit owner=a x=1 y=5\n",
         "2: deposit values differ beyond tolerance: 1 vs 5"),
        ("pool reserve_x=1 reserve_y=1\npool reserve_x=1 reserve_y=1\n",
         "2: the pool is already declared"),
        # The two values would print past the int->str digit limit.
        ("pool reserve_x=0 reserve_y=0\ndeposit owner=a x=1e4299 y=1\n",
         "2: Exceeds the limit (4300 digits) for integer string conversion"),
    ])
    def test_pool_refusal_exit_2_at_its_line(self, tmp_path, capsys, text, message):
        scenario = write(tmp_path, "bad.scn", text)
        out = tmp_path / "o"
        assert main(["simulate", "pool", str(scenario), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "bad.scn:" + message in err and "Traceback" not in err
        assert not out.exists()

    def test_pool_swap_value_error_escapes(self, tmp_path, capsys, monkeypatch):
        """A ValueError from inside the pool is a bug, not a refusal of the
        line that called it: it escapes main and leaves nothing."""
        from fisc.defi.pool import LiquidityPool

        def swap_exact_in(self, amount_in, x_to_y=True):
            raise ValueError("internal")

        monkeypatch.setattr(LiquidityPool, "swap_exact_in", swap_exact_in)
        scenario = write(tmp_path, "p.scn", POOL_SCENARIO)
        with pytest.raises(ValueError, match="^internal$"):
            main(["simulate", "pool", str(scenario), "--out", str(tmp_path / "o")])
        assert capsys.readouterr().err == ""
        assert os.listdir(tmp_path) == ["p.scn"]

    def test_withdraw_unknown_owner_names_the_owner(self, tmp_path, capsys):
        scenario = write(tmp_path, "bad.scn", POOL_SCENARIO + "withdraw owner=nobody\n")
        code = main(["simulate", "pool", str(scenario), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert "bad.scn:4: owner 'nobody' has no open position" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["swap in=5 dir y2x", "swap in=5 dir=sideways"])
    def test_malformed_swap_exit_2(self, tmp_path, capsys, line):
        scenario = write(tmp_path, "bad.scn", POOL_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["simulate", "pool", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:4: " in capsys.readouterr().err
        assert not out.exists()

    def test_chain_timestamps_end_in_the_year_9999(self, tmp_path, capsys):
        # Height h is stamped h * 600: 422337167 is the last height before
        # 10000-01-01. Halving every 10**9 blocks, both heights earn a subsidy.
        text = "schedule interval=1000000000\nmine start=422337167 end=%d\n"
        scenario = write(tmp_path, "chain.scn", text % 422337167)
        out = tmp_path / "out"
        assert main(["simulate", "chain", str(scenario), "--out", str(out)]) == EXIT_OK
        assert "ts=253402300200 " in (out / "events.fisc").read_text()
        assert main(["report", str(out / "events.fisc"), "--out", str(tmp_path / "r")]) == EXIT_OK
        scenario = write(tmp_path, "late.scn", text % 422337168)
        assert main(["simulate", "chain", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "late.scn:2: timestamp 253402300800 is outside" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_heights_past_the_last_halving_earn_no_event(self, tmp_path):
        # 50 BTC halves to zero satoshi after 33 eras.
        scenario = write(tmp_path, "chain.scn", "schedule interval=1\nmine start=32 end=34\n")
        out = tmp_path / "out"
        assert main(["simulate", "chain", str(scenario), "--out", str(out)]) == EXIT_OK
        assert (out / "state.txt").read_text() == (
            "height 32 subsidy 1\nheight 33 subsidy 0\nheight 34 subsidy 0\n"
        )
        assert (out / "events.fisc").read_text().count("kind=mining_reward") == 1

    # Scenarios of n swaps, duties or heights, and the Fractions and Amounts
    # each may build per item: a swap reads its in= as one Amount, and duties
    # count in ints. Heights count in ints, with one Amount per era.
    REPLAYS = {
        "pool": (run_pool_scenario, {Fraction: 0, Amount: 1},
                 lambda n: "pool reserve_x=100000 reserve_y=200000\nprice x=2 y=1\n"
                 + "swap in=1.5 dir=x2y\nswap in=3 dir=y2x\n" * (n // 2)),
        "validators": (run_validator_scenario, {Fraction: 0, Amount: 0},
                       lambda n: "price fmv=2000.25\n"
                       + "".join("validator v%d stake=32\n" % i for i in range(10))
                       + "duty v9 double_vote\n"
                       + "".join("duty v%d %s\n" % (i % 10, DUTIES[i % 4]) for i in range(n))),
        "chain": (run_chain_scenario, {Fraction: 0},
                  lambda n: "schedule interval=300\nprice fmv=30000.5\nmine start=0 end=%d\n"
                  % (n - 1)),
    }

    @pytest.mark.parametrize("kind", sorted(REPLAYS))
    def test_replay_builds_no_fraction_per_item(self, kind):
        """Nor any event record: each line is rendered from plain values."""
        runner, allowed, scenario = self.REPLAYS[kind]
        counts = []
        for n in (100, 1_000):
            text = scenario(n)
            with counting() as fractions, counting(Amount) as amounts, \
                    counting(ChainEventRecord) as events:
                runner(text, lambda name, chunk: None)
            assert events[0] == 0
            counts.append({Fraction: fractions[0], Amount: amounts[0]})
        for counted, per_item in allowed.items():
            assert counts[1][counted] - counts[0][counted] <= per_item * 900, counts

    @pytest.mark.parametrize("kind", sorted(REPLAYS))
    def test_event_file_streams_across_chunk_boundaries(self, kind):
        """Over 12,288 events, three chunks and more: the event file is what
        serialize_event_file makes of the records parsed from it, and every
        chunk but the last holds CHUNK_LINES events."""
        runner, _, scenario = self.REPLAYS[kind]
        text = {"chain": "schedule interval=100000\nmine start=0 end=12999\n",
                "pool": scenario(13_000), "validators": scenario(18_000)}[kind]
        chunks = replay(runner, text)
        events = "".join(chunks["events.fisc"])
        assert serialize_event_file(*parse_event_file(events)) == events
        counts = [chunk.count("\nevent ") + chunk.startswith("event ")
                  for chunk in chunks["events.fisc"]]
        assert len(counts) >= 4 and set(counts[:-1]) == {CHUNK_LINES}, counts

    def test_chain_replay_memory_is_bounded(self):
        """The chain runner holds one chunk, not every height: ten times the
        blocks, written to a hashing sink, peak within 1.5 times the memory."""
        peaks = []
        for blocks in (20_000, 200_000):
            text = "schedule interval=50000\nprice fmv=30000.5\nmine start=0 end=%d\n" % (
                blocks - 1)
            digest = hashlib.sha256()
            tracemalloc.start()
            try:
                run_chain_scenario(text, lambda name, chunk: digest.update(chunk.encode()))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize(
        "kind,tail,code,message",
        [("pool", "swap in=1 dir=bad\n", EXIT_PARSE, ":%d: dir must be x2y or y2x, got 'bad'"),
         ("validators", "duty v99 missed_source\n", EXIT_PARSE,
          ":%d: duty for unknown validator v99")],
        ids=["pool-bad-swap", "validators-unknown-duty"],
    )
    def test_fault_after_a_chunk_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                      kind, tail, code, message):
        scenario = self.REPLAYS[kind][2]
        text = scenario(9_000) + tail  # two chunks or more before the fault
        out = tmp_path / "o"
        good = write(tmp_path, "good.scn", scenario(10))
        assert main(["simulate", kind, str(good), "--out", str(out)]) == EXIT_OK
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        written = []
        staged_write = fisc.cli._Staged.write

        def spy(self, name, chunk):
            written.append(name)
            staged_write(self, name, chunk)

        monkeypatch.setattr(fisc.cli._Staged, "write", spy)
        bad = write(tmp_path, "bad.scn", text)
        assert main(["simulate", kind, str(bad), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == "%s%s\n" % (bad, message.replace("%d", str(text.count("\n")))), err
        assert written and set(written) == {"events.fisc"}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
        assert sorted(os.listdir(tmp_path)) == ["bad.scn", "good.scn", "o"]

    def test_duty_names_a_validator_declared_anywhere(self, tmp_path, capsys):
        """A duty may name a validator declared further down, with the bytes
        of the same scenario in declaration order; a validator the file
        never declares is refused at the duty's line, exit 2."""
        runs = []
        for text in ("validator v3 stake=32\nduty v3 missed_source\n",
                     "duty v3 missed_source\nvalidator v3 stake=32\n"):
            out = tmp_path / ("o%d" % len(runs))
            scenario = write(tmp_path, "s%d.scn" % len(runs), text)
            assert main(["simulate", "validators", str(scenario), "--out", str(out)]) == EXIT_OK
            runs.append([(out / name).read_bytes() for name in ("events.fisc", "state.txt")])
        assert runs[0] == runs[1]
        bad = write(tmp_path, "bad.scn", "duty v9 missed_source\n" + VALIDATOR_SCENARIO)
        out = tmp_path / "bad"
        assert main(["simulate", "validators", str(bad), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == "%s:1: duty for unknown validator v9\n" % bad
        assert not out.exists()

    def test_validator_stake_gain_escapes(self, tmp_path, capsys, monkeypatch):
        """A penalty that raised a stake would be a negative quantity, which
        no event may carry: a bug in the replay, not a refusal of the file,
        so the event parser's ValueError escapes main and leaves nothing."""
        import fisc.consensus

        def reward(stake, duty, params):
            return stake + 1, False

        monkeypatch.setattr(fisc.consensus, "penalty_or_slash", reward)
        scenario = write(tmp_path, "v.scn", VALIDATOR_SCENARIO)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="quantity must be non-negative"):
            main(["simulate", "validators", str(scenario), "--out", str(out)])
        assert capsys.readouterr().err == ""
        assert os.listdir(tmp_path) == ["v.scn"]


class TestAttrib:
    def test_run_and_rerun_identical(self, tmp_path):
        scenario = write(tmp_path, "attrib.scn", ATTRIB_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["attrib", str(scenario), "--out", str(out1)]) == EXIT_OK
        assert main(["attrib", str(scenario), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trace.txt").read_bytes() == (out2 / "trace.txt").read_bytes()
        assert (out1 / "withholding.txt").read_bytes() == (out2 / "withholding.txt").read_bytes()
        assert "affirmed 0.1" in (out1 / "withholding.txt").read_text()

    def test_seed_override_recorded_in_manifest(self, tmp_path):
        scenario = write(tmp_path, "attrib.scn", ATTRIB_SCENARIO)
        out = tmp_path / "out"
        assert main(["attrib", str(scenario), "--seed", "11", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_parse_error_exit_2(self, tmp_path):
        scenario = write(tmp_path, "bad.scn", "jurisdiction AT\nnope\n")
        assert main(["attrib", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_PARSE

    # Each line is appended to ATTRIB_SCENARIO, so it is line 10.
    @pytest.mark.parametrize(
        "line",
        [
            "drop AT DE 1/0",
            "withholding standard=1/0",
            "transfer wallet_ann wallet_bob -100 8",
            "transfer wallet_ann wallet_bob 100 -8",
            "latency AT DE -1",
            "drop AT DE 3/2",
            "drop AT DE -1/2",
            # With line 9's 8, the deadlines sum to 10**4300: a tick of one
            # digit more than CPython's default limit prints.
            pytest.param("transfer wallet_ann wallet_bob 1 " + "9" * 4299 + "2",
                         id="deadline-sum"),
        ],
    )
    def test_invalid_directive_exit_2_with_line(self, tmp_path, capsys, line):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:10:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,form",
        [
            ("seed", "seed <n>"),
            ("jurisdiction AT AT2", "jurisdiction <code>"),
            ("eoi AT", "eoi <asker> <responder> allow|deny"),
            ("latency AT DE 1 extra", "latency <asker> <responder> <ticks>"),
            ("drop AT DE", "drop <asker> <responder> <probability>"),
            ("dsc AT T1 bob extra", "dsc <jurisdiction> <tin> <holder-label>"),
            ("register DE T1", "register <jurisdiction> <tin> <wallet-label>"),
            ("register_tampered DE T1 w x",
             "register_tampered <jurisdiction> <tin> <wallet-label>"),
            ("identity", "identity <wallet-label> name=... physical=... national_id=... "
             "customer_id=... birth=..."),
            ("transfer wallet_ann wallet_bob 100",
             "transfer <origin-label> <beneficiary> <base-units> <deadline>"),
        ],
    )
    def test_wrong_token_count_exit_2_with_form(self, tmp_path, capsys, line, form):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:10: usage: " + form in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nines,code", [(4300, EXIT_POLICY), (4299, EXIT_OK)])
    def test_withheld_amount_past_the_digit_limit_exit_3_naming_the_transfer(
            self, tmp_path, capsys, nines, code):
        # 3/10 of 10**N - 1 base units, over 10**8, has N + 1 digits to print.
        scenario = write(tmp_path, "big.scn", (
            "jurisdiction AT\ndsc AT t1 h1\nregister AT t1 w1\n"
            "transfer w1 addr:1BoatSLRHtKNngkdXEeobR76b53LETtpyT %s 8\n" % ("9" * nines)))
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == code
        if code == EXIT_POLICY:
            assert capsys.readouterr().err.startswith(
                "%s: transfer 0: withheld amount too long to print: Exceeds the limit" % scenario)
            assert os.listdir(tmp_path) == ["big.scn"]  # no --out, no staging directory

    @pytest.mark.parametrize("line", ["withholding standrd=1/2",
                                      "withholding standard=1/10 elevated=3/10 standrd=1/2"])
    def test_unknown_withholding_key_exit_2_with_line(self, tmp_path, capsys, line):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:10: unknown withholding key 'standrd'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines,code,message",
        [
            ("dsc XX T1 alice", EXIT_PARSE, "bad.scn:10: jurisdiction 'XX' is not declared"),
            ("register AT T9 w1", EXIT_PARSE, "bad.scn:10: no dsc line for AT T9"),
            ("transfer wallet_nobody wallet_bob 1 8", EXIT_PARSE,
             "bad.scn:10: wallet 'wallet_nobody' has no register line"),
            # A misspelt label: wallet_ann is registered, wallet_anne is not.
            ("identity wallet_anne name=Ann physical=Street1", EXIT_PARSE,
             "bad.scn:10: wallet 'wallet_anne' has no register line"),
            # Only the run can tell that a tampered registration is rejected.
            ("dsc AT T3 eve\nregister_tampered AT T3 wallet_eve\ntransfer wallet_eve x 1 8",
             EXIT_POLICY, "bad.scn: transfer 1: origin wallet wallet_eve is not registered"),
        ],
        ids=["dsc-jurisdiction", "register-dsc", "transfer-origin", "identity-wallet",
             "rejected-origin"],
    )
    def test_unknown_reference_names_its_line_or_transfer(self, tmp_path, capsys, lines, code,
                                                          message):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + lines + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_identity_of_a_rejected_registration_goes_unused(self, tmp_path):
        """Only the run can tell that a registration is rejected; its wallet
        then has no address, so its identity line changes nothing."""
        rejected = "dsc AT T3 eve\nregister_tampered AT T3 wallet_eve\n"
        runs = []
        for extra in ("", "identity wallet_eve name=Eve physical=Street3\n"):
            out = tmp_path / ("o%d" % len(runs))
            scenario = write(tmp_path, "s%d.scn" % len(runs), ATTRIB_SCENARIO + rejected + extra)
            assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_OK
            runs.append([(out / name).read_bytes() for name in ("trace.txt", "withholding.txt")])
        assert runs[0] == runs[1]

    def test_unknown_identity_key_exit_2_with_line(self, tmp_path, capsys):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO
                         + "identity wallet_ann name=Ann physical=Street1 custmer_id=C9\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:10: unknown identity key 'custmer_id'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("dsc DE T1 h9", "TIN T1 already has a certificate"),
            ("jurisdiction AT", "jurisdiction AT already present"),
        ],
    )
    def test_scenario_violation_exit_3(self, tmp_path, capsys, line, message):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_POLICY
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("withholding standard=-1/10", "withholding rate -1/10 is outside [0, 1]"),
            ("withholding elevated=5", "withholding rate 5 is outside [0, 1]"),
        ],
        ids=["standard", "elevated"],
    )
    def test_withholding_out_of_range_exit_2_with_line(self, tmp_path, capsys, line, message):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:10: " + message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines,line_no",
        [
            ("withholding standard=1/2 elevated=1/10", 10),
            ("withholding standard=1/2\n# rates\nwithholding elevated=1/10", 12),
            ("withholding elevated=1/10\nwithholding standard=1/2\ntransfer wallet_ann x 1 8", 11),
        ],
        ids=["one-line", "elevated-last", "standard-last"],
    )
    def test_withholding_order_exit_2_at_last_rate_line(self, tmp_path, capsys, lines, line_no):
        # As in a policy file, the rates are compared once the file is read.
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + lines + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert ("bad.scn:%d: elevated withholding must be >= standard" % line_no
                in capsys.readouterr().err)
        assert not out.exists()

    def test_withholding_rates_may_be_set_on_separate_lines(self, tmp_path):
        scenario = write(tmp_path, "rates.scn",
                         ATTRIB_SCENARIO + "withholding standard=1/2\nwithholding elevated=3/5\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_OK
        assert "affirmed 0.5" in (out / "withholding.txt").read_text()

    @pytest.mark.parametrize(
        "line,code",
        [("eoi XX YY allow", "XX"), ("latency QQ DE 5", "QQ"), ("drop AT ZZ 1/2", "ZZ")],
    )
    def test_undeclared_jurisdiction_exit_2_with_line(self, tmp_path, capsys, line, code):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_PARSE
        assert "bad.scn:10: jurisdiction %r is not declared" % code in capsys.readouterr().err
        assert not out.exists()

    def test_jurisdiction_may_be_declared_after_its_links(self, tmp_path):
        scenario = write(tmp_path, "late.scn", (
            "latency AT FR 2\neoi AT FR allow\n" + ATTRIB_SCENARIO + "jurisdiction FR\n"
        ))
        assert main(["attrib", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_travel_rule_violation_exit_3(self, tmp_path, capsys):
        # Both ends are identified but the originator has no physical identifier.
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO.replace(
            "transfer", "identity wallet_ann name=Ann\nidentity wallet_bob name=Bob\ntransfer"))
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_POLICY
        assert "originator needs a physical address" in capsys.readouterr().err
        assert not out.exists()

    def test_travel_rule_needs_the_beneficiary_name(self, tmp_path, capsys):
        scenario = write(tmp_path, "bad.scn", ATTRIB_SCENARIO.replace("transfer", (
            "identity wallet_ann name=Ann physical=Street1\n"
            "identity wallet_bob customer_id=C2\ntransfer")))
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_POLICY
        assert capsys.readouterr().err == "%s: beneficiary name is mandatory\n" % scenario
        assert not out.exists()

    def test_travel_rule_skips_an_unaffirmed_transfer(self, tmp_path):
        """The identified pair that breaks the travel rule, on a denied link:
        the transfer is unaffirmed, so its identity lines change no byte."""
        denied = ATTRIB_SCENARIO.replace("eoi AT DE allow", "eoi AT DE deny")
        runs = []
        for text in (denied, denied.replace(
                "transfer", "identity wallet_ann name=Ann\nidentity wallet_bob name=Bob\ntransfer")):
            out = tmp_path / ("o%d" % len(runs))
            scenario = write(tmp_path, "s%d.scn" % len(runs), text)
            assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_OK
            runs.append([(out / name).read_bytes() for name in ("trace.txt", "withholding.txt")])
        assert runs[0] == runs[1]
        assert b"unaffirmed 0.3" in runs[0][1]

    def test_transfer_builds_no_event_and_one_fraction(self):
        """A transfer computes only what the run writes: no event record,
        and one Fraction, its withholding, as one exact product."""
        from fisc.attribution.scenario import parse_attribution_scenario, run_attribution_scenario

        counts = []
        for transfers in (200, 2_000):
            text = mesh_scenario(8, 16, transfers)
            with counting() as fractions, counting(ChainEventRecord) as events:
                run_attribution_scenario(parse_attribution_scenario(text),
                                         lambda name, chunk: None)
            assert events[0] == 0
            counts.append(fractions[0])
        assert counts[1] - counts[0] <= 1_800, counts

    def test_trace_streams_across_chunk_boundaries(self, tmp_path):
        """A trace of over 50k lines, many times the chunk size, has the bytes
        it had when the whole trace was rendered at once, and the run holds
        far less than the whole trace in memory."""
        import fisc.attribution.scenario  # noqa: F401  # loaded before tracing

        scenario = write(tmp_path, "mesh.scn", mesh_scenario(24, 48, 2000))
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace = (out / "trace.txt").read_bytes()
        assert trace.count(b"\n") == 51_356
        assert hashlib.sha256(trace).hexdigest() == (
            "64389145ae8682421c7e63bd7b6d5b28f4c7aeee00ed9bf7ca5b5638f5301400")
        assert hashlib.sha256((out / "withholding.txt").read_bytes()).hexdigest() == (
            "b86588ae739df0d03fb68f748f8e580a74be4b6b2191a95e88d6778e4a1d63a0")
        assert peak < 2 * len(trace), (peak, len(trace))

    def test_empty_trace_is_one_newline(self, tmp_path):
        scenario = write(tmp_path, "quiet.scn", "jurisdiction AT\n")
        out = tmp_path / "o"
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_OK
        assert (out / "trace.txt").read_bytes() == b"\n"
        assert (out / "withholding.txt").read_text() == (
            "index origin beneficiary attribution withheld\n")


class TestOutputContract:
    """Outputs are staged beside --out and moved in at the end, manifest
    last: a run that fails leaves --out as it was and no staging directory."""

    def test_late_attrib_failure_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        # The last transfer's origin was refused at registration: the run
        # fails after thousands of trace lines have gone to the staged file.
        scenario = write(tmp_path, "late.scn", mesh_scenario(24, 48, 400)
                         + "dsc J00 TX hx\nregister_tampered J00 TX wx\ntransfer wx w1 5 5\n")
        written = []
        staged_write = fisc.cli._Staged.write

        def spy(self, name, text):
            written.append(name)
            staged_write(self, name, text)

        monkeypatch.setattr(fisc.cli._Staged, "write", spy)
        out = tmp_path / "runs" / "o"  # nor the parent the run would have made
        assert main(["attrib", str(scenario), "--out", str(out)]) == EXIT_POLICY
        assert "transfer 400: origin wallet wx is not registered" in capsys.readouterr().err
        assert written.count("trace.txt") >= 2
        assert os.listdir(tmp_path) == ["late.scn"]

    @pytest.mark.parametrize(
        "command,name,text,failing",
        [(["report"], "events.fisc", EVENTS, "totals.json"),
         (["simulate", "pool"], "pool.scn", POOL_SCENARIO, "state.txt"),
         (["attrib"], "mesh.scn", ATTRIB_SCENARIO, "withholding.txt")],
        ids=["report", "simulate", "attrib"],
    )
    def test_write_failure_leaves_nothing(self, tmp_path, capsys, monkeypatch, command, name,
                                          text, failing):
        """A disk that fills up at one output: its writes fail, and so does
        the flush when it is closed."""
        path = write(tmp_path, name, text)

        class FullDisk:
            def __init__(self, file):
                self.file = file

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.file.close()
                raise OSError(errno.ENOSPC, "No space left on device")

        def staged_open(path, mode):
            file = open(path, mode)
            return FullDisk(file) if Path(path).name == failing else file

        monkeypatch.setattr(fisc.cli, "open", staged_open, raising=False)
        out = tmp_path / "o"
        assert main(command + [str(path), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == "%s: No space left on device\n" % out
        assert os.listdir(tmp_path) == [name]

    @pytest.mark.parametrize("command,name,text", [
        (["report"], "events.fisc", EVENTS), (["simulate", "chain"], "chain.scn", CHAIN_SCENARIO),
    ], ids=["report", "simulate"])
    def test_internal_value_error_escapes_and_leaves_out_as_it_was(
            self, tmp_path, capsys, monkeypatch, command, name, text):
        """A ValueError that no parse of a line raised is a bug, not a
        refusal: it escapes main without an exit code or a stderr line, and
        the run leaves --out as it was and no staging directory."""
        import fisc.tax.engine

        path = write(tmp_path, name, text)
        out = tmp_path / "o"
        assert main(command + [str(path), "--out", str(out)]) == EXIT_OK
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        runner = fisc.cli._SIM_RUNNERS["chain"]

        def fault(*args):
            raise ValueError("internal")

        def replay_then_fault(text, write):
            runner(text, write)  # every output is in the staging directory
            fault()

        monkeypatch.setattr(fisc.tax.engine, "lot_moves", fault)  # called by compute_report
        monkeypatch.setitem(fisc.cli._SIM_RUNNERS, "chain", replay_then_fault)
        capsys.readouterr()
        with pytest.raises(ValueError, match="internal"):
            main(command + [str(path), "--out", str(out)])
        assert capsys.readouterr().err == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
        assert sorted(os.listdir(tmp_path)) == [name, "o"]

    def test_rerun_stages_inside_out(self, tmp_path, monkeypatch):
        """An existing --out, such as a mount point or a symlink to another
        filesystem, holds the staging directory, so no move crosses devices."""
        events = write(tmp_path, "events.fisc", EVENTS)
        out = tmp_path / "o"
        out.mkdir()
        sources = []
        replace = os.replace

        def spy(src, dst):
            replace(src, dst)
            sources.append(Path(src).parent)

        monkeypatch.setattr(os, "replace", spy)
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        assert set(sources) == {out / (".o.%d.tmp" % os.getpid())}
        assert sorted(os.listdir(out)) == ["ledger.csv", "manifest.json", "totals.json"]

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-move", "later-move"])
    def test_failed_commit(self, tmp_path, capsys, monkeypatch, failing):
        """A move that fails before any output lands keeps the earlier run
        whole; one that fails later leaves --out without a manifest."""
        events = write(tmp_path, "events.fisc", EVENTS)
        out = tmp_path / "o"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []
        replace = os.replace

        def cross_device(src, dst):
            calls.append(dst)
            if len(calls) > failing:
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", cross_device)
        assert main(["report", str(events), "--method", "lifo", "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == "%s: Invalid cross-device link\n" % out
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        if failing == 0:
            assert after == earlier
        else:
            assert after == {name: data for name, data in earlier.items()
                             if name != "manifest.json"}

    @pytest.mark.parametrize("exists", [False, True], ids=["new-out", "existing-out"])
    def test_staging_left_by_a_run_with_this_pid_is_replaced(self, tmp_path, exists):
        """A killed run's staging directory whose pid this process reuses,
        as PID 1 in a container does every time, does not block the run."""
        events = write(tmp_path, "events.fisc", EVENTS)
        out = tmp_path / "o"
        if exists:
            out.mkdir()
        stale = (out if exists else tmp_path) / (".o.%d.tmp" % os.getpid())
        stale.mkdir()
        write(stale, "ledger.csv", "half written")
        assert main(["report", str(events), "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(tmp_path)) == ["events.fisc", "o"]
        assert sorted(os.listdir(out)) == ["ledger.csv", "manifest.json", "totals.json"]

    @pytest.mark.parametrize("exists", [False, True], ids=["new-out", "existing-out"])
    def test_killed_run_staging_is_removed_by_the_next_run(self, tmp_path, exists):
        """A run killed mid-stream leaves its staging directory, partly
        written, and its lock free: the next run into --out removes it."""
        small = write(tmp_path, "small.scn", CHAIN_SCENARIO)
        out = tmp_path / "o"
        if exists:
            assert main(["simulate", "chain", str(small), "--out", str(out)]) == EXIT_OK
        big = write(tmp_path, "big.scn", "schedule interval=1000000\nmine start=0 end=5000000\n")
        env = dict(os.environ, PYTHONPATH=str(Path(fisc.__file__).parents[1]))
        child = subprocess.Popen([sys.executable, "-m", "fisc.cli", "simulate", "chain", str(big),
                                  "--out", str(out)], env=env, stderr=subprocess.DEVNULL)
        staging = (out if exists else tmp_path) / (".o.%d.tmp" % child.pid)
        try:
            deadline = time.monotonic() + 60
            while not (staging / "events.fisc").exists():  # a chunk is out
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait()
        assert (staging / "lock").exists()
        assert main(["simulate", "chain", str(small), "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(tmp_path)) == ["big.scn", "o", "small.scn"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted([*manifest["outputs"], "manifest.json"])
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_staging_directory_is_locked_before_it_appears(self, tmp_path, monkeypatch):
        """It is made and locked under a private name, then renamed into
        place, so no run finds a live run's `.tmp` directory unlocked."""
        events = write(tmp_path, "events.fisc", EVENTS)
        renames = []
        rename = os.rename

        def spy(src, dst):
            with open(Path(src) / "lock", "rb") as lock, pytest.raises(BlockingIOError):
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            renames.append((Path(src).name, Path(dst).name))
            rename(src, dst)

        monkeypatch.setattr(os, "rename", spy)
        assert main(["report", str(events), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert renames == [(".o.%d.new" % os.getpid(), ".o.%d.tmp" % os.getpid())]

    def test_live_run_staging_is_kept(self, tmp_path):
        """A staging directory whose lock is held belongs to a live run, and
        one without a lock file is not known to be dead: both stay. Once the
        lock is free, a run into another --out still leaves it alone."""
        events = write(tmp_path, "events.fisc", EVENTS)
        live, unknown = tmp_path / ".o.1.tmp", tmp_path / ".o.2.tmp"
        for path in (live, unknown):
            path.mkdir()
            write(path, "ledger.csv", "half written")
        with open(live / "lock", "wb") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            assert main(["report", str(events), "--out", str(tmp_path / "o")]) == EXIT_OK
            assert sorted(os.listdir(tmp_path)) == [".o.1.tmp", ".o.2.tmp", "events.fisc", "o"]
        assert main(["report", str(events), "--out", str(tmp_path / "o2")]) == EXIT_OK
        assert live.is_dir()
        assert main(["report", str(events), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert sorted(os.listdir(tmp_path)) == [".o.2.tmp", "events.fisc", "o", "o2"]


@pytest.mark.parametrize(
    "command,option",
    [(["report"], ["--seed", "1"]), (["simulate", "pool"], ["--seed", "1"]),
     (["simulate", "pool"], ["--config", "policy.cfg"]), (["attrib"], ["--config", "policy.cfg"])],
    ids=["report-seed", "simulate-seed", "simulate-config", "attrib-config"],
)
def test_option_the_subcommand_does_not_read_exit_2(tmp_path, capsys, command, option):
    """--config is report's only, --seed attrib's only; elsewhere they are refused."""
    path = write(tmp_path, "in.txt", "")
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        main(command + [str(path), *option, "--out", str(out)])
    assert err.value.code == EXIT_PARSE
    assert "unrecognized arguments: " + option[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["report"], ["simulate", "pool"], ["attrib"]],
                         ids=["report", "simulate", "attrib"])
def test_non_utf8_input_exit_2(tmp_path, capsys, command):
    path = tmp_path / "bin.in"
    path.write_bytes(b"\xff\xfe\x00bad")
    out = tmp_path / "o"
    assert main(command + [str(path), "--out", str(out)]) == EXIT_PARSE
    assert "bin.in: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
@pytest.mark.parametrize(
    "command,name,text",
    [(["report"], "events.fisc", EVENTS), (["simulate", "pool"], "pool.scn", POOL_SCENARIO),
     (["attrib"], "mesh.scn", ATTRIB_SCENARIO)],
    ids=["report", "simulate", "attrib"],
)
def test_unusable_out_exit_2(tmp_path, capsys, command, name, text, under):
    """An --out that cannot be made or written is named on one line, exit 2."""
    path = write(tmp_path, name, text)
    blocker = write(tmp_path, "afile", "kept\n")
    out = blocker / "sub" if under else blocker
    assert main(command + [str(path), "--out", str(out)]) == EXIT_PARSE
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err == "%s: %s\n" % (out, reason)
    assert blocker.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == sorted([name, "afile"])


def loaded_by_import(part: str | tuple[str, ...], module: str = "fisc.cli") -> str:
    """The modules naming `part`, or any of several parts, that `import
    <module>` loads, in a fresh process run without `site`, so that no
    installed `.pth` file adds modules."""
    src = str(Path(fisc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    parts = (part,) if isinstance(part, str) else part
    probe = ("import sys, %s; print(sorted(m for m in sys.modules if any(p in m for p in %r)))"
             % (module, parts))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_attribution_unloaded():
    assert loaded_by_import("attribution") == "[]"


def test_cli_import_loads_no_simulation_engine_or_dataclasses():
    """Each process compiles what it imports: `report` loads neither the
    runners' engines nor `dataclasses`; each runner imports its own."""
    assert loaded_by_import(("fisc.consensus", "fisc.blocks", "fisc.addresses",
                             "fisc.ripemd160", "fisc.defi.pool", "fisc.attribution",
                             "dataclasses")) == "[]"


def test_simulation_engines_import_no_dataclasses():
    """`dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`: a cost
    every `simulate` process would pay before its first line."""
    assert loaded_by_import("dataclasses", "fisc.cli, fisc.consensus, fisc.defi.pool") == "[]"


def test_attrib_imports_no_dataclasses():
    assert loaded_by_import("dataclasses", "fisc.cli, fisc.attribution.scenario") == "[]"


def event_stream(n: int) -> str:
    """`n` events of one asset, purchases of 2 units and sales of 1 in turn."""
    return "asset BTC 8\n" + "".join(
        "event seq=%d ts=%d kind=%s asset=BTC qty=%d fmv=%d.5\n"
        % (i + 1, 1_600_000_000 + 3600 * i, *(("sale", 1) if i % 2 else ("purchase", 2)),
           100 + i % 7) for i in range(n))


@pytest.mark.parametrize("command,make", [
    (["report", "--method", "fifo"], event_stream),
    (["simulate", "chain"], lambda n: "schedule interval=100000\nprice fmv=30000.5\n"
                                      "mine start=0 end=%d\n" % (n - 1)),
    (["attrib"], lambda n: mesh_scenario(8, 16, n)),
], ids=["report", "simulate-chain", "attrib"])
def test_run_leaves_no_cyclic_garbage_that_grows_with_its_input(tmp_path, command, make):
    """main runs with the collector off, so each cycle a run leaves unreachable
    stays until the process ends: at n and 4n records the same number must be
    found, or memory would grow with the input."""
    found = []
    for n in (1_000, 4_000):
        path = write(tmp_path, "in%d" % n, make(n))
        gc.collect()
        gc.disable()
        try:
            assert main(command + [str(path), "--out", str(tmp_path / ("o%d" % n))]) == EXIT_OK
            found.append(gc.collect())
        finally:
            gc.enable()
    assert found[0] == found[1], found


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_with_the_collector_off_and_restores_it(tmp_path, monkeypatch, enabled):
    seen = []
    monkeypatch.setitem(fisc.cli._SIM_RUNNERS, "chain",
                        lambda text, write: seen.append(gc.isenabled()))
    path = write(tmp_path, "chain.scn", CHAIN_SCENARIO)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["simulate", "chain", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert seen == [False] and gc.isenabled() is enabled
    finally:
        gc.enable()


def test_consensus_import_leaves_blocks_unloaded():
    assert loaded_by_import("fisc.blocks", "fisc.consensus") == "[]"


def test_line_reader_imports_no_other_fisc_module():
    assert loaded_by_import("fisc", "fisc.lineformat") == "['fisc', 'fisc.lineformat']"


def test_event_parser_leaves_the_engine_unloaded():
    assert loaded_by_import("fisc.tax", "fisc.tax.events") == "['fisc.tax', 'fisc.tax.events']"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("fisc ")
