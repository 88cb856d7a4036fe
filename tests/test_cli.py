import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fisc
from fisc.amounts import format_rational, parse_rational
from fisc.cli import EXIT_OK, EXIT_PARSE, EXIT_POLICY, main
from fisc.tax.engine import compute_report
from fisc.tax.events import parse_event_file
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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


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
        out = tmp_path / "out"
        main(["report", str(events), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["report", str(events), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

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

    def test_config_env_fallback(self, tmp_path, monkeypatch):
        events = write(tmp_path, "events.fisc", EVENTS)
        policy = write(tmp_path, "policy.conf", "allowed_methods = lifo\n")
        monkeypatch.setenv("FISC_CONFIG", str(policy))
        out = tmp_path / "out"
        # FIFO now violates the env-provided policy.
        assert main(["report", str(events), "--out", str(out)]) == EXIT_POLICY
        assert main(["report", str(events), "--method", "lifo", "--out", str(out)]) == EXIT_OK

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
        # 800 sales at 1/p for distinct 7-digit primes p: every ledger line
        # prints, but the year's gain has a denominator of about 5,600 digits.
        primes = [p for p in range(1_000_003, 1_020_000, 2)
                  if all(p % d for d in range(3, 1_011, 2))][:800]
        lines = ["asset X 0", "event seq=1 ts=0 kind=purchase asset=X qty=800 fmv=1"]
        lines += ["event seq=%d ts=%d kind=sale asset=X qty=1 fmv=1/%d" % (seq, seq, p)
                  for seq, p in enumerate(primes, start=2)]
        events = write(tmp_path, "events.fisc", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["report", str(events), "--out", str(out)]) == EXIT_POLICY
        err = capsys.readouterr().err
        assert "events.fisc: year 1970 short_term_gain: exact value too long to print" in err
        assert "Traceback" not in err
        assert not out.exists()


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
        ],
        ids=["chain", "pool", "validators"],
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
            ("pool", "price x=-1 y=1", "fmv must be non-negative, got -1"),
            ("pool", "price x=1 y=-1/2", "fmv must be non-negative, got -1/2"),
            # Heights 209999 and 210000 at 10**11 seconds a block are past the year 9999.
            ("chain", "retarget interval=100000000000",
             "timestamp 21000000000000000 is outside the years 1 to 9999 UTC"),
            ("pool", "time at=253402300800",
             "timestamp 253402300800 is outside the years 1 to 9999 UTC"),
            ("pool", "time at=-62135596801",
             "timestamp -62135596801 is outside the years 1 to 9999 UTC"),
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
            ("identity", "identity <wallet-label> key=value..."),
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
