import json

import pytest

from fisc.cli import EXIT_OK, EXIT_PARSE, EXIT_POLICY, main

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

    def test_missing_file(self, tmp_path):
        code = main(["report", str(tmp_path / "nope.fisc"), "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("fisc ")
