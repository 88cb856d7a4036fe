"""Generated input files driven through `fisc.cli.main`.

Each strategy builds lines from one format's own tags and keys: the pool,
chain and validators scenarios of `simulate`, `attrib` scenarios,
`report --config` policies and `report` event files, each event file read
under a drawn policy. Most lines are well formed; junk tokens, fields
without '=', missing fields, '1/0' and negative numbers are mixed in.
Every run must exit 0, 2 or 3 with no exception escaping, leave no output
directory after a nonzero exit, and write byte-identical files when rerun
after exit 0. Only a refusal exits 2 or 3, so a bug, such as a ValueError
on one policy's path, escapes and fails the test.

Bounds: numbers lie in [-2,000, 2,000], so heights and `mine` ranges stay
within 2,000 blocks. `decimals` lie in [-2, 18] or [253, 258], or are 4,400:
both sides of each end of the accepted range [0, 255], and a value whose
outputs would pass the int->str digit limit if it were accepted. Two
pinned examples pass that limit with an accepted 4,296-digit amount.
Event timestamps lie on both sides of each end of the years 1 to 9999.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fisc.amounts import parse_rational
from fisc.cli import EXIT_OK, EXIT_PARSE, EXIT_POLICY, main
from fisc.tax.events import EventKind
from fisc.tax.lots import AccountingMethod


def mostly(good, bad, one_in: int = 10):
    """`good`, but `bad` about once in `one_in` draws. Hypothesis draws a
    range's lower bound in its first, simplest examples and shrinks towards
    it, so that roll gives `good`."""
    return st.integers(1, one_in).flatmap(lambda roll: bad if roll == one_in else good)


JUNK = st.sampled_from(["x", "=", "a=b=c", "1/0", "-1", "nan", "inf", "1e3", "--", "é"])
NATURAL = st.integers(0, 2_000).map(str)
INTEGER = mostly(NATURAL, st.integers(-2_000, -1).map(str), one_in=4)
NUMBER = st.one_of(
    INTEGER,
    st.builds("{}/{}".format, st.integers(-50, 2_000), st.integers(0, 50)),
    st.builds("{}.{}".format, st.integers(0, 2_000), st.integers(0, 999)),
)
PROBABILITY = st.integers(1, 8).flatmap(
    lambda den: st.integers(0, den).map(lambda num: "%d/%d" % (num, den)))
NAMES = st.sampled_from(["a", "b", "c"])
OWN_VALUES = {
    "decimals": st.one_of(st.integers(-2, 18), st.integers(253, 258), st.just(4_400)).map(str),
    "dir": st.sampled_from(["x2y", "y2x"]),
    "fee": PROBABILITY,
    "standard": PROBABILITY,
    "elevated": PROBABILITY,
}
NAME_KEYS = {"owner", "id", "asset_x", "asset_y", "name", "physical", "national_id",
             "customer_id", "birth"}


def value_for(key: str):
    if key in NAME_KEYS:
        return NAMES
    return OWN_VALUES.get(key, NUMBER)


@st.composite
def kv_line(draw, tag: str, keys: list[str], positional=()):
    """`tag [positional...] key=value...`, now and then with keys missing,
    a field without '=', a junk token or a junk value."""
    tokens = [tag, *(draw(strategy) for strategy in positional)]
    keys = draw(st.permutations(keys))
    roll = draw(st.integers(1, 10))
    if roll == 1:
        keys = keys[1:]
    elif roll == 2:
        keys = keys[:draw(st.integers(0, len(keys)))]
    for key in keys:
        fault = draw(st.integers(1, 40))
        if fault == 1:
            tokens.append(key)
        elif fault == 2:
            tokens.append(draw(JUNK))
        elif fault == 3:
            tokens.append("%s=%s" % (key, draw(JUNK)))
        else:
            tokens.append("%s=%s" % (key, draw(value_for(key))))
    return " ".join(tokens)


def scenario(lines, first: str = ""):
    """Up to eight drawn lines, usually after the well-formed `first` ones."""
    head = mostly(st.just([first] if first else []), st.just([]))
    return st.builds(lambda head, body: "\n".join(head + body), head,
                     st.lists(lines, max_size=8))


POOL = scenario(
    mostly(
        st.one_of(
            kv_line("price", ["x", "y"]),
            kv_line("time", ["at"]),
            kv_line("deposit", ["owner", "x", "y"]),
            kv_line("swap", ["in", "dir"]),
            kv_line("withdraw", ["owner"]),
        ),
        st.one_of(
            kv_line("pool", ["reserve_x", "reserve_y", "fee", "decimals", "asset_x", "asset_y"]),
            st.just("bogus tag=1"),
        ),
    ),
    first="pool reserve_x=1000 reserve_y=1000 fee=3/1000 decimals=2",
)

CHAIN = scenario(mostly(
    st.one_of(
        kv_line("schedule", ["initial", "interval", "decimals"]),
        kv_line("retarget", ["window", "interval"]),
        kv_line("price", ["fmv"]),
        kv_line("asset", ["id"]),
        st.builds("mine start={} end={}".format, st.integers(0, 2_000), st.integers(0, 2_000)),
    ),
    kv_line("mine", ["start", "end"]),
))

VALIDATOR = st.sampled_from(["v1", "v2", "v3"])
DUTY = st.sampled_from(["missed_source", "missed_target", "missed_head", "missed_sync",
                        "double_proposal", "double_vote"])
VALIDATORS = scenario(
    mostly(
        st.one_of(
            kv_line("validator", ["stake"], positional=[VALIDATOR]),
            kv_line("price", ["fmv"]),
            st.builds("duty {} {}".format, VALIDATOR, DUTY),
        ),
        st.sampled_from(["duty v1", "duty v1 bogus", "validator", "duty v9 missed_head"]),
    ),
    first="validator v1 stake=32\nvalidator v2 stake=64",
)

CODE = st.sampled_from(["AT", "DE", "FR"])
WALLET = st.sampled_from(["w1", "w2", "w3", "addr:1BoatSLRHtKNngkdXEeobR76b53LETtpyT"])
TIN = st.sampled_from(["T1", "T2", "T3"])
TICKS = mostly(st.integers(0, 20).map(str), JUNK)
ATTRIB = scenario(
    mostly(
        st.one_of(
            st.builds("seed {}".format, NATURAL),
            st.builds("eoi {} {} {}".format, CODE, CODE, st.sampled_from(["allow", "deny"])),
            st.builds("latency {} {} {}".format, CODE, CODE, TICKS),
            st.builds("drop {} {} {}".format, CODE, CODE, mostly(PROBABILITY, NUMBER)),
            st.builds("dsc {} {} {}".format, CODE, TIN, NAMES),
            st.builds("{} {} {} {}".format, st.sampled_from(["register", "register_tampered"]),
                      CODE, TIN, WALLET),
            kv_line("identity", ["name", "physical", "national_id", "customer_id", "birth"],
                    positional=[WALLET]),
            st.builds("transfer {} {} {} {}".format, WALLET, WALLET, INTEGER, TICKS),
            kv_line("withholding", ["standard", "elevated"]),
        ),
        st.one_of(
            st.builds("jurisdiction {}".format, CODE),
            st.builds("{} {}".format, st.sampled_from(["transfer", "eoi", "dsc", "seed"]), CODE),
            st.builds("eoi {} {} maybe".format, CODE, CODE),
        ),
    ),
    first=("jurisdiction AT\njurisdiction DE\neoi AT DE allow\neoi DE AT allow\n"
           "dsc AT T1 a\ndsc DE T2 b\nregister AT T1 w1\nregister DE T2 w2"),
)

POLICY_VALUES = {
    "fork_treatment": st.sampled_from(["fmv_income", "zero_basis"]),
    "airdrop_treatment": st.sampled_from(["fmv_income", "zero_basis"]),
    "hobby_miner": st.sampled_from(["none", "exempt_with_cost_basis", "zero_basis_no_deduction"]),
    "mining_is_business": st.sampled_from(["yes", "no", "true", "0"]),
    "slashing_deductible": st.sampled_from(["yes", "no"]),
    "gift_taxable": st.sampled_from(["yes", "no"]),
    "lp_events_are_disposals": st.sampled_from(["yes", "no"]),
    "allowed_methods": st.sampled_from(["fifo", "fifo, hifo", "lifo", "fifo,,"]),
    "standard_withholding": mostly(PROBABILITY, NUMBER),
    "elevated_withholding": mostly(PROBABILITY, NUMBER),
    "tax_year_start": mostly(
        st.builds("{}-{}".format, st.integers(1, 12), st.integers(1, 28)),
        st.builds("{}-{}".format, st.integers(-1, 13), st.integers(-1, 32)),
    ),
    "long_term_days": INTEGER,
}
POLICY = st.lists(
    mostly(
        st.sampled_from(sorted(POLICY_VALUES)).flatmap(
            lambda key: st.builds("{} = {}".format, st.just(key), POLICY_VALUES[key])),
        st.sampled_from(["bogus = 1", "tax_year_start", "long_term_days = 1 # comment", "= 3",
                         "allowed_methods = bogus", "gift_taxable = é"]),
    ),
    max_size=6,
).map("\n".join)

EVENTS = """\
asset BTC 8
event seq=1 ts=2020-02-01T00:00:00Z kind=purchase asset=BTC qty=200000000 fmv=100
event seq=2 ts=2021-08-01T00:00:00Z kind=sale asset=BTC qty=100000000 fmv=400
"""

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def check_cli(text: str, command: list[str], trailing: list[str] = ()) -> dict[str, bytes]:
    """Run `fisc <command> <file holding text> <trailing> --out ...` twice;
    the files written, or none after a nonzero exit."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "input"
        path.write_text(text + "\n")
        argv = [*command, str(path), *trailing]
        first, second = root / "first", root / "second"
        code = main(argv + ["--out", str(first)])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_POLICY)
        if code != EXIT_OK:
            assert not first.exists()
            return {}
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        return {name: (first / name).read_bytes() for name in files}


@given(POOL)
@example("pool reserve_x=1 reserve_y=1 decimals=4400")
@example("pool reserve_x=%s reserve_y=100" % ("9" * 4_296))
@FUZZ
def test_pool_scenarios(text):
    check_cli(text, ["simulate", "pool"])


@given(CHAIN)
@example("schedule decimals=4400\nmine start=0 end=0")
@example("schedule initial=%s\nmine start=0 end=0" % ("9" * 4_296))
@FUZZ
def test_chain_scenarios(text):
    check_cli(text, ["simulate", "chain"])


@given(VALIDATORS)
@FUZZ
def test_validator_scenarios(text):
    check_cli(text, ["simulate", "validators"])


@given(ATTRIB)
@FUZZ
def test_attrib_scenarios(text):
    check_cli(text, ["attrib"])


@given(POLICY)
@FUZZ
def test_policies(text):
    with tempfile.TemporaryDirectory() as tmp:
        events = Path(tmp) / "events.fisc"
        events.write_text(EVENTS)
        check_cli(text, ["report", str(events), "--config"])


# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z, one second either side of
# each, and further out, in both forms.
TIMESTAMP = mostly(
    st.integers(0, 2_000).map(str),
    st.sampled_from(["-62135596801", "-62135596800", "253402300799", "253402300800",
                     "-100000000000", "100000000000000000000", "0001-01-01T00:00:00Z",
                     "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59Z",
                     "9999-12-31T23:59:59-01:00"]),
    one_in=8,
)
PRICE = mostly(
    st.one_of(NATURAL, st.builds("{}/{}".format, st.integers(0, 2_000), st.integers(1, 50))),
    st.one_of(st.integers(-2_000, -1).map(str), st.just("-3/4"), JUNK),
)
# Each (good, bad) pair gives an event file one asset id, the bad one about
# once in ten. Pairs keep the ids unique without a unique list, which would
# redraw a repeated good id and so favour the bad ones.
ASSET_IDS = [("BTC", "a,b"), ("ETH", 'q"t'), ("X", 'y,"z')]


# Metadata the engine reads: a deduction, a slashing (which slashing_deductible
# decides) and an attribution (which sets the withholding).
META = mostly(st.just(""), st.sampled_from([
    " meta.deduction=1", " meta.deduction=1 meta.slashing=1", " meta.attribution=affirmed",
    " meta.attribution=unaffirmed"]), one_in=4)


@st.composite
def event_file(draw):
    """Asset lines, usually an opening purchase, then up to eight events."""
    pairs = draw(st.permutations(ASSET_IDS))[:draw(st.integers(1, 3))]
    assets = [draw(mostly(st.just(good), st.just(bad))) for good, bad in pairs]
    lines = ["asset %s %d" % (asset, draw(st.integers(0, 8))) for asset in assets]
    if draw(st.integers(1, 5)) > 1:
        lines.append("event seq=0 ts=0 kind=purchase asset=%s qty=1000000 fmv=1" % assets[0])
    for seq in range(1, draw(st.integers(0, 8)) + 1):
        lines.append("event seq=%d ts=%s kind=%s asset=%s qty=%d fmv=%s%s" % (
            seq, draw(TIMESTAMP), draw(st.sampled_from(list(EventKind))).value,
            draw(st.sampled_from(assets)), draw(st.integers(1, 1_000)), draw(PRICE), draw(META)))
    return "\n".join(lines)


EVENT_METHODS = st.sampled_from([method.value for method in AccountingMethod])
# The switches that change how a report reads its events, each set about
# half the time; allowed_methods sometimes leaves out the method run.
REPORT_POLICY = st.fixed_dictionaries({}, optional={
    **{key: POLICY_VALUES[key] for key in (
        "gift_taxable", "lp_events_are_disposals", "slashing_deductible", "mining_is_business",
        "hobby_miner", "fork_treatment", "airdrop_treatment")},
    "allowed_methods": st.lists(EVENT_METHODS, min_size=1, unique=True).map(", ".join),
}).map(lambda switches: "".join("%s = %s\n" % item for item in switches.items()))


@given(event_file(), EVENT_METHODS, REPORT_POLICY)
@example("asset BTC 8\nevent seq=1 ts=100000000000000000000 kind=airdrop asset=BTC qty=1 fmv=1",
         "fifo", "")
@example("asset BTC 8\nevent seq=1 ts=-100000000000 kind=airdrop asset=BTC qty=1 fmv=1", "fifo",
         "")
@example("asset X 0\nevent seq=1 ts=-62135596800 kind=mining_reward asset=X qty=1 fmv=1", "fifo",
         "")
@example("asset X 0\nevent seq=1 ts=0 kind=mining_reward asset=X qty=2 fmv=1\n"
         "event seq=2 ts=1 kind=sale asset=X qty=1 fmv=-5", "fifo", "")
@example("asset a,b 0\nevent seq=1 ts=0 kind=mining_reward asset=a,b qty=2 fmv=1\n"
         "event seq=2 ts=0 kind=sale asset=a,b qty=1 fmv=2", "hifo", "")
# A gift the policy exempts takes its own path through compute_report.
@example("asset X 0\nevent seq=1 ts=0 kind=purchase asset=X qty=2 fmv=1\n"
         "event seq=2 ts=1 kind=gift asset=X qty=1 fmv=3", "fifo", "gift_taxable = no\n")
@FUZZ
def test_event_files(text, method, policy):
    """A ledger written has 9 fields a row, YYYY-MM-DD dates and proceeds >= 0."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "policy.cfg"
        config.write_text(policy)
        files = check_cli(text, ["report"], ["--method", method, "--config", str(config)])
    if not files:
        return
    header, *rows = files["ledger.csv"].decode().splitlines()
    assert header == "seq,date,kind,asset,qty,proceeds,basis,gain,term"
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 9, row
        assert len(fields[1]) == 10, row
        assert parse_rational(fields[5]) >= 0, row
