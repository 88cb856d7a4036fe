"""Traced-run checks. Run: python3 -m pytest -q bench/check_spans.py

Each per-layer metric BENCHMARK.json names is non-zero on the workload
whose layer it measures; wrappers sit at every lookup site; self times are
span durations minus child spans.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = {m["name"]: m["unit"]
             for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
TAX_WORKLOADS = ("ledger-deep", "ledger-pooled", "sim-pipeline")


def target(metric: str) -> tuple[str, ...]:
    """The workloads on which a metric's layer does work."""
    suffix = metric.rsplit(".", 1)[-1]
    if suffix in workloads.DEEP_METHODS:
        return ("ledger-deep",)
    if suffix in workloads.POOLED_METHODS:
        return ("ledger-pooled",)
    if suffix == "simulate" or metric.startswith(("scenarios.", "tax.events.serialize")):
        return ("sim-pipeline",)
    if suffix == "attrib" or metric.startswith(("addresses.", "signatures.", "attribution.")):
        return ("attrib-mesh",)
    return workloads.WORKLOADS


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    results = {}
    for name in workloads.WORKLOADS:
        session = run.Session(name, 5, tmp_path_factory.mktemp(name))
        metrics, _ = run.run_traced(session, 0)
        results[name] = (session, {key: value for key, (value, _) in metrics.items()})
    return results


@pytest.mark.parametrize("metric", PER_LAYER)
def test_metric_nonzero_on_its_workload(traced, metric):
    for name in target(metric):
        assert traced[name][1][metric] > 0, (metric, name)


def test_hash160_only_on_attribution(traced):
    for name in TAX_WORKLOADS:
        assert traced[name][1]["addresses.hash160_calls"] == 0
    assert traced["attrib-mesh"][1]["addresses.hash160_calls"] > 0


def test_hifo_disposal_is_the_largest_layer_time_on_ledger_deep(traced):
    metrics = traced["ledger-deep"][1]
    times = {m: metrics[m] for m, unit in PER_LAYER.items()
             if unit == "s" and m != "tax.engine.compute_s.hifo"}  # the span enclosing it
    assert max(times, key=times.get) == "tax.lots.dispose_s.hifo"


def test_outputs_pass_checks_and_only_pvct_fails(traced):
    for name, (session, _) in traced.items():
        assert session.problems == [], name
        failed = {r["key"] for r in session.records if not r["ok"]}
        assert failed == ({"report.pvct"} if name == "ledger-pooled" else set()), name
        assert all(r["known_defect"] for r in session.records if not r["ok"])


def test_wrappers_patch_every_lookup_site():
    import fisc.addresses
    import fisc.attribution.protocol
    import fisc.cli
    import fisc.ripemd160
    import fisc.tax.engine
    from fisc.amounts import format_rational
    from fisc.tax.lots import LotStore

    sites = [
        (fisc.tax.engine, "format_rational"),
        (fisc.tax.events, "format_rational"),
        (fisc.addresses, "ripemd160"),
        (fisc.ripemd160, "ripemd160"),
        (fisc.attribution.protocol, "address_from_pubkey"),
        (fisc.cli, "compute_report"),
    ]
    originals = [getattr(module, name) for module, name in sites]
    runner = fisc.cli._SIM_RUNNERS["chain"]
    dispose = LotStore.dispose
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(sites, originals):
            assert getattr(module, name).__wrapped__ is original, (module.__name__, name)
        assert fisc.cli._SIM_RUNNERS["chain"].__wrapped__ is runner
        assert LotStore.dispose.__wrapped__ is dispose
        tracer.set_context("fifo")
        assert fisc.tax.engine.format_rational(1) == format_rational(1) == "1"
        assert tracer.names[tracer.span_name[0]] == "amounts.format_rational"
    finally:
        tracer.uninstall()
    assert [getattr(module, name) for module, name in sites] == originals
    assert fisc.cli._SIM_RUNNERS["chain"] is runner and LotStore.dispose is dispose


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()
    f = tracer._name_id("x.f", "x")
    g = tracer._name_id("y.g", "y")
    tracer.set_context("c")
    # f [0, 100) calls g [10, 40) and, recursively, f [50, 70).
    for name, parent, start, end in ((f, -1, 0, 100), (g, 0, 10, 40), (f, 0, 50, 70)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
        tracer.span_context.append(0)
    by_name, by_layer = tracer.profile()
    assert by_name[("c", "x.f")] == pytest.approx({"calls": 2, "inclusive_s": 100e-9, "self_s": 70e-9})
    assert by_name[("c", "y.g")] == pytest.approx({"calls": 1, "inclusive_s": 30e-9, "self_s": 30e-9})
    assert by_layer[("c", "x")]["self_s"] == pytest.approx(70e-9)
