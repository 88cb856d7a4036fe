"""In-process span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions and methods of each traced
`fisc` module and patches every name under which a wrapped function can be
looked up: its defining module, each module that imported it, and
module-level dicts such as `fisc.cli._SIM_RUNNERS`. Spans are kept in
memory as parallel arrays (name, start, end, parent) and written out at
the end; counters are taken at the same boundaries by small hooks.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from enum import Enum
from fractions import Fraction
from pathlib import Path

# Every module a CLI subcommand reaches. fisc.utxo, fisc.blocks and
# fisc.defi.vault are left out: no subcommand calls into them.
TRACED_MODULES = (
    "fisc.amounts",
    "fisc.ripemd160",
    "fisc.addresses",
    "fisc.signatures",
    "fisc.consensus",
    "fisc.defi.pool",
    "fisc.tax.events",
    "fisc.tax.lots",
    "fisc.tax.policy",
    "fisc.tax.engine",
    "fisc.attribution.protocol",
    "fisc.attribution.travelrule",
    "fisc.attribution.sim",
    "fisc.attribution.scenario",
    "fisc.scenarios",
    "fisc.cli",
)

DISPOSE = "tax.lots.LotStore.dispose"
COMPUTE = "tax.engine.compute_report"


def _layer(module_name: str) -> str:
    return module_name[len("fisc."):]


class Tracer:
    """Records one span per call of a wrapped function.

    `context` names the invocation being traced (a report method, or
    `simulate` / `attrib`); counters are kept per context.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_context = array("i")
        self.reset()
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "tax.lots.LotStore.lots": self._on_lots,
            DISPOSE: self._on_dispose,
            COMPUTE: self._on_compute,
            "amounts.format_rational": self._on_format_rational,
            "tax.events.parse_event_file": self._on_parse,
            "attribution.sim.AttributionNetwork.query_beneficiary_jurisdiction": self._on_query,
            "attribution.sim.AttributionNetwork.render_trace": self._on_render_trace,
        }

    def reset(self) -> None:
        """Drop recorded spans and counters; installed wrappers stay valid."""
        for column in (self.span_name, self.span_parent, self.span_start,
                       self.span_end, self.span_context):
            del column[:]
        self.contexts: list[str] = []
        self.context = ""
        self.counters: dict[tuple[str, str], int] = {}
        self.errors: dict[tuple[str, str], int] = {}
        self._stack = [-1]
        self._dispose_depth = 0

    def set_context(self, context: str) -> None:
        self.contexts.append(context)
        self.context = context

    def count(self, name: str, value: int = 1) -> None:
        key = (self.context, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    # --- wrapping ---

    def wrap(self, fn, layer: str, name: str):
        name_id = self._name_id(name, layer)
        hook = self._hooks.get(name)
        is_dispose = name == DISPOSE
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_context = self.span_start, self.span_end, self.span_context
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(span_name)
            stack = tracer._stack
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_context.append(len(tracer.contexts) - 1)
            span_end.append(0)
            stack.append(index)
            if is_dispose:
                tracer._dispose_depth += 1
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span_end[index] = clock()
                stack.pop()
                if is_dispose:
                    tracer._dispose_depth -= 1
                key = (tracer.context, name)
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            span_end[index] = clock()
            stack.pop()
            if is_dispose:
                tracer._dispose_depth -= 1
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the traced modules and patch every lookup site."""
        modules = [importlib.import_module(name) for name in TRACED_MODULES]
        replaced: dict[object, object] = {}
        for module in modules:
            layer = _layer(module.__name__)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    replaced[value] = self.wrap(value, layer, "%s.%s" % (layer, attr))
                elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
                    self._wrap_class(value, layer, "%s.%s" % (layer, attr))
        for module_name, module in list(sys.modules.items()):
            if module_name != "fisc" and not module_name.startswith("fisc."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(module, attr, replaced[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replaced:
                            self._undo.append((value, key, item))
                            value[key] = replaced[item]

    def _wrap_class(self, cls: type, layer: str, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (prefix, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, layer, name))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, layer, name))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(raw, layer, name)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --- counter hooks ---

    def _on_lots(self, args, result) -> None:
        if self._dispose_depth:
            self.count("tax.lots.listed", len(result))

    def _on_dispose(self, args, result) -> None:
        self.count("tax.lots.parts", len(result.parts))

    def _on_compute(self, args, result) -> None:
        self.count("tax.engine.ledger_lines", len(result.lines))

    def _on_format_rational(self, args, result) -> None:
        bits = Fraction(args[0]).denominator.bit_length()
        key = (self.context, "amounts.max_denominator_bits")
        self.counters[key] = max(self.counters.get(key, 0), bits)

    def _on_parse(self, args, result) -> None:
        self.count("tax.events.records", len(result[1]))

    def _on_query(self, args, result) -> None:
        self.count("attribution.sim.affirmed", int(result.affirmed))

    def _on_render_trace(self, args, result) -> None:
        lines = result.splitlines()
        self.count("attribution.sim.trace_entries", len(lines))
        self.count("attribution.sim.dropped", sum("_dropped" in line for line in lines))

    # --- reduction ---

    def profile(self) -> tuple[dict, dict]:
        """Reduce the spans to per-(context, name) and per-(context, layer) sums.

        Returns `(by_name, by_layer)`. `by_name` holds calls, inclusive
        seconds (a name nested in itself counts once) and self seconds (a
        span's duration minus its child spans). `by_layer` holds each
        layer's self seconds and, under `in_compute_s`, the part of it spent
        inside `compute_report`.
        """
        compute_id = self._ids.get(COMPUTE, -1)
        active = [0] * len(self.names)
        stack: list[int] = []
        child_ns = [0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_ns[parent] += self.span_end[i] - self.span_start[i]
        by_name: dict[tuple[str, str], dict[str, float]] = {}
        by_layer: dict[tuple[str, str], dict[str, float]] = {}
        # Spans are stored in start order, a depth-first walk of the calls.
        for i, name_id in enumerate(self.span_name):
            parent = self.span_parent[i]
            while stack and stack[-1] != parent:
                active[self.span_name[stack.pop()]] -= 1
            duration = self.span_end[i] - self.span_start[i]
            self_s = (duration - child_ns[i]) / 1e9
            context = self.contexts[self.span_context[i]]
            entry = by_name.setdefault((context, self.names[name_id]),
                                       {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            if not active[name_id]:
                entry["inclusive_s"] += duration / 1e9
            layer = by_layer.setdefault((context, self.layers[name_id]),
                                        {"self_s": 0.0, "in_compute_s": 0.0})
            layer["self_s"] += self_s
            if compute_id >= 0 and (active[compute_id] or name_id == compute_id):
                layer["in_compute_s"] += self_s
            active[name_id] += 1
            stack.append(i)
        return by_name, by_layer

    def write_spans(self, path: Path) -> None:
        """Dump the spans as raw int64/int32 columns plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("start_ns", self.span_start), ("end_ns", self.span_end),
                   ("context", self.span_context))
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        index = {
            "count": len(self.span_name),
            "columns": [[label, column.typecode] for label, column in columns],
            "names": self.names,
            "contexts": self.contexts,
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
