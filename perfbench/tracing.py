"""Per-layer tracing from outside the engine.

:class:`LayerTracer` wraps the public entry points of each layer (listed
in :data:`ENTRY_POINTS`) for the duration of the traced run and restores
them afterwards; nothing under ``src/`` changes.  Each call becomes a
span with its name, parent and op id, its CPU ms, wall ms and
virtual-clock delta, and the counter deltas of ``metrics_snapshot()`` and
``statement_cache_stats()`` taken at the same boundaries.

The tracer's own bookkeeping (the counter snapshots, mostly) is timed and
subtracted from every span that encloses it, so a span's CPU is the
engine's CPU.  A span's self time is its CPU minus that of its child
spans.  While a span is open, the wrappers of its own name are removed, so
only the outermost call of a recursive entry point (``Evaluator.eval``,
``TypeChecker.infer``) becomes a span and nested calls cost nothing extra.
"""

from __future__ import annotations

import importlib
import json
import time

_wall = time.perf_counter

#: (module, class or None for a module function, attribute, span name).
#: The layer of a span is the part of its name before the first dot.
ENTRY_POINTS = [
    ("repro.compiler.pipeline", "Compiler", "compile_expression", "compiler.compile"),
    ("repro.compiler.pipeline", "Compiler", "compile_call", "compiler.compile"),
    ("repro.xquery.parser", "Parser", "parse_main_expression", "compiler.parse"),
    ("repro.compiler.pipeline", None, "normalize", "compiler.normalize"),
    ("repro.xquery.typecheck", "TypeChecker", "infer", "compiler.typecheck"),
    ("repro.compiler.optimizer", "Optimizer", "optimize", "compiler.optimize"),
    ("repro.sql.rewriter", None, "push_sql", "compiler.push_sql"),
    ("repro.compiler.costing", None, "apply_costing", "compiler.costing"),
    ("repro.compiler.verify", None, "verify_plan", "compiler.verify"),
    ("repro.services.platform", "Platform", "call", "services.call"),
    ("repro.services.platform", "Platform", "execute", "services.execute"),
    ("repro.services.platform", "Platform", "prepare", "services.prepare"),
    ("repro.services.platform", "Platform", "read_for_update", "sdo.read_for_update"),
    ("repro.sdo.submit", "SubmitEngine", "submit", "sdo.submit"),
    ("repro.runtime.evaluate", "Evaluator", "eval", "runtime.eval"),
    ("repro.runtime.evaluate", "Evaluator", "iter_eval", "runtime.eval"),
    ("repro.relational.connection", "Connection", "execute_query", "relational.query"),
    ("repro.relational.txn", "Transaction", "execute", "relational.dml"),
    ("repro.relational.txn", "TwoPhaseCommit", "commit", "relational.commit"),
    ("repro.xml.serialize", None, "serialize", "xml.serialize"),
    ("repro.security.policy", "SecurityService", "filter_items", "security.filter"),
    ("repro.server.frontend", "DataServer", "execute", "server.request"),
    ("repro.server.admission", "AdmissionController", "admit", "server.admit"),
    ("repro.server.frontend", None, "estimate_cost", "server.estimate_cost"),
    ("repro.observability.continuous", "FlightRecorder", "record", "server.flight_record"),
    ("repro.observability.continuous", "ContinuousTracer", "begin_request", "observability.begin"),
    ("repro.observability.continuous", "ContinuousTracer", "end_request", "observability.end"),
]

#: generator entry points: the span stays open across resumptions
GENERATORS = {("Evaluator", "iter_eval")}

#: ``Adaptor.invoke`` is bound into each source's function definition at
#: registration, so the tracer wraps those bound methods instead
SOURCE_SPAN = "sources.invoke"

LAYERS = ("compiler", "services", "runtime", "relational", "sources", "xml",
          "security", "sdo", "server", "observability")


class Span:
    __slots__ = ("index", "name", "layer", "parent", "op", "cpu", "wall",
                 "sim", "child_cpu", "counters", "_cpu0", "_wall0", "_sim0",
                 "_over0", "_k0")

    def __init__(self, index: int, name: str, parent: "Span | None", op):
        self.index = index
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.op = op
        self.cpu = self.wall = self.sim = self.child_cpu = 0.0
        self.counters: dict[str, float] = {}

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu

    def to_json(self) -> dict:
        return {"i": self.index, "name": self.name,
                "parent": self.parent.index if self.parent else None,
                "op": self.op, "cpu_ms": round(self.cpu * 1e3, 6),
                "self_cpu_ms": round(self.self_cpu * 1e3, 6),
                "wall_ms": round(self.wall * 1e3, 6),
                "sim_ms": round(self.sim, 6), "counters": self.counters}


class LayerTracer:
    """Spans around the layer entry points of one platform."""

    def __init__(self, platform, cpu=time.thread_time):
        #: the CPU clock in seconds; the harness passes one that leaves
        #: out the host-speed sampler's own CPU
        self._cpu = cpu
        self.platform = platform
        self.clock = platform.clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        #: CPU seconds spent in the tracer's own bookkeeping
        self.overhead = 0.0
        self.op = None
        self._installed: dict[str, list[tuple]] = {}

    # -- counters at span boundaries -------------------------------------------

    def counters(self) -> dict[str, float]:
        flat: dict[str, float] = {}
        for key, value in self.platform.metrics_snapshot().items():
            if isinstance(value, dict):
                flat[key + ".count"] = value.get("count", 0)
                flat[key + ".sum"] = value.get("sum", 0)
            elif isinstance(value, (int, float)):
                flat[key] = value
        for db, stats in self.platform.statement_cache_stats().items():
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    flat[f"stmt_cache.{key}{{source={db}}}"] = value
        return flat

    # -- span lifecycle ----------------------------------------------------------

    def new_span(self, name: str) -> Span:
        span = Span(len(self.spans), name,
                    self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        t0 = self._cpu()
        self._detach(span.name)
        span._k0 = self.counters()
        span._sim0 = self.clock.now_ms()
        self.stack.append(span)
        span._wall0 = _wall()
        t1 = self._cpu()
        self.overhead += t1 - t0
        span._cpu0 = t1
        span._over0 = self.overhead

    def exit(self, span: Span) -> float:
        """Close one interval of ``span``; returns its net CPU seconds."""
        t0 = self._cpu()
        wall = _wall() - span._wall0
        inner_overhead = self.overhead - span._over0
        cpu = (t0 - span._cpu0) - inner_overhead
        span.cpu += cpu
        span.wall += wall - inner_overhead
        span.sim += self.clock.now_ms() - span._sim0
        before = span._k0
        for key, value in self.counters().items():
            delta = value - before.get(key, 0)
            if delta:
                span.counters[key] = span.counters.get(key, 0) + delta
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_cpu += cpu
        self._attach(span.name)
        self.overhead += self._cpu() - t0
        return cpu

    # -- installing the wrappers -------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attr, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            if (owner_name, attr) in GENERATORS:
                wrapper = self._wrap_generator(span_name, original)
            else:
                wrapper = self._wrap(span_name, original)
            self._installed.setdefault(span_name, []).append(
                (owner, attr, original, wrapper))
        for definition in self.platform.registry.functions():
            if definition.adaptor is not None and definition.invoke is not None:
                original = definition.invoke
                self._installed.setdefault(SOURCE_SPAN, []).append(
                    (definition, "invoke", original,
                     self._wrap(SOURCE_SPAN, original)))
        for name in self._installed:
            self._attach(name)

    def uninstall(self) -> None:
        for name in self._installed:
            self._detach(name)
        self._installed.clear()

    def _attach(self, name: str) -> None:
        for owner, attr, _original, wrapper in self._installed.get(name, ()):
            setattr(owner, attr, wrapper)

    def _detach(self, name: str) -> None:
        for owner, attr, original, _wrapper in self._installed.get(name, ()):
            setattr(owner, attr, original)

    def _wrap(self, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.new_span(name)
            tracer.enter(span)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(span)

        return traced

    def _wrap_generator(self, name: str, original):
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            span = tracer.new_span(name)
            try:
                while True:
                    tracer.enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(span)
                    yield item
            finally:
                inner.close()

        return traced

    # -- ops ------------------------------------------------------------------------

    def begin_op(self, op_index: int) -> Span:
        self.op = op_index
        span = self.new_span("op.run")
        self.enter(span)
        return span

    def end_op(self, span: Span) -> float:
        cpu = self.exit(span)
        self.op = None
        return cpu

    def write_jsonl(self, path) -> None:
        with open(path, "w") as sink:
            for span in self.spans:
                sink.write(json.dumps(span.to_json()) + "\n")
