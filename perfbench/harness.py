"""Measuring one workload in one process.

Rules (README.md explains why each exists):

* every op is timed with CPU time around the public call; the engine
  runs single-threaded under a virtual clock, so its CPU time is its
  whole cost.  The clock is ``time.thread_time``: with a profiling timer
  armed, Linux reads the process CPU clock only to the scheduler tick,
  while the thread clock stays exact (run.py fails a run that starts a
  thread);
* CPU times are scaled to a nominal host speed measured by a reference
  task that :class:`HostSpeed` runs every 50 ms of process CPU, inside
  ops as well as between them; the task's own CPU is excluded from every
  op, set-up and span;
* one closed-loop client, no threads, no sleeps; the op sequence exists
  before timing starts;
* set-up (data, deployment, sessions, one op of every shape, a full
  collection) is repeated and its median reported as ``setup_s``;
* the timed phase repeats whole passes of the op sequence until the
  measured CPU reaches the requested seconds and at least
  :data:`MIN_OPS` ops ran, so a p90 always has 10 samples beyond it;
* a result that fails its oracle, an error and a shed all count as
  failed ops; a failure never stops the run.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, LayerTracer
from workloads import Env, Workload

#: set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
#: of CPU are spent (at most SETUP_MAX_REPEATS); the median is reported
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0
MIN_OPS = 100
#: host speed is sampled every REF_INTERVAL_S of process CPU; times are
#: reported at the speed where the reference task takes REF_NOMINAL_MS
REF_INTERVAL_S = 0.05
REF_NOMINAL_MS = 1.0
REF_NEIGHBOURS = 2


@dataclass
class OpRecord:
    kind: str
    cpu_ms: float
    sim_ms: float
    ok: bool
    nbytes: int
    #: CPU ms including the tracer's bookkeeping (equal to cpu_ms untraced)
    raw_cpu_ms: float
    #: host-speed samples taken before the op started / before it ended
    samples_before: int
    samples_after: int


@dataclass
class Phase:
    """The ops of one timed phase and the host speed while they ran."""

    records: list[OpRecord]
    passes: int
    #: reference-task CPU ms sampled during the phase
    refs: list[float]
    #: index of the phase's first sample in the run's sample list
    first_sample: int

    @property
    def speed(self) -> float:
        """Multiply a measured CPU time by this to get it at the nominal
        host speed (the phase's average)."""
        return REF_NOMINAL_MS / statistics.fmean(self.refs)

    def scaled_cpu_ms(self) -> list[float]:
        """Each op's CPU ms at nominal host speed, scaled by the samples
        taken while it ran plus REF_NEIGHBOURS on either side."""
        refs, base = self.refs, self.first_sample
        scaled = []
        for r in self.records:
            low = max(0, r.samples_before - base - REF_NEIGHBOURS)
            high = r.samples_after - base + REF_NEIGHBOURS
            scaled.append(r.cpu_ms * REF_NOMINAL_MS
                          / statistics.fmean(refs[low:high]))
        return scaled

    @property
    def raw_throughput(self) -> float:
        return len(self.records) / (sum(r.cpu_ms for r in self.records) / 1e3)


def _rank(count: int, q: float) -> int:
    """The 1-based nearest rank of quantile ``q`` among ``count`` values."""
    return max(1, -(-int(q * 1000) * count // 1000))


def nearest_rank(values: list[float], q: float) -> float:
    return sorted(values)[_rank(len(values), q) - 1]


def percentile_ok(count: int, q: float) -> bool:
    """A percentile is reported only with at least 10 samples beyond it."""
    return count - _rank(count, q) >= 10


class _RefItem:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


def reference_work_ms() -> float:
    """CPU ms of a fixed pure-Python task -- small objects, dicts, string
    formatting, a sort -- that shares no code with the engine.  It slows
    down with the host the way the engine does, so its time is the run's
    yardstick for host speed.  The task runs three times back to back with
    the collector off and the fastest time counts, so a collection or an
    interrupt landing in one repetition does not read as a slow host."""
    best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.thread_time()
            table: dict[str, int] = {}
            rows = []
            for i in range(600):
                item = _RefItem("k%d" % (i % 61), i)
                table[item.key] = table.get(item.key, 0) + item.value
                rows.append((item.key, i & 7))
            rows.sort()
            ",".join(key for key, _ in rows[:120]).split(",")
            best = min(best, time.thread_time() - start)
    finally:
        if collecting:
            gc.enable()
    return best * 1e3


class HostSpeed:
    """Samples the reference task every REF_INTERVAL_S of process CPU.

    A profiling timer (``ITIMER_PROF`` counts the process's CPU time)
    raises ``SIGPROF``; the handler runs the reference task wherever the
    interpreter is, so long ops are sampled while they run.  ``excluded``
    accumulates the handler's CPU seconds; callers subtract its growth
    from every interval they time."""

    def __init__(self):
        self.samples: list[float] = []
        self.excluded = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.thread_time()
        self.samples.append(reference_work_ms())
        self.excluded += time.thread_time() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def cpu(self) -> float:
        """CPU seconds minus those spent sampling.  Re-reads when a sample
        lands between the two reads, which would skew the difference."""
        while True:
            excluded = self.excluded
            now = time.thread_time()
            if excluded == self.excluded:
                return now - excluded

    def mark(self) -> int:
        """Sample now and return the sample's index, to open an interval."""
        self._sample(None, None)
        return len(self.samples) - 1

    def since(self, mark: int) -> list[float]:
        """Sample now and return every sample from ``mark`` on, so even an
        interval shorter than the sampling period has two."""
        self._sample(None, None)
        return self.samples[mark:]


def op_digest(ops: list[tuple]) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()[:16]


class Runner:
    """Set-up, oracle self-test and timed passes for one workload."""

    def __init__(self, workload_class: type[Workload], seed: int,
                 work_dir: Path, host: HostSpeed):
        self.workload_class = workload_class
        self.seed = seed
        self.workload: Workload | None = None
        self.work_dir = work_dir
        self.host = host
        self.env: Env | None = None
        #: CPU seconds of each set-up, scaled to the nominal host speed
        self.setup_seconds: list[float] = []

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Generate the data and ops, build and deploy, warm every op
        shape; repeated, keeping the last federation for the run."""
        while (len(self.setup_seconds) < SETUP_MIN_REPEATS
               or (sum(self.setup_seconds) < SETUP_MIN_SECONDS
                   and len(self.setup_seconds) < SETUP_MAX_REPEATS)):
            if self.env is not None:
                self.env.close()
                self.env = None
                gc.collect()
            mark = self.host.mark()
            start = self.host.cpu()
            workload = self.workload_class(self.seed)
            env = workload.setup(self.work_dir)
            for op in workload.warmup_ops():
                result = workload.run(env, op)
                if not workload.check(env, op, result):
                    raise RuntimeError(f"warm-up op {op!r} failed its check")
            gc.collect()
            spent = self.host.cpu() - start
            speed = REF_NOMINAL_MS / statistics.fmean(self.host.since(mark))
            self.setup_seconds.append(spent * speed)
            self.workload, self.env = workload, env
        # the federation lives for the whole run: keep it out of the
        # collector's way so collections cost the same in every pass
        gc.freeze()

    def self_test_oracle(self) -> bool:
        """Run one op of every shape, corrupt each result and require the
        oracle to reject the corrupted copy."""
        caught = True
        for op in self.workload.warmup_ops():
            if op[0] == "write":
                continue  # a write's check mutates the oracle state
            result = self.workload.run(self.env, op)
            damaged = self.workload.corrupt(result)
            caught &= self._check(op, damaged) is False
        write = next((op for op in self.workload.warmup_ops()
                      if op[0] == "write"), None)
        if write is not None:
            result = self.workload.run(self.env, write)
            caught &= self._check(write, self.workload.corrupt(result)) is False
            # the source now holds the uncorrupted name: resync the oracle
            caught &= self._check(write, result) is True
        return caught

    # -- timed passes -----------------------------------------------------------

    def _check(self, op: tuple, result) -> bool:
        try:
            return bool(self.workload.check(self.env, op, result))
        except Exception:  # a malformed result fails its check
            return False

    def run_op(self, op: tuple, tracer: LayerTracer | None,
               index: int) -> OpRecord:
        clock = self.env.platform.clock
        before = len(self.host.samples)
        span = tracer.begin_op(index) if tracer else None
        sim0 = clock.now_ms()
        cpu0 = self.host.cpu()
        try:
            result = self.workload.run(self.env, op)
            error = False
        except Exception:
            result, error = None, True
        sim = clock.now_ms() - sim0
        raw = cpu = self.host.cpu() - cpu0
        if span is not None:
            cpu = tracer.end_op(span)
            raw = self.host.cpu() - cpu0
        after = len(self.host.samples)
        ok = not error and self._check(op, result)
        return OpRecord(op[0], cpu * 1e3, sim, ok,
                        self.workload.result_bytes(result), raw * 1e3,
                        before, after)

    def timed(self, seconds: float, passes: int | None = None,
              tracer: LayerTracer | None = None) -> Phase:
        """Whole passes until ``seconds`` of op CPU at nominal host speed
        (the tracer's bookkeeping included) and MIN_OPS ops, or exactly
        ``passes`` passes.  Counting nominal rather than measured CPU keeps
        the amount of work in a run independent of host drift."""
        records: list[OpRecord] = []
        samples = self.host.samples
        mark = self.host.mark()
        spent = 0.0
        done = 0
        while True:
            if passes is not None and done >= passes:
                break
            if passes is None and spent >= seconds and len(records) >= MIN_OPS:
                break
            for op in self.workload.ops:
                record = self.run_op(op, tracer, len(records))
                records.append(record)
                recent = samples[-2 * REF_NEIGHBOURS - 1:]
                spent += record.raw_cpu_ms / 1e3 * REF_NOMINAL_MS \
                    / statistics.fmean(recent)
            done += 1
        return Phase(records, done, self.host.since(mark), mark)


# -- metrics ------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: Phase, setup_seconds: list[float]) -> dict:
    records = phase.records
    cpu = phase.scaled_cpu_ms()
    failed = sum(1 for r in records if not r.ok)
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "throughput_ops_s": (len(records) / (sum(cpu) / 1e3), "1/s"),
        "latency_p50_ms": (nearest_rank(cpu, 0.5), "ms"),
        "latency_p90_ms": (nearest_rank(cpu, 0.9), "ms"),
        "sim_ms_per_op": (sum(r.sim_ms for r in records) / len(records), "ms"),
        "ok_frac": ((len(records) - failed) / len(records), "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def class_metrics(phase: Phase, classes: tuple[str, ...]) -> dict:
    """Per op-class percentiles, reported where enough samples exist."""
    out = {}
    scaled = phase.scaled_cpu_ms()
    for kind in classes:
        cpu = [ms for r, ms in zip(phase.records, scaled) if r.kind == kind]
        out[f"{kind}_ops"] = len(cpu)
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            if cpu and percentile_ok(len(cpu), q):
                out[f"{kind}_{label}_ms"] = round(nearest_rank(cpu, q), 4)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: LayerTracer, phase: Phase, untraced: Phase) -> dict:
    """Every per-layer metric from the traced phase's spans.  CPU times
    are scaled to the nominal host speed by the phase's average speed."""
    records = phase.records
    n = len(records)
    writes = sum(1 for r in records if r.kind == "write")
    by_name: dict[str, list] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    op_cpu = unattributed = 0.0
    counts: dict[str, float] = {}
    for span in tracer.spans:
        entry = by_name.setdefault(span.name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.cpu
        entry[2] += span.self_cpu
        entry[3] += span.sim
        if span.name == "op.run":
            op_cpu += span.cpu
            unattributed += span.self_cpu
            for key, value in span.counters.items():
                counts[key] = counts.get(key, 0) + value
        elif span.layer in layer_self:
            layer_self[span.layer] += span.self_cpu

    def calls(name):
        return by_name.get(name, [0])[0]

    scale = 1e3 * phase.speed

    def cpu_ms(name):
        return by_name.get(name, [0, 0.0])[1] * scale

    def self_ms(*names):
        return sum(by_name.get(name, [0, 0.0, 0.0])[2] for name in names) * scale

    def sim(name):
        return by_name.get(name, [0, 0.0, 0.0, 0.0])[3]

    def total(prefix):
        return sum(v for k, v in counts.items() if k.startswith(prefix))

    compiles = calls("compiler.compile")
    requests = calls("server.request")
    roundtrips = total("source.roundtrips{")
    rows = total("source.rows_shipped{")
    relational_ms = layer_self["relational"] * scale
    plan_hits, plan_misses = counts.get("plan_cache.hits", 0), \
        counts.get("plan_cache.misses", 0)
    stmt_hits, stmt_misses = total("stmt_cache.hits{"), total("stmt_cache.misses{")
    traced_tput = _ratio(n, sum(r.raw_cpu_ms for r in records) / 1e3) \
        / phase.speed
    untraced_tput = untraced.raw_throughput / untraced.speed
    metrics = {
        "compiler.compiles_per_op": (compiles / n, "count"),
        "compiler.cpu_ms_per_compile": (_ratio(cpu_ms("compiler.compile"), compiles), "ms"),
    }
    for phase in ("parse", "normalize", "typecheck", "optimize", "push_sql",
                  "costing", "verify"):
        metrics[f"compiler.{phase}_ms"] = (
            _ratio(cpu_ms(f"compiler.{phase}"), compiles), "ms")
    metrics.update({
        "services.plan_cache_hit_ratio": (_ratio(plan_hits, plan_hits + plan_misses), "frac"),
        "relational.stmt_cache_hit_ratio": (_ratio(stmt_hits, stmt_hits + stmt_misses), "frac"),
        "server.self_cpu_ms_per_request": (_ratio(self_ms("server.request"), requests), "ms"),
        "server.admit_cpu_ms": (_ratio(cpu_ms("server.admit"), requests), "ms"),
        "server.estimate_cost_cpu_ms": (_ratio(cpu_ms("server.estimate_cost"), requests), "ms"),
        "server.flight_record_cpu_ms": (_ratio(cpu_ms("server.flight_record"), requests), "ms"),
        "observability.cpu_ms_per_request": (_ratio(
            cpu_ms("observability.begin") + cpu_ms("observability.end"), requests), "ms"),
        "security.filter_cpu_ms_per_op": (cpu_ms("security.filter") / n, "ms"),
        "relational.cpu_ms_per_op": (relational_ms / n, "ms"),
        "relational.cpu_ms_per_roundtrip": (_ratio(relational_ms, roundtrips), "ms"),
        "relational.cpu_us_per_row_shipped": (_ratio(relational_ms * 1e3, rows), "us"),
        "relational.roundtrips_per_op": (roundtrips / n, "count"),
        "relational.rows_shipped_per_op": (rows / n, "count"),
        "relational.sim_ms_per_op": ((sim("relational.query") + sim("relational.dml")
                                      + sim("relational.commit")) / n, "ms"),
        "sources.calls_per_op": (calls("sources.invoke") / n, "count"),
        "sources.sim_ms_per_op": (sim("sources.invoke") / n, "ms"),
        "sources.cpu_ms_per_op": (layer_self["sources"] * scale / n, "ms"),
        "runtime.ppk_blocks_per_op": (counts.get("runtime.ppk_blocks", 0) / n, "count"),
        "runtime.self_cpu_ms_per_op": (layer_self["runtime"] * scale / n, "ms"),
        "runtime.tuples_flowed_per_op": (counts.get("runtime.tuples_flowed", 0) / n, "count"),
        "runtime.join_probes_per_op": (counts.get("runtime.middleware_join_probes", 0) / n, "count"),
        "relational.dml_cpu_ms_per_write": (_ratio(self_ms("relational.dml", "relational.commit"), writes), "ms"),
        "sdo.read_for_update_cpu_ms": (_ratio(cpu_ms("sdo.read_for_update"), writes), "ms"),
        "sdo.submit_cpu_ms": (_ratio(cpu_ms("sdo.submit"), writes), "ms"),
        "sdo.statements_per_write": (_ratio(calls("relational.dml"), writes), "count"),
        "xml.serialize_cpu_ms_per_op": (cpu_ms("xml.serialize") / n, "ms"),
        "xml.bytes_per_op": (sum(r.nbytes for r in records) / n, "B"),
        "services.self_cpu_ms_per_op": (self_ms("services.call", "services.execute",
                                                "services.prepare") / n, "ms"),
        "trace.op_cpu_ms": (op_cpu * scale / n, "ms"),
        "trace.unattributed_cpu_ms_per_op": (unattributed * scale / n, "ms"),
        "trace.overhead_frac": (1.0 - _ratio(traced_tput, untraced_tput), "frac"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.cpu_share"] = (_ratio(layer_self[layer], op_cpu), "frac")
    return metrics
