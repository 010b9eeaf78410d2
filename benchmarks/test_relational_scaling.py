"""Relational access-path scaling: ``getProfile`` at 50 / 200 / 800 customers.

The running example scans CUSTOMER once and joins ORDER and CREDIT_CARD
through PP-k blocks of 20 keys each.  The simulated sources answer each
block's OR-of-equalities from a hash index, so the rows they *examine*
grow with the rows they *ship* — linearly in the customer count — and a
PP-k block costs its matches, not a table scan.  (Before index access
paths every block scanned the whole table, which made source CPU grow
with customers² while virtual time grew linearly.)

For each scale the run records, for one warmed ``getProfile()`` call:

* ``cpu_ms`` — process CPU time, best of three, each after a full
  collection (what this Python engine costs, the cycle collector's share
  included; recorded, not gated — host speed and heap size move it);
* ``virtual_ms`` — virtual-clock time (the paper's economics);
* ``rows_examined`` / ``rows_shipped`` / ``roundtrips`` — deterministic
  source counters.

and fits a scaling exponent per column (least-squares slope of log value
on log customers).  The gate is on the deterministic rows-examined
exponent only (≤ 1.1).  Results land in ``BENCH_relational.json``.
"""

from __future__ import annotations

import gc
import json
import math
import time
from pathlib import Path

from repro.demo import build_demo_platform

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_relational.json"

SCALES = [50, 200, 800]
REPEATS = 3
QUERY = "getProfile()"
#: the deterministic gate: source work grows (about) linearly with data
MAX_ROWS_EXAMINED_EXPONENT = 1.1


def _source_totals(platform) -> dict[str, int]:
    snapshot = platform.metrics_snapshot()
    totals = {"rows_examined": 0, "rows_shipped": 0, "roundtrips": 0}
    for key, value in snapshot.items():
        for counter in totals:
            if key.startswith(f"source.{counter}{{"):
                totals[counter] += value
    return totals


def _measure(customers: int) -> dict:
    platform = build_demo_platform(customers=customers)
    platform.execute(QUERY)  # warm: plans, prepared statements, indexes
    cpu = []
    for _ in range(REPEATS):
        gc.collect()  # garbage from earlier runs is not this run's cost
        platform.reset_stats()
        start_virtual = platform.clock.now_ms()
        start_cpu = time.process_time()
        result = platform.execute(QUERY)
        cpu.append((time.process_time() - start_cpu) * 1000.0)
        virtual_ms = platform.clock.now_ms() - start_virtual
        totals = _source_totals(platform)
    assert len(result) == customers
    return {"customers": customers, "cpu_ms": round(min(cpu), 3),
            "virtual_ms": round(virtual_ms, 3), **totals}


def _exponent(points: list[tuple[int, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return round(slope, 3)


def test_relational_scaling(report):
    rows = [_measure(customers) for customers in SCALES]
    columns = ("cpu_ms", "virtual_ms", "rows_examined", "rows_shipped", "roundtrips")
    exponents = {column: _exponent([(r["customers"], r[column]) for r in rows])
                 for column in columns}
    BENCH_FILE.write_text(json.dumps({
        "query": QUERY,
        "scales": rows,
        "exponents": exponents,
        "gates": {"rows_examined_exponent_max": MAX_ROWS_EXAMINED_EXPONENT},
        "note": "cpu_ms: best-of-3 process CPU time of the machine that ran the benchmark; ungated",
    }, indent=2) + "\n")

    lines = [f"{'customers':>9} {'cpu ms':>9} {'virtual ms':>11} "
             f"{'examined':>9} {'shipped':>8} {'roundtrips':>10}"]
    for r in rows:
        lines.append(f"{r['customers']:>9} {r['cpu_ms']:>9.1f} {r['virtual_ms']:>11.1f} "
                     f"{r['rows_examined']:>9} {r['rows_shipped']:>8} {r['roundtrips']:>10}")
    lines.append("scaling exponents: " + ", ".join(
        f"{column}={value:g}" for column, value in exponents.items()))
    report("relational access paths: getProfile scaling", lines)

    # Deterministic counters only: an index probe examines its matches, so
    # source work tracks rows shipped instead of rows × blocks.
    assert exponents["rows_examined"] <= MAX_ROWS_EXAMINED_EXPONENT
    for r in rows:
        assert r["rows_examined"] <= 2 * r["rows_shipped"]
