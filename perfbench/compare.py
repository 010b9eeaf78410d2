"""Compare two result files written by ``run.py all --out``.

For every workload and every end-to-end metric: each side's median, the
change in the metric's "worse" direction as a share of the base median,
and each side's run-to-run spread (interquartile range over median).  A
change beyond the metric's bound from BENCHMARK.json is ``worse``; where
either spread exceeds the bound the metric is ``unresolved`` unless every
new run beats every base run.  Per-layer counts, when both files hold a
traced run, are listed only where they changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median) if median else None


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (new_median - base_median) / abs(base_median) \
        if base_median else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    spreads = [spread(base), spread(new)]
    if any(s is None for s in spreads):
        return ("better" if all_better else "unresolved"), change
    if max(spreads) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def main(argv: list[str], benchmark_file: Path) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    spec = json.loads(benchmark_file.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = (json.loads(Path(p).read_text())["workloads"] for p in argv)
    regressions = 0
    for name in sorted(set(base) & set(new)):
        cells = []
        for metric, rule in bounds.items():
            base_values = [r["metrics"][metric]["value"] for r in base[name]
                           if metric in r["metrics"]]
            new_values = [r["metrics"][metric]["value"] for r in new[name]
                          if metric in r["metrics"]]
            if not base_values or not new_values:
                continue
            state, change = verdict(base_values, new_values, rule["bound"],
                                    rule["better"] == "lower")
            regressions += state == "worse"
            cells.append(f"{metric}={statistics.median(base_values):.4g}->"
                         f"{statistics.median(new_values):.4g} "
                         f"({change:+.1%} worse-ward, {state})")
        changed = []
        for metric, entry in base[name][0]["metrics"].items():
            if metric in bounds or entry["unit"] not in ("count", "B"):
                continue
            after = new[name][0]["metrics"].get(metric)
            if after is not None and after["value"] != entry["value"]:
                changed.append(f"{metric} {entry['value']:.6g}->"
                               f"{after['value']:.6g}")
        print(f"{name}: " + "; ".join(cells))
        if changed:
            print(f"{name}: per-layer counts changed: " + "; ".join(changed))
    return 1 if regressions else 0
