#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

One workload in this process (the form BENCHMARK.json names)::

    python3 perfbench/run.py --workload profile-federation --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the diagnostics (host-speed
reference loop, wall/CPU ratio, per-class percentiles, op digest).

Other modes::

    python3 perfbench/run.py all [--seed N] [--seconds S] [--trace 0|1]
                                 [--repeat R] [--out FILE]
    python3 perfbench/run.py compare BASE.json NEW.json
    python3 perfbench/run.py selfcheck [--seed N] [--passes P]

``all`` runs every workload, each in its own fresh process, ``--repeat``
times with consecutive seeds, prints a table and writes the results to
``--out``.  ``compare`` sets two such files against the bounds in
BENCHMARK.json.  ``selfcheck`` runs each workload twice with one seed and
requires identical op sequences, virtual time and per-layer counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
#: per-layer metrics that must repeat exactly for one seed
DETERMINISTIC_UNITS = {"count", "B"}
DETERMINISTIC_NAMES = {"relational.sim_ms_per_op", "sources.sim_ms_per_op",
                       "services.plan_cache_hit_ratio",
                       "relational.stmt_cache_hit_ratio"}


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {SRC / 'repro'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def pin_hash_seed() -> None:
    """Re-exec under PYTHONHASHSEED=0 so set and dict orders repeat."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  env)


def child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0")


# -- one workload ------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 passes: int | None, spans_out: str | None) -> int:
    import harness
    from tracing import LayerTracer
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"perfbench: unknown workload {name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    ref_start = [harness.reference_work_ms() for _ in range(5)]
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    with harness.HostSpeed() as host:
        runner = harness.Runner(WORKLOADS[name], seed, work_dir, host)
        try:
            runner.setup()
            caught = runner.self_test_oracle()
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            if trace:
                untraced = runner.timed(seconds / 2, passes)
                tracer = LayerTracer(runner.env.platform, host.cpu)
                tracer.install()
                try:
                    phase = runner.timed(seconds / 2, passes, tracer)
                finally:
                    tracer.uninstall()
                metrics = harness.per_layer(tracer, phase, untraced)
                if spans_out:
                    tracer.write_jsonl(spans_out)
                records = untraced.records + phase.records
            else:
                phase = runner.timed(seconds, passes)
                metrics = harness.end_to_end(phase, runner.setup_seconds)
                records = phase.records
            wall_over_cpu = (time.perf_counter() - wall0) / \
                (time.thread_time() - cpu0)
        finally:
            if runner.env is not None:
                runner.env.close()
            shutil.rmtree(work_dir)
            if not any(WORK_DIR.iterdir()):
                WORK_DIR.rmdir()
    workload = runner.workload
    failed = sum(1 for r in records if not r.ok)
    # CPU is read from the main thread's clock: a second thread's work
    # would go unmeasured
    threads = threading.active_count()
    diagnostics = {
        "workload": name, "seed": seed, "trace": int(trace),
        "ref_ms_start": round(statistics.fmean(ref_start), 4),
        "ref_ms_end": round(statistics.fmean(
            harness.reference_work_ms() for _ in range(5)), 4),
        "ref_ms_timed": round(harness.REF_NOMINAL_MS / phase.speed, 4),
        "ref_samples": len(phase.refs),
        "setup_s_all": [round(s, 4) for s in runner.setup_seconds],
        "speed_factor": round(phase.speed, 4),
        "raw_throughput_ops_s": round(phase.raw_throughput, 4),
        "wall_over_cpu": round(wall_over_cpu, 4),
        "passes": phase.passes, "ops_per_pass": len(workload.ops),
        "op_digest": harness.op_digest(workload.ops),
        "sim_ms_per_op": sum(r.sim_ms for r in records) / len(records),
        "oracle_catches_corruption": caught,
        "threads": threads,
        "classes": harness.class_metrics(phase, workload.classes),
    }
    for metric, (value, unit) in metrics.items():
        print(f"{name:20s} {metric:40s} {value:14.6g} {unit}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({
        "correct": bool(caught and failed == 0 and threads == 1),
        "attempted": len(records),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: int,
              passes: int | None = None) -> dict:
    """Run one workload in a fresh process; returns its parsed output."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if passes is not None:
        command += ["--passes", str(passes)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          env=child_env(), timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["diagnostics"] = json.loads(lines[-2].split(" ", 1)[1])
    result["seed"] = seed
    return result


# -- all / compare / selfcheck ---------------------------------------------------------

def workload_names() -> list[str]:
    from workloads import WORKLOADS

    return list(WORKLOADS)


def run_all(args) -> int:
    results: dict[str, list] = {}
    for name in workload_names():
        for offset in range(args.repeat):
            run = run_child(name, args.seed + offset, args.seconds, args.trace)
            results.setdefault(name, []).append(run)
            diag = run["diagnostics"]
            print(f"{name} seed={run['seed']} correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']} "
                  f"ref_ms={diag['ref_ms_start']}/{diag['ref_ms_timed']}/"
                  f"{diag['ref_ms_end']} speed={diag['speed_factor']} "
                  f"wall/cpu={diag['wall_over_cpu']}", flush=True)
    print()
    for name, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"{name:20s} {metric:40s} "
                  f"{statistics.median(values):14.6g} {unit:6s} "
                  f"(median of {len(values)})")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seconds": args.seconds, "trace": args.trace,
            "workloads": results}, indent=1, sort_keys=True) + "\n")
    ok = all(run["correct"] for runs in results.values() for run in runs)
    return 0 if ok else 1


def selfcheck(args) -> int:
    """Same seed twice: op sequence, virtual time and per-layer counts
    must be identical."""
    status = 0
    for name in workload_names():
        first, second = (run_child(name, args.seed, 0, 1, args.passes)
                         for _ in range(2))
        diffs = []
        for key in ("op_digest", "sim_ms_per_op", "passes"):
            if first["diagnostics"][key] != second["diagnostics"][key]:
                diffs.append(key)
        for metric, entry in first["metrics"].items():
            if entry["unit"] in DETERMINISTIC_UNITS or metric in DETERMINISTIC_NAMES:
                if entry["value"] != second["metrics"][metric]["value"]:
                    diffs.append(metric)
        caught = all(run["diagnostics"]["oracle_catches_corruption"]
                     for run in (first, second))
        correct = first["correct"] and second["correct"]
        verdict = "ok" if not diffs and caught and correct else "FAIL"
        print(f"{name:20s} {verdict}: digest={first['diagnostics']['op_digest']} "
              f"sim_ms_per_op={first['diagnostics']['sim_ms_per_op']:.6f} "
              f"oracle_catches_corruption={caught} correct={correct}"
              + (f" differs: {', '.join(diffs)}" if diffs else ""))
        if verdict != "ok":
            status = 1
    return status


def main(argv: list[str]) -> int:
    # a terminated run still removes its work directory and its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    mode = argv[0] if argv and argv[0] in ("all", "compare", "selfcheck") \
        else "run"
    if mode == "compare":
        sys.path.insert(0, str(HERE))
        from compare import main as compare_main

        return compare_main(argv[1:], ROOT / "BENCHMARK.json")
    require_sources()
    pin_hash_seed()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if mode == "run":
        parser.add_argument("--workload", required=True)
        parser.add_argument("--passes", type=int,
                            help="run exactly this many passes instead of "
                                 "measuring for --seconds")
        parser.add_argument("--spans-out",
                            help="write the traced run's spans as JSON lines")
        args = parser.parse_args(argv)
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.passes, args.spans_out)
    if mode == "all":
        parser.add_argument("--repeat", type=int, default=1)
        parser.add_argument("--out")
        return run_all(parser.parse_args(argv[1:]))
    parser.add_argument("--passes", type=int, default=1)
    return selfcheck(parser.parse_args(argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
