#!/usr/bin/env python3
"""Benchmark for dipercolate.

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, runs timed rounds for about
``--seconds`` seconds, checks every output, and prints two JSON lines on
stdout: a report (every end-to-end metric with its unit, exact work counts,
an output digest and the machine) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
result's metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` each round is also replayed through the library's public
functions inside spans, and the metrics are the per-layer ones.  Spans are
written to ``perfbench/.work/`` at the end.

The library is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"

# Set-up, including a fresh interpreter's imports, runs this many times per
# run; setup_s reports the median.
SETUP_REPEATS = 5

# End-to-end metrics gated by BENCHMARK.json.  op_p50_ms, op_tail_ms,
# failed_frac and theory_rel_err_max go to the report line only: the first two
# spread too much between runs on a shared machine, the last two are zero or
# missing on some workloads.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Library calls whose time per operation is a per-layer metric.
LAYER_CALLS = (
    "degrees.realize_sequence",
    "degrees.is_graphical",
    "configmodel.sample_simple",
    "configmodel.read_edge_list",
    "configmodel.write_edge_list",
    "percolation.bond_percolate",
    "percolation.site_percolate",
    "components.scc",
    "theory.gscc_fraction",
    "experiments.summarize",
)
PER_LAYER = {f"{name}.ms": "ms" for name in LAYER_CALLS} | {
    "degrees.repair_free": "count",
    "configmodel.draws": "count",
    "configmodel.draw_ms": "ms",
    "configmodel.accept_ratio": "ratio",
    "configmodel.accept_ratio_expected": "ratio",
    "configmodel.edge_io_mb_per_s": "MB/s",
    "theory.solver_iters": "count",
    "theory.ms_per_iter": "ms",
    "experiments.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.ops": "count",
    "trace.overhead_frac": "ratio",
    "trace.warnings": "count",
}

# Percentiles tried for op_tail_ms, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_latency(ops_ms: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(ops_ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "ms", "percentile": pct, "samples": len(ordered)}
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def import_time() -> float:
    """Seconds a fresh interpreter takes to import the library and the workloads."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def measure(name: str, factory, spec, seed: int, seconds: float, trace: bool):
    """Set up, run rounds for about ``seconds``, check; return (report, result)."""
    from tracing import Tracer

    WORKDIR.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = factory(spec, seed, WORKDIR)
        workload.setup()
        built = time.perf_counter() - t0
        setups.append(import_time() + built)

    tracer = Tracer() if trace else None
    rounds, warnings, replay_s = [], [], 0.0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rnd = workload.run_round(len(rounds))
        rounds.append(rnd)
        if tracer:
            t1 = time.perf_counter()
            warnings += workload.replay_round(len(rounds) - 1, rnd, tracer)
            replay_s += time.perf_counter() - t1
        # Stop when another round like this one would pass the deadline.
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [p for rnd in rounds for p in rnd.problems]
    if workload.repeats_inputs:
        problems += [
            f"round {r} output digest differs from round 0"
            for r, rnd in enumerate(rounds)
            if rnd.digest != rounds[0].digest
        ]
    finish_problems, finish_failed = workload.finish(rounds)
    problems += finish_problems

    ops_ms = [x for rnd in rounds for x in rnd.ops_ms]
    wall = sum(rnd.wall_s for rnd in rounds)
    attempted = len(ops_ms)
    failed = sum(rnd.failed for rnd in rounds) + finish_failed
    counts: dict = {}
    for rnd in rounds:
        for key, value in rnd.counts.items():
            counts[key] = max(counts.get(key, value), value) if key.endswith("_max") else counts.get(key, 0) + value

    e2e = {
        "setup_s": statistics.median(setups),
        # Median over rounds: one slow stretch of a shared machine, or one
        # round of unlucky configuration draws, moves it less than a mean.
        "ops_per_s": statistics.median(len(rnd.ops_ms) / rnd.wall_s for rnd in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    report_metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    report_metrics["op_p50_ms"] = {"value": statistics.median(ops_ms), "unit": "ms"}
    report_metrics["failed_frac"] = {
        "value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted,
    }
    tail = tail_latency(ops_ms)
    if tail:
        report_metrics["op_tail_ms"] = tail
    if "rel_err_max" in counts:
        report_metrics["theory_rel_err_max"] = {"value": counts.pop("rel_err_max"), "unit": "ratio"}

    if tracer:
        self_ms = tracer.self_ms()
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update({f"{name}.ms": self_ms.get(name, 0.0) / attempted for name in LAYER_CALLS})
        layer.update(workload.trace_metrics(tracer, rounds))
        layer["trace.ops"] = attempted
        layer["trace.overhead_frac"] = (replay_s - wall) / wall
        layer["trace.warnings"] = len(warnings)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.write(WORKDIR / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = {name: report_metrics[name] for name in END_TO_END}

    report = {
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "round_s": [rnd.wall_s for rnd in rounds],
        "metrics": report_metrics,
        "counts": counts,
        "digest": rounds[0].digest,
        "known_defects_failed": sum(rnd.known_failed for rnd in rounds),
        "failed_checks": problems[:20],
        "trace_warnings": warnings[:20],
        "environment": environment(),
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "dipercolate" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    factory, spec = workloads.WORKLOADS[args.workload]
    report, result = measure(args.workload, factory, spec, args.seed, args.seconds, bool(args.trace))
    report = {"workload": args.workload, **report}
    for name, entry in report["metrics"].items():
        print(f"{args.workload}: {name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    for line in report["failed_checks"] + report["trace_warnings"]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
