#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at tiny input sizes.

    python3 perfbench/selfcheck.py

For every workload it runs one short untraced and one short traced
measurement at a tiny size and checks that:

- the result line carries exactly the metrics BENCHMARK.json names, with the
  units it names, and the outputs pass their checks;
- two untraced runs with the same seed print the same output digest;
- the traced replay matched every untraced operation and recorded time in
  the layers the workload calls.

Last, it checks that the benchmark exits non-zero without printing a result
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "mc-large": {"n": 3000},
    "mc-sweep": {"n": 2000},
    "theory-critical": {"families": (("poisson:2", (1, 2)), ("geometric:0.3", (1,)))},
    "edge-io": {"n": 3000},
}

# Per-layer metrics that must read above zero in each workload's traced run.
EXERCISED = {
    "mc-large": ("degrees.realize_sequence.ms", "configmodel.sample_simple.ms",
                 "percolation.bond_percolate.ms", "components.scc.ms", "configmodel.draws"),
    "mc-sweep": ("configmodel.sample_simple.ms", "percolation.site_percolate.ms",
                 "components.scc.ms", "experiments.summarize.ms", "configmodel.draws"),
    "theory-critical": ("theory.gscc_fraction.ms", "theory.solver_iters"),
    "edge-io": ("configmodel.read_edge_list.ms", "configmodel.write_edge_list.ms",
                "percolation.bond_percolate.ms", "percolation.site_percolate.ms",
                "components.scc.ms", "configmodel.edge_io_mb_per_s"),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selfcheck: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(run.END_TO_END == units(bench["end_to_end"]), "end-to-end metrics differ from BENCHMARK.json")
    check(run.PER_LAYER == units(bench["per_layer"]), "per-layer metrics differ from BENCHMARK.json")

    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    names = [w["name"] for w in bench["workloads"]]
    check(set(names) <= set(workloads.WORKLOADS), "BENCHMARK.json names an unknown workload")
    for name in workloads.WORKLOADS:
        factory, spec = workloads.WORKLOADS[name]
        spec = dataclasses.replace(spec, **TINY[name])
        digests = []
        for trace in (False, False, True):
            report, result = run.measure(name, factory, spec, 1, 1.0, trace)
            expected = run.PER_LAYER if trace else run.END_TO_END
            got = {key: entry["unit"] for key, entry in result["metrics"].items()}
            check(got == expected, f"{name}: metrics {sorted(got)} != {sorted(expected)}")
            check(
                all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()),
                f"{name}: a metric value is not a number",
            )
            check(result["correct"], f"{name}: outputs failed checks: {report['failed_checks']}")
            check(result["attempted"] >= 1, f"{name}: no operation attempted")
            check(not report["trace_warnings"], f"{name}: replay mismatch: {report['trace_warnings']}")
            if trace:
                idle = [m for m in EXERCISED[name] if not result["metrics"][m]["value"] > 0]
                check(not idle, f"{name}: traced run recorded nothing for {idle}")
            digests.append(report["digest"])
        check(len(set(digests)) == 1, f"{name}: digests differ between runs with one seed")
        print(f"selfcheck: {name}: ok")

    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", names[0], "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "benchmark ran without the library sources")
    print("selfcheck: refuses to run without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
