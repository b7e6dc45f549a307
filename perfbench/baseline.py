#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json on several seeds and summarize.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 11-20 --out new.json --against perfbench/baseline.json

Each workload runs untraced once per seed and traced once (first seed), each
run in its own process, as ``run.py`` is run by hand.  The summary holds per
workload and end-to-end metric the median, the quartiles and their distance
as a share of the median (the spread BENCHMARK.json's bounds are set
against), the per-layer metrics of the traced run, and every run's output
digest.  With ``--against``, each median is compared with the other
summary's and flagged when it is worse by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", default=None, help="an earlier summary to compare medians with")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    out = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in units}
        entry = {"correct": True, "attempted": [], "failed": [], "digests": {}, "report_metrics": []}
        for seed in seeds:
            report, result = run_once(workload, seed, bench["run_seconds"], 0)
            for name in units:
                values[name].append(result["metrics"][name]["value"])
            entry["correct"] &= result["correct"]
            entry["attempted"].append(result["attempted"])
            entry["failed"].append(result["failed"])
            entry["digests"][str(seed)] = report["digest"]
            entry["report_metrics"].append(report["metrics"])
            out["environment"] = report["environment"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        entry["metrics"] = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
        report, result = run_once(workload, seeds[0], bench["run_seconds"], 1)
        entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["trace_warnings"] = report["trace_warnings"]
        out["workloads"][workload] = entry

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")

    worse = 0
    before = json.loads(open(args.against).read())["workloads"] if args.against else {}
    for m in bench["end_to_end"]:
        for workload, entry in out["workloads"].items():
            stats = entry["metrics"][m["name"]]
            line = f"{workload:16} {m['name']:12} median {stats['median']:.5g} {m['unit']:5} spread {stats['spread']:.3f}"
            if workload in before:
                old = before[workload]["metrics"][m["name"]]["median"]
                change = (stats["median"] - old) / old * (1 if m["better"] == "lower" else -1)
                flag = "WORSE" if change > m["bound"] else "ok"
                worse += flag == "WORSE"
                common = before[workload]["digests"].keys() & entry["digests"].keys()
                same = all(before[workload]["digests"][s] == entry["digests"][s] for s in common)
                line += f" | vs {old:.5g}: {change:+.3f} worse-share {flag}; digests {'same' if same else 'DIFFER'}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
