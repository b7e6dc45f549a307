"""Benchmark workloads: generated inputs, timed rounds, output checks, traced replays.

A workload builds its inputs from the benchmark seed in ``setup`` and then
runs *rounds*.  A round is the unit the runner times, checks and, in a traced
run, replays: the replay calls the library's public functions in the order
the harness or the CLI calls them, with the same seeds, inside spans, and
compares what it gets with the untraced round.

The library receives only inputs made here; nothing in ``src/`` is changed or
patched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from dipercolate import cli, experiments
from dipercolate.components import strongly_connected_components
from dipercolate.configmodel import (
    read_edge_list,
    sample_simple,
    simple_probability,
    write_edge_list,
)
from dipercolate.degrees import distribution_from_spec, is_graphical, realize_sequence
from dipercolate.errors import (
    AttemptsExhaustedError,
    NotGraphicalError,
    RepairFailedError,
)
from dipercolate.experiments import (
    ExperimentConfig,
    make_rng,
    run_experiment,
    summarize,
    trial_seed,
)
from dipercolate.percolation import bond_percolate, site_percolate
from dipercolate.theory import critical_threshold, gscc_fraction

PERCOLATE = {"bond": bond_percolate, "site": site_percolate}


@dataclass
class Round:
    """What one untraced round did."""

    wall_s: float  # time spent in the library calls of the round
    ops_ms: list[float]  # latency of each operation
    failed: int = 0  # operations whose output failed a check
    known_failed: int = 0  # of those, operations listed as known defects
    problems: list[str] = field(default_factory=list)  # failed checks that are not known defects
    digest: str = ""  # sha256 over the round's outputs
    counts: dict = field(default_factory=dict)  # exact work counts
    payload: object = None  # what the replay compares against


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


# ----- Monte Carlo harness (mc-large, mc-sweep) ------------------------------

MC_DIST = "poisson:2"
# Round r of a run uses master seed seed * MC_SEED_STRIDE + r.
MC_SEED_STRIDE = 100_000
# A per-pi mean fails when it sits further from theory_c than this many
# finite-size standard deviations: sqrt(std^2 / trials + 1 / n).  The 1/n term
# is the spread of the mean of one shared degree sequence, which the trial
# spread does not see; at n = 2e4 observed offsets stay below 2.7 / sqrt(n).
MC_TOL_SIGMAS = 5.0


@dataclass(frozen=True)
class McSpec:
    n: int
    mode: str
    pi_grid: tuple[float, ...]
    trials: int
    fixed_sequence: bool
    threads: int


class McWorkload:
    """``run_experiment`` rounds; one operation is one trial."""

    repeats_inputs = False  # every round draws a new master seed

    def __init__(self, spec: McSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.repair_free: list[bool] = []

    def setup(self) -> None:
        self.dist = distribution_from_spec(MC_DIST)
        mode = self.spec.mode
        self.theory_c = {}
        for pi in self.spec.pi_grid:
            pred = gscc_fraction(self.dist, pi, mode)
            self.theory_c[pi] = pred.c_bond if mode == "bond" else pred.c_site
        self.accept_expected = simple_probability(self.dist, "standard")

    def run_round(self, r: int) -> Round:
        s = self.spec
        config = ExperimentConfig(
            dist=MC_DIST,
            n=s.n,
            pi_grid=s.pi_grid,
            mode=s.mode,
            trials=s.trials,
            master_seed=self.seed * MC_SEED_STRIDE + r,
            fixed_sequence=s.fixed_sequence,
            threads=s.threads,
            record_timing=True,
        )
        t0 = time.perf_counter()
        records, summary = run_experiment(config, self.dist)
        wall = time.perf_counter() - t0
        rnd = Round(wall, [float(rec.elapsed_ms) for rec in records])
        rnd.payload = (config, records, summary)
        for row in summary:
            pi = row["pi"]
            if row["trials_failed"]:
                rnd.failed += row["trials_failed"]
                rnd.problems.append(f"pi={pi}: {row['trials_failed']} trial(s) failed")
            if row["theory_c"] != self.theory_c[pi]:
                rnd.problems.append(f"pi={pi}: theory_c {row['theory_c']!r} != {self.theory_c[pi]!r}")
            if row["trials_ok"]:
                std = row["std"] or 0.0
                tol = MC_TOL_SIGMAS * math.sqrt(std * std / row["trials_ok"] + 1.0 / s.n)
                if abs(row["mean"] - row["theory_c"]) > tol:
                    rnd.failed += row["trials_ok"]
                    rnd.problems.append(
                        f"pi={pi}: mean {row['mean']!r} vs theory_c {row['theory_c']!r}"
                        f" (tolerance {tol:.3g})"
                    )
        rnd.digest = _digest(
            [json.dumps(summary)]
            + [repr(dataclasses.replace(rec, elapsed_ms=0)) for rec in records]
        )
        rnd.counts = {"trials": len(records), "draws": sum(rec.attempts for rec in records)}
        return rnd

    def _realize(self, tracer, op, seed, rng):
        seq = tracer.call("degrees.realize_sequence", op, realize_sequence, self.dist, self.spec.n, rng)
        # Repair-free: the realized sequence is the plain iid draw of the stream.
        ins, outs = self.dist.sample_pairs(self.spec.n, make_rng(seed))
        self.repair_free.append(
            bool(np.array_equal(ins, seq.in_degrees) and np.array_equal(outs, seq.out_degrees))
        )
        return seq

    def _replay_trial(self, tracer, config, r, pi_index, trial, fixed):
        # Mirrors the harness's trial: up to TRIAL_ROUNDS seeds, each running
        # realize -> sample -> percolate -> scc on one stream.  is_graphical is
        # called first so its (cached) cost is not booked to sample_simple.
        op = f"{r}:{pi_index}:{trial}"
        with tracer.span("experiments.trial", op):
            attempts = 0
            for round_index in range(experiments.TRIAL_ROUNDS):
                seed = trial_seed(config.master_seed, pi_index, trial, round_index)
                rng = make_rng(seed)
                try:
                    seq = fixed if fixed is not None else self._realize(tracer, op, seed, rng)
                    tracer.call("degrees.is_graphical", op, is_graphical, seq)
                    graph, used = tracer.call(
                        "configmodel.sample_simple", op, sample_simple,
                        seq, rng, config.max_rejection_attempts,
                    )
                except AttemptsExhaustedError as exc:
                    attempts += exc.attempts
                    continue
                except (NotGraphicalError, RepairFailedError):
                    continue
                attempts += used
                outcome = tracer.call(
                    f"percolation.{config.mode}_percolate", op, PERCOLATE[config.mode],
                    graph, config.pi_grid[pi_index], rng,
                )
                part = tracer.call("components.scc", op, strongly_connected_components, outcome.graph)
                return seed, attempts, outcome.surviving_edges, part.largest[1], "ok"
            return seed, attempts, 0, 0, "failed"

    def replay_round(self, r: int, rnd: Round, tracer) -> list[str]:
        config, records, summary = rnd.payload
        s = self.spec
        op = str(r)
        with tracer.span("experiments.run_experiment", op):
            fixed = None
            if s.fixed_sequence:
                # The harness's shared-sequence seed has no public name.
                seed = experiments._fixed_sequence_seed(config.master_seed)
                fixed = self._realize(tracer, op, seed, make_rng(seed))
            # Trials are replayed one at a time even when the harness runs a
            # thread pool, so experiments.self_ms holds the pool's waiting.
            results = [
                self._replay_trial(tracer, config, r, i, t, fixed)
                for i in range(len(s.pi_grid))
                for t in range(s.trials)
            ]
            again = tracer.call("experiments.summarize", op, summarize, records, self.dist, s.mode)
        warnings = []
        for rec, got in zip(records, results):
            want = (rec.seed, rec.attempts, rec.m_after, rec.scc_size, rec.status)
            if got != want:
                warnings.append(f"round {r} pi={rec.pi} trial {rec.trial}: replay {got} != run {want}")
        if again != summary:
            warnings.append(f"round {r}: replayed summary differs")
        return warnings

    def trace_metrics(self, tracer, rounds: list[Round]) -> dict[str, float]:
        records = [rec for rnd in rounds for rec in rnd.payload[1]]
        draws = sum(rec.attempts for rec in records)
        accepted = sum(rec.status == "ok" for rec in records)
        sample_ms = tracer.self_ms().get("configmodel.sample_simple", 0.0)
        harness_ms = sum(rec.elapsed_ms for rec in records) - tracer.child_ms("experiments.trial")
        return {
            "configmodel.draws": draws,
            "configmodel.draw_ms": sample_ms / draws,
            "configmodel.accept_ratio": accepted / draws,
            "configmodel.accept_ratio_expected": self.accept_expected,
            "degrees.repair_free": sum(self.repair_free),
            "experiments.self_ms": harness_ms / len(records),
        }

    def finish(self, rounds: list[Round]) -> tuple[list[str], int]:
        return [], 0


# ----- generating-function theory (theory-critical) --------------------------

# Far points, plus pi_c * (1 + 10^-k) for each family's exponents k.
THEORY_FAR = (0.8, 1.0)
# Relative error allowed against the closed form.  Today k = 3 reads 1e-6 and
# k = 4 reads 1e-4; the tolerance sits a decade away from both.
THEORY_REL_TOL = 1e-5
# Calls that fail the closed-form check at the time the benchmark was written:
# the fixed-point solver stops on step size, which near pi_c is far below the
# error.  They count as failed operations but do not make the run incorrect.
KNOWN_DEFECTS = {("poisson:2", "k=4")}


def closed_form_c_bond(spec: str, pi: float) -> float:
    """c_bond of the untruncated family, for independent in/out marginals.

    Poisson(lam): s = 1 - x solves s = 1 - exp(-lam*pi*s), c = s^2.
    Geometric(p), P(k) = (1-p)^k p: x = p / ((1-p)*pi), c = (1 - x)^2.
    """
    family, _, arg = spec.partition(":")
    a = float(arg)
    if family == "poisson":
        slope = a * pi
        if slope <= 1.0:
            return 0.0
        # f(s) = s + expm1(-slope*s) is convex, zero at 0 and negative below
        # 2*(slope-1)/slope^2, so (slope-1)/slope^2 brackets the positive root.
        lo = (slope - 1.0) / slope**2
        s = brentq(lambda s: s + math.expm1(-slope * s), lo, 1.0, xtol=1e-300, rtol=1e-15)
        return s * s
    if family == "geometric":
        q_pi = (1.0 - a) * pi
        return ((q_pi - a) / q_pi) ** 2 if q_pi > a else 0.0
    raise ValueError(f"no closed form for {spec!r}")


@dataclass(frozen=True)
class TheorySpec:
    families: tuple[tuple[str, tuple[int, ...]], ...]  # (dist spec, exponents k)


@dataclass(frozen=True)
class TheoryCall:
    spec: str
    label: str
    dist: object
    pi: float
    reference: float


class TheoryWorkload:
    """``gscc_fraction`` in bond mode over a fixed grid; one operation is one call."""

    repeats_inputs = True

    def __init__(self, spec: TheorySpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed

    def setup(self) -> None:
        calls = []
        for spec, ks in self.spec.families:
            dist = distribution_from_spec(spec)
            pi_c = critical_threshold(dist).pi_c
            points = [(f"pi={pi}", pi) for pi in THEORY_FAR]
            points += [(f"k={k}", pi_c * (1.0 + 10.0**-k)) for k in ks]
            for label, pi in points:
                calls.append(TheoryCall(spec, label, dist, pi, closed_form_c_bond(spec, pi)))
        # The grid is fixed; the seed only fixes the call order.
        order = np.random.Generator(np.random.Philox(self.seed)).permutation(len(calls))
        self.calls = [calls[i] for i in order]

    def run_round(self, r: int) -> Round:
        rnd = Round(0.0, [])
        outputs, material = [], []
        rel_errs = []
        for call in self.calls:
            t0 = time.perf_counter()
            pred = gscc_fraction(call.dist, call.pi, "bond")
            dt = time.perf_counter() - t0
            rnd.wall_s += dt
            rnd.ops_ms.append(dt * 1e3)
            outputs.append((pred.c_bond, pred.solver_iters))
            material.append(json.dumps([call.spec, call.label, pred.to_dict()]))
            rel = abs(pred.c_bond - call.reference) / call.reference
            rel_errs.append(rel)
            if not rel <= THEORY_REL_TOL:
                rnd.failed += 1
                if (call.spec, call.label) in KNOWN_DEFECTS:
                    rnd.known_failed += 1
                else:
                    rnd.problems.append(
                        f"{call.spec} {call.label}: c_bond {pred.c_bond!r} vs closed form "
                        f"{call.reference!r} (relative error {rel:.3g})"
                    )
        rnd.digest = _digest(material)
        rnd.counts = {
            "calls": len(self.calls),
            "solver_iters": sum(it for _, it in outputs),
            "rel_err_max": max(rel_errs),
        }
        rnd.payload = outputs
        return rnd

    def replay_round(self, r: int, rnd: Round, tracer) -> list[str]:
        warnings = []
        for i, (call, want) in enumerate(zip(self.calls, rnd.payload)):
            pred = tracer.call("theory.gscc_fraction", f"{r}:{i}", gscc_fraction, call.dist, call.pi, "bond")
            if (pred.c_bond, pred.solver_iters) != want:
                warnings.append(f"round {r} {call.spec} {call.label}: replay differs")
        return warnings

    def trace_metrics(self, tracer, rounds: list[Round]) -> dict[str, float]:
        iters = sum(rnd.counts["solver_iters"] for rnd in rounds)
        return {
            "theory.solver_iters": iters,
            "theory.ms_per_iter": tracer.self_ms().get("theory.gscc_fraction", 0.0) / iters,
        }

    def finish(self, rounds: list[Round]) -> tuple[list[str], int]:
        return [], 0


# ----- edge-list pipeline through the CLI (edge-io) --------------------------


@dataclass(frozen=True)
class EdgeIoSpec:
    n: int
    mean_degree: float
    cases: tuple[tuple[str, float], ...]  # (mode, pi), run in turn within a round


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_edges(path: Path) -> tuple[int, np.ndarray, np.ndarray]:
    """Parse the edge-list format independently of the library's reader."""
    text = path.read_text(encoding="utf-8")
    n = int(re.search(r"n=(\d+)", text.partition("\n")[0]).group(1))
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    flat = np.array(body.split(), dtype=np.int64)
    return n, flat[0::2], flat[1::2]


class EdgeIoWorkload:
    """``dipercolate percolate`` then ``dipercolate scc`` through ``cli.main``.

    One operation is one percolate+scc pair on a fixed graph file.  Every
    round repeats the same cases, so its outputs must repeat byte for byte.
    """

    repeats_inputs = True

    def __init__(self, spec: EdgeIoSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.graph_path = workdir / "edge-io-graph.txt"
        self.case_seeds = [seed * len(spec.cases) + i for i in range(len(spec.cases))]
        self.io_bytes = 0  # edge-list bytes read and written by traced replays

    def setup(self) -> None:
        # A Poisson in/out degree sequence with balanced stub counts, matched
        # uniformly; self-loops and repeated edges are erased.
        n = self.spec.n
        rng = np.random.Generator(np.random.Philox(self.seed))
        ins = rng.poisson(self.spec.mean_degree, n)
        outs = rng.poisson(self.spec.mean_degree, n)
        gap = int(ins.sum() - outs.sum())
        np.add.at(outs if gap > 0 else ins, rng.integers(n, size=abs(gap)), 1)
        src = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), outs))
        dst = np.repeat(np.arange(n, dtype=np.int64), ins)
        self.edge_keys = np.unique((src * n + dst)[src != dst])
        lines = "".join(f"{k // n} {k % n}\n" for k in self.edge_keys.tolist())
        self.graph_path.write_text(f"# n={n} m={self.edge_keys.size} seed={self.seed}\n{lines}")

    def _out_path(self, i: int) -> Path:
        return self.workdir / f"edge-io-case{i}.txt"

    def run_round(self, r: int) -> Round:
        rnd = Round(0.0, [])
        material, outputs = [], []
        for i, ((mode, pi), seed) in enumerate(zip(self.spec.cases, self.case_seeds)):
            out = self._out_path(i)
            t0 = time.perf_counter()
            code_p, _ = _run_cli([
                "percolate", "--graph", str(self.graph_path), "--pi", repr(pi),
                "--mode", mode, "--seed", str(seed), "--out", str(out),
            ])
            code_s, census = _run_cli(["scc", "--graph", str(out)])
            dt = time.perf_counter() - t0
            rnd.wall_s += dt
            rnd.ops_ms.append(dt * 1e3)
            match = re.search(r"largest = (\d+)", census)
            if code_p or code_s or not match:
                rnd.failed += 1
                rnd.problems.append(f"case {i} ({mode}): exit codes {code_p}/{code_s}, census {census!r}")
                outputs.append(None)
                continue
            data = out.read_bytes()
            m_after = int(re.search(rb"m=(\d+)", data.partition(b"\n")[0]).group(1))
            outputs.append((m_after, int(match.group(1))))
            material += [hashlib.sha256(data).hexdigest(), census]
        rnd.digest = _digest(material)
        rnd.counts = {"ops": len(self.spec.cases)}
        rnd.payload = outputs
        return rnd

    def replay_round(self, r: int, rnd: Round, tracer) -> list[str]:
        warnings = []
        for i, ((mode, pi), seed, want) in enumerate(zip(self.spec.cases, self.case_seeds, rnd.payload)):
            op = f"{r}:{i}"
            out = self.workdir / f"edge-io-replay{i}.txt"
            with tracer.span("cli.op", op):
                graph = tracer.call("configmodel.read_edge_list", op, read_edge_list, self.graph_path)
                outcome = tracer.call(f"percolation.{mode}_percolate", op, PERCOLATE[mode], graph, pi, make_rng(seed))
                comment = f"mode={outcome.mode} pi={outcome.pi!r} deleted={outcome.deleted_vertices.size}"
                tracer.call(
                    "configmodel.write_edge_list", op, write_edge_list,
                    outcome.graph, out, seed=seed, comments=[comment],
                )
                again = tracer.call("configmodel.read_edge_list", op, read_edge_list, out)
                part = tracer.call("components.scc", op, strongly_connected_components, again)
            # read: input graph and percolated file; written: percolated file
            self.io_bytes += self.graph_path.stat().st_size + 2 * out.stat().st_size
            got = (outcome.surviving_edges, part.largest[1])
            if got != want:
                warnings.append(f"round {r} case {i}: replay {got} != run {want}")
        return warnings

    def trace_metrics(self, tracer, rounds: list[Round]) -> dict[str, float]:
        self_ms = tracer.self_ms()
        io_ms = self_ms.get("configmodel.read_edge_list", 0.0) + self_ms.get("configmodel.write_edge_list", 0.0)
        ops = sum(len(rnd.ops_ms) for rnd in rounds)
        cli_ms = sum(sum(rnd.ops_ms) for rnd in rounds) - tracer.child_ms("cli.op")
        return {
            "configmodel.edge_io_mb_per_s": self.io_bytes / 1e6 / (io_ms / 1e3),
            "cli.self_ms": cli_ms / ops,
        }

    def finish(self, rounds: list[Round]) -> tuple[list[str], int]:
        """Check each case's output against an independent reference.

        The percolated edges must be a subset of the input graph's, and the
        largest SCC must match networkx's.  A mismatch fails every operation
        of that case.
        """
        import networkx as nx

        problems, failed = [], 0
        reported = rounds[0].payload
        for i, (mode, _) in enumerate(self.spec.cases):
            if reported[i] is None:
                continue
            n, src, dst = _read_edges(self._out_path(i))
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(zip(src.tolist(), dst.tolist()))
            largest = max(len(c) for c in nx.strongly_connected_components(graph))
            subset = n == self.spec.n and bool(np.isin(src * n + dst, self.edge_keys).all())
            if not subset or (src.size, largest) != reported[i]:
                failed += len(rounds)
                problems.append(
                    f"case {i} ({mode}): reference (m={src.size}, largest={largest}, "
                    f"subset={subset}) != reported {reported[i]}"
                )
        return problems, failed


# The benchmark's workloads.  mc-large is runnable by hand but is not in
# BENCHMARK.json: one of its trials takes 1-30 s, so a run of bounded length
# holds too few trials for a steady figure.
WORKLOADS = {
    "mc-large": (McWorkload, McSpec(1_000_000, "bond", (0.8,), 1, False, 1)),
    "mc-sweep": (McWorkload, McSpec(20_000, "site", (0.55, 0.6, 0.7, 0.8, 0.9, 1.0), 4, True, 2)),
    "theory-critical": (
        TheoryWorkload,
        TheorySpec((("poisson:2", (1, 2, 3, 4)), ("geometric:0.3", (1, 2, 3)))),
    ),
    "edge-io": (EdgeIoWorkload, EdgeIoSpec(200_000, 2.0, (("bond", 0.8), ("site", 0.9)))),
}
