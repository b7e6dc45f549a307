"""Seeded Monte Carlo trials over a grid of percolation probabilities.

Each (pi, trial) cell owns an independent Philox stream derived from the
master seed and the cell's indices, so results do not depend on execution
order or the degree of parallelism.  A trial realizes a degree sequence,
samples a uniform simple digraph (loop switchings, then rejection of
repeated edges), percolates it, and measures the largest strongly connected
component.  A trial whose rejection budget is
exhausted is retried with a fresh sub-seed up to three rounds, then recorded
as failed; failed trials are excluded from means but counted in the summary,
never silently dropped.

By default ``elapsed_ms`` is recorded as 0 so that repeated runs with the
same master seed produce byte-identical CSV output; set
``record_timing=True`` to store wall-clock milliseconds instead (at the cost
of that determinism).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .components import strongly_connected_components
from .configmodel import sample_simple
from .degrees import (
    DegreeDistribution,
    DegreeSequence,
    distribution_from_spec,
    realize_sequence,
)
from .errors import (
    AttemptsExhaustedError,
    ConfigError,
    NotGraphicalError,
    RepairFailedError,
)
from .percolation import bond_percolate, site_percolate
from .theory import gscc_fraction

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "run_experiment",
    "summarize",
    "write_csv",
    "write_summary",
    "load_config",
    "config_from_mapping",
    "make_rng",
    "trial_seed",
]

CSV_COLUMNS = (
    "pi",
    "trial",
    "seed",
    "n",
    "m_before",
    "m_after",
    "deleted",
    "scc_size",
    "scc_fraction",
    "attempts",
    "elapsed_ms",
    "status",
)

TRIAL_ROUNDS = 3

# Spawn-key component reserved for the shared sequence of --fixed-sequence
# runs; pi indices are far below it.
_FIXED_SEQUENCE_KEY = 2**32 - 1


@dataclass(frozen=True)
class ExperimentConfig:
    dist: str
    n: int
    pi_grid: tuple[float, ...]
    mode: str = "bond"
    trials: int = 1
    master_seed: int = 0
    max_rejection_attempts: int = 1000
    fixed_sequence: bool = False
    threads: int = 1
    record_timing: bool = False
    csv_path: str | None = None
    summary_path: str | None = None

    def __post_init__(self):
        if self.mode not in ("bond", "site"):
            raise ConfigError(f"mode must be 'bond' or 'site', got {self.mode!r}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.pi_grid:
            raise ConfigError("pi_grid must be nonempty")
        if any(not 0.0 < pi <= 1.0 for pi in self.pi_grid):
            raise ConfigError("pi_grid entries must lie in (0, 1]")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if self.max_rejection_attempts < 1:
            raise ConfigError("max_rejection_attempts must be at least 1")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


@dataclass(frozen=True)
class TrialRecord:
    pi: float
    trial: int
    seed: int
    n: int
    m_before: int
    m_after: int
    deleted: int
    scc_size: int
    scc_fraction: float
    attempts: int
    elapsed_ms: int
    status: str


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one stream (Philox keyed by ``seed``)."""
    return np.random.Generator(np.random.Philox(seed))


def trial_seed(master_seed: int, pi_index: int, trial_index: int, round_index: int = 0) -> int:
    """Derive the 64-bit stream seed for one trial round.

    The derived value alone reproduces the round: ``make_rng(trial_seed(...))``.
    """
    ss = np.random.SeedSequence(
        master_seed, spawn_key=(pi_index, trial_index, round_index)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _fixed_sequence_seed(master_seed: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(_FIXED_SEQUENCE_KEY,))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_trial(
    dist: DegreeDistribution,
    config: ExperimentConfig,
    pi_index: int,
    trial_index: int,
    fixed_seq: DegreeSequence | None,
) -> TrialRecord:
    pi = config.pi_grid[pi_index]
    t0 = time.perf_counter()
    total_attempts = 0
    m_before = m_after = deleted = largest = 0
    status = "failed"
    for round_index in range(TRIAL_ROUNDS):
        seed = trial_seed(config.master_seed, pi_index, trial_index, round_index)
        rng = make_rng(seed)
        try:
            if fixed_seq is not None:
                seq = fixed_seq
            else:
                seq = realize_sequence(dist, config.n, rng)
            graph, attempts = sample_simple(seq, rng, config.max_rejection_attempts)
        except AttemptsExhaustedError as exc:
            total_attempts += exc.attempts
            continue
        except (NotGraphicalError, RepairFailedError):
            continue
        total_attempts += attempts
        if config.mode == "bond":
            outcome = bond_percolate(graph, pi, rng)
        else:
            outcome = site_percolate(graph, pi, rng)
        m_before, m_after = graph.m, outcome.surviving_edges
        deleted = int(outcome.deleted_vertices.size)
        largest = strongly_connected_components(outcome.graph).largest[1]
        status = "ok"
        break
    elapsed = int((time.perf_counter() - t0) * 1000) if config.record_timing else 0
    return TrialRecord(
        pi=pi,
        trial=trial_index,
        seed=seed,
        n=config.n,
        m_before=m_before,
        m_after=m_after,
        deleted=deleted,
        scc_size=largest,
        scc_fraction=largest / config.n,
        attempts=total_attempts,
        elapsed_ms=elapsed,
        status=status,
    )


def run_experiment(
    config: ExperimentConfig, dist: DegreeDistribution | None = None
) -> tuple[list[TrialRecord], list[dict]]:
    """Run all (pi, trial) cells and return (records, per-pi summary).

    Records come back sorted by (pi index, trial index) regardless of
    ``config.threads``.  CSV and JSON files are written when the config
    carries paths for them.
    """
    if dist is None:
        dist = distribution_from_spec(config.dist)
    fixed_seq = None
    if config.fixed_sequence:
        fixed_seq = realize_sequence(
            dist, config.n, make_rng(_fixed_sequence_seed(config.master_seed))
        )
    cells = [
        (pi_index, trial_index)
        for pi_index in range(len(config.pi_grid))
        for trial_index in range(config.trials)
    ]
    if config.threads == 1:
        records = [_run_trial(dist, config, pi, t, fixed_seq) for pi, t in cells]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            futures = [
                pool.submit(_run_trial, dist, config, pi, t, fixed_seq)
                for pi, t in cells
            ]
            records = [f.result() for f in futures]
    summary = summarize(records, dist, config.mode)
    if config.csv_path:
        write_csv(records, config.csv_path)
    if config.summary_path:
        write_summary(summary, config.summary_path)
    return records, summary


def summarize(
    records: Iterable[TrialRecord], dist: DegreeDistribution, mode: str
) -> list[dict]:
    """Per-pi statistics over successful trials plus the theory prediction.

    Sample standard deviation uses ddof=1, reported as 0.0 for a single
    trial.  Entries whose trials all failed report null statistics.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    by_pi: dict[float, list[TrialRecord]] = {}
    for rec in records:
        by_pi.setdefault(rec.pi, []).append(rec)
    rows = []
    for pi, recs in by_pi.items():
        fractions = [r.scc_fraction for r in recs if r.status == "ok"]
        failed = sum(1 for r in recs if r.status != "ok")
        theory = gscc_fraction(dist, pi, mode)
        theory_c = theory.c_bond if mode == "bond" else theory.c_site
        if fractions:
            mean = float(np.mean(fractions))
            std = float(np.std(fractions, ddof=1)) if len(fractions) > 1 else 0.0
            lo, hi = float(min(fractions)), float(max(fractions))
        else:
            mean = std = lo = hi = None
        rows.append(
            {
                "pi": pi,
                "trials_ok": len(fractions),
                "trials_failed": failed,
                "mean": mean,
                "std": std,
                "min": lo,
                "max": hi,
                "theory_c": theory_c,
                "pi_c": theory.pi_c,
            }
        )
    return rows


def write_csv(records: Iterable[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(
                f"{r.pi!r},{r.trial},{r.seed},{r.n},{r.m_before},{r.m_after},"
                f"{r.deleted},{r.scc_size},{r.scc_fraction!r},{r.attempts},"
                f"{r.elapsed_ms},{r.status}\n"
            )


def write_summary(summary: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")


# ----- config files ----------------------------------------------------------

_KEY_ALIASES = {
    "seed": "master_seed",
    "csv": "csv_path",
    "summary": "summary_path",
    "json": "summary_path",
    "max_attempts": "max_rejection_attempts",
}

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(value: str) -> bool:
    try:
        return _BOOL_VALUES[value.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {value!r}") from None


def config_from_mapping(raw: Mapping[str, object], **overrides) -> ExperimentConfig:
    """Build a config from string-valued file entries plus typed overrides."""
    fields: dict[str, object] = {}
    for key, value in raw.items():
        key = _KEY_ALIASES.get(key, key)
        if key == "dist":
            fields[key] = str(value)
        elif key in ("n", "trials", "master_seed", "max_rejection_attempts", "threads"):
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {value!r}") from None
        elif key == "mode":
            fields[key] = str(value)
        elif key == "pi_grid":
            if isinstance(value, str):
                parts = [p for p in value.replace(",", " ").split() if p]
                try:
                    fields[key] = tuple(float(p) for p in parts)
                except ValueError:
                    raise ConfigError(f"bad pi_grid entry in {value!r}") from None
            else:
                fields[key] = tuple(float(p) for p in value)
        elif key in ("fixed_sequence", "record_timing"):
            fields[key] = _parse_bool(value) if isinstance(value, str) else bool(value)
        elif key in ("csv_path", "summary_path"):
            fields[key] = str(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    for key, value in overrides.items():
        if value is not None:
            fields[key] = value
    missing = {"dist", "n", "pi_grid"} - fields.keys()
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(sorted(missing))}")
    return ExperimentConfig(**fields)


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a `key = value` config file (# comments) into an ExperimentConfig."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            raw[key.strip()] = value.strip()
    return config_from_mapping(raw, **overrides)
