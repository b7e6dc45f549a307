"""Seeded Monte Carlo trials over a grid of percolation probabilities.

Each trial owns an independent Philox stream derived from the master seed and
the trial's index, so results do not depend on execution order or the degree
of parallelism.  A trial realizes a degree sequence, samples a uniform simple
digraph (loops and doubled edges are switched out; a draw is redrawn only
after a rejected switching, a passed cap or a triple edge), percolates that
one graph at every pi of the grid from one uniform draw, and measures the
largest strongly connected component at each pi, from the largest pi down,
each pi searching only inside the strong components of the one before.  A
trial's rows are thus nested in pi, while trials stay independent.  A trial
whose rejection budget is exhausted is retried with a fresh sub-seed up to
three rounds, then recorded as failed at every pi; failed rows are excluded
from means but counted in the summary, never silently dropped.

By default ``elapsed_ms`` is recorded as 0 so that repeated runs with the
same master seed produce byte-identical CSV output; set
``record_timing=True`` to store wall-clock milliseconds instead (at the cost
of that determinism).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, astuple, dataclass, fields
from typing import Iterable, Mapping

import numpy as np

from .configmodel import sample_simple
from .degrees import (
    DegreeDistribution,
    DegreeSequence,
    distribution_from_spec,
    is_graphical,
    realize_sequence,
    require_balanceable,
    require_simple_support,
)
from .errors import (
    AttemptsExhaustedError,
    ConfigError,
    NotGraphicalError,
    RepairFailedError,
)
from .percolation import PERCOLATE, percolate_grid
from .theory import critical_threshold, gscc_fraction

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

TRIAL_ROUNDS = 3

# Spawn-key component reserved for the shared sequence of --fixed-sequence
# runs; the trials' streams use spawn keys (0, trial, round).
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
        if self.mode not in PERCOLATE:
            raise ConfigError(f"mode must be {' or '.join(map(repr, PERCOLATE))}, got {self.mode!r}")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.pi_grid:
            raise ConfigError("pi_grid must be nonempty")
        if any(not 0.0 < pi <= 1.0 for pi in self.pi_grid):
            raise ConfigError("pi_grid entries must lie in (0, 1]")
        if len(set(self.pi_grid)) < len(self.pi_grid):
            raise ConfigError(f"pi_grid {self.pi_grid} repeats a value; records are keyed by pi")
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


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one stream (Philox keyed by ``seed``)."""
    return np.random.Generator(np.random.Philox(seed))


def trial_seed(master_seed: int, pi_index: int, trial_index: int, round_index: int = 0) -> int:
    """Derive the 64-bit stream seed for one trial round.

    The derived value alone reproduces the round: ``make_rng(trial_seed(...))``.
    :func:`run_experiment` takes every trial's stream at ``pi_index`` 0, since
    one stream serves the trial's whole grid.
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
    trial_index: int,
    fixed_seq: DegreeSequence | None,
) -> list[TrialRecord]:
    """The trial's record at each pi of the grid, in grid order.

    :func:`percolate_grid` measures the grid from the largest pi down, and
    ``elapsed_ms`` is booked in that order: a row's runs from the end of the
    next larger pi's row (the largest pi's: from the trial's start, so it
    carries the sampling) to the end of its SCC.
    """
    start = time.perf_counter()
    total_attempts = 0
    graph = None
    for round_index in range(TRIAL_ROUNDS):
        seed = trial_seed(config.master_seed, 0, trial_index, round_index)
        rng = make_rng(seed)
        try:
            seq = realize_sequence(dist, config.n, rng) if fixed_seq is None else fixed_seq
            graph, attempts = sample_simple(seq, rng, config.max_rejection_attempts)
        except AttemptsExhaustedError as exc:
            total_attempts += exc.attempts
            continue
        except (NotGraphicalError, RepairFailedError):
            continue
        total_attempts += attempts
        break
    if graph is None:
        m_before, status, points = 0, "failed", [(None, 0, 0, 0)] * len(config.pi_grid)
    else:
        m_before, status = graph.m, "ok"
        points = percolate_grid(graph, config.mode, config.pi_grid, rng)
    records = {}
    booked_ms = 0
    for pi, (_, m_after, deleted, largest) in zip(sorted(config.pi_grid, reverse=True), points):
        elapsed = 0
        if config.record_timing:
            # whole milliseconds since the start, less those already booked
            elapsed = int((time.perf_counter() - start) * 1000) - booked_ms
            booked_ms += elapsed
        records[pi] = TrialRecord(
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
    return [records[pi] for pi in config.pi_grid]


def run_experiment(
    config: ExperimentConfig, dist: DegreeDistribution | None = None
) -> tuple[list[TrialRecord], list[dict]]:
    """Run every trial over the whole pi grid and return (records, per-pi summary).

    Records come back sorted by (pi index, trial index) regardless of
    ``config.threads``.  CSV and JSON files are written when the config
    carries paths for them.  Before any trial, :class:`RepairFailedError` is
    raised if the degree sums can never balance at n,
    :class:`NotGraphicalError` if every support point has a degree of n or
    more, or if a fixed sequence is not graphical, the error of
    :func:`~dipercolate.theory.critical_threshold` if the theory column is
    undefined, and :class:`OSError` if an output path cannot be opened.
    """
    if dist is None:
        dist = distribution_from_spec(config.dist)
    require_balanceable(dist, config.n)
    require_simple_support(dist, config.n)
    critical_threshold(dist)
    fixed_seq = None
    if config.fixed_sequence:
        fixed_seq = realize_sequence(
            dist, config.n, make_rng(_fixed_sequence_seed(config.master_seed))
        )
        if not is_graphical(fixed_seq):
            raise NotGraphicalError(f"the shared degree sequence is not graphical: {fixed_seq!r}")
    with claim_outputs(config.csv_path, config.summary_path):
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            trials = list(
                pool.map(lambda t: _run_trial(dist, config, t, fixed_seq), range(config.trials))
            )
        records = [rec for pi_rows in zip(*trials) for rec in pi_rows]
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


@contextlib.contextmanager
def claim_outputs(*paths):
    """Open each output path that is not None before the ``with`` body does
    the work.  An existing file keeps its bytes; if an open or the body fails,
    the files created here are removed before the error propagates."""
    created = [path for path in filter(None, paths) if not os.path.exists(path)]
    try:
        for path in filter(None, paths):
            open(path, "a").close()
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def write_csv(records: Iterable[TrialRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(map(str, astuple(r))) + "\n")


def write_summary(summary: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")


# ----- config files and flags -----------------------------------------------

_COMMENT = re.compile(r"(?:^|\s)#")  # a value such as run#1.csv keeps its '#'
_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    return _BOOL_VALUES[text.strip().lower()]


def parse_pi_grid(text: str) -> tuple[float, ...]:
    """Parse pi values separated by commas, whitespace or both."""
    try:
        return tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"bad pi_grid entry in {text!r}") from None


# One row per config-file key (the README lists them, each with its
# ``experiment`` flag): key -> (ExperimentConfig field, parser of the text).
CONFIG_KEYS = {
    "dist": ("dist", str),
    "n": ("n", int),
    "mode": ("mode", str),
    "pi_grid": ("pi_grid", parse_pi_grid),
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "max_attempts": ("max_rejection_attempts", int),
    "fixed_sequence": ("fixed_sequence", _parse_bool),
    "record_timing": ("record_timing", _parse_bool),
    "threads": ("threads", int),
    "csv": ("csv_path", str),
    "json": ("summary_path", str),
}


def config_from_mapping(raw: Mapping[str, str], **overrides) -> ExperimentConfig:
    """Build a config from text values under ``CONFIG_KEYS`` names, then apply
    the typed ``ExperimentConfig`` field ``overrides`` that are not ``None``."""
    values: dict[str, object] = {}
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field, parse = CONFIG_KEYS[key]
        try:
            values[field] = parse(text)
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for {key}: {text!r}") from None
    values.update((field, v) for field, v in overrides.items() if v is not None)
    required = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
    missing = [name for name in required if name not in values]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a `key = value` config file into an ExperimentConfig; a ``#`` at
    the start of a line or after whitespace starts a comment."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = _COMMENT.split(line, 1)[0].strip()
            if not stripped:
                continue
            key, sep, value = (part.strip() for part in stripped.partition("="))
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
            raw[key] = value
    return config_from_mapping(raw, **overrides)
