import hashlib
import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dipercolate import (
    DegreeDistribution,
    ExperimentConfig,
    TrialRecord,
    gscc_fraction,
    load_config,
    run_experiment,
    summarize,
    trial_seed,
    write_csv,
)
from dipercolate import degrees, experiments
from dipercolate.errors import ConfigError, NotGraphicalError, RepairFailedError, ZeroMu11Error
from dipercolate.experiments import CSV_COLUMNS, config_from_mapping


def small_config(**kwargs):
    base = dict(
        dist="poisson:2",
        n=300,
        pi_grid=(0.9, 0.3),
        mode="bond",
        trials=3,
        master_seed=42,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


# ----- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(mode="both")
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(pi_grid=())
    with pytest.raises(ConfigError):
        small_config(pi_grid=(0.0, 0.5))
    with pytest.raises(ConfigError, match="repeats a value"):
        small_config(pi_grid=(0.9, 0.3, 0.9))
    with pytest.raises(ConfigError):
        small_config(n=0)
    with pytest.raises(ConfigError):
        small_config(threads=0)
    with pytest.raises(ConfigError):
        small_config(master_seed=-1)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "dist = poisson:2\n"
        "n = 500\n"
        "mode = site\n"
        "pi_grid = 0.4, 0.8\n"
        "trials = 2\n"
        "seed = 7\n"
        "max_attempts = 500\n"
        "fixed_sequence = true\n"
        "threads = 2\n"
        "csv = out.csv\n"
        "json = out.json\n"
    )
    config = load_config(path)
    assert config.dist == "poisson:2"
    assert config.n == 500
    assert config.mode == "site"
    assert config.pi_grid == (0.4, 0.8)
    assert config.trials == 2
    assert config.master_seed == 7
    assert config.max_rejection_attempts == 500
    assert config.fixed_sequence is True
    assert config.threads == 2
    assert config.csv_path == "out.csv"
    assert config.summary_path == "out.json"


def test_config_file_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dist = poisson:2\nn = 500\npi_grid = 0.5\n")
    config = load_config(path, n=100, trials=4)
    assert config.n == 100 and config.trials == 4


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dist poisson:2\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("frobnicate = 3\ndist = const:1\nn = 4\npi_grid = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("dist = const:1\nn = four\npi_grid = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("dist = const:1\nn = 4\npi_grid = 0.5\nfixed_sequence = maybe\n")
    with pytest.raises(ConfigError, match="bad value for fixed_sequence"):
        load_config(path)
    with pytest.raises(ConfigError, match="missing config keys: n, pi_grid"):
        config_from_mapping({"dist": "const:1"})


def test_config_file_repeated_key_names_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dist = const:1\nn = 50\n# n = 55\nn = 60\npi_grid = 0.5\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:4: repeated config key 'n'"):
        load_config(path)


# a made-up name, then the alternative names that earlier versions accepted
@pytest.mark.parametrize(
    "key",
    ["frobnicate", "master_seed", "max_rejection_attempts", "csv_path", "summary_path", "summary"],
)
def test_config_unknown_key_names_line(tmp_path, key):
    path = tmp_path / "exp.cfg"
    path.write_text(f"dist = const:1\nn = 4\n{key} = 3\npi_grid = 0.5\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:3: unknown config key '{key}'"):
        load_config(path)
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        config_from_mapping({"dist": "const:1", "n": "4", "pi_grid": "0.5", key: "3"})


def test_config_hash_inside_a_value_is_kept(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# a sweep\ndist = const:1\nn = 5  # note\npi_grid = 0.5\t# one pi\ncsv = run#1.csv\n"
    )
    config = load_config(path)
    assert (config.n, config.pi_grid, config.csv_path) == (5, (0.5,), "run#1.csv")


# ----- seeding -----------------------------------------------------------------


def test_trial_seeds_distinct_and_stable():
    seeds = {
        trial_seed(1, pi, t, r) for pi in range(3) for t in range(5) for r in range(3)
    }
    assert len(seeds) == 45
    assert trial_seed(1, 2, 3, 0) == trial_seed(1, 2, 3, 0)
    assert trial_seed(1, 2, 3, 0) != trial_seed(2, 2, 3, 0)


# ----- running ------------------------------------------------------------------


def test_run_deterministic_and_order_sorted():
    records_a, summary_a = run_experiment(small_config())
    records_b, summary_b = run_experiment(small_config())
    assert records_a == records_b
    assert summary_a == summary_b
    pis = [r.pi for r in records_a]
    assert pis == [0.9] * 3 + [0.3] * 3
    assert [r.trial for r in records_a] == [0, 1, 2, 0, 1, 2]


def test_threads_do_not_change_results():
    serial, _ = run_experiment(small_config())
    threaded, _ = run_experiment(small_config(threads=4))
    assert serial == threaded


def test_fixed_sequence_shares_realization():
    records, _ = run_experiment(small_config(fixed_sequence=True))
    assert len({r.m_before for r in records}) == 1


def test_trial_graph_passed_simplicity_and_fields():
    records, _ = run_experiment(small_config())
    for r in records:
        assert r.status == "ok"
        assert r.n == 300
        assert 0 < r.scc_fraction <= 1.0
        assert r.scc_size == round(r.scc_fraction * r.n)
        assert r.m_after <= r.m_before
        assert r.deleted == 0  # bond mode
        assert r.attempts >= 1
        assert r.elapsed_ms == 0  # timing suppressed by default


def test_site_mode_records_deletions():
    records, _ = run_experiment(small_config(mode="site", pi_grid=(0.5,), trials=2))
    assert any(r.deleted > 0 for r in records)


def test_record_timing_opt_in():
    records, _ = run_experiment(small_config(trials=1, pi_grid=(0.9,), record_timing=True))
    assert all(r.elapsed_ms >= 0 for r in records)


def test_supercritical_beats_subcritical():
    # coarse physical sanity at small n: fractions at pi=0.9 dominate pi=0.3
    records, summary = run_experiment(small_config())
    by_pi = {row["pi"]: row for row in summary}
    assert by_pi[0.9]["mean"] > by_pi[0.3]["mean"]
    assert by_pi[0.9]["pi_c"] == pytest.approx(0.5, abs=1e-9)


def failing_config(pi_grid=(0.5,)):
    # const:1 on two vertices accepts with probability 1/2 per draw; with a
    # one-draw budget and 3 rounds each trial fails with probability 1/8
    return ExperimentConfig(
        dist="const:1",
        n=2,
        pi_grid=pi_grid,
        mode="bond",
        trials=40,
        master_seed=0,
        max_rejection_attempts=1,
    )


def test_failed_trials_recorded_not_dropped():
    records, summary = run_experiment(failing_config())
    failed = [r for r in records if r.status == "failed"]
    ok = [r for r in records if r.status == "ok"]
    assert failed, "seeded run is expected to contain failures"
    assert all(r.attempts == 3 for r in failed)
    assert all(r.scc_size == 0 and r.scc_fraction == 0.0 for r in failed)
    row = summary[0]
    assert row["trials_ok"] == len(ok)
    assert row["trials_failed"] == len(failed)
    assert row["mean"] == pytest.approx(np.mean([r.scc_fraction for r in ok]))


# ----- one graph per trial ----------------------------------------------------------

GRID = (0.9, 0.3, 0.6, 1.0)


def rows_by_trial(records):
    """Each trial's records, sorted by pi."""
    trials: dict[int, list] = {}
    for r in records:
        trials.setdefault(r.trial, []).append(r)
    return [sorted(rows, key=lambda r: r.pi) for rows in trials.values()]


@pytest.mark.parametrize("mode", ["bond", "site"])
def test_grid_rows_are_the_single_pi_rows(tmp_path, mode):
    # an unsorted grid with a point below pi_c = 0.5: each pi's rows are the
    # rows of a run over that pi alone, with the same seed
    grid = (0.9, 0.45, 0.7)
    settings = dict(mode=mode, trials=3, n=1000, master_seed=5)
    run_experiment(small_config(pi_grid=grid, csv_path=str(tmp_path / "grid.csv"), **settings))
    one = []
    for pi in grid:
        path = tmp_path / f"one_{pi}.csv"
        run_experiment(small_config(pi_grid=(pi,), csv_path=str(path), **settings))
        one += path.read_text().splitlines()[1:]
    assert (tmp_path / "grid.csv").read_text().splitlines()[1:] == one


@pytest.mark.parametrize("mode", ["bond", "site"])
def test_trial_rows_share_a_graph_and_grow_with_pi(mode):
    records, _ = run_experiment(small_config(mode=mode, pi_grid=GRID, trials=4))
    for rows in rows_by_trial(records):
        assert [r.pi for r in rows] == sorted(GRID)
        assert len({(r.seed, r.attempts, r.m_before) for r in rows}) == 1
        for column in ("m_after", "scc_size"):
            values = [getattr(r, column) for r in rows]
            assert values == sorted(values), column
        assert rows[-1].m_after == rows[-1].m_before  # pi = 1 keeps every edge


def test_failed_trial_fails_at_every_pi():
    records, summary = run_experiment(failing_config(pi_grid=GRID))
    trials = rows_by_trial(records)
    failed = [rows for rows in trials if rows[0].status == "failed"]
    assert failed, "seeded run is expected to contain failures"
    for rows in trials:
        assert len({(r.status, r.seed, r.attempts, r.m_before) for r in rows}) == 1
    for rows in failed:
        assert all(r.attempts == 3 and r.scc_size == 0 and r.m_after == 0 for r in rows)
    assert [row["trials_failed"] for row in summary] == [len(failed)] * len(GRID)


def test_record_timing_rows_sum_to_trial_wall_time(monkeypatch):
    # a clock read at the trial's start and after each pi's SCC, from the
    # largest pi down: pi = 0.9, 0.6 and 0.3 end 12.3, 45.6 and 500 ms after it
    ticks = iter([100.0, 100.0123, 100.0456, 100.5])
    monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    records, _ = run_experiment(
        small_config(pi_grid=(0.9, 0.3, 0.6), trials=1, record_timing=True)
    )
    # the largest pi carries the sampling; whole milliseconds add up to the trial's 500
    assert [r.elapsed_ms for r in records] == [12, 455, 33]


def test_hopeless_inputs_raise_before_any_trial(tmp_path, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(experiments, "_run_trial", no_trial)
    csv_path = tmp_path / "t.csv"
    # a simple digraph on three vertices has degrees at most 2, so const:3 has none
    with pytest.raises(NotGraphicalError):
        run_experiment(small_config(dist="const:3", n=3, fixed_sequence=True, csv_path=csv_path))
    # j - k is 2 or -2, so the imbalance of five vertices is 2 modulo 4
    table = tmp_path / "table.txt"
    table.write_text("3 1 0.5\n1 3 0.5\n")
    with pytest.raises(RepairFailedError, match="modulo 4"):
        run_experiment(small_config(dist=f"file:{table}", n=5, csv_path=csv_path))
    assert not csv_path.exists()


def test_support_without_small_degrees_raises_before_any_trial(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_run_trial", lambda *args: pytest.fail("a trial started"))
    csv_path = tmp_path / "t.csv"
    for fixed in (False, True):
        with pytest.raises(NotGraphicalError, match="at least 3"):
            run_experiment(small_config(dist="const:3", n=3, fixed_sequence=fixed, csv_path=csv_path))
    # one support point fits, but the shared sequence is almost surely all (3, 3)
    table = tmp_path / "table.txt"
    table.write_text("0 0 0.000000001\n3 3 0.999999999\n")
    degrees.require_simple_support(degrees.distribution_from_spec(f"file:{table}"), 3)
    with pytest.raises(NotGraphicalError, match="shared degree sequence"):
        run_experiment(small_config(dist=f"file:{table}", n=3, fixed_sequence=True))
    assert not csv_path.exists()


def test_undefined_theory_raises_before_any_trial(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_run_trial", lambda *args: pytest.fail("a trial started"))
    csv_path = tmp_path / "t.csv"
    # mu_11 = 0: no vertex has both an in- and an out-edge; const:0 also has mu = 0
    table = tmp_path / "table.txt"
    table.write_text("0 1 0.5\n1 0 0.5\n")
    for dist in (f"file:{table}", "const:0"):
        with pytest.raises(ZeroMu11Error):
            run_experiment(small_config(dist=dist, csv_path=csv_path))
    assert not csv_path.exists()


def test_unwritable_output_raises_before_any_trial(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_run_trial", lambda *args: pytest.fail("a trial started"))
    missing = tmp_path / "missing" / "out"
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("earlier run\n")
    for paths in ({"csv_path": missing}, {"csv_path": csv_path, "summary_path": missing}):
        with pytest.raises(FileNotFoundError):
            run_experiment(small_config(**paths))
    assert csv_path.read_text() == "earlier run\n"


# ----- summarize ----------------------------------------------------------------


def synth_record(pi=0.5, trial=0, fraction=0.25, status="ok"):
    return TrialRecord(
        pi=pi,
        trial=trial,
        seed=1,
        n=100,
        m_before=200,
        m_after=100,
        deleted=0,
        scc_size=int(fraction * 100),
        scc_fraction=fraction,
        attempts=1,
        elapsed_ms=0,
        status=status,
    )


def test_summarize_single_and_identical():
    dist = DegreeDistribution.poisson(2.0)
    rows = summarize([synth_record()], dist, "bond")
    assert rows[0]["mean"] == 0.25 and rows[0]["std"] == 0.0

    rows = summarize([synth_record(trial=t) for t in range(20)], dist, "bond")
    assert rows[0]["std"] == 0.0 and rows[0]["min"] == rows[0]["max"] == 0.25


def test_summarize_theory_matches_direct_invocation():
    dist = DegreeDistribution.poisson(2.0)
    rows = summarize([synth_record(pi=0.8)], dist, "site")
    assert rows[0]["theory_c"] == gscc_fraction(dist, 0.8, "site").c_site


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([], DegreeDistribution.poisson(2.0), "bond")


def test_summarize_all_failed_gives_nulls():
    dist = DegreeDistribution.poisson(2.0)
    rows = summarize([synth_record(status="failed")], dist, "bond")
    assert rows[0]["mean"] is None and rows[0]["trials_ok"] == 0


# ----- outputs ------------------------------------------------------------------


def test_csv_format_and_determinism(tmp_path):
    config = small_config(
        csv_path=str(tmp_path / "a.csv"), summary_path=str(tmp_path / "a.json")
    )
    run_experiment(config)
    config_b = replace(
        config, csv_path=str(tmp_path / "b.csv"), summary_path=str(tmp_path / "b.json")
    )
    run_experiment(config_b)
    a_csv = (tmp_path / "a.csv").read_bytes()
    b_csv = (tmp_path / "b.csv").read_bytes()
    assert a_csv == b_csv
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    lines = a_csv.decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert float(first[0]) == 0.9
    assert first[-1] == "ok"

    summary = json.loads((tmp_path / "a.json").read_text())
    assert [row["pi"] for row in summary] == [0.9, 0.3]
    means = {}
    for line in lines[1:]:
        fields = line.split(",")
        means.setdefault(float(fields[0]), []).append(float(fields[8]))
    for row in summary:
        assert row["mean"] == pytest.approx(np.mean(means[row["pi"]]), abs=1e-15)


# sha256 prefixes of the CSV and summary JSON bytes of two small runs.  A change
# that alters the random streams or the tables on purpose must retake them.
GOLDEN_RUNS = {
    "poisson-site": ("61fa5f099350fa0a", "0072677a91f4313d"),
    "reversed-file-bond": ("52d328154005c927", "31f0c3c44621f1ff"),
}
# the (j, k, p) rows of a small table, in decreasing (j, k) order
REVERSED_TABLE = "3 1 0.0625\n2 2 0.25\n1 3 0.0625\n1 1 0.5\n0 0 0.125\n"


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_experiment_outputs_are_pinned(tmp_path, run):
    if run == "poisson-site":
        settings = dict(dist="poisson:2", n=2000, mode="site", pi_grid=(0.6, 0.8, 1.0),
                        trials=3, master_seed=1, threads=2)
    else:
        (tmp_path / "dist.txt").write_text(REVERSED_TABLE)
        settings = dict(dist=f"file:{tmp_path / 'dist.txt'}", n=1000, mode="bond",
                        pi_grid=(0.7, 0.9), trials=2, master_seed=3, fixed_sequence=True)
    csv, summary = tmp_path / "run.csv", tmp_path / "run.json"
    run_experiment(ExperimentConfig(**settings, csv_path=str(csv), summary_path=str(summary)))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (csv, summary))
    assert digests == GOLDEN_RUNS[run]


def test_write_csv_synthetic(tmp_path):
    path = tmp_path / "records.csv"
    write_csv([synth_record()], path)
    text = path.read_text()
    assert text.splitlines()[1] == "0.5,0,1,100,200,100,0,25,0.25,1,0,ok"
