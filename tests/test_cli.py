import gzip
import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import _oracles
import dipercolate
from dipercolate import cli, read_edge_list
from dipercolate.cli import main
from dipercolate.errors import AttemptsExhaustedError
from dipercolate.experiments import CONFIG_KEYS, config_from_mapping

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_two_cycle(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("# n=2 m=2 seed=none\n0 1\n1 0\n")
    return str(path)


# ----- exit codes ---------------------------------------------------------------


def test_version_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_unknown_subcommand_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "error" in err


def test_missing_flag_usage_error(capsys):
    code, _, err = run_cli(capsys, "theory", "--pi", "0.8")
    assert code == 1
    assert "--dist" in err


def test_unreadable_file_runtime_error(capsys):
    code, _, err = run_cli(capsys, "scc", "--graph", "/nonexistent/g.txt")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("header", ["# n=2 m=1", "# n=-3 m=1"])
def test_edge_list_header_n_error_names_the_file(tmp_path, capsys, header):
    graph = tmp_path / "g.txt"
    graph.write_text(f"{header}\n0 5\n")
    code, _, err = run_cli(capsys, "scc", "--graph", str(graph))
    assert code == 2
    assert f"error: {graph}: " in err


def test_bad_pi_runtime_error(tmp_path, capsys):
    graph = write_two_cycle(tmp_path)
    code, _, err = run_cli(
        capsys, "percolate", "--graph", graph, "--pi", "0", "--mode", "bond", "--seed", "1"
    )
    assert code == 2


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_non_finite_poisson_rate_exits_two(capsys, lam):
    code, out, err = run_cli(
        capsys, "theory", "--dist", f"poisson:{lam}", "--pi", "0.8"
    )
    assert (code, out) == (2, "")
    assert "bad parameter" in err and "finite" in err


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 77.9 GiB"), "Unable to allocate 77.9 GiB"),
     (MemoryError(), "MemoryError")],
)
def test_oversized_table_exits_two(monkeypatch, capsys, exc, message):
    def too_large(spec):
        raise exc

    monkeypatch.setattr(cli, "distribution_from_spec", too_large)
    code, out, err = run_cli(
        capsys, "theory", "--dist", "poisson:1e5", "--pi", "0.8"
    )
    assert (code, out) == (2, "")
    assert err == f"dipercolate: error: {message}\n"


def console_script_entry_point():
    """The entry point that the ``dipercolate`` console script runs.

    Read from the installed entry points when the package is installed,
    otherwise from ``[project.scripts]`` in the checkout's pyproject.toml.
    """
    for ep in importlib.metadata.entry_points(group="console_scripts"):
        if ep.name == "dipercolate":
            return ep
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (REPO_ROOT / "pyproject.toml").open("rb") as f:
        value = tomllib.load(f)["project"]["scripts"]["dipercolate"]
    return importlib.metadata.EntryPoint(
        name="dipercolate", value=value, group="console_scripts"
    )


def run_version(argv, env=None):
    """Run ``argv`` in a fresh process; assert it prints the version and exits 0."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "dipercolate" in proc.stdout


def env_importing_this_package():
    """os.environ with the imported package's directory first on PYTHONPATH."""
    env = dict(os.environ)
    package_dir = str(Path(dipercolate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_dir, env.get("PYTHONPATH")])
    )
    return env


def test_console_script_installed():
    # The declared entry point, run as the generated wrapper runs it, so a
    # checkout that is not pip-installed still checks the console script.
    ep = console_script_entry_point()
    wrapper = (
        "import sys; sys.argv[0] = 'dipercolate'; "
        f"from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    )
    run_version(
        [sys.executable, "-c", wrapper, "--version"], env=env_importing_this_package()
    )
    # The installed executable itself, where one is on PATH.
    if shutil.which("dipercolate"):
        run_version(["dipercolate", "--version"])


def test_python_m_dipercolate():
    run_version(
        [sys.executable, "-m", "dipercolate", "--version"],
        env=env_importing_this_package(),
    )


# ----- theory -------------------------------------------------------------------


def test_theory_json(capsys):
    code, out, err = run_cli(
        capsys, "theory", "--dist", "poisson:2", "--pi", "0.8"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "pi",
        "pi_c",
        "x_star",
        "y_star",
        "c_bond",
        "c_site",
        "zeta",
        "solver_iters",
        "solver_residual",
    }
    assert payload["c_bond"] == pytest.approx(0.4121400118157843, abs=1e-8)
    assert payload["pi_c"] == pytest.approx(0.5, abs=1e-9)


def test_theory_pi_one_is_unpercolated(capsys):
    code, out, _ = run_cli(capsys, "theory", "--dist", "const:2", "--pi", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi"] == 1.0
    assert payload["c_bond"] == pytest.approx(payload["zeta"])


def test_theory_bond_requires_pi(capsys):
    code, _, err = run_cli(capsys, "theory", "--dist", "poisson:2")
    assert code == 1
    assert "--pi" in err


# ----- sample / percolate / scc pipeline ------------------------------------------


def test_sample_deterministic_and_simple(tmp_path, capsys):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            capsys,
            "sample", "--dist", "poisson:2", "--n", "200",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    g = read_edge_list(out_a)
    assert g.n == 200
    assert g.simple
    assert out_a.read_text().startswith(f"# n=200 m={g.m} seed=11\n")


def test_sample_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--dist", "const:1", "--n", "2", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# n=2 m=2")
    assert sorted(lines[1:]) == ["0 1", "1 0"]


def test_sample_multigraph(tmp_path, capsys):
    out = tmp_path / "multi.txt"
    code, _, _ = run_cli(
        capsys,
        "sample", "--dist", "poisson:3", "--n", "50",
        "--seed", "5", "--out", str(out), "--multigraph",
    )
    assert code == 0
    assert read_edge_list(out).n == 50


def test_percolate_bond_identity(tmp_path, capsys):
    graph = write_two_cycle(tmp_path)
    out = tmp_path / "p.txt"
    code, _, _ = run_cli(
        capsys,
        "percolate", "--graph", graph, "--pi", "1.0", "--mode", "bond",
        "--seed", "9", "--out", str(out),
    )
    assert code == 0
    g = read_edge_list(out)
    assert sorted(_oracles.edges(g)) == [(0, 1), (1, 0)]
    assert "mode=bond pi=1.0 deleted=0" in out.read_text()


def test_percolate_deterministic(tmp_path, capsys):
    graph = write_two_cycle(tmp_path)
    outs = []
    for name in ("p1.txt", "p2.txt"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "percolate", "--graph", graph, "--pi", "0.5", "--mode", "bond",
            "--seed", "77", "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_percolate_site_deleted_list(tmp_path, capsys):
    graph = tmp_path / "ring.txt"
    n = 50
    lines = [f"# n={n} m={n} seed=none"] + [f"{v} {(v + 1) % n}" for v in range(n)]
    graph.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.txt"
    deleted = tmp_path / "deleted.txt"
    code, _, _ = run_cli(
        capsys,
        "percolate", "--graph", str(graph), "--pi", "0.5", "--mode", "site",
        "--seed", "4", "--out", str(out), "--deleted-out", str(deleted),
    )
    assert code == 0
    ids = [int(line) for line in deleted.read_text().split()]
    assert deleted.read_text() == "".join(f"{v}\n" for v in ids)
    assert ids == sorted(ids)
    assert ids, "expected deletions at pi=0.5"
    survivors = set(range(n)) - set(ids)
    for s, t in _oracles.edges(read_edge_list(out)):
        assert s in survivors and t in survivors


# sha256 prefixes of the `percolate --pi 0.8 --seed 2` outputs (edge list, then
# deleted ids in site mode) on the smoke test's `sample --dist poisson:2 --n 2000
# --seed 1` graph.  A change to a single-pi percolation stream must retake them.
GOLDEN_PERCOLATE = {
    "bond": ("b02f62eec0dbc8ec", None),
    "site": ("3123fe02adb8fd21", "d7be96d4d858b3fe"),
}


@pytest.mark.parametrize("mode", GOLDEN_PERCOLATE)
def test_percolate_outputs_are_pinned(tmp_path, capsys, mode):
    graph, out, deleted = (tmp_path / name for name in ("g.txt", "p.txt", "d.txt"))
    assert run_cli(capsys, "sample", "--dist", "poisson:2", "--n", "2000", "--seed", "1",
                   "--out", str(graph))[0] == 0
    argv = ["percolate", "--graph", str(graph), "--pi", "0.8", "--mode", mode, "--seed", "2",
            "--out", str(out)]
    if mode == "site":
        argv += ["--deleted-out", str(deleted)]
    assert run_cli(capsys, *argv)[0] == 0
    digests = tuple(
        hashlib.sha256(p.read_bytes()).hexdigest()[:16] if p.exists() else None
        for p in (out, deleted)
    )
    assert digests == GOLDEN_PERCOLATE[mode]


def test_scc_output_format(tmp_path, capsys):
    graph = write_two_cycle(tmp_path)
    code, out, _ = run_cli(capsys, "scc", "--graph", graph)
    assert code == 0
    assert out.strip() == "1 component(s); largest = 2"


def test_scc_labels_out(tmp_path, capsys):
    graph = write_two_cycle(tmp_path)
    labels = tmp_path / "labels.txt"
    code, _, _ = run_cli(capsys, "scc", "--graph", graph, "--labels-out", str(labels))
    assert code == 0
    assert len(labels.read_text().splitlines()) == 2


# ----- outputs open before the work -----------------------------------------------


def not_reached(what):
    def fail(*args, **kwargs):
        pytest.fail(f"{what} started before every output was open")

    return fail


def test_percolate_unwritable_deleted_out_removes_new_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.PERCOLATE, "site", not_reached("percolation"))
    graph = write_two_cycle(tmp_path)
    missing = str(tmp_path / "missing" / "d.txt")
    out = tmp_path / "o.txt"
    argv = ["percolate", "--graph", graph, "--pi", "0.8", "--mode", "site", "--seed", "2",
            "--out", str(out), "--deleted-out", missing]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and missing in err
    assert not out.exists()
    # an existing output keeps its bytes
    out.write_text("earlier run\n")
    assert run_cli(capsys, *argv)[0] == 2
    assert out.read_text() == "earlier run\n"


def test_sample_unwritable_out_fails_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "realize_sequence", not_reached("sampling"))
    missing = str(tmp_path / "missing" / "g.txt")
    code, _, err = run_cli(
        capsys, "sample", "--dist", "poisson:2", "--n", "100", "--seed", "1", "--out", missing
    )
    assert code == 2 and missing in err


def test_sample_failure_removes_new_out(tmp_path, capsys, monkeypatch):
    def exhausted(seq, rng, max_attempts):
        raise AttemptsExhaustedError(max_attempts)

    monkeypatch.setattr(cli, "sample_simple", exhausted)
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(
        capsys, "sample", "--dist", "poisson:2", "--n", "100", "--seed", "1", "--out", str(out)
    )
    assert code == 2
    assert not out.exists()


def test_scc_unwritable_labels_out_fails_before_scc(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "strongly_connected_components", not_reached("SCC"))
    missing = str(tmp_path / "missing" / "l.txt")
    code, out, err = run_cli(
        capsys, "scc", "--graph", write_two_cycle(tmp_path), "--labels-out", missing
    )
    assert (code, out) == (2, "")
    assert missing in err


def test_experiment_non_graphical_shared_sequence_leaves_no_outputs(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("2 2 0.5\n0 0 0.5\n")
    csv_path, json_path = tmp_path / "new.csv", tmp_path / "new.json"
    code, _, err = run_cli(
        capsys, "experiment", "--dist", f"file:{table}", "--fixed-sequence", "--n", "3",
        "--pi-grid", "1", "--csv", str(csv_path), "--json", str(json_path),
    )
    assert code == 2 and "shared degree sequence is not graphical" in err
    assert not csv_path.exists() and not json_path.exists()


# ----- check ---------------------------------------------------------------------


def test_check_valid_sequence(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("1 1\n1 1\n")
    code, out, _ = run_cli(capsys, "check", "--seq", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["graphical"]
    assert payload["n"] == 2 and payload["m"] == 2
    assert payload["moments"]["mu_11"] == pytest.approx(1.0)


def test_check_invalid_sequence_exits_two(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("2 0\n0 1\n")
    code, out, _ = run_cli(capsys, "check", "--seq", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["in_sum"] == 2 and payload["out_sum"] == 1


def test_check_degree_sums_past_int64_are_exact(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text(f"{2**63 - 1} 0\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "check", "--seq", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["in_sum"] == 2**63 and payload["out_sum"] == 1


def test_scc_oversized_id_exits_two(tmp_path, capsys):
    # an id beyond int64 is a malformed file (exit 2), not a crash
    graph = tmp_path / "huge.txt"
    graph.write_text("# n=2 seed=none\n0 1\n99999999999999999999 1\n")
    code, _, err = run_cli(capsys, "scc", "--graph", str(graph))
    assert code == 2
    assert f"{graph}:3: " in err


def test_check_oversized_degree_exits_two(tmp_path, capsys):
    seq = tmp_path / "huge-seq.txt"
    seq.write_text("1 1\n99999999999999999999 1\n")
    code, _, err = run_cli(capsys, "check", "--seq", str(seq))
    assert code == 2
    assert f"{seq}:2: " in err


# Paths that numpy's loadtxt would decompress, fetch or complete with a suffix:
# each exits 2 and leaves the working directory as it was.


def tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


def test_check_compressed_suffix_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain.gz").write_text("1 1\n1 1\n")
    before = tree(tmp_path)
    code, out, err = run_cli(capsys, "check", "--seq", "plain.gz")
    assert code == 2 and out == ""
    assert "plain.gz: compressed input is not supported" in err
    code, out, err = run_cli(capsys, "scc", "--graph", "plain.gz")
    assert code == 2 and out == ""
    assert "plain.gz: compressed input is not supported" in err
    assert tree(tmp_path) == before


def test_check_missing_file_ignores_compressed_sibling(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with gzip.open(tmp_path / "only.txt.gz", "wt") as fh:
        fh.write("1 1\n1 1\n")
    before = tree(tmp_path)
    code, out, err = run_cli(capsys, "check", "--seq", "only.txt")
    assert code == 2 and out == ""
    assert "No such file or directory: 'only.txt'" in err
    assert tree(tmp_path) == before


def test_check_url_path_exits_two(tmp_path, monkeypatch, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("1 1\n1 1\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run_cli(capsys, "check", "--seq", f"file://localhost{seq}")
    assert code == 2 and out == ""
    assert "No such file or directory" in err
    assert tree(work) == []


# ----- experiment ------------------------------------------------------------------


def test_experiment_with_config_file(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    json_path = tmp_path / "summary.json"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "dist = poisson:2\nn = 200\nmode = bond\npi_grid = 0.9\n"
        f"trials = 2\nseed = 5\ncsv = {csv_path}\njson = {json_path}\n"
    )
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    stdout_summary = json.loads(out)
    file_summary = json.loads(json_path.read_text())
    assert stdout_summary == file_summary
    assert csv_path.exists()
    assert len(csv_path.read_text().splitlines()) == 3  # header + 2 trials


def test_experiment_flags_only(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment", "--dist", "const:2", "--n", "60", "--mode", "site",
        "--pi-grid", "0.9,0.4", "--trials", "2", "--seed", "8",
        "--threads", "2",
    )
    assert code == 0
    summary = json.loads(out)
    assert [row["pi"] for row in summary] == [0.9, 0.4]
    assert all(row["trials_ok"] == 2 for row in summary)


def test_experiment_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dist = const:2\nn = 50\npi_grid = 0.9\ntrials = 1\nseed = 5\n")
    code, out, _ = run_cli(
        capsys, "experiment", "--config", str(cfg), "--trials", "3"
    )
    assert code == 0
    # stdout is pure JSON (no log lines)
    summary = json.loads(out)
    assert summary[0]["trials_ok"] == 3


@pytest.mark.parametrize(
    "flag, value, code",
    [("--pi-grid", "0.9,x", 2), ("--pi-grid", "0.9,0.9", 2), ("--n", "four", 1)],
)
def test_experiment_bad_flag_value_exit_codes(capsys, flag, value, code):
    argv = {"--dist": "const:2", "--n": "50", "--pi-grid": "0.9", "--trials": "2", flag: value}
    code_got, out, _ = run_cli(capsys, "experiment", *[x for item in argv.items() for x in item])
    assert (code_got, out) == (code, "")


def test_experiment_hopeless_input_exits_two(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("3 1 0.5\n1 3 0.5\n")
    csv_path = tmp_path / "t.csv"
    base = ["experiment", "--pi-grid", "0.5", "--trials", "2", "--csv", str(csv_path)]
    for extra, message in [
        (["--dist", "const:3", "--n", "3", "--fixed-sequence"], "not graphical"),
        (["--dist", f"file:{table}", "--n", "5"], "can never balance at n=5"),
    ]:
        code, out, err = run_cli(capsys, *base, *extra)
        assert (code, out) == (2, "")
        assert message in err
    assert not csv_path.exists()


def test_experiment_support_too_large_exits_two(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "experiment", "--dist", "const:3", "--n", "3", "--pi-grid", "0.5",
        "--trials", "2", "--csv", str(csv_path),
    )
    assert (code, out) == (2, "")
    assert "not graphical at n=3" in err
    assert not csv_path.exists()


# Per config key: its file value and the arguments after its flag, both
# different from BASE_SETTINGS and from the defaults.
SETTINGS = {
    "dist": ("const:1", ["const:1"]),
    "n": ("60", ["60"]),
    "mode": ("site", ["site"]),
    "pi_grid": ("0.9 0.4", ["0.9, 0.4"]),
    "trials": ("3", ["3"]),
    "seed": ("7", ["7"]),
    "max_attempts": ("20", ["20"]),
    "fixed_sequence": ("true", []),
    "record_timing": ("yes", []),
    "threads": ("2", ["2"]),
    "csv": ("t.csv", ["t.csv"]),
    "json": ("s.json", ["s.json"]),
}
BASE_SETTINGS = {"dist": "const:2", "n": "50", "pi_grid": "0.5"}


def flag(key):
    return "--" + key.replace("_", "-")


def test_settings_cover_every_config_key():
    assert SETTINGS.keys() == CONFIG_KEYS.keys()


@pytest.mark.parametrize("key", list(SETTINGS))
def test_experiment_flag_and_file_set_alike(tmp_path, monkeypatch, capsys, key):
    configs = []

    def record_config(config):
        configs.append(config)
        return [], []

    monkeypatch.setattr(cli, "run_experiment", record_config)
    text, args = SETTINGS[key]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**BASE_SETTINGS, key: text}.items()))
    base_flags = [x for k, v in BASE_SETTINGS.items() if k != key for x in (flag(k), v)]
    assert run_cli(capsys, "experiment", "--config", str(cfg))[0] == 0
    assert run_cli(capsys, "experiment", *base_flags, flag(key), *args)[0] == 0
    by_file, by_flags = configs
    assert by_file == by_flags
    assert by_file != config_from_mapping(BASE_SETTINGS)
