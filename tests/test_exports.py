import importlib
import re
from pathlib import Path

import pytest

import dipercolate as dp
from dipercolate.experiments import CONFIG_KEYS

MODULES = [
    "dipercolate",
    "dipercolate.cli",
    "dipercolate.components",
    "dipercolate.configmodel",
    "dipercolate.degrees",
    "dipercolate.experiments",
    "dipercolate.percolation",
    "dipercolate.theory",
]

README = Path(__file__).resolve().parents[1] / "README.md"

REMOVED = [
    "induced_degree_sequence",
    "is_simple",
    "pgf_eval",
    "strong_component_of",
    # no caller outside the tests
    "largest_scc_fraction",
    "EmptyGraphError",
    "u_minus",
    "u_plus",
    "Validity",
    "validate",
    # moved into tests/_oracles.py
    "total_variation",
    "write_distribution",
    "matching_probability",
    "write_sequence",
    # the inexact branch of matching_probability and its mismatch error
    "EXACT_PROBABILITY_MAX_EDGES",
    "DegreeMismatchError",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", MODULES + ["dipercolate.errors"])
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in REMOVED if hasattr(module, attr)] == []


def test_removed_attributes_are_gone():
    records = {
        "DegreeDistribution.support": dp.DegreeDistribution.constant(1),
        "DegreeDistribution.truncation_loss": dp.DegreeDistribution.poisson(2),
        "Digraph.edge_multiplicities": dp.Digraph(1, [], []),
        "Digraph.edges": dp.Digraph(1, [], []),
        "CriticalThreshold.supercritical_possible": dp.critical_threshold(
            dp.DegreeDistribution.constant(1)
        ),
        "PropernessReport.valid": dp.properness_report(dp.DegreeSequence([(0, 0)])),
    }
    assert [
        name for name, obj in records.items() if hasattr(obj, name.partition(".")[2])
    ] == []


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    fraction, c_bond = map(float, capsys.readouterr().out.splitlines()[-1].split())
    assert abs(fraction - c_bond) < 0.02


def test_readme_names_every_export():
    text = README.read_text(encoding="utf-8")
    assert [name for name in dp.__all__ if f"`{name}`" not in text] == []


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Experiment config files\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)` \(`(--[\w-]+)`\)", section, re.M)
    assert listed == [(key, "--" + key.replace("_", "-")) for key in CONFIG_KEYS]
