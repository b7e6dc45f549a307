import importlib

import pytest

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

REMOVED = ["induced_degree_sequence", "is_simple", "pgf_eval", "strong_component_of"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in REMOVED if hasattr(module, attr)] == []
