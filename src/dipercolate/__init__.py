"""Percolation on directed random graphs with given degree distributions.

The package samples uniform simple digraphs via the directed configuration
model, applies bond or site percolation, measures the largest strongly
connected component, and evaluates the analytic predictions (threshold
pi_c = mu / mu_11 and the giant-component fractions) that the Monte Carlo
results are checked against.
"""

__version__ = "0.1.0"

from .degrees import (
    DegreeDistribution,
    DegreeSequence,
    PropernessReport,
    distribution_from_spec,
    empirical_distribution,
    is_graphical,
    properness_report,
    read_distribution,
    read_sequence,
    realize_sequence,
)
from .configmodel import (
    Digraph,
    read_edge_list,
    sample_configuration,
    sample_simple,
    simple_probability,
    write_edge_list,
)
from .percolation import (
    PercolationOutcome,
    bond_percolate,
    percolate_grid,
    site_percolate,
)
from .components import (
    SccPartition,
    strongly_connected_components,
)
from .theory import (
    CriticalThreshold,
    FixedPointResult,
    TheoryPrediction,
    bond_distribution,
    critical_threshold,
    gscc_fraction,
    site_distribution,
    solve_fixed_point,
)
from .experiments import (
    ExperimentConfig,
    TrialRecord,
    load_config,
    make_rng,
    run_experiment,
    summarize,
    trial_seed,
    write_csv,
    write_summary,
)
from . import errors

__all__ = [
    "__version__",
    "errors",
    # degrees
    "DegreeSequence",
    "DegreeDistribution",
    "PropernessReport",
    "is_graphical",
    "empirical_distribution",
    "properness_report",
    "realize_sequence",
    "distribution_from_spec",
    "read_distribution",
    "read_sequence",
    # configuration model
    "Digraph",
    "sample_configuration",
    "sample_simple",
    "simple_probability",
    "read_edge_list",
    "write_edge_list",
    # percolation
    "PercolationOutcome",
    "bond_percolate",
    "percolate_grid",
    "site_percolate",
    # components
    "SccPartition",
    "strongly_connected_components",
    # theory
    "TheoryPrediction",
    "CriticalThreshold",
    "FixedPointResult",
    "bond_distribution",
    "site_distribution",
    "critical_threshold",
    "solve_fixed_point",
    "gscc_fraction",
    # experiments
    "ExperimentConfig",
    "TrialRecord",
    "run_experiment",
    "summarize",
    "write_csv",
    "write_summary",
    "load_config",
    "make_rng",
    "trial_seed",
]
