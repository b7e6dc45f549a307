"""Command-line interface.

Subcommands: ``theory`` (analytic prediction as JSON), ``sample`` (draw a
uniform simple digraph and write its edge list), ``percolate`` (bond/site
percolation of an edge-list file), ``scc`` (component census), ``experiment``
(Monte Carlo harness), ``check`` (degree-sequence diagnostics).

Exit codes: 0 success, 1 usage error, 2 runtime error.  Machine-readable
output (JSON, CSV, edge lists) goes to stdout or the requested files;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .components import strongly_connected_components, write_labels
from .configmodel import (
    read_edge_list,
    sample_configuration,
    sample_simple,
    write_edge_list,
)
from .degrees import (
    distribution_from_spec,
    properness_report,
    read_sequence,
    realize_sequence,
    write_int_rows,
)
from .errors import DipercolateError, InvalidSequenceError
from .experiments import (
    CONFIG_KEYS,
    config_from_mapping,
    load_config,
    make_rng,
    parse_pi_grid,
    run_experiment,
)
from .percolation import bond_percolate, site_percolate
from .theory import gscc_fraction

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with status 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dipercolate", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"dipercolate {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="print the analytic prediction as JSON")
    p.add_argument("--dist", required=True, help="poisson:L | const:D | geometric:P | file:PATH")
    p.add_argument("--pi", type=float, default=None)
    p.add_argument("--mode", choices=("bond", "site", "none"), required=True)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("sample", help="sample a graph and write its edge list")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--max-attempts", type=int, default=1000)
    p.add_argument(
        "--multigraph",
        action="store_true",
        help="emit the raw configuration instead of rejecting to a simple graph",
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("percolate", help="percolate an edge-list file")
    p.add_argument("--graph", required=True)
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("--mode", choices=("bond", "site"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--deleted-out", default=None, help="write deleted vertex ids here (site mode)")
    p.set_defaults(func=_cmd_percolate)

    p = sub.add_parser("scc", help="strongly connected component census")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels-out", default=None, help="dump `vertex label` lines here")
    p.set_defaults(func=_cmd_scc)

    p = sub.add_parser("experiment", help="run the Monte Carlo harness")
    p.add_argument("--config", help="key = value config file")
    # one flag per experiments.CONFIG_KEYS row, stored under its config field
    p.add_argument("--dist")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=("bond", "site"))
    p.add_argument("--pi-grid", help="comma-separated pi values")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    p.add_argument("--max-attempts", dest="max_rejection_attempts", type=int)
    p.add_argument(
        "--fixed-sequence", action="store_const", const=True,
        help="share one realized degree sequence across all trials",
    )
    p.add_argument(
        "--record-timing", action="store_const", const=True,
        help="store wall-clock elapsed_ms in the CSV (breaks byte-determinism)",
    )
    p.add_argument("--threads", type=int, help="parallel trial cap")
    p.add_argument("--csv", dest="csv_path", help="trial records output path")
    p.add_argument("--json", dest="summary_path", help="summary output path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check", help="validity/graphicality/properness report")
    p.add_argument("--seq", required=True, help="degree sequence file (d_in d_out lines)")
    p.set_defaults(func=_cmd_check)

    return parser


def _cmd_theory(args) -> int:
    if args.mode != "none" and args.pi is None:
        print("error: --pi is required for mode bond/site", file=sys.stderr)
        return 1
    dist = distribution_from_spec(args.dist)
    pred = gscc_fraction(dist, args.pi, args.mode)
    print(json.dumps(pred.to_dict()))
    return 0


def _cmd_sample(args) -> int:
    dist = distribution_from_spec(args.dist)
    rng = make_rng(args.seed)
    seq = realize_sequence(dist, args.n, rng)
    if args.multigraph:
        graph = sample_configuration(seq, rng)
    else:
        graph, _ = sample_simple(seq, rng, args.max_attempts)
    write_edge_list(graph, args.out if args.out else sys.stdout, seed=args.seed)
    return 0


def _cmd_percolate(args) -> int:
    graph = read_edge_list(args.graph)
    rng = make_rng(args.seed)
    if args.mode == "bond":
        outcome = bond_percolate(graph, args.pi, rng)
    else:
        outcome = site_percolate(graph, args.pi, rng)
    comments = [f"mode={outcome.mode} pi={outcome.pi!r} deleted={outcome.deleted_vertices.size}"]
    write_edge_list(
        outcome.graph,
        args.out if args.out else sys.stdout,
        seed=args.seed,
        comments=comments,
    )
    if args.deleted_out:
        with open(args.deleted_out, "w", encoding="utf-8") as fh:
            write_int_rows(fh, outcome.deleted_vertices)
    return 0


def _cmd_scc(args) -> int:
    graph = read_edge_list(args.graph)
    partition = strongly_connected_components(graph)
    if args.labels_out:
        write_labels(partition, args.labels_out)
    print(f"{partition.count} component(s); largest = {partition.largest[1]}")
    return 0


def _cmd_experiment(args) -> int:
    overrides = {field: getattr(args, field) for field, _ in CONFIG_KEYS.values()}
    if args.pi_grid is not None:
        overrides["pi_grid"] = parse_pi_grid(args.pi_grid)
    if args.config:
        config = load_config(args.config, **overrides)
    else:
        config = config_from_mapping({}, **overrides)
    _, summary = run_experiment(config)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_check(args) -> int:
    seq = read_sequence(args.seq)
    try:
        report = properness_report(seq)
    except InvalidSequenceError:
        print(json.dumps({"valid": False, "in_sum": seq.in_sum, "out_sum": seq.out_sum, "n": seq.n}))
        return 2
    payload = {
        "valid": True,
        "in_sum": seq.in_sum,
        "out_sum": seq.out_sum,
        "n": report.n,
        "m": seq.m,
        "d_max": report.d_max,
        "graphical": report.graphical,
        "d_max_bound": None if math.isinf(report.d_max_bound) else report.d_max_bound,
        "d_max_ok": report.d_max_ok,
        "rho": report.rho,
        "rho_vs_dmax_ratio": report.rho_vs_dmax_ratio,
        "moments": {f"mu_{i}{l}": v for (i, l), v in sorted(report.empirical_moments.items())},
    }
    print(json.dumps(payload))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (DipercolateError, OSError, ValueError) as exc:
        print(f"dipercolate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
