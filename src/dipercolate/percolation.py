"""Bond and site percolation on digraphs.

Bond percolation keeps each edge independently with probability pi (parallel
edges are independent trials).  Site percolation deletes each vertex with
probability 1 - pi and removes every incident edge; deleted vertices stay in
the vertex set with degree (0, 0), so vertex ids remain stable for component
bookkeeping.

pi = 1 is admitted as a degenerate identity (useful as a regression anchor);
pi = 0 is rejected because downstream quantities divide by pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configmodel import Digraph
from .errors import PiOutOfRangeError

__all__ = [
    "PercolationOutcome",
    "bond_percolate",
    "site_percolate",
]


@dataclass(frozen=True, eq=False)
class PercolationOutcome:
    """Result of one percolation pass.

    Attributes
    ----------
    graph : Digraph
        The percolated graph on the original vertex set; its
        ``degree_sequence()`` is the induced degree profile.
    mode : str
        ``"bond"`` or ``"site"``.
    pi : float
    deleted_vertices : ndarray of int64, read-only
        Sorted ids of deleted vertices (empty for bond mode).
    """

    graph: Digraph
    mode: str
    pi: float
    deleted_vertices: np.ndarray

    def __post_init__(self):
        self.deleted_vertices.setflags(write=False)

    @property
    def surviving_edges(self) -> int:
        return self.graph.m


def _check_pi(pi: float) -> float:
    pi = float(pi)
    if not 0.0 < pi <= 1.0:
        raise PiOutOfRangeError(f"pi must lie in (0, 1], got {pi!r}")
    return pi


def bond_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Keep each edge independently with probability ``pi``; vertices unchanged."""
    pi = _check_pi(pi)
    if pi == 1.0:
        kept_src, kept_dst = g.src, g.dst
    else:
        keep = rng.random(g.m) < pi
        kept_src = g.src[keep]
        kept_dst = g.dst[keep]
    percolated = Digraph._from_arrays(g.n, kept_src, kept_dst)
    return PercolationOutcome(percolated, "bond", pi, np.empty(0, dtype=np.int64))


def site_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Delete each vertex with probability 1 - pi; drop all incident edges.

    Deleted vertices remain in the vertex set with degree (0, 0).
    """
    pi = _check_pi(pi)
    if pi == 1.0:
        survives = np.ones(g.n, dtype=bool)
    else:
        survives = rng.random(g.n) < pi
    deleted = np.flatnonzero(~survives)
    if deleted.size:
        keep = survives[g.src] & survives[g.dst]
        kept_src = g.src[keep]
        kept_dst = g.dst[keep]
    else:
        kept_src, kept_dst = g.src, g.dst
    percolated = Digraph._from_arrays(g.n, kept_src, kept_dst)
    return PercolationOutcome(percolated, "site", pi, deleted)

