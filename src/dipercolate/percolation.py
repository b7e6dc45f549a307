"""Bond and site percolation on digraphs.

Bond percolation keeps each edge independently with probability pi (parallel
edges are independent trials).  Site percolation deletes each vertex with
probability 1 - pi and removes every incident edge; deleted vertices stay in
the vertex set with degree (0, 0), so vertex ids remain stable for component
bookkeeping.

pi = 1 is admitted as a degenerate identity (useful as a regression anchor):
it goes through the same uniform draw, and every uniform lies below 1, so
every edge and vertex survives.  pi = 0 is rejected because downstream
quantities divide by pi.
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


def check_pi(pi: float) -> float:
    """Return ``pi`` as a float, or raise PiOutOfRangeError outside (0, 1]."""
    pi = float(pi)
    if not 0.0 < pi <= 1.0:
        raise PiOutOfRangeError(f"pi must lie in (0, 1], got {pi!r}")
    return pi


def bond_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Keep each edge independently with probability ``pi``; vertices unchanged."""
    pi = check_pi(pi)
    keep = rng.random(g.m) < pi
    percolated = Digraph._from_arrays(g.n, g.src[keep], g.dst[keep])
    return PercolationOutcome(percolated, "bond", pi, np.empty(0, dtype=np.int64))


def site_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Delete each vertex with probability 1 - pi; drop all incident edges.

    Deleted vertices remain in the vertex set with degree (0, 0).
    """
    pi = check_pi(pi)
    survives = rng.random(g.n) < pi
    keep = survives[g.src] & survives[g.dst]
    percolated = Digraph._from_arrays(g.n, g.src[keep], g.dst[keep])
    return PercolationOutcome(percolated, "site", pi, np.flatnonzero(~survives))


# The one map from a mode to its function; the config and the CLI accept its keys.
PERCOLATE = {"bond": bond_percolate, "site": site_percolate}
