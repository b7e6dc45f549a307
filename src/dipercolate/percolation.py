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
from typing import Iterable, Iterator

import numpy as np

from .configmodel import Digraph
from .errors import PiOutOfRangeError

__all__ = [
    "PercolationOutcome",
    "bond_percolate",
    "percolate_grid",
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


def check_mode(mode: str) -> str:
    """Return ``mode``, or raise ValueError unless it is a key of ``PERCOLATE``."""
    if mode not in PERCOLATE:
        raise ValueError(f"mode must be {' or '.join(map(repr, PERCOLATE))}, got {mode!r}")
    return mode


def percolate_grid(
    g: Digraph, mode: str, pis: Iterable[float], rng: np.random.Generator
) -> Iterator[PercolationOutcome]:
    """Yield the outcome at each ``pi`` of ``pis``, in order, from one draw.

    One uniform per edge (bond) or per vertex (site), ``rng.random(g.m)`` or
    ``rng.random(g.n)``, serves every ``pi``: an edge or vertex survives at
    ``pi`` when its uniform lies below ``pi``.  Each outcome has the law of a
    separate percolation at its ``pi``, and the outcomes are nested: a larger
    ``pi`` keeps a superset of the edges (and deletes a subset of the
    vertices).  Every ``pi`` is checked before the draw.
    """
    pis = [check_pi(pi) for pi in pis]
    site = check_mode(mode) == "site"
    u = rng.random(g.n if site else g.m)
    for pi in pis:
        survives = u < pi
        # an edge survives site percolation while both of its endpoints do
        keep = survives[g.src] & survives[g.dst] if site else survives
        deleted = np.flatnonzero(~survives) if site else np.empty(0, dtype=np.int64)
        percolated = Digraph._from_arrays(g.n, g.src[keep], g.dst[keep])
        yield PercolationOutcome(percolated, mode, pi, deleted)


def bond_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Keep each edge independently with probability ``pi``; vertices unchanged."""
    return next(percolate_grid(g, "bond", (pi,), rng))


def site_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Delete each vertex with probability 1 - pi; drop all incident edges.

    Deleted vertices remain in the vertex set with degree (0, 0).
    """
    return next(percolate_grid(g, "site", (pi,), rng))


# The one map from a mode to its function; the config and the CLI accept its keys.
PERCOLATE = {"bond": bond_percolate, "site": site_percolate}
