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

from .components import strongly_connected_components
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


def _draw(g: Digraph, mode: str, pis: Iterable[float], rng: np.random.Generator):
    """Check every ``pi`` and the mode, then draw one uniform per vertex (site) or edge (bond)."""
    pis = [check_pi(pi) for pi in pis]
    site = check_mode(mode) == "site"
    return pis, site, rng.random(g.n if site else g.m)


def percolate_grid(
    g: Digraph, mode: str, pis: Iterable[float], rng: np.random.Generator
) -> Iterator[tuple[float, int, int, int]]:
    """Yield ``(pi, surviving_edges, deleted, largest_scc)``, from the largest ``pi`` down.

    One draw, as in :func:`bond_percolate` or :func:`site_percolate`, serves
    every ``pi``: each ``pi`` has the law of a separate percolation, and the
    percolated graphs are nested, so every strong component at a ``pi`` lies
    inside one at the next larger ``pi``.  Each ``pi`` thus searches only the
    edges inside the previous one's components of two or more vertices.
    Every ``pi`` is checked before the draw.
    """
    pis, site, u = _draw(g, mode, pis, rng)
    # an edge survives site percolation while both endpoints do: while their larger uniform does
    w = np.maximum(u[g.src], u[g.dst]) if site else u
    n, src, dst, cw, part = g.n, g.src, g.dst, w, None
    for pi in sorted(pis, reverse=True):
        if part is not None:
            labels = part.component_id
            inner = part.component_sizes[labels] >= 2
            stay = (labels[src] == labels[dst]) & inner[src]
            index = np.cumsum(inner) - 1  # the kept vertices' new ids
            n, src, dst, cw = int(inner.sum()), index[src[stay]], index[dst[stay]], cw[stay]
        keep = cw < pi
        src, dst, cw = src[keep], dst[keep], cw[keep]
        part = strongly_connected_components(Digraph._from_arrays(n, src, dst))
        deleted = int(np.count_nonzero(u >= pi)) if site else 0
        yield pi, int(np.count_nonzero(w < pi)), deleted, max(part.largest[1], min(g.n, 1))


def _percolate(g: Digraph, mode: str, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    (pi,), site, u = _draw(g, mode, (pi,), rng)
    survives = u < pi
    del u  # release the draw before the percolated arrays are allocated
    keep = survives[g.src] & survives[g.dst] if site else survives
    deleted = np.flatnonzero(~survives) if site else np.empty(0, dtype=np.int64)
    return PercolationOutcome(Digraph._from_arrays(g.n, g.src[keep], g.dst[keep]), mode, pi, deleted)


def bond_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Keep each edge independently with probability ``pi``; vertices unchanged."""
    return _percolate(g, "bond", pi, rng)


def site_percolate(g: Digraph, pi: float, rng: np.random.Generator) -> PercolationOutcome:
    """Delete each vertex with probability 1 - pi; drop all incident edges.

    Deleted vertices remain in the vertex set with degree (0, 0).
    """
    return _percolate(g, "site", pi, rng)


# The one map from a mode to its function; the config and the CLI accept its keys.
PERCOLATE = {"bond": bond_percolate, "site": site_percolate}
