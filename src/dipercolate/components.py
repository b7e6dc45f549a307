"""Strongly connected components.

Two vertices share a component iff directed paths exist in both directions.
The partition is computed by scipy's compiled SCC routine (Tarjan-style,
O(n + m), no Python recursion), after collapsing parallel edges into a
sparse adjacency structure; multiplicities and self-loops cannot change
reachability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .configmodel import Digraph
from .degrees import write_int_rows

__all__ = [
    "SccPartition",
    "strongly_connected_components",
    "write_labels",
]


@dataclass(frozen=True, eq=False)
class SccPartition:
    """Partition of the vertex set into strongly connected components.

    Attributes
    ----------
    component_id : ndarray of int, read-only
        Component label per vertex.
    component_sizes : ndarray of int, read-only
        Size per label (indexed by label).
    """

    component_id: np.ndarray
    component_sizes: np.ndarray

    def __post_init__(self):
        self.component_id.setflags(write=False)
        self.component_sizes.setflags(write=False)

    @property
    def count(self) -> int:
        return self.component_sizes.size

    @property
    def largest(self) -> tuple[int, int]:
        """(label, size) of a largest component; ties break to the lowest label."""
        if not self.component_sizes.size:
            return (-1, 0)
        label = int(np.argmax(self.component_sizes))
        return (label, int(self.component_sizes[label]))


def strongly_connected_components(g: Digraph) -> SccPartition:
    """Label every vertex with its strongly connected component."""
    if g.n == 0:
        return SccPartition(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64))
    # from COO pairs, so repeated edges are summed and scipy gets a canonical CSR
    data = np.ones(g.m, dtype=np.int8)
    adjacency = csr_matrix((data, (g.src, g.dst)), shape=(g.n, g.n))
    ncomp, labels = connected_components(
        adjacency, directed=True, connection="strong"
    )
    sizes = np.bincount(labels, minlength=ncomp)
    return SccPartition(labels, sizes)


def write_labels(partition: SccPartition, path) -> None:
    """Write one `vertex label` line per vertex (``dipercolate scc --labels-out``)."""
    labels = partition.component_id
    with open(path, "w", encoding="utf-8") as fh:
        write_int_rows(fh, np.arange(labels.size), labels)
