"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: components come from
a boolean-matrix reachability closure or from forward and backward BFS,
configuration-model probabilities from explicit enumeration of all m! stub
matchings or from the exact rational closed form, graphicality from
exhaustive search over all simple digraphs on labeled vertices or from one
Fulkerson-Chen-Anstee inequality at a time, degree-sum repair from one
redraw at a time, and generating functions from direct summation.  The remaining helpers view a
graph as a list of edges or a degree distribution as a ``{(j, k): p}`` dict,
compare two distributions, or write a distribution or a sequence out.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from dipercolate.degrees import write_int_rows


def configuration_outcome_counts(in_degrees, out_degrees):
    """Enumerate all m! stub matchings; count how many induce each multigraph.

    Returns (counts, m!) where counts maps a sorted edge tuple to the number
    of distinct matchings inducing it.  Only usable for tiny m.
    """
    in_owner = [v for v, d in enumerate(in_degrees) for _ in range(d)]
    out_owner = [v for v, d in enumerate(out_degrees) for _ in range(d)]
    m = len(in_owner)
    assert m == len(out_owner) <= 8, "oracle is for tiny instances"
    counts: dict[tuple, int] = {}
    for perm in itertools.permutations(range(m)):
        sig = tuple(sorted((out_owner[j], in_owner[i]) for i, j in enumerate(perm)))
        counts[sig] = counts.get(sig, 0) + 1
    return counts, math.factorial(m)


def mutual_reachability_labels(n, src, dst):
    """SCC labels from the transitive closure (boolean matrix squaring)."""
    if n == 0:
        return []
    reach = np.eye(n, dtype=bool)
    reach[np.asarray(src, dtype=int), np.asarray(dst, dtype=int)] = True
    # loopless diagonal re-set by eye above; squaring log2(n) times closes paths
    for _ in range(max(1, int(math.ceil(math.log2(n))) + 1)):
        reach = reach | (reach @ reach)
    mutual = reach & reach.T
    labels = []
    seen: dict[bytes, int] = {}
    for v in range(n):
        key = mutual[v].tobytes()
        labels.append(seen.setdefault(key, len(seen)))
    return labels


class VertexOutOfRangeError(IndexError):
    """Vertex id outside [0, n)."""


def strong_component_of(g, v):
    """Vertices reachable from ``v`` in both directions (including ``v``).

    Computed as the intersection of forward and backward BFS reachability,
    independently of the partition routine.
    """
    if not 0 <= v < g.n:
        raise VertexOutOfRangeError(f"vertex {v} outside [0, {g.n})")
    adj = csr_matrix((np.ones(g.m, dtype=np.int8), (g.src, g.dst)), shape=(g.n, g.n))
    forward = breadth_first_order(adj, v, directed=True, return_predecessors=False)
    backward = breadth_first_order(adj.T, v, directed=True, return_predecessors=False)
    return set(np.intersect1d(forward, backward).tolist())


def pgf_eval(dist, x, y):
    """Evaluate U(x, y) = sum p[j,k] x^j y^k for x, y in [0, 1]."""
    for name, value in (("x", x), ("y", y)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(np.sum(dist.ps * x**dist.js * y**dist.ks))


def canonical_labels(labels):
    """Relabel a partition by first appearance so partitions compare equal."""
    remap: dict = {}
    return tuple(remap.setdefault(l, len(remap)) for l in labels)


def simple_digraph_profiles(n):
    """All ordered degree profiles realizable by a simple digraph on n vertices.

    Enumerates every subset of the n(n-1) ordered non-loop pairs; profiles
    are tuples of (in, out) per vertex.
    """
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    profiles = set()
    for bits in range(1 << len(pairs)):
        ins = [0] * n
        outs = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if bits >> idx & 1:
                outs[u] += 1
                ins[v] += 1
        profiles.add(tuple(zip(ins, outs)))
    return profiles


def fulkerson_chen_anstee_loop(in_degrees, out_degrees):
    """Graphicality by evaluating each Fulkerson-Chen-Anstee inequality k <= d_max + 1
    in turn on the sequence sorted in nonincreasing (in, out) order."""
    pairs = sorted(zip(in_degrees, out_degrees), reverse=True)
    n = len(pairs)
    d_max = max((max(p) for p in pairs), default=0)
    if d_max >= n > 0:
        return False
    for k in range(1, min(n, d_max + 1) + 1):
        lhs = sum(a for a, _ in pairs[:k])
        rhs = sum(min(b, k - 1) for _, b in pairs[:k]) + sum(min(b, k) for _, b in pairs[k:])
        if lhs > rhs:
            return False
    return True


def replay_redraws(ins, outs, diff, vertices, new_in, new_out):
    """Degree-sum repair one redraw at a time: vertex ``vertices[t]`` takes the pair
    ``(new_in[t], new_out[t])`` until the imbalance ``diff`` (in-sum minus
    out-sum) is 0.  Updates ``ins`` and ``outs`` in place; returns the number
    of redraws used and the imbalance left.
    """
    for t, v in enumerate(vertices.tolist()):
        diff += int(new_in[t] - new_out[t]) - int(ins[v] - outs[v])
        ins[v] = new_in[t]
        outs[v] = new_out[t]
        if diff == 0:
            return t + 1, 0
    return len(vertices), diff


def valid_sequences(n, deg_max, m_max=None):
    """All valid ordered degree sequences on n vertices with entries <= deg_max."""
    degree_pairs = list(itertools.product(range(deg_max + 1), repeat=2))
    for combo in itertools.product(degree_pairs, repeat=n):
        in_sum = sum(p[0] for p in combo)
        if in_sum != sum(p[1] for p in combo):
            continue
        if m_max is not None and in_sum > m_max:
            continue
        yield combo


def iterate_scalar_map(fn, x0=0.0, tol=1e-15, max_iters=10**7):
    """Plain fixed-point iteration, independent of the library's solver."""
    x = x0
    for _ in range(max_iters):
        nxt = fn(x)
        if abs(nxt - x) < tol:
            return nxt
        x = nxt
    return x


def random_balanced_table(rng, max_degree=5, points=6):
    """Random sparse probability table symmetrized to equal in/out means."""
    size = max_degree + 1
    table = np.zeros((size, size))
    js = rng.integers(0, size, size=points)
    ks = rng.integers(0, size, size=points)
    table[js, ks] += rng.random(points)
    table = (table + table.T) / (2.0 * table.sum())
    return {
        (j, k): table[j, k]
        for j in range(size)
        for k in range(size)
        if table[j, k] > 0
    }


def bond_table_outer_sum(dist, pi):
    """Bond-thinned table p_bond[j, k]: one binomial outer product per support point."""
    from scipy import stats

    table = np.zeros((dist.max_in + 1, dist.max_out + 1))
    for j, k, p in zip(dist.js.tolist(), dist.ks.tolist(), dist.ps.tolist()):
        rows_in = stats.binom.pmf(np.arange(j + 1), j, pi)
        rows_out = stats.binom.pmf(np.arange(k + 1), k, pi)
        table[: j + 1, : k + 1] += p * np.outer(rows_in, rows_out)
    return table


def edges(g):
    """The edges of ``g`` as a list of ``(source, target)`` tuples, in slot order."""
    return list(zip(g.src.tolist(), g.dst.tolist()))


def edge_multiplicities(g):
    """Number of parallel copies of each edge ``(source, target)`` of ``g``."""
    mult: dict[tuple[int, int], int] = {}
    for e in edges(g):
        mult[e] = mult.get(e, 0) + 1
    return mult


def matching_probability(g, seq):
    """Exact probability that a uniform configuration on ``seq`` induces ``g``:

        P(G) = prod_v d_in(v)! prod_v d_out(v)! / (m! prod_{i,j} mult(i,j)!)

    ``g`` must realize ``seq``.
    """
    m = seq.m
    mults = [c for c in edge_multiplicities(g).values() if c > 1]
    num = 1
    for d in seq.in_degrees.tolist():
        num *= math.factorial(d)
    for d in seq.out_degrees.tolist():
        num *= math.factorial(d)
    den = math.factorial(m)
    for c in mults:
        den *= math.factorial(c)
    return Fraction(num, den)


def support(dist):
    """The table of ``dist`` as a ``{(j, k): p}`` dict."""
    return {(int(j), int(k)): float(p) for j, k, p in zip(dist.js, dist.ks, dist.ps)}


def total_variation(a, b):
    """Total-variation distance (1/2) sum |a[j,k] - b[j,k]| over the union support."""
    a, b = support(a), support(b)
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(jk, 0.0) - b.get(jk, 0.0)) for jk in keys)


def write_sequence(seq, path):
    """Write ``seq`` in the `d_in d_out` format that ``read_sequence`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        write_int_rows(fh, seq.in_degrees, seq.out_degrees)


def write_distribution(dist, path):
    """Write ``dist`` in the `j k p` format that ``read_distribution`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# j k p\n")
        for (j, k), p in sorted(support(dist).items()):
            fh.write(f"{j} {k} {p!r}\n")
