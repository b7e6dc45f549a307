"""Directed configuration model: uniform stub matchings and uniform simple digraphs.

Given a valid degree sequence, each vertex v contributes d_in(v) in-stubs and
d_out(v) out-stubs.  A configuration is a uniformly random perfect bipartite
matching of the m out-stubs with the m in-stubs; it induces a multigraph whose
probability is

    P(G) = (1 / m!) * prod_v d_in(v)! * prod_v d_out(v)! / prod_{i,j} mult(i,j)!

where mult(i,j) is the multiplicity of edge (i, j).  Conditioning on the
outcome being simple yields the uniform distribution over simple digraphs
with that degree sequence, which is what :func:`sample_simple` produces.

Self-loops and doubled edges are not rejected by redrawing.  Each loop, and
then each double, is removed by a switching with forward and backward
rejection (McKay & Wormald, "Uniform generation of random regular graphs of
moderate degree", J. Algorithms 11, 1990), whose backward count is split into
two cheap stages (incremental relaxation: Arman, Gao & Wormald, "Fast uniform
generation of random graphs with given degree sequences", FOCS 2019).  Every
loop step maps the uniform law on matchings with k loops to the uniform law on
those with k - 1, and every double step does the same for loop-free matchings
without triple edges and with k doubles, so the simple result is uniform.
One driver runs both kinds, and one rule gives both caps ``max_loops`` and
``max_doubles``: the largest counts whose switchings keep the closed-form
minima of the backward counts positive.  Only draws with an edge repeated
three times, more loops or doubles than their cap, or a rejected switching
are redrawn.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter

import numpy as np

from .degrees import (
    INT64_MAX,
    DegreeDistribution,
    DegreeSequence,
    exact_sum,
    int_arrays,
    is_graphical,
    read_rows,
    require_valid,
    write_int_rows,
)
from .errors import (
    AttemptsExhaustedError,
    DistributionFormatError,
    NotGraphicalError,
    ZeroMeanDegreeError,
)

__all__ = [
    "Digraph",
    "sample_configuration",
    "sample_simple",
    "simple_probability",
    "read_edge_list",
    "write_edge_list",
]


class Digraph:
    """Immutable digraph: ``n`` vertices, parallel ``src``/``dst`` edge arrays.

    The constructor copies ``src`` and ``dst`` and checks that ``n`` and the
    endpoints are integers and every endpoint lies in [0, n).  Self-loops and
    parallel edges are representable; ``simple`` is computed lazily and cached.
    """

    def __init__(self, n: int, src, dst):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        src, dst = int_arrays(src, dst, "src and dst")
        if src.size and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
            raise ValueError("edge endpoints must lie in [0, n)")
        self._init_arrays(n, src, dst)

    @classmethod
    def _from_arrays(cls, n: int, src, dst) -> "Digraph":
        """Wrap int64 arrays in [0, n) that the library built itself (not copied)."""
        obj = cls.__new__(cls)
        obj._init_arrays(n, src, dst)
        return obj

    def _init_arrays(self, n, src, dst):
        src.setflags(write=False)
        dst.setflags(write=False)
        self.n = int(n)
        self.src = src
        self.dst = dst

    @property
    def m(self) -> int:
        return self.src.size

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    @functools.cached_property
    def simple(self) -> bool:
        if (self.src == self.dst).any():
            return False
        return not _repeated_edges(self.src, self.dst, self.n)[0].size

    def degree_sequence(self) -> DegreeSequence:
        ins = np.bincount(self.dst, minlength=self.n)
        outs = np.bincount(self.src, minlength=self.n)
        return DegreeSequence.from_arrays(ins, outs)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def _repeated_edges(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Keys ``src * n + dst`` of the repeated edges, and whether one repeats three times.

    One sort of the m keys; each key appears once per extra copy of its edge.
    """
    key = np.sort(src * np.int64(n) + dst)
    hits = np.flatnonzero(key[1:] == key[:-1])
    return key[hits], hits.size > 1 and bool((np.diff(hits) == 1).any())


class _Stubs:
    """Stub owners of a sequence and the constants of its two switchings.

    Slot j pairs in-stub j, owned by ``in_owner[j]`` (canonical vertex order,
    so vertex w owns slots ``in_start[w]:in_start[w + 1]``), with an out-stub
    of the vertex a matching puts at ``src[j]``.  ``max_loops`` and
    ``max_doubles`` are the caps :func:`_cap` derives from ``bounds`` and
    ``double_bounds``; the bounds are Python ints.
    """

    def __init__(self, seq: DegreeSequence):
        self.n = seq.n
        vertices = np.arange(seq.n, dtype=np.int64)
        self.in_owner = np.repeat(vertices, seq.in_degrees)
        self.out_owner = np.repeat(vertices, seq.out_degrees)
        self.in_owner.setflags(write=False)
        self.out_owner.setflags(write=False)
        self.in_start = np.concatenate(([0], np.cumsum(seq.in_degrees)))
        self.d_in = d_in = seq.in_degrees
        self.d_out = d_out = seq.out_degrees
        self.m = m = seq.m
        self.m11 = m11 = exact_sum(d_in, d_out)
        self.span = int((d_in + d_out).max()) if seq.n else 0
        self.d_max = seq.d_max
        # ordered pairs of distinct out-stubs (in-stubs) of one vertex: sum d(d - 1)
        self.m2_out = exact_sum(d_out, d_out) - m
        self.m2_in = exact_sum(d_in, d_in) - m
        self.top_in = int(d_in.max()) if seq.n else 0
        self.top_out = int(d_out.max()) if seq.n else 0
        # T1 <= m11 and N3 <= m; A <= m2_out and B <= m2_in
        self.max_loops = _cap(self.bounds, m11 * m)
        self.max_doubles = _cap(self.double_bounds, self.m2_out * self.m2_in)

    def bounds(self, j: int) -> tuple[int, int]:
        """(T1_min, N3_min) over every matching with j loops."""
        return self.m11 - j * self.span, self.m - j - 2 - 2 * self.d_max

    def double_bounds(self, j: int) -> tuple[int, int]:
        """(A_min, B_min) over every loop-free, triple-free matching with j doubles.

        A double at a vertex of degree d costs its ordered single-stub pairs at
        most 4d - 6.  For B, the blocks of a and of its out-neighbours hold at
        most (top_out + 1) top_in (top_in - 1) pairs, and at most
        top_out * top_in slots have a source in {b1} or in-nbrs(b1) other
        than a, each in at most top_in - 1 pairs; the same holds for b2.
        """
        d_in, d_out = self.top_in, self.top_out
        return (
            self.m2_out - j * (4 * d_out - 6),
            self.m2_in - j * (4 * d_in - 6) - d_in * (d_in - 1) * (3 * d_out + 1),
        )


def _cap(bounds, draw_range: int) -> int:
    """Largest defect count k with both minima of ``bounds(k - 1)`` positive,
    or 0 when ``draw_range``, the largest product of the two backward counts,
    does not fit the int64 acceptance draw.  Both minima fall linearly in k,
    by a positive step once they start positive (for doubles, a positive
    bound implies top_out >= 2 and top_in >= 2)."""
    start, next_ = bounds(0), bounds(1)
    if min(start) <= 0 or draw_range > INT64_MAX:
        return 0
    return 1 + min((b - 1) // (b - c) for b, c in zip(start, next_))


def _stubs(seq: DegreeSequence) -> _Stubs:
    # cached on the sequence: repeated sampling from one sequence is common
    cached = getattr(seq, "_stubs", None)
    if cached is None:
        cached = seq._stubs = _Stubs(seq)
    return cached


def _switch_out(kind, stubs: _Stubs, src: np.ndarray, found: np.ndarray, rng) -> bool:
    """Switch every defect in ``found`` out of ``src`` in place; False when
    the draw is rejected.  A step picks an ordering i (``kind.orderings`` per
    defect) of a uniform defect and uniform slots q, s; ``switch(i, q, s)``
    applies it and returns the second backward count, or None to f-reject.
    The step is kept with probability ``(first_min / first) (second_min /
    second)``, the minima (and the cap) named by ``kind.limits``."""
    cap, minima = kind.limits(stubs)
    if found.size > cap:
        return False
    state = kind(stubs, src, found)
    defects = state.defects
    while defects:
        i = int(rng.integers(kind.orderings * len(defects)))
        q, s = rng.integers(stubs.m, size=2).tolist()
        second = state.switch(i, q, s)
        if second is None:
            return False
        defects[i // kind.orderings] = defects[-1]
        defects.pop()
        first_min, second_min = minima(len(defects))
        if rng.integers(state.first * second) >= first_min * second_min:
            return False
    return True


class _LoopRemoval:
    """Loop-removing switchings on one matching ``src`` (McKay & Wormald 1990).

    A switching on loop slot y (v -> v) with non-loop slots q (a1 -> b1) and
    s (a2 -> b2) sets ``src[q], src[s], src[y] = v, a1, a2``: the pairs become
    v -> b1, a1 -> b2 and a2 -> v, one loop fewer.  It needs q != s, b1 != v,
    a2 != v and a1 != b2.  Picking y among the k loops and q, s among all m
    slots uniformly gives every valid switching probability 1 / (k m^2),
    which is the forward rejection.

    The inverse switchings into the result are counted in two stages
    (incremental relaxation, Arman, Gao & Wormald 2019): T1 ways to pick
    (y, q) with ``src[q] == in_owner[y]``, both non-loops, then N3 ways to
    pick s for that (y, q).  Accepting with probability
    ``(T1_min / T1) (N3_min / N3)`` gives every result the same probability,
    so a uniform matching with k loops becomes a uniform one with k - 1.
    """

    orderings = 1
    limits = operator.attrgetter("max_loops", "bounds")

    def __init__(self, stubs: _Stubs, src: np.ndarray, loop_slots: np.ndarray):
        self.stubs = stubs
        self.src = src
        self.defects = loop_slots.tolist()  # first: T1
        self.loops_at = Counter(stubs.in_owner[loop_slots].tolist())
        # T1 = sum_w nlo(w) nli(w), with nlo/nli the out/in stubs of w not in loops
        self.first = stubs.m11 - sum(
            c * int(stubs.d_in[w] + stubs.d_out[w]) - c * c for w, c in self.loops_at.items()
        )

    def _nlo(self, w: int) -> int:
        return int(self.stubs.d_out[w]) - self.loops_at.get(w, 0)

    def _nli(self, w: int) -> int:
        return int(self.stubs.d_in[w]) - self.loops_at.get(w, 0)

    def switch(self, i: int, q: int, s: int) -> int | None:
        """Switch loop ``defects[i]`` with slots q and s; return N3, or None to f-reject."""
        src, in_owner = self.src, self.stubs.in_owner
        y = self.defects[i]
        v = int(in_owner[y])
        a1, b1 = int(src[q]), int(in_owner[q])
        a2, b2 = int(src[s]), int(in_owner[s])
        if q == s or a1 == b1 or a2 == b2 or b1 == v or a2 == v or a1 == b2:
            return None
        src[q], src[s], src[y] = v, a1, a2
        self.first += self._nlo(v) + self._nli(v) + 1
        self.loops_at[v] -= 1
        # N3: non-loop slots s' other than y and q with src[s'] != b1 and
        # in_owner[s'] != a2 (a pair b1 -> a2 is a loop when b1 == a2); y
        # leaves defects only after the switch
        n3 = self.stubs.m + 1 - len(self.defects) - self._nlo(b1) - self._nli(a2)
        if b1 != a2:
            lo, hi = self.stubs.in_start[a2], self.stubs.in_start[a2 + 1]
            n3 += int(np.count_nonzero(src[lo:hi] == b1)) - 2
        return n3


def _lost_pairs(d: int, c: int) -> int:
    """Ordered pairs of distinct single stubs that c doubles take from a vertex of degree d."""
    return d * (d - 1) - (d - 2 * c) * (d - 2 * c - 1)


class _DoubleRemoval:
    """Double-removing switchings on one loop-free, triple-free matching ``src``.

    A switching on a double a -> b at slots y1, y2 (in that order) with single
    edges a1 -> b1 at slot q and a2 -> b2 at slot s sets
    ``src[y1], src[y2], src[q], src[s] = a1, a2, a, a``: the pairs become
    a1 -> b, a2 -> b, a -> b1 and a -> b2, one double fewer.  It needs q != s,
    a1 != a2, b1 != b2, no new loop, and none of the four new pairs an edge
    already.  Picking the ordered double among 2D and q, s among all m slots
    gives every valid switching probability 1 / (2D m^2).

    The inverse switchings into the result are counted in two stages: A ways
    to pick (q, s), distinct single out-slots of one vertex a, then B ways to
    pick (y1, y2) for that (q, s), distinct single in-slots of one vertex b
    with b != a, a -> b not an edge, ``src[y1]`` not in {b1} or in-nbrs(b1),
    and ``src[y2]`` not in {b2} or in-nbrs(b2).  Accepting with probability
    ``(A_min / A) (B_min / B)`` gives every result the same probability.
    """

    orderings = 2
    limits = operator.attrgetter("max_doubles", "double_bounds")

    def __init__(self, stubs: _Stubs, src: np.ndarray, keys: np.ndarray):
        self.stubs = stubs
        self.src = src
        self.defects = []  # (y1, y2) slot pairs; first: A
        for key in keys.tolist():
            a, b = divmod(key, stubs.n)
            lo, hi = stubs.in_start[b], stubs.in_start[b + 1]
            self.defects.append(tuple((lo + np.flatnonzero(src[lo:hi] == a)).tolist()))
        self.paired = {y for pair in self.defects for y in pair}
        self.doubles_from = Counter(int(src[y]) for y, _ in self.defects)
        self.doubles_into = Counter(int(stubs.in_owner[y]) for y, _ in self.defects)
        self.first = stubs.m2_out - sum(
            _lost_pairs(int(stubs.d_out[v]), c) for v, c in self.doubles_from.items()
        )
        self.s2 = stubs.m2_in - sum(  # ordered pairs of single in-slots of one vertex
            _lost_pairs(int(stubs.d_in[v]), c) for v, c in self.doubles_into.items()
        )

    def _is_edge(self, u: int, v: int) -> bool:
        lo, hi = self.stubs.in_start[v], self.stubs.in_start[v + 1]
        return bool((self.src[lo:hi] == u).any())

    def _single_in(self, v: int) -> int:
        return int(self.stubs.d_in[v]) - 2 * self.doubles_into.get(v, 0)

    def switch(self, i: int, q: int, s: int) -> int | None:
        """Switch double ``defects[i // 2]``, its slots swapped when i is odd,
        with slots q and s; return B, or None to f-reject."""
        src, in_owner = self.src, self.stubs.in_owner
        y1, y2 = self.defects[i // 2]
        if i % 2:
            y1, y2 = y2, y1
        a, b = int(src[y1]), int(in_owner[y1])
        a1, b1 = int(src[q]), int(in_owner[q])
        a2, b2 = int(src[s]), int(in_owner[s])
        if (
            q == s
            or q in self.paired
            or s in self.paired
            or a1 == a2
            or b1 == b2
            or b in (a1, a2)
            or a in (b1, b2)
            or self._is_edge(a1, b)
            or self._is_edge(a2, b)
            or self._is_edge(a, b1)
            or self._is_edge(a, b2)
        ):
            return None
        src[y1], src[y2], src[q], src[s] = a1, a2, a, a
        # one double fewer at a vertex with e single stubs adds
        # (e + 2)(e + 1) - e(e - 1) = 4e + 2 ordered pairs of single stubs
        self.first += 4 * (int(self.stubs.d_out[a]) - 2 * self.doubles_from[a]) + 2
        self.s2 += 4 * self._single_in(b) + 2
        self.doubles_from[a] -= 1
        self.doubles_into[b] -= 1
        self.paired -= {y1, y2}
        return self._stage_b(a, b1, b2)

    def _stage_b(self, a: int, b1: int, b2: int) -> int:
        """B for the slots of a -> b1 and a -> b2: one pass over all m sources.

        Per allowed block with s single slots, of which x1 (x2) have a source
        barred for y1 (y2) and x12 for both, the count is
        (s - x1)(s - x2) - (s - x1 - x2 + x12).
        """
        stubs, src = self.stubs, self.src
        barred = np.zeros(stubs.n, dtype=np.int8)  # bit 1: y1, bit 2: y2, 4: a
        for bit, v in ((1, b1), (2, b2)):
            barred[src[stubs.in_start[v] : stubs.in_start[v + 1]]] |= bit
            barred[v] |= bit
        barred[a] = 4  # a's out-slots lie in its out-neighbours' blocks
        hits = np.flatnonzero(barred[src] != 0)  # a bool array scans faster than int8
        heads = stubs.in_owner[hits].tolist()
        marks = barred[src[hits]].tolist()
        excluded = {a}.union(w for w, mark in zip(heads, marks) if mark == 4)
        x1, x2, x12 = Counter(), Counter(), Counter()
        for y, w, mark in zip(hits.tolist(), heads, marks):
            if w not in excluded and y not in self.paired:
                x1[w] += mark & 1
                x2[w] += mark >> 1
                x12[w] += mark == 3
        count = self.s2 - sum(s * (s - 1) for s in map(self._single_in, excluded))
        for w in x1:
            s = self._single_in(w)
            count += x1[w] * x2[w] - x12[w] - (s - 1) * (x1[w] + x2[w])
        return count


def sample_configuration(seq: DegreeSequence, rng: np.random.Generator) -> Digraph:
    """Sample the multigraph induced by a uniform perfect stub matching.

    The out-stub owner array is shuffled (Fisher-Yates via the generator's
    ``permutation``) against the in-stub owners kept in canonical vertex
    order, which makes all m! matchings equally likely.
    """
    require_valid(seq)
    stubs = _stubs(seq)
    out_owner = stubs.out_owner
    # numpy would shuffle an empty input in place, and out_owner is read-only
    src = rng.permutation(out_owner) if out_owner.size else out_owner
    return Digraph._from_arrays(seq.n, src, stubs.in_owner)


def sample_simple(
    seq: DegreeSequence,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> tuple[Digraph, int]:
    """Sample a uniform simple digraph with degree sequence ``seq``.

    Each attempt draws a uniform configuration.  Its self-loops, then its
    doubled edges, if few enough for the switching bounds of the sequence to
    hold, are removed by exact switchings, which keep the matching uniform or
    reject the draw; a draw with an edge repeated three times is rejected.
    Returns the graph together with the number of configuration draws used.

    Raises
    ------
    NotGraphicalError
        If no simple digraph realizes ``seq`` (checked before sampling).
    AttemptsExhaustedError
        If ``max_attempts`` configuration draws were all rejected.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if not is_graphical(seq):
        raise NotGraphicalError("sequence is not realizable by a simple digraph")
    n = seq.n
    stubs = _stubs(seq)
    in_owner, out_owner = stubs.in_owner, stubs.out_owner
    for attempt in range(1, max_attempts + 1):
        src = rng.permutation(out_owner) if out_owner.size else out_owner
        loops = np.flatnonzero(src == in_owner)
        if loops.size and not _switch_out(_LoopRemoval, stubs, src, loops, rng):
            continue
        keys, triple = _repeated_edges(src, in_owner, n)
        if not keys.size or (not triple and _switch_out(_DoubleRemoval, stubs, src, keys, rng)):
            return Digraph._from_arrays(n, src, in_owner), attempt
    raise AttemptsExhaustedError(max_attempts)


def simple_probability(dist: DegreeDistribution, formula: str) -> float:
    """Asymptotic probability that a configuration on ``dist`` is simple.

    Two variants of the second exponent term are exposed:

    - ``"as_printed"``: exp(-mu11/mu - (mu20 - mu)(mu02 - mu)/mu)
    - ``"standard"``:   exp(-mu11/mu - (mu20 - mu)(mu02 - mu)/(2 mu^2))

    The first term counts expected self-loops, the second expected duplicate
    edge pairs; the acceptance rate of plain configuration draws decides
    between the variants empirically (see the acceptance suite).  The draw
    count of :func:`sample_simple` no longer follows it once the sequence
    allows switchings (``max_loops`` or ``max_doubles`` above 0): switched
    loops and doubles cost no redraw.
    """
    if formula not in ("as_printed", "standard"):
        raise ValueError(f"formula must be 'as_printed' or 'standard', got {formula!r}")
    mu = dist.mu
    if mu <= 0.0:
        raise ZeroMeanDegreeError("mean degree is zero; acceptance rate undefined")
    loops = dist.mu11 / mu
    pairs = (dist.mu20 - mu) * (dist.mu02 - mu)
    if formula == "as_printed":
        return math.exp(-loops - pairs / mu)
    return math.exp(-loops - pairs / (2.0 * mu * mu))


# ----- edge-list text format ------------------------------------------------


def write_edge_list(g: Digraph, path, seed=None, comments: list[str] | None = None) -> None:
    """Write one `source target` line per edge with a `# n= m= seed=` header.

    ``path`` may be a filesystem path or an open text stream.
    """

    def emit(fh):
        seed_txt = "none" if seed is None else str(seed)
        fh.write(f"# n={g.n} m={g.m} seed={seed_txt}\n")
        for extra in comments or []:
            fh.write(f"# {extra}\n")
        write_int_rows(fh, g.src, g.dst)

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh)


_EDGE_ROWS = np.dtype([("source", np.int64), ("target", np.int64)])


def read_edge_list(path) -> Digraph:
    """Read the edge-list format; vertex count comes from the `n=` header.

    Files without a header are accepted with n inferred as max vertex id + 1.
    A header `n=` or `m=` that is not an integer, an `m=` other than the
    number of edges read, an `n=` that is negative or not above every
    endpoint, a negative endpoint, or an edge line that is not two integers
    (a trailing ``#`` comment is allowed) raises
    :class:`DistributionFormatError`.
    """
    edges = read_rows(path, _EDGE_ROWS)
    header = _header_counts(path)
    m = len(edges)
    if header.get("m", m) != m:
        raise DistributionFormatError(f"{path}: header says m={header['m']}, read {m} edges")
    src, dst = edges["source"], edges["target"]
    n = header.get("n")
    if n is None:
        n = int(max(src.max(), dst.max())) + 1 if m else 0
    try:
        return Digraph(n, src, dst)
    except ValueError as exc:
        raise DistributionFormatError(f"{path}: {exc}") from exc


def _header_counts(path) -> dict[str, int]:
    """`n=` and `m=` tokens of the whole-line `#` comments (a later one wins);
    the bytes are searched for ``#`` and only the lines that hold one decoded."""
    with open(path, "rb") as fh:
        data = fh.read()
    header: dict[str, int] = {}
    hit = data.find(b"#")
    while hit >= 0:
        start = data.rfind(b"\n", 0, hit) + 1
        end = data.find(b"\n", hit)
        end = len(data) if end < 0 else end
        before, _, comment = data[start:end].decode("utf-8").partition("#")
        if not before.strip():
            for token in comment.split():
                key, sep, value = token.partition("=")
                if sep and key in ("n", "m"):
                    try:
                        header[key] = int(value)
                    except ValueError as exc:
                        lineno = data.count(b"\n", 0, start) + 1
                        raise DistributionFormatError(f"{path}:{lineno}: {exc}") from exc
        hit = data.find(b"#", end)
    return header
