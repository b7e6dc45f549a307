"""Directed configuration model: uniform stub matchings and simple-graph rejection.

Given a valid degree sequence, each vertex v contributes d_in(v) in-stubs and
d_out(v) out-stubs.  A configuration is a uniformly random perfect bipartite
matching of the m out-stubs with the m in-stubs; it induces a multigraph whose
probability is

    P(G) = (1 / m!) * prod_v d_in(v)! * prod_v d_out(v)! / prod_{i,j} mult(i,j)!

where mult(i,j) is the multiplicity of edge (i, j).  Conditioning on the
outcome being simple yields the uniform distribution over simple digraphs
with that degree sequence, which is what :func:`sample_simple` implements by
rejection.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .degrees import (
    DegreeDistribution,
    DegreeSequence,
    is_graphical,
    read_int_rows,
    require_valid,
    write_int_rows,
)
from .errors import (
    AttemptsExhaustedError,
    DegreeMismatchError,
    DistributionFormatError,
    NotGraphicalError,
    ZeroMeanDegreeError,
)

__all__ = [
    "Digraph",
    "sample_configuration",
    "matching_probability",
    "sample_simple",
    "simple_probability",
    "read_edge_list",
    "write_edge_list",
]

# Exact rational arithmetic is reserved for tiny instances; factorials at
# m > 20 would be pointless to keep exact.
EXACT_PROBABILITY_MAX_EDGES = 20


class Digraph:
    """Immutable digraph: ``n`` vertices, parallel ``src``/``dst`` edge arrays.

    Self-loops and parallel edges are representable; ``simple`` is computed
    lazily and cached.
    """

    def __init__(
        self,
        n: int,
        src,
        dst,
        copy: bool = True,
        simple: bool | None = None,
        check: bool = True,
    ):
        if n < 0:
            raise ValueError("n must be nonnegative")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if copy:
            src, dst = src.copy(), dst.copy()
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-d arrays of equal length")
        # check=False skips the bounds scan for arrays that are in-range by
        # construction (sampler and percolation internals)
        if check and src.size and (
            src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
        ):
            raise ValueError("edge endpoints must lie in [0, n)")
        src.setflags(write=False)
        dst.setflags(write=False)
        self.n = int(n)
        self.src = src
        self.dst = dst
        self._simple = simple

    @property
    def m(self) -> int:
        return self.src.size

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    @property
    def simple(self) -> bool:
        if self._simple is None:
            self._simple = _edges_are_simple(self.src, self.dst, self.n)
        return self._simple

    def degree_sequence(self) -> DegreeSequence:
        ins = np.bincount(self.dst, minlength=self.n)
        outs = np.bincount(self.src, minlength=self.n)
        return DegreeSequence.from_arrays(ins, outs)

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        mult: dict[tuple[int, int], int] = {}
        for e in zip(self.src.tolist(), self.dst.tolist()):
            mult[e] = mult.get(e, 0) + 1
        return mult

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def _edges_are_simple(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    if (src == dst).any():
        return False
    key = np.sort(src * np.int64(n) + dst)
    return bool((key[1:] != key[:-1]).all())


def _stub_owners(seq: DegreeSequence):
    # cached on the sequence: repeated sampling from one sequence is common
    cached = getattr(seq, "_stub_owners", None)
    if cached is None:
        vertices = np.arange(seq.n, dtype=np.int64)
        in_owner = np.repeat(vertices, seq.in_degrees)
        out_owner = np.repeat(vertices, seq.out_degrees)
        in_owner.setflags(write=False)
        out_owner.setflags(write=False)
        cached = (in_owner, out_owner)
        seq._stub_owners = cached
    return cached


def sample_configuration(seq: DegreeSequence, rng: np.random.Generator) -> Digraph:
    """Sample the multigraph induced by a uniform perfect stub matching.

    The out-stub owner array is shuffled (Fisher-Yates via the generator's
    ``permutation``) against the in-stub owners kept in canonical vertex
    order, which makes all m! matchings equally likely.
    """
    require_valid(seq)
    in_owner, out_owner = _stub_owners(seq)
    src = rng.permutation(out_owner) if out_owner.size else out_owner
    return Digraph(seq.n, src, in_owner, copy=False, check=False)


def matching_probability(g: Digraph, seq: DegreeSequence):
    """Probability that a uniform configuration on ``seq`` induces exactly ``g``.

    Returns an exact :class:`fractions.Fraction` when m <= 20, a float
    otherwise.

    Raises
    ------
    DegreeMismatchError
        If ``g`` does not realize ``seq``.
    """
    require_valid(seq)
    if g.n != seq.n:
        raise DegreeMismatchError(f"graph has {g.n} vertices, sequence {seq.n}")
    profile = g.degree_sequence()
    if profile != seq:
        raise DegreeMismatchError("graph degree profile does not match sequence")
    m = seq.m
    mults = [c for c in g.edge_multiplicities().values() if c > 1]
    if m <= EXACT_PROBABILITY_MAX_EDGES:
        num = 1
        for d in seq.in_degrees.tolist():
            num *= math.factorial(d)
        for d in seq.out_degrees.tolist():
            num *= math.factorial(d)
        den = math.factorial(m)
        for c in mults:
            den *= math.factorial(c)
        return Fraction(num, den)
    log_p = -math.lgamma(m + 1)
    for d in seq.in_degrees.tolist():
        log_p += math.lgamma(d + 1)
    for d in seq.out_degrees.tolist():
        log_p += math.lgamma(d + 1)
    for c in mults:
        log_p -= math.lgamma(c + 1)
    return math.exp(log_p)


def sample_simple(
    seq: DegreeSequence,
    rng: np.random.Generator,
    max_attempts: int = 1000,
) -> tuple[Digraph, int]:
    """Sample a uniform simple digraph with degree sequence ``seq`` by rejection.

    Returns the graph together with the number of configuration draws used.

    Raises
    ------
    NotGraphicalError
        If no simple digraph realizes ``seq`` (checked before sampling).
    AttemptsExhaustedError
        If ``max_attempts`` configurations were all non-simple.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if not is_graphical(seq):
        raise NotGraphicalError("sequence is not realizable by a simple digraph")
    n = seq.n
    in_owner, out_owner = _stub_owners(seq)
    for attempt in range(1, max_attempts + 1):
        src = rng.permutation(out_owner) if out_owner.size else out_owner
        if _edges_are_simple(src, in_owner, n):
            return Digraph(n, src, in_owner, copy=False, simple=True, check=False), attempt
    raise AttemptsExhaustedError(max_attempts)


def simple_probability(dist: DegreeDistribution, formula: str) -> float:
    """Asymptotic probability that a configuration on ``dist`` is simple.

    Two variants of the second exponent term are exposed:

    - ``"as_printed"``: exp(-mu11/mu - (mu20 - mu)(mu02 - mu)/mu)
    - ``"standard"``:   exp(-mu11/mu - (mu20 - mu)(mu02 - mu)/(2 mu^2))

    The first term counts expected self-loops, the second expected duplicate
    edge pairs; the Monte Carlo acceptance rate decides between the variants
    empirically (see the acceptance suite).
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


def read_edge_list(path) -> Digraph:
    """Read the edge-list format; vertex count comes from the `n=` header.

    Files without a header are accepted with n inferred as max vertex id + 1.
    A header `n=` or `m=` that is not an integer, an `m=` other than the
    number of edges read, or an edge line that is not two integers (a
    trailing ``#`` comment is allowed) raises :class:`DistributionFormatError`.
    """
    header = _header_counts(path)
    edges = read_int_rows(path, 2, "source target")
    m = len(edges)
    if header.get("m", m) != m:
        raise DistributionFormatError(f"{path}: header says m={header['m']}, read {m} edges")
    n = header.get("n")
    if n is None:
        n = int(edges.max()) + 1 if m else 0
    src, dst = edges.T.copy()
    return Digraph(n, src, dst, copy=False)


def _header_counts(path) -> dict[str, int]:
    """`n=` and `m=` tokens of the whole-line `#` comments (a later one wins)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header: dict[str, int] = {}
    hit = text.find("#")
    while hit >= 0:
        start = text.rfind("\n", 0, hit) + 1
        end = text.find("\n", hit)
        end = len(text) if end < 0 else end
        if not text[start:hit].strip():
            for token in text[hit + 1 : end].split():
                key, sep, value = token.partition("=")
                if sep and key in ("n", "m"):
                    try:
                        header[key] = int(value)
                    except ValueError as exc:
                        lineno = text.count("\n", 0, start) + 1
                        raise DistributionFormatError(f"{path}:{lineno}: {exc}") from exc
        hit = text.find("#", end)
    return header
