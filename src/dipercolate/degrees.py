"""Degree sequences and bivariate degree distributions for digraphs.

A degree sequence assigns each vertex an (in-degree, out-degree) pair; it is
*valid* when the in- and out-sums agree (both equal the edge count m) and
*graphical* when some simple digraph (no self-loops, no parallel edges)
realizes it.  A degree distribution is a sparse probability table p[j, k]
over (in, out) pairs with cached partial moments

    mu_il = sum_{j,k} j^i k^l p[j, k],   i, l in {0, 1, 2},

so mu = mu_10 = mu_01 is the mean degree and mu_11 the mean in*out product.
Directed balance (mu_10 == mu_01) is enforced at construction: a table that
cannot be the limit of valid sequences is rejected rather than silently
repaired.
"""

from __future__ import annotations

import errno
import functools
import itertools
import math
import operator
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import special

from .errors import (
    DistributionFormatError,
    EmptySequenceError,
    ImbalanceError,
    InvalidSequenceError,
    NotGraphicalError,
    RepairFailedError,
)

__all__ = [
    "DegreeSequence",
    "DegreeDistribution",
    "PropernessReport",
    "require_valid",
    "require_balanceable",
    "require_simple_support",
    "is_graphical",
    "empirical_distribution",
    "properness_report",
    "realize_sequence",
    "distribution_from_spec",
    "read_distribution",
    "read_sequence",
    "read_rows",
    "write_int_rows",
]

MOMENT_ORDERS = tuple((i, l) for i in range(3) for l in range(3))

# Tail mass removed when truncating infinite-support families (shared between
# the two marginals, so each keeps all but half of it).
FAMILY_TAIL_MASS = 1e-12

MASS_TOL = 1e-6  # allowed distance of a table's total mass from 1
MAX_REDRAWS_PER_VERTEX = 100  # realize_sequence's repair budget
# redraws realize_sequence proposes at once; larger batches draw more past the
# stop and hold larger temporaries, and were no faster at n = 1e6
_REPAIR_BATCH = 4096
INT64_MAX = 2**63 - 1
MAX_KEY_WIDTH = math.isqrt(INT64_MAX)  # d_max + 1 at which a (j, k) key still fits int64


def exact_sum(*factors: np.ndarray) -> int:
    """Sum of the elementwise product of nonnegative int64 arrays, as a Python int.

    numpy's int64 arithmetic wraps past 2^63 - 1, so when ``size * prod(max)``
    could reach that limit the sum is taken over Python ints instead.
    """
    if factors[0].size and factors[0].size * math.prod(int(f.max()) for f in factors) > INT64_MAX:
        factors = [f.astype(object) for f in factors]
    return int(functools.reduce(operator.mul, factors).sum())


def int_arrays(first, second, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Int64 copies of two 1-d integer arrays of equal length; ValueError
    otherwise (an empty input of any dtype passes)."""
    pair = np.array(first), np.array(second)
    for arr in pair:
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
        if arr.ndim != 1 or arr.shape != pair[0].shape:
            raise ValueError(f"{what} must be 1-d arrays of equal length")
    return tuple(arr.astype(np.int64, copy=False) for arr in pair)


class DegreeSequence:
    """Immutable per-vertex (in-degree, out-degree) pairs.

    Parameters
    ----------
    pairs : iterable of (int, int)
        One (in-degree, out-degree) pair per vertex.

    Attributes
    ----------
    in_degrees, out_degrees : ndarray of int64, read-only
    """

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        arr = np.asarray(list(pairs))
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be (in, out) 2-tuples")
        self._init_arrays(arr[:, 0], arr[:, 1])

    def _init_arrays(self, in_degrees, out_degrees):
        """Copy, check and store the degree arrays."""
        in_degrees, out_degrees = int_arrays(in_degrees, out_degrees, "in/out degrees")
        if in_degrees.size and min(in_degrees.min(), out_degrees.min()) < 0:
            raise ValueError("degrees must be nonnegative")
        in_degrees.setflags(write=False)
        out_degrees.setflags(write=False)
        self.in_degrees = in_degrees
        self.out_degrees = out_degrees
        self._in_sum = exact_sum(in_degrees)
        self._out_sum = exact_sum(out_degrees)

    @functools.cached_property
    def _graphical(self) -> bool:
        return _fulkerson_chen_anstee(self)

    @classmethod
    def from_arrays(cls, in_degrees, out_degrees) -> "DegreeSequence":
        """Build a sequence from separate in/out degree arrays (copied)."""
        obj = cls.__new__(cls)
        obj._init_arrays(in_degrees, out_degrees)
        return obj

    @property
    def n(self) -> int:
        return self.in_degrees.size

    @property
    def in_sum(self) -> int:
        return self._in_sum

    @property
    def out_sum(self) -> int:
        return self._out_sum

    @property
    def m(self) -> int:
        """Edge count; equals the in-degree sum (== out-degree sum when valid)."""
        return self._in_sum

    @property
    def d_max(self) -> int:
        if self.n == 0:
            return 0
        return int(max(self.in_degrees.max(), self.out_degrees.max()))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return np.array_equal(self.in_degrees, other.in_degrees) and np.array_equal(
            self.out_degrees, other.out_degrees
        )

    def __repr__(self) -> str:
        return f"DegreeSequence(n={self.n}, m={self.m}, d_max={self.d_max})"


def require_valid(seq: DegreeSequence) -> None:
    """Raise :class:`InvalidSequenceError` unless the in- and out-degree sums agree."""
    if seq.in_sum != seq.out_sum:
        raise InvalidSequenceError(
            f"in-degree sum {seq.in_sum} != out-degree sum {seq.out_sum}"
        )


def is_graphical(seq: DegreeSequence) -> bool:
    """Decide whether a simple digraph (loopless, no parallel edges) realizes ``seq``.

    Uses the Fulkerson-Chen-Anstee inequalities on the sequence sorted in
    nonincreasing lexicographic order (in-degree first, out-degree second):
    for every prefix length k,

        sum_{i<=k} d_in[i] <= sum_{i<=k} min(d_out[i], k-1)
                              + sum_{i>k} min(d_out[i], k).

    Inequalities with k > d_max + 1 hold automatically (every min() saturates
    at d_out), so only k <= d_max + 1 are evaluated, all at once in O(n): the
    left side needs only the top d_max + 1 vertices in that order, and the
    right side is sum_i min(d_out[i], k) - #{i < k : d_out[i] >= k}, the first
    term from one count of the out-degrees.

    Raises
    ------
    InvalidSequenceError
        If the in- and out-degree sums differ.
    """
    require_valid(seq)
    return seq._graphical


def _fulkerson_chen_anstee(seq: DegreeSequence) -> bool:
    n = seq.n
    if n == 0:
        return True
    width = seq.d_max + 1  # inequalities k = 1..width; keys below width**2 <= n**2 fit int64
    if width > n:
        return False
    keys = seq.in_degrees * width + seq.out_degrees
    # the first `width` vertices in nonincreasing (in, out) order
    top = np.sort(np.partition(keys, n - width)[n - width :])[::-1]
    a, b = np.divmod(top, width)
    # sum_i min(d_out[i], k) = sum_{t=1..k} #{i : d_out[i] >= t}
    saturated = np.cumsum(n - np.cumsum(np.bincount(seq.out_degrees, minlength=width)))
    # prefix vertex i has d_out[i] >= k for k in (i, b[i]]: count those spans per k
    i = np.arange(width)
    spans = b > i
    starts = np.bincount(i[spans], minlength=width)
    ends = np.bincount(b[spans], minlength=width)
    capped = np.cumsum(starts - ends)
    return bool((np.cumsum(a) <= saturated - capped).all())


class DegreeDistribution:
    """Sparse bivariate probability table p[j, k] over (in, out) degree pairs.

    The table is renormalized to total mass exactly 1 at construction (the
    input must already sum to 1 within ``MASS_TOL``) and rejected with
    :class:`ImbalanceError` if the mean in-degree and mean out-degree differ
    by more than 1e-9.

    Attributes
    ----------
    js, ks, ps : ndarray, read-only
        In-degree, out-degree and probability of each stored pair, sorted by
        (in, out).
    moments : dict[(int, int), float]
        Cached mu_il for i, l in {0, 1, 2}, computed over the stored support.
    truncation_loss : float
        Tail mass removed when the table was truncated (0 unless built from
        an infinite-support family).
    """

    BALANCE_TOL = 1e-9

    def __init__(self, probs: Mapping[tuple[int, int], float]):
        keys = [(j, k) for j, k in probs]
        ps = np.array(list(probs.values()), dtype=np.float64)
        self._init_arrays([j for j, _ in keys], [k for _, k in keys], ps, 0.0)

    @classmethod
    def _from_arrays(cls, js, ks, ps, truncation_loss: float = 0.0) -> "DegreeDistribution":
        obj = cls.__new__(cls)
        obj._init_arrays(js, ks, ps, truncation_loss)
        return obj

    def _init_arrays(self, js, ks, ps, truncation_loss):
        """Validate and store a table given as arrays, sorting its rows by (in, out)."""
        if not ps.size:
            raise DistributionFormatError("empty distribution")
        js, ks = int_arrays(js, ks, "in/out degrees")
        # the library's own tables are strictly increasing already: one pass decides
        if not ((js[1:] > js[:-1]) | ((js[1:] == js[:-1]) & (ks[1:] > ks[:-1]))).all():
            order = np.lexsort((ks, js))
            js, ks, ps = js[order], ks[order], ps[order]
            repeated = (js[1:] == js[:-1]) & (ks[1:] == ks[:-1])
            if repeated.any():
                i = int(repeated.argmax())
                raise DistributionFormatError(f"repeated entry for ({js[i]}, {ks[i]})")
        if js.min() < 0 or ks.min() < 0:
            raise DistributionFormatError("degrees must be nonnegative")
        if ps.min() < 0:
            raise DistributionFormatError("probabilities must be nonnegative")
        total = float(ps.sum())
        if not math.isfinite(total) or abs(total - 1.0) > MASS_TOL:
            raise DistributionFormatError(
                f"probabilities sum to {total!r}, expected 1 +/- {MASS_TOL}"
            )
        keep = ps > 0.0
        if not keep.all():  # js and ks are copies already, and ps / total is one
            js, ks, ps = js[keep], ks[keep], ps[keep]
        ps = ps / total
        for arr in (js, ks, ps):
            arr.setflags(write=False)
        self.js = js
        self.ks = ks
        self.ps = ps
        self.truncation_loss = float(truncation_loss)
        self.moments = _moment_sums(js, ks, ps)
        mu10, mu01 = self.moments[(1, 0)], self.moments[(0, 1)]
        if abs(mu10 - mu01) > self.BALANCE_TOL * max(1.0, mu10, mu01):
            raise ImbalanceError(
                f"mean in-degree {mu10!r} != mean out-degree {mu01!r}; "
                "a balanced table is required"
            )

    @property
    def mu(self) -> float:
        """Mean degree mu = mu_10 = mu_01."""
        return self.moments[(1, 0)]

    @property
    def mu11(self) -> float:
        return self.moments[(1, 1)]

    @property
    def mu20(self) -> float:
        return self.moments[(2, 0)]

    @property
    def mu02(self) -> float:
        return self.moments[(0, 2)]

    @functools.cached_property
    def _cum(self) -> np.ndarray:
        cum = np.cumsum(self.ps)
        cum[-1] = 1.0
        return cum

    @functools.cached_property
    def _lattice(self) -> tuple[int, int]:
        """(d0, g): every d = j - k on the support is d0 modulo g = gcd(d - d0)."""
        d = self.js - self.ks
        return int(d[0]), int(np.gcd.reduce(d - d[0]))

    @property
    def max_in(self) -> int:
        return int(self.js.max())

    @property
    def max_out(self) -> int:
        return int(self.ks.max())

    def sample_pairs(self, count: int, rng: np.random.Generator):
        """Draw ``count`` iid (in, out) pairs; returns (in_array, out_array)."""
        idx = np.searchsorted(self._cum, rng.random(count), side="right")
        return self.js[idx], self.ks[idx]

    def __repr__(self) -> str:
        return (
            f"DegreeDistribution({len(self.ps)} support points, mu={self.mu:.6g}, "
            f"mu11={self.mu11:.6g})"
        )

    # ----- named families -------------------------------------------------

    @classmethod
    def poisson(cls, lam: float) -> "DegreeDistribution":
        """Independent in/out Poisson(lam) marginals, truncated at FAMILY_TAIL_MASS."""
        if not 0.0 <= lam < math.inf:  # also rejects nan
            raise ValueError("lam must be finite and nonnegative")
        # The same ufuncs scipy.stats.poisson calls (sf, pmf), without importing
        # scipy.stats, which costs about 20 MB of memory.
        kmax = 0
        while special.pdtrc(kmax, lam) >= FAMILY_TAIL_MASS / 2.0:
            kmax += 1
        k = np.arange(kmax + 1)
        marg = np.exp(special.xlogy(k, lam) - special.gammaln(k + 1) - lam)
        return cls._from_product(marg)

    @classmethod
    def constant(cls, d: int) -> "DegreeDistribution":
        """Point mass at (d, d)."""
        if d < 0:
            raise ValueError("d must be nonnegative")
        return cls({(d, d): 1.0})

    @classmethod
    def geometric(cls, p: float) -> "DegreeDistribution":
        """Independent in/out Geometric(p) marginals on {0, 1, ...}: P(k) = (1-p)^k p."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if p == 1.0:
            return cls({(0, 0): 1.0})
        kmax = max(0, math.ceil(math.log(FAMILY_TAIL_MASS / 2.0) / math.log1p(-p)) - 1)
        while (1.0 - p) ** (kmax + 1) >= FAMILY_TAIL_MASS / 2.0:
            kmax += 1
        marg = p * (1.0 - p) ** np.arange(kmax + 1, dtype=np.float64)
        return cls._from_product(marg)

    @classmethod
    def _from_product(cls, marginal: np.ndarray) -> "DegreeDistribution":
        table = np.outer(marginal, marginal)
        kept = table.sum()
        loss = 1.0 - kept
        if loss >= FAMILY_TAIL_MASS * 2:
            raise DistributionFormatError(
                f"truncation removed {loss!r} mass, more than requested"
            )
        return cls.from_table(table, truncation_loss=max(loss, 0.0))

    @classmethod
    def from_table(cls, table: np.ndarray, truncation_loss: float = 0.0) -> "DegreeDistribution":
        """Distribution over the positive entries of a dense 2-D table p[j, k]."""
        js, ks = np.nonzero(table > 0.0)
        return cls._from_arrays(js, ks, table[js, ks], truncation_loss)


def _moment_sums(js, ks, weights, orders=MOMENT_ORDERS) -> dict[tuple[int, int], float]:
    """sum_{j,k} j^i k^l w[j, k] over a table's arrays, for each (i, l) in ``orders``."""
    jf, kf = js.astype(np.float64), ks.astype(np.float64)
    return {(i, l): float(np.sum(jf**i * kf**l * weights)) for i, l in orders}


def empirical_distribution(seq: DegreeSequence) -> DegreeDistribution:
    """Empirical degree distribution p[j,k] = N[j,k] / n.

    Raises
    ------
    EmptySequenceError
        If the sequence has no vertices.
    ImbalanceError
        If the sequence is invalid (the empirical table would be unbalanced).
    """
    if seq.n == 0:
        raise EmptySequenceError("cannot form a distribution from zero vertices")
    js, ks, counts = _degree_counts(seq)
    return DegreeDistribution._from_arrays(js, ks, counts / seq.n)


def _degree_counts(seq: DegreeSequence):
    """Distinct (j, k) pairs of ``seq``, sorted by (j, k), and their counts N[j,k].

    Each pair is counted under the int64 key j * (d_max + 1) + k, which sorts
    as the pairs do.  Sorting the keys needs O(n) memory; a bincount would need
    a counter for every possible key, 800 MB for hubs of degree 1e4.
    """
    width = seq.d_max + 1
    if width > MAX_KEY_WIDTH:
        raise ValueError(f"degree {seq.d_max} is too large to tabulate (limit {MAX_KEY_WIDTH - 1})")
    keys, counts = np.unique(seq.in_degrees * width + seq.out_degrees, return_counts=True)
    return keys // width, keys % width, counts


@dataclass(frozen=True)
class PropernessReport:
    """Finite-n diagnostics for the regularity conditions on degree progressions.

    The asymptotic conditions (d_max below n^(1/12)/ln n, rho(n) = o(d_max))
    have no canonical finite-n pass/fail, so this report never blocks
    anything; it only surfaces the measured quantities.
    """

    n: int
    d_max: int
    d_max_bound: float
    rho: float
    empirical_moments: dict[tuple[int, int], float]
    graphical: bool
    d_max_ok: bool
    rho_vs_dmax_ratio: float


def properness_report(seq: DegreeSequence) -> PropernessReport:
    """Measure d_max, rho(n), and empirical moments for a valid sequence.

    rho(n) = max( sum j^2 k N[j,k],  sum j k^2 N[j,k] ) / (mu(n) * n), with
    mu(n) = m / n.  The d_max bound uses the natural logarithm.

    Raises
    ------
    InvalidSequenceError
        If the in- and out-degree sums differ.
    """
    require_valid(seq)
    n = seq.n
    d_max = seq.d_max
    if n >= 2:
        bound = n ** (1.0 / 12.0) / math.log(n)
    else:
        bound = math.inf
    # a sequence without vertices has all sums 0
    sums = _moment_sums(*_degree_counts(seq), MOMENT_ORDERS + ((2, 1), (1, 2)))
    moments = {il: sums[il] / max(n, 1) for il in MOMENT_ORDERS}
    if seq.m > 0:
        mu_n = seq.m / n
        rho = max(sums[(2, 1)], sums[(1, 2)]) / (mu_n * n)
    else:
        rho = 0.0
    return PropernessReport(
        n=n,
        d_max=d_max,
        d_max_bound=bound,
        rho=rho,
        empirical_moments=moments,
        graphical=is_graphical(seq),
        d_max_ok=d_max <= bound,
        rho_vs_dmax_ratio=rho / d_max if d_max > 0 else 0.0,
    )


def require_balanceable(dist: DegreeDistribution, n: int) -> None:
    """Raise :class:`RepairFailedError` unless n pairs from ``dist`` can have equal sums:
    every d = j - k on the support is d0 modulo g, so n pairs are n * d0 off modulo g.
    (d0, g) is cached on the distribution."""
    d0, g = dist._lattice
    if g and n * d0 % g:
        raise RepairFailedError(
            f"degree sums can never balance at n={n}: every imbalance is "
            f"{n * d0 % g} modulo {g}"
        )


def require_simple_support(dist: DegreeDistribution, n: int) -> None:
    """Raise :class:`NotGraphicalError` when every support point of ``dist`` has
    a degree of n or more, which no simple digraph on n vertices has."""
    if not (np.maximum(dist.js, dist.ks) < n).any():
        raise NotGraphicalError(
            f"degree sequences from this distribution are not graphical at n={n}: "
            f"every support point has a degree of at least {n}"
        )


def realize_sequence(
    dist: DegreeDistribution,
    n: int,
    rng: np.random.Generator,
) -> DegreeSequence:
    """Draw a valid n-vertex degree sequence approximately iid from ``dist``.

    Pairs are drawn iid; while the in- and out-sums disagree, one uniformly
    chosen vertex has its pair redrawn from ``dist``.  The redraws are
    proposed in batches of up to ``_REPAIR_BATCH`` and replayed in order with
    array operations, stopping at the first proposal that balances the sums,
    so the chain is the one-at-a-time chain with another random stream.
    :class:`RepairFailedError` is raised once ``MAX_REDRAWS_PER_VERTEX * n``
    redraws have been used, or before any draw when the sums can never
    balance (see :func:`require_balanceable`).

    The repair perturbs the iid marginals only slightly: when the table is
    balanced in expectation the sum difference is a mean-zero random walk
    that typically needs O(n) redraws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    require_balanceable(dist, n)
    ins, outs = dist.sample_pairs(n, rng)
    diff = int(ins.sum()) - int(outs.sum())
    budget = MAX_REDRAWS_PER_VERTEX * n
    redraws = 0
    while diff != 0:
        if redraws >= budget:
            raise RepairFailedError(
                f"degree-sum repair failed after {budget} redraws "
                f"(residual imbalance {diff})"
            )
        size = min(_REPAIR_BATCH, budget - redraws)
        vertices = rng.integers(n, size=size)
        used, diff = _replay_redraws(ins, outs, diff, vertices, *dist.sample_pairs(size, rng))
        redraws += used
    return DegreeSequence.from_arrays(ins, outs)


def _replay_redraws(ins, outs, diff, vertices, new_in, new_out) -> tuple[int, int]:
    """Give ``vertices[t]`` the pair ``(new_in[t], new_out[t])`` for t = 0, 1, ... in order,
    stopping after the first t at which the imbalance ``diff`` (in-sum minus
    out-sum) reaches 0; ``ins`` and ``outs`` are updated in place.  Returns the
    number of redraws used and the imbalance left.
    """
    # a redraw replaces the pair its vertex's latest earlier redraw wrote, if any
    order = np.argsort(vertices, kind="stable")
    repeat = vertices[order[1:]] == vertices[order[:-1]]
    new = new_in - new_out
    old = ins[vertices] - outs[vertices]
    old[order[1:][repeat]] = new[order[:-1][repeat]]
    walk = np.cumsum(new - old)
    balanced = np.flatnonzero(walk == -diff)
    used = int(balanced[0]) + 1 if balanced.size else vertices.size
    # write each vertex's last redraw among those used
    order = order[order < used]
    last = order[np.append(vertices[order[1:]] != vertices[order[:-1]], True)]
    ins[vertices[last]] = new_in[last]
    outs[vertices[last]] = new_out[last]
    return used, diff + int(walk[used - 1])


# ----- file formats and named-family specs ---------------------------------


def distribution_from_spec(spec: str) -> DegreeDistribution:
    """Build a distribution from a CLI-style spec string.

    Supported forms: ``poisson:<lam>`` (independent in/out Poisson),
    ``const:<d>`` (point mass at (d, d)), ``geometric:<p>``, and
    ``file:<path>`` for the `j k p` text format.
    """
    name, sep, arg = spec.partition(":")
    if not sep:
        raise DistributionFormatError(
            f"distribution spec {spec!r} must look like name:value"
        )
    try:
        if name == "poisson":
            return DegreeDistribution.poisson(float(arg))
        if name == "const":
            return DegreeDistribution.constant(int(arg))
        if name == "geometric":
            return DegreeDistribution.geometric(float(arg))
    except ValueError as exc:
        raise DistributionFormatError(f"bad parameter in {spec!r}: {exc}") from exc
    if name == "file":
        return read_distribution(arg)
    raise DistributionFormatError(f"unknown distribution family {name!r}")


def read_distribution(path) -> DegreeDistribution:
    """Read a `j k p` table (one entry per line in any order, ``#`` comments allowed).

    The probabilities must sum to 1 within 1e-6 before renormalization.  Errors
    name the file, and those of a malformed line ``path:lineno``.
    """
    rows = read_rows(path, _DISTRIBUTION_ROWS)
    try:
        return DegreeDistribution._from_arrays(rows["j"], rows["k"], rows["p"])
    except (DistributionFormatError, ImbalanceError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_sequence(path) -> DegreeSequence:
    """Read a degree sequence: one `d_in d_out` pair per line, ``#`` comments."""
    rows = read_rows(path, _SEQUENCE_ROWS)
    return DegreeSequence.from_arrays(rows["d_in"], rows["d_out"])


# ----- text tables (distributions, sequences, edge lists, SCC labels, deleted ids)

ROWS_PER_CHUNK = 1 << 16  # rows formatted per write: bounds the Python ints alive at once
# suffixes that numpy's loadtxt would open as compressed
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_DISTRIBUTION_ROWS = np.dtype([("j", np.int64), ("k", np.int64), ("p", np.float64)])
_SEQUENCE_ROWS = np.dtype([("d_in", np.int64), ("d_out", np.int64)])


def read_rows(path, columns: np.dtype) -> np.ndarray:
    """Read a whitespace-separated text table as a 1-d array of structured dtype ``columns``.

    ``#`` starts a comment and blank lines are skipped.  A line with another
    number of fields, or a field its column's type does not parse, raises
    :class:`DistributionFormatError` naming ``path:lineno``.  ``path`` must
    name an existing plain file: a compression suffix raises
    :class:`DistributionFormatError`, and anything else, a URL included,
    :class:`FileNotFoundError`.
    """
    if os.path.splitext(path)[1] in COMPRESSED_SUFFIXES:
        raise DistributionFormatError(f"{path}: compressed input is not supported")
    if not os.path.isfile(path):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    with warnings.catch_warnings():
        # a file without data rows is an empty table; older numpy parses "1.5"
        # into an integer column with only a DeprecationWarning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            # numpy never reads an absolute path as a URL
            return np.loadtxt(os.path.abspath(path), dtype=columns, ndmin=1, encoding="utf-8")
        except (ValueError, DeprecationWarning) as exc:
            error = exc
        # numpy counts data rows, not file lines: parse again from an iterator,
        # which numpy takes one line at a time, and count the lines it took
        with open(path, "r", encoding="utf-8") as fh:
            taken = itertools.count(1)
            try:
                np.loadtxt((raw for raw, _ in zip(fh, taken)), dtype=columns, ndmin=1)
            except (ValueError, DeprecationWarning) as exc:
                message = str(exc).split(" at row ", 1)[0]
                raise DistributionFormatError(f"{path}:{next(taken) - 1}: {message}") from exc
    raise DistributionFormatError(f"{path}: {error}") from error


def write_int_rows(fh, *columns) -> None:
    """Write equal-length integer arrays as text columns, one ``%d %d ...`` line per row."""
    line = " ".join(["%d"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
        chunk = np.column_stack([c[start : start + ROWS_PER_CHUNK] for c in columns])
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
