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
import math
import operator
import os
import re
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
    RepairFailedError,
)

__all__ = [
    "DegreeSequence",
    "DegreeDistribution",
    "PropernessReport",
    "require_valid",
    "is_graphical",
    "empirical_distribution",
    "properness_report",
    "realize_sequence",
    "distribution_from_spec",
    "read_distribution",
    "read_sequence",
    "read_int_rows",
    "write_int_rows",
]

MOMENT_ORDERS = tuple((i, l) for i in range(3) for l in range(3))

# Tail mass removed when truncating infinite-support families (shared between
# the two marginals, so each keeps all but half of it).
FAMILY_TAIL_MASS = 1e-12

MASS_TOL = 1e-6  # allowed distance of a table's total mass from 1
MAX_REDRAWS_PER_VERTEX = 100  # realize_sequence's repair budget
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
        arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be (in, out) 2-tuples")
        if arr.size and arr.min() < 0:
            raise ValueError("degrees must be nonnegative")
        self._init_arrays(arr[:, 0].copy(), arr[:, 1].copy())

    def _init_arrays(self, in_degrees: np.ndarray, out_degrees: np.ndarray):
        in_degrees.setflags(write=False)
        out_degrees.setflags(write=False)
        self.in_degrees = in_degrees
        self.out_degrees = out_degrees
        self._in_sum = exact_sum(in_degrees)
        self._out_sum = exact_sum(out_degrees)

    @classmethod
    def from_arrays(cls, in_degrees, out_degrees) -> "DegreeSequence":
        """Build a sequence from separate in/out degree arrays (copied)."""
        ins = np.asarray(in_degrees, dtype=np.int64).copy()
        outs = np.asarray(out_degrees, dtype=np.int64).copy()
        if ins.shape != outs.shape or ins.ndim != 1:
            raise ValueError("in/out arrays must be 1-d of equal length")
        if ins.size and min(ins.min(), outs.min()) < 0:
            raise ValueError("degrees must be nonnegative")
        obj = cls.__new__(cls)
        obj._init_arrays(ins, outs)
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
    at d_out), so only k <= d_max + 1 are evaluated.

    Raises
    ------
    InvalidSequenceError
        If the in- and out-degree sums differ.
    """
    require_valid(seq)
    cached = getattr(seq, "_graphical", None)
    if cached is None:
        cached = _fulkerson_chen_anstee(seq)
        seq._graphical = cached
    return cached


def _fulkerson_chen_anstee(seq: DegreeSequence) -> bool:
    n = seq.n
    if n == 0:
        return True
    if seq.d_max >= n:
        return False
    order = np.lexsort((-seq.out_degrees, -seq.in_degrees))
    a = seq.in_degrees[order]
    b = seq.out_degrees[order]
    prefix_a = np.cumsum(a)
    for k in range(1, min(n, seq.d_max + 1) + 1):
        rhs = int(np.minimum(b[:k], k - 1).sum()) + int(np.minimum(b[k:], k).sum())
        if prefix_a[k - 1] > rhs:
            return False
    return True


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
        items = sorted((int(j), int(k), float(p)) for (j, k), p in probs.items())
        js = np.array([j for j, _, _ in items], dtype=np.int64)
        ks = np.array([k for _, k, _ in items], dtype=np.int64)
        ps = np.array([p for _, _, p in items], dtype=np.float64)
        self._init_arrays(js, ks, ps, 0.0)

    @classmethod
    def _from_arrays(cls, js, ks, ps, truncation_loss: float = 0.0) -> "DegreeDistribution":
        obj = cls.__new__(cls)
        obj._init_arrays(js, ks, ps, truncation_loss)
        return obj

    def _init_arrays(self, js, ks, ps, truncation_loss):
        """Validate and store a table given as arrays sorted by (in, out)."""
        if not ps.size:
            raise DistributionFormatError("empty distribution")
        if js.min() < 0 or ks.min() < 0:
            raise DistributionFormatError("degrees must be nonnegative")
        if ps.min() < 0:
            raise DistributionFormatError("probabilities must be nonnegative")
        total = ps.sum()
        if not math.isfinite(total) or abs(total - 1.0) > MASS_TOL:
            raise DistributionFormatError(
                f"probabilities sum to {total!r}, expected 1 +/- {MASS_TOL}"
            )
        keep = ps > 0.0
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
        self._cum = None

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

    @property
    def max_in(self) -> int:
        return int(self.js.max())

    @property
    def max_out(self) -> int:
        return int(self.ks.max())

    def sample_pairs(self, count: int, rng: np.random.Generator):
        """Draw ``count`` iid (in, out) pairs; returns (in_array, out_array)."""
        idx = self._draw_indices(count, rng)
        return self.js[idx].copy(), self.ks[idx].copy()

    def _draw_indices(self, count, rng):
        if self._cum is None:
            cum = np.cumsum(self.ps)
            cum[-1] = 1.0
            self._cum = cum
        return np.searchsorted(self._cum, rng.random(count), side="right")

    def __repr__(self) -> str:
        return (
            f"DegreeDistribution({len(self.ps)} support points, mu={self.mu:.6g}, "
            f"mu11={self.mu11:.6g})"
        )

    # ----- named families -------------------------------------------------

    @classmethod
    def poisson(cls, lam: float) -> "DegreeDistribution":
        """Independent in/out Poisson(lam) marginals, truncated at FAMILY_TAIL_MASS."""
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        if lam == 0:
            return cls({(0, 0): 1.0})
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
        return cls({(int(d), int(d)): 1.0})

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


def realize_sequence(
    dist: DegreeDistribution,
    n: int,
    rng: np.random.Generator,
) -> DegreeSequence:
    """Draw a valid n-vertex degree sequence approximately iid from ``dist``.

    Pairs are drawn iid; while the in- and out-sums disagree, one uniformly
    chosen vertex has its pair redrawn from ``dist``.  :class:`RepairFailedError`
    is raised after ``MAX_REDRAWS_PER_VERTEX * n`` redraws, or before any draw
    when the sums can never balance: each d = j - k on the support is d[0]
    modulo g = gcd(d - d[0]), so every imbalance is n * d[0] modulo g.

    The repair perturbs the iid marginals only slightly: when the table is
    balanced in expectation the sum difference is a mean-zero random walk
    that typically needs O(n) redraws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = dist.js - dist.ks
    g = int(np.gcd.reduce(d - d[0]))
    if g and n * int(d[0]) % g:
        raise RepairFailedError(
            f"degree sums can never balance at n={n}: every imbalance is "
            f"{n * int(d[0]) % g} modulo {g}"
        )
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
        v = int(rng.integers(n))
        i = int(dist._draw_indices(1, rng)[0])
        diff += int(dist.js[i] - dist.ks[i]) - int(ins[v] - outs[v])
        ins[v] = dist.js[i]
        outs[v] = dist.ks[i]
        redraws += 1
    return DegreeSequence.from_arrays(ins, outs)


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
    """Read a `j k p` table (one entry per line, ``#`` comments allowed).

    The probabilities must sum to 1 within 1e-6 before renormalization.
    """
    probs: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise DistributionFormatError(
                    f"{path}:{lineno}: expected 'j k p', got {raw.strip()!r}"
                )
            try:
                j, k, p = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise DistributionFormatError(f"{path}:{lineno}: {exc}") from exc
            if (j, k) in probs:
                raise DistributionFormatError(
                    f"{path}:{lineno}: duplicate entry for ({j}, {k})"
                )
            probs[(j, k)] = p
    return DegreeDistribution(probs)


def read_sequence(path) -> DegreeSequence:
    """Read a degree sequence: one `d_in d_out` pair per line, ``#`` comments."""
    rows = read_int_rows(path, 2, "d_in d_out")
    return DegreeSequence.from_arrays(rows[:, 0], rows[:, 1])


# ----- integer tables (sequences, edge lists, SCC labels, deleted ids) ------

ROWS_PER_CHUNK = 1 << 16  # rows formatted per write: bounds the Python ints alive at once
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
# suffixes that numpy's loadtxt would open as compressed
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_int_rows(path, columns: int, expected: str) -> np.ndarray:
    """Read a whitespace-separated table of 64-bit integers as an int64 (rows, columns) array.

    ``#`` starts a comment and blank lines are skipped.  A line with another
    number of fields, or a field that is not a 64-bit integer, raises
    :class:`DistributionFormatError` naming ``path:lineno``; ``expected``
    names the columns in the message.  ``path`` must name an existing plain
    file: a compression suffix raises :class:`DistributionFormatError`, and
    anything else, a URL included, :class:`FileNotFoundError`.
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
            rows = np.loadtxt(os.path.abspath(path), dtype=np.int64, ndmin=2, encoding="utf-8")
        except (ValueError, DeprecationWarning) as exc:
            error = exc
        else:
            if not rows.size or rows.shape[1] == columns:
                return rows.reshape(-1, columns)
            error = None
    # numpy counts data rows, not file lines: find the offending line again
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split("#", 1)[0].split()
            if fields and len(fields) != columns:
                raise DistributionFormatError(
                    f"{path}:{lineno}: expected {expected!r}, got {raw.strip()!r}"
                )
            for field in fields:
                if not (_INT_FIELD.fullmatch(field) and -(2**63) <= int(field) < 2**63):
                    raise DistributionFormatError(
                        f"{path}:{lineno}: {field!r} is not a 64-bit integer"
                    )
    raise DistributionFormatError(f"{path}: {error}") from error


def write_int_rows(fh, *columns) -> None:
    """Write equal-length integer arrays as text columns, one ``%d %d ...`` line per row."""
    line = " ".join(["%d"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
        chunk = np.column_stack([c[start : start + ROWS_PER_CHUNK] for c in columns])
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
