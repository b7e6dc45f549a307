import copy
import hashlib
import inspect
import io
import itertools
import math
import warnings
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dipercolate import configmodel, degrees
from dipercolate import (
    DegreeDistribution,
    DegreeSequence,
    Digraph,
    read_edge_list,
    sample_configuration,
    sample_simple,
    simple_probability,
    write_edge_list,
)
from dipercolate.errors import (
    AttemptsExhaustedError,
    DistributionFormatError,
    InvalidSequenceError,
    NotGraphicalError,
    ZeroMeanDegreeError,
)
import _oracles


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def edge_signature(g):
    return tuple(sorted(zip(g.src.tolist(), g.dst.tolist())))


# ----- Digraph basics ---------------------------------------------------------


def test_digraph_fields():
    g = Digraph(3, [0, 1, 1], [1, 2, 2])
    assert g.m == 3
    assert g.edges == [(0, 1), (1, 2), (1, 2)]
    assert _oracles.edge_multiplicities(g) == {(0, 1): 1, (1, 2): 2}
    assert not g.simple
    assert g.degree_sequence() == DegreeSequence([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [0], [5])


def test_digraph_copies_and_checks_input():
    assert list(inspect.signature(Digraph).parameters) == ["n", "src", "dst"]
    src, dst = np.array([0, 1]), np.array([1, 2])
    g = Digraph(3, src, dst)
    src[0], dst[0] = 2, 0
    assert g.edges == [(0, 1), (1, 2)]
    assert not (g.src.flags.writeable or g.dst.flags.writeable)
    for bad in ([0, -1], [0, 3]):
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            Digraph(3, bad, [1, 2])
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            Digraph(3, [1, 2], bad)


def test_digraph_rejects_non_integer_input():
    for n, src, dst in ((2.9, [0], [1]), ("2", [0], [1]), (2, [0.7], [1]), (2, [0], np.array([1.0]))):
        with pytest.raises(ValueError, match="integer"):
            Digraph(n, src, dst)
    assert Digraph(np.int64(2), np.array([0], dtype=np.int32), [1]).edges == [(0, 1)]
    assert Digraph(0, [], []).m == 0


@pytest.mark.parametrize(
    "n,src,dst,simple",
    [
        (2, [0, 1], [1, 0], True),  # 2-cycle
        (1, [0], [0], False),  # self-loop
        (2, [0, 0], [1, 1], False),  # doubled edge
        (2, [], [], True),  # empty
    ],
)
def test_is_simple(n, src, dst, simple):
    assert Digraph(n, src, dst).simple == simple


def test_is_simple_large_path():
    # 100 distinct edges, then one duplicated
    src = np.arange(100) % 10
    dst = (np.arange(100) // 10 + 1 + src) % 11
    g = Digraph(11, src, dst)
    assert g.simple == (len(set(zip(src.tolist(), dst.tolist()))) == 100)
    dup = Digraph(11, np.concatenate([src, src[:1]]), np.concatenate([dst, dst[:1]]))
    assert not dup.simple


# ----- sample_configuration ----------------------------------------------------


def test_configuration_two_vertices_outcomes():
    seq = DegreeSequence([(1, 1), (1, 1)])
    rng = rng_for(5)
    seen = {}
    for _ in range(4000):
        sig = edge_signature(sample_configuration(seq, rng))
        seen[sig] = seen.get(sig, 0) + 1
    loops = ((0, 0), (1, 1))
    cycle = ((0, 1), (1, 0))
    assert set(seen) == {loops, cycle}
    p = stats.chisquare(list(seen.values())).pvalue
    assert p > 0.001


def test_configuration_empty_and_doubled_loop():
    assert sample_configuration(DegreeSequence([(0, 0)]), rng_for(0)).m == 0
    g = sample_configuration(DegreeSequence([(2, 2)]), rng_for(0))
    assert edge_signature(g) == ((0, 0), (0, 0))


def test_configuration_rejects_invalid():
    with pytest.raises(InvalidSequenceError):
        sample_configuration(DegreeSequence([(1, 0)]), rng_for(0))


def test_configuration_deterministic():
    seq = DegreeSequence([(2, 1), (0, 1), (1, 1)])
    a = sample_configuration(seq, rng_for(99))
    b = sample_configuration(seq, rng_for(99))
    assert edge_signature(a) == edge_signature(b)


def test_configuration_realizes_sequence():
    seq = DegreeSequence([(2, 1), (0, 1), (1, 1)])
    for seed in range(10):
        g = sample_configuration(seq, rng_for(seed))
        assert g.degree_sequence() == seq


# ----- matching probability (test oracle) ------------------------------------------


def test_matching_probability_examples():
    seq = DegreeSequence([(1, 1), (1, 1)])
    cycle = Digraph(2, [0, 1], [1, 0])
    assert _oracles.matching_probability(cycle, seq) == Fraction(1, 2)
    loops = Digraph(2, [0, 1], [0, 1])
    assert _oracles.matching_probability(loops, seq) == Fraction(1, 2)

    doubled = Digraph(1, [0, 0], [0, 0])
    assert _oracles.matching_probability(doubled, DegreeSequence([(2, 2)])) == Fraction(1, 1)


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 1), (1, 1)],
        [(2, 2)],
        [(2, 1), (0, 1), (1, 1)],
        [(1, 2), (2, 1)],
        [(2, 0), (0, 2)],
        [(1, 1), (1, 1), (1, 1)],
        [(3, 1), (0, 2), (1, 1)],
    ],
)
def test_matching_probability_vs_enumeration(pairs):
    seq = DegreeSequence(pairs)
    counts, total = _oracles.configuration_outcome_counts(
        seq.in_degrees.tolist(), seq.out_degrees.tolist()
    )
    prob_sum = Fraction(0)
    for sig, count in counts.items():
        g = Digraph(seq.n, [s for s, _ in sig], [t for _, t in sig])
        p = _oracles.matching_probability(g, seq)
        assert p == Fraction(count, total)
        prob_sum += p
    assert prob_sum == 1


@pytest.mark.parametrize("pairs", [[(2, 1), (0, 1), (1, 1)], [(1, 2), (2, 1)]])
def test_configuration_frequencies_match_probability(pairs):
    # empirical law of the sampler equals the exact matching probability
    seq = DegreeSequence(pairs)
    counts, total = _oracles.configuration_outcome_counts(
        seq.in_degrees.tolist(), seq.out_degrees.tolist()
    )
    draws = 100_000
    rng = rng_for(31)
    observed = {sig: 0 for sig in counts}
    for _ in range(draws):
        observed[edge_signature(sample_configuration(seq, rng))] += 1
    expected = [draws * counts[sig] / total for sig in counts]
    p = stats.chisquare([observed[sig] for sig in counts], expected).pvalue
    assert p > 0.001


# ----- sample_simple ------------------------------------------------------------


def test_sample_simple_unique_realization():
    seq = DegreeSequence([(1, 1), (1, 1)])
    for seed in range(5):
        g, attempts = sample_simple(seq, rng_for(seed))
        assert edge_signature(g) == ((0, 1), (1, 0))
        assert attempts >= 1


def test_sample_simple_three_cycle_split():
    seq = DegreeSequence([(1, 1), (1, 1), (1, 1)])
    cycle_a = ((0, 1), (1, 2), (2, 0))
    cycle_b = ((0, 2), (1, 0), (2, 1))
    rng = rng_for(17)
    seen = {cycle_a: 0, cycle_b: 0}
    for _ in range(4000):
        g, _ = sample_simple(seq, rng)
        seen[edge_signature(g)] += 1
    assert stats.chisquare(list(seen.values())).pvalue > 0.001


def test_sample_simple_rejects_non_graphical():
    with pytest.raises(NotGraphicalError):
        sample_simple(DegreeSequence([(1, 1)]), rng_for(0))
    with pytest.raises(NotGraphicalError):
        sample_simple(DegreeSequence([(2, 0), (0, 2)]), rng_for(0))


def test_sample_simple_attempts_exhausted():
    seq = DegreeSequence([(1, 1), (1, 1)])
    # find a seed whose first configuration draw is the self-loop outcome
    for seed in range(50):
        g = sample_configuration(seq, rng_for(seed))
        if not g.simple:
            with pytest.raises(AttemptsExhaustedError) as err:
                sample_simple(seq, rng_for(seed), max_attempts=1)
            assert err.value.attempts == 1
            return
    raise AssertionError("no rejecting seed found in range")


def test_sample_simple_deterministic():
    seq = DegreeSequence([(2, 2), (1, 1), (1, 1)])
    a, na = sample_simple(seq, rng_for(3))
    b, nb = sample_simple(seq, rng_for(3))
    assert edge_signature(a) == edge_signature(b) and na == nb


# What the rejection-only sampler that preceded loop switching returned on
# three (1, 1) vertices for seeds 0-49: the sources of slots 0, 1, 2 (targets
# are 0, 1, 2) and the draw count.  The sequence has max_loops = 0, so loop
# switching must leave its stream alone.
GOLDEN_THREE_CYCLES = (
    "201:1 120:5 120:2 201:6 201:2 201:1 201:3 120:5 201:1 201:3 120:8 120:6 201:2 "
    "201:5 120:6 120:7 201:1 201:3 201:13 120:3 120:5 120:3 120:3 201:1 120:1 201:4 "
    "201:1 201:3 120:7 120:2 201:1 120:1 201:2 120:1 201:12 120:3 120:1 201:2 201:1 "
    "120:10 120:1 120:3 120:2 201:2 120:5 120:3 120:2 120:7 201:4 120:1"
)


def test_sample_simple_stream_unchanged_without_switching():
    seq = DegreeSequence([(1, 1)] * 3)
    assert configmodel._stubs(seq).max_loops == 0
    got = []
    for seed in range(50):
        g, attempts = sample_simple(seq, rng_for(seed))
        assert g.dst.tolist() == [0, 1, 2]
        got.append("".join(map(str, g.src.tolist())) + f":{attempts}")
    assert " ".join(got) == GOLDEN_THREE_CYCLES


def _src_digest(src):
    return hashlib.sha256(src.astype("<i8").tobytes()).hexdigest()[:16]


# sample_simple on sequences where both switchings run: for each family, the
# digest of the sequence realized at n = 2e4 (seed 1), then the digest of
# g.src and the draw count for seeds 0-4.  poisson:3 has about 4.5 doubles
# per draw; geometric:0.3 has b-rejections and redraws.
GOLDEN_SWITCHED = {
    "poisson:3": ("b9f38f97130a32eb", "ccce068c2b7a718c:1 90175dcf0bfbaa0a:1 "
                  "d55223915bf0bcca:1 fdf767273582518f:1 2d198b30843d30b4:3"),
    "geometric:0.3": ("7f4d4775dffeebd6", "a634cafd52108709:11 7da80cf318531c44:15 "
                      "6dda0dd4fb965ae3:29 4edbc40cff8f265a:4 18bab86a35bb4a7a:8"),
}


@pytest.mark.parametrize("spec", GOLDEN_SWITCHED)
def test_sample_simple_switched_stream_is_pinned(spec):
    dist = degrees.distribution_from_spec(spec)
    seq = degrees.realize_sequence(dist, 20_000, rng_for(1))
    seq_digest = _src_digest(np.concatenate([seq.in_degrees, seq.out_degrees]))
    stubs = configmodel._stubs(seq)
    assert stubs.max_loops > 0 and stubs.max_doubles > 0
    got = []
    for seed in range(5):
        g, draws = sample_simple(seq, rng_for(seed))
        got.append(f"{_src_digest(g.src)}:{draws}")
    assert (seq_digest, " ".join(got)) == GOLDEN_SWITCHED[spec]


def test_sample_simple_switched_stream_on_nine_2_2_vertices():
    # 300 graphs from one generator, where max_loops and max_doubles are 9 and 2
    seq = DegreeSequence([(2, 2)] * 9)
    rng = rng_for(4)
    h, draws = hashlib.sha256(), 0
    for _ in range(300):
        g, attempts = sample_simple(seq, rng)
        h.update(g.src.astype("<i8").tobytes())
        draws += attempts
    assert (h.hexdigest()[:16], draws) == ("dd36f499ced04a51", 1179)


def test_sample_simple_uniform_with_switching():
    # six (1, 1) vertices: the 265 derangements of 6 are the simple digraphs
    seq = DegreeSequence([(1, 1)] * 6)
    assert configmodel._stubs(seq).max_loops == 2
    rng = rng_for(8)
    seen = defaultdict(int)
    for _ in range(265 * 40):
        g, _ = sample_simple(seq, rng)
        seen[tuple(g.src.tolist())] += 1
    assert len(seen) == 265
    assert stats.chisquare(list(seen.values())).pvalue > 0.001


def _inverse_pairs(src, in_owner):
    """T1 by definition: ordered non-loop slots (y, q) with src[q] == in_owner[y]."""
    free = [j for j in range(len(src)) if src[j] != in_owner[j]]
    return sum(src[q] == in_owner[y] for y in free for q in free if q != y)


def _preimage_count(src, in_owner, y, q):
    """N3 by enumeration: slots s such that a matching with a loop at y switches into ``src`` with (q, s)."""
    count = 0
    for s in range(len(src)):
        if s in (y, q):
            continue
        pre = list(src)
        pre[y], pre[q], pre[s] = in_owner[y], src[s], src[y]
        v, a1, b1, a2, b2 = in_owner[y], pre[q], in_owner[q], pre[s], in_owner[s]
        after = list(pre)
        after[q], after[s], after[y] = v, a1, a2
        valid = a1 != b1 and a2 != b2 and b1 != v and a2 != v and a1 != b2
        count += valid and after == list(src)
    return count


def _loop_kernel(stubs, layers):
    """Matching -> [(result, probability)] of the sampler's loop step, for the
    matchings with 1 to max_loops loops; checks T1 and N3 against enumeration."""
    in_owner, m = stubs.in_owner.tolist(), stubs.m
    kernel = {}
    for k in range(1, stubs.max_loops + 1):
        t1_min, n3_min = stubs.bounds(k - 1)
        assert t1_min > 0 and n3_min > 0
        for arr in layers[k]:
            src = np.array(arr, dtype=np.int64)
            start = configmodel._LoopRemoval(stubs, src, np.flatnonzero(src == stubs.in_owner))
            assert start.first == _inverse_pairs(arr, in_owner)
            moves = kernel[arr] = []
            for i, q, s in itertools.product(range(k), range(m), range(m)):
                state = copy.copy(start)
                state.src, state.defects, state.loops_at = src.copy(), list(start.defects), start.loops_at.copy()
                y = start.defects[i]
                n3 = state.switch(i, q, s)
                if n3 is None:
                    assert np.array_equal(state.src, src)
                    continue
                out = tuple(state.src.tolist())
                assert sum(a == b for a, b in zip(out, in_owner)) == k - 1
                assert state.first == _inverse_pairs(out, in_owner) >= t1_min
                assert n3 == _preimage_count(out, in_owner, y, q) >= n3_min
                moves.append((out, Fraction(t1_min * n3_min, state.first * n3 * k * m * m)))
    return kernel


def _push(mass, kernel, steps):
    for _ in range(steps):
        pushed = defaultdict(Fraction)
        for arr, weight in mass.items():
            for out, p in kernel[arr]:
                pushed[out] += weight * p
        mass = pushed
    return mass


@pytest.mark.parametrize(
    "ins, outs",
    [
        ((1,) * 6, (1,) * 6),
        ((2,) * 4, (2,) * 4),
        ((2, 1, 1, 1, 1, 1), (1, 2, 1, 1, 1, 1)),
    ],
)
def test_loop_switching_kernel_is_exact(ins, outs):
    # Push the uniform law on the matchings with l loops, l <= max_loops,
    # through the sampler's own switching step and acceptance factors, in
    # exact arithmetic: every loop-free matching must end with equal mass.
    stubs = configmodel._stubs(DegreeSequence(zip(ins, outs)))
    in_owner = stubs.in_owner.tolist()
    assert stubs.max_loops >= 1
    layers = defaultdict(list)
    for arr in set(itertools.permutations(stubs.out_owner.tolist())):
        layers[sum(a == b for a, b in zip(arr, in_owner))].append(arr)
    kernel = _loop_kernel(stubs, layers)
    for loops in range(1, stubs.max_loops + 1):
        mass = _push({arr: Fraction(1) for arr in layers[loops]}, kernel, loops)
        assert sorted(mass) == sorted(layers[0])
        assert len(set(mass.values())) == 1


def _single_out_pairs(src, in_owner):
    """A by definition: ordered slots q != s, both single edges, with one source."""
    mult = Counter(zip(src, in_owner))
    single = [j for j, e in enumerate(zip(src, in_owner)) if mult[e] == 1]
    return sum(src[q] == src[s] for q in single for s in single if q != s)


def _double_count(src, in_owner):
    """Number of doubles of a loop-free matching, or None if it has an edge three times."""
    mult = Counter(zip(src, in_owner)).values()
    return None if max(mult) > 2 else sum(c == 2 for c in mult)


def _double_state(stubs, arr):
    src = np.array(arr, dtype=np.int64)
    keys, triple = configmodel._repeated_edges(src, stubs.in_owner, stubs.n)
    assert not triple
    return configmodel._DoubleRemoval(stubs, src, keys)


def _double_classes(stubs):
    """Matchings by loop count, and the loop-free, triple-free ones by double count."""
    in_owner = stubs.in_owner.tolist()
    loop_layers, classes = defaultdict(list), defaultdict(list)
    for arr in set(itertools.permutations(stubs.out_owner.tolist())):
        loops = sum(a == b for a, b in zip(arr, in_owner))
        loop_layers[loops].append(arr)
        if not loops and _double_count(arr, in_owner) is not None:
            classes[_double_count(arr, in_owner)].append(arr)
    return loop_layers, classes


def _double_kernel(stubs, classes, top):
    """Matching -> [(result, q, s, A, B)] of the sampler's double step for the
    matchings with 1 to ``top`` doubles, checking A and B against enumeration,
    and the enumerated minima of A and B over the classes 0 to top - 1."""
    in_owner, m = stubs.in_owner.tolist(), stubs.m
    kernel = {}
    into = Counter()  # (result, q, s) -> switchings into the result through (q, s)
    for d in range(1, top + 1):
        for arr in classes[d]:
            start = _double_state(stubs, arr)
            assert start.first == _single_out_pairs(arr, in_owner)
            moves = kernel[arr] = []
            for i, q, s in itertools.product(range(2 * d), range(m), range(m)):
                state = copy.copy(start)
                state.src, state.paired = start.src.copy(), set(start.paired)
                state.defects = list(start.defects)
                state.doubles_from = start.doubles_from.copy()
                state.doubles_into = start.doubles_into.copy()
                b = state.switch(i, q, s)
                if b is None:
                    assert np.array_equal(state.src, start.src)
                    continue
                out = tuple(state.src.tolist())
                assert out[q] == out[s] and _double_count(out, in_owner) == d - 1
                assert not any(a == b for a, b in zip(out, in_owner))
                assert state.first == _single_out_pairs(out, in_owner)
                moves.append((out, q, s, state.first, b))
                into[out, q, s] += 1
    for moves in kernel.values():
        for out, q, s, _, b in moves:
            assert b == into[out, q, s]
    a_min, b_min = {}, {}
    for d in range(top):
        for arr in classes[d]:
            state = _double_state(stubs, arr)
            a_min[d] = min(a_min.get(d, state.first), state.first)
            for q, s in itertools.permutations(range(m), 2):
                if arr[q] == arr[s] and not state.paired & {q, s}:
                    b = state._stage_b(arr[q], in_owner[q], in_owner[s])
                    assert b == into[arr, q, s]
                    b_min[d] = min(b_min.get(d, b), b)
        closed_a, closed_b = stubs.double_bounds(d)
        assert closed_a <= a_min[d] and closed_b <= b_min.get(d, 0)
    return kernel, a_min, b_min


@pytest.mark.parametrize(
    "ins, outs",
    [
        ((2,) * 4, (2,) * 4),
        ((3, 2, 1, 1, 1), (1, 2, 2, 1, 2)),
    ],
)
def test_double_switching_counts_are_exact(ins, outs):
    # A and B of every switching between classes of up to three doubles
    # equal their enumerated counts, and the closed-form bounds do not
    # exceed the enumerated minima.
    stubs = configmodel._stubs(DegreeSequence(zip(ins, outs)))
    _, classes = _double_classes(stubs)
    _double_kernel(stubs, classes, min(3, max(classes)))


# Sources (0, 2) and sinks (2, 0), one with a (1, 1) vertex that can carry
# a loop, and the enumerated minima of (A, B) over their classes with 0 to
# top - 1 doubles, where top is the number of entries.
SMALL_DOUBLE_CASES = {
    ((0,) * 3 + (2,) * 3, (2,) * 3 + (0,) * 3): [(6, 1)],
    ((0,) * 4 + (2,) * 4, (2,) * 4 + (0,) * 4): [(8, 2), (6, 1)],
    ((0,) * 3 + (2,) * 3 + (1,), (2,) * 3 + (0,) * 3 + (1,)): [(6, 1)],
}


@pytest.mark.parametrize("ins, outs", SMALL_DOUBLE_CASES)
def test_double_switching_kernel_is_exact(ins, outs):
    # Every matching with l <= max_loops loops goes through the loop step,
    # then every loop-free one with d <= top doubles through the sampler's
    # double step, in exact arithmetic: every simple matching must end with
    # equal mass.  No sequence this small has positive closed-form double
    # bounds (max_doubles is 0 on all three), so the double step is pushed
    # with the enumerated minima of A and B.
    stubs = configmodel._stubs(DegreeSequence(zip(ins, outs)))
    m = stubs.m
    assert stubs.max_doubles == 0
    loop_layers, classes = _double_classes(stubs)
    top = len(SMALL_DOUBLE_CASES[ins, outs])
    kernel, a_min, b_min = _double_kernel(stubs, classes, top)
    assert [(a_min[d], b_min[d]) for d in range(top)] == SMALL_DOUBLE_CASES[ins, outs]
    mass = {arr: Fraction(1) for arr in loop_layers[0]}
    loop_kernel = _loop_kernel(stubs, loop_layers)
    for loops in range(1, stubs.max_loops + 1):
        start = {arr: Fraction(1) for arr in loop_layers[loops]}
        for arr, weight in _push(start, loop_kernel, loops).items():
            mass[arr] += weight
    loops_only = mass[classes[0][0]]
    for d in range(top, 0, -1):
        pushed = defaultdict(Fraction)
        for arr in classes[d]:
            for out, q, s, a, b in kernel[arr]:
                accept = Fraction(a_min[d - 1] * b_min[d - 1], a * b)
                pushed[out] += mass[arr] * accept / (2 * d * m * m)
        for arr, weight in pushed.items():
            mass[arr] += weight
    final = {mass[arr] for arr in classes[0]}
    assert len(final) == 1 and final.pop() > loops_only


@pytest.mark.parametrize("ins, outs", SMALL_DOUBLE_CASES)
def test_sample_simple_uniform_with_double_switching(ins, outs, monkeypatch):
    # The sampler itself, with its double step run on the enumerated minima
    # of SMALL_DOUBLE_CASES (the closed-form bounds are not positive this
    # small): a chi-square over every simple digraph of the sequence.
    seq = DegreeSequence(zip(ins, outs))
    stubs = configmodel._stubs(seq)
    minima = SMALL_DOUBLE_CASES[ins, outs]
    monkeypatch.setattr(stubs, "max_doubles", len(minima))
    monkeypatch.setattr(stubs, "double_bounds", minima.__getitem__)
    counts, _ = _oracles.configuration_outcome_counts(ins, outs)
    graphs = [sig for sig in counts if len(set(sig)) == len(sig) and all(u != v for u, v in sig)]
    rng = rng_for(3)
    seen = Counter(edge_signature(sample_simple(seq, rng)[0]) for _ in range(len(graphs) * 400))
    assert set(seen) == set(graphs)
    assert stats.chisquare([seen[sig] for sig in graphs]).pvalue > 0.001


def _reciprocated_pairs(g):
    edges = set(g.edges)
    return sum((v, u) in edges for u, v in edges) // 2


def test_sample_simple_matches_rejection_with_both_switchings():
    # nine (2, 2) vertices: closed-form bounds allow 9 loops and 2 doubles;
    # the count of reciprocated pairs against rejection sampling
    seq = DegreeSequence([(2, 2)] * 9)
    stubs = configmodel._stubs(seq)
    assert (stubs.max_loops, stubs.max_doubles) == (9, 2)
    rng = rng_for(5)
    draws = 10_000
    switched = Counter(_reciprocated_pairs(sample_simple(seq, rng)[0]) for _ in range(draws))
    rejected = Counter()
    while sum(rejected.values()) < draws:
        g = sample_configuration(seq, rng)
        if g.simple:
            rejected[_reciprocated_pairs(g)] += 1
    keys = sorted(set(switched) | set(rejected))
    table = [[switched[k] for k in keys], [rejected[k] for k in keys]]
    assert stats.chi2_contingency(table).pvalue > 0.001


def _backward_pairs(src, in_owner, q, s):
    """B by its definition: ordered single in-slots (y1, y2) of one vertex b
    for the out-slots q, s of a."""
    mult = Counter(zip(src, in_owner))
    a, b1, b2 = src[q], in_owner[q], in_owner[s]
    barred1 = {b1} | {u for u, v in mult if v == b1}
    barred2 = {b2} | {u for u, v in mult if v == b2}
    single = [y for y in range(len(src)) if mult[src[y], in_owner[y]] == 1]
    return sum(
        y1 != y2
        and in_owner[y1] == in_owner[y2] != a
        and (a, in_owner[y1]) not in mult
        and src[y1] not in barred1
        and src[y2] not in barred2
        for y1 in single
        for y2 in single
    )


def test_double_bounds_hold_on_random_matchings():
    # nine (2, 2) vertices, where the closed-form B bound is within 2 of the
    # smallest B seen: every A and B is at least its bound, and B equals its
    # definition
    stubs = configmodel._stubs(DegreeSequence([(2, 2)] * 9))
    in_owner = stubs.in_owner.tolist()
    rng = rng_for(9)
    seen = Counter()
    for _ in range(2000):
        src = rng.permutation(stubs.out_owner)
        keys, triple = configmodel._repeated_edges(src, stubs.in_owner, stubs.n)
        if (src == stubs.in_owner).any() or triple or keys.size >= stubs.max_doubles:
            continue
        seen[keys.size] += 1
        state = configmodel._DoubleRemoval(stubs, src, keys)
        a_min, b_min = stubs.double_bounds(keys.size)
        assert state.first >= a_min
        arr = src.tolist()
        for q, s in itertools.permutations(range(stubs.m), 2):
            if arr[q] == arr[s] and not state.paired & {q, s}:
                b = state._stage_b(arr[q], in_owner[q], in_owner[s])
                assert b == _backward_pairs(arr, in_owner, q, s) >= b_min
    assert seen[0] > 50 and seen[1] > 50


def test_sample_simple_draws_on_poisson2():
    # one draw per graph is the common case: doubles and loops are switched
    seq = degrees.realize_sequence(DegreeDistribution.poisson(2.0), 20_000, rng_for(1))
    stubs = configmodel._stubs(seq)
    assert stubs.max_loops > 0 and stubs.max_doubles > 0
    draws = [sample_simple(seq, rng_for(seed))[1] for seed in range(40)]
    assert np.mean(draws) <= 1.5


# ----- simple_probability --------------------------------------------------------


def test_simple_probability_const_one():
    dist = DegreeDistribution.constant(1)
    for formula in ("as_printed", "standard"):
        assert simple_probability(dist, formula) == pytest.approx(math.exp(-1.0))


def test_simple_probability_poisson2():
    dist = DegreeDistribution.poisson(2.0)
    assert simple_probability(dist, "as_printed") == pytest.approx(math.exp(-10.0), rel=1e-9)
    assert simple_probability(dist, "standard") == pytest.approx(math.exp(-4.0), rel=1e-9)


def test_simple_probability_errors():
    with pytest.raises(ZeroMeanDegreeError):
        simple_probability(DegreeDistribution({(0, 0): 1.0}), "standard")
    with pytest.raises(ValueError):
        simple_probability(DegreeDistribution.poisson(2.0), "bogus")


# ----- edge-list format -----------------------------------------------------------


def test_edge_list_roundtrip(tmp_path):
    g = Digraph(5, [0, 1, 1], [1, 2, 2])  # vertices 3, 4 isolated
    path = tmp_path / "graph.txt"
    write_edge_list(g, path, seed=42)
    text = path.read_text()
    assert text.startswith("# n=5 m=3 seed=42\n")
    back = read_edge_list(path)
    assert back.n == 5
    assert back.edges == g.edges


def test_edge_list_headerless(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("0 1\n1 0\n")
    g = read_edge_list(path)
    assert g.n == 2 and g.m == 2


def test_edge_list_comments(tmp_path):
    g = Digraph(2, [0], [1])
    path = tmp_path / "g.txt"
    write_edge_list(g, path, seed=None, comments=["mode=bond pi=0.5 deleted=0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# n=2 m=1 seed=none"
    assert lines[1] == "# mode=bond pi=0.5 deleted=0"
    assert read_edge_list(path).edges == [(0, 1)]


def test_edge_list_edge_count_must_match_header(tmp_path):
    path = tmp_path / "truncated.txt"
    path.write_text("# n=3 m=3 seed=none\n0 1\n1 2\n")
    with pytest.raises(DistributionFormatError, match="m=3") as info:
        read_edge_list(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_edge_list_header_later_whole_line_comment_wins(tmp_path, newline):
    path = tmp_path / "g.txt"
    lines = ["# n=3 m=9 naïve", "0 1", "\t# n=5 m=2", "1 4 # m=7 on an edge line is no header", ""]
    path.write_bytes(newline.join(lines).encode("utf-8"))
    g = read_edge_list(path)
    assert (g.n, g.edges) == (5, [(0, 1), (1, 4)])
    lines[2] = "# n=5x"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    with pytest.raises(DistributionFormatError) as info:
        read_edge_list(path)
    assert str(info.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("header", ["# n=abc m=2", "# n=6 m=two"])
def test_edge_list_header_counts_must_be_integers(tmp_path, header):
    path = tmp_path / "mislabelled.txt"
    path.write_text(f"{header}\n0 5\n5 0\n")
    with pytest.raises(DistributionFormatError) as info:
        read_edge_list(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# n=2 m=1\n0 5\n", r"\[0, n\)"),  # n not above every endpoint
        ("# n=-1 m=0\n", "n must be a nonnegative integer"),
        ("0 -1\n", r"\[0, n\)"),  # no header: a negative endpoint
    ],
)
def test_edge_list_vertex_range_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "range.txt"
    path.write_text(text)
    with pytest.raises(DistributionFormatError, match=message) as info:
        read_edge_list(path)
    assert str(info.value).startswith(f"{path}: ")


def per_line_edge_list(n, edges, seed):
    """The edge-list text written one formatted line per edge."""
    return f"# n={n} m={len(edges)} seed={seed}\n" + "".join(f"{s} {t}\n" for s, t in edges)


@st.composite
def digraphs(draw):
    # ids up to the int64 limit; vertices above the largest id stay isolated
    n = draw(st.one_of(st.integers(0, 12), st.integers(0, 2**63 - 1)))
    ids = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=0 if n == 0 else 30))
    return n, edges


@settings(max_examples=60, deadline=None)
@given(graph=digraphs(), seed=st.none() | st.integers(0, 2**64))
def test_edge_list_roundtrip_property(tmp_path_factory, graph, seed):
    n, edges = graph
    g = Digraph(n, [s for s, _ in edges], [t for _, t in edges])
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    write_edge_list(g, path, seed=seed)
    stream = io.StringIO()
    write_edge_list(g, stream, seed=seed)
    expected = per_line_edge_list(n, edges, "none" if seed is None else seed)
    assert path.read_text(encoding="utf-8") == stream.getvalue() == expected
    back = read_edge_list(path)
    assert (back.n, back.edges) == (n, edges)


def test_edge_list_golden_bytes_across_chunks(tmp_path, monkeypatch):
    g = Digraph(3, [0, 1, 2, 0, 1], [1, 2, 0, 2, 0])
    monkeypatch.setattr(degrees, "ROWS_PER_CHUNK", 2)
    path = tmp_path / "small.txt"
    write_edge_list(g, path, seed=7, comments=["note"])
    assert path.read_bytes() == b"# n=3 m=5 seed=7\n# note\n0 1\n1 2\n2 0\n0 2\n1 0\n"
    monkeypatch.undo()
    m = degrees.ROWS_PER_CHUNK + 3
    rng = rng_for(5)
    src = rng.integers(0, 10**12, size=m)
    dst = rng.integers(0, 10**12, size=m)
    big = Digraph(10**12, src, dst)
    path = tmp_path / "big.txt"
    write_edge_list(big, path, seed=1)
    expected = per_line_edge_list(10**12, big.edges, 1)
    assert path.read_text(encoding="utf-8") == expected


def test_edge_list_trailing_comments(tmp_path):
    path = tmp_path / "annotated.txt"
    path.write_text("# n=4 m=2 seed=none\n0 1 # first edge, m=9 here is no header\n\n  2 3\t# second\n")
    g = read_edge_list(path)
    assert (g.n, g.edges) == (4, [(0, 1), (2, 3)])


@pytest.mark.parametrize(
    "body, lineno",
    [
        ("0 1\n\n1 2 3\n", 4),  # blank lines still count
        ("0 1\n1\n", 3),
        ("0 1\n# comment\n1 x\n", 4),
        ("1.5 0\n", 2),
        ("0 99999999999999999999\n", 2),
        ("0 1\n1 0 # ok\n2 0 0 # three\n", 4),
    ],
)
def test_edge_list_bad_line_names_path_and_line(tmp_path, body, lineno):
    path = tmp_path / "bad.txt"
    path.write_text("# n=3 seed=none\n" + body)
    with pytest.raises(DistributionFormatError) as info:
        read_edge_list(path)
    assert str(info.value).startswith(f"{path}:{lineno}: ")


@pytest.mark.parametrize("text, n", [("# n=4 m=0 seed=none\n", 4), ("", 0), ("\n# nothing\n", 0)])
def test_edge_list_without_edges_reads_silently(tmp_path, text, n):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = read_edge_list(path)
    assert (g.n, g.m) == (n, 0)
