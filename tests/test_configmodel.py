import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dipercolate import degrees
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


@pytest.mark.parametrize("header", ["# n=abc m=2", "# n=6 m=two"])
def test_edge_list_header_counts_must_be_integers(tmp_path, header):
    path = tmp_path / "mislabelled.txt"
    path.write_text(f"{header}\n0 5\n5 0\n")
    with pytest.raises(DistributionFormatError) as info:
        read_edge_list(path)
    assert str(path) in str(info.value)


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
