import functools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipercolate import (
    DegreeDistribution,
    DegreeSequence,
    distribution_from_spec,
    empirical_distribution,
    is_graphical,
    properness_report,
    read_distribution,
    read_sequence,
    realize_sequence,
)
from dipercolate import degrees
from dipercolate.degrees import MAX_KEY_WIDTH, exact_sum, require_valid
from dipercolate.errors import (
    DistributionFormatError,
    EmptySequenceError,
    ImbalanceError,
    InvalidSequenceError,
    RepairFailedError,
)
import _oracles


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def balanced(seq):
    try:
        require_valid(seq)
    except InvalidSequenceError:
        return False
    return True


def counts_of(dist, n):
    """Vertex count per (j, k) of an empirical distribution over n vertices."""
    return {jk: round(p * n) for jk, p in _oracles.support(dist).items()}


# ----- validity (require_valid) ------------------------------------------------


@pytest.mark.parametrize(
    "pairs,expected",
    [
        ([(1, 1), (1, 1)], (True, 2, 2)),
        ([(2, 0), (0, 1)], (False, 2, 1)),
        ([], (True, 0, 0)),
    ],
)
def test_validate_examples(pairs, expected):
    seq = DegreeSequence(pairs)
    assert (balanced(seq), seq.in_sum, seq.out_sum) == expected


def test_degree_sums_do_not_wrap():
    seq = DegreeSequence([(2**63 - 1, 0), (1, 0), (0, 1)])
    assert (seq.in_sum, seq.out_sum) == (2**63, 1)
    big = np.array([2**62, 2**62, 3], dtype=np.int64)
    assert exact_sum(big, np.array([4, 1, 5])) == 5 * 2**62 + 15
    assert exact_sum(np.array([3, 4]), np.array([5, 6])) == 39
    assert exact_sum(np.array([], dtype=np.int64)) == 0


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    st.randoms(use_true_random=False),
)
def test_validate_permutation_invariant(pairs, rand):
    shuffled = list(pairs)
    rand.shuffle(shuffled)
    assert balanced(DegreeSequence(pairs)) == balanced(DegreeSequence(shuffled))


def test_sequence_fields():
    seq = DegreeSequence([(2, 1), (0, 3), (2, 0)])
    assert seq.n == 3
    assert seq.in_degrees.tolist() == [2, 0, 2]
    assert seq.out_degrees.tolist() == [1, 3, 0]
    assert seq.d_max == 3
    assert seq.m == seq.in_sum == 4
    with pytest.raises(ValueError):
        DegreeSequence([(1, -1)])


def test_sequence_from_arrays_copies_and_checks():
    ins = np.array([1, 0])
    seq = DegreeSequence.from_arrays(ins, [0, 1])
    ins[0] = 5
    assert seq == DegreeSequence([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        DegreeSequence.from_arrays([1, -1], [0, 0])
    with pytest.raises(ValueError, match="equal length"):
        DegreeSequence.from_arrays([1], [0, 1])


def test_sequence_rejects_non_integer_degrees():
    with pytest.raises(ValueError, match="integers"):
        DegreeSequence([(1.5, 1)])
    for ins, outs in (([1.0, 0], [0, 1]), ([1, 0], np.array([0.5, 1])), ([True], [True])):
        with pytest.raises(ValueError, match="integers"):
            DegreeSequence.from_arrays(ins, outs)
    # empty input of any dtype, and integer numpy scalars, still pass
    assert DegreeSequence([]).n == DegreeSequence.from_arrays([], []).n == 0
    seq = DegreeSequence([(np.int32(2), np.uint8(1)), (0, 1)])
    assert seq.in_degrees.dtype == np.int64 and seq.in_degrees.tolist() == [2, 0]


# ----- is_graphical ----------------------------------------------------------


def test_graphical_examples():
    assert is_graphical(DegreeSequence([(1, 1), (1, 1)]))  # the 2-cycle
    assert not is_graphical(DegreeSequence([(1, 1)]))  # would need a self-loop
    assert is_graphical(DegreeSequence([]))
    assert not is_graphical(DegreeSequence([(2, 0), (0, 2)]))  # needs a doubled edge
    assert is_graphical(DegreeSequence([(2, 2), (1, 1), (1, 1)]))


def test_graphical_rejects_invalid():
    with pytest.raises(InvalidSequenceError):
        is_graphical(DegreeSequence([(2, 0), (0, 1)]))


def test_graphical_matches_bruteforce_small():
    # n <= 3 here; the acceptance suite sweeps the full n <= 4 grid.
    for n in range(1, 4):
        realizable = _oracles.simple_digraph_profiles(n)
        for combo in _oracles.valid_sequences(n, 3):
            seq = DegreeSequence(list(combo))
            assert is_graphical(seq) == (combo in realizable), combo


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60)
def test_graphical_permutation_invariant(pairs, rand):
    seq = DegreeSequence(pairs)
    if not balanced(seq):
        return
    shuffled = list(pairs)
    rand.shuffle(shuffled)
    assert is_graphical(seq) == is_graphical(DegreeSequence(shuffled))


@st.composite
def balanced_pairs(draw, max_n, max_degree):
    """A balanced sequence: out-degrees a permutation of the in-degrees, then a few
    units moved between vertices, so equal in- and out-degrees are common."""
    n = draw(st.integers(1, max_n))
    ins = draw(st.lists(st.integers(0, max_degree), min_size=n, max_size=n))
    outs = draw(st.permutations(ins))
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if outs[u] > 0 and outs[v] < max_degree:
            outs[u] -= 1
            outs[v] += 1
    return list(zip(ins, outs))


simple_digraph_profiles = functools.cache(_oracles.simple_digraph_profiles)


@given(balanced_pairs(max_n=5, max_degree=4))
@settings(max_examples=300, deadline=None)
def test_graphical_matches_bruteforce_with_ties(pairs):
    # n = 5 reaches sequences whose d_max + 1 is below n, beyond c10's grid
    realizable = simple_digraph_profiles(len(pairs))
    assert is_graphical(DegreeSequence(pairs)) == (tuple(pairs) in realizable)


@given(balanced_pairs(max_n=40, max_degree=12))
@settings(max_examples=300, deadline=None)
def test_graphical_matches_inequality_loop(pairs):
    ins, outs = zip(*pairs)
    assert is_graphical(DegreeSequence(pairs)) == _oracles.fulkerson_chen_anstee_loop(ins, outs)


# ----- empirical distribution -------------------------------------------------


def test_empirical_examples():
    dist = empirical_distribution(DegreeSequence([(1, 1), (1, 1)]))
    assert _oracles.support(dist) == {(1, 1): 1.0}
    assert counts_of(dist, 2) == {(1, 1): 2}

    dist = empirical_distribution(DegreeSequence([(1, 0), (0, 1)]))
    table = _oracles.support(dist)
    assert table[(1, 0)] == pytest.approx(0.5)
    assert table[(0, 1)] == pytest.approx(0.5)
    assert sum(counts_of(dist, 2).values()) == 2

    with pytest.raises(EmptySequenceError):
        empirical_distribution(DegreeSequence([]))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=30))
def test_empirical_counts_and_moments(pairs):
    seq = DegreeSequence(pairs)
    if not balanced(seq):
        return
    dist = empirical_distribution(seq)
    counts = Counter(pairs)
    assert counts_of(dist, seq.n) == counts
    assert list(_oracles.support(dist)) == sorted(counts)
    assert sum(counts.values()) == seq.n
    # moment cache equals the direct sums over counts
    for (i, l), cached in dist.moments.items():
        direct = sum(j**i * k**l * c for (j, k), c in counts.items()) / seq.n
        assert cached == pytest.approx(direct, abs=1e-12)


def test_empirical_degree_key_limit():
    # the largest degree whose (j, k) key fits int64 counts exactly; one more is refused
    top = MAX_KEY_WIDTH - 1
    dist = empirical_distribution(DegreeSequence([(top, top), (0, 0)]))
    assert _oracles.support(dist) == {(0, 0): 0.5, (top, top): 0.5}
    with pytest.raises(ValueError, match="too large to tabulate"):
        empirical_distribution(DegreeSequence([(top + 1, top + 1)]))


# ----- properness report -------------------------------------------------------


def test_properness_all_ones_4096():
    seq = DegreeSequence([(1, 1)] * 4096)
    report = properness_report(seq)
    assert report.d_max == 1
    assert report.d_max_bound == pytest.approx(0.24044917348149392, abs=1e-12)
    assert not report.d_max_ok
    assert report.rho == pytest.approx(1.0)
    assert report.graphical


def test_properness_moments_n2():
    report = properness_report(DegreeSequence([(1, 1), (1, 1)]))
    for il in [(1, 0), (0, 1), (1, 1)]:
        assert report.empirical_moments[il] == pytest.approx(1.0)
    assert report.rho_vs_dmax_ratio == pytest.approx(1.0)


def test_properness_rejects_invalid():
    with pytest.raises(InvalidSequenceError):
        properness_report(DegreeSequence([(2, 0), (0, 1)]))


# ----- DegreeDistribution ------------------------------------------------------


def test_distribution_rejects_imbalance():
    with pytest.raises(ImbalanceError):
        DegreeDistribution({(1, 0): 1.0})
    with pytest.raises(ImbalanceError):
        DegreeDistribution({(2, 0): 0.5, (0, 1): 0.5})


def test_distribution_rejects_bad_mass():
    with pytest.raises(DistributionFormatError):
        DegreeDistribution({(1, 1): 0.5})
    with pytest.raises(DistributionFormatError):
        DegreeDistribution({})
    with pytest.raises(DistributionFormatError):
        DegreeDistribution({(1, 1): -0.2, (0, 0): 1.2})


def test_poisson_family_moments():
    lam = 2.0
    dist = DegreeDistribution.poisson(lam)
    assert dist.ps.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.truncation_loss < 2e-12
    assert dist.mu == pytest.approx(lam, abs=1e-9)
    assert dist.mu11 == pytest.approx(lam * lam, abs=1e-9)
    assert dist.mu20 == pytest.approx(lam + lam * lam, abs=1e-9)
    assert dist.mu02 == pytest.approx(lam + lam * lam, abs=1e-9)


def test_geometric_family_moments():
    p = 0.4
    dist = DegreeDistribution.geometric(p)
    mean = (1 - p) / p
    assert dist.mu == pytest.approx(mean, abs=1e-9)
    assert dist.mu11 == pytest.approx(mean * mean, abs=1e-9)


def test_constant_family():
    dist = DegreeDistribution.constant(3)
    assert _oracles.support(dist) == {(3, 3): 1.0}
    assert dist.mu == 3.0 and dist.mu11 == 9.0


def test_distribution_from_spec():
    assert _oracles.support(distribution_from_spec("const:2")) == {(2, 2): 1.0}
    assert distribution_from_spec("poisson:1.5").mu == pytest.approx(1.5, abs=1e-9)
    with pytest.raises(DistributionFormatError):
        distribution_from_spec("zipf:2")
    with pytest.raises(DistributionFormatError):
        distribution_from_spec("poisson")


# ----- realize_sequence --------------------------------------------------------


def test_realize_point_mass():
    dist = DegreeDistribution.constant(1)
    seq = realize_sequence(dist, 10, rng_for(7))
    assert seq == DegreeSequence([(1, 1)] * 10)


def test_realize_deterministic():
    dist = DegreeDistribution.poisson(2.0)
    a = realize_sequence(dist, 500, rng_for(123))
    b = realize_sequence(dist, 500, rng_for(123))
    assert a == b
    c = realize_sequence(dist, 500, rng_for(124))
    assert a != c


def test_realize_always_valid():
    dist = DegreeDistribution.poisson(1.3)
    for seed in range(5):
        seq = realize_sequence(dist, 64, rng_for(seed))
        assert balanced(seq)


def test_realize_tv_distance_poisson():
    dist = DegreeDistribution.poisson(2.0)
    seq = realize_sequence(dist, 10**5, rng_for(2024))
    emp = empirical_distribution(seq)
    assert _oracles.total_variation(emp, dist) < 0.01


def test_realize_repair_failure():
    # balanced in expectation, but a single vertex can never balance exactly
    dist = DegreeDistribution({(2, 0): 1 / 3, (0, 1): 2 / 3})
    with pytest.raises(RepairFailedError):
        realize_sequence(dist, 1, rng_for(0))


def test_realize_unbalanceable_fails_before_drawing():
    # every vertex adds an odd imbalance (1 or -1), so odd n never balances
    dist = DegreeDistribution({(2, 1): 0.5, (0, 1): 0.5})
    rng = rng_for(0)
    state = rng.bit_generator.state
    with pytest.raises(RepairFailedError, match="modulo 2"):
        realize_sequence(dist, 1001, rng)
    np.testing.assert_equal(rng.bit_generator.state, state)


def test_realize_repair_budget_when_lattice_allows():
    # gcd of the imbalances 4, -1, -3 is 1, yet no single pair has j == k
    dist = DegreeDistribution({(4, 0): 1 / 3, (0, 1): 1 / 3, (0, 3): 1 / 3})
    with pytest.raises(RepairFailedError, match="redraws"):
        realize_sequence(dist, 1, rng_for(0))


def test_batched_repair_matches_scalar_chain():
    rng = np.random.default_rng(13)
    seen = Counter()
    for case in range(400):
        n = int(rng.integers(1, 31))
        size = int(rng.integers(1, 61))
        ins, outs = rng.integers(0, 5, n), rng.integers(0, 5, n)
        vertices = rng.integers(0, n, size)
        new_in, new_out = rng.integers(0, 5, size), rng.integers(0, 5, size)
        if case % 4 == 1:  # stop at the first redraw
            diff = int(ins[vertices[0]] - outs[vertices[0]] - new_in[0] + new_out[0])
        elif case % 4 == 2:  # stop at the last: no earlier partial sum reaches 1000
            new_in[-1] = 1000
            far = 10**9  # an imbalance no partial sum cancels, to total the walk
            _, left = _oracles.replay_redraws(ins.copy(), outs.copy(), far, vertices, new_in, new_out)
            diff = far - left
        else:
            diff = int(rng.integers(-8, 9))
        expect_in, expect_out = ins.copy(), outs.copy()
        expected = _oracles.replay_redraws(expect_in, expect_out, diff, vertices, new_in, new_out)
        assert degrees._replay_redraws(ins, outs, diff, vertices, new_in, new_out) == expected
        np.testing.assert_array_equal(ins, expect_in)
        np.testing.assert_array_equal(outs, expect_out)
        used = expected[0]
        seen["first"] += used == 1 and expected[1] == 0
        seen["last"] += used == size > 1 and expected[1] == 0
        seen["none"] += expected[1] != 0
        seen["repeat"] += len(set(vertices[:used].tolist())) < used
    assert min(seen.values()) >= 50, seen


def _spy_on_repair(monkeypatch):
    """Record each batch of redraws realize_sequence replays."""
    batches = []
    replay = degrees._replay_redraws

    def spy(ins, outs, diff, vertices, new_in, new_out):
        batches.append((vertices.copy(), new_in.copy(), new_out.copy()))
        return replay(ins, outs, diff, vertices, new_in, new_out)

    monkeypatch.setattr(degrees, "_replay_redraws", spy)
    return batches


def test_realize_replays_scalar_chain_across_batches(monkeypatch):
    monkeypatch.setattr(degrees, "_REPAIR_BATCH", 8)
    batches = _spy_on_repair(monkeypatch)
    dist = DegreeDistribution.poisson(1.3)
    multi = 0
    for seed in range(30):
        batches.clear()
        seq = realize_sequence(dist, 30, rng_for(seed))
        ins, outs = dist.sample_pairs(30, rng_for(seed))  # the iid draw before repair
        if batches:
            vertices, new_in, new_out = (np.concatenate(parts) for parts in zip(*batches))
            diff = int(ins.sum() - outs.sum())
            used, left = _oracles.replay_redraws(ins, outs, diff, vertices, new_in, new_out)
            # the scalar chain balances inside the last batch, as realize_sequence did
            assert left == 0 and used > len(vertices) - len(batches[-1][0])
        assert seq == DegreeSequence.from_arrays(ins, outs)
        multi += len(batches) > 1
    assert multi >= 5


def test_realize_budget_runs_out_partway_through_a_batch(monkeypatch):
    monkeypatch.setattr(degrees, "_REPAIR_BATCH", 8)
    monkeypatch.setattr(degrees, "MAX_REDRAWS_PER_VERTEX", 20)
    batches = _spy_on_repair(monkeypatch)
    dist = DegreeDistribution({(4, 0): 1 / 3, (0, 1): 1 / 3, (0, 3): 1 / 3})
    with pytest.raises(RepairFailedError, match="after 20 redraws"):
        realize_sequence(dist, 1, rng_for(0))
    assert [len(vertices) for vertices, _, _ in batches] == [8, 8, 4]


def test_lattice_is_computed_once(monkeypatch):
    dist = DegreeDistribution({(2, 1): 0.5, (0, 1): 0.5})
    assert dist._lattice == (-1, 2)
    monkeypatch.setattr(np, "gcd", None)  # a second gcd pass would fail
    with pytest.raises(RepairFailedError, match="1 modulo 2"):
        realize_sequence(dist, 1001, rng_for(0))
    assert realize_sequence(dist, 1000, rng_for(0)).n == 1000


def test_realize_rejects_bad_n():
    with pytest.raises(ValueError):
        realize_sequence(DegreeDistribution.constant(1), 0, rng_for(0))


# ----- file formats -------------------------------------------------------------


def test_distribution_file_roundtrip(tmp_path):
    dist = DegreeDistribution({(0, 0): 0.25, (1, 2): 0.25, (2, 1): 0.25, (1, 1): 0.25})
    path = tmp_path / "dist.txt"
    _oracles.write_distribution(dist, path)
    back = read_distribution(path)
    assert _oracles.support(back) == _oracles.support(dist)


def test_distribution_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 0.5\n")  # mass 0.5, outside 1e-6 tolerance
    with pytest.raises(DistributionFormatError):
        read_distribution(path)
    path.write_text("1 1 0.5\n1 1 0.5\n")  # duplicate entry
    with pytest.raises(DistributionFormatError):
        read_distribution(path)
    path.write_text("1 1\n")  # wrong arity
    with pytest.raises(DistributionFormatError):
        read_distribution(path)


def test_distribution_file_comments_and_tolerance(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("# comment line\n1 1 0.5000001\n0 0 0.5\n")
    dist = read_distribution(path)
    assert dist.ps.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_file_order_does_not_matter(tmp_path):
    dist = DegreeDistribution.geometric(0.5)
    columns = (dist.js.tolist(), dist.ks.tolist(), dist.ps.tolist())
    rows = [f"{j} {k} {p!r}\n" for j, k, p in zip(*columns)]
    in_order = tmp_path / "sorted.txt"
    in_order.write_text("".join(rows))
    rng_for(3).shuffle(rows)
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("# shuffled\n" + "".join(rows))
    a, b = read_distribution(in_order), read_distribution(shuffled)
    for name in ("js", "ks", "ps"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_allclose(a.ps, dist.ps, rtol=1e-12)
    assert a.moments == b.moments


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("1 1 0.25\n2 0 0.25\n1 1 0.5\n", DistributionFormatError, "repeated entry for (1, 1)"),
        ("1 1 0.5\n", DistributionFormatError, "probabilities sum to 0.5"),
        ("2 0 0.5\n0 0 0.5\n", ImbalanceError, "mean in-degree 1.0 != mean out-degree 0.0"),
        ("# only a comment\n", DistributionFormatError, "empty distribution"),
    ],
)
def test_distribution_file_errors_name_the_file(tmp_path, text, error, message):
    path = tmp_path / "dist.txt"
    path.write_text(text)
    with pytest.raises(error, match="^" + re.escape(f"{path}: {message}")):
        read_distribution(path)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("# j k p\n1 1 0.5\n\n0 0 x\n", 4),
        ("1 1 0.5\n0 0\n", 2),
        ("1 1 0.5 # ok\n0 0 0.5 7\n", 2),
        ("1 1 0.5\n1.5 0 0.5\n", 2),
        ("0 0 0.5\n99999999999999999999 1 0.5\n", 2),
        ("0 0 1_0\n", 1),
    ],
)
def test_distribution_file_bad_line_names_path_and_line(tmp_path, text, lineno):
    path = tmp_path / "dist.txt"
    path.write_text(text)
    with pytest.raises(DistributionFormatError) as info:
        read_distribution(path)
    assert str(info.value).startswith(f"{path}:{lineno}: ")


def test_distribution_file_compressed_suffix(tmp_path):
    path = tmp_path / "dist.txt.gz"
    path.write_text("0 0 1\n")
    with pytest.raises(DistributionFormatError, match="compressed input is not supported"):
        read_distribution(path)


def test_sequence_file_roundtrip(tmp_path):
    seq = DegreeSequence([(1, 2), (2, 1), (0, 0)])
    path = tmp_path / "seq.txt"
    _oracles.write_sequence(seq, path)
    assert path.read_text() == "1 2\n2 1\n0 0\n"
    assert read_sequence(path) == seq


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("1 1\n\n# note\n2\n", 4),
        ("1 1 # ok\n1 x\n", 2),
        ("99999999999999999999 1\n", 1),
        pytest.param("1 1\n" * 5000 + "# note\n\n1 x\n" + "1 1\n" * 5000, 5003, id="deep"),
    ],
)
def test_sequence_file_bad_line_names_path_and_line(tmp_path, text, lineno):
    path = tmp_path / "seq.txt"
    path.write_text(text)
    with pytest.raises(DistributionFormatError) as info:
        read_sequence(path)
    assert str(info.value).startswith(f"{path}:{lineno}: ")


def test_truncation_loss_bound():
    # truncation removes less than the advertised tail mass
    for lam in (0.5, 2.0, 5.0):
        assert DegreeDistribution.poisson(lam).truncation_loss < 2e-12
