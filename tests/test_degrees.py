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


def test_sequence_file_roundtrip(tmp_path):
    seq = DegreeSequence([(1, 2), (2, 1), (0, 0)])
    path = tmp_path / "seq.txt"
    _oracles.write_sequence(seq, path)
    assert path.read_text() == "1 2\n2 1\n0 0\n"
    assert read_sequence(path) == seq


@pytest.mark.parametrize(
    "text, lineno",
    [("1 1\n\n# note\n2\n", 4), ("1 1 # ok\n1 x\n", 2), ("99999999999999999999 1\n", 1)],
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
