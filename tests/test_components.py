import numpy as np
import pytest

from dipercolate import (
    Digraph,
    largest_scc_fraction,
    strongly_connected_components,
)
from dipercolate.components import write_labels
from dipercolate.errors import EmptyGraphError
import _oracles
from _oracles import VertexOutOfRangeError, strong_component_of


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_digraph(rng, n_max=8, m_max=16):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return Digraph(n, src, dst)


def test_two_cycle_single_component():
    part = strongly_connected_components(Digraph(2, [0, 1], [1, 0]))
    assert part.count == 1
    assert part.largest == (part.largest[0], 2)
    assert largest_scc_fraction(Digraph(2, [0, 1], [1, 0])) == 1.0


def test_path_all_singletons():
    part = strongly_connected_components(Digraph(3, [0, 1], [1, 2]))
    assert part.count == 3
    assert part.largest[1] == 1


def test_three_cycle_plus_isolated():
    g = Digraph(4, [0, 1, 2], [1, 2, 0])
    assert largest_scc_fraction(g) == pytest.approx(0.75)


def test_edgeless_fraction():
    assert largest_scc_fraction(Digraph(5, [], [])) == pytest.approx(1 / 5)


def test_empty_graph():
    part = strongly_connected_components(Digraph(0, [], []))
    assert part.count == 0 and part.largest == (-1, 0)
    with pytest.raises(EmptyGraphError):
        largest_scc_fraction(Digraph(0, [], []))


def test_partition_invariants():
    rng = rng_for(8)
    for _ in range(50):
        g = random_digraph(rng)
        part = strongly_connected_components(g)
        assert part.component_sizes.sum() == g.n
        assert part.largest[1] == part.component_sizes.max()
        assert len(part.component_id) == g.n


def test_partition_matches_closure_oracle():
    rng = rng_for(13)
    for _ in range(200):
        g = random_digraph(rng)
        part = strongly_connected_components(g)
        oracle = _oracles.mutual_reachability_labels(g.n, g.src, g.dst)
        assert _oracles.canonical_labels(part.component_id.tolist()) == (
            _oracles.canonical_labels(oracle)
        )


def test_multiedges_and_selfloops_do_not_matter():
    base = Digraph(4, [0, 1, 2], [1, 2, 0])
    noisy = Digraph(4, [0, 1, 2, 0, 0, 3], [1, 2, 0, 1, 0, 3], )
    a = strongly_connected_components(base)
    b = strongly_connected_components(noisy)
    assert _oracles.canonical_labels(a.component_id.tolist()) == (
        _oracles.canonical_labels(b.component_id.tolist())
    )


def test_relabeling_invariance():
    rng = rng_for(21)
    for _ in range(25):
        g = random_digraph(rng)
        perm = rng.permutation(g.n)
        relabeled = Digraph(g.n, perm[g.src], perm[g.dst])
        a = strongly_connected_components(g)
        b = strongly_connected_components(relabeled)
        # map a's labels through the permutation and canonicalize
        assert sorted(a.component_sizes.tolist()) == sorted(b.component_sizes.tolist())
        for v in range(g.n):
            for w in range(g.n):
                same_a = a.component_id[v] == a.component_id[w]
                same_b = b.component_id[perm[v]] == b.component_id[perm[w]]
                assert same_a == same_b


def test_strong_component_of_examples():
    cyc = Digraph(2, [0, 1], [1, 0])
    assert strong_component_of(cyc, 0) == {0, 1}
    assert strong_component_of(cyc, 1) == {0, 1}
    iso = Digraph(3, [0], [1])
    assert strong_component_of(iso, 2) == {2}
    with pytest.raises(VertexOutOfRangeError):
        strong_component_of(iso, 3)


def test_strong_component_agrees_with_partition():
    rng = rng_for(34)
    for _ in range(40):
        g = random_digraph(rng)
        part = strongly_connected_components(g)
        for v in range(g.n):
            members = set(np.flatnonzero(part.component_id == part.component_id[v]).tolist())
            assert strong_component_of(g, v) == members


def test_write_labels(tmp_path):
    g = Digraph(3, [0, 1], [1, 0])
    part = strongly_connected_components(g)
    path = tmp_path / "labels.txt"
    write_labels(part, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 2 for line in lines)
    assert [int(line.split()[0]) for line in lines] == [0, 1, 2]
    labels = part.component_id.tolist()
    assert path.read_text() == "".join(f"{v} {label}\n" for v, label in enumerate(labels))
