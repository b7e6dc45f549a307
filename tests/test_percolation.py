import numpy as np
import pytest
from scipy import stats

import _oracles
from dipercolate import (
    DegreeSequence,
    Digraph,
    bond_percolate,
    sample_simple,
    site_percolate,
)
from dipercolate.degrees import require_valid
from dipercolate.errors import PiOutOfRangeError


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def two_cycle():
    return Digraph(2, [0, 1], [1, 0])


def edge_sig(g):
    return tuple(sorted(zip(g.src.tolist(), g.dst.tolist())))


# ----- basic contracts ---------------------------------------------------------


@pytest.mark.parametrize("mode", [bond_percolate, site_percolate])
def test_identity_at_pi_one(mode):
    g = Digraph(4, [0, 1, 2, 0], [1, 2, 0, 3])
    out = mode(g, 1.0, rng_for(0))
    assert edge_sig(out.graph) == edge_sig(g)
    assert out.graph.n == g.n
    assert out.surviving_edges == g.m
    assert out.deleted_vertices.size == 0
    assert out.graph.degree_sequence() == g.degree_sequence()


@pytest.mark.parametrize("mode", [bond_percolate, site_percolate])
@pytest.mark.parametrize("pi", [0.0, -0.25, 1.0000001])
def test_pi_out_of_range(mode, pi):
    with pytest.raises(PiOutOfRangeError):
        mode(two_cycle(), pi, rng_for(0))


def test_bond_keeps_vertex_set():
    g = Digraph(6, [0, 1, 2], [1, 2, 0])
    out = bond_percolate(g, 0.5, rng_for(3))
    assert out.graph.n == 6
    assert out.mode == "bond"
    assert set(edge_sig(out.graph)) <= set(edge_sig(g))


def test_site_deleted_vertices_have_degree_zero():
    from dipercolate import strongly_connected_components

    g = Digraph(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0])
    for seed in range(20):
        out = site_percolate(g, 0.5, rng_for(seed))
        seq = out.graph.degree_sequence()
        part = strongly_connected_components(out.graph)
        for v in out.deleted_vertices.tolist():
            assert seq.in_degrees[v] == 0 and seq.out_degrees[v] == 0
            # deleted vertices are always singleton components
            assert part.component_sizes[part.component_id[v]] == 1
        # surviving edges only join surviving vertices
        deleted = set(out.deleted_vertices.tolist())
        for s, t in _oracles.edges(out.graph):
            assert s not in deleted and t not in deleted


def test_induced_sequence_empty_graph():
    g = Digraph(3, [], [])
    out = bond_percolate(g, 0.5, rng_for(0))
    assert out.graph.degree_sequence() == DegreeSequence([(0, 0)] * 3)


def test_induced_sequence_always_valid():
    g = Digraph(8, [0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0])
    for seed in range(10):
        for mode in (bond_percolate, site_percolate):
            out = mode(g, 0.6, rng_for(seed))
            require_valid(out.graph.degree_sequence())  # raises unless balanced


def test_percolation_deterministic_and_seed_sensitive():
    g = Digraph(50, np.arange(50), (np.arange(50) + 1) % 50)
    a = bond_percolate(g, 0.5, rng_for(11))
    b = bond_percolate(g, 0.5, rng_for(11))
    assert edge_sig(a.graph) == edge_sig(b.graph)
    c = bond_percolate(g, 0.5, rng_for(12))
    assert edge_sig(a.graph) != edge_sig(c.graph)


# ----- distributional checks ----------------------------------------------------


def test_bond_two_cycle_four_outcomes():
    g = two_cycle()
    rng = rng_for(21)
    trials = 100_000
    counts = {}
    for _ in range(trials):
        sig = edge_sig(bond_percolate(g, 0.5, rng).graph)
        counts[sig] = counts.get(sig, 0) + 1
    assert set(counts) == {
        (),
        ((0, 1),),
        ((1, 0),),
        ((0, 1), (1, 0)),
    }
    assert stats.chisquare(list(counts.values())).pvalue > 0.001


def test_site_two_cycle_survival_quarter():
    g = two_cycle()
    rng = rng_for(22)
    trials = 100_000
    both = sum(
        site_percolate(g, 0.5, rng).surviving_edges == 2 for _ in range(trials)
    )
    p_hat = both / trials
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert abs(p_hat - 0.25) < 3 * sigma


def test_bond_edge_count_binomial_moments():
    n = 1000
    g = Digraph(n, np.arange(n), (np.arange(n) + 1) % n)
    pi = 0.3
    rng = rng_for(40)
    trials = 2000
    kept = np.array([bond_percolate(g, pi, rng).surviving_edges for _ in range(trials)])
    mean, var = kept.mean(), kept.var(ddof=1)
    assert abs(mean - n * pi) < 3 * np.sqrt(n * pi * (1 - pi) / trials)
    assert abs(var - n * pi * (1 - pi)) < 25  # 3 sigma of the sample variance


def test_site_survivor_fraction():
    n = 2000
    g = Digraph(n, [], [])
    pi = 0.7
    rng = rng_for(41)
    out = site_percolate(g, pi, rng)
    alive = n - out.deleted_vertices.size
    assert abs(alive / n - pi) < 3 * np.sqrt(pi * (1 - pi) / n)


def test_bond_per_vertex_binomial_thinning():
    # vertex 0 has in-degree 2 and out-degree 3 on disjoint edges; post-bond
    # degrees must be Bin(2, pi) x Bin(3, pi) independently
    g = Digraph(4, [1, 2, 0, 0, 0], [0, 0, 1, 2, 3])
    pi = 0.6
    rng = rng_for(55)
    trials = 60_000
    counts = np.zeros((3, 4))
    for _ in range(trials):
        seq = bond_percolate(g, pi, rng).graph.degree_sequence()
        counts[seq.in_degrees[0], seq.out_degrees[0]] += 1
    expected = trials * np.outer(
        stats.binom.pmf(np.arange(3), 2, pi), stats.binom.pmf(np.arange(4), 3, pi)
    )
    p = stats.chisquare(counts.ravel(), expected.ravel()).pvalue
    assert p > 0.001


# ----- conditional uniformity (percolated configuration lemma) ------------------


THREE_SEQ = [(1, 1), (1, 1), (1, 1)]
CYCLE_A = ((0, 1), (1, 2), (2, 0))
CYCLE_B = ((0, 2), (1, 0), (2, 1))


def _profile_of(sig, n=3):
    ins = [0] * n
    outs = [0] * n
    for s, t in sig:
        outs[s] += 1
        ins[t] += 1
    return tuple(zip(ins, outs))


def _bond_classes():
    classes = {}
    for cyc in (CYCLE_A, CYCLE_B):
        for bits in range(8):
            kept = tuple(sorted(e for i, e in enumerate(cyc) if bits >> i & 1))
            classes.setdefault(_profile_of(kept), set()).add(kept)
    return classes


def _site_classes():
    classes = {}
    for cyc in (CYCLE_A, CYCLE_B):
        for bits in range(8):
            deleted = {v for v in range(3) if bits >> v & 1}
            kept = tuple(
                sorted(e for e in cyc if e[0] not in deleted and e[1] not in deleted)
            )
            classes.setdefault(_profile_of(kept), set()).add(kept)
    return classes


@pytest.mark.parametrize(
    "percolate,classes_fn",
    [(bond_percolate, _bond_classes), (site_percolate, _site_classes)],
    ids=["bond", "site"],
)
def test_conditional_uniformity(percolate, classes_fn):
    # Conditional on the induced degree sequence, every compatible percolated
    # edge-configuration must be equally likely when the parent graph comes
    # from the uniform simple sampler.
    classes = classes_fn()
    multi = {prof: sigs for prof, sigs in classes.items() if len(sigs) > 1}
    # on three (1,1) vertices exactly one class is informative: full survival
    assert list(multi.values()) == [{CYCLE_A, CYCLE_B}]

    seq = DegreeSequence(THREE_SEQ)
    pi = 0.75
    rng = rng_for(77)
    trials = 1_000_000
    observed = {prof: {sig: 0 for sig in sigs} for prof, sigs in classes.items()}
    for _ in range(trials):
        g, _ = sample_simple(seq, rng)
        out = percolate(g, pi, rng)
        sig = tuple(sorted(zip(out.graph.src.tolist(), out.graph.dst.tolist())))
        prof = _profile_of(sig)
        observed[prof][sig] += 1

    for prof, sigs in multi.items():
        counts = [observed[prof][sig] for sig in sigs]
        assert sum(counts) > 1000
        assert stats.chisquare(counts).pvalue > 0.001
