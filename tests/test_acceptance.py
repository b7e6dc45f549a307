"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected values tagged as derived are computed here by independent oracles
(explicit matching enumeration, exhaustive realization search, transitive
closure, scalar fixed-point iteration with a brentq cross-check), never read
from the library path under test.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from dipercolate import (
    DegreeDistribution,
    DegreeSequence,
    Digraph,
    ExperimentConfig,
    bond_distribution,
    bond_percolate,
    empirical_distribution,
    gscc_fraction,
    is_graphical,
    realize_sequence,
    run_experiment,
    sample_configuration,
    sample_simple,
    simple_probability,
    strongly_connected_components,
)
from dipercolate.cli import main
import _oracles


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class criterion:
    """Times a criterion body, enforces its stated runtime cap, prints one line."""

    def __init__(self, num, max_seconds=None):
        self.num = num
        self.max_seconds = max_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"acceptance criterion {self.num:02d}: FAIL ({exc})")
        return False

    def done(self, detail):
        elapsed = time.perf_counter() - self.t0
        if self.max_seconds is not None:
            assert elapsed < self.max_seconds, (
                f"took {elapsed:.1f}s, cap {self.max_seconds}s"
            )
        print(
            f"acceptance criterion {self.num:02d}: PASS ({detail}; {elapsed:.1f}s)"
        )


# oracle for criteria 4/5: smallest fixed point of x = exp(1.6 (x - 1)),
# computed by plain iteration and cross-checked against a bracketing root
# finder and the classical survival equation
def bond_fraction_oracle():
    x = 0.0
    for _ in range(10**6):
        nxt = math.exp(1.6 * (x - 1.0))
        if abs(nxt - x) < 1e-14:
            break
        x = nxt
    root = brentq(lambda t: math.exp(1.6 * (t - 1.0)) - t, 0.0, 0.9, xtol=1e-14)
    assert abs(x - root) < 1e-9
    beta = brentq(lambda b: 1.0 - math.exp(-1.6 * b) - b, 1e-9, 1.0, xtol=1e-14)
    assert abs((1.0 - x) - beta) < 1e-9
    return (1.0 - x) ** 2


def test_c01_sampler_uniformity_tiny_exact():
    # 10^5 configuration samples on [(1,1),(1,1)]: self-loop pair vs 2-cycle
    with criterion(1, max_seconds=5.0) as c:
        seq = DegreeSequence([(1, 1), (1, 1)])
        rng = rng_for(101)
        cycle_count = 0
        for _ in range(100_000):
            g = sample_configuration(seq, rng)
            cycle_count += int(g.src[0] != g.dst[0])
        counts = [cycle_count, 100_000 - cycle_count]
        p = stats.chisquare(counts).pvalue
        assert p > 0.001
        c.done(f"split {counts}, chi-square p = {p:.3f}")


def test_c02_conditional_on_simple_uniformity():
    # 10^5 simple samples on three (1,1) vertices: the two directed 3-cycles
    with criterion(2, max_seconds=10.0) as c:
        seq = DegreeSequence([(1, 1), (1, 1), (1, 1)])
        rng = rng_for(202)
        cycle_a = ((0, 1), (1, 2), (2, 0))
        cycle_b = ((0, 2), (1, 0), (2, 1))
        counts = {cycle_a: 0, cycle_b: 0}
        for _ in range(100_000):
            g, _ = sample_simple(seq, rng)
            counts[tuple(sorted(zip(g.src.tolist(), g.dst.tolist())))] += 1
        p = stats.chisquare(list(counts.values())).pvalue
        assert p > 0.001
        c.done(f"split {list(counts.values())}, chi-square p = {p:.3f}")


def test_c03_exact_probability_oracle():
    # every valid sequence with degrees <= 3 on n <= 4 vertices and m <= 6,
    # deduplicated up to vertex relabeling, plus a larger n = 6 spot case
    with criterion(3, max_seconds=30.0) as c:
        cases = set()
        for n in range(0, 5):
            for combo in _oracles.valid_sequences(n, 3, m_max=6):
                cases.add(tuple(sorted(combo)))
        cases.add(((1, 1),) * 6)
        assert len(cases) > 300
        checked = 0
        for pairs in sorted(cases):
            seq = DegreeSequence(list(pairs))
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
            checked += 1
        c.done(f"{checked} sequences, all exact rational sums equal 1")


def test_c04_supercritical_bond_prediction():
    with criterion(4, max_seconds=300.0) as c:
        c_oracle = bond_fraction_oracle()
        dist = DegreeDistribution.poisson(2.0)
        assert gscc_fraction(dist, 0.8, "bond").c_bond == pytest.approx(
            c_oracle, abs=1e-8
        )
        config = ExperimentConfig(
            dist="poisson:2", n=100_000, pi_grid=(0.8,), mode="bond",
            trials=20, master_seed=404,
        )
        records, summary = run_experiment(config, dist=dist)
        assert all(r.status == "ok" for r in records)
        mean = summary[0]["mean"]
        assert abs(mean - c_oracle) <= 0.01
        c.done(f"mean {mean:.4f} vs oracle {c_oracle:.4f} (+/- 0.01)")


def test_c05_site_identity():
    with criterion(5, max_seconds=300.0) as c:
        c_oracle = 0.8 * bond_fraction_oracle()
        dist = DegreeDistribution.poisson(2.0)
        config = ExperimentConfig(
            dist="poisson:2", n=100_000, pi_grid=(0.8,), mode="site",
            trials=20, master_seed=505,
        )
        records, summary = run_experiment(config, dist=dist)
        assert all(r.status == "ok" for r in records)
        mean = summary[0]["mean"]
        assert abs(mean - c_oracle) <= 0.01
        c.done(f"mean {mean:.4f} vs pi * c_bond = {c_oracle:.4f} (+/- 0.01)")


def test_c06_subcritical_regime():
    # pi = 0.4 < pi_c = mu/mu_11 = 2/4: every trial fraction below 0.01
    with criterion(6, max_seconds=180.0) as c:
        dist = DegreeDistribution.poisson(2.0)
        assert dist.mu / dist.mu11 == pytest.approx(0.5, abs=1e-9)
        config = ExperimentConfig(
            dist="poisson:2", n=100_000, pi_grid=(0.4,), mode="bond",
            trials=20, master_seed=606,
        )
        records, _ = run_experiment(config, dist=dist)
        worst = max(r.scc_fraction for r in records)
        assert all(r.status == "ok" for r in records)
        assert worst < 0.01
        c.done(f"largest subcritical fraction {worst:.2e} < 0.01")


def test_c07_percolated_degree_distribution():
    with criterion(7, max_seconds=60.0) as c:
        dist = DegreeDistribution.poisson(2.0)
        rng = rng_for(707)
        seq = realize_sequence(dist, 100_000, rng)
        g, _ = sample_simple(seq, rng)
        outcome = bond_percolate(g, 0.8, rng)
        empirical = empirical_distribution(outcome.graph.degree_sequence())
        tv = _oracles.total_variation(empirical, bond_distribution(dist, 0.8))
        assert tv < 0.01
        c.done(f"total variation {tv:.4f} < 0.01")


def test_c08_moment_identities():
    from dipercolate import site_distribution

    with criterion(8, max_seconds=1.0) as c:
        rng = rng_for(808)
        for _ in range(10):
            dist = DegreeDistribution(_oracles.random_balanced_table(rng))
            pi = float(rng.uniform(0.05, 1.0))
            bond = bond_distribution(dist, pi)
            assert abs(bond.mu - pi * dist.mu) < 1e-9
            assert abs(bond.mu11 - pi * pi * dist.mu11) < 1e-9
            site = site_distribution(dist, pi)
            assert abs(site.mu - pi * pi * dist.mu) < 1e-9
            assert abs(site.mu11 - pi**3 * dist.mu11) < 1e-9
        c.done("bond pi/pi^2 and site pi^2/pi^3 scalings hold at 1e-9")


def test_c09_scc_oracle_equivalence():
    with criterion(9, max_seconds=10.0) as c:
        rng = rng_for(909)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(0, 17))
            g = Digraph(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
            ours = strongly_connected_components(g).component_id.tolist()
            oracle = _oracles.mutual_reachability_labels(g.n, g.src, g.dst)
            assert _oracles.canonical_labels(ours) == _oracles.canonical_labels(oracle)
        c.done("1000 random digraphs match the closure oracle exactly")


def test_c10_graphicality_oracle_equivalence():
    with criterion(10, max_seconds=60.0) as c:
        checked = 0
        for n in range(1, 5):
            realizable = _oracles.simple_digraph_profiles(n)
            for combo in _oracles.valid_sequences(n, 3):
                seq = DegreeSequence(list(combo))
                assert is_graphical(seq) == (combo in realizable), combo
                checked += 1
        c.done(f"{checked} valid sequences match exhaustive realization search")


def test_c11_simple_probability_discrimination():
    with criterion(11, max_seconds=300.0) as c:
        dist = DegreeDistribution.poisson(2.0)
        predicted = {
            "as_printed": simple_probability(dist, "as_printed"),
            "standard": simple_probability(dist, "standard"),
        }
        assert predicted["as_printed"] == pytest.approx(math.exp(-10.0), rel=1e-9)
        assert predicted["standard"] == pytest.approx(math.exp(-4.0), rel=1e-9)

        rng = rng_for(1111)
        n, batches, per_batch = 10_000, 10, 10_000
        simple_count = 0
        for _ in range(batches):
            seq = realize_sequence(dist, n, rng)
            for _ in range(per_batch):
                simple_count += sample_configuration(seq, rng).simple
        attempts = batches * per_batch
        rate = simple_count / attempts
        sigma = math.sqrt(rate * (1.0 - rate) / attempts)
        distances = {
            name: abs(rate - value) / sigma for name, value in predicted.items()
        }
        within = [name for name, d in distances.items() if d <= 3.0]
        detail = (
            f"rate {rate:.5f}; standard at {distances['standard']:.2f} sigma, "
            f"as_printed at {distances['as_printed']:.1f} sigma; "
            f"within 3 sigma: {within}"
        )
        assert within == ["standard"], detail
        c.done(detail)


def test_c12_cli_determinism(tmp_path, capsys):
    # identical seeds must give byte-identical machine-readable output
    with criterion(12) as c:

        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        theory_args = [
            "theory", "--dist", "poisson:2", "--pi", "0.8"
        ]
        assert run(theory_args) == run(theory_args)

        for name in ("a", "b"):
            assert (
                main(
                    ["sample", "--dist", "poisson:2", "--n", "500", "--seed", "99",
                     "--out", str(tmp_path / f"{name}.txt")]
                )
                == 0
            )
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

        outputs = {}
        for name in ("x", "y"):
            csv = tmp_path / f"{name}.csv"
            summary = tmp_path / f"{name}.json"
            args = [
                "experiment", "--dist", "poisson:2", "--n", "300", "--mode", "bond",
                "--pi-grid", "0.8,0.4", "--trials", "2", "--seed", "31",
                "--csv", str(csv), "--json", str(summary),
            ]
            stdout = run(args)
            json.loads(stdout)  # machine-readable, no log lines
            outputs[name] = (stdout, csv.read_bytes(), summary.read_bytes())
        assert outputs["x"] == outputs["y"]
        c.done("theory/sample/experiment outputs byte-identical across reruns")
