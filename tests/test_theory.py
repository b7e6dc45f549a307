import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy import stats
from scipy.optimize import brentq

from dipercolate import (
    DegreeDistribution,
    bond_distribution,
    critical_threshold,
    gscc_fraction,
    site_distribution,
    solve_fixed_point,
)
from dipercolate import theory
from dipercolate.theory import _boundary_coefficients
from dipercolate.errors import PiOutOfRangeError, ZeroMeanDegreeError, ZeroMu11Error
import _oracles


POINT = DegreeDistribution({(1, 1): 1.0})
POISSON2 = DegreeDistribution.poisson(2.0)


def random_balanced_distribution(rng, max_degree=5, points=6):
    """Random sparse table symmetrized so mean in- and out-degree agree."""
    return DegreeDistribution(_oracles.random_balanced_table(rng, max_degree, points))


# ----- generating functions -----------------------------------------------------


def test_pgf_normalization():
    for dist in (POINT, POISSON2, DegreeDistribution.geometric(0.5)):
        assert _oracles.pgf_eval(dist, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_pgf_point_mass():
    for x in (0.0, 0.3, 1.0):
        for y in (0.0, 0.7, 1.0):
            assert _oracles.pgf_eval(POINT, x, y) == pytest.approx(x * y, abs=1e-15)


def test_pgf_poisson_closed_form():
    lam = 2.0
    for x in (0.0, 0.25, 0.6, 1.0):
        for y in (0.1, 0.8, 1.0):
            closed = math.exp(lam * (x - 1)) * math.exp(lam * (y - 1))
            assert _oracles.pgf_eval(POISSON2, x, y) == pytest.approx(closed, abs=1e-9)


def test_pgf_rejects_out_of_range():
    with pytest.raises(ValueError):
        _oracles.pgf_eval(POINT, -0.1, 0.5)
    with pytest.raises(ValueError):
        _oracles.pgf_eval(POINT, 0.5, 1.1)


def test_u_minus_u_plus():
    # U_minus and U_plus are the polynomials with the solver's coefficient vectors
    a, b = _boundary_coefficients(POISSON2)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert b.sum() == pytest.approx(1.0, abs=1e-12)
    point_a, point_b = _boundary_coefficients(POINT)
    for x in (0.0, 0.4, 0.9):
        assert polyval(x, point_a) == pytest.approx(x, abs=1e-15)
        assert polyval(x, point_b) == pytest.approx(x, abs=1e-15)
        assert polyval(x, a) == pytest.approx(math.exp(2 * (x - 1)), abs=1e-9)


def test_u_minus_zero_mean():
    with pytest.raises(ZeroMeanDegreeError):
        _boundary_coefficients(DegreeDistribution({(0, 0): 1.0}))


# ----- percolated distributions ---------------------------------------------------


def test_bond_distribution_point_mass():
    pi = 0.3
    out = bond_distribution(POINT, pi)
    table = _oracles.support(out)
    assert table[(0, 0)] == pytest.approx((1 - pi) ** 2)
    assert table[(1, 0)] == pytest.approx(pi * (1 - pi))
    assert table[(0, 1)] == pytest.approx(pi * (1 - pi))
    assert table[(1, 1)] == pytest.approx(pi * pi)


def test_bond_distribution_identity_at_one():
    out = bond_distribution(POISSON2, 1.0)
    assert _oracles.support(out) == _oracles.support(POISSON2)


def test_bond_moment_scaling():
    pi = 0.8
    out = bond_distribution(POISSON2, pi)
    assert out.ps.sum() == pytest.approx(1.0, abs=1e-9)
    assert out.mu == pytest.approx(pi * POISSON2.mu, abs=1e-9)
    assert out.mu11 == pytest.approx(pi * pi * POISSON2.mu11, abs=1e-9)


def test_bond_distribution_matches_outer_sum():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(20):
        dist = random_balanced_distribution(rng, max_degree=int(rng.integers(1, 12)), points=12)
        pi = float(rng.uniform(0.05, 0.95))
        expected = _oracles.bond_table_outer_sum(dist, pi)
        out = bond_distribution(dist, pi)
        got = np.zeros_like(expected)
        got[out.js, out.ks] = out.ps
        np.testing.assert_allclose(got, expected / expected.sum(), rtol=0, atol=1e-12)


def test_site_distribution_values():
    pi = 0.5
    out = site_distribution(POINT, pi)
    table = _oracles.support(out)
    assert table[(1, 1)] == pytest.approx(0.125)
    assert table[(0, 0)] == pytest.approx(0.625)
    assert out.ps.sum() == pytest.approx(1.0, abs=1e-9)


def test_site_distribution_identity_at_one():
    assert _oracles.support(site_distribution(POISSON2, 1.0)) == _oracles.support(POISSON2)


def test_site_moment_scaling():
    pi = 0.7
    out = site_distribution(POISSON2, pi)
    assert out.mu == pytest.approx(pi**2 * POISSON2.mu, abs=1e-9)
    assert out.mu11 == pytest.approx(pi**3 * POISSON2.mu11, abs=1e-9)


def test_moment_scaling_random_tables():
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(10):
        dist = random_balanced_distribution(rng)
        pi = float(rng.uniform(0.05, 1.0))
        bond = bond_distribution(dist, pi)
        assert bond.mu == pytest.approx(pi * dist.mu, abs=1e-9)
        assert bond.mu11 == pytest.approx(pi * pi * dist.mu11, abs=1e-9)
        site = site_distribution(dist, pi)
        assert site.mu == pytest.approx(pi * pi * dist.mu, abs=1e-9)
        assert site.mu11 == pytest.approx(pi**3 * dist.mu11, abs=1e-9)


def test_composition_identity():
    # PGF of the thinned table equals the original PGF at shifted arguments
    pi = 0.6
    thinned = bond_distribution(POISSON2, pi)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for x in grid:
        for y in grid:
            direct = _oracles.pgf_eval(thinned, x, y)
            shifted = _oracles.pgf_eval(POISSON2, 1 - pi + pi * x, 1 - pi + pi * y)
            assert direct == pytest.approx(shifted, abs=1e-9)


def test_distribution_pi_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(PiOutOfRangeError):
            bond_distribution(POISSON2, bad)
        with pytest.raises(PiOutOfRangeError):
            site_distribution(POISSON2, bad)


# ----- threshold and fixed points ---------------------------------------------------


def test_critical_threshold_examples():
    (pi_c,) = critical_threshold(POISSON2)
    assert pi_c == pytest.approx(0.5, abs=1e-9)
    assert pi_c < 1  # supercritical for some pi < 1

    (pi_c,) = critical_threshold(POINT)
    assert pi_c == 1.0

    (pi_c,) = critical_threshold(DegreeDistribution.constant(2))
    assert pi_c == pytest.approx(0.5)

    with pytest.raises(ZeroMu11Error):
        critical_threshold(DegreeDistribution({(1, 0): 0.5, (0, 1): 0.5}))


# Coefficients of the map for independent Poisson(2) marginals: sum_d a[d] z^d = exp(2 (z - 1))
POISSON2_COEFFS = stats.poisson.pmf(np.arange(60), 2.0)


def test_solve_fixed_point_supercritical_map():
    # map for independent Poisson(2) marginals at pi = 0.8: x -> exp(1.6 (x - 1))
    result = solve_fixed_point(POISSON2_COEFFS, 0.8)
    oracle = brentq(lambda x: math.exp(1.6 * (x - 1.0)) - x, 0.0, 0.9, xtol=1e-14)
    assert result.x == pytest.approx(oracle, abs=1e-6)
    assert result.x == pytest.approx(0.35801868265830017, abs=1e-9)
    # classical survival-equation cross-check: beta = 1 - exp(-1.6 beta)
    beta = brentq(lambda b: 1.0 - math.exp(-1.6 * b) - b, 1e-9, 1.0, xtol=1e-14)
    assert 1.0 - result.x == pytest.approx(beta, abs=1e-9)


def test_solve_fixed_point_subcritical_map():
    # x -> exp(0.8 (x - 1)): slope 0.8 at 1
    result = solve_fixed_point(POISSON2_COEFFS, 0.4)
    assert result.x == pytest.approx(1.0, abs=1e-9)


def test_solve_fixed_point_budget(monkeypatch):
    monkeypatch.setattr(theory, "MAX_SOLVER_ITERS", 2)
    result = solve_fixed_point(POISSON2_COEFFS, 0.8)
    assert result.iters == 2
    assert result.residual > 0.0
    # the unfinished bracket still bounds the error
    assert abs(result.x - 0.35801868265830017) <= result.residual


# ----- gscc_fraction ------------------------------------------------------------------


def test_gscc_bond_poisson():
    pred = gscc_fraction(POISSON2, 0.8, "bond")
    # frozen from the brentq oracle; (1 - x*)^2 by the product form
    assert pred.x_star == pytest.approx(0.35801868265830017, abs=1e-8)
    assert pred.y_star == pytest.approx(pred.x_star, abs=1e-9)
    assert pred.c_bond == pytest.approx(0.4121400118157843, abs=1e-8)
    assert pred.c_bond == pytest.approx((1 - pred.x_star) ** 2, abs=1e-9)
    assert pred.pi_c == pytest.approx(0.5, abs=1e-9)
    assert pred.solver_iters > 0


def test_gscc_site_is_pi_times_bond():
    bond = gscc_fraction(POISSON2, 0.8, "bond")
    site = gscc_fraction(POISSON2, 0.8, "site")
    assert site.c_site == 0.8 * site.c_bond  # exact by construction
    assert site.c_bond == bond.c_bond
    assert site.c_site == pytest.approx(0.3297120094526274, abs=1e-8)


def test_gscc_subcritical():
    for pi in (0.1, 0.3, 0.5):  # pi_c = 0.5 included (closed convention)
        pred = gscc_fraction(DegreeDistribution.constant(2), pi, "bond")
        assert pred.x_star == 1.0 and pred.y_star == 1.0
        assert pred.c_bond == 0.0 and pred.c_site == 0.0


def test_gscc_pi_one_is_unpercolated():
    for dist in (POISSON2, DegreeDistribution.constant(2), DegreeDistribution.geometric(0.4)):
        site = gscc_fraction(dist, 1.0, "site")
        bond = gscc_fraction(dist, 1.0, "bond")
        assert site.pi == 1.0
        assert abs(site.c_bond - bond.c_bond) < 1e-12
        assert abs(site.zeta - site.c_bond) < 1e-12
        assert abs(site.zeta - bond.zeta) < 1e-12
        # zeta reproduces the boundary formula at the reported fixed points
        formula = (
            1.0
            - _oracles.pgf_eval(dist, site.x_star, 1.0)
            - _oracles.pgf_eval(dist, 1.0, site.y_star)
            + _oracles.pgf_eval(dist, site.x_star, site.y_star)
        )
        assert abs(site.zeta - formula) < 1e-12


def test_gscc_monotone_in_pi():
    values = [
        gscc_fraction(POISSON2, pi, "bond").c_bond
        for pi in np.arange(0.01, 1.0001, 0.01)
    ]
    assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


def test_percolated_maps_positive_at_zero():
    # U_minus(1 - pi), U_plus(1 - pi) stay positive for pi in (0, 1) whenever
    # the table has mass off the axes
    for dist in (POISSON2, DegreeDistribution.constant(2)):
        a, b = _boundary_coefficients(dist)
        for pi in np.arange(0.05, 1.0, 0.05):
            assert polyval(1 - pi, a) > 0
            assert polyval(1 - pi, b) > 0


def test_gscc_errors():
    with pytest.raises(ZeroMeanDegreeError):
        gscc_fraction(DegreeDistribution({(0, 0): 1.0}), 0.5, "bond")
    with pytest.raises(ZeroMu11Error):
        gscc_fraction(DegreeDistribution({(1, 0): 0.5, (0, 1): 0.5}), 0.5, "bond")
    with pytest.raises(PiOutOfRangeError):
        gscc_fraction(POISSON2, 0.0, "bond")
    for mode in ("both", "none"):
        with pytest.raises(ValueError, match="mode must be"):
            gscc_fraction(POISSON2, 0.5, mode)


def test_gscc_zeta_poisson():
    # unpercolated giant fraction: x0 solves x = exp(2(x-1))
    x0 = _oracles.iterate_scalar_map(lambda x: math.exp(2.0 * (x - 1.0)))
    pred = gscc_fraction(POISSON2, 0.5, "bond")
    assert pred.zeta == pytest.approx((1 - x0) ** 2, abs=1e-8)


# ----- accuracy down to pi_c ----------------------------------------------------------


def _check_near_critical(dist, exact_c, ks, rel_tol):
    pi_c = critical_threshold(dist).pi_c
    for k in ks:
        pi = pi_c * (1.0 + 10.0**-k)
        pred = gscc_fraction(dist, pi, "bond")
        exact = exact_c(pi)
        assert abs(pred.c_bond - exact) <= rel_tol * exact, (k, pred.c_bond, exact)
        # an exact count: critical slowing-down would show here first
        assert pred.solver_iters <= 200, (k, pred.solver_iters)


def test_gscc_constant_closed_form_near_critical():
    # const:2: x = (1 - pi + pi x)^2 gives 1 - x = (2 pi - 1) / pi^2, c = (1 - x)^2.
    # The table is exact and 2 pi - 1 is exact in floating point, so only a few
    # ulps of rounding are left when no difference 1 - z^d cancels: 1e-13, not 1e-6.
    _check_near_critical(
        DegreeDistribution.constant(2), lambda pi: ((2 * pi - 1) / pi**2) ** 2, range(1, 9), 1e-13
    )


def test_gscc_poisson_closed_form_near_critical():
    # poisson:2: s = 1 - x solves s = 1 - exp(-2 pi s), c = s^2; brentq on the
    # equation divided by s, which has no root at s = 0
    def exact_c(pi):
        slope = 2.0 * pi
        s = brentq(
            lambda s: -math.expm1(-slope * s) / s - 1.0,
            (slope - 1.0) / slope**2,
            1.0,
            xtol=1e-300,
            rtol=1e-15,
        )
        return s * s

    _check_near_critical(POISSON2, exact_c, range(1, 7), 1e-5)


def test_gscc_geometric_closed_form_near_critical():
    # geometric:0.3, P(k) = q^k p: x = p / (q pi), c = (1 - x)^2.  Deeper k would
    # meet the floor of about 1e-12 * 10^k set by the table's 1e-12 tail truncation.
    p, q = 0.3, 0.7
    _check_near_critical(
        DegreeDistribution.geometric(p), lambda pi: ((q * pi - p) / (q * pi)) ** 2, range(1, 6), 1e-5
    )


def test_solver_residual_bounds_error():
    pi = 0.5 * (1.0 + 1e-4)
    pred = gscc_fraction(DegreeDistribution.constant(2), pi, "bond")
    x_exact = 1.0 - (2 * pi - 1) / pi**2
    assert abs(pred.x_star - x_exact) <= pred.solver_residual + 4 * math.ulp(x_exact)


def test_solver_residual_bounds_error_exactly():
    # g(s) = G(s)/s - 1 of the float coefficients, evaluated in exact rational
    # arithmetic, must change sign within ``residual`` of the returned s, near
    # pi_c and far above it.
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(20):
        coeffs = rng.random(9) ** 4
        coeffs /= coeffs.sum()
        exact = [Fraction(float(c)) for c in coeffs]
        pi_c = 1.0 / float(np.arange(coeffs.size) @ coeffs)
        for pi in (pi_c * (1.0 + 1e-6), pi_c * (1.0 + 1e-2), 0.5 * (pi_c + 1.0), 1.0):

            def g(s):
                t = Fraction(pi) * Fraction(s)
                return sum(c * (1 - (1 - t) ** d) for d, c in enumerate(exact)) * Fraction(pi) / t - 1

            result = solve_fixed_point(coeffs, pi)
            assert g(result.s - result.residual) >= 0, (pi, result)
            assert g(min(1.0, result.s + result.residual)) <= 0, (pi, result)
