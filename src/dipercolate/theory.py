"""Analytic predictions for percolation on directed random graphs.

Let U(x, y) = sum p[j,k] x^j y^k be the generating function of the degree
distribution.  Its normalized boundary derivatives are 1-D polynomials,

    U_minus(x) = sum_j a[j] x^j,  a[j] = mu^-1 sum_k k p[j,k],
    U_plus(y)  = sum_k b[k] y^k,  b[k] = mu^-1 sum_j j p[j,k].

Bond percolation with probability pi thins each degree binomially, which at
the generating-function level substitutes x -> 1 - pi + pi x.  The giant
strongly connected component emerges above pi_c = mu / mu_11, and its
fraction is

    c_bond(pi) = 1 - U_pi(x*, 1) - U_pi(1, y*) + U_pi(x*, y*)
               = sum p[j,k] (1 - x'^j) (1 - y'^k),   c_site(pi) = pi * c_bond(pi),

where U_pi(x, y) = U(1-pi+pi*x, 1-pi+pi*y), x' = 1-pi+pi*x*, y' = 1-pi+pi*y*,
and x*, y* are the smallest fixed points of x -> U_minus(1-pi+pi*x) and
y -> U_plus(1-pi+pi*y).  ``solve_fixed_point`` finds them by bracketed Newton
steps on the fixed-point equation with its root at 1 divided out, O(len(a))
per step, to machine precision at any distance from pi_c.  When the slope at
1 (= pi * mu_11 / mu) is at most 1 the smallest fixed point is 1 itself and
the fraction is 0 (the closed subcritical convention, applied at pi = pi_c as
well).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .degrees import DegreeDistribution
from .errors import ZeroMeanDegreeError, ZeroMu11Error
from .percolation import check_mode, check_pi

__all__ = [
    "TheoryPrediction",
    "CriticalThreshold",
    "FixedPointResult",
    "bond_distribution",
    "site_distribution",
    "critical_threshold",
    "solve_fixed_point",
    "gscc_fraction",
]

# Safety cap on Newton/bisection steps per fixed point; a solve needs a few dozen.
MAX_SOLVER_ITERS = 200
EPS = np.finfo(np.float64).eps


def _require_mu(dist: DegreeDistribution) -> float:
    mu = dist.mu
    if mu <= 0.0:
        raise ZeroMeanDegreeError("mean degree is zero")
    return mu


def _boundary_coefficients(dist: DegreeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors (a, b) of U_minus and U_plus, each normalized by its
    own total (mu_01 and mu_10, which agree within BALANCE_TOL) so that the
    fixed point at 1 the solver divides out is exact."""
    _require_mu(dist)
    a = np.bincount(dist.js, weights=dist.ks * dist.ps)
    b = np.bincount(dist.ks, weights=dist.js * dist.ps)
    return a / a.sum(), b / b.sum()


def bond_distribution(dist: DegreeDistribution, pi: float) -> DegreeDistribution:
    """Degree distribution after bond percolation (independent binomial thinning).

    p_bond[j,k] = sum_{d- >= j} sum_{d+ >= k} p[d-, d+] C(d-, j) C(d+, k)
                  pi^(j+k) (1-pi)^(d- - j + d+ - k)

    evaluated as B_in^T P B_out with binomial-pmf matrices B[d, i] = C(d, i)
    pi^i (1-pi)^(d-i).  The output satisfies mu -> pi * mu and
    mu_11 -> pi^2 * mu_11.
    """
    from scipy import stats  # imported here: about 20 MB, needed by nothing else

    pi = check_pi(pi)
    if pi == 1.0:
        return dist
    d_in, d_out = np.arange(dist.max_in + 1), np.arange(dist.max_out + 1)
    table = np.zeros((d_in.size, d_out.size))
    table[dist.js, dist.ks] = dist.ps
    b_in = stats.binom.pmf(d_in, d_in[:, None], pi)
    b_out = stats.binom.pmf(d_out, d_out[:, None], pi)
    return DegreeDistribution.from_table(b_in.T @ table @ b_out)


def site_distribution(dist: DegreeDistribution, pi: float) -> DegreeDistribution:
    """Degree distribution after site percolation.

    Equals pi times the bond table except at (0, 0), which absorbs the
    deleted vertices: p_site[0,0] = pi * p_bond[0,0] + 1 - pi.  The output
    satisfies mu -> pi^2 * mu and mu_11 -> pi^3 * mu_11.
    """
    pi = check_pi(pi)
    bond = bond_distribution(dist, pi)
    if pi == 1.0:
        return bond
    table = np.zeros((bond.max_in + 1, bond.max_out + 1))
    table[bond.js, bond.ks] = pi * bond.ps
    table[0, 0] += 1.0 - pi
    return DegreeDistribution.from_table(table)


class CriticalThreshold(NamedTuple):
    pi_c: float


def critical_threshold(dist: DegreeDistribution) -> CriticalThreshold:
    """pi_c = mu / mu_11; some pi < 1 is supercritical exactly when pi_c < 1.

    Raises
    ------
    ZeroMu11Error
        If mu_11 = 0: the threshold is undefined and no GSCC exists at any pi.
    """
    mu11 = dist.mu11
    if mu11 <= 0.0:
        raise ZeroMu11Error("mu_11 is zero; no GSCC at any pi")
    mu = _require_mu(dist)
    return CriticalThreshold(mu / mu11)


def _one_minus_pow(t: float, d: np.ndarray) -> np.ndarray:
    """1 - (1 - t)^d for t in [0, 1], integer d >= 0 (0^0 = 1), without the
    cancellation that would leave 1 - x* and c inaccurate just above pi_c."""
    if t == 1.0:
        return (d > 0).astype(np.float64)
    return -np.expm1(d * math.log1p(-t))


class FixedPointResult(NamedTuple):
    s: float  # 1 - x*, kept because x* itself rounds to 1 just above pi_c
    iters: int
    residual: float  # final bracket width plus rounding: an upper bound on |x - x*|

    @property
    def x(self) -> float:
        return 1.0 - self.s


def solve_fixed_point(coeffs: np.ndarray, pi: float) -> FixedPointResult:
    """Smallest fixed point x* in [0, 1] of x -> sum_d coeffs[d] (1 - pi + pi x)^d.

    ``coeffs`` are nonnegative and sum to 1, so x = 1 is a fixed point.  With
    s = 1 - x, z = 1 - pi s and tails T[i] = sum_{d > i} coeffs[d], dividing it
    out leaves g(s) = pi sum_i T[i] z^i - 1 = (pi sum T - 1) - pi sum_i T[i] (1 - z^i),
    decreasing and convex on (0, 1].  If g(0+) <= 0 (slope at 1 at most 1)
    x* = 1.  Otherwise Newton steps from s = 1 keep a bracket g(lo) > 0 >= g(hi);
    one that would leave it is replaced by bisection.  The solve stops when the
    bracket is four ulps wide or after ``MAX_SOLVER_ITERS`` evaluations of g.
    ``residual`` bounds |x - x*|: the final bracket width plus the shift of the
    root that rounding in g can cause.
    """
    tails = np.cumsum(np.asarray(coeffs, dtype=np.float64)[::-1])[::-1][1:]
    excess = pi * tails.sum() - 1.0
    if excess <= 0.0:
        return FixedPointResult(0.0, 0, 0.0)
    powers = np.arange(tails.size)
    lo, hi, s, iters, dg = 0.0, 1.0, 1.0, 0, math.inf
    for iters in range(1, MAX_SOLVER_ITERS + 1):
        w = _one_minus_pow(pi * s, powers)  # 1 - z^i
        g = excess - pi * (tails @ w)
        dg = pi * pi * ((powers[1:] * tails[1:]) @ (1.0 - w[:-1]))  # -g'(s)
        if g >= 0.0:
            lo = s
        if g <= 0.0:
            hi = s
        tol = 4.0 * EPS * hi
        if hi - lo <= tol:
            break
        nxt = s + g / dg
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        # g is convex, so Newton steps from the left never pass the root; once
        # they are shorter than tol/2, a step of tol/2 closes the bracket.
        s = max(nxt, lo + 0.5 * tol)
    # The computed g is off by a few eps * (excess + 1), which moves its root
    # by that much over |g'|; the bound adds a safe multiple of it.
    rounding = 8.0 * EPS * (excess + 1.0) / dg
    return FixedPointResult(float(s), iters, float(hi - lo + rounding))


@dataclasses.dataclass(frozen=True)
class TheoryPrediction:
    """Threshold, fixed points, and GSCC fractions for one (dist, pi).

    ``solver_iters`` and ``solver_residual`` aggregate all fixed-point solves:
    total Newton/bisection steps, and the largest error bound, which is the
    final bracket width on x plus the shift rounding in the map can cause: an
    upper bound on |x - x*| for each fixed point, not the size of a step.
    """

    pi: float
    pi_c: float
    x_star: float
    y_star: float
    c_bond: float
    c_site: float
    zeta: float
    solver_iters: int
    solver_residual: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _gscc_terms(dist, coeffs, pi):
    """Fixed points and component fraction for percolation probability ``pi``.

    Returns (x_star, y_star, c, iters, residual); c = 0 with fixed points 1
    whenever the slope of the percolated maps at 1, pi * mu_11 / mu, is <= 1.
    """
    if pi * dist.mu11 / dist.mu <= 1.0:
        return 1.0, 1.0, 0.0, 0, 0.0
    rx = solve_fixed_point(coeffs[0], pi)
    ry = solve_fixed_point(coeffs[1], pi)
    # 1 - x'^j with x' = 1 - pi s_x, likewise for y
    c = dist.ps @ (_one_minus_pow(pi * rx.s, dist.js) * _one_minus_pow(pi * ry.s, dist.ks))
    return rx.x, ry.x, min(1.0, float(c)), rx.iters + ry.iters, max(rx.residual, ry.residual)


def gscc_fraction(dist: DegreeDistribution, pi: float, mode: str = "bond") -> TheoryPrediction:
    """Predict the giant strongly connected component fraction at percolation
    probability ``pi``; pi = 1 is the unpercolated graph, where c_bond = zeta.

    Bond and site percolation share fixed points, so the answer does not
    depend on ``mode`` (a key of ``PERCOLATE``): both fractions are reported,
    and c_site = pi * c_bond holds exactly.

    Raises
    ------
    ValueError, ZeroMeanDegreeError, ZeroMu11Error, PiOutOfRangeError
    """
    check_mode(mode)
    coeffs = _boundary_coefficients(dist)  # ZeroMeanDegreeError before ZeroMu11Error
    pi_c = critical_threshold(dist).pi_c
    pi = check_pi(pi)

    x_star, y_star, c_bond, iters, residual = _gscc_terms(dist, coeffs, pi)
    if pi == 1.0:
        zeta = c_bond
    else:
        _, _, zeta, ziters, zresidual = _gscc_terms(dist, coeffs, 1.0)
        iters += ziters
        residual = max(residual, zresidual)

    return TheoryPrediction(
        pi=pi,
        pi_c=pi_c,
        x_star=x_star,
        y_star=y_star,
        c_bond=c_bond,
        c_site=pi * c_bond,
        zeta=zeta,
        solver_iters=iters,
        solver_residual=residual,
    )
