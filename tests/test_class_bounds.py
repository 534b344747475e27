"""Closed-form class bounds as oracles: a gamma* above the bound the
literature proves for its class is wrong, whatever its weights.

Weighted congestion games whose latencies are polynomials of degree at
most d with nonnegative coefficients have price of anarchy exactly
Phi_d^(d+1), where Phi_d is the positive root of (x+1)^d = x^(d+1), for
the utilitarian social cost (Aland, Dumrauf, Gairing, Monien and
Schoppmann, "Exact price of anarchy for polynomial congestion games",
STACS 2006; SIAM J. Comput. 2011).  The bound holds for coarse
correlated equilibria too, so it bounds gamma* of every sum class with
alpha = beta = I, eps = 0 and basis x, ..., x^d.  With d = 1 and weights
(1, 1, phi, phi) the class attains it: Phi_1^2 = (3 + sqrt 5)/2.

Fair cost sharing, where the players on a resource split its cost
equally (latency c/x at load x), has price of anarchy exactly n for n
players (Anshelevich, Dasgupta, Kleinberg, Tardos, Wexler and Roughgarden,
"The price of stability for network design with fair cost allocation",
FOCS 2004): gamma* of the unit-weight class with alpha = beta = I,
eps = 0 and the lookup basis {k: 1/k} is n.  At n = 4 the extracted
witness game attains it, and 6 at eps = 1/2, as its pure PoA and as its
worst CCE over its optimum.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from poacert import cli
from poacert.formulations import (VALUE_RTOL, WorstCaseConfig, extract_worst_game,
                                  solve_worst_case)
from poacert.games import EQ1, MAX, SUM, BasisFunction, SocialSpec, identity_matrix
from poacert.oracle import exact_ppoa, social_optimum, worst_cce_value
from poacert.smoothness import OPTIMAL, is_sum_bounded, robust_poa

WEIGHTS = (0.5, 1.0, 1.618, 2.0, 2.618, 3.0, 5.0)


def phi_bracket(d, bits=40):
    """The least m / 2^bits at or above Phi_d, by integer bisection on the
    sign of (x+1)^d - x^(d+1), positive below Phi_d and negative above it:
    at x = m / S that sign is the sign of S (m + S)^d - m^(d+1)."""
    scale = 1 << bits
    lo, hi = 0, 4 * scale  # Phi_d < 4 for d <= 3
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scale * (mid + scale) ** d - mid ** (d + 1) > 0:
            lo = mid
        else:
            hi = mid
    return F(hi, scale)


def bound(d):
    """A rational upper bracket of Phi_d^(d+1)."""
    return phi_bracket(d) ** (d + 1)


def polynomial_class(weights, d, exact=False):
    n = len(weights)
    eye = identity_matrix(n, exact)
    basis = tuple(BasisFunction.monomial(k) for k in range(1, d + 1))
    return WorstCaseConfig(weights, eye, SocialSpec(SUM, eye), F(0) if exact else 0.0, basis)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_bracket_holds_the_root(d):
    upper = phi_bracket(d)
    lower = upper - F(1, 1 << 40)
    assert (lower + 1) ** d > lower ** (d + 1)
    assert (upper + 1) ** d <= upper ** (d + 1)
    assert float(bound(d)) == pytest.approx({1: (3 + math.sqrt(5)) / 2, 2: 9.9093,
                                             3: 47.8186}[d], rel=1e-5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_seeded_float_classes_stay_under_the_polynomial_bound(d):
    """70 seeded float classes per degree, 14 at each n = 2..6, weights
    drawn from WEIGHTS: gamma* <= Phi_d^(d+1) with VALUE_RTOL of slack."""
    rng = random.Random(f"polynomial-bound:{d}")
    limit = float(bound(d)) * (1 + VALUE_RTOL)
    for case in range(70):
        cfg = polynomial_class([rng.choice(WEIGHTS) for _ in range(2 + case % 5)], d)
        result = solve_worst_case(cfg)
        assert result.gamma_star <= limit, (cfg.weights, result.gamma_star)


@pytest.mark.parametrize("weights", [(1, 1), (F(1, 2), 3), (1, F(1618, 1000), 2),
                                     (F(2618, 1000), 5, F(1, 2))])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_classes_stay_under_the_polynomial_bound(weights, d):
    """Rational gamma* against the rational bracket, with no slack."""
    weights = tuple(F(w) for w in weights)
    result = solve_worst_case(polynomial_class(weights, d, exact=True), exact=True)
    assert isinstance(result.gamma_star, F)
    assert result.gamma_star <= bound(d)


def test_golden_weights_attain_the_linear_bound():
    """Weights (1, 1, phi, phi) under latency x reach (3 + sqrt 5)/2."""
    phi = (1 + math.sqrt(5)) / 2
    result = solve_worst_case(polynomial_class((1.0, 1.0, phi, phi), 1))
    assert result.gamma_star == pytest.approx((3 + math.sqrt(5)) / 2, rel=VALUE_RTOL)


def fair_cost_class(n, kind, exact=False):
    """n unit-weight players, alpha = beta = I, eps = 0, and one basis
    function, the fair share 1/k at load k."""
    one = F(1) if exact else 1.0
    eye = identity_matrix(n, exact)
    share = BasisFunction.lookup({k * one: one / k for k in range(1, n + 1)})
    return WorstCaseConfig((one,) * n, eye, SocialSpec(kind, eye), 0 * one, (share,))


@pytest.mark.parametrize("kind", [SUM, MAX])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fair_cost_sharing_attains_n(n, kind):
    """Float gamma* of fair cost sharing is n, to VALUE_RTOL."""
    result = solve_worst_case(fair_cost_class(n, kind))
    assert result.gamma_star == pytest.approx(n, rel=VALUE_RTOL)


@pytest.mark.parametrize("kind", [SUM, MAX])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_fair_cost_sharing_is_n(n, kind):
    """Rational gamma* of fair cost sharing is n, with no slack."""
    result = solve_worst_case(fair_cost_class(n, kind, exact=True), exact=True)
    assert isinstance(result.gamma_star, F)
    assert result.gamma_star == n


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("eps,gamma", [(0, 4), (F(1, 2), 6)], ids=["eps0", "eps1/2"])
@pytest.mark.parametrize("kind", [SUM, MAX])
def test_the_n4_fair_cost_witness_attains_gamma(kind, eps, gamma, exact):
    """n = 4 fair cost sharing at eps = 0 and 1/2: gamma* is 4 and 6.  On
    the extracted witness the pure PoA and the worst eq1 CCE over the
    optimum equal it (exactly in rationals), the certificate extends to
    20 random (distribution, o) draws over the witness's model, and the
    witness is sum-bounded with an OPTIMAL robust PoA."""
    cfg = fair_cost_class(4, kind, exact)
    cfg = replace(cfg, epsilon=F(eps) if exact else float(eps))
    result = solve_worst_case(cfg, exact=exact)
    game = extract_worst_game(cfg, result.rep, result.primal_solution, result.designated)
    spec = cfg.spec
    _, opt = social_optimum(game, spec)
    ratios = [result.gamma_star, exact_ppoa(game, spec, cfg.epsilon, EQ1),
              worst_cce_value(game, spec, cfg.epsilon, EQ1) / opt]
    if exact:
        assert ratios == [gamma] * 3 and {type(r) for r in ratios} == {F}
    else:
        assert ratios == pytest.approx([gamma] * 3, rel=VALUE_RTOL)
    assert all(ext.ok for _, ext in cli._extensions(cfg, result, game.model, random.Random(1), 20))
    assert is_sum_bounded(game, spec) == (True, None)
    assert robust_poa(game, spec).status == OPTIMAL
