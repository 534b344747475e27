"""The extracted witness is the representative game restricted to the
resources its primal point uses.

Every dropped resource has latency 0 at every load, so the restricted
witness and the full 4^n game have the same social values and deviation
gaps: equal in rational arithmetic, and equal up to summation order in
float.  The oracle's pure PoA of the witness is gamma* itself.
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from poacert.formulations import (
    OPTIMAL,
    VALUE_RTOL,
    WorstCaseConfig,
    extract_worst_game,
    solve_worst_case,
)
from poacert.games import (
    EQ1,
    MAX,
    SUM,
    BasisFunction,
    CongestionModel,
    GeneralizedGame,
    SocialSpec,
    deviation_gaps,
    identity_matrix,
    social_value,
)
from poacert.oracle import exact_ppoa
from test_acceptance import grid_configs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "poabench"))
import workloads  # noqa: E402

X = BasisFunction.monomial(1)
X2 = BasisFunction.monomial(2)
FLOAT_RTOL = 1e-12


def full_game(cfg, rep, point):
    """The game of a primal point over all 4^n representative resources,
    negative values clamped to 0: the witness before restriction.  The
    point is keyed by position, and resource i of the model, e(P, Q) with
    i = P 2^n + Q, has its columns at i r + k."""
    r = len(cfg.basis)
    coeffs = {e: tuple(max(point.get(i * r + k, 0), 0) for k in range(r))
              for i, e in enumerate(rep.model.resources)}
    return GeneralizedGame(rep.model, cfg.basis, coeffs, cfg.alpha)


def rational(cfg, game):
    """(spec, eps, game) with every number read as its exact binary value."""
    m = game.model
    model = CongestionModel([F(w) for w in m.weights], m.resources, m.strategies)
    exact = GeneralizedGame(
        model, game.basis,
        {e: [F(c) for c in vec] for e, vec in game.coefficients.items()},
        [[F(a) for a in row] for row in game.alpha])
    spec = SocialSpec(cfg.spec.kind, [[F(b) for b in row] for row in cfg.spec.beta])
    return spec, F(cfg.epsilon), exact


def readings(spec, eps, game, rep):
    """social_value and every eq1 deviation gap, at sigma* and at o*."""
    out = []
    for prof in (rep.sigma_star, rep.o_star):
        out.append(social_value(spec, game, prof))
        out += [gap for _, _, gap in deviation_gaps(game, prof, eps, EQ1)]
    return out


def assert_same_game(cfg, result, witness):
    """The witness and the full game agree: exactly on exact data and on the
    rational reading of float data, within FLOAT_RTOL in float."""
    full = full_game(cfg, result.rep, result.primal_solution)
    ours = readings(cfg.spec, cfg.epsilon, witness, result.rep)
    theirs = readings(cfg.spec, cfg.epsilon, full, result.rep)
    if all(isinstance(x, F) for x in ours):
        assert ours == theirs
        return
    for a, b in zip(ours, theirs, strict=True):
        assert abs(a - b) <= FLOAT_RTOL * max(1, abs(a), abs(b)), (a, b)
    assert (readings(*rational(cfg, witness), result.rep)
            == readings(*rational(cfg, full), result.rep))


def size_bound(cfg):
    """Rows of the primal (n + 1 under sum, 3n under max) plus one
    placeholder per player."""
    return 2 * cfg.n + 1 if cfg.spec.kind == SUM else 4 * cfg.n


def solved(cfg, exact=False):
    result = solve_worst_case(cfg, exact=exact)
    assert result.status == OPTIMAL
    return result, extract_worst_game(cfg, result.rep, result.primal_solution,
                                      result.designated)


def seeded_class(n, kind, seed):
    """Float class with quarter weights in [1/2, 2], nonnegative
    off-diagonal alpha and beta, basis {x, x^2}, eps 0 or 1/2."""
    rng = random.Random(1000 * n + seed)
    w = [rng.randrange(2, 9) / 4 for _ in range(n)]

    def matrix():
        return [[1.0 if i == j else rng.randrange(0, 3) / 4 for j in range(n)]
                for i in range(n)]

    alpha = matrix()
    return WorstCaseConfig(w, alpha, SocialSpec(kind, matrix()), rng.choice((0.0, 0.5)),
                           (X, X2))


SEEDED = [(n, kind, seed) for n in (4, 5, 6) for kind in (SUM, MAX) for seed in (0, 1)]


@pytest.fixture(scope="module")
def seeded():
    return {key: (cfg,) + solved(cfg) for key in SEEDED for cfg in [seeded_class(*key)]}


@pytest.fixture(scope="module")
def grid_witnesses():
    out = []
    for _, _, cfg in grid_configs():
        result = solve_worst_case(cfg)
        if result.status == OPTIMAL:
            out.append((cfg, result, extract_worst_game(
                cfg, result.rep, result.primal_solution, result.designated)))
    return out


@pytest.fixture(scope="module")
def twins():
    """The OPTIMAL exact twins of the class-ladder benchmark at three seeds,
    with their witnesses."""
    out = []
    for seed in (7, 2026, 4001):
        for job in workloads.prepare("class-ladder", seed)[0]:
            if job.exact:
                result = solve_worst_case(job.cfg, exact=True)
                if result.status == OPTIMAL:
                    out.append((job.cfg, result, extract_worst_game(
                        job.cfg, result.rep, result.primal_solution, result.designated)))
    assert out
    return out


# ============================================================
# the same game
# ============================================================


def test_grid_witnesses_are_the_full_game(grid_witnesses):
    assert len(grid_witnesses) == 133
    for cfg, result, witness in grid_witnesses:
        assert_same_game(cfg, result, witness)


@pytest.mark.parametrize("key", [k for k in SEEDED if k[0] >= 5], ids=str)
def test_seeded_witnesses_are_the_full_game(seeded, key):
    cfg, result, witness = seeded[key]
    assert_same_game(cfg, result, witness)


def test_exact_twin_witnesses_are_the_full_game(twins):
    for cfg, result, witness in twins:
        assert_same_game(cfg, result, witness)


def test_placeholder_keeps_strategies_nonempty(grid_witnesses):
    """When the point leaves sigma*_i or o*_i without a resource, e({i},{i})
    stands in: zero coefficients, in player i's two strategies only."""
    cells = 0
    for cfg, result, witness in grid_witnesses:
        rep, model, r = result.rep, witness.model, len(cfg.basis)
        index = {e: i for i, e in enumerate(rep.model.resources)}
        used = {e for e in model.resources
                if any(result.primal_solution.get(index[e] * r + k, 0) != 0 for k in range(r))}
        extra = set(model.resources) - used
        cells += bool(extra)
        for i, per in enumerate(model.strategies):
            assert all(per)
            own = rep.resource_for(1 << i, 1 << i)
            needed = any(s.isdisjoint(used) for s in rep.model.strategies[i])
            assert (own in extra) == needed
            if needed:
                assert not any(witness.coefficients[own])
                for j, theirs in enumerate(model.strategies):
                    assert all((own in s) == (j == i) for s in theirs)
        assert extra <= {rep.resource_for(1 << i, 1 << i) for i in range(cfg.n)}
    assert cells > 0


def test_witness_keeps_representative_ids_and_order(grid_witnesses):
    for cfg, result, witness in grid_witnesses:
        order = {e: j for j, e in enumerate(result.rep.model.resources)}
        ids = witness.model.resources
        assert [order[e] for e in ids] == sorted(order[e] for e in ids)
        assert witness.model.weights == result.rep.model.weights
        for full, part in zip(result.rep.model.strategies, witness.model.strategies):
            assert [s & set(ids) for s in full] == list(part)


# ============================================================
# size
# ============================================================


def test_witness_size_at_solver_optima(grid_witnesses, seeded, twins):
    """A basic optimum is nonzero on at most as many columns as there are
    rows: 2n + 1 resources under sum and 4n under max, placeholders
    included."""
    for cfg, _, witness in grid_witnesses + list(seeded.values()) + twins:
        assert len(witness.model.resources) <= size_bound(cfg)


# ============================================================
# the oracle re-checks gamma*
# ============================================================


@pytest.mark.parametrize("n, value", [(2, F(2)), (3, F(5, 2))])
def test_oracle_ppoa_of_anchor_witness_is_gamma_star(n, value):
    eye = identity_matrix(n, True)
    cfg = WorstCaseConfig([F(1)] * n, eye, SocialSpec(SUM, eye), F(0), (X,))
    result, witness = solved(cfg, exact=True)
    assert exact_ppoa(witness, cfg.spec, cfg.epsilon, EQ1) == result.gamma_star == value


def test_oracle_ppoa_of_exact_twin_witness_is_gamma_star(twins):
    for cfg, result, witness in twins:
        assert exact_ppoa(witness, cfg.spec, cfg.epsilon, EQ1) == result.gamma_star


@pytest.mark.parametrize("key", SEEDED, ids=str)
def test_oracle_ppoa_of_float_witness_is_gamma_star(seeded, key):
    cfg, result, witness = seeded[key]
    value = exact_ppoa(witness, cfg.spec, cfg.epsilon, EQ1)
    assert value == pytest.approx(result.gamma_star, rel=VALUE_RTOL)
