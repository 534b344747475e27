"""The paper's main theorem at class level: over K-profile distributions,
the worst-case eps-CCE PoA of a class equals its eps-PNE one, gamma*.

conftest.k_profile_representative builds the class-level model of
K-profile distributions, and the public build_pp_cce writes the coarse
program over it: mass on "everyone plays j" for j < K against "everyone
plays K".  Its optimum is at least gamma*, since coefficients on the
resources with P_1 = ... = P_K give the pure program, and the theorem
says it is at most gamma*.  Under max each designee's program is solved
and the largest optimum taken, as solve_worst_case does.
"""

from fractions import Fraction as F

import pytest

from conftest import k_profile_representative
from poacert import linprog as lp
from poacert.formulations import (
    INFINITE,
    OPTIMAL,
    WorstCaseConfig,
    build_pp_cce,
    solve_worst_case,
)
from poacert.games import MAX, SUM, BasisFunction, SocialSpec, identity_matrix
from test_acceptance import REL, grid_configs
from test_array_programs import designees


def class_cce(cfg, masses, exact=False):
    """(status, value) of the class-level coarse program over K =
    len(masses) profiles: INFINITE with None when a designee's program is
    unbounded, else OPTIMAL with the largest designee's optimum."""
    model, dist, o_profile = k_profile_representative(cfg.weights, masses)
    values = []
    for d in designees(cfg):
        report = lp.solve(build_pp_cce(cfg, model, dist, o_profile, d), exact)
        if report.status == lp.UNBOUNDED:
            return INFINITE, None
        assert report.status == lp.OPTIMAL, (report.status, d)
        values.append(report.value)
    return OPTIMAL, max(values)


N2_CELLS = [pytest.param(cfg, id=f"grid{idx}") for idx, key, cfg in grid_configs() if key[0] == 2]


def test_the_k_profile_model_has_every_nonzero_mask_tuple():
    model, dist, o_profile = k_profile_representative((1.0, 1.5), (0.25, 0.75))
    assert len(model.resources) == 2 ** (2 * 3) - 1
    assert [len(per) for per in model.strategies] == [3, 3]
    assert dist.masses == {(0, 0): 0.25, (1, 1): 0.75} and o_profile == (2, 2)
    # resource (P_1, P_2, Q) = (1, 2, 3): player 0 on it under profile 0
    # and o, player 1 under profile 1 and o
    assert [[("1,2,3" in s) for s in per] for per in model.strategies] == \
        [[True, False, True], [False, True, True]]


@pytest.mark.parametrize("cfg", N2_CELLS)
def test_class_cce_over_two_profiles_is_gamma_star(cfg):
    """The grid's n = 2 cells at K = 2 in float: equal to gamma* to REL,
    and INFINITE exactly where gamma* is."""
    want = solve_worst_case(cfg)
    status, value = class_cce(cfg, (0.25, 0.75))
    assert status == want.status
    if status == OPTIMAL:
        assert value == pytest.approx(want.gamma_star, rel=REL)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [SUM, MAX])
def test_fair_cost_sharing_class_cce_is_n(n, kind):
    """Fair cost sharing, latency 1/k at load k with unit weights: the
    class-level eps-CCE value over two profiles is n exactly, gamma*."""
    share = BasisFunction.lookup({F(k): F(1, k) for k in range(1, n + 1)})
    eye = identity_matrix(n, True)
    cfg = WorstCaseConfig((F(1),) * n, eye, SocialSpec(kind, eye), F(0), (share,))
    assert class_cce(cfg, (F(1, 3), F(2, 3)), exact=True) == (OPTIMAL, n)
    assert solve_worst_case(cfg, exact=True).gamma_star == n
