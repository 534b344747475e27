"""The oracle's cost table against the dict path it replaced.

Each public oracle or smoothness call reads one cost table: the profiles'
individual costs as one array, a deviation being a row found by index.
The references below are the readers of a {profile: individual_costs}
dict that came before it: pair tables built with one _deviate tuple and
one lookup per player per ordered pair, coarse rows gathered one profile
at a time, check_smooth as a loop over pairs, and robust_poa,
worst_cce and validate_smoothness_claims on top of them (robust_poa as
smoothness's own envelope walk over the dict path's pair tables).  Both
sides run in one process, so they read the same individual costs.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from conftest import dict_program, ordered_sum, random_game, random_matrix, seeded
from test_oracle import _exceeds_sum
from poacert import linprog as lp
from poacert.games import (
    EQ1,
    FEAS_TOL,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    GameError,
    ProfileDistribution,
    SocialSpec,
    _deviate,
    _tol,
    _weighted,
    deviation_gaps,
    identity_matrix,
    individual_costs,
    is_eps_pne,
    social_of_costs,
    social_value,
)
from poacert.oracle import EQ1_ROWS, NO_EQUILIBRIUM, PROFILE_CAP, _cost_table, _gaps, worst_cce
from poacert.smoothness import (
    NOT_SMOOTHABLE,
    OPTIMAL,
    RobustPoA,
    SmoothnessCertificate,
    SmoothnessValidation,
    _deviation_sums,
    _envelope_minimum,
    check_smooth,
    robust_poa,
    validate_smoothness_claims,
)

X = BasisFunction.monomial(1)
X2 = BasisFunction.monomial(2)


# ============================================================
# the dict path
# ============================================================


def reference_costs(game):
    return {prof: individual_costs(game, prof) for prof in game.model.profiles()}


def reference_pair_tables(game, spec):
    costs = reference_costs(game)
    profiles = list(costs)
    sf = [social_of_costs(spec, c) for c in costs.values()]
    n = game.model.n
    dev = [
        [ordered_sum(costs[_deviate(prof, i, other[i])][i] for i in range(n))
         for other in profiles]
        for prof in profiles
    ]
    return profiles, sf, dev


def reference_check_smooth(game, spec, cert, tol=None):
    profiles, sf, dev = reference_pair_tables(game, spec)
    if tol is None:
        tol = _tol(cert.lam, cert.mu, *sf, *(x for row in dev for x in row))
    for a, sigma in enumerate(profiles):
        for b, target in enumerate(profiles):
            if dev[a][b] > cert.lam * sf[b] + cert.mu * sf[a] + tol:
                return False, (sigma, target)
    return True, None


def reference_robust_poa(game, spec):
    profiles, sf, dev = reference_pair_tables(game, spec)
    for a, prof in enumerate(profiles):
        if _exceeds_sum(sf[a], dev[a][a]):
            return RobustPoA(NOT_SMOOTHABLE, None, None, None, prof, 0)
    exact = isinstance(sf[0], F)
    dev = np.array(dev, dtype=object if exact else np.float64)
    return _envelope_minimum(sf, dev, _tol(*sf))


def _verbatim_gaps(game, prof, eps, costs):
    for i, row in enumerate(game.alpha):
        here = _weighted(row, costs[prof])
        for x in range(len(game.model.strategies[i])):
            yield i, x, here - (1 + eps) * _weighted(row, costs[_deviate(prof, i, x)])


def reference_coarse_rows(game, epsilon, predicate):
    """{(i, x): the row's entries, int 0 where a gap is 0 or a float gap
    within FEAS_TOL of 0}, first-seen order."""
    costs = reference_costs(game)
    gap_rows = {}
    for col, prof in enumerate(costs):
        gaps = (_verbatim_gaps(game, prof, epsilon, costs) if predicate == VERBATIM
                else deviation_gaps(game, prof, epsilon, predicate))
        for i, x, gap in gaps:
            row = gap_rows.setdefault((i, x), [0] * len(costs))
            if abs(gap) > _tol(gap):
                row[col] = gap
    return gap_rows


def reference_worst_cce(game, spec, epsilon, predicate, exact):
    costs = reference_costs(game)
    variables = [f"p[{idx}]" for idx in range(len(costs))]
    gap_rows = reference_coarse_rows(game, epsilon, predicate)
    rows = [({v: g for v, g in zip(variables, row) if g != 0}, lp.LE, 0, f"cce[{i}][{x}]")
            for (i, x), row in gap_rows.items()]
    rows.append(({v: 1 for v in variables}, lp.EQ, 1, "mass"))

    def run(player, name):
        values = (social_of_costs(spec, c) if player is None else _weighted(spec.beta[player], c)
                  for c in costs.values())
        objective = {v: value for v, value in zip(variables, values) if value}
        rep = lp.solve(dict_program(lp.MAXIMIZE, variables, objective, rows, name=name), exact)
        if rep.status != lp.OPTIMAL:
            raise GameError(f"coarse constraint set is {rep.status}")
        masses = {prof: m for j, prof in enumerate(costs) if (m := rep.primal.get(j, 0)) > 0}
        if not exact:
            total = ordered_sum(masses.values())
            masses = {prof: m / total for prof, m in masses.items()}
        return rep.value, ProfileDistribution(masses), player

    if spec.kind == SUM:
        return run(None, "cce_sum")
    return max((run(i, f"cce_max_{i}") for i in range(game.model.n)), key=lambda rep: rep[0])


def reference_validate(game, spec):
    robust = reference_robust_poa(game, spec)
    values = {prof: social_value(spec, game, prof) for prof in game.model.profiles()}
    opt = min(values.values())
    if opt == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    equilibria = [(prof, v) for prof, v in values.items() if is_eps_pne(game, prof, 0, EQ1)]
    ppoa = max(v for _, v in equilibria) / opt if equilibria else NO_EQUILIBRIUM
    exact = isinstance(opt, F)
    ccpoa = reference_worst_cce(game, spec, 0, VERBATIM, exact)[0] / opt
    if robust.status != OPTIMAL:
        return SmoothnessValidation(False, robust.unbounded_witness, robust, ppoa, ccpoa,
                                    None, None, None)
    bound = robust.value if exact else robust.value * (1 + FEAS_TOL)
    ok_p = None if ppoa == NO_EQUILIBRIUM else bool(ppoa <= bound)
    gap = None if ppoa == NO_EQUILIBRIUM else float(robust.value - ppoa)
    return SmoothnessValidation(True, None, robust, ppoa, ccpoa, ok_p, bool(ccpoa <= bound), gap)


# ============================================================
# the corpus
# ============================================================


def corpus(exact):
    """(label, game, [specs]): seeded games of 2-4 players, alpha with
    negative and off-diagonal entries, sum and max specs, 4 players giving
    16 profiles, and seed 4's two-player game, whose robust optimum under
    max picks t = 0."""
    one = F(1) if exact else 1.0
    for seed in range(9):
        rng = seeded(300 + seed)
        n = 2 + seed % 3
        weights = tuple(one * rng.choice((1, 2, 4)) / 3 for _ in range(n))
        alpha = identity_matrix(n, exact) if seed % 3 == 1 else random_matrix(rng, n, -1, 1, exact)
        # thirds and sevenths: float sums round, so their order shows
        game = random_game(rng, weights, (X, X2), alpha, exact).scaled(one / 7)
        beta = random_matrix(rng, n, 0, 1, exact)
        if not any(any(row) for row in beta):
            beta = identity_matrix(n, exact)
        specs = [SocialSpec(SUM, identity_matrix(n, exact)), SocialSpec(SUM, beta),
                 SocialSpec(MAX, beta)]
        yield f"seed{300 + seed}", game, specs
    game = random_game(seeded(4), (one, one), (X,), identity_matrix(2, exact), exact)
    yield "t0", game, [SocialSpec(MAX, identity_matrix(2, exact))]


def _array_repr(values, dtype):
    """repr of nested lists as an array of dtype holds them."""
    return repr(np.array(values, dtype=dtype).tolist())


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_pair_tables_and_check_smooth_match_the_dict_path(exact):
    """SF, the deviation sums, robust_poa and check_smooth give the dict
    path's answers, repr for repr: check_smooth at int, Fraction and float
    certificates, at the robust one and at one with lam 0.1% below it,
    without tol and at tol 0 and 1e-9.  A float table is float64, an exact
    one holds the dict path's objects."""
    sizes, t0 = set(), 0
    for label, game, specs in corpus(exact):
        table = _cost_table(game, PROFILE_CAP, "test")
        assert table.costs.dtype == (object if exact else np.float64)
        sizes.add(len(table.profiles))
        for spec in specs:
            profiles, sf, dev = reference_pair_tables(game, spec)
            got_sf = _cost_table(game, PROFILE_CAP, "test", spec).social_values
            got_dev = _deviation_sums(table)
            assert [table.profile(a) for a in range(len(got_sf))] == profiles
            assert repr(got_sf) == repr(sf), label
            assert repr(got_dev.tolist()) == _array_repr(dev, got_dev.dtype), label
            robust = robust_poa(game, spec)
            assert repr(robust) == repr(reference_robust_poa(game, spec)), (label, spec.kind)
            certs = [SmoothnessCertificate(1, 0), SmoothnessCertificate(F(3, 2), F(1, 4)),
                     SmoothnessCertificate(2.5, -0.5)]
            if robust.lam is not None:
                certs.append(SmoothnessCertificate(robust.lam, robust.mu))
                certs.append(SmoothnessCertificate(robust.lam * 0.999, robust.mu))
            t0 += robust.status == OPTIMAL and robust.lam is None
            for cert in certs:
                for tol in (None, 0, 1e-9):
                    want = reference_check_smooth(game, spec, cert, tol)
                    assert check_smooth(game, spec, cert, tol) == want, (label, cert, tol)
    assert 16 in sizes and {4, 8} <= sizes
    assert t0 >= 1


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_coarse_rows_and_worst_cce_match_the_dict_path(exact):
    """The coarse rows, eq1 and verbatim at eps 0 and 1/2, hold the dict
    path's entries in their order, and worst_cce (sum and max) and
    validate_smoothness_claims give its reports, repr for repr."""
    for label, game, specs in corpus(exact):
        for predicate in (EQ1, VERBATIM):
            for eps in (0, F(1, 2) if exact else 0.5):
                # the eq1 rows are the pass's own, as worst_cce's table has them
                table = _cost_table(game, PROFILE_CAP, "test", None, eps,
                                    EQ1_ROWS if predicate == EQ1 else None)
                want = reference_coarse_rows(game, eps, predicate)
                got = _gaps(table, predicate).T
                assert repr(got.tolist()) == _array_repr(list(want.values()), got.dtype), label
                for spec in specs:
                    try:
                        want = reference_worst_cce(game, spec, eps, predicate, exact)
                    except GameError as exc:
                        with pytest.raises(GameError, match=str(exc)):
                            worst_cce(game, spec, eps, predicate)
                        continue
                    report = worst_cce(game, spec, eps, predicate)
                    assert repr((report.value, report.distribution, report.player)) == repr(want)
        for spec in specs:
            try:
                want = reference_validate(game, spec)
            except GameError as exc:
                with pytest.raises(GameError, match=str(exc)):
                    validate_smoothness_claims(game, spec)
                continue
            assert repr(validate_smoothness_claims(game, spec)) == repr(want), (label, spec.kind)
