"""Brute-force oracles: optimum, equilibrium enumeration, PoA ratios.

Everything on the canonical game is enumerable by hand; the seeded block
at the bottom cross-checks the pure and coarse oracles against each other
on random instances.
"""

import builtins
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    AA,
    AB,
    BA,
    BB,
    dict_program,
    g1,
    g1_spec,
    random_game,
    random_matrix,
    random_model,
    seeded,
)
from poacert import cli, games
from poacert.gamefile import emit_game, write_json
from poacert import linprog as lp
from poacert.games import (
    EQ1,
    FEAS_TOL,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    _tol,
    deviation_gaps,
    identity_matrix,
    individual_costs,
    is_eps_cce,
    is_eps_pne,
    social_of_costs,
    social_value,
)
from poacert.oracle import (
    EQ1_PNE,
    NO_EQUILIBRIUM,
    PROFILE_CAP,
    CCEReport,
    PPoAReport,
    cce_poa,
    enumerate_eps_pne,
    exact_ppoa,
    ppoa_report,
    social_optimum,
    worst_cce,
    _cost_table,
    _equilibria,
)
from poacert import smoothness
from poacert.smoothness import (
    SmoothnessCertificate,
    check_smooth,
    is_sum_bounded,
    robust_poa,
    validate_smoothness_claims,
)
from reference import beta_cost
from test_formulations import _compensated_sum

CHASE_ALPHA = ((F(1), F(-1)), (F(0), F(1)))  # player 0 chases, player 1 flees


# ============================================================
# optimum
# ============================================================


def test_social_optimum_sum():
    prof, value = social_optimum(g1(), g1_spec(SUM))
    assert prof == AB  # (a,b) ties (b,a); lexicographic pick
    assert value == F(2)


def test_social_optimum_max():
    prof, value = social_optimum(g1(), g1_spec(MAX))
    assert prof == AB
    assert value == F(1)


def test_profile_cap_guards_enumeration():
    with pytest.raises(GameError):
        social_optimum(g1(), g1_spec(), cap=3)
    with pytest.raises(GameError):
        enumerate_eps_pne(g1(), cap=3)
    with pytest.raises(GameError):
        worst_cce(g1(), g1_spec(), cap=3)


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("kind", [SUM, MAX])
@pytest.mark.parametrize("answer", [
    lambda game, spec: exact_ppoa(game, spec, 0),
    lambda game, spec: worst_cce(game, spec, 0),
    lambda game, spec: cce_poa(game, spec, 0),
    robust_poa, social_optimum, is_sum_bounded, validate_smoothness_claims,
    lambda game, spec: social_value(spec, game, AA),
    lambda game, spec: social_value(spec, game, ProfileDistribution.uniform([AA, BB])),
], ids=["exact_ppoa", "worst_cce", "cce_poa", "robust_poa", "social_optimum",
        "is_sum_bounded", "validate_smoothness_claims", "social_value_pure",
        "social_value_distribution"])
def test_a_spec_for_another_player_count_is_refused(answer, kind, size):
    """Every reader of a social spec refuses one for another player count:
    social_value no longer reads a 3x3 spec as if it fit a 2-player game,
    nor raises IndexError on a 1x1 one."""
    spec = SocialSpec(kind, identity_matrix(size, True))
    with pytest.raises(GameError, match=f"social spec is {size}x{size} for a game of 2 players"):
        answer(g1(), spec)


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_a_spec_of_the_wrong_size_is_refused_before_any_profile_is_priced(monkeypatch, kind):
    """Every answer that reads a social spec refuses one for another player
    count before its pass prices a single profile (games._Pricing.price)."""
    calls = _count_pricings(monkeypatch)
    spec = SocialSpec(kind, identity_matrix(3, True))
    for answer in (lambda: ppoa_report(g1(), spec, 0, EQ1),
                   lambda: ppoa_report(g1(), spec, 0, VERBATIM),
                   lambda: worst_cce(g1(), spec, 0, EQ1), lambda: worst_cce(g1(), spec),
                   lambda: cce_poa(g1(), spec), lambda: social_optimum(g1(), spec),
                   lambda: is_sum_bounded(g1(), spec), lambda: robust_poa(g1(), spec),
                   lambda: check_smooth(g1(), spec, SmoothnessCertificate(1, 0)),
                   lambda: validate_smoothness_claims(g1(), spec)):
        with pytest.raises(GameError, match="social spec is 3x3 for a game of 2 players"):
            answer()
    assert calls == []


@pytest.mark.parametrize("eps", [F(-1, 2), float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("predicate", [EQ1, VERBATIM])
@pytest.mark.parametrize("answer", [
    lambda eps, predicate: exact_ppoa(g1(), g1_spec(), eps, predicate),
    lambda eps, predicate: enumerate_eps_pne(g1(), eps, predicate),
    lambda eps, predicate: worst_cce(g1(), g1_spec(), eps, predicate),
    lambda eps, predicate: worst_cce(g1(), g1_spec(MAX), eps, predicate),
    lambda eps, predicate: cce_poa(g1(), g1_spec(), eps, predicate),
], ids=["exact_ppoa", "enumerate_eps_pne", "worst_cce_sum", "worst_cce_max", "cce_poa"])
def test_an_epsilon_that_is_negative_or_nan_is_refused(answer, predicate, eps):
    with pytest.raises(GameError, match="epsilon must be non-negative and finite"):
        answer(eps, predicate)


# ============================================================
# pure equilibria
# ============================================================


def test_pne_set_at_zero():
    assert enumerate_eps_pne(g1(), 0) == [AB, BA]


def test_pne_set_at_one():
    assert enumerate_eps_pne(g1(), 1) == [AA, AB, BA, BB]


def test_pne_sets_agree_across_predicates_for_identity_alpha():
    for eps in (0, F(1, 2), 1):
        assert enumerate_eps_pne(g1(), eps, EQ1) == enumerate_eps_pne(
            g1(), eps, VERBATIM
        )


def test_chase_game_has_no_pure_equilibrium():
    # player 0 profits from sharing a resource, player 1 from leaving it:
    # best responses cycle through all four profiles
    g = g1(alpha=CHASE_ALPHA)
    assert enumerate_eps_pne(g, 0) == []


# ============================================================
# exact price of anarchy
# ============================================================


def test_ppoa_at_zero():
    assert exact_ppoa(g1(), g1_spec(), 0) == F(1)


def test_ppoa_at_one():
    # (a,a) and (b,b) join the equilibrium set, each of value 4
    assert exact_ppoa(g1(), g1_spec(), 1) == F(2)


def test_ppoa_max_objective():
    assert exact_ppoa(g1(), g1_spec(MAX), 0) == F(1)


def test_ppoa_no_equilibrium_sentinel():
    g = g1(alpha=CHASE_ALPHA)
    assert exact_ppoa(g, g1_spec(), 0) == NO_EQUILIBRIUM


def test_ppoa_rejects_zero_optimum():
    with pytest.raises(GameError):
        exact_ppoa(g1().scaled(F(0)), g1_spec(), 0)


# ============================================================
# worst coarse value
# ============================================================


def test_worst_cce_sum_is_three():
    report = worst_cce(g1(), g1_spec(), 0)
    assert report.value == F(3)
    assert report.player is None
    # the optimum is unique: the uniform distribution
    assert report.distribution.masses == {p: F(1, 4) for p in (AA, AB, BA, BB)}


def test_worst_cce_max_is_three_halves():
    report = worst_cce(g1(), g1_spec(MAX), 0)
    assert report.value == F(3, 2)
    assert report.player in (0, 1)


def test_worst_cce_value_matches_report():
    assert worst_cce(g1(), g1_spec(), 0).value == F(3)


def test_worst_cce_predicates_agree_for_identity_alpha():
    a = worst_cce(g1(), g1_spec(), 0, predicate=VERBATIM).value
    b = worst_cce(g1(), g1_spec(), 0, predicate=EQ1).value
    assert a == b == F(3)


def test_worst_cce_loosens_with_epsilon():
    # at eps=1 the point mass on (a,a) becomes coarse-feasible: value 4
    assert worst_cce(g1(), g1_spec(), 1).value == F(4)


def test_worst_cce_distribution_is_actually_coarse():
    report = worst_cce(g1(), g1_spec(), 0)
    assert is_eps_cce(g1(), report.distribution, 0)


def test_worst_cce_float_mode_close_to_exact():
    value = worst_cce(g1(exact=False), g1_spec(exact=False), 0).value
    assert value == pytest.approx(3.0, rel=1e-9)


# ============================================================
# cross-oracle invariants on seeded games
# ============================================================


def test_pure_equilibria_embed_into_coarse():
    """Point masses on pure equilibria are coarse-feasible, so the coarse
    worst value dominates the pure one; and equilibrium sets only grow
    with epsilon.  Checked per-seed in exact arithmetic."""
    basis = (BasisFunction.monomial(1), BasisFunction.indicator())
    spec = SocialSpec(SUM, identity_matrix(2, True))
    for seed in range(25):
        rng = seeded(seed)
        g = random_game(rng, (F(1), F(2)), basis, identity_matrix(2, True),
                        exact=True)
        try:
            _, opt = social_optimum(g, spec)
        except GameError:
            continue
        if opt == 0:
            continue
        pne0 = enumerate_eps_pne(g, 0)
        pne1 = enumerate_eps_pne(g, F(1, 2))
        assert set(pne0) <= set(pne1)
        if not pne0:
            continue
        ppoa = exact_ppoa(g, spec, 0)
        ccpoa = worst_cce(g, spec, 0).value / opt
        assert ppoa <= ccpoa


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_worst_cce_dominates_the_worst_pure_equilibrium(exact):
    """Both oracles read one gap array with one slack, so every pure
    equilibrium's point mass is coarse-feasible: the worst CCE is at least
    the worst equilibrium's value, exactly on an exact table and to 1e-9
    relative on a float one, under both predicates and at eps 0 and 1/2."""
    checked = 0
    for seed, game, beta in _seeded_games(12, exact):
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(game.n, exact)
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, beta)
            for predicate in (EQ1, VERBATIM):
                for eps in (0, F(1, 2) if exact else 0.5):
                    report = ppoa_report(game, spec, eps, predicate)
                    if report.value == NO_EQUILIBRIUM:
                        continue
                    pure = report.value * report.optimum
                    slack = 0 if exact else 1e-9 * max(1, abs(pure))
                    assert worst_cce(game, spec, eps, predicate).value >= pure - slack, (
                        seed, kind, predicate, eps)
                    checked += 1
    assert checked >= 50


# ============================================================
# one cost pass per oracle call
# ============================================================


def _reference_worst_cce(game, spec, epsilon, predicate, exact):
    """worst_cce as it was written before it read a cost table: one program
    per objective, each built from deviation_gaps, and objectives from
    social_value and beta_cost."""
    profiles = list(game.model.profiles())
    variables = [f"p[{idx}]" for idx in range(len(profiles))]

    def run(objective, player, name):
        coeffs = {}
        for idx, prof in enumerate(profiles):
            for i, x_idx, gap in deviation_gaps(game, prof, epsilon, predicate):
                row = coeffs.setdefault((i, x_idx), {})
                if gap != 0:
                    row[f"p[{idx}]"] = gap
        rows = [(row, lp.LE, 0, f"cce[{i}][{x_idx}]") for (i, x_idx), row in coeffs.items()]
        rows.append(({v: 1 for v in variables}, lp.EQ, 1, "mass"))
        rep = lp.solve(dict_program(lp.MAXIMIZE, variables, objective, rows, name=name),
                       exact=exact)
        assert rep.status == lp.OPTIMAL
        masses = {}
        total = 0
        for idx, prof in enumerate(profiles):
            m = rep.primal.get(idx, 0)  # p[idx]
            if m > 0:
                masses[prof] = m
                total += m
        if not exact:
            masses = {prof: m / total for prof, m in masses.items()}
        return rep.value, ProfileDistribution(masses), player

    def objective(value):
        out = {}
        for idx, prof in enumerate(profiles):
            v = value(prof)
            if v != 0:
                out[f"p[{idx}]"] = v
        return out

    if spec.kind == SUM:
        return CCEReport(*run(objective(lambda prof: social_value(spec, game, prof)), None,
                              "cce_sum"))
    best = None
    for i in range(game.n):
        cand = run(objective(lambda prof: beta_cost(spec, game, prof, i)), i, f"cce_max_{i}")
        if best is None or cand[0] > best[0]:
            best = cand
    return CCEReport(*best)


def _seeded_games(count, exact):
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    one = F(1) if exact else 1.0
    for seed in range(count):
        rng = seeded(seed)
        n = 2 + seed % 2
        weights = tuple(one * rng.choice((1, 2, 3)) / 2 for _ in range(n))
        alpha = identity_matrix(n, exact) if seed % 3 else random_matrix(rng, n, 0, 1, exact)
        game = random_game(rng, weights, basis, alpha, exact)
        yield seed, game, random_matrix(rng, n, 0, 1, exact)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_worst_cce_equals_the_program_built_per_objective(exact):
    """One cost table gives the rows and every objective: the report is
    repr-identical to building one program per objective from
    deviation_gaps, social_value and beta_cost."""
    checked = 0
    for seed, game, beta in _seeded_games(8, exact):
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(game.n, exact)
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, beta)
            for predicate in (EQ1, VERBATIM):
                for eps in (0, F(1, 2) if exact else 0.5):
                    want = _reference_worst_cce(game, spec, eps, predicate, exact)
                    got = worst_cce(game, spec, eps, predicate)
                    assert repr(got) == repr(want), (seed, kind, predicate, eps)
                    checked += 1
    assert checked == 64


def _reference_social_optimum(game, spec):
    """The strict-< loop over profiles that social_optimum was."""
    best, best_value = None, None
    for prof in game.model.profiles():
        v = social_value(spec, game, prof)
        if best_value is None or v < best_value:
            best, best_value = prof, v
    return best, best_value


def _reference_equilibria(game, epsilon, predicate):
    """The is_eps_pne filter that enumerate_eps_pne was."""
    return [prof for prof in game.model.profiles() if is_eps_pne(game, prof, epsilon, predicate)]


def _reference_ppoa(game, spec, epsilon, predicate):
    """ppoa_report from the strict-< optimum and the is_eps_pne filter."""
    opt_profile, opt = _reference_social_optimum(game, spec)
    if opt == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    values = {prof: social_value(spec, game, prof)
              for prof in _reference_equilibria(game, epsilon, predicate)}
    if not values:
        return PPoAReport(NO_EQUILIBRIUM, opt, opt_profile, 0, [])
    target = max(values.values())
    return PPoAReport(target / opt, opt, opt_profile, len(values),
                      [prof for prof, v in values.items() if v == target])


def _exceeds_sum(social, total) -> bool:
    """A profile's social value above the sum of its individual costs, by
    more than games._tol of the two: the rule is_sum_bounded's table reads
    as its tol."""
    return social > total + _tol(social, total)


def _reference_sum_bounded(game, spec):
    """The loop that is_sum_bounded was, each profile's costs added by the
    builtin sum."""
    for prof in game.model.profiles():
        costs = individual_costs(game, prof)
        if _exceeds_sum(social_of_costs(spec, costs), sum(costs)):
            return False, prof
    return True, None


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_table_answers_match_the_profile_loops(exact):
    """social_optimum, is_sum_bounded, enumerate_eps_pne and ppoa_report
    read one cost table and its gaps; each answer is repr-identical to the
    loop over profiles it replaced, under both predicates at eps 0 and 1/2,
    on seeded games and the chase game, which has no pure equilibrium."""
    chase = tuple(tuple(a if exact else float(a) for a in row) for row in CHASE_ALPHA)
    bounded, counts = set(), set()
    for seed, game, beta in [*_seeded_games(8, exact),
                             ("chase", g1(exact, chase), identity_matrix(2, exact))]:
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(game.n, exact)
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, beta)
            assert repr(social_optimum(game, spec)) == repr(_reference_social_optimum(game, spec))
            want = _reference_sum_bounded(game, spec)
            assert repr(is_sum_bounded(game, spec)) == repr(want), (seed, kind)
            bounded.add(want[0])
            for predicate in (EQ1, VERBATIM):
                for eps in (0, F(1, 2) if exact else 0.5):
                    want = _reference_equilibria(game, eps, predicate)
                    assert repr(enumerate_eps_pne(game, eps, predicate)) == repr(want)
                    counts.add(min(len(want), 2))
                    try:
                        want = _reference_ppoa(game, spec, eps, predicate)
                    except GameError as exc:
                        with pytest.raises(GameError, match=str(exc)):
                            ppoa_report(game, spec, eps, predicate)
                        continue
                    got = ppoa_report(game, spec, eps, predicate)
                    assert repr(got) == repr(want), (seed, kind, predicate, eps)
    assert bounded == {True, False} and counts == {0, 1, 2}


def _count_pricings(monkeypatch):
    """Wrap games._Pricing.price, the one pricing of a profile; the
    returned list grows by one entry per call."""
    calls = []
    original = games._Pricing.price

    def counted(self, profile):
        calls.append(profile)
        return original(self, profile)

    monkeypatch.setattr(games._Pricing, "price", counted)
    return calls


def test_oracle_calls_price_each_profile_once(monkeypatch, tmp_path):
    """worst_cce (sum and max, verbatim rows), robust_poa, exact_ppoa and
    enumerate_eps_pne under both predicates, social_optimum,
    is_sum_bounded, validate_smoothness_claims and the cce-poa, exact-ppoa
    and enumerate-pne commands (these two under the verbatim predicate)
    each price each profile at most once (games._Pricing.price, through
    which individual_costs prices too)."""
    calls = _count_pricings(monkeypatch)
    path = str(tmp_path / "game.json")
    for _, game, _ in _seeded_games(6, False):
        profiles = game.model.profile_count()
        write_json(path, emit_game(game))
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, identity_matrix(game.n))
            verbatim = ["--game", path, "--predicate", VERBATIM]
            for run in (lambda: worst_cce(game, spec, 0, VERBATIM),
                        lambda: robust_poa(game, spec),
                        lambda: exact_ppoa(game, spec, 0, EQ1),
                        lambda: exact_ppoa(game, spec, 0, VERBATIM),
                        lambda: enumerate_eps_pne(game, 0, EQ1),
                        lambda: enumerate_eps_pne(game, 0, VERBATIM),
                        lambda: social_optimum(game, spec),
                        lambda: is_sum_bounded(game, spec),
                        lambda: validate_smoothness_claims(game, spec),
                        lambda: cli.main(["cce-poa", "--game", path, "--sf", kind]),
                        lambda: cli.main(["exact-ppoa", "--sf", kind, *verbatim]),
                        lambda: cli.main(["enumerate-pne", *verbatim])):
                calls.clear()
                try:
                    run()
                except GameError:  # a zero optimum leaves no ratio
                    pass
                assert 0 < len(calls) <= profiles


def _gap_games():
    """(label, game, eps values) of every eq1 shape the pass reads: seeded
    float and exact games, off-diagonal alpha on a third of them; a mixed
    game of int and Fraction weights, coefficients and alpha, so loads 2
    and Fraction(2) both occur, over a lookup-table basis with a resource
    whose coefficients are all zero; and its float twin."""
    for exact in (False, True):
        for seed, game, _ in _seeded_games(6, exact):
            yield f"seeded {seed} {exact}", game, (0, F(1, 2) if exact else 0.5)
    table = BasisFunction.lookup({x: F(x * x, 2) for x in (1, 2, 3, 4)})
    model = CongestionModel((1, 2, F(1)), ("a", "b", "z"),
                            [[frozenset("a"), frozenset("ab")], [frozenset("b"), frozenset("az")],
                             [frozenset("ab"), frozenset("z")]])
    coefficients = {"a": (1, F(1, 2)), "b": (F(3, 4), 2), "z": (0, 0)}
    alpha = ((1, F(1, 4), 0), (F(-1, 2), 1, 1), (0, F(1, 3), F(3, 2)))
    mixed = GeneralizedGame(model, (BasisFunction.monomial(1), table), coefficients, alpha)
    yield "mixed", mixed, (0, F(1, 2))
    floats = tuple(tuple(float(a) for a in row) for row in alpha)
    yield "mixed float", GeneralizedGame(model, mixed.basis, coefficients, floats), (0, 0.5)


def _nan_gap_game():
    """Two players of weight 1 on {a} or {b}, latency 1e300 x on both, and
    alpha 1e10 on player 0's own cost: player 0's grouped gap from (a, a)
    to b is inf - inf = nan while every cost stays finite."""
    model = CongestionModel((1.0, 1.0), ("a", "b"), [[frozenset("a"), frozenset("b")]] * 2)
    return GeneralizedGame(model, (BasisFunction.monomial(1),), {"a": (1e300,), "b": (1e300,)},
                           ((1e10, 0.0), (0.0, 1.0)))


def test_eq1_equilibria_are_the_rows_with_no_gap_above_tol():
    """_equilibria(..., EQ1), which the pass decides from the table's own
    loads and stops at a profile's first gap above FEAS_TOL, holds the rows
    whose every deviation_gaps gap g has not g > tol, on every _gap_games
    shape at eps 0 and 1/2, both with and without a social spec, and
    enumerate_eps_pne lists their profiles."""
    kept = dropped = 0
    for label, game, epsilons in _gap_games():
        profiles = list(game.model.profiles())
        for eps in epsilons:
            for spec in (None, SocialSpec(SUM, identity_matrix(game.n))):
                table = _cost_table(game, PROFILE_CAP, "test", spec, eps, EQ1_PNE)
                want = [a for a, prof in enumerate(profiles) if all(
                    not gap > table.tol for _, _, gap in deviation_gaps(game, prof, eps))]
                assert _equilibria(table, EQ1) == want, (label, eps)
                kept, dropped = kept + len(want), dropped + len(profiles) - len(want)
            assert enumerate_eps_pne(game, eps, EQ1) == [profiles[a] for a in want], (label, eps)
    assert kept and dropped


def test_a_nan_gap_is_judged_as_the_array_rule_judges_it():
    """A profile whose only positive-or-nan gap is nan is an equilibrium,
    as the rule np.where(abs(g) > tol, g, 0) <= 0 over a float64 row of
    deviation_gaps judges it, and ppoa_report counts it."""
    game = _nan_gap_game()
    profiles = list(game.model.profiles())
    rows = np.array([[gap for _, _, gap in deviation_gaps(game, prof)] for prof in profiles])
    assert np.isnan(rows).any()
    array_rule = (np.where(abs(rows) > FEAS_TOL, rows, 0) <= 0).all(axis=1)
    table = _cost_table(game, PROFILE_CAP, "test", None, 0, EQ1_PNE)
    assert _equilibria(table, EQ1) == np.flatnonzero(array_rule).tolist()
    assert enumerate_eps_pne(game) == [p for p, ok in zip(profiles, array_rule) if ok]
    report = ppoa_report(game, SocialSpec(SUM, identity_matrix(2)))
    assert report.equilibrium_count == int(array_rule.sum()) > 0


def test_a_social_value_past_the_largest_float_is_inf_without_a_warning():
    """The table's social values, added as arrays, are social_of_costs of
    every row even where a float sum passes the largest float: inf, as
    Python's floats give it, and no numpy warning (which fails a test
    here)."""
    model = CongestionModel((1.0, 1.0), ("a", "b"), [[frozenset("a"), frozenset("b")]] * 2)
    game = GeneralizedGame(model, (BasisFunction.monomial(1),), {"a": (1e308,), "b": (1e307,)},
                           identity_matrix(2))
    for kind in (SUM, MAX):
        spec = SocialSpec(kind, ((1.0, 1.0), (1.0, 1.0)))
        table = _cost_table(game, PROFILE_CAP, "test", spec)
        want = [social_of_costs(spec, costs) for costs in table.costs.tolist()]
        assert float("inf") in want
        assert repr(table.social_values) == repr(want), kind


def test_each_latency_is_evaluated_once_per_call(monkeypatch):
    """ppoa_report, enumerate_eps_pne, worst_cce (sum and max, both
    predicates), validate_smoothness_claims and is_eps_cce evaluate
    GeneralizedGame.latency at most once per (resource, load type, load)
    in a call, and a second call evaluates them as many times again:
    nothing outlives the call."""
    evaluated = []
    original = GeneralizedGame.latency

    def counted(self, e, load):
        evaluated.append((e, type(load), load))
        return original(self, e, load)

    for label, game, epsilons in _gap_games():
        profiles = list(game.model.profiles())
        dist = ProfileDistribution.uniform(profiles[::2])
        specs = [SocialSpec(kind, identity_matrix(game.n)) for kind in (SUM, MAX)]
        calls = [lambda: validate_smoothness_claims(game, specs[0])]
        for eps in epsilons:
            for predicate in (EQ1, VERBATIM):
                calls += [lambda eps=eps, p=predicate: ppoa_report(game, specs[0], eps, p),
                          lambda eps=eps, p=predicate: enumerate_eps_pne(game, eps, p),
                          lambda eps=eps, p=predicate: is_eps_cce(game, dist, eps, p)]
                calls += [lambda eps=eps, p=predicate, s=s: worst_cce(game, s, eps, p)
                          for s in specs]
        for call in calls:
            runs = []
            for _ in range(2):
                evaluated.clear()
                monkeypatch.setattr(GeneralizedGame, "latency", counted)
                try:
                    call()
                except GameError:  # a zero optimum or an empty coarse set
                    pass
                monkeypatch.undo()
                assert evaluated and len(set(evaluated)) == len(evaluated), label
                runs.append(sorted(map(repr, evaluated)))
            assert runs[0] == runs[1], label


def test_every_whole_game_answer_names_itself_over_the_cap(monkeypatch):
    """Each oracle and smoothness entry point refuses a game over its cap
    with its own name: '<name>: N profiles exceeds cap C'; check_smooth,
    which takes no cap, reads PROFILE_CAP."""
    game, spec = g1(), g1_spec()
    cert = SmoothnessCertificate(F(5, 3), F(1, 3))
    calls = {
        "social_optimum": lambda: social_optimum(game, spec, cap=3),
        "enumerate_eps_pne": lambda: enumerate_eps_pne(game, cap=3),
        "exact_ppoa": lambda: exact_ppoa(game, spec, cap=3),
        "ppoa_report": lambda: ppoa_report(game, spec, cap=3),
        "worst_cce": lambda: worst_cce(game, spec, cap=3),
        "cce_poa": lambda: cce_poa(game, spec, cap=3),
        "is_sum_bounded": lambda: is_sum_bounded(game, spec, cap=3),
        "robust_poa": lambda: robust_poa(game, spec, cap=3),
        "validate_smoothness_claims": lambda: validate_smoothness_claims(game, spec, cap=3),
        "check_smooth": lambda: check_smooth(game, spec, cert),
    }
    names = {"ppoa_report": "exact_ppoa", "robust_poa": "smoothness pair tables", "check_smooth": "smoothness pair tables",
             "validate_smoothness_claims": "smoothness pair tables"}
    monkeypatch.setattr(smoothness, "PROFILE_CAP", 3)
    for entry, call in calls.items():
        with pytest.raises(GameError) as exc:
            call()
        assert str(exc.value) == f"{names.get(entry, entry)}: 4 profiles exceeds cap 3", entry


# ============================================================
# which arithmetic answers: the costs and beta together
# ============================================================


def two_link(num):
    """Weights (1, 2), resources a and b of latencies x and 2x, each
    player choosing {a} or {b}, identity alpha: every number made by num."""
    model = CongestionModel((num(1), num(2)), ("a", "b"), [[frozenset("a"), frozenset("b")]] * 2)
    return GeneralizedGame(model, (BasisFunction.monomial(1),), {"a": (num(1),), "b": (num(2),)},
                           ((num(1), num(0)), (num(0), num(1))))


def _answers(game, spec):
    """The reprs of every whole-game answer that reads the table's
    arithmetic: worst_cce under both predicates, cce_poa, robust_poa and
    validate_smoothness_claims."""
    return [repr(worst_cce(game, spec, 0, predicate)) for predicate in (EQ1, VERBATIM)] + [
        repr(cce_poa(game, spec)), repr(robust_poa(game, spec)),
        repr(validate_smoothness_claims(game, spec))]


def test_int_costs_with_fraction_beta_answer_in_rationals():
    """Int costs and beta = diag(1/2, 1/3) hold no float and a Fraction, so
    the answers are rational, those of the game with Fraction
    coefficients: robust_poa 3 and worst_cce 7/3 under sum (3.0 and
    2.3333333333333335 when the costs alone chose the arithmetic)."""
    beta = ((F(1, 2), 0), (0, F(1, 3)))
    for kind in (SUM, MAX):
        spec = SocialSpec(kind, beta)
        assert _answers(two_link(int), spec) == _answers(two_link(F), spec)
    spec = SocialSpec(SUM, beta)
    assert repr(robust_poa(two_link(int), spec).value) == "Fraction(3, 1)"
    assert repr(worst_cce(two_link(int), spec).value) == "Fraction(7, 3)"


def _int_cost_games(count):
    """Seeded games of int weights from {1, 2, 3}, int coefficients from
    0..3 and int alpha (the identity or entries in 0..1), each with a beta
    of quarters in [0, 1] as Fractions, and the game's Fraction twin."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    for seed in range(count):
        rng = seeded(4000 + seed)
        n = 2 + seed % 2
        weights = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        alpha = tuple(tuple(int(i == j) if seed % 3 else rng.randrange(2) for j in range(n))
                      for i in range(n))
        model = random_model(rng, weights)
        coeffs = {e: tuple(rng.randrange(4) for _ in basis) for e in model.resources}
        coeffs[model.resources[0]] = (1,) + coeffs[model.resources[0]][1:]
        game = GeneralizedGame(model, basis, coeffs, alpha)
        twin = GeneralizedGame(
            CongestionModel(tuple(map(F, weights)), model.resources, model.strategies), basis,
            {e: tuple(map(F, vec)) for e, vec in coeffs.items()},
            tuple(tuple(map(F, row)) for row in alpha))
        beta = random_matrix(rng, n, 0, 1, True)
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(n, True)
        yield game, twin, beta


def test_seeded_int_cost_games_with_fraction_beta_answer_as_their_fraction_twins():
    """On seeded int-cost games with a Fraction beta, every answer is the
    Fraction twin's, repr for repr, and worst_cce's value is a Fraction."""
    for game, twin, beta in _int_cost_games(8):
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, beta)
            assert _answers(game, spec) == _answers(twin, spec)
            assert isinstance(worst_cce(game, spec).value, F)


# (robust_poa's value, worst_cce's value and player, validate_smoothness_claims'
# ccpoa) under sum, then max, of FLOAT_GAMES' games, as the costs alone chose
# the arithmetic before beta was read too; the robust values are the line
# envelope's, which moved 7 of them by an ulp or a few from the LP's
FLOAT_ANSWERS = [
    ("1.9090909090909092", "6.0", None, "1.0"),
    ("2.6666666666666665", "4.0", 1, "1.0"),
    ("3.0000000000000004", "2.333333333333333", None, "1.0"),
    ("3.0", "1.3333333333333333", 1, "1.0"),
    ("3.0000000000000004", "2.333333333333333", None, "1.0"),
    ("3.0", "1.3333333333333333", 1, "1.0"),
    ("None", "8.8125", None, "1.3055555555555556"),
    ("2.8499999999999996", "5.125", 0, "1.3666666666666667"),
    ("None", "17.4609375", None, "1.0"),
    ("1.5717238528317488", "10.2421875", 1, "1.0"),
    ("2.8682698081377063", "0.796875", None, "1.0"),
    ("2.8682698081377063", "0.796875", 1, "1.0"),
    ("None", "6.0", None, "1.0"),
    ("4.4199121982553", "2.28125", 1, "1.0"),
]


def float_games():
    """(game, beta) pairs answered in float: two_link's int costs with int
    beta and with float beta, its float costs with Fraction beta, and the
    four float games of _seeded_games."""
    cases = [(two_link(int), ((1, 0), (0, 1))), (two_link(int), ((0.5, 0), (0, 1 / 3))),
             (two_link(float), ((F(1, 2), 0), (0, F(1, 3))))]
    for _, game, beta in _seeded_games(4, False):
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(game.n)
        cases.append((game, beta))
    return cases


def test_float_games_answer_as_before():
    """A game whose costs or beta hold a float, or that holds no Fraction,
    answers in float, repr for repr as before beta took part in choosing
    the arithmetic."""
    answers = []
    for game, beta in float_games():
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, beta)
            report = worst_cce(game, spec)
            answers.append((repr(robust_poa(game, spec).value), repr(report.value), report.player,
                            repr(validate_smoothness_claims(game, spec).ccpoa)))
    assert answers == FLOAT_ANSWERS


def test_an_exact_worst_cce_builds_one_rational_standard_form(monkeypatch):
    """worst_cce under max on exact games reads every player's float run
    on one rational standard form, its costs row rewritten per player:
    one float and one exact _system per call, however many players."""
    systems = []
    system = lp._system

    def counted(program, exact):
        systems.append(exact)
        return system(program, exact)

    monkeypatch.setattr(lp, "_system", counted)
    for _, game, _ in _seeded_games(4, True):
        systems.clear()
        report = worst_cce(game, SocialSpec(MAX, identity_matrix(game.n, True)))
        assert isinstance(report.value, F)
        assert systems == [False, True]


def _rounding_game(seed):
    """A float game whose sums round: n = 3 or 4 players of weight
    U(0.3, 2) on random_model's 3 resources, basis x and x^2 with
    coefficients U(0, 2), alpha 1 on the diagonal and U(0, 1) off it,
    beta U(0, 1), and eps 0 or 1/2."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    model = random_model(rng, [rng.uniform(0.3, 2) for _ in range(n)], 3)
    coefficients = {e: (rng.uniform(0, 2), rng.uniform(0, 2)) for e in model.resources}
    alpha = [[1.0 if i == j else rng.uniform(0, 1) for j in range(n)] for i in range(n)]
    beta = [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)]
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    return GeneralizedGame(model, basis, coefficients, alpha), beta, rng.choice((0, 0.5))


def _rounding_answers(game, beta, eps):
    """The reprs of social_optimum, ppoa_report and worst_cce (or its
    GameError) under both predicates, and robust_poa, under sum and max."""
    answers = []
    for kind in (SUM, MAX):
        spec = SocialSpec(kind, beta)
        answers += [social_optimum(game, spec), robust_poa(game, spec)]
        for predicate in (EQ1, VERBATIM):
            answers.append(ppoa_report(game, spec, eps, predicate))
            try:
                answers.append(worst_cce(game, spec, eps, predicate))
            except GameError as err:
                answers.append(err)
    return [repr(a) for a in answers]


def test_float_answers_do_not_depend_on_the_builtin_sum(monkeypatch):
    """On 20 seeded float games every answer of _rounding_answers is the
    same, repr for repr, when the builtin sum compensates float sums, as
    it does from Python 3.12: every sum in the package adds in order from
    0, one rounding per addition."""
    games = [_rounding_game(seed) for seed in range(20)]
    plain = [_rounding_answers(*case) for case in games]
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert [_rounding_answers(*case) for case in games] == plain
