"""Model layer: costs, deviation gaps, equilibrium predicates.

Every asserted number on the canonical game is reproducible by listing its
four profiles on paper.
"""

import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AA, AB, BA, BB, g1, g1_spec, ordered_sum, random_game, random_matrix,
                      seeded)
from poacert import games
from poacert.games import (
    EQ1,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    congestion,
    deviation_gap,
    deviation_gaps,
    identity_matrix,
    individual_cost,
    individual_costs,
    is_eps_cce,
    is_eps_pne,
    resource_users,
    social_value,
)
from reference import beta_cost, deviation_gap_verbatim, perceived_cost


# ============================================================
# basis functions
# ============================================================


def test_monomial_value():
    f = BasisFunction.monomial(2)
    assert f.value(3) == 9
    assert f.value(0) == 0
    assert f.covers(F(7, 2))
    assert "x^2" in f.describe()


def test_monomial_rejects_bad_degree():
    with pytest.raises(GameError):
        BasisFunction.monomial(0)
    with pytest.raises(GameError):
        BasisFunction.monomial(-1)


def test_indicator_value():
    f = BasisFunction.indicator()
    assert f.value(0) == 0
    assert f.value(F(1, 10)) == 1
    assert f.value(5) == 1


def test_lookup_exact_and_near_miss():
    f = BasisFunction.lookup({1: 2, F(3, 2): 5})
    assert f.value(0) == 0  # implied, not stored
    assert f.value(1) == 2
    assert f.value(F(3, 2)) == 5
    # float queries that drift within 1e-9 of a key still resolve
    assert f.value(1.0 + 1e-12) == 2
    assert f.covers(1)
    assert not f.covers(7)
    with pytest.raises(GameError):
        f.value(7)


def test_lookup_rejects_nonpositive_keys():
    with pytest.raises(GameError):
        BasisFunction.lookup({0: 1, 1: 2})
    with pytest.raises(GameError):
        BasisFunction.lookup({})


def test_lookup_rejects_nan_keys_and_values():
    nan = float("nan")
    with pytest.raises(GameError, match="lookup key nan"):
        BasisFunction.lookup({nan: 1.0, 1.0: 2.0})
    with pytest.raises(GameError, match="lookup value"):
        BasisFunction.lookup({1.0: nan})


@pytest.mark.parametrize("table, entry", [
    ({1: float("inf"), 2: 1}, "f(1)=inf"),
    ({1: 1, float("inf"): 2}, "f(inf)=2"),
], ids=["value", "key"])
def test_lookup_refuses_an_infinite_entry(table, entry):
    """An infinite value or key is refused when the basis is built, naming
    the entry, as every other number of a game is: a class over it no
    longer reaches the solve, where it overflowed the float range."""
    with pytest.raises(GameError, match=re.escape(f"lookup entry {entry} is not finite")):
        BasisFunction.lookup(table)


# ============================================================
# model and game validation
# ============================================================


def test_model_needs_two_players():
    with pytest.raises(GameError):
        CongestionModel((1,), ("a",), ((("a",),),))


def test_model_rejects_nonpositive_weight():
    with pytest.raises(GameError):
        CongestionModel((1, 0), ("a",), ((("a",),), (("a",),)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("weight, message", [(NAN, "must be positive, got nan"),
                                             (INF, "must be finite, got inf")],
                         ids=["nan", "inf"])
def test_model_rejects_a_weight_that_is_not_finite(weight, message):
    with pytest.raises(GameError, match=f"weight of player 0 {message}"):
        CongestionModel((weight, 1.0), ("a",), ((("a",),), (("a",),)))


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_game_rejects_an_alpha_entry_that_is_not_finite(bad):
    with pytest.raises(GameError, match="alpha has an entry that is not finite"):
        GeneralizedGame(g1().model, (BasisFunction.monomial(1),), {"a": (1.0,), "b": (1.0,)},
                        ((1.0, bad), (0.0, 1.0)))


@pytest.mark.parametrize("bad", [NAN, INF])
def test_spec_rejects_a_beta_entry_that_is_not_finite(bad):
    with pytest.raises(GameError, match="beta must be entrywise non-negative and finite"):
        SocialSpec(SUM, ((1.0, bad), (0.0, 1.0)))


def test_spec_rejects_a_ragged_beta():
    with pytest.raises(GameError, match="beta must be 2x2"):
        SocialSpec(MAX, ((1, 0), (1,)))
    with pytest.raises(GameError, match="beta must be 2x2"):
        SocialSpec(SUM, ((1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize("eps", [F(-1, 2), NAN, INF], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("predicate", [EQ1, VERBATIM])
def test_gaps_reject_an_epsilon_that_is_not_finite_and_non_negative(eps, predicate):
    with pytest.raises(GameError, match="epsilon must be non-negative and finite"):
        list(deviation_gaps(g1(), AB, eps, predicate))
    with pytest.raises(GameError, match="epsilon must be non-negative and finite"):
        is_eps_cce(g1(), ProfileDistribution.point(AB), eps, predicate)


def test_model_rejects_duplicate_resources():
    with pytest.raises(GameError):
        CongestionModel((1, 1), ("a", "a"), ((("a",),), (("a",),)))


def test_model_rejects_empty_strategy():
    with pytest.raises(GameError):
        CongestionModel((1, 1), ("a",), ((("a",), ()), (("a",),)))


def test_model_rejects_unknown_resource():
    with pytest.raises(GameError):
        CongestionModel((1, 1), ("a",), ((("a",),), (("b",),)))


def test_game_requires_full_coefficient_map():
    m = g1().model
    with pytest.raises(GameError):
        GeneralizedGame(m, (BasisFunction.monomial(1),), {"a": (1,)}, identity_matrix(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_game_rejects_a_coefficient_that_is_not_finite(bad):
    m = g1().model
    with pytest.raises(GameError, match="resource 'a' has a coefficient that is not finite"):
        GeneralizedGame(m, (BasisFunction.monomial(1),), {"a": (bad,), "b": (1.0,)},
                        identity_matrix(2))


def test_game_rejects_negative_latency():
    m = g1().model
    # -x is negative at every reachable positive load
    with pytest.raises(GameError):
        GeneralizedGame(
            m, (BasisFunction.monomial(1),), {"a": (-1,), "b": (1,)}, identity_matrix(2)
        )


def test_game_allows_negative_coefficient_with_nonnegative_latency():
    m = g1().model
    basis = (BasisFunction.monomial(1), BasisFunction.indicator())
    # x - 1[x>0] >= 0 at loads 0, 1, 2
    g = GeneralizedGame(m, basis, {"a": (1, -1), "b": (1, 0)}, identity_matrix(2))
    assert g.latency("a", 1) == 0
    assert g.latency("a", 2) == 1


def test_latency_is_zero_at_zero_load():
    assert g1().latency("a", 0) == 0


def test_reachable_congestions_cover_deviations():
    # the subset sums: a deviating player joins a resource it is not on,
    # so the load after any deviation is again a subset sum
    assert g1().model.reachable_congestions() == {0, 1, 2}


# ============================================================
# costs on the canonical game
# ============================================================


def test_congestion_and_users():
    m = g1().model
    assert congestion(m, AB) == {"a": 1, "b": 1}
    assert congestion(m, AA) == {"a": 2, "b": 0}
    assert resource_users(m, AB) == {"a": [0], "b": [1]}


def test_individual_cost_shared_resource():
    # both on a: load 2, latency 2, weight 1
    assert individual_cost(g1(), AA, 0) == 2


def test_perceived_equals_individual_under_identity():
    g = g1()
    for prof in (AA, AB, BA, BB):
        for i in (0, 1):
            assert perceived_cost(g, prof, i) == individual_cost(g, prof, i)


def test_beta_cost_identity():
    assert beta_cost(g1_spec(), g1(), AA, 1) == 2


def test_beta_cost_mixes_rows():
    spec = SocialSpec(SUM, ((F(1), F(2)), (F(0), F(1))))
    assert beta_cost(spec, g1(), AA, 0) == 2 + 2 * 2


def test_social_value_sum_point():
    assert social_value(g1_spec(SUM), g1(), AB) == 2


def test_social_value_max_point():
    assert social_value(g1_spec(MAX), g1(), AA) == 2


def test_social_value_expectation():
    dist = ProfileDistribution.uniform([AA, BB])
    assert social_value(g1_spec(SUM), g1(), dist) == 4


# ============================================================
# deviation gaps
# ============================================================


def test_gap_profitable_deviation():
    # (a,a), player 0 -> {b}: leaves latency 2 behind, pays 1
    assert deviation_gap(g1(), AA, 0, frozenset({"b"})) == 1


def test_gap_unprofitable_deviation():
    # (a,b), player 0 -> {b}: leaves 1, pays latency 2 at load 2
    assert deviation_gap(g1(), AB, 0, frozenset({"b"})) == -1


def test_gap_accepts_strategy_index():
    g = g1()
    assert deviation_gap(g, AA, 0, 1) == deviation_gap(g, AA, 0, frozenset({"b"}))


def test_gap_epsilon_scales_the_target_side():
    g = g1()
    assert deviation_gap(g, AA, 0, 1, eps=1) == 2 - 2 * 1


def test_gap_reads_a_resource_set_that_is_no_strategy():
    """x may be any set of resources, not only one of the player's
    strategies: the resources it leaves (current minus x) and those it
    joins (x minus current) give the grouped gap.  On g1 at (a, b), player
    0 moving to {a, b} leaves nothing and pays latency 2 at b's load 2; on
    seeded exact games with off-diagonal alpha, every nonempty resource set
    matches the grouped formula written out."""
    assert deviation_gap(g1(), AB, 0, {"a", "b"}) == -2
    assert deviation_gap(g1(), AB, 0, ["b", "a"], eps=1) == -4
    others = 0
    for seed in range(3):
        rng = seeded(seed)
        alpha = random_matrix(rng, 3, -1, 1, exact=True)
        basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
        g = random_game(rng, (F(1), F(3, 2), F(2)), basis, alpha, exact=True, n_resources=4)
        model, w = g.model, g.model.weights
        sets = [frozenset(c) for k in range(1, 5)
                for c in itertools.combinations(model.resources, k)]
        for prof in model.profiles():
            loads, users = congestion(model, prof), resource_users(model, prof)
            for i, per in enumerate(model.strategies):
                current = per[prof[i]]

                def aw(e):
                    return ordered_sum(alpha[i][j] * w[j] for j in users[e])

                for target in sets:
                    others += target not in per
                    gain = ordered_sum(g.latency(e, loads[e]) * aw(e) for e in current - target)
                    pay = ordered_sum(g.latency(e, loads[e] + w[i]) * (alpha[i][i] * w[i] + aw(e))
                                      for e in target - current)
                    assert deviation_gap(g, prof, i, target, F(1, 2)) == gain - F(3, 2) * pay
    assert others


def test_predicates_diverge_off_diagonal():
    """The grouped gap and the literal perceived-cost difference are
    different quantities once alpha has off-diagonal mass, even at eps=0."""
    m = CongestionModel((F(1), F(1)), ("g", "e"), ((("g",), ("e",)), (("e",),)))
    g = GeneralizedGame(
        m,
        (BasisFunction.monomial(1),),
        {"g": (F(3, 2),), "e": (F(1),)},
        ((F(1), F(1)), (F(0), F(1))),
    )
    sigma = (0, 0)  # player 0 on g, player 1 on e
    x = frozenset({"e"})
    assert deviation_gap(g, sigma, 0, x) == F(-5, 2)
    assert deviation_gap_verbatim(g, sigma, 0, x) == F(-3, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 4))
def test_predicates_agree_for_diagonal_alpha(seed, d0, d1):
    """At eps=0 with diagonal alpha the two predicates give the same number
    on every (profile, player, deviation) triple: shared-resource terms
    cancel from the literal difference."""
    rng = seeded(seed)
    alpha = ((F(d0), F(0)), (F(0), F(d1)))
    basis = (BasisFunction.monomial(1), BasisFunction.indicator())
    g = random_game(rng, (F(1), F(2)), basis, alpha, exact=True)
    for prof in g.model.profiles():
        for i in range(g.n):
            for idx in range(len(g.model.strategies[i])):
                assert deviation_gap(g, prof, i, idx) == deviation_gap_verbatim(
                    g, prof, i, idx
                )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 7))
def test_scaling_multiplies_gaps(seed, num):
    """Positive rescaling of all coefficients rescales every deviation gap,
    so it cannot change any equilibrium set."""
    rng = seeded(seed)
    c = F(num, 3)
    g = random_game(rng, (F(1), F(1)), (BasisFunction.monomial(2),),
                    identity_matrix(2, True), exact=True)
    h = g.scaled(c)
    for prof in g.model.profiles():
        for i in range(g.n):
            for idx in range(len(g.model.strategies[i])):
                assert deviation_gap(h, prof, i, idx) == c * deviation_gap(g, prof, i, idx)


@pytest.mark.parametrize("seed", range(6))
def test_one_load_pass_matches_the_per_player_functions(seed):
    """individual_costs, deviation_gaps and social_value read each
    profile's loads once; their values equal those of individual_cost,
    deviation_gap and deviation_gap_verbatim, which read them per call,
    bit for bit on float data that rounds."""
    rng = seeded(seed)
    alpha = tuple(tuple(rng.choice((0.0, rng.uniform(-1, 1))) for _ in range(3)) for _ in range(3))
    beta = tuple(tuple(rng.choice((0.0, rng.uniform(0, 1))) for _ in range(3)) for _ in range(3))
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    g = random_game(rng, (0.7, 1.3, 2.1), basis, alpha, n_resources=4)
    for kind in (SUM, MAX):
        spec = SocialSpec(kind, beta)
        for prof in g.model.profiles():
            costs = [individual_cost(g, prof, i) for i in range(3)]
            assert individual_costs(g, prof) == costs
            per = [ordered_sum(beta[i][j] * costs[j] for j in range(3) if beta[i][j] != 0)
                   for i in range(3)]
            assert social_value(spec, g, prof) == (ordered_sum(per) if kind == SUM else max(per))
            for predicate, gap in ((EQ1, deviation_gap), (VERBATIM, deviation_gap_verbatim)):
                want = [(i, x, gap(g, prof, i, x, 0.5))
                        for i in range(3) for x in range(len(g.model.strategies[i]))]
                assert list(deviation_gaps(g, prof, 0.5, predicate)) == want


def test_verbatim_gaps_price_each_profile_once(monkeypatch):
    """Under verbatim, deviation_gaps prices the profile once, for its own
    cost and for every x = sigma_i, and each other deviation once
    (games._Pricing.price)."""
    priced = []
    original = games._Pricing.price

    def counted(self, profile):
        priced.append(tuple(profile))
        return original(self, profile)

    monkeypatch.setattr(games._Pricing, "price", counted)
    list(deviation_gaps(g1(), AB, 0, VERBATIM))
    assert priced == [AB, BB, AA]


def _reference_is_eps_cce(game, dist, eps, predicate):
    """is_eps_cce as deviation_gaps of each support profile, each
    deviation priced once per support profile that reaches it."""
    gaps = {prof: [gap for _, _, gap in deviation_gaps(game, prof, eps, predicate)]
            for prof in dist.masses}
    k = 0
    for i in range(game.n):
        for _ in game.model.strategies[i]:
            expected = dist.expect(lambda prof: gaps[prof][k])
            if expected > games._tol(expected):
                return False
            k += 1
    return True


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_a_cce_check_prices_each_profile_once(monkeypatch, exact):
    """is_eps_cce under verbatim prices each distinct profile its gaps read
    once per call (a support profile and its unilateral deviations, each
    one games._Pricing.price call), and answers as the support's
    deviation_gaps do, under both predicates."""
    from test_oracle import _seeded_games

    priced = []
    original = games._Pricing.price

    def counted(self, profile):
        priced.append(tuple(profile))
        return original(self, profile)

    rng = seeded(3737)
    answers = set()
    for _, game, _ in _seeded_games(8, exact):
        profiles = list(game.model.profiles())
        for _ in range(4):
            dist = ProfileDistribution.uniform(rng.sample(profiles, rng.randint(1, len(profiles))))
            for predicate in (EQ1, VERBATIM):
                for eps in (0, F(1, 2) if exact else 0.5):
                    want = _reference_is_eps_cce(game, dist, eps, predicate)
                    monkeypatch.setattr(games._Pricing, "price", counted)
                    priced.clear()
                    assert is_eps_cce(game, dist, eps, predicate) is want
                    monkeypatch.undo()
                    answers.add(want)
                    if predicate == VERBATIM:
                        read = {(*prof[:i], x, *prof[i + 1:]) for prof in dist.masses
                                for i, per in enumerate(game.model.strategies)
                                for x in range(len(per))}
                        assert sorted(priced) == sorted(read)
    assert answers == {True, False}


# ============================================================
# equilibrium predicates
# ============================================================


@pytest.mark.parametrize("predicate", [EQ1, VERBATIM])
def test_pne_cases(predicate):
    g = g1()
    assert is_eps_pne(g, AB, 0, predicate)
    assert not is_eps_pne(g, AA, 0, predicate)  # halving move exists
    assert is_eps_pne(g, AA, 1, predicate)  # 2 <= 2*1


_PER_PROFILE = {
    "individual_cost": lambda g, prof: individual_cost(g, prof, 0),
    "individual_costs": individual_costs,
    "deviation_gap": lambda g, prof: deviation_gap(g, prof, 0, 0),
    "deviation_gaps_eq1": lambda g, prof: list(deviation_gaps(g, prof)),
    "deviation_gaps_verbatim": lambda g, prof: list(deviation_gaps(g, prof, 0, VERBATIM)),
    "is_eps_pne_eq1": is_eps_pne,
    "is_eps_pne_verbatim": lambda g, prof: is_eps_pne(g, prof, 0, VERBATIM),
    "is_eps_cce_eq1": lambda g, prof: is_eps_cce(g, ProfileDistribution.point(prof), 0, EQ1),
    "is_eps_cce_verbatim": lambda g, prof: is_eps_cce(g, ProfileDistribution.point(prof)),
    "social_value_pure": lambda g, prof: social_value(g1_spec(), g, prof),
    "social_value_distribution": lambda g, prof: social_value(
        g1_spec(), g, ProfileDistribution({AA: F(1, 2), prof: F(1, 2)})),
}


@pytest.mark.parametrize("profile, message", [
    ((0, -1), "strategy index -1 of player 1 is not an int in range(2)"),
    ((0, 2), "strategy index 2 of player 1 is not an int in range(2)"),
    ((True, 0), "strategy index True of player 0 is not an int in range(2)"),
    ((0, 1.0), "strategy index 1.0 of player 1 is not an int in range(2)"),
    ((0,), "profile has 1 entries for a game of 2 players"),
    ((0, 1, 0), "profile has 3 entries for a game of 2 players"),
], ids=["negative", "past_the_end", "bool", "float", "short", "long"])
@pytest.mark.parametrize("read", _PER_PROFILE.values(), ids=_PER_PROFILE.keys())
def test_a_profile_out_of_place_is_refused(read, profile, message):
    """Every public per-profile reader refuses a profile of the wrong
    length, and an entry that is a bool, not an int, or no strategy of its
    player, naming the player and the entry; none reads -1 as the last
    strategy or True as strategy 1."""
    with pytest.raises(GameError, match=re.escape(message)):
        read(g1(), profile)


_PER_PLAYER = {
    "individual_cost": lambda g, i: individual_cost(g, AB, i),
    "deviation_gap": lambda g, i: deviation_gap(g, AB, i, 0),
}


@pytest.mark.parametrize("i", [-1, 2, True, 1.0], ids=["negative", "past_the_end", "bool", "float"])
@pytest.mark.parametrize("read", _PER_PLAYER.values(), ids=_PER_PLAYER.keys())
def test_a_player_index_out_of_place_is_refused(read, i):
    """Every public reader of one player's cost or gap refuses a player
    index that is a bool, not an int, or out of range; none reads -1 as
    the last player or True as player 1."""
    with pytest.raises(GameError, match=re.escape(f"player index {i!r} is not an int in range(2)")):
        read(g1(), i)


@pytest.mark.parametrize("x, message", [
    (-1, "strategy index -1 of player 0 is not an int in range(2)"),
    (2, "strategy index 2 of player 0 is not an int in range(2)"),
    (True, "strategy index True of player 0 is not an int in range(2)"),
    (1.0, "deviation target 1.0 of player 0 is neither a strategy index nor a nonempty set"),
    ({"a", "z"}, "of player 0 is neither a strategy index nor a nonempty set"),
    (set(), "deviation target set() of player 0 is neither a strategy index nor a nonempty set"),
    ([["a"]], "deviation target [['a']] of player 0 is neither a strategy index nor a nonempty"),
], ids=["negative", "past_the_end", "bool", "float", "unknown_resource", "empty", "unhashable"])
@pytest.mark.parametrize("gap", [deviation_gap])
def test_a_deviation_target_out_of_place_is_refused(gap, x, message):
    """deviation_gap refuses a target x that is neither a strategy index in
    range, not a bool, nor a nonempty set of the game's resources, as every
    strategy is."""
    with pytest.raises(GameError, match=re.escape(message)):
        gap(g1(), AB, 0, x)


def test_pne_rejects_unknown_predicate():
    with pytest.raises(GameError):
        is_eps_pne(g1(), AB, 0, "median")


def test_cce_uniform_over_all_profiles():
    g = g1()
    dist = ProfileDistribution.uniform([AA, AB, BA, BB])
    assert is_eps_cce(g, dist, 0)
    assert is_eps_cce(g, dist, 0, predicate=EQ1)


def test_cce_point_mass_on_non_pne():
    assert not is_eps_cce(g1(), ProfileDistribution.point(AA), 0)


# ============================================================
# distributions
# ============================================================


def test_distribution_must_sum_to_one():
    with pytest.raises(GameError):
        ProfileDistribution({AA: F(1, 2), AB: F(1, 4)})


def test_distribution_rejects_negative_mass():
    with pytest.raises(GameError):
        ProfileDistribution({AA: F(3, 2), AB: F(-1, 2)})


@pytest.mark.parametrize("masses", [
    {AA: float("nan")},
    {AA: 1.0, BB: float("nan")},
    {AA: float("inf")},
    {AA: 1.0, BB: float("inf"), AB: -float("inf")},
], ids=["nan_alone", "nan_beside_one", "inf", "inf_minus_inf"])
def test_distribution_refuses_a_mass_that_is_not_finite(masses):
    """A NaN or infinite mass is refused when the distribution is built:
    NaN compares false both ways, so a NaN total once passed the sum test
    and is_eps_cce said True of it."""
    with pytest.raises(GameError, match="is not a finite number >= 0"):
        ProfileDistribution(masses)


def test_distribution_drops_float_dust_below_zero():
    """A float mass in [-MASS_TOL, 0) is solver noise and is dropped; one
    below it is refused."""
    dist = ProfileDistribution({AA: 1.0, BB: -games.MASS_TOL})
    assert dist.masses == {AA: 1.0}
    with pytest.raises(GameError, match="is not a finite number >= 0"):
        ProfileDistribution({AA: 1.0, BB: -2 * games.MASS_TOL})


def test_uniform_over_no_profiles_is_refused():
    with pytest.raises(GameError, match="no profiles"):
        ProfileDistribution.uniform([])


def test_distribution_expect():
    dist = ProfileDistribution({AA: F(1, 4), BB: F(3, 4)})
    assert dist.expect(lambda p: p[0]) == F(3, 4)
    assert set(dist.support()) == {AA, BB}


def test_point_and_uniform():
    assert ProfileDistribution.point(AB).masses == {AB: 1}
    u = ProfileDistribution.uniform([AA, BB])
    assert u.masses[AA] == F(1, 2)
