"""Representative model: counts, ids, and the profile-pair embedding."""

from fractions import Fraction as F

import pytest

from conftest import AA, AB, BA, BB, g1
from poacert.games import GameError, congestion
from poacert.representative import build_representative, map_profile_pair


def test_resource_count_is_4_to_the_n():
    assert len(build_representative((1, 1)).model.resources) == 16
    assert len(build_representative((1, 1, 1)).model.resources) == 64


def test_two_strategies_per_player():
    rep = build_representative((F(1), F(2)))
    for per in rep.model.strategies:
        assert len(per) == 2
    assert rep.sigma_star == (0, 0)
    assert rep.o_star == (1, 1)


def test_strategy_membership_matches_masks():
    rep = build_representative((1, 1))
    sigma_0 = rep.model.strategies[0][rep.sigma_star[0]]
    # player 1 sits on exactly the resources whose P contains it: half of 16
    assert len(sigma_0) == 8
    assert all(eid.startswith("P:{1") for eid in sorted(sigma_0))


def test_resource_ids_are_readable():
    rep = build_representative((1, 1, 1))
    assert rep.resource_for((0, 2), (1,)) == "P:{1,3}|Q:{2}"
    assert rep.resource_for((), ()) == "P:{}|Q:{}"
    # mask form means the same thing
    assert rep.resource_for(0b101, 0b010) == "P:{1,3}|Q:{2}"


def test_resource_for_rejects_foreign_players():
    rep = build_representative((1, 1))
    with pytest.raises(GameError):
        rep.resource_for((0, 2), ())


def test_weights_preserved():
    rep = build_representative((F(1), F(3, 2)))
    assert rep.model.weights == (F(1), F(3, 2))


def test_player_cap():
    with pytest.raises(GameError):
        build_representative((1,) * 11)
    # explicit cap overrides the default
    with pytest.raises(GameError):
        build_representative((1, 1, 1), cap=2)


def test_map_profile_pair_canonical_cases():
    g = g1()
    rep = build_representative(g.model.weights)
    m = map_profile_pair(rep, g.model, AA, BB)
    assert m["a"] == rep.resource_for((0, 1), ())
    assert m["b"] == rep.resource_for((), (0, 1))
    m = map_profile_pair(rep, g.model, AB, BA)
    assert m["a"] == rep.resource_for((0,), (1,))
    assert m["b"] == rep.resource_for((1,), (0,))


def test_map_profile_pair_requires_same_weights():
    g = g1()
    rep = build_representative((F(1), F(2)))
    with pytest.raises(GameError):
        map_profile_pair(rep, g.model, AA, BB)


def test_embedding_preserves_loads():
    """The defining property: congestion of e under sigma equals congestion
    of its image under sigma*, and likewise on the o side."""
    g = g1()
    rep = build_representative(g.model.weights)
    star = congestion(rep.model, rep.sigma_star)
    omega = congestion(rep.model, rep.o_star)
    for sigma in g.model.profiles():
        for tau in g.model.profiles():
            mapping = map_profile_pair(rep, g.model, sigma, tau)
            here = congestion(g.model, sigma)
            there = congestion(g.model, tau)
            for e, rid in mapping.items():
                assert star[rid] == here[e]
                assert omega[rid] == there[e]


@pytest.mark.parametrize("n", [2, 3])
def test_resource_for_reads_position_p_times_size_plus_q(n):
    """e(P, Q) is model.resources[P * 2^n + Q], the layout the closed-form
    columns are written in; a mask outside [0, 2^n) names no resource."""
    rep = build_representative((1,) * n)
    size = 2**n
    for p in range(size):
        for q in range(size):
            assert rep.resource_for(p, q) == rep.model.resources[p * size + q]
    for p, q in ((-1, 0), (0, -1), (size, 0), (0, size), (size, size)):
        with pytest.raises(GameError):
            rep.resource_for(p, q)
