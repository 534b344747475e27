"""Certificate checking and the robust bound."""

import time
from fractions import Fraction as F

import pytest

from conftest import AA, AB, g1, g1_spec, random_game, random_matrix, seeded
from poacert.games import (
    MAX,
    SUM,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    SocialSpec,
    identity_matrix,
    individual_cost,
    social_value,
)
from poacert.oracle import (
    NO_EQUILIBRIUM,
    PROFILE_CAP,
    exact_ppoa,
    social_optimum,
    worst_cce_value,
)
from poacert.smoothness import (
    NOT_SMOOTHABLE,
    OPTIMAL,
    RobustPoA,
    SmoothnessCertificate,
    _pair_tables,
    _probe,
    check_smooth,
    is_sum_bounded,
    robust_poa,
    validate_smoothness_claims,
)


def spec_3i():
    return SocialSpec(SUM, ((F(3), F(0)), (F(0), F(3))))


def test_certificate_validation():
    with pytest.raises(GameError):
        SmoothnessCertificate(0, 0)
    with pytest.raises(GameError):
        SmoothnessCertificate(1, 1)
    cert = SmoothnessCertificate(F(5, 3), F(1, 3))
    assert cert.bound == F(5, 2)


def test_sum_bounded_identity_cases():
    assert is_sum_bounded(g1(), g1_spec(SUM)) == (True, None)
    # max of individual costs never exceeds their sum
    assert is_sum_bounded(g1(), g1_spec(MAX)) == (True, None)


def test_sum_bounded_violation_with_witness():
    # beta = 3I: social value triples the cost sum everywhere; the first
    # profile already witnesses it (12 > 4)
    ok, witness = is_sum_bounded(g1(), spec_3i())
    assert not ok
    assert witness == AA


def test_check_smooth_accepts_known_certificate():
    ok, pair = check_smooth(g1(), g1_spec(), SmoothnessCertificate(F(5, 3), F(1, 3)))
    assert ok and pair is None


def test_check_smooth_finds_violating_pair():
    ok, pair = check_smooth(g1(), g1_spec(), SmoothnessCertificate(1, 0))
    assert not ok
    # deviating from (a,a) toward (a,b) costs 3 against a bound of 2
    assert pair == (AA, AB)


def test_check_smooth_verifies_the_returned_pair():
    cert = SmoothnessCertificate(1, 0)
    profiles, sf, dev = _pair_tables(g1(), g1_spec(), 10 ** 6)
    ok, (sigma, target) = check_smooth(g1(), g1_spec(), cert)
    assert not ok
    a, b = profiles.index(sigma), profiles.index(target)
    assert dev[a][b] > cert.lam * sf[b] + cert.mu * sf[a]


def test_robust_poa_brackets_known_ratios():
    g = g1(exact=False)
    spec = g1_spec(SUM, exact=False)
    r = robust_poa(g, spec)
    assert r.status == OPTIMAL
    # must dominate both exact ratios (1 and 3/2) and sit under the
    # hand certificate bound 5/2
    assert 1.5 - 1e-6 <= r.value <= 2.5 + 1e-6
    ok, _ = check_smooth(g, spec, SmoothnessCertificate(r.lam, r.mu), tol=1e-7)
    assert ok
    assert r.lam / (1 - r.mu) <= r.value + 1e-6


X = BasisFunction.monomial(1)


@pytest.mark.parametrize("seed, value", [
    (None, F(5, 3)),
    (5, F(25, 14)),
    (13, F(41, 23)),
    (42, F(101, 83)),
    (45, F(4, 3)),
    (59, F(27, 19)),
], ids=["g1", "seed5", "seed13", "seed42", "seed45", "seed59"])
def test_robust_poa_pins_exact_infima(seed, value):
    if seed is None:
        g, gf = g1(), g1(exact=False)
    else:
        g = random_game(seeded(seed), (F(1), F(1)), (X,), identity_matrix(2, True), exact=True)
        gf = random_game(seeded(seed), (1.0, 1.0), (X,), identity_matrix(2))
    r = robust_poa(g, g1_spec(SUM))
    assert r.status == OPTIMAL and r.probes == 1
    assert type(r.value) is F and r.value == value
    assert r.lam / (1 - r.mu) == value
    rf = robust_poa(gf, g1_spec(SUM, exact=False))
    assert rf.value == pytest.approx(float(value), rel=1e-9)


def test_robust_poa_infimum_at_t_zero_is_the_trivial_bound():
    g = random_game(seeded(4), (F(1), F(1)), (X,), identity_matrix(2, True), exact=True)
    spec = g1_spec(MAX)
    r = robust_poa(g, spec)
    _, sf, dev = _pair_tables(g, spec, 10 ** 6)
    assert r.status == OPTIMAL and (r.lam, r.mu) == (None, None)
    assert r.value == max(sf) / min(sf) == F(22, 15)
    # unattained, yet approached: certificates exist just above the value
    sf = [float(v) for v in sf]
    dev = [[float(v) for v in row] for row in dev]
    assert _probe(float(r.value) - 1e-3, sf, dev) is None
    assert _probe(float(r.value) + 1e-3, sf, dev) is not None
    v = validate_smoothness_claims(g, spec)
    assert v.ppoa_within_bound is not False and v.ccpoa_within_bound


def test_robust_poa_value_is_tight():
    g = g1(exact=False)
    spec = g1_spec(SUM, exact=False)
    r = robust_poa(g, spec)
    _, sf, dev = _pair_tables(g, spec, 10 ** 6)
    sf = [float(v) for v in sf]
    dev = [[float(v) for v in row] for row in dev]
    # just below the returned value no certificate exists
    assert _probe(r.value - 10 * 1e-6, sf, dev) is None
    assert _probe(r.value, sf, dev) is not None


def test_robust_poa_not_smoothable_without_sum_bound():
    r = robust_poa(g1(exact=False), spec_3i())
    assert r.status == NOT_SMOOTHABLE
    assert r.unbounded_witness == AA
    assert r.value is None


def test_robust_poa_single_profile_is_exactly_one():
    m = CongestionModel((F(1), F(1)), ("a",), ((("a",),), (("a",),)))
    g = GeneralizedGame(m, (BasisFunction.monomial(1),), {"a": (F(1),)},
                        identity_matrix(2, True))
    r = robust_poa(g, g1_spec(SUM))
    assert r.status == OPTIMAL
    assert r.value == 1
    assert (r.lam, r.mu) == (1.0, 0.0)


def test_robust_poa_converges_quickly():
    g = g1(exact=False)
    start = time.perf_counter()
    r = robust_poa(g, g1_spec(SUM, exact=False))
    assert time.perf_counter() - start < 1.0
    assert r.probes < 60


def test_validation_on_canonical_game():
    g = g1(exact=False)
    v = validate_smoothness_claims(g, g1_spec(SUM, exact=False))
    assert v.sum_bounded
    assert v.ppoa == pytest.approx(1.0)
    assert v.ccpoa == pytest.approx(1.5, rel=1e-9)
    assert v.ppoa_within_bound and v.ccpoa_within_bound
    assert v.tightness_gap >= -1e-6


def test_validation_reports_unbounded_spec():
    v = validate_smoothness_claims(g1(exact=False), spec_3i())
    assert not v.sum_bounded
    assert v.sum_bounded_witness == AA
    assert v.robust.status == NOT_SMOOTHABLE
    assert v.ppoa_within_bound is None


def test_robust_dominates_oracles_on_seeded_games():
    basis = (BasisFunction.monomial(1),)
    spec = SocialSpec(SUM, identity_matrix(2))
    hits = 0
    for seed in range(20):
        rng = seeded(seed)
        g = random_game(rng, (1.0, 1.0), basis, identity_matrix(2))
        _, opt = social_optimum(g, spec)
        if opt <= 0:
            continue
        r = robust_poa(g, spec)
        if r.status != OPTIMAL:
            continue
        ppoa = exact_ppoa(g, spec, 0)
        ccpoa = worst_cce_value(g, spec, 0) / opt
        if ppoa != NO_EQUILIBRIUM:
            assert ppoa <= r.value + 1e-6
        assert ccpoa <= r.value + 1e-6
        assert check_smooth(g, spec, SmoothnessCertificate(r.lam, r.mu)) == (True, None)
        hits += 1
    assert hits >= 10  # the generator must not degenerate


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_pair_tables_match_individual_costs(exact):
    """SF is social_value and every deviation sum is the sum over i of
    individual_cost at (sigma_{-i}, sigma'_i), value for value."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    one = F(1) if exact else 1.0
    for seed in range(12):
        rng = seeded(seed)
        n = 2 + seed % 2
        weights = tuple(one * rng.choice((1, 2, 3)) / 2 for _ in range(n))
        game = random_game(rng, weights, basis, random_matrix(rng, n, -1, 1, exact), exact)
        spec = SocialSpec(SUM if seed % 4 < 2 else MAX, random_matrix(rng, n, 0, 1, exact))
        profiles, sf, dev = _pair_tables(game, spec, PROFILE_CAP)
        assert profiles == list(game.model.profiles())
        assert sf == [social_value(spec, game, prof) for prof in profiles]
        for a, prof in enumerate(profiles):
            for b, other in enumerate(profiles):
                want = sum(individual_cost(game, prof[:i] + (other[i],) + prof[i + 1:], i)
                           for i in range(n))
                assert dev[a][b] == want and type(dev[a][b]) is type(want), (seed, a, b)


def test_smoothness_cap_errors_name_count_and_cap():
    g, spec = g1(), g1_spec()
    with pytest.raises(GameError, match="4 profiles exceeds cap 3"):
        robust_poa(g, spec, cap=3)
    with pytest.raises(GameError, match="4 profiles exceeds cap 3"):
        _pair_tables(g, spec, 3)
