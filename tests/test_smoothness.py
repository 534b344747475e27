"""Certificate checking and the robust bound."""

import json
import time
import warnings
from dataclasses import replace
from fractions import Fraction as F
from functools import cached_property
from typing import Optional

import numpy as np
import pytest

from conftest import (
    AA,
    AB,
    BA,
    dict_program,
    g1,
    g1_spec,
    named,
    random_game,
    random_matrix,
    same_program,
    seeded,
)
from test_cost_table import corpus
from test_oracle import _seeded_games
from poacert import linprog as lp
from poacert.formulations import VALUE_RTOL
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
    SocialSpec,
    identity_matrix,
    individual_cost,
    social_value,
)
from poacert.cli import EXIT_OK, EXIT_VALIDATION, main
from poacert.oracle import (
    NO_EQUILIBRIUM,
    PROFILE_CAP,
    PPoAReport,
    _cost_table,
    cce_poa,
    enumerate_eps_pne,
    exact_ppoa,
    ppoa_report,
    social_optimum,
    worst_cce,
)
from poacert.smoothness import (
    NOT_SMOOTHABLE,
    OPTIMAL,
    RobustPoA,
    SmoothnessCertificate,
    _deviation_sums,
    _envelope_minimum,
    _unbounded_row,
    check_smooth,
    is_sum_bounded,
    robust_poa,
    validate_smoothness_claims,
)


def _tables(game, spec, cap):
    """(profiles, SF, the deviation sums as nested lists) of the pair
    tables of the game's cost table."""
    table = _cost_table(game, cap, "smoothness pair tables", spec)
    profiles = [table.profile(a) for a in range(len(table.profiles))]
    return profiles, table.social_values, _deviation_sums(table).tolist()


def _pair_rows(sf, dev):
    """Reference: lam*SF(sigma') + mu*SF(sigma) - t*dev(sigma, sigma') >= 0
    for every ordered pair, as dict rows; t = 1 gives the certificate rows
    themselves."""
    rows = []
    for a, sf_a in enumerate(sf):
        for b, sf_b in enumerate(sf):
            coeffs = {}
            if sf_b:
                coeffs["lam"] = sf_b
            if sf_a:
                coeffs["mu"] = sf_a
            if dev[a][b]:
                coeffs["t"] = -dev[a][b]
            rows.append((coeffs, lp.GE, 0, f"pair[{a}][{b}]"))
    return rows


_STRICT = 1e-12  # mu < 1 enforced up to this margin in the probe


def _probe(rho: float, sf, dev):
    """Bisection reference: feasibility of a certificate with bound <= rho,
    as (lam, mu) or None.  delta keeps mu strictly below 1."""
    rows = _pair_rows(sf, dev) + [
        ({"lam": 1, "mu": rho}, lp.LE, rho, "cap"),
        ({"mu": 1, "delta": 1}, lp.LE, 1, "strict"),
        ({"t": 1}, lp.EQ, 1, "unit"),
        ({"delta": 1}, lp.LE, 1, "delta_cap"),
    ]
    program = dict_program(
        lp.MAXIMIZE,
        ["lam", "mu", "t", "delta"],
        {"delta": 1},
        rows,
        bounds={1: lp.FREE},  # mu
        name="smooth_probe",
    )
    rep = lp.solve(program)
    if rep.status != lp.OPTIMAL or rep.value <= _STRICT:
        return None
    point = named(program, rep.primal)
    return float(point["lam"]), float(point["mu"])


def spec_3i():
    return SocialSpec(SUM, ((F(3), F(0)), (F(0), F(3))))


def test_certificate_validation():
    with pytest.raises(GameError):
        SmoothnessCertificate(0, 0)
    with pytest.raises(GameError):
        SmoothnessCertificate(1, 1)
    # robust_poa's answer on the t = 0 face has no certificate
    for lam, mu in ((None, None), (None, 0), (1, None)):
        with pytest.raises(GameError, match="needs lam and mu"):
            SmoothnessCertificate(lam, mu)
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
    profiles, sf, dev = _tables(g1(), g1_spec(), 10 ** 6)
    ok, (sigma, target) = check_smooth(g1(), g1_spec(), cert)
    assert not ok
    a, b = profiles.index(sigma), profiles.index(target)
    assert dev[a][b] > cert.lam * sf[b] + cert.mu * sf[a]


def test_check_smooth_compares_exact_data_with_zero():
    """On exact data a pair row gets no slack: lam = 5/3 - 10^-11, mu = 1/3
    fails the rows ((a,b), (b,a)) and ((b,a), (a,b)) of g1 by exactly
    2 * 10^-11 (SF is 2 at both profiles).  An explicit tol still wins."""
    cert = SmoothnessCertificate(F(5, 3) - F(1, 10**11), F(1, 3))
    assert check_smooth(g1(), g1_spec(), cert) == (False, (AB, BA))
    profiles, sf, dev = _tables(g1(), g1_spec(), 10 ** 6)
    a, b = profiles.index(AB), profiles.index(BA)
    assert dev[a][b] - (cert.lam * sf[b] + cert.mu * sf[a]) == F(2, 10**11)
    assert check_smooth(g1(), g1_spec(), cert, tol=1e-9) == (True, None)


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
    assert r.status == OPTIMAL and r.probes == 0
    assert type(r.value) is F and r.value == value
    assert r.lam / (1 - r.mu) == value
    rf = robust_poa(gf, g1_spec(SUM, exact=False))
    assert rf.value == pytest.approx(float(value), rel=1e-9)


def test_robust_poa_infimum_at_t_zero_is_the_trivial_bound():
    g = random_game(seeded(4), (F(1), F(1)), (X,), identity_matrix(2, True), exact=True)
    spec = g1_spec(MAX)
    r = robust_poa(g, spec)
    _, sf, dev = _tables(g, spec, 10 ** 6)
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
    _, sf, dev = _tables(g, spec, 10 ** 6)
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


def test_robust_poa_single_profile_certificate_is_checked():
    """Two unit-weight players on one resource of latency x: each pays 2.
    Under max, SF = 2 while the deviation sum of (sigma, sigma) is 4, so
    (1, 0) is no certificate; the value 1 is approached only as mu -> -inf.
    Under sum, SF = 4 and (1, 0) certifies the value."""
    m = CongestionModel((F(1), F(1)), ("a",), ((("a",),), (("a",),)))
    g = GeneralizedGame(m, (BasisFunction.monomial(1),), {"a": (F(1),)},
                        identity_matrix(2, True))
    assert check_smooth(g, g1_spec(MAX), SmoothnessCertificate(1, 0)) == (False, ((0, 0), (0, 0)))
    r = robust_poa(g, g1_spec(MAX))
    assert (r.status, r.value, r.lam, r.mu) == (OPTIMAL, 1, None, None)
    r = robust_poa(g, g1_spec(SUM))
    assert (r.status, r.value, r.lam, r.mu) == (OPTIMAL, 1, 1, 0)
    assert check_smooth(g, g1_spec(SUM), SmoothnessCertificate(r.lam, r.mu)) == (True, None)


def test_robust_poa_converges_quickly():
    g = g1(exact=False)
    start = time.perf_counter()
    r = robust_poa(g, g1_spec(SUM, exact=False))
    assert time.perf_counter() - start < 1.0
    assert r.probes == 0


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
        ccpoa = worst_cce(g, spec, 0).value / opt
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
        profiles, sf, dev = _tables(game, spec, PROFILE_CAP)
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
        _tables(g, spec, 3)


def test_robust_poa_witness_is_is_sum_bounded_witness():
    """robust_poa reads sum-boundedness off its pair tables' diagonal: its
    NOT_SMOOTHABLE profile is the one is_sum_bounded names, and a
    sum-bounded game gets no witness."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    unbounded = 0
    for seed in range(16):
        rng = seeded(seed)
        exact = seed % 2 == 0
        n = 2 if exact else 3
        one = F(1) if exact else 1.0
        weights = tuple(one * rng.choice((1, 2, 3)) / 2 for _ in range(n))
        game = random_game(rng, weights, basis, identity_matrix(n, exact), exact)
        three = tuple(tuple(3 * b for b in row) for row in identity_matrix(n, exact))
        lopsided = tuple(tuple(3 * one if (i, j) == (0, 0) else 0 * one for j in range(n))
                         for i in range(n))
        for spec in (SocialSpec(SUM, three), SocialSpec(MAX, three), SocialSpec(SUM, lopsided),
                     SocialSpec(SUM, identity_matrix(n, exact))):
            ok, witness = is_sum_bounded(game, spec)
            if ok and exact:
                continue  # the exact ratio LP is slow at no gain here
            r = robust_poa(game, spec)
            assert r.unbounded_witness == witness, (seed, spec)
            assert (r.status == NOT_SMOOTHABLE) == (not ok)
            unbounded += not ok
    assert unbounded >= 24


def test_exact_sum_bound_compares_with_zero():
    """A social value 10^-11 above the cost sum breaks sum-boundedness in
    exact arithmetic; a float excess that small stays within FEAS_TOL."""
    tiny = F(1, 10 ** 11)
    spec = SocialSpec(SUM, ((1 + tiny, F(0)), (F(0), F(1))))
    assert is_sum_bounded(g1(), spec) == (False, AA)
    r = robust_poa(g1(), spec)
    assert (r.status, r.unbounded_witness) == (NOT_SMOOTHABLE, AA)
    spec = SocialSpec(SUM, ((1 + float(tiny), 0.0), (0.0, 1.0)))
    assert is_sum_bounded(g1(exact=False), spec) == (True, None)


def _charnes_cooper(sf, dev):
    """Reference: the Charnes-Cooper program itself, as dict rows."""
    return dict_program(
        lp.MINIMIZE,
        ["lam", "mu", "t"],
        {"lam": 1},
        _pair_rows(sf, dev) + [({"t": 1, "mu": -1}, lp.EQ, 1, "unit")],
        bounds={0: lp.FREE, 1: lp.FREE},  # lam, mu
        name="smooth_probe_ratio",
    )


def _primal_value(sf, dev):
    """Reference: the Charnes-Cooper program, solved in rationals."""
    rep = lp.solve(_charnes_cooper(sf, dev), exact=True)
    assert rep.status == lp.OPTIMAL
    return rep.value


X2 = BasisFunction.monomial(2)


@pytest.mark.parametrize("seed, value", [
    (0, F(737483, 241895)),
    (1, F(331, 275)),
    (2, F(420173, 169785)),
])
def test_exact_robust_poa_on_eight_profiles_is_fast(seed, value):
    """Three players with two strategies each: the rational walk over the
    64 lines takes milliseconds, where the P^2-row program took 13-23 s."""
    g = random_game(seeded(seed), (F(1), F(3, 2), F(1)), (X, X2), identity_matrix(3, True),
                    exact=True)
    assert g.model.profile_count() == 8
    spec = SocialSpec(SUM, identity_matrix(3, True))
    start = time.perf_counter()
    r = robust_poa(g, spec)
    assert time.perf_counter() - start < 1.0
    assert r.status == OPTIMAL and r.value == value
    assert r.lam / (1 - r.mu) == value
    assert check_smooth(g, spec, SmoothnessCertificate(r.lam, r.mu)) == (True, None)


def test_exact_dual_value_equals_the_primal_value():
    """On exact games of at most 4 profiles, sum and max, robust_poa's
    value is the Charnes-Cooper primal's optimum, rational for rational."""
    compared = 0
    for seed in range(20):
        rng = seeded(seed)
        weights = tuple(F(rng.choice((1, 2, 3)), 2) for _ in range(2))
        g = random_game(rng, weights, (X, X2), identity_matrix(2, True), exact=True)
        assert g.model.profile_count() <= 4
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, random_matrix(rng, 2, 0, 1, exact=True))
            r = robust_poa(g, spec)
            if r.status != OPTIMAL:
                continue
            _, sf, dev = _tables(g, spec, PROFILE_CAP)
            want = _primal_value(sf, dev)
            assert type(r.value) is F and r.value == want, (seed, kind)
            if r.lam is not None:
                assert check_smooth(g, spec, SmoothnessCertificate(r.lam, r.mu)) == (True, None)
            compared += 1
    assert compared >= 24


def test_float_infimum_at_t_zero_is_the_trivial_bound():
    """The float twin of the t = 0 game: no certificate, value 22/15."""
    g = random_game(seeded(4), (1.0, 1.0), (X,), identity_matrix(2))
    r = robust_poa(g, g1_spec(MAX, exact=False))
    assert r.status == OPTIMAL and (r.lam, r.mu) == (None, None)
    assert r.value == pytest.approx(22 / 15, rel=VALUE_RTOL)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_robust_poa_solves_no_program(monkeypatch, exact):
    """The robust PoA is read off the line envelope: on seeded two- and
    three-player games, sum and max, and on g1, robust_poa makes no
    lp.solve or lp.solve_each call and reports 0 probes, and every
    certificate it returns passes check_smooth."""
    calls = []
    for name in ("solve", "solve_each"):
        monkeypatch.setattr(lp, name, lambda *args, name=name, **kwargs: calls.append(name))
    num = F if exact else float
    certified = 0
    cases = [(g1(exact=exact), g1_spec(SUM, exact))]
    for seed in range(12):
        weights = (num(1), num(1)) if seed % 2 else (num(1), num(3) / 2, num(1))
        g = random_game(seeded(seed), weights, (X,), identity_matrix(len(weights), exact),
                        exact=exact)
        kind = SUM if seed % 3 else MAX
        cases.append((g, SocialSpec(kind, identity_matrix(len(weights), exact))))
    for g, spec in cases:
        r = robust_poa(g, spec)
        assert r.status == OPTIMAL and r.probes == 0
        if r.lam is not None:
            assert check_smooth(g, spec, SmoothnessCertificate(r.lam, r.mu)) == (True, None)
            certified += 1
    assert not calls
    assert certified >= 8
    assert OPTIMAL == lp.OPTIMAL  # one status name across the package


def _drawn_as_147(seed, exact):
    """The seed's two-player game and its {kind: spec}, drawn as seed 147's:
    weights in {1/2, 1, 3/2}, latency x, identity alpha, then one beta for
    sum and one for max, a spec being left out where its beta is all 0."""
    one = F(1) if exact else 1.0
    rng = seeded(seed)
    weights = tuple(one * rng.choice((1, 2, 3)) / 2 for _ in range(2))
    game = random_game(rng, weights, (X,), identity_matrix(2, exact), exact)
    specs = {}
    for kind in (SUM, MAX):
        beta = random_matrix(rng, 2, 0, 1, exact)
        if any(any(row) for row in beta):
            specs[kind] = SocialSpec(kind, beta)
    return game, specs


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_t_zero_end_of_an_optimal_face_is_moved_to_a_certificate(exact):
    """Seed 147's max game: its optimal face runs from t = 0, where the LP
    reference's row duals land, to t = 16/13; the walk stops at that end,
    whose certificate, (13/5, 3/16) with bound 16/5, is returned."""
    g, specs = _drawn_as_147(147, exact)
    spec = specs[MAX]
    r = robust_poa(g, spec)
    assert r.status == OPTIMAL and r.lam is not None
    if exact:
        assert (r.value, r.lam, r.mu) == (F(16, 5), F(13, 5), F(3, 16))
    assert r.value == pytest.approx(3.2, rel=VALUE_RTOL)
    assert r.lam / (1 - r.mu) == pytest.approx(r.value, rel=VALUE_RTOL)
    assert check_smooth(g, spec, SmoothnessCertificate(r.lam, r.mu)) == (True, None)


# ============================================================
# the LP reference: robust_poa as it was solved before the envelope, one
# Charnes-Cooper program written as its 3-row dual
# ============================================================


def _ratio_dual(sf, dev, exact: bool) -> lp.LinearProgram:
    """The dual of the Charnes-Cooper program, written from the pair tables
    as one coefficient array.  Its rows lam, mu and t are the program's
    variables ("lam" and "mu" standing for lam*t and mu*t), its columns
    pair[a][b] and unit its rows: lam*SF(sigma_b) + mu*SF(sigma_a) -
    t*dev(sigma_a, sigma_b) >= 0 for every ordered pair and t - mu = 1.
    Those rows are this program's dual rows, so lp.dual_violations checks
    a certificate point against them."""
    sf = np.array(sf, dtype=object if exact else np.float64)
    pairs = len(sf) ** 2
    coefficients = np.zeros((4, pairs + 1), dtype=sf.dtype)
    coefficients[:3, :pairs] = [np.tile(sf, len(sf)), np.repeat(sf, len(sf)),
                                -np.array(dev, dtype=sf.dtype).ravel()]
    coefficients[:, pairs] = (0, -1, 1, 1)  # unit's column: t - mu = 1; maximize unit
    labels = [f"pair[{a}][{b}]" for a in range(len(sf)) for b in range(len(sf))]
    rows = [lp.Row(lp.EQ, 1, "lam"), lp.Row(lp.EQ, 0, "mu"), lp.Row(lp.LE, 0, "t")]
    return lp.LinearProgram(lp.MAXIMIZE, labels + ["unit"], rows, coefficients,
                            bounds={pairs: lp.FREE}, name="smooth_probe_dual")


def _certificate_point(dual: lp.LinearProgram, exact: bool) -> Optional[tuple]:
    """The Charnes-Cooper program's optimal point (lam, mu, t): the row
    duals of its 3-row dual, or None when that dual is not OPTIMAL.
    lp.solve reads them at its final basis and checks them, exactly in
    exact mode: the Charnes-Cooper rows are the dual's dual rows, t >= 0
    is the sign of t's row dual, and lam = b'y is the dual's optimum."""
    rep = lp.solve(dual, exact)
    return rep.duals if rep.status == lp.OPTIMAL else None


def _lp_robust_poa(table) -> RobustPoA:
    """Reference: robust_poa on a cost table, as one LP solved as its
    3-row dual, the t = 0 end of an optimal face moved to its other end."""
    sf = table.social_values
    a = _unbounded_row(table)
    if a is not None:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, table.profile(a), 0)
    dev = _deviation_sums(table)
    one = sf[0] / sf[0] if sf and sf[0] else 1
    if len(sf) == 1:
        # only the pair (sigma, sigma) exists and the value is 1: lam=1, mu=0
        # certifies it when dev(sigma, sigma) <= SF(sigma), as under the sum of
        # the players' own costs; otherwise mu -> -inf only approaches it
        if dev.item(0) <= sf[0] + table.tol:
            return RobustPoA(OPTIMAL, one, one, 0 * one, None, 0)
        return RobustPoA(OPTIMAL, one, None, None, None, 0)
    if not table.exact:
        # pair rows are homogeneous in the table scale, so dividing both
        # tables by a common factor leaves the feasible set untouched while
        # keeping the LP's data near unit scale
        big = float(max(max(sf), abs(dev).max(), 1.0))
        sf = [v / big for v in sf]
        dev = dev / big
    # Charnes-Cooper: lam*t and mu*t with t = 1/(1-mu), so the ratio is the
    # objective and mu < 1 is t > 0
    x = _certificate_point(_ratio_dual(sf, dev, table.exact), table.exact)
    if x is None:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, None, 1)
    lam, mu, t = x if table.exact else map(float, x)
    if t <= table.tol:
        # the row duals may pick the t = 0 end of an optimal face: hold lam*t at
        # the optimum and mu*t at t - 1 (the unit row), and take the largest t
        # each pair row lam*sf_b - sf_a >= t*(dev_ab - sf_a) allows (one when none bounds it)
        pairs = dev.tolist()
        t = min(((lam * sf_b - sf_a) / (pairs[a][b] - sf_a) for a, sf_a in enumerate(sf)
                 for b, sf_b in enumerate(sf) if pairs[a][b] > sf_a), default=one)
        mu = t - 1
    if t <= table.tol:  # a float t near 0 would scale its rounding by 1/t
        return RobustPoA(OPTIMAL, lam, None, None, None, 1)
    return RobustPoA(OPTIMAL, lam, lam / t, mu / t, None, 1)


def _same_but_name(a, b):
    """Whether two programs agree in everything but their names."""
    return same_program(a, replace(b, name=a.name))


def test_ratio_dual_is_the_dual_of_the_charnes_cooper_program():
    """lp.dualize of the LP reference's 3-row dual, written from the pair
    tables, is the Charnes-Cooper program, and dualizing twice gives the
    3-row dual back: on seeded two-player games, float and exact, sum and
    max, and on seed 147's max game, whose row duals land at t = 0."""
    cases = []
    for seed in (147, *range(12)):
        for exact in (False, True):
            g, specs = _drawn_as_147(seed, exact)
            cases += [(g, spec, exact) for spec in specs.values()]
    for g, spec, exact in cases:
        _, sf, dev = _tables(g, spec, PROFILE_CAP)
        dual = _ratio_dual(sf, dev, exact)
        assert _same_but_name(lp.dualize(dual), _charnes_cooper(sf, dev))
        assert _same_but_name(lp.dualize(lp.dualize(dual)), dual)
    assert len(cases) >= 40


def _reference_cases(exact):
    """(label, game, spec): test_cost_table's corpus, test_oracle's
    _seeded_games(12) (an all-zero beta read as the identity) and seeds
    0-299 drawn as seed 147's, under sum and max."""
    for label, game, specs in corpus(exact):
        yield from ((label, game, spec) for spec in specs)
    for seed, game, beta in _seeded_games(12, exact):
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(game.n, exact)
        yield from ((f"seeded{seed}", game, SocialSpec(kind, beta)) for kind in (SUM, MAX))
    for seed in range(300):
        game, specs = _drawn_as_147(seed, exact)
        yield from ((f"seed{seed}", game, spec) for spec in specs.values())


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_envelope_matches_the_lp_reference(exact):
    """robust_poa against the LP reference on _reference_cases: the same
    status, witness and lam-None-ness.  An exact value is the reference's,
    and so is (lam, mu), except on a flat optimal face, where the
    reference's certificate bounds the same value and the envelope's
    t = 1/(1-mu) is the larger.  A float value is within 1e-12 of the
    reference's, relative, and value, lam and mu are Python floats.  Every
    certificate passes check_smooth at its default tol."""
    compared, flat = 0, []
    for label, game, spec in _reference_cases(exact):
        table = _cost_table(game, PROFILE_CAP, "test", spec)
        got, want = robust_poa(game, spec), _lp_robust_poa(table)
        key = (label, spec.kind)
        assert (got.status, got.unbounded_witness) == (want.status, want.unbounded_witness), key
        if got.status != OPTIMAL:
            continue
        compared += 1
        assert (got.lam is None) == (want.lam is None), key
        if exact:
            assert got.value == want.value, key
            if (got.lam, got.mu) != (want.lam, want.mu):
                assert want.lam / (1 - want.mu) == got.value, key
                assert 1 / (1 - got.mu) > 1 / (1 - want.mu), key
                flat.append(key)
        else:
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=0), key
            assert {type(x) for x in (got.value, got.lam, got.mu) if x is not None} == {float}
        if got.lam is not None:
            assert check_smooth(game, spec, SmoothnessCertificate(got.lam, got.mu)) == (True, None)
    assert compared >= 450
    assert flat == ([("seed73", MAX), ("seed238", MAX)] if exact else [])


def test_a_flat_face_is_left_at_its_right_end():
    """Seed 238's max game, drawn as seed 147's: value 12/5 on a flat piece
    of the envelope.  The walk stops at its right end, t = 3/7, with
    (lam, mu) = (28/5, -4/3); the LP reference's row duals give t = 6/25,
    with (10, -19/6).  Both certificates bound 12/5 and pass check_smooth."""
    game, specs = _drawn_as_147(238, True)
    spec = specs[MAX]
    r = robust_poa(game, spec)
    assert (r.status, r.value, r.lam, r.mu) == (OPTIMAL, F(12, 5), F(28, 5), F(-4, 3))
    table = _cost_table(game, PROFILE_CAP, "test", spec)
    ref = _lp_robust_poa(table)
    assert (ref.value, ref.lam, ref.mu) == (F(12, 5), 10, F(-19, 6))
    for cert in (SmoothnessCertificate(r.lam, r.mu), SmoothnessCertificate(ref.lam, ref.mu)):
        assert cert.bound == F(12, 5)
        assert check_smooth(game, spec, cert) == (True, None)


@pytest.mark.parametrize("num", [float, F], ids=["float", "exact"])
def test_a_last_piece_flat_from_beyond_t_one_keeps_its_start(num):
    """Hand pair tables with SF = (4, 1): the line of pair (0, 1), 4 - t,
    meets the flat lines of the diagonal pairs at t = 3, and the envelope
    is flat from there to infinity.  t = 1 is not optimal, so the walk
    keeps t = 3: (lam, mu) = (1/3, 2/3), bound 1, the Charnes-Cooper
    program's optimum, and every pair row holds."""
    sf = [num(4), num(1)]
    dev = [[num(4), num(3)], [num(1), num(1)]]
    r = _envelope_minimum(sf, np.array(dev, dtype=object if num is F else np.float64),
                          0 if num is F else FEAS_TOL)
    assert r.status == OPTIMAL
    assert (r.value, r.lam, r.mu) == pytest.approx((1, F(1, 3), F(2, 3)), rel=1e-15)
    assert r.value == _primal_value([F(v) for v in sf], [[F(v) for v in row] for row in dev])
    assert all(dev[a][b] <= r.lam * sf[b] + r.mu * sf[a] + 1e-15
               for a in range(2) for b in range(2))
    if num is F:
        assert (r.lam, r.mu) == (F(1, 3), F(2, 3))


@pytest.mark.parametrize("num", [float, F], ids=["float", "exact"])
def test_a_game_of_zero_costs_draws_no_line(num):
    """Two players on a or b, both of coefficient 0: every profile has
    social value 0, so no pair row bounds the value and the program has
    no optimum: NOT_SMOOTHABLE with no profile to show, as the LP
    reference answers."""
    model = CongestionModel((num(1), num(1)), ("a", "b"), ((("a",), ("b",)),) * 2)
    game = GeneralizedGame(model, (X,), {"a": (num(0),), "b": (num(0),)}, identity_matrix(2))
    spec = SocialSpec(SUM, identity_matrix(2))
    assert robust_poa(game, spec) == RobustPoA(NOT_SMOOTHABLE, None, None, None, None, 0)
    table = _cost_table(game, PROFILE_CAP, "test", spec)
    ref = _lp_robust_poa(table)
    assert (ref.status, ref.unbounded_witness) == (NOT_SMOOTHABLE, None)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_validation_reads_its_social_values_once(monkeypatch, exact):
    """validate_smoothness_claims computes its cost table's social values
    once, and the robust PoA, the pure PoA and the worst coarse value read
    them: one social value per profile, from one computation of the
    table's social_values, under sum and max."""
    from poacert import oracle

    calls = []
    original = oracle._CostTable.social_values.func

    def counted(table):
        values = original(table)
        calls.extend(values)
        return values

    counted = cached_property(counted)
    counted.__set_name__(oracle._CostTable, "social_values")
    monkeypatch.setattr(oracle._CostTable, "social_values", counted)
    num = F if exact else float
    for seed in range(6):
        weights = (num(1), num(1)) if seed % 2 else (num(1), num(3) / 2, num(1))
        g = random_game(seeded(seed), weights, (X,), identity_matrix(len(weights), exact),
                        exact=exact)
        for kind in (SUM, MAX):
            calls.clear()
            validate_smoothness_claims(g, SocialSpec(kind, identity_matrix(len(weights), exact)))
            assert len(calls) == g.model.profile_count(), (seed, kind)


@pytest.mark.parametrize("num", [float, F], ids=["float", "exact"])
def test_a_zero_optimum_leaves_the_ratio_program_without_an_optimum(num):
    """Two players of weight 1, each on a or b; a has coefficient 1 on the
    lookup basis {1: 0, 2: 1} and b coefficient 0; identity alpha and
    beta, sum.  Only (a, a) costs anything, yet from (b, a) towards
    (a, b) player 0's move onto a costs 1 where both profiles have social
    value 0, which no (lam, mu) bounds: the game is sum-bounded, yet no t
    is allowed (t <= 0 for this pair, t >= 2 for ((a, a), (a, b))), so
    robust_poa answers NOT_SMOOTHABLE with no profile to show, as the LP
    reference does.
    The two answers that divide by the optimum, 0, refuse it."""
    model = CongestionModel((num(1), num(1)), ("a", "b"), ((("a",), ("b",)),) * 2)
    basis = (BasisFunction.lookup({1: 0, 2: 1}),)
    game = GeneralizedGame(model, basis, {"a": (num(1),), "b": (num(0),)}, identity_matrix(2))
    spec = SocialSpec(SUM, identity_matrix(2))
    assert is_sum_bounded(game, spec) == (True, None)
    assert robust_poa(game, spec) == RobustPoA(NOT_SMOOTHABLE, None, None, None, None, 0)
    table = _cost_table(game, PROFILE_CAP, "test", spec)
    ref = _lp_robust_poa(table)
    assert (ref.status, ref.unbounded_witness) == (NOT_SMOOTHABLE, None)
    for answer in (cce_poa, validate_smoothness_claims):
        with pytest.raises(GameError, match="social optimum is 0"):
            answer(game, spec)


def test_a_float_game_past_the_float_range_answers_or_overflows_without_a_warning(
        capsys, tmp_path):
    """Two players of weight 1 on {a} or {b}, latency 1e308 x on a and
    1e307 x on b: at (a, a) each player's cost, 2e308, is past the largest
    float.  Every public oracle and smoothness answer runs with no numpy
    warning.  Those that read only finite rows answer; the robust PoA and
    check_smooth, whose pair tables hold inf, raise OverflowError (at the
    float image of (59/29, -1/29), the exact optimum's certificate), as
    worst_cce's LP does on its inf rows.  The smoothness command exits 2
    with the --exact hint, and with --exact answers robust PoA 59/30.
    With latencies 1e300 x on a and 1e-10 x on b every cost is finite, but
    the social values part by more than the float range: the oracles
    answer, and the robust PoA, whose envelope's intercept SF_a / SF_b
    overflows, raises OverflowError and the command exits 2 with the
    hint, all without a warning."""
    model = CongestionModel((1.0, 1.0), ("a", "b"), [[frozenset("a"), frozenset("b")]] * 2)
    game = GeneralizedGame(model, (X,), {"a": (1e308,), "b": (1e307,)}, identity_matrix(2))
    spec, max_spec = SocialSpec(SUM, identity_matrix(2)), SocialSpec(MAX, identity_matrix(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(social_optimum(game, spec)) == "((1, 1), 4e+307)"
        assert repr(social_optimum(game, max_spec)) == "((1, 1), 2e+307)"
        for predicate in (EQ1, VERBATIM):
            assert enumerate_eps_pne(game, 0, predicate) == [(1, 1)]
            assert ppoa_report(game, spec, 0, predicate) == PPoAReport(1.0, 4e307, (1, 1), 1,
                                                                      [(1, 1)])
            assert repr(exact_ppoa(game, spec, 0, predicate)) == "1.0"
        assert is_sum_bounded(game, spec) == (True, None)
        overflows = [lambda: worst_cce(game, spec), lambda: worst_cce(game, spec, 0, EQ1),
                     lambda: worst_cce(game, max_spec), lambda: cce_poa(game, spec),
                     lambda: robust_poa(game, spec),
                     lambda: check_smooth(game, spec, SmoothnessCertificate(59 / 29, -1 / 29)),
                     lambda: validate_smoothness_claims(game, spec)]
        for answer in overflows:
            with pytest.raises(OverflowError):
                answer()
    path = tmp_path / "game.json"
    path.write_text(json.dumps({
        "weights": [1, 1], "resources": ["a", "b"], "strategies": [[["a"], ["b"]]] * 2,
        "basis": [{"kind": "monomial", "degree": 1}],
        "coefficients": {"a": [1e308], "b": [1e307]}, "alpha": [[1, 0], [0, 1]]}))
    assert main(["smoothness", "--game", str(path)]) == EXIT_VALIDATION
    assert "use --exact" in capsys.readouterr().err
    assert main(["smoothness", "--game", str(path), "--exact"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["robust_poa"], doc["lambda"], doc["mu"]) == ("59/30", "59/29", "-1/29")
    far = GeneralizedGame(model, (X,), {"a": (1e300,), "b": (1e-10,)}, identity_matrix(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(social_optimum(far, spec)) == "((1, 1), 4e-10)"
        assert ppoa_report(far, spec) == PPoAReport(1.0, 4e-10, (1, 1), 1, [(1, 1)])
        assert repr(worst_cce(far, spec).value) == "4e-10"
        assert is_sum_bounded(far, spec) == (True, None)
        for answer in (robust_poa, validate_smoothness_claims):
            with pytest.raises(OverflowError):
                answer(far, spec)
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "coefficients": {"a": [1e300], "b": [1e-10]}}))
        assert main(["smoothness", "--game", str(path)]) == EXIT_VALIDATION
    assert "use --exact" in capsys.readouterr().err
