"""Worst-case programs: anchors, the hand dual fixture, witness, extraction.

The two frozen optima (2 for two players, 5/2 for three) are confirmed here
by an independent row enumerator that never touches the production
builders: for unit weights, identity alpha/beta, latency x and a sum
objective, the certificate row of pair (P, Q) collapses to

    sum_{i in P\\Q} y_i |P|  -  sum_{i in Q\\P} y_i (|P|+1)  +  gamma |Q|^2
        >=  |P|^2

(abandon side: latency |P| times own weight; join side: latency |P|+1 at
the increased load; right side / gamma side: the social values |P|^2 and
|Q|^2).  Everything else about the programs is tested structurally.
"""

import itertools
from fractions import Fraction as F

import pytest

from conftest import AA, AB, closed_form_dual, g1, seeded
from poacert import linprog as lp
from poacert.games import (
    MAX,
    SUM,
    EQ1,
    BasisFunction,
    GameError,
    ProfileDistribution,
    SocialSpec,
    identity_matrix,
    is_eps_pne,
    social_value,
)
from poacert.formulations import (
    INFINITE,
    OPTIMAL,
    WorstCaseConfig,
    build_dp_cce,
    build_dp_pne,
    build_pp_cce,
    build_pp_pne,
    extract_worst_game,
    lemma1_witness,
    normalize_game,
    solve_worst_case,
    verify_extension,
    vname,
)
from poacert.oracle import exact_ppoa, social_optimum
from poacert.representative import build_representative, map_profile_pair


def unit_cfg(n=2, kind=SUM, eps=F(0), basis=None, alpha=None, beta=None):
    alpha = alpha if alpha is not None else identity_matrix(n, True)
    beta = beta if beta is not None else identity_matrix(n, True)
    return WorstCaseConfig(
        (F(1),) * n,
        alpha,
        SocialSpec(kind, beta),
        eps,
        basis or (BasisFunction.monomial(1),),
    )


def objective_at(program, values):
    return sum(c * values.get(v, 0) for v, c in program.objective.items())


# ============================================================
# configuration validation
# ============================================================


def test_config_rejects_bad_shapes():
    with pytest.raises(GameError):
        unit_cfg(alpha=((F(1),),))  # 1x2 alpha
    with pytest.raises(GameError):
        unit_cfg(eps=F(-1, 2))
    with pytest.raises(GameError):
        WorstCaseConfig((F(1), F(1)), identity_matrix(2, True),
                        SocialSpec(SUM, identity_matrix(3, True)), F(0),
                        (BasisFunction.monomial(1),))
    with pytest.raises(GameError):
        WorstCaseConfig((F(1), F(1)), identity_matrix(2, True),
                        SocialSpec(SUM, identity_matrix(2, True)), F(0), ())


def test_designated_player_bookkeeping():
    cfg = unit_cfg(kind=SUM)
    rep = build_representative(cfg.weights)
    with pytest.raises(GameError):
        build_pp_pne(cfg, rep, designated=0)  # sum takes no designee
    cfg = unit_cfg(kind=MAX)
    with pytest.raises(GameError):
        build_pp_pne(cfg, rep)  # max requires one
    with pytest.raises(GameError):
        build_dp_pne(cfg, rep, designated=5)


# ============================================================
# program shapes
# ============================================================


def test_pp_cce_counts_on_tiny_model():
    # 2 resources x 1 basis function -> 2 variables; 2 players + norm -> 3 rows
    cfg = unit_cfg()
    g = g1()
    dist = ProfileDistribution.uniform(list(g.model.profiles()))
    program = build_pp_cce(cfg, g.model, dist, AB)
    assert len(program.variables) == 2
    assert len(program.rows) == 3
    assert sorted(program.variables) == [vname("a", 0), vname("b", 0)]


def test_dp_row_per_resource_and_basis():
    cfg = unit_cfg(basis=(BasisFunction.monomial(1), BasisFunction.indicator()))
    rep = build_representative(cfg.weights)
    program = build_dp_pne(cfg, rep)
    assert len(program.rows) == 16 * 2
    assert program.variables == ("y[0]", "y[1]", "gamma")


def test_dp_max_frees_designated_z():
    cfg = unit_cfg(kind=MAX)
    rep = build_representative(cfg.weights)
    program = build_dp_pne(cfg, rep, designated=1)
    assert program.bound("z[1]") == lp.FREE
    assert program.bound("z[0]") == (0, None)
    assert program.rows[-1].label == "zsum"


# ============================================================
# frozen anchors, confirmed by the independent enumerator
# ============================================================


def test_hand_dual_n2_has_value_two():
    program = closed_form_dual(2)
    assert len(program.rows) == 16
    r = lp.solve(program, exact=True)
    assert r.status == lp.OPTIMAL
    assert r.value == F(2)
    # the certificate itself: uniform unit multipliers
    assert r.primal["y[0]"] == F(1)
    assert r.primal["y[1]"] == F(1)


@pytest.mark.parametrize("n", [2, 3])
def test_production_dual_rows_match_hand_rows(n):
    """Row-by-row agreement between build_dp_pne and the enumerator, keyed
    by (P, Q) masks."""
    cfg = unit_cfg(n=n)
    rep = build_representative(cfg.weights)
    program = build_dp_pne(cfg, rep)
    by_label = {row.label: row for row in program.rows}
    for pq in itertools.product([0, 1], repeat=2 * n):
        p = tuple(i for i in range(n) if pq[i])
        q = tuple(i for i in range(n) if pq[n + i])
        eid = rep.resource_for(p, q)
        row = by_label[f"r[{vname(eid, 0)}]"]
        want = {}
        for i in set(p) - set(q):
            want[f"y[{i}]"] = F(len(p))
        for i in set(q) - set(p):
            want[f"y[{i}]"] = -F(len(p) + 1)
        if q:
            want["gamma"] = F(len(q) ** 2)
        got = {v: c for v, c in row.coeffs.items() if c != 0}
        assert got == want, (p, q)
        assert row.rhs == F(len(p) ** 2)
        assert row.relation == lp.GE


def assert_certifies(cfg, r):
    """r.dual_solution is exactly feasible for the dual program of the
    winning designee, with objective gamma*: weak duality proves gamma*."""
    program = build_dp_pne(cfg, r.rep, r.designated)
    ok, label, violation = lp.feasibility_report(program, r.dual_solution, 0)
    assert ok, f"certificate violates {label} by {violation}"
    assert objective_at(program, r.dual_solution) == r.gamma_star


def test_anchor_two_players():
    r = solve_worst_case(unit_cfg(), exact=True)
    assert r.status == OPTIMAL
    assert r.gamma_star == F(2)
    assert r.dual_solution["y[0]"] == F(1)
    assert r.dual_solution["gamma"] == F(2)
    assert_certifies(unit_cfg(), r)


def test_anchor_three_players():
    independent = lp.solve(closed_form_dual(3), exact=True)
    assert independent.status == lp.OPTIMAL
    assert independent.value == F(5, 2)
    r = solve_worst_case(unit_cfg(n=3), exact=True)
    assert r.status == OPTIMAL
    assert r.gamma_star == independent.value


def test_anchor_max_objective():
    r = solve_worst_case(unit_cfg(kind=MAX), exact=True)
    assert r.status == OPTIMAL
    assert r.gamma_star == F(2)
    assert {v.designated for v in r.variants} == {0, 1}
    assert_certifies(unit_cfg(kind=MAX), r)


def test_anchor_eps_one():
    r = solve_worst_case(unit_cfg(eps=F(1)), exact=True)
    assert r.gamma_star == F(4)


def test_alpha_zero_is_infinite():
    zero = ((F(0), F(0)), (F(0), F(0)))
    r = solve_worst_case(unit_cfg(alpha=zero), exact=True)
    assert r.status == INFINITE
    assert r.gamma_star is None


def fair_cost_table(n, exact=True):
    """Fair cost sharing, f(x) = 1/x, tabulated over exactly the loads
    1..n of n unit-weight players: a decreasing latency."""
    num = F if exact else float
    return BasisFunction.lookup({num(x): num(F(1, x)) for x in range(1, n + 1)})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [SUM, MAX])
def test_anchor_fair_cost_sharing(n, kind):
    # the price of anarchy n of fair cost sharing; a builder that looked
    # f up at w(P) + w_i for i in P would need the uncovered load n + 1
    cfg = unit_cfg(n=n, kind=kind, basis=(fair_cost_table(n),))
    r = solve_worst_case(cfg, exact=True)
    assert r.status == OPTIMAL
    assert r.gamma_star == n
    assert_certifies(cfg, r)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [SUM, MAX])
def test_fair_cost_sharing_witness(n, kind):
    # the table covers exactly 1..n, every load a deviation can produce
    cfg = unit_cfg(n=n, kind=kind, basis=(fair_cost_table(n),))
    r = solve_worst_case(cfg, exact=True)
    game = extract_worst_game(cfg, r.rep, r.primal_solution, r.designated)
    assert is_eps_pne(game, r.rep.sigma_star, cfg.epsilon, EQ1)
    assert social_value(cfg.spec, game, r.rep.sigma_star) == r.gamma_star == n
    assert social_value(cfg.spec, game, r.rep.o_star) == 1


def mixed_cell(exact):
    """A three-player max cell (class-ladder seed 2019) whose designees 0
    and 1 are unbounded while designee 2 is certified at exactly 1; the
    float simplex once reported its dual program OPTIMAL at 1.2468 at an
    infeasible point."""
    num = F if exact else float

    def matrix(rows):
        return [[num(F(x)) for x in row] for row in rows]

    return WorstCaseConfig(
        [num(F(x)) for x in ("3/4", "7/4", "1/2")],
        matrix([["3/4", "-1/4", "-3/4"], ["-1/2", "1", "-1/4"], ["0", "1/4", "-3/4"]]),
        SocialSpec(MAX, matrix([["1/4", "1/4", "3/4"], ["1/2", "1/4", "3/4"],
                                ["1/4", "1/4", "1/2"]])),
        num(0),
        (BasisFunction.monomial(1), BasisFunction.monomial(2), BasisFunction.indicator()),
    )


@pytest.mark.parametrize("exact", [False, True])
def test_mixed_cell_is_infinite(exact):
    cfg = mixed_cell(exact)
    r = solve_worst_case(cfg, exact=exact)
    assert r.status == INFINITE
    assert [v.status for v in r.variants] == [INFINITE, INFINITE, OPTIMAL]
    certified = r.variant(2)
    program = build_dp_pne(cfg, r.rep, 2)
    ok, label, violation = lp.feasibility_report(
        program, certified.dual, 0 if exact else 1e-9)
    assert ok, f"certificate violates {label} by {violation}"
    if exact:
        assert certified.pp_value == certified.dp_value == 1
    else:
        assert certified.pp_value == pytest.approx(1, rel=1e-9)


def test_float_dual_of_mixed_cell_is_never_a_false_optimum():
    # an exact solve of this program takes minutes, so the float kernel is
    # called without lp.solve's rational retry; only its verdict is
    # checked: an error, or a point that really is feasible
    cfg = mixed_cell(False)
    program = build_dp_pne(cfg, build_representative(cfg.weights), 2)
    try:
        res = lp._simplex(program, exact=False)
    except lp.SolverError:
        return
    assert res.status == lp.OPTIMAL
    ok, label, violation = lp.feasibility_report(program, res.primal)
    assert ok, f"OPTIMAL point violates {label} by {violation}"


def test_float_and_exact_agree_on_anchor():
    rf = solve_worst_case(unit_cfg(n=3))
    assert rf.status == OPTIMAL
    assert rf.gamma_star == pytest.approx(2.5, rel=1e-9)


# ============================================================
# the closed-form representative primal
# ============================================================


def equality_cases():
    """Seeded configurations for the closed-form builder: n = 2..5, exact
    at n <= 4 and float throughout, sum and max, bases {x}, {x, x^3,
    1[x>0]} and the tight fair-cost table, alpha with negative and zero
    entries, beta with zeros, eps in {0, 1/2}.  Float entries are not
    dyadic, so products and sums round, and a change in the order of
    operations shows."""
    cube = (BasisFunction.monomial(1), BasisFunction.monomial(3), BasisFunction.indicator())
    k = 0
    for n in (2, 3, 4, 5):
        for exact in (True, False) if n <= 4 else (False,):
            num = F if exact else float
            for basis in ("x", "cube", "table"):
                for kind in (SUM, MAX):
                    rng = seeded(1000 + k)
                    k += 1

                    def entry(lo, hi):
                        if rng.random() < 0.25:
                            return num(0)
                        return num(F(rng.randrange(lo * 7, hi * 7 + 1), 7))

                    if basis == "table":
                        weights = [num(1)] * n
                        fs = (fair_cost_table(n, exact),)
                    else:
                        weights = [num(F(rng.randrange(1, 15), 7)) for _ in range(n)]
                        fs = (BasisFunction.monomial(1),) if basis == "x" else cube
                    alpha = [[entry(-1, 1) for _ in range(n)] for _ in range(n)]
                    beta = [[entry(0, 1) for _ in range(n)] for _ in range(n)]
                    beta[0][0] = num(1)  # not all zero
                    cfg = WorstCaseConfig(
                        weights, alpha, SocialSpec(kind, beta), num(F(k % 2, 2)), fs)
                    arithmetic = "exact" if exact else "float"
                    yield pytest.param(cfg, id=f"n{n}-{arithmetic}-{basis}-{kind}")


@pytest.mark.parametrize("cfg", list(equality_cases()))
def test_closed_form_primal_equals_profile_enumeration(cfg):
    """build_pp_pne, written from the (P, Q)-mask formula, is the coarse
    program build_pp_cce enumerates at the point mass on sigma*, value for
    value, for every designee."""
    rep = build_representative(cfg.weights)
    sigma = ProfileDistribution.point(rep.sigma_star)
    for d in [None] if cfg.spec.kind == SUM else range(cfg.n):
        closed = build_pp_pne(cfg, rep, d)
        assert closed == build_pp_cce(cfg, rep.model, sigma, rep.o_star, d)
        assert any(row.coeffs for row in closed.rows)


# ============================================================
# unit witness
# ============================================================


def witness_cases():
    rng = seeded(41)
    yield unit_cfg()
    yield unit_cfg(kind=MAX)
    yield unit_cfg(n=3, eps=F(1, 2))
    yield unit_cfg(basis=(BasisFunction.indicator(), BasisFunction.monomial(2)))
    # negative diagonal + positive eps exercises the repair branch
    yield unit_cfg(
        eps=F(1, 2),
        alpha=((F(-1), F(1, 2)), (F(0), F(1))),
    )
    alpha = tuple(tuple(F(rng.randrange(-4, 5), 4) for _ in range(2)) for _ in range(2))
    beta = tuple(tuple(F(rng.randrange(0, 5), 4) for _ in range(2)) for _ in range(2))
    if all(all(b == 0 for b in row) for row in beta):
        beta = identity_matrix(2, True)
    yield unit_cfg(kind=MAX, alpha=alpha, beta=beta)


@pytest.mark.parametrize("cfg", list(witness_cases()))
def test_witness_feasible_with_objective_one(cfg):
    rep = build_representative(cfg.weights)
    w = lemma1_witness(cfg, rep)
    program = build_pp_pne(cfg, rep, w.designated)
    ok, label, violation = lp.feasibility_report(program, w.values)
    assert ok, f"witness violates {label} by {violation}"
    assert objective_at(program, w.values) == F(1)


def test_witness_mass_sits_on_singletons():
    cfg = unit_cfg()
    rep = build_representative(cfg.weights)
    w = lemma1_witness(cfg, rep)
    allowed = set()
    for j in range(2):
        allowed.add(vname(rep.resource_for((j,), ()), 0))
        allowed.add(vname(rep.resource_for((), (j,)), 0))
    assert set(v for v, c in w.values.items() if c != 0) <= allowed


def test_witness_needs_a_basis_function_positive_at_weights():
    cfg = unit_cfg(basis=(BasisFunction.lookup({3: 1}),))
    rep = build_representative(cfg.weights)
    with pytest.raises(GameError):
        lemma1_witness(cfg, rep)


# ============================================================
# extraction and normalization
# ============================================================


def test_extraction_postconditions():
    cfg = unit_cfg()
    r = solve_worst_case(cfg)
    game = extract_worst_game(cfg, r.rep, r.primal_solution)
    assert is_eps_pne(game, r.rep.sigma_star, 0, EQ1)
    eq_value = social_value(cfg.spec, game, r.rep.sigma_star)
    assert eq_value == pytest.approx(r.gamma_star, rel=1e-6)
    o_value = social_value(cfg.spec, game, r.rep.o_star)
    assert o_value <= 1 + 1e-9
    # the oracle agrees the witness is as bad as claimed
    assert exact_ppoa(game, cfg.spec, 0) >= r.gamma_star - 1e-6


def test_extraction_rejects_infeasible_point():
    cfg = unit_cfg()
    r = solve_worst_case(cfg)
    bad = dict(r.primal_solution)
    first = sorted(bad)[0]
    bad[first] = bad.get(first, 0) + 1
    with pytest.raises(GameError):
        extract_worst_game(cfg, r.rep, bad)


def test_extraction_clamps_solver_dust():
    cfg = unit_cfg()
    r = solve_worst_case(cfg)
    noisy = dict(r.primal_solution)
    spare = vname(r.rep.resource_for((), ()), 0)
    noisy[spare] = -1e-12
    game = extract_worst_game(cfg, r.rep, noisy)
    assert game.coefficients[r.rep.resource_for((), ())][0] == 0


def test_normalize_game_scales_to_unit_optimum():
    g = g1()
    spec = SocialSpec(SUM, identity_matrix(2, True))
    scaled, before = normalize_game(g, spec)
    assert before == F(2)
    assert scaled.coefficients["a"] == (F(1, 2),)
    _, after = social_optimum(scaled, spec)
    assert after == F(1)
    # max objective: optimum already 1, nothing moves
    spec = SocialSpec(MAX, identity_matrix(2, True))
    scaled, before = normalize_game(g, spec)
    assert before == F(1)
    assert scaled.coefficients == g.coefficients


def test_normalize_rejects_zero_optimum():
    # all-zero latencies make the optimum 0
    zero = g1().scaled(F(0))
    spec = SocialSpec(SUM, identity_matrix(2, True))
    with pytest.raises(GameError):
        normalize_game(zero, spec)


# ============================================================
# duality and the extension property
# ============================================================


def test_dualize_agreement_on_anchor():
    cfg = unit_cfg()
    rep = build_representative(cfg.weights)
    primal = build_pp_pne(cfg, rep)
    direct = lp.solve(build_dp_pne(cfg, rep), exact=True)
    mechanical = lp.solve(lp.dualize(primal), exact=True)
    assert direct.value == mechanical.value == F(2)


def test_dp_cce_rows_are_profile_mixtures_of_dp_pne_rows():
    """Coarse certificate rows are convex combinations of pure ones, taken
    along the profile-pair embedding.  This is the structural fact that
    makes one certificate cover every distribution."""
    cfg = unit_cfg()
    rep = build_representative(cfg.weights)
    g = g1()
    profiles = list(g.model.profiles())
    dist = ProfileDistribution({profiles[0]: F(1, 2), profiles[1]: F(1, 4),
                                profiles[3]: F(1, 4)})
    o_prof = AB
    pne_rows = {row.label: row for row in build_dp_pne(cfg, rep).rows}
    cce = build_dp_cce(cfg, g.model, dist, o_prof)
    for row in cce.rows:
        e = row.label[len("r[v["):].split("]")[0]
        mixed: dict = {}
        mixed_rhs = F(0)
        for sigma, mass in dist.masses.items():
            rid = map_profile_pair(rep, g.model, sigma, o_prof)[e]
            ref = pne_rows[f"r[{vname(rid, 0)}]"]
            for v, c in ref.coeffs.items():
                mixed[v] = mixed.get(v, F(0)) + mass * c
            mixed_rhs += mass * ref.rhs
        got = {v: c for v, c in row.coeffs.items() if c != 0}
        want = {v: c for v, c in mixed.items() if c != 0}
        assert got == want, row.label
        assert row.rhs == mixed_rhs


def test_verify_extension_accepts_anchor_certificate():
    cfg = unit_cfg()
    cert = {"y[0]": F(1), "y[1]": F(1), "gamma": F(2)}
    g = g1()
    profiles = list(g.model.profiles())
    rng = seeded(5)
    for o_prof in profiles:
        report = verify_extension(
            cfg, cert, g.model, ProfileDistribution.uniform(profiles), o_prof
        )
        assert report.ok, report.first_violated
        assert report.rows_checked == 2
    for _ in range(20):
        raw = [F(rng.randrange(1, 9)) for _ in profiles]
        total = sum(raw)
        dist = ProfileDistribution(
            {p: m / total for p, m in zip(profiles, raw)}
        )
        report = verify_extension(cfg, cert, g.model, dist, profiles[rng.randrange(4)])
        assert report.ok


def test_verify_extension_flags_weak_certificate():
    cfg = unit_cfg()
    weak = {"y[0]": F(1), "y[1]": F(1), "gamma": F(1, 2)}
    g = g1()
    # point mass on (a,a) against o=(a,b): resource a maps to P={1,2},
    # Q={1}, whose row needs 2 y_2 + gamma >= 4 -- short by 3/2
    report = verify_extension(cfg, weak, g.model, ProfileDistribution.point(AA), AB)
    assert not report.ok
    assert report.first_violated is not None
    assert report.worst_violation > 0
