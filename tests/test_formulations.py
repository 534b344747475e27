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

import builtins
import itertools
import math
from fractions import Fraction as F

import pytest

from conftest import (
    AA,
    AB,
    BB,
    assert_certified,
    closed_form_dual,
    column,
    dict_program,
    g1,
    g1_spec,
    named,
    nonzeros,
    random_model,
    same_program,
    seeded,
)
from poacert import linprog as lp
from poacert.games import (
    FEAS_TOL,
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
    VALUE_RTOL,
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
from test_coarse_programs import reference_pp_cce


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
    return sum(c * values.get(v, 0) for v, c in nonzeros(program, -1).items())


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
    # the weights are checked by games.check_weights, as a model's are
    eye = identity_matrix(2, True)
    for weights, message in (((F(1),), "need at least 2 players, got 1"),
                             ((F(1), F(0)), "weight of player 1 must be positive, got 0")):
        with pytest.raises(GameError, match=message):
            WorstCaseConfig(weights, eye, SocialSpec(SUM, eye), F(0), (BasisFunction.monomial(1),))


@pytest.mark.parametrize("eps", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_config_rejects_an_epsilon_that_is_not_finite(eps):
    with pytest.raises(GameError, match="epsilon must be non-negative and finite"):
        unit_cfg(eps=eps)


def test_config_rejects_an_alpha_entry_that_is_not_finite():
    with pytest.raises(GameError, match="alpha has an entry that is not finite"):
        unit_cfg(alpha=((1.0, float("nan")), (0.0, 1.0)))


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
    assert program.bound(program.variables.index("z[1]")) == lp.FREE
    assert program.bound(program.variables.index("z[0]")) == (0, None)
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
    assert named(program, r.primal)["y[0]"] == F(1)
    assert named(program, r.primal)["y[1]"] == F(1)


@pytest.mark.parametrize("n", [2, 3])
def test_production_dual_rows_match_hand_rows(n):
    """Row-by-row agreement between build_dp_pne and the enumerator, keyed
    by (P, Q) masks."""
    cfg = unit_cfg(n=n)
    rep = build_representative(cfg.weights)
    program = build_dp_pne(cfg, rep)
    by_label = {row.label: i for i, row in enumerate(program.rows)}
    for pq in itertools.product([0, 1], repeat=2 * n):
        p = tuple(i for i in range(n) if pq[i])
        q = tuple(i for i in range(n) if pq[n + i])
        eid = rep.resource_for(p, q)
        at = by_label[f"r[{vname(eid, 0)}]"]
        row = program.rows[at]
        want = {}
        for i in set(p) - set(q):
            want[f"y[{i}]"] = F(len(p))
        for i in set(q) - set(p):
            want[f"y[{i}]"] = -F(len(p) + 1)
        if q:
            want["gamma"] = F(len(q) ** 2)
        assert nonzeros(program, at) == want, (p, q)
        assert row.rhs == F(len(p) ** 2)
        assert row.relation == lp.GE


def assert_certifies(cfg, r):
    """r.dual_solution, one value per variable of the dual program of the
    winning designee, is exactly feasible for it, with objective gamma*:
    weak duality proves gamma*."""
    program = build_dp_pne(cfg, r.rep, r.designated)
    assert len(r.dual_solution) == len(program.variables)
    cert = dict(enumerate(r.dual_solution))
    ok, label, violation = lp.feasibility_report(program, cert, 0)
    assert ok, f"certificate violates {label} by {violation}"
    assert objective_at(program, named(program, cert)) == r.gamma_star


def test_anchor_two_players():
    r = solve_worst_case(unit_cfg(), exact=True)
    assert r.status == OPTIMAL
    assert r.gamma_star == F(2)
    assert r.dual_solution[0] == F(1)  # y[0]
    assert r.dual_solution[2] == F(2)  # gamma, after y[0] and y[1]
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
    """Each designee's program LP_d (build_pp_pne), solved alone, is
    unbounded for designees 0 and 1 and certified at 1 for designee 2.
    solve_worst_case solves U_d, LP_d without its val rows and t, which
    is unbounded for all three; gamma* is INFINITE either way."""
    cfg = mixed_cell(exact)
    r = solve_worst_case(cfg, exact=exact)
    assert r.status == INFINITE and r.gamma_star is None
    assert [v.status for v in r.variants] == [INFINITE] * 3
    alone = [lp.solve(build_pp_pne(cfg, r.rep, d), exact) for d in range(3)]
    assert [a.status for a in alone] == [lp.UNBOUNDED, lp.UNBOUNDED, lp.OPTIMAL]
    certified = alone[2]
    program = build_dp_pne(cfg, r.rep, 2)
    assert len(certified.duals) == len(program.variables)
    ok, label, violation = lp.feasibility_report(
        program, dict(enumerate(certified.duals)), 0 if exact else 1e-9)
    assert ok, f"certificate violates {label} by {violation}"
    if exact:  # gamma[i] after y[i] and z[i]
        assert certified.value == sum(certified.duals[6:]) == 1
    else:
        assert certified.value == pytest.approx(1, rel=1e-9)


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
    ok, label, violation = lp.feasibility_report(program, res.primal, FEAS_TOL)
    assert ok, f"OPTIMAL point violates {label} by {violation}"


def test_float_and_exact_agree_on_anchor():
    rf = solve_worst_case(unit_cfg(n=3))
    assert rf.status == OPTIMAL
    assert rf.gamma_star == pytest.approx(2.5, rel=1e-9)


def float_identity(n):
    return tuple(tuple(float(x) for x in row) for row in identity_matrix(n))


def test_exact_solve_reads_float_data_as_rationals():
    """solve_worst_case(exact=True) reads a float configuration as its
    exact binary values: weights (1.0, 1.5) under max answer 431/81 with
    the certificate of the Fraction twin (1, 3/2), and the solved point
    extracts a witness under the float configuration."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    eye = float_identity(2)
    floats = WorstCaseConfig((1.0, 1.5), eye, SocialSpec(MAX, eye), 0.0, basis)
    res = solve_worst_case(floats, exact=True)
    eye = identity_matrix(2, True)
    twin = solve_worst_case(
        WorstCaseConfig((F(1), F(3, 2)), eye, SocialSpec(MAX, eye), F(0), basis), exact=True)
    assert res.gamma_star == twin.gamma_star == F(431, 81)
    assert res.dual_solution == twin.dual_solution
    game = extract_worst_game(floats, res.rep, res.primal_solution, res.designated)
    assert social_value(floats.spec, game, res.rep.sigma_star) == pytest.approx(431 / 81)
    assert social_value(floats.spec, game, res.rep.o_star) <= 1 + FEAS_TOL


def test_exact_solve_of_seeded_float_configurations_is_certified():
    """30 seeded float configurations (n = 2, 3, sum and max, weights from
    {0.3, 0.5, 1, 1.5, 2}, alpha and beta uniform in [0, 1], basis
    {x, x^2}) solve exactly with a certificate checked at tolerance 0."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    for seed in range(30):
        rng = seeded(seed)
        n = rng.choice((2, 3))
        weights = tuple(rng.choice((0.3, 0.5, 1.0, 1.5, 2.0)) for _ in range(n))

        def uniform():
            return tuple(tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(n))

        spec = SocialSpec(rng.choice((SUM, MAX)), uniform())
        res = solve_worst_case(WorstCaseConfig(weights, uniform(), spec, 0.0, basis), exact=True)
        assert res.status in (OPTIMAL, INFINITE), seed
        assert res.status == INFINITE or isinstance(res.gamma_star, F), seed


def seeded_float_configurations():
    """The 30 seeded float configurations of the test above, drawn alike."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    for seed in range(30):
        rng = seeded(seed)
        n = rng.choice((2, 3))
        weights = tuple(rng.choice((0.3, 0.5, 1.0, 1.5, 2.0)) for _ in range(n))

        def uniform():
            return tuple(tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(n))

        spec = SocialSpec(rng.choice((SUM, MAX)), uniform())
        yield WorstCaseConfig(weights, uniform(), spec, 0.0, basis)


def designee_region(cfg, rep, d):
    """U_d sliced from LP_d = build_pp_pne(cfg, rep, d): its eq and norm
    rows over the v columns, without the val rows and t, maximizing the v
    entries of its val[d] row, designee d's cost row."""
    from poacert.formulations import _ColumnNames, _representative

    pp = build_pp_pne(cfg, rep, d)
    keep = [i for i, row in enumerate(pp.rows) if not row.label.startswith("val[")]
    at = [row.label for row in pp.rows].index(f"val[{d}]")
    coefficients = pp.coefficients[keep + [at], :-1]
    names = _ColumnNames(cfg, _representative(rep), range(len(pp.variables) - 1), level=False)
    return lp.LinearProgram(lp.MAXIMIZE, names, [pp.rows[i] for i in keep], coefficients,
                            name=f"u_max_d{d}")


def best_designee_program(cfg, rep, exact):
    """max_d LP_d, each build_pp_pne(cfg, rep, d) solved alone: INFINITE
    when one is unbounded, else the largest optimum."""
    reports = [lp.solve(build_pp_pne(cfg, rep, d), exact) for d in range(cfg.n)]
    if any(r.status == lp.UNBOUNDED for r in reports):
        return INFINITE
    return max(r.value for r in reports)


def test_designees_sharing_one_array_answer_as_alone(monkeypatch):
    """On the max classes of seeded_float_configurations(), in float and
    as exact twins, solve_worst_case writes one array (one _primal call)
    and builds one float _system per class, and no designee pays a
    phase-1 pivot: every designee's program U_d has the rows of one
    region, solved by lp.solve_each.  Each variant's status and value are
    those of lp.solve on U_d alone (designee_region), exactly in exact
    mode and to VALUE_RTOL in float; its dual is feasible for
    build_dp_pne(cfg, rep, d) with objective its dp_value, the value; and
    max_d U_d is max_d LP_d."""
    from poacert import formulations
    from poacert.formulations import _exact_config

    primal, system = formulations._primal, lp._system
    arrays, standards = [], []

    def written(*args, **kwargs):
        arrays.append(primal(*args, **kwargs))
        return arrays[-1]

    def standardized(program, exact):
        standards.append(system(program, exact))
        return standards[-1]

    classes = [cfg for cfg in seeded_float_configurations() if cfg.spec.kind == MAX]
    assert len(classes) >= 10
    for cfg, exact in itertools.product(classes, (False, True)):
        arrays.clear(), standards.clear()
        monkeypatch.setattr(formulations, "_primal", written)
        monkeypatch.setattr(lp, "_system", standardized)
        result = solve_worst_case(cfg, exact)
        monkeypatch.undo()
        assert len(arrays) == 1
        assert [s.std.exact for s in standards].count(False) == 1
        assert [v.stats.phase1_pivots for v in result.variants] == [0] * cfg.n
        model = _exact_config(cfg) if exact else cfg
        rep = build_representative(model.weights)
        for variant in result.variants:
            d = variant.designated
            alone = lp.solve(designee_region(model, rep, d), exact)
            if alone.status == lp.UNBOUNDED:
                assert variant.status == INFINITE and not variant.dual
                continue
            assert variant.status == alone.status == OPTIMAL
            if exact:
                assert variant.pp_value == variant.dp_value == alone.value
            else:
                assert variant.pp_value == pytest.approx(alone.value, rel=VALUE_RTOL)
                assert variant.dp_value == pytest.approx(alone.value, rel=VALUE_RTOL)
            dp = build_dp_pne(model, rep, d)
            ok, label, violation = lp.feasibility_report(
                dp, dict(enumerate(variant.dual)), 0 if exact else FEAS_TOL)
            assert ok, f"designee {d}: certificate violates {label} by {violation}"
            bound = sum(variant.dual[2 * cfg.n:])  # dp's objective: gamma[i] after y[i], z[i]
            assert bound == (variant.dp_value if exact else pytest.approx(variant.dp_value))
        best = best_designee_program(model, rep, exact)
        if best == INFINITE:
            assert result.status == INFINITE
        elif exact:
            assert result.gamma_star == best
        else:
            assert result.gamma_star == pytest.approx(best, rel=VALUE_RTOL)


def seeded_exact_max_classes():
    """12 seeded exact max classes: n = 2, 3, 4, weights in quarters from
    1/2 to 2, alpha with a unit diagonal and off-diagonal quarters from
    -1/4 to 1, beta quarters from 0 to 1, eps 0 or 1/2, basis x or x, x^2
    (x alone at n = 4)."""
    for seed in range(12):
        rng = seeded(7100 + seed)
        n = 2 + seed % 3

        def quarter(lo, hi):
            return F(rng.randrange(lo, hi + 1), 4)

        weights = [quarter(2, 8) for _ in range(n)]
        alpha = [[F(1) if i == j else quarter(-1, 4) for j in range(n)] for i in range(n)]
        beta = [[quarter(0, 4) for _ in range(n)] for _ in range(n)]
        beta[0][0] = F(1)
        squares = (BasisFunction.monomial(2),) if n < 4 and seed % 2 else ()
        yield WorstCaseConfig(weights, alpha, SocialSpec(MAX, beta), F(seed // 3 % 2, 2),
                              (BasisFunction.monomial(1),) + squares)


def test_the_best_region_designee_is_the_best_designee_program():
    """On seeded exact max classes, gamma* = max_d U_d, which
    solve_worst_case answers, equals max_d LP_d, each designee's
    build_pp_pne solved alone in rationals, exactly."""
    epsilons = set()
    for cfg in seeded_exact_max_classes():
        result = solve_worst_case(cfg, exact=True)
        best = best_designee_program(cfg, result.rep, True)
        assert (result.gamma_star if result.status == OPTIMAL else result.status) == best
        assert isinstance(best, F) or best == INFINITE
        epsilons.add(cfg.epsilon)
    assert epsilons == {0, F(1, 2)}


def test_an_exact_max_solve_builds_one_rational_standard_form(monkeypatch):
    """solve_worst_case(exact=True) on an n = 3 max class reads every
    designee's float run on one rational standard form, its costs row
    rewritten per designee: one float and one exact _system in all."""
    systems = []
    system = lp._system

    def counted(program, exact):
        systems.append(exact)
        return system(program, exact)

    monkeypatch.setattr(lp, "_system", counted)
    cfg = unit_cfg(n=3, kind=MAX, basis=(BasisFunction.monomial(1), BasisFunction.monomial(2)))
    result = solve_worst_case(cfg, exact=True)
    assert result.status == OPTIMAL and [v.fallback for v in result.variants] == [None] * 3
    assert systems == [False, True]


def test_exact_solve_agrees_with_the_rational_simplex(monkeypatch):
    """Every designee program that solve_worst_case(exact=True) solves, on
    the 30 seeded float configurations and on the signed-alpha mixed cell
    (three UNBOUNDED designees), by lp.solve under sum and lp.solve_each
    under max, each objective as its own program, gets the status and
    value of a cold
    rational simplex run, and each OPTIMAL answer passes its checks at
    tolerance 0 in rationals, the certificate pass that solve_worst_case
    leaves to lp.solve's exact reading among them."""
    from poacert.formulations import _certificate_report

    solved = []
    solve, solve_each = lp.solve, lp.solve_each

    def recorded(program, exact=False):
        report = solve(program, exact)
        solved.append((program, None, report))
        return report

    def recorded_each(program, objectives, exact=False):
        reports = solve_each(program, objectives, exact)
        solved.extend((program, c, report) for c, report in zip(objectives, reports))
        return reports

    monkeypatch.setattr(lp, "solve", recorded)
    monkeypatch.setattr(lp, "solve_each", recorded_each)
    for cfg in [*seeded_float_configurations(), mixed_cell(True)]:
        solve_worst_case(cfg, exact=True)
    for program, objective, report in solved:
        assert_certified(program, report, objective)
        if report.status == lp.OPTIMAL:
            assert _certificate_report(program, report.duals, 0, objective)[0], program.name
    assert [r.status for _, _, r in solved].count(lp.UNBOUNDED) >= 2
    assert all(r.fallback is None for _, _, r in solved)


def test_exact_solve_of_the_1331_max_class():
    """Weights (1, 3, 3, 1), basis x, x^2, x^3, identity alpha and beta,
    eps = 0, max: a float solve of this class once failed its certificate
    by 4.6e-9; the exact solve answers 6760/243, certified at tolerance 0."""
    eye = identity_matrix(4, True)
    basis = tuple(BasisFunction.monomial(k) for k in (1, 2, 3))
    cfg = WorstCaseConfig((F(1), F(3), F(3), F(1)), eye, SocialSpec(MAX, eye), F(0), basis)
    r = solve_worst_case(cfg, exact=True)
    assert r.status == OPTIMAL
    assert r.gamma_star == F(6760, 243)
    assert_certifies(cfg, r)


def float_class(weights, kind, degrees):
    """Float weights, identity alpha and beta, eps = 0, basis x^k for k in
    degrees."""
    eye = identity_matrix(len(weights))
    basis = tuple(BasisFunction.monomial(k) for k in degrees)
    return WorstCaseConfig(tuple(map(float, weights)), eye, SocialSpec(kind, eye), 0.0, basis)


def test_float_solve_of_the_1331_max_class():
    """The float twin of the class above: each designee's float basis is
    read with duals from B^T y = c_B, so the certificate holds, and no
    designee falls back to rationals."""
    r = solve_worst_case(float_class((1, 3, 3, 1), MAX, (1, 2, 3)))
    assert r.status == OPTIMAL
    assert r.gamma_star == pytest.approx(6760 / 243, rel=VALUE_RTOL)
    assert [v.fallback for v in r.variants] == [None] * 4


def test_float_solve_of_the_nine_player_cubic_sum_class():
    """n = 9, r = 3, sum, weights (1, 3, 3, 1, 2, 3, 2, 3, 1), basis x,
    x^2, x^3: the largest r = 3 class the float path reaches once raised
    InvariantViolation (its certificate missed a row by 3.2e-9).  About
    10 s."""
    r = solve_worst_case(float_class((1, 3, 3, 1, 2, 3, 2, 3, 1), SUM, (1, 2, 3)))
    assert r.status == OPTIMAL
    assert r.gamma_star == pytest.approx(47.6214973690439, rel=VALUE_RTOL)
    assert r.variants[0].fallback is None


def test_equilibrated_columns_halve_the_pivots_of_the_cubic_classes():
    """Pivot counts, not timings, on basis x, x^2, x^3: the n = 8 sum
    class (weights 1, 3, 3, 1, 2, 3, 2, 3) took 150 pivots with rows
    alone equilibrated and takes 77 with columns too; its first seven
    weights under max took 2,862 over the seven designees and take 953.
    gamma* stays where it was."""
    weights = (1, 3, 3, 1, 2, 3, 2, 3)
    r = solve_worst_case(float_class(weights, SUM, (1, 2, 3)))
    assert r.gamma_star == pytest.approx(47.621497369043944, rel=VALUE_RTOL)
    assert sum(v.iterations for v in r.variants) <= 80
    r = solve_worst_case(float_class(weights[:7], MAX, (1, 2, 3)))
    assert r.gamma_star == pytest.approx(82.09678283145465, rel=VALUE_RTOL)
    assert sum(v.iterations for v in r.variants) <= 1000
    assert [v.fallback for v in r.variants] == [None] * 7


def test_the_eight_player_cubic_max_class_shares_one_region():
    """The n = 8, r = 3 max class (weights 1, 3, 3, 1, 2, 3, 2, 3; basis x,
    x^2, x^3), a count and not a timing: its eight designees took 1,669
    pivots as LP_d, 23 of them in phase 1; as U_d over one region, each
    from the last optimum, they take at most 900, none in phase 1, with
    gamma* where it was and no fallback."""
    r = solve_worst_case(float_class((1, 3, 3, 1, 2, 3, 2, 3), MAX, (1, 2, 3)))
    assert r.gamma_star == pytest.approx(89.12463417009002, rel=VALUE_RTOL)
    assert sum(v.iterations for v in r.variants) <= 900
    assert sum(v.stats.phase1_pivots for v in r.variants) == 0
    assert [v.fallback for v in r.variants] == [None] * 8


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
    program that the reference writer enumerates at the point mass on
    sigma*, value for value, for every designee; so is build_pp_cce's
    gather of the same columns."""
    rep = build_representative(cfg.weights)
    sigma = ProfileDistribution.point(rep.sigma_star)
    for d in [None] if cfg.spec.kind == SUM else range(cfg.n):
        closed = build_pp_pne(cfg, rep, d)
        assert same_program(closed, reference_pp_cce(cfg, rep.model, sigma, rep.o_star, d))
        assert same_program(closed, build_pp_cce(cfg, rep.model, sigma, rep.o_star, d))
        assert any(nonzeros(closed, i) for i in range(len(closed.rows)))


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_pp_cce_drops_entries_that_cancel(kind):
    """build_pp_cce on g1 with alpha_01 = -2, o = (b, b) and masses 1/3 on
    (a, a) and 2/3 on (a, b): player 0's eq entry on a sums -2/3 and 2/3.
    The program, written out by hand in the terms of the profile
    enumeration, carries that entry as an explicit zero; the arrays of
    build_pp_cce and of the reference writer hold a zero there too, and
    every entry is equal."""
    alpha = ((F(1), F(-2)), (F(0), F(1)))
    cfg = unit_cfg(kind=kind, alpha=alpha)
    dist = ProfileDistribution({AA: F(1, 3), AB: F(2, 3)})
    a, b = vname("a", 0), vname("b", 0)
    rows = [({a: F(0), b: F(1)}, lp.LE, 0, "eq[0]"),
            ({a: F(2, 3), b: F(-1, 3)}, lp.LE, 0, "eq[1]")]
    if kind == SUM:
        rows.append(({b: F(4)}, lp.LE, 1, "norm"))
        enumerated = dict_program(
            lp.MAXIMIZE, [a, b], {a: F(2), b: F(2, 3)}, rows, name="pp_sum")
        d = None
    else:
        rows += [({a: F(4, 3), "t": -1}, lp.EQ, 0, "val[0]"),
                 ({a: F(2, 3), b: F(2, 3), "t": -1}, lp.LE, 0, "val[1]"),
                 ({b: F(2)}, lp.LE, 1, "norm[0]"),
                 ({b: F(2)}, lp.LE, 1, "norm[1]")]
        enumerated = dict_program(lp.MAXIMIZE, [a, b, "t"], {"t": 1}, rows, name="pp_max_d0")
        d = 0
    program = build_pp_cce(cfg, g1().model, dist, BB, d)
    assert nonzeros(program, 0) == {b: F(1)}
    assert same_program(program, enumerated)
    assert same_program(reference_pp_cce(cfg, g1().model, dist, BB, d), enumerated)


# ============================================================
# the certificate and witness checks, priced from the columns
# ============================================================


def check_cases():
    """Seeded configurations for the checks: n = 2..4, float and exact, sum
    and max, alpha with signed off-diagonal entries, eps in {0, 1/2} (0 only
    for exact n = 4, whose rational rows are the slow ones), basis
    {x, x^2}.  Entries are sevenths, so float sums round."""
    basis = (BasisFunction.monomial(1), BasisFunction.monomial(2))
    k = 0
    for n in (2, 3, 4):
        for exact in (False, True):
            num = F if exact else float
            for kind in (SUM, MAX):
                for eps in (0,) if exact and n == 4 else (0, F(1, 2)):
                    rng = seeded(2000 + k)
                    k += 1
                    weights = [num(F(rng.randrange(1, 15), 7)) for _ in range(n)]
                    alpha = [[num(1) if i == j else num(F(rng.randrange(-7, 8), 7))
                              for j in range(n)] for i in range(n)]
                    beta = [[num(F(rng.randrange(0, 8), 7)) for _ in range(n)] for _ in range(n)]
                    beta[0][0] = num(1)
                    cfg = WorstCaseConfig(weights, alpha, SocialSpec(kind, beta), num(eps), basis)
                    arithmetic = "exact" if exact else "float"
                    yield pytest.param(cfg, exact, id=f"n{n}-{arithmetic}-{kind}-eps{eps}")


def float_optima(cfg):
    """(designee, program, its float solve) of each designee's program."""
    rep = build_representative(cfg.weights)
    for d in [None] if cfg.spec.kind == SUM else range(cfg.n):
        program = build_pp_pne(cfg, rep, d)
        yield d, program, lp.solve(program)


CHECK_CASES = list(check_cases())


def test_certificate_pass_is_feasibility_report_on_dp():
    """The certificate check gives lp.feasibility_report's (ok, first
    violated label, worst violation) on build_dp_pne, repr for repr, for
    the solved certificate and for certificates with one dual moved by
    -1e-6, 1e-6, -1 or 1 (-1e-6 or 1 in exact arithmetic).  An exact
    configuration is checked at tolerance 0 against the float duals rounded
    to denominators of at most 10^6, and at n = 2 also against its exact
    duals.  Among the moved certificates every kind of first
    violation occurs: a column row, zsum and a sign bound."""
    from poacert.formulations import _certificate_report

    firsts = set()
    for param in CHECK_CASES:
        cfg, exact = param.values
        rep = build_representative(cfg.weights)
        tol = 0 if exact else FEAS_TOL
        num = (lambda y: F(y).limit_denominator(10**6)) if exact else float
        for d, program, rp in float_optima(cfg):
            if rp.status != lp.OPTIMAL:
                continue
            dp = build_dp_pne(cfg, rep, d)
            solved = [[num(y) for y in rp.duals]]
            if exact and cfg.n == 2:
                solved.append(list(lp.solve(program, exact=True).duals))
            moved = []
            for i in range(len(program.rows)):
                for delta in (F(-1, 10**6), 1) if exact else (F(-1, 10**6), F(1, 10**6), -1, 1):
                    duals = list(solved[0])
                    duals[i] += num(delta)
                    moved.append(duals)
            for k, duals in enumerate(solved + moved):
                want = lp.feasibility_report(dp, dict(enumerate(duals)), tol)
                got = _certificate_report(program, duals, tol)
                assert repr(got) == repr(want), (param.id, d, k)
                if k >= len(solved) and not got[0]:
                    firsts.add(got[1].split("[")[0])
    assert firsts == {"r", "zsum", "bound"}


def test_witness_check_is_feasibility_report_on_pp():
    """extract_worst_game rejects a point with lp.feasibility_report's text
    on build_pp_pne, and accepts the points it accepts: the solved point
    (rounded to denominators of at most 10^6 for an exact configuration),
    points with one value moved by +-1e-12, +-1e-6 or +-1, with t scaled
    by 3/2, and with every value doubled.  Among the rejected points the
    first violated row is of every kind, eq, val and norm, and a sign
    bound also comes first."""
    rng = seeded(11)
    firsts = set()
    for param in CHECK_CASES:
        cfg, exact = param.values
        num = (lambda x: F(x).limit_denominator(10**6)) if exact else float
        rep = build_representative(cfg.weights)
        for d, program, rp in float_optima(cfg):
            if rp.status != lp.OPTIMAL:
                continue
            solved = {j: num(x) for j, x in rp.primal.items()}
            points = [solved, {j: 2 * x for j, x in solved.items()}]
            if d is not None:
                t = len(program.variables) - 1
                points.append({**solved, t: solved.get(t, num(0)) * num(1.5)})
            for delta in (1e-12, -1e-12, 1e-6, -1e-6, 1, -1):
                j = rng.randrange(len(program.variables))  # the draw of rng.choice
                points.append({**solved, j: solved.get(j, num(0)) + num(delta)})
            for point in points:
                ok, label, violation = lp.feasibility_report(program, point, FEAS_TOL)
                if ok:
                    extract_worst_game(cfg, rep, point, d)
                    continue
                with pytest.raises(GameError) as err:
                    extract_worst_game(cfg, rep, point, d)
                assert str(err.value) == f"primal point violates {label} by {violation}"
                firsts.add(label.split("[")[0])
    assert firsts == {"eq", "val", "norm", "bound"}


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
    ok, label, violation = lp.feasibility_report(program, w.values, FEAS_TOL)
    assert ok, f"witness violates {label} by {violation}"
    assert objective_at(program, named(program, w.values)) == F(1)


def test_witness_mass_sits_on_singletons():
    cfg = unit_cfg()
    rep = build_representative(cfg.weights)
    w = lemma1_witness(cfg, rep)
    allowed = set()
    for j in range(2):
        allowed.add(column(cfg, 1 << j, 0))
        allowed.add(column(cfg, 0, 1 << j))
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


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_extraction_rejects_a_nan_value(exact):
    """A nan in a solved primal point is a violation, as lp.solve's own
    reading counts one: GameError names the first row it reaches, and no
    game with a nan coefficient is built."""
    eye = identity_matrix(2, exact)
    one = F(1) if exact else 1.0
    cfg = WorstCaseConfig((one, one), eye, SocialSpec(SUM, eye), 0 * one,
                          (BasisFunction.monomial(1),))
    r = solve_worst_case(cfg, exact)
    bad = dict(r.primal_solution)
    bad[sorted(bad)[0]] = float("nan")
    with pytest.raises(GameError, match=r"primal point violates eq\[0\] by nan"):
        extract_worst_game(cfg, r.rep, bad)


def test_extraction_clamps_solver_dust():
    cfg = unit_cfg()
    r = solve_worst_case(cfg)
    noisy = dict(r.primal_solution)
    noisy[column(cfg, 0, 0)] = -1e-12  # e({}, {})
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
    pne = build_dp_pne(cfg, rep)
    pne_rows = {row.label: (row, nonzeros(pne, i)) for i, row in enumerate(pne.rows)}
    cce = build_dp_cce(cfg, g.model, dist, o_prof)
    for at, row in enumerate(cce.rows):
        e = row.label[len("r[v["):].split("]")[0]
        mixed: dict = {}
        mixed_rhs = F(0)
        for sigma, mass in dist.masses.items():
            rid = map_profile_pair(rep, g.model, sigma, o_prof)[e]
            ref, ref_coeffs = pne_rows[f"r[{vname(rid, 0)}]"]
            for v, c in ref_coeffs.items():
                mixed[v] = mixed.get(v, F(0)) + mass * c
            mixed_rhs += mass * ref.rhs
        want = {v: c for v, c in mixed.items() if c != 0}
        assert nonzeros(cce, at) == want, row.label
        assert row.rhs == mixed_rhs


def test_verify_extension_accepts_anchor_certificate():
    cfg = unit_cfg()
    cert = (F(1), F(1), F(2))  # y[0], y[1], gamma
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
    weak = (F(1), F(1), F(1, 2))  # y[0], y[1], gamma
    g = g1()
    # point mass on (a,a) against o=(a,b): resource a maps to P={1,2},
    # Q={1}, whose row needs 2 y_2 + gamma >= 4 -- short by 3/2
    report = verify_extension(cfg, weak, g.model, ProfileDistribution.point(AA), AB)
    assert not report.ok
    assert report.first_violated is not None
    assert report.worst_violation > 0


def test_verify_extension_refuses_a_nan_certificate():
    """No tolerance admits a nan: a certificate of nan duals fails."""
    nan = float("nan")
    report = verify_extension(unit_cfg(), (nan, nan, nan), g1().model,
                              ProfileDistribution.point(AA), AB)
    assert not report.ok and report.first_violated is not None
    assert math.isnan(report.worst_violation)


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_verify_extension_refuses_a_certificate_not_by_position(kind):
    """A certificate is read by position, one value per variable of
    build_dp_pne: a dict (the certificate keyed by name), or a sequence
    one value short or one value long, raises GameError naming the count
    expected, where zero-filling would check another certificate."""
    cfg = unit_cfg(kind=kind)
    r = solve_worst_case(cfg, exact=True)
    count = len(build_dp_pne(cfg, r.rep, r.designated).variables)
    assert len(r.dual_solution) == count == (3 if kind == SUM else 6)
    by_name = dict(zip(build_dp_pne(cfg, r.rep, r.designated).variables, r.dual_solution))
    args = (g1().model, ProfileDistribution.point(AA), AB, r.designated)
    assert verify_extension(cfg, r.dual_solution, *args).ok
    for bad in (by_name, r.dual_solution[:-1], r.dual_solution + (F(0),)):
        with pytest.raises(GameError, match=f"sequence of {count} values"):
            verify_extension(cfg, bad, *args)


def test_a_passing_solve_or_check_formats_no_name(monkeypatch):
    """solve_worst_case, under sum and max, in float and in rationals, a
    passing verify_extension of its certificate and a passing worst_cce,
    under sum and max, call neither _certificate_name nor vname nor read
    a coarse program's column name: a certificate and a point are keyed
    by position, and a name is formatted only where a report or a message
    shows it."""
    from poacert import formulations, oracle

    formatted = []
    for name in ("_certificate_name", "vname"):
        def counted(*args, name=name, formatter=getattr(formulations, name)):
            formatted.append(name)
            return formatter(*args)

        monkeypatch.setattr(formulations, name, counted)
    names = oracle._ProfileNames.__getitem__
    monkeypatch.setattr(oracle._ProfileNames, "__getitem__",
                        lambda self, a: formatted.append("p") or names(self, a))
    model = g1().model
    dist = ProfileDistribution.uniform(list(model.profiles()))
    for kind, exact in itertools.product((SUM, MAX), (False, True)):
        cfg = unit_cfg(kind=kind)
        r = solve_worst_case(cfg, exact)
        assert r.status == OPTIMAL and formatted == [], (kind, exact)
        assert verify_extension(cfg, r.dual_solution, model, dist, AB, r.designated).ok
        assert formatted == [], (kind, exact)
        worst = oracle.worst_cce(g1(exact), g1_spec(kind, exact))
        assert worst.value == (3 if kind == SUM else F(3, 2))
        assert formatted == [], (kind, exact)
    # the formatters are the ones counted: a report names the certificate
    assert list(formulations._named_certificate(cfg, r.designated, r.dual_solution)) == [
        "y[0]", "y[1]", "z[0]", "z[1]", "gamma[0]", "gamma[1]"]
    assert formatted == ["_certificate_name"] * 6


def test_certificate_pass_refuses_nan_duals():
    """The float certificate pass of solve_worst_case fails nan duals."""
    from poacert.formulations import _certificate_report

    cfg = unit_cfg()
    nan = float("nan")
    program = build_pp_pne(cfg, build_representative(cfg.weights))
    ok, label, worst = _certificate_report(program, [nan] * len(program.rows), FEAS_TOL)
    assert not ok and label is not None and math.isnan(worst)


def test_extension_pass_is_feasibility_report_on_dp_cce():
    """verify_extension gives lp.feasibility_report's (ok, first violated
    label, worst violation) on build_dp_cce with every bound free, repr for
    repr, over seeded (model, distribution, o) triples of the check
    configurations with n <= 3: for the solved certificate (rounded to
    denominators of at most 10^6 for an exact configuration) and for
    certificates with one dual moved by -1e-6, 1e-6, -1 or 1.  Its (ok,
    first violated label) is also that of the same report on the dual of
    the reference writer's program, whose float entries may differ in the
    last bits.  Among the moved certificates the first violation is a
    column row and zsum."""
    from poacert.formulations import _certificate_program

    rng = seeded(23)
    firsts = set()
    for param in CHECK_CASES:
        cfg, exact = param.values
        if cfg.n > 3:
            continue
        num = (lambda y: F(y).limit_denominator(10**6)) if exact else float
        for d, program, rp in float_optima(cfg):
            if rp.status != lp.OPTIMAL:
                continue
            solved = [num(y) for y in rp.duals]
            certs = [solved]
            for i in range(len(solved)):
                moved = list(solved)
                moved[i] += num(rng.choice((-1e-6, 1e-6, -1, 1)))
                certs.append(moved)
            for _ in range(3):
                model = random_model(rng, cfg.weights)
                profiles = list(model.profiles())
                support = rng.sample(profiles, rng.randrange(1, 4))
                raw = [rng.randrange(1, 6) for _ in support]
                dist = ProfileDistribution(
                    {p: num(F(m, sum(raw))) for p, m in zip(support, raw)})
                o_profile = rng.choice(profiles)
                dp = build_dp_cce(cfg, model, dist, o_profile, d)
                ref = _certificate_program(reference_pp_cce(cfg, model, dist, o_profile, d))
                free, free_ref = (
                    lp.LinearProgram(p.sense, p.variables, p.rows, p.coefficients,
                                     dict.fromkeys(range(len(p.variables)), lp.FREE), p.name)
                    for p in (dp, ref))
                for k, cert in enumerate(certs):
                    report = verify_extension(cfg, cert, model, dist, o_profile, d)
                    got = (report.ok, report.first_violated, report.worst_violation)
                    want = lp.feasibility_report(free, dict(enumerate(cert)), FEAS_TOL)
                    assert repr(got) == repr(want), (param.id, d, k)
                    assert got[:2] == lp.feasibility_report(
                        free_ref, dict(enumerate(cert)), FEAS_TOL)[:2], (
                        param.id, d, k)
                    assert report.rows_checked == len(dp.rows)
                    if k and not report.ok:
                        firsts.add(report.first_violated.split("[")[0])
    assert firsts == {"r", "zsum"}


def _compensated_sum(iterable, start=0):
    """The builtin sum of CPython 3.12 and later, on this interpreter: ints
    are added exactly; from the first float on, floats are added with
    Neumaier's compensation, the correction added once at the end (or
    before the first item that is neither float nor int); any other item
    is added with +."""
    items = iter(iterable)
    total = start
    for item in items:
        if type(total) is int and type(item) in (int, bool):
            total += item
            continue
        total = total + item
        break
    else:
        return total
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    correction = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                correction += (total - t) + item
            else:
                correction += (item - t) + total
            total = t
        elif type(item) in (int, bool):
            total += float(item)
        else:
            if correction and math.isfinite(correction):
                total += correction
            total = total + item
            for rest in items:
                total = total + rest
            return total
    if correction and math.isfinite(correction):
        total += correction
    return total


def test_compensated_sum_is_the_newer_builtin_sum():
    """The emulation compensates where the older builtin sum rounds."""
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert _compensated_sum([0.1] * 10) == 1.0
    assert _compensated_sum([1, 2, F(1, 2)]) == F(7, 2)
    assert _compensated_sum([]) == 0 and type(_compensated_sum([])) is int


@pytest.mark.parametrize("check", [
    test_certificate_pass_is_feasibility_report_on_dp,
    test_extension_pass_is_feasibility_report_on_dp_cce,
    test_witness_check_is_feasibility_report_on_pp,
], ids=["certificate", "extension", "witness"])
def test_checks_do_not_depend_on_the_builtin_sum(monkeypatch, check):
    """Each check gives lp.feasibility_report's verdict, label and
    violation on the program it stands for, repr for repr, also when the
    builtin sum compensates float sums, as it does from Python 3.12: no
    check reads its rows through the builtin sum."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    check()


def _sevenths_max_config(seed):
    """A seeded max-objective class over {x, x^2} with entries in sevenths:
    n in {3, 4}, weights in [1/7, 2], alpha 1 on the diagonal and in
    [0, 1] off it, beta in [0, 1], eps in {0, 1/2}."""
    rng = seeded(seed)
    n = rng.choice((3, 4))
    weights = [rng.randrange(1, 15) / 7 for _ in range(n)]
    alpha = [[1.0 if i == j else rng.randrange(0, 8) / 7 for j in range(n)] for i in range(n)]
    beta = [[rng.randrange(0, 8) / 7 for _ in range(n)] for _ in range(n)]
    eps = rng.choice((0.0, 0.5))
    return WorstCaseConfig(weights, alpha, SocialSpec(MAX, beta), eps,
                           (BasisFunction.monomial(1), BasisFunction.monomial(2)))


@pytest.mark.parametrize("seed", [7, 38, 50])
def test_dp_value_does_not_depend_on_the_builtin_sum(monkeypatch, seed):
    """Each designee's dp_value, the certificate's rhs-weighted dual sum, is
    repr-identical when the builtin sum compensates float sums.  On these
    three classes a compensated sum of the same terms moves one designee's
    value in its last bit (15.320395947257643 to 15.32039594725764 at seed
    7)."""
    cfg = _sevenths_max_config(seed)
    plain = [repr(v.dp_value) for v in solve_worst_case(cfg).variants]
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert [repr(v.dp_value) for v in solve_worst_case(cfg).variants] == plain
