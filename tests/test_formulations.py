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

from conftest import AA, AB, BB, closed_form_dual, g1, random_model, seeded
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


def without_zeros(program):
    """The program with every zero-valued objective and row entry dropped."""
    return lp.LinearProgram(
        program.sense,
        program.variables,
        {v: c for v, c in program.objective.items() if c != 0},
        [lp.Row({v: a for v, a in row.coeffs.items() if a != 0}, row.relation, row.rhs, row.label)
         for row in program.rows],
        program.bounds,
        program.name,
    )


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_pp_cce_drops_entries_that_cancel(kind):
    """build_pp_cce on g1 with alpha_01 = -2, o = (b, b) and masses 1/3 on
    (a, a) and 2/3 on (a, b): player 0's eq entry on a sums -2/3 and 2/3.
    The program, written out by hand in the terms of the profile
    enumeration, carries that entry as a zero, which build_pp_cce leaves
    out; every other entry is equal."""
    alpha = ((F(1), F(-2)), (F(0), F(1)))
    cfg = unit_cfg(kind=kind, alpha=alpha)
    dist = ProfileDistribution({AA: F(1, 3), AB: F(2, 3)})
    a, b = vname("a", 0), vname("b", 0)
    rows = [lp.Row({a: F(0), b: F(1)}, lp.LE, 0, "eq[0]"),
            lp.Row({a: F(2, 3), b: F(-1, 3)}, lp.LE, 0, "eq[1]")]
    if kind == SUM:
        rows.append(lp.Row({b: F(4)}, lp.LE, 1, "norm"))
        enumerated = lp.LinearProgram(
            lp.MAXIMIZE, [a, b], {a: F(2), b: F(2, 3)}, rows, name="pp_sum")
        d = None
    else:
        rows += [lp.Row({a: F(4, 3), "t": -1}, lp.EQ, 0, "val[0]"),
                 lp.Row({a: F(2, 3), b: F(2, 3), "t": -1}, lp.LE, 0, "val[1]"),
                 lp.Row({b: F(2)}, lp.LE, 1, "norm[0]"),
                 lp.Row({b: F(2)}, lp.LE, 1, "norm[1]")]
        enumerated = lp.LinearProgram(lp.MAXIMIZE, [a, b, "t"], {"t": 1}, rows, name="pp_max_d0")
        d = 0
    program = build_pp_cce(cfg, g1().model, dist, BB, d)
    assert program != enumerated
    assert program == without_zeros(enumerated)


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
    """(designee, float primal solve) of each designee's program."""
    rep = build_representative(cfg.weights)
    for d in [None] if cfg.spec.kind == SUM else range(cfg.n):
        yield d, lp.solve(build_pp_pne(cfg, rep, d))


CHECK_CASES = list(check_cases())


def test_certificate_pass_is_feasibility_report_on_dp():
    """The reduced-cost pass gives lp.feasibility_report's (ok, first
    violated label, worst violation) on build_dp_pne, repr for repr, for
    the solved certificate and for certificates with one dual moved by
    -1e-6, 1e-6, -1 or 1 (-1e-6 or 1 in exact arithmetic).  An exact
    configuration is checked at tolerance 0 against the float duals rounded
    to denominators of at most 10^6, and at n = 2 also against its exact
    duals.  Among the moved certificates every kind of first
    violation occurs: a column row, zsum and a sign bound."""
    from poacert.formulations import (
        _certificate_name, _certificate_report, _closed_form, _column_names, _row_table)

    firsts = set()
    for param in CHECK_CASES:
        cfg, exact = param.values
        rep = build_representative(cfg.weights)
        columns, names = _closed_form(cfg, rep), _column_names(cfg, rep)
        tol = 0 if exact else FEAS_TOL
        num = (lambda y: F(y).limit_denominator(10**6)) if exact else float
        for d, rp in float_optima(cfg):
            if rp.status != lp.OPTIMAL:
                continue
            objective, rows = _row_table(cfg, *columns, d)
            dp = build_dp_pne(cfg, rep, d)
            solved = [[num(rp.duals[label]) for label, *_ in rows]]
            if exact and cfg.n == 2:
                exact_rp = lp.solve(build_pp_pne(cfg, rep, d), exact=True)
                solved.append([exact_rp.duals[label] for label, *_ in rows])
            moved = []
            for i in range(len(rows)):
                for delta in (F(-1, 10**6), 1) if exact else (F(-1, 10**6), F(1, 10**6), -1, 1):
                    duals = list(solved[0])
                    duals[i] += num(delta)
                    moved.append(duals)
            for k, duals in enumerate(solved + moved):
                cert = {_certificate_name(label): y for (label, *_), y in zip(rows, duals)}
                want = lp.feasibility_report(dp, cert, tol)
                got = _certificate_report(names, objective, rows, duals, tol)
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
        for d, rp in float_optima(cfg):
            if rp.status != lp.OPTIMAL:
                continue
            program = build_pp_pne(cfg, rep, d)
            solved = {v: num(x) for v, x in rp.primal.items()}
            points = [solved, {v: 2 * x for v, x in solved.items()}]
            if d is not None:
                points.append({**solved, "t": solved["t"] * num(1.5)})
            for delta in (1e-12, -1e-12, 1e-6, -1e-6, 1, -1):
                v = rng.choice(program.variables)
                points.append({**solved, v: solved[v] + num(delta)})
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


def test_extension_pass_is_feasibility_report_on_dp_cce():
    """verify_extension gives lp.feasibility_report's (ok, first violated
    label, worst violation) on build_dp_cce with every bound free, repr for
    repr, over seeded (model, distribution, o) triples of the check
    configurations with n <= 3: for the solved certificate (rounded to
    denominators of at most 10^6 for an exact configuration) and for
    certificates with one dual moved by -1e-6, 1e-6, -1 or 1.  Among the
    moved certificates the first violation is a column row and zsum."""
    from poacert.formulations import _certificate_name

    rng = seeded(23)
    firsts = set()
    for param in CHECK_CASES:
        cfg, exact = param.values
        if cfg.n > 3:
            continue
        num = (lambda y: F(y).limit_denominator(10**6)) if exact else float
        for d, rp in float_optima(cfg):
            if rp.status != lp.OPTIMAL:
                continue
            solved = {_certificate_name(label): num(y) for label, y in rp.duals.items()}
            certs = [solved]
            for v in solved:
                certs.append({**solved, v: solved[v] + num(rng.choice((-1e-6, 1e-6, -1, 1)))})
            for _ in range(3):
                model = random_model(rng, cfg.weights)
                profiles = list(model.profiles())
                support = rng.sample(profiles, rng.randrange(1, 4))
                raw = [rng.randrange(1, 6) for _ in support]
                dist = ProfileDistribution(
                    {p: num(F(m, sum(raw))) for p, m in zip(support, raw)})
                o_profile = rng.choice(profiles)
                dp = build_dp_cce(cfg, model, dist, o_profile, d)
                free = lp.LinearProgram(dp.sense, dp.variables, dp.objective, dp.rows,
                                        {v: lp.FREE for v in dp.variables}, dp.name)
                for k, cert in enumerate(certs):
                    report = verify_extension(cfg, cert, model, dist, o_profile, d)
                    got = (report.ok, report.first_violated, report.worst_violation)
                    want = lp.feasibility_report(free, cert, FEAS_TOL)
                    assert repr(got) == repr(want), (param.id, d, k)
                    assert report.rows_checked == len(dp.rows)
                    if k and not report.ok:
                        firsts.add(report.first_violated.split("[")[0])
    assert firsts == {"r", "zsum"}
