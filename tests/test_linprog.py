"""Solver-level tests: textbook instances, duality, exact arithmetic."""

import random
from fractions import Fraction as F

import pytest

from conftest import g1, g1_spec
from poacert import linprog, oracle
from poacert.linprog import (
    EQ,
    FREE,
    GE,
    INFEASIBLE,
    LE,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    Row,
    SolverError,
    dualize,
    feasibility_report,
    solve,
    to_fixed_format,
)

VALUE_RTOL = 1e-7
FEAS_ATOL = 1e-9


def lp_prod_mix():
    # max 3x+2y st x+y<=4, x+3y<=6
    return LinearProgram(
        MAXIMIZE,
        ["x", "y"],
        {"x": 3, "y": 2},
        [Row({"x": 1, "y": 1}, LE, 4, "cap"), Row({"x": 1, "y": 3}, LE, 6, "labor")],
    )


def test_maximize_basic():
    r = solve(lp_prod_mix())
    assert r.status == OPTIMAL
    assert r.value == pytest.approx(12.0)
    assert r.primal["x"] == pytest.approx(4.0)
    assert r.primal["y"] == pytest.approx(0.0)
    # binding row carries the whole objective
    assert r.duals["cap"] == pytest.approx(3.0)
    assert r.duals["labor"] == pytest.approx(0.0)


def test_exact_mode_fractions():
    r = solve(lp_prod_mix(), exact=True)
    assert r.status == OPTIMAL
    assert r.value == F(12)
    assert r.primal["x"] == F(4)
    assert isinstance(r.value, F)


@pytest.mark.parametrize("exact", [False, True])
def test_minimize_with_free_variable(exact):
    lp = LinearProgram(
        MINIMIZE,
        ["x", "z"],
        {"x": 1, "z": 2},
        [Row({"x": 1, "z": 1}, EQ, 3, "bal"), Row({"z": 1}, GE, -5, "floor")],
        bounds={"z": FREE},
    )
    r = solve(lp, exact=exact)
    assert r.status == OPTIMAL
    assert r.exact is exact
    assert r.value == -2
    assert r.primal == {"x": 8, "z": -5}
    assert r.duals["bal"] == 1
    assert r.duals["floor"] == 1


def test_infeasible_and_unbounded():
    bad = LinearProgram(
        MAXIMIZE,
        ["x"],
        {"x": 1},
        [Row({"x": 1}, LE, 1, "a"), Row({"x": 1}, GE, 2, "b")],
    )
    assert solve(bad).status == INFEASIBLE
    ray = LinearProgram(MAXIMIZE, ["x"], {"x": 1}, [Row({"x": -1}, LE, 1, "a")])
    assert solve(ray).status == UNBOUNDED
    assert solve(ray, exact=True).status == UNBOUNDED


def test_no_rows():
    lp = LinearProgram(MAXIMIZE, ["x"], {"x": 1}, [])
    assert solve(lp).status == UNBOUNDED
    lp2 = LinearProgram(MINIMIZE, ["x"], {"x": 1}, [])
    r = solve(lp2)
    assert r.status == OPTIMAL and r.value == 0.0


def test_double_bounds_and_nonpos():
    # u in [2, 5] is stated by two rows: bounds are sign classes only
    lp = LinearProgram(
        MAXIMIZE,
        ["u", "v"],
        {"u": 1, "v": 1},
        [Row({"u": 1, "v": -1}, LE, 10, "r"),
         Row({"u": 1}, GE, 2, "u_lo"), Row({"u": 1}, LE, 5, "u_hi")],
        bounds={"v": (None, 0)},
    )
    r = solve(lp, exact=True)
    assert r.status == OPTIMAL
    assert r.primal["u"] == F(5)
    assert r.primal["v"] == F(0)
    assert r.value == F(5)


def test_beale_cycling_instance():
    # classic degenerate instance; Bland fallback must terminate at 1/20
    lp = LinearProgram(
        MAXIMIZE,
        ["x1", "x2", "x3", "x4"],
        {"x1": F(3, 4), "x2": -150, "x3": F(1, 50), "x4": -6},
        [
            Row({"x1": F(1, 4), "x2": -60, "x3": F(-1, 25), "x4": 9}, LE, 0, "r1"),
            Row({"x1": F(1, 2), "x2": -90, "x3": F(-1, 50), "x4": 3}, LE, 0, "r2"),
            Row({"x3": 1}, LE, 1, "r3"),
        ],
    )
    r = solve(lp, exact=True)
    assert r.status == OPTIMAL
    assert r.value == F(1, 20)


def test_redundant_rows_get_consistent_duals():
    lp = LinearProgram(
        MAXIMIZE,
        ["x", "y"],
        {"x": 1, "y": 1},
        [
            Row({"x": 1, "y": 1}, EQ, 2, "e1"),
            Row({"x": 2, "y": 2}, EQ, 4, "e2"),  # dependent copy
            Row({"x": 1}, LE, 2, "cap"),
        ],
    )
    r = solve(lp, exact=True)
    assert r.status == OPTIMAL
    assert r.value == F(2)
    assert set(r.duals) == {"e1", "e2", "cap"}
    rhs = {"e1": 2, "e2": 4, "cap": 2}
    assert sum(r.duals[k] * rhs[k] for k in rhs) == F(2)


def test_dualize_shapes_and_involution():
    lp = lp_prod_mix()
    d = dualize(lp)
    assert d.sense == MINIMIZE
    assert d.variables == ("cap", "labor")
    assert [row.label for row in d.rows] == ["x", "y"]
    assert [row.relation for row in d.rows] == [GE, GE]
    dd = dualize(d)
    assert dd.sense == MAXIMIZE
    assert dd.variables == ("x", "y")
    assert solve(dd, exact=True).value == F(12)


def test_dual_values_match_dual_solve():
    lp = lp_prod_mix()
    rp = solve(lp, exact=True)
    rd = solve(dualize(lp), exact=True)
    assert rd.status == OPTIMAL
    assert rp.value == rd.value  # strong duality, exactly
    # reported duals of the primal solve are optimal for the dual program
    assert sum(rd.primal[k] * {"cap": 4, "labor": 6}[k] for k in rd.primal) == F(12)


def _random_feasible_lp(rng, m=4, n=5):
    # b chosen as A@x0 + margin so the program is feasible by construction
    names = [f"x{j}" for j in range(n)]
    A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    x0 = [rng.randint(0, 3) for _ in range(n)]
    rows = []
    for i in range(m):
        lhs = sum(A[i][j] * x0[j] for j in range(n))
        rows.append(Row(dict(zip(names, A[i])), LE, lhs + rng.randint(0, 3), f"r{i}"))
    c = {nm: rng.randint(-3, 3) for nm in names}
    # cap the box so everything stays bounded
    rows.append(Row({nm: 1 for nm in names}, LE, 25, "box"))
    return LinearProgram(MAXIMIZE, names, c, rows)


def test_strong_duality_random():
    rng = random.Random(20260818)
    for _ in range(60):
        lp = _random_feasible_lp(rng)
        rp = solve(lp, exact=True)
        assert rp.status == OPTIMAL
        rd = solve(dualize(lp), exact=True)
        assert rd.status == OPTIMAL
        assert rp.value == rd.value
        # weak duality identity on reported duals
        assert sum(rp.duals[row.label] * row.rhs for row in lp.rows) == rp.value
        # complementary slackness
        for row in lp.rows:
            slack = row.rhs - sum(
                row.coeffs.get(v, 0) * rp.primal[v] for v in lp.variables
            )
            assert rp.duals[row.label] * slack == 0 or abs(rp.duals[row.label] * slack) == 0


def test_float_tracks_exact():
    rng = random.Random(7)
    for _ in range(25):
        lp = _random_feasible_lp(rng, m=3, n=4)
        rf = solve(lp)
        re = solve(lp, exact=True)
        assert rf.status == re.status == OPTIMAL
        assert rf.value == pytest.approx(float(re.value), rel=VALUE_RTOL, abs=1e-9)


class LoopPricing(linprog._Tableau):
    """The simplex with its entering column chosen by a plain loop over
    the columns: the reference for the array pricing of _Tableau.run."""

    def run(self, costs, banned, ray_free=False):
        B = self._reduced_row(costs)
        bland = False
        streak = 0
        dead = set()
        while True:
            if self.iterations > self.max_iters:
                raise SolverError(f"iteration cap {self.max_iters} exceeded")
            enter = None
            best = -self.tol
            for j in range(self.ncols):
                if j in banned or j in dead:
                    continue
                if bland and B[j] < -self.tol:
                    enter = j
                    break
                if not bland and B[j] < best:
                    best = B[j]
                    enter = j
            if enter is None:
                self._B = B
                return OPTIMAL
            leave = self._ratio_row(enter, bland)
            if leave is None:
                if ray_free:
                    dead.add(enter)
                    continue
                self._B = B
                return UNBOUNDED
            degenerate = self.M[leave, -1] <= self.tol
            self._pivot(leave, enter, B)
            streak = streak + 1 if degenerate else 0
            bland = bland or streak >= linprog.DEGENERATE_STREAK


def pricing_cases():
    from poacert.formulations import WorstCaseConfig, build_dp_pne, build_pp_pne
    from poacert.games import MAX, SUM, BasisFunction, SocialSpec, identity_matrix
    from poacert.representative import build_representative

    rng = random.Random(4242)
    programs = [_random_feasible_lp(rng) for _ in range(20)]
    for n, kind, r in ((2, SUM, 1), (2, MAX, 1), (3, SUM, 2)):
        cfg = WorstCaseConfig([F(1)] * n, identity_matrix(n, True),
                              SocialSpec(kind, identity_matrix(n, True)), F(1, 2),
                              [BasisFunction.monomial(k + 1) for k in range(r)])
        rep = build_representative(cfg.weights)
        d = 0 if kind == MAX else None
        programs.append(build_pp_pne(cfg, rep, d))
        if n == 2:  # the n = 3 dual takes a minute in rationals
            programs.append(build_dp_pne(cfg, rep, d))
    return programs


@pytest.mark.parametrize("streak", [linprog.DEGENERATE_STREAK, 1])
@pytest.mark.parametrize("exact", [False, True])
def test_array_pricing_pivots_like_the_loop(monkeypatch, exact, streak):
    """Same entering columns, so the same pivots: equal iteration counts
    and equal reports, value for value, in both arithmetics.  With a
    streak of 1, Bland's rule takes over after the first degenerate
    pivot, which these programs reach."""
    monkeypatch.setattr(linprog, "DEGENERATE_STREAK", streak)
    beale = LinearProgram(
        MAXIMIZE, ["x1", "x2", "x3", "x4"],
        {"x1": F(3, 4), "x2": -150, "x3": F(1, 50), "x4": -6},
        [Row({"x1": F(1, 4), "x2": -60, "x3": F(-1, 25), "x4": 9}, LE, 0, "r1"),
         Row({"x1": F(1, 2), "x2": -90, "x3": F(-1, 50), "x4": 3}, LE, 0, "r2"),
         Row({"x3": 1}, LE, 1, "r3")],
    )
    programs = pricing_cases() + [beale, dualize(lp_prod_mix())]
    arrays = [linprog._simplex(p, exact) for p in programs]
    monkeypatch.setattr(linprog, "_Tableau", LoopPricing)
    loops = [linprog._simplex(p, exact) for p in programs]
    assert [r.iterations for r in arrays] == [r.iterations for r in loops]
    assert arrays == loops


@pytest.fixture
def kernel_calls(monkeypatch):
    """Route solve's kernel runs through a recorder: a run whose arithmetic
    is in the returned `failing` set raises SolverError, the others go to
    the real kernel.  Each run appends its `exact` flag to `calls`."""
    kernel = linprog._simplex
    calls, failing = [], set()

    def recorded(lp, exact):
        calls.append(exact)
        if exact in failing:
            raise SolverError(f"{'exact' if exact else 'float'} run refused")
        return kernel(lp, exact)

    monkeypatch.setattr(linprog, "_simplex", recorded)
    return calls, failing


def test_float_failure_is_redone_in_rationals(kernel_calls):
    calls, failing = kernel_calls
    failing.add(False)
    r = solve(lp_prod_mix())
    assert calls == [False, True]
    assert r.status == OPTIMAL
    assert r.exact is True
    assert r.value == F(12) and isinstance(r.value, F)
    assert r.primal == {"x": F(4), "y": F(0)}


def test_float_success_is_not_redone(kernel_calls):
    calls, _ = kernel_calls
    r = solve(lp_prod_mix())
    assert calls == [False]
    assert r.exact is False


def test_exact_failure_propagates(kernel_calls):
    calls, failing = kernel_calls
    failing.update({False, True})
    with pytest.raises(SolverError, match="exact run refused"):
        solve(lp_prod_mix())
    assert calls == [False, True]
    calls.clear()
    with pytest.raises(SolverError, match="exact run refused"):
        solve(lp_prod_mix(), exact=True)
    assert calls == [True]


def test_float_callers_get_the_rational_retry(kernel_calls):
    # worst_cce has no fallback of its own; the hand value on g1 is 3
    _, failing = kernel_calls
    failing.add(False)
    report = oracle.worst_cce(g1(), g1_spec())
    assert report.value == 3


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(MAXIMIZE, ["x"], {"y": 1}, [])
    with pytest.raises(ValueError):
        LinearProgram(MAXIMIZE, ["x", "x"], {}, [])
    with pytest.raises(ValueError):
        LinearProgram(MAXIMIZE, ["x"], {}, [Row({"x": 1}, "<", 0, "r")])
    with pytest.raises(ValueError):
        LinearProgram(
            MAXIMIZE, ["x"], {}, [Row({"x": 1}, LE, 0, "r"), Row({"x": 1}, LE, 1, "r")]
        )
    with pytest.raises(ValueError):
        LinearProgram(MAXIMIZE, ["x"], {}, [], bounds={"x": (3, 1)})


@pytest.mark.parametrize("bound", [(2, 5), (1, 1), (0, 5), (1, None), (None, 3)])
def test_bounds_other_than_sign_classes_are_rejected(bound):
    with pytest.raises(ValueError, match="variables are >= 0, <= 0 or free"):
        LinearProgram(MAXIMIZE, ["x"], {}, [], bounds={"x": bound})


def test_bounds_given_as_lists_are_tuples():
    lp = LinearProgram(MAXIMIZE, ["x", "y"], {}, [], bounds={"x": [None, 0], "y": [None, None]})
    assert lp.bounds == {"x": (None, 0), "y": FREE}
    assert [row.relation for row in dualize(lp).rows] == [LE, EQ]


def test_fixed_format_export():
    txt = to_fixed_format(lp_prod_mix())
    assert txt.startswith("* problem:")
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", "OBJSENSE"):
        assert section in txt
    # every declared row appears with its relation code
    assert " L  R0000000" in txt
    assert txt.endswith("ENDATA\n")


def _reference_feasibility_report(lp, point, tol):
    """feasibility_report as one hand-written loop over rows, then bounds."""
    first = None
    worst = 0
    for row in lp.rows:
        lhs = sum(a * point.get(v, 0) for v, a in row.coeffs.items())
        if row.relation == LE:
            v = lhs - row.rhs
        elif row.relation == GE:
            v = row.rhs - lhs
        else:
            v = abs(lhs - row.rhs)
        if v > worst:
            worst = v
        if v > tol and first is None:
            first = row.label
    for var in lp.variables:
        lo, hi = lp.bound(var)
        x = point.get(var, 0)
        for v in ((lo - x) if lo is not None else 0, (x - hi) if hi is not None else 0):
            if v > worst:
                worst = v
            if v > tol and first is None:
                first = f"bound[{var}]"
    return first is None, first, worst


def test_feasibility_report_matches_a_reference_loop():
    """Seeded programs over >= 0, <= 0 and free variables, at points in
    float, Fraction and int arithmetic (some variables absent), checked at
    three tolerances: the same (ok, first, worst), repr for repr.  Rows and
    bounds both come first among the violations."""
    rng = random.Random(2026)
    firsts = set()
    for case in range(150):
        n, m = rng.randint(1, 4), rng.randint(0, 4)
        names = [f"x{j}" for j in range(n)]
        bounds = {v: rng.choice((FREE, (None, 0))) for v in names if rng.random() < 0.6}
        kind = case % 3
        num = [lambda c: c / 4, lambda c: F(c, 4), lambda c: c][kind]
        rows = [Row({v: num(rng.randint(-4, 4)) for v in names if rng.random() < 0.8},
                    rng.choice((LE, GE, EQ)), num(rng.randint(-4, 4)), f"r{i}")
                for i in range(m)]
        lp = LinearProgram(MAXIMIZE, names, {}, rows, bounds=bounds)
        point = {v: num(rng.randint(-8, 8)) for v in names if rng.random() < 0.8}
        for tol in (0, 1e-9, 0.5):
            got = feasibility_report(lp, point, tol)
            assert repr(got) == repr(_reference_feasibility_report(lp, point, tol)), (case, tol)
            if not got[0]:
                firsts.add(got[1][0])
    assert firsts == {"r", "b"}
