"""Solver-level tests: textbook instances, duality, exact arithmetic."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    assert_certified,
    assert_standard_round_trip,
    dict_program,
    g1,
    g1_spec,
    named,
    nonzeros,
    positional,
)
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
    dual_violations,
    dualize,
    feasibility_report,
    solve,
    to_fixed_format,
)

VALUE_RTOL = 1e-7
FEAS_ATOL = 1e-9


def lp_prod_mix():
    # max 3x+2y st x+y<=4, x+3y<=6
    return dict_program(
        MAXIMIZE,
        ["x", "y"],
        {"x": 3, "y": 2},
        [({"x": 1, "y": 1}, LE, 4, "cap"), ({"x": 1, "y": 3}, LE, 6, "labor")],
    )


def test_maximize_basic():
    program = lp_prod_mix()
    r = solve(program)
    assert r.status == OPTIMAL
    assert r.value == pytest.approx(12.0)
    primal = named(program, r.primal)
    assert primal["x"] == pytest.approx(4.0)
    assert primal.get("y", 0) == pytest.approx(0.0)
    # binding row carries the whole objective: cap, then labor
    assert r.duals == pytest.approx((3.0, 0.0))


def test_exact_mode_fractions():
    program = lp_prod_mix()
    r = solve(program, exact=True)
    assert r.status == OPTIMAL
    assert r.value == F(12)
    assert named(program, r.primal)["x"] == F(4)
    assert isinstance(r.value, F)


def free_variable_program():
    """min x + 2z over x + z = 3 and z >= -5, z free: x = 8, z = -5."""
    return dict_program(MINIMIZE, ["x", "z"], {"x": 1, "z": 2},
                        [({"x": 1, "z": 1}, EQ, 3, "bal"), ({"z": 1}, GE, -5, "floor")],
                        bounds={1: FREE})  # z


@pytest.mark.parametrize("exact", [False, True])
def test_minimize_with_free_variable(exact):
    lp = free_variable_program()
    r = solve(lp, exact=exact)
    assert r.status == OPTIMAL
    assert r.exact is exact
    assert r.value == -2
    assert r.primal == {0: 8, 1: -5}
    assert named(lp, r.primal) == {"x": 8, "z": -5}
    assert r.duals == (1, 1)  # bal, floor


def test_infeasible_and_unbounded():
    """Neither holds duals: () in both arithmetics."""
    bad = dict_program(
        MAXIMIZE,
        ["x"],
        {"x": 1},
        [({"x": 1}, LE, 1, "a"), ({"x": 1}, GE, 2, "b")],
    )
    ray = dict_program(MAXIMIZE, ["x"], {"x": 1}, [({"x": -1}, LE, 1, "a")])
    for exact, (program, status) in itertools.product((False, True), ((bad, INFEASIBLE),
                                                                      (ray, UNBOUNDED))):
        r = solve(program, exact)
        assert (r.status, r.duals) == (status, ()), (exact, status)


def test_no_rows():
    lp = dict_program(MAXIMIZE, ["x"], {"x": 1}, [])
    assert solve(lp).status == UNBOUNDED
    lp2 = dict_program(MINIMIZE, ["x"], {"x": 1}, [])
    r = solve(lp2)
    assert r.status == OPTIMAL and r.value == 0.0


def test_double_bounds_and_nonpos():
    # u in [2, 5] is stated by two rows: bounds are sign classes only
    lp = dict_program(
        MAXIMIZE,
        ["u", "v"],
        {"u": 1, "v": 1},
        [({"u": 1, "v": -1}, LE, 10, "r"),
         ({"u": 1}, GE, 2, "u_lo"), ({"u": 1}, LE, 5, "u_hi")],
        bounds={1: (None, 0)},  # v
    )
    r = solve(lp, exact=True)
    assert r.status == OPTIMAL
    primal = named(lp, r.primal)
    assert primal["u"] == F(5)
    assert primal.get("v", 0) == F(0)
    assert r.value == F(5)


def test_beale_cycling_instance():
    # classic degenerate instance; Bland fallback must terminate at 1/20
    lp = dict_program(
        MAXIMIZE,
        ["x1", "x2", "x3", "x4"],
        {"x1": F(3, 4), "x2": -150, "x3": F(1, 50), "x4": -6},
        [
            ({"x1": F(1, 4), "x2": -60, "x3": F(-1, 25), "x4": 9}, LE, 0, "r1"),
            ({"x1": F(1, 2), "x2": -90, "x3": F(-1, 50), "x4": 3}, LE, 0, "r2"),
            ({"x3": 1}, LE, 1, "r3"),
        ],
    )
    r = solve(lp, exact=True)
    assert r.status == OPTIMAL
    assert r.value == F(1, 20)


def duplicated_row():
    """x + y = 2 stated twice, the second time times 2, and x <= 2."""
    return dict_program(
        MAXIMIZE, ["x", "y"], {"x": 1, "y": 1},
        [({"x": 1, "y": 1}, EQ, 2, "e1"), ({"x": 2, "y": 2}, EQ, 4, "e2"),
         ({"x": 1}, LE, 2, "cap")],
    )


def test_redundant_rows_get_consistent_duals():
    r = solve(duplicated_row(), exact=True)
    assert r.status == OPTIMAL
    assert r.value == F(2)
    assert len(r.duals) == 3  # e1, e2, cap
    assert sum(y * rhs for y, rhs in zip(r.duals, (2, 4, 2))) == F(2)
    # float phase 1 drops the copy; the float basis is read without it
    assert r.fallback is None and r.duals[1] == 0


# the row duals of hand programs, row by row, as a label-keyed map held
# them, and whether they are the program's one optimal dual
PINNED_DUALS = {
    "prod-mix": (lp_prod_mix, (3, 0), True),  # cap, labor
    "free": (free_variable_program, (1, 1), True),  # bal, floor
    "duplicated": (duplicated_row, (1, 0, 0), False),  # e1, e2 = 2 e1, cap
    "beale": (lambda: beale(), (0, F(3, 2), F(1, 20)), True),  # r1, r2, r3
}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("case", PINNED_DUALS)
def test_duals_are_a_tuple_of_one_value_per_row_in_row_order(case, exact):
    """An OPTIMAL report's duals are a tuple of len(rows) values in row
    order, each in the arithmetic that answered: the pinned values, and,
    where they are the one optimal dual, the same program with its rows
    reversed has them reversed."""
    build, pinned, unique = PINNED_DUALS[case]
    program = build()
    flipped = dataclasses.replace(
        program, rows=program.rows[::-1],
        coefficients=np.concatenate([program.coefficients[-2::-1], program.coefficients[-1:]]))
    for lp, want in [(program, pinned)] + [(flipped, pinned[::-1])] * unique:
        r = solve(lp, exact=exact)
        assert r.status == OPTIMAL
        assert type(r.duals) is tuple and len(r.duals) == len(lp.rows)
        assert r.duals == (want if exact else tuple(map(float, want)))
        assert all(type(y) is (F if exact else float) for y in r.duals)


@pytest.mark.parametrize("key", ["x", "y", True, 2, -1, 0.0, None])
def test_a_bound_key_that_is_no_position_is_refused(key):
    """Bounds are keyed by the variable's position: a name, a bool, a
    float or an int out of range is a ValueError that names the key, both
    in a program's bounds and in bound()."""
    rows, coefficients = [Row(LE, 1, "r")], np.ones((2, 2))
    with pytest.raises(ValueError, match=f"bound key {key!r} is not a variable position"):
        LinearProgram(MAXIMIZE, ["x", "y"], rows, coefficients, {key: FREE})
    program = LinearProgram(MAXIMIZE, ["x", "y"], rows, coefficients, {1: FREE})
    with pytest.raises(ValueError, match=f"bound key {key!r} is not a variable position"):
        program.bound(key)
    assert (program.bound(0), program.bound(1)) == ((0, None), FREE)
    assert (program.neg, program.free) == ([], [1])


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
    dual = dualize(lp)
    rd = solve(dual, exact=True)
    assert rd.status == OPTIMAL
    assert rp.value == rd.value  # strong duality, exactly
    # reported duals of the primal solve are optimal for the dual program
    y = named(dual, rd.primal)
    assert sum(y[k] * {"cap": 4, "labor": 6}[k] for k in y) == F(12)


def _random_feasible_lp(rng, m=4, n=5):
    # b chosen as A@x0 + margin so the program is feasible by construction
    names = [f"x{j}" for j in range(n)]
    A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    x0 = [rng.randint(0, 3) for _ in range(n)]
    rows = []
    for i in range(m):
        lhs = sum(A[i][j] * x0[j] for j in range(n))
        rows.append((dict(zip(names, A[i])), LE, lhs + rng.randint(0, 3), f"r{i}"))
    c = {nm: rng.randint(-3, 3) for nm in names}
    # cap the box so everything stays bounded
    rows.append(({nm: 1 for nm in names}, LE, 25, "box"))
    return dict_program(MAXIMIZE, names, c, rows)


def test_strong_duality_random():
    rng = random.Random(20260818)
    for _ in range(60):
        lp = _random_feasible_lp(rng)
        # a float answer's duals have their sign and meet every dual row
        # within RESIDUAL_TOL of 1 + max|y|
        rf = solve(lp)
        assert rf.status == OPTIMAL
        y = rf.duals
        assert min(y) >= 0  # every row is <= in a max program
        assert max(dual_violations(lp, y)) <= linprog.RESIDUAL_TOL * (1 + max(map(abs, y)))
        rp = solve(lp, exact=True)
        assert rp.status == OPTIMAL
        rd = solve(dualize(lp), exact=True)
        assert rd.status == OPTIMAL
        assert rp.value == rd.value
        # weak duality identity on reported duals
        assert sum(y * row.rhs for y, row in zip(rp.duals, lp.rows)) == rp.value
        # complementary slackness
        x = named(lp, rp.primal)
        for i, row in enumerate(lp.rows):
            slack = row.rhs - sum(nonzeros(lp, i).get(v, 0) * x.get(v, 0) for v in lp.variables)
            assert rp.duals[i] * slack == 0 or abs(rp.duals[i] * slack) == 0


def test_float_tracks_exact():
    rng = random.Random(7)
    for _ in range(25):
        lp = _random_feasible_lp(rng, m=3, n=4)
        rf = solve(lp)
        re = solve(lp, exact=True)
        assert rf.status == re.status == OPTIMAL
        assert rf.value == pytest.approx(float(re.value), rel=VALUE_RTOL, abs=1e-9)


@pytest.mark.parametrize("power", [-20, 20])
def test_a_column_times_a_power_of_two_is_read_in_the_program_units(power):
    """Beale's program, the 25 programs of test_float_tracks_exact and an
    unbounded program, with one column times 2**power (the first variable
    of the support, else the first column): the float solve keeps its
    status and value, its point with that variable times 2**power is
    feasible, the scaled variable's value moves by 2**-power when the
    solve ends at the same support (one program has another optimal
    vertex), and every row dual stays within RESIDUAL_TOL of 1 + max|y|.
    The column pass undoes the factor, so _read unscales x_S and checks
    the dual rows on the run's system, where the factor is gone."""
    rng = random.Random(7)
    ray = dict_program(MAXIMIZE, ["x", "y"], {"x": 1, "y": 1}, [({"x": 1, "y": -1}, LE, 1, "a")])
    programs = [beale()] + [_random_feasible_lp(rng, m=3, n=4) for _ in range(25)] + [ray]
    factor = F(2) ** power
    same = 0
    for program in programs:
        before = solve(program)
        v = next(iter(before.primal), 0)  # a position
        coefficients = program.coefficients.copy()
        coefficients[:, v] *= factor
        after = solve(dataclasses.replace(program, coefficients=coefficients))
        assert (after.status, after.fallback) == (before.status, before.fallback)
        if before.status != OPTIMAL:
            assert before.status == UNBOUNDED
            continue
        assert after.value == pytest.approx(before.value, rel=VALUE_RTOL)
        point = {**after.primal, v: after.primal.get(v, 0) * factor}
        assert feasibility_report(program, point, FEAS_ATOL)[0]
        if set(after.primal) == set(before.primal):
            same += 1
            assert after.primal.get(v, 0) == pytest.approx(before.primal.get(v, 0) / factor,
                                                           rel=VALUE_RTOL)
        y = before.duals
        moved = [abs(y_after - y_i) for y_after, y_i in zip(after.duals, y, strict=True)]
        assert max(moved) <= linprog.RESIDUAL_TOL * (1 + max(map(abs, y)))
    assert before.status == UNBOUNDED and same >= 25


class LoopPricing(linprog._Revised):
    """The simplex with its entering column chosen by a plain loop over
    the reduced costs: the reference for the array pricing of
    _Revised.run."""

    def run(self, costs, width, ray_free=False):
        bland = False
        streak = 0
        dead = set()
        while True:
            if self.iterations > self.max_iters:
                raise SolverError(f"iteration cap {self.max_iters} exceeded")
            reduced = self._prices(costs[self.basis] @ self.inverse, costs, width)
            enter = None
            best = -self.tol
            for j in range(width):
                if j in dead or j in self.basis:
                    continue
                if bland and reduced[j] < -self.tol:
                    enter = j
                    break
                if not bland and reduced[j] < best:
                    best = reduced[j]
                    enter = j
            if enter is None:
                return OPTIMAL
            column = self._column(enter)
            leave = self._ratio_row(column, bland)
            if leave is None:
                if ray_free:
                    dead.add(enter)
                    continue
                self.entering = enter
                return UNBOUNDED
            degenerate = self.x[leave] <= self.tol
            self._pivot(leave, enter, column)
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


def beale():
    """Beale's cycling program, in the maximizing form of Chvatal."""
    return dict_program(
        MAXIMIZE, ["x1", "x2", "x3", "x4"],
        {"x1": F(3, 4), "x2": -150, "x3": F(1, 50), "x4": -6},
        [({"x1": F(1, 4), "x2": -60, "x3": F(-1, 25), "x4": 9}, LE, 0, "r1"),
         ({"x1": F(1, 2), "x2": -90, "x3": F(-1, 50), "x4": 3}, LE, 0, "r2"),
         ({"x3": 1}, LE, 1, "r3")],
    )


@pytest.mark.parametrize("streak", [linprog.DEGENERATE_STREAK, 1])
@pytest.mark.parametrize("exact", [False, True])
def test_array_pricing_pivots_like_the_loop(monkeypatch, exact, streak):
    """Same entering columns, so the same pivots: equal iteration counts
    and equal reports, value for value, in both arithmetics.  With a
    streak of 1, Bland's rule takes over after the first degenerate
    pivot, which these programs reach."""
    monkeypatch.setattr(linprog, "DEGENERATE_STREAK", streak)
    programs = pricing_cases() + [beale(), dualize(lp_prod_mix())]
    arrays = [linprog._simplex(p, exact) for p in programs]
    monkeypatch.setattr(linprog, "_Revised", LoopPricing)
    loops = [linprog._simplex(p, exact) for p in programs]
    assert [r.iterations for r in arrays] == [r.iterations for r in loops]
    assert arrays == loops


def tuple_ratio_row(kernel, column, bland=False):
    """The ratio test as a list of (ratio, pivot entry, row) tuples, the
    reference for _Revised._ratio_row's two passes: the least ratio (within
    tol * (1 + |ratio|) in float), then the largest pivot entry and the
    lowest basis index, or under Bland's rule in exact the lowest index."""
    alive = kernel.row_alive
    rows = [(x / a, a, i) for i, (a, x) in enumerate(zip(column.tolist(), kernel.x.tolist()))
            if a > kernel.tol and alive[i]]
    if not rows:
        return None
    best_ratio = min(rows)[0]
    if kernel.exact:
        tied = [t for t in rows if t[0] == best_ratio]
        if bland:
            return min(tied, key=lambda t: kernel.basis[t[2]])[2]
    else:
        slack = kernel.tol * (1 + abs(best_ratio))
        tied = [t for t in rows if t[0] <= best_ratio + slack]
    return max(tied, key=lambda t: (t[1], -kernel.basis[t[2]]))[2]


@pytest.mark.parametrize("bland", [False, True])
@pytest.mark.parametrize("exact", [False, True])
def test_ratio_row_is_the_tuple_reference(exact, bland):
    """Seeded columns and basic values drawn from a few values each, so
    that ratios tie, pivot entries repeat and entries fall below the pivot
    tolerance; in float, some values are moved by less than the tie
    tolerance, planting near ties.  Dead rows and shuffled bases too."""
    rng = random.Random(2029)
    num = F if exact else float
    hits = set()
    for _ in range(400):
        m = rng.randint(1, 9)
        program = LinearProgram(MAXIMIZE, ["x"], [Row(LE, 1, f"r{i}") for i in range(m)],
                                np.ones((m + 1, 1)))
        kernel = linprog._Revised(linprog._system(program, exact))
        kernel.basis = rng.sample(range(3 * m + 1), m)
        kernel.row_alive = [rng.random() < 0.85 for _ in range(m)]
        entries = [num(rng.choice((-1, 0, 1, 1, 2, 2, 4))) for _ in range(m)]
        values = [num(rng.choice((0, 1, 2, 2, 4))) for _ in range(m)]
        if not exact:
            entries = [a + rng.choice((0, 0, 1e-10, 2e-11)) for a in entries]
            values = [x + rng.choice((0, 0, 1e-10, -1e-11)) if x else x for x in values]
        column = np.array(entries, dtype=kernel.T.dtype)
        kernel.x[:] = values
        leave = kernel._ratio_row(column, bland)
        assert leave == tuple_ratio_row(kernel, column, bland)
        if leave is None:
            hits.add("no row")
            continue
        # the rows the reference ties with the row it picks, and their entries
        ratio = values[leave] / entries[leave]
        tied = [a for alive, a, x in zip(kernel.row_alive, entries, values)
                if alive and a > kernel.tol and x / a <= ratio + kernel.tol * (1 + abs(ratio))]
        hits.add("one row" if len(tied) == 1 else "equal entries" if tied.count(max(tied)) > 1
                 else "a tie")
    assert hits == {"no row", "one row", "a tie", "equal entries"}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Route solve's kernel runs through a recorder: a run whose arithmetic
    is in the returned `failing` set raises SolverError, the others go to
    the real kernel.  Each run appends its `exact` flag to `calls`."""
    kernel = linprog._run
    calls, failing = [], set()

    def recorded(lp, exact, objective=None):
        calls.append(exact)
        if exact in failing:
            raise SolverError(f"{'exact' if exact else 'float'} run refused")
        return kernel(lp, exact, objective)

    monkeypatch.setattr(linprog, "_run", recorded)
    return calls, failing


def test_float_failure_is_redone_in_rationals(kernel_calls):
    calls, failing = kernel_calls
    failing.add(False)
    r = solve(lp_prod_mix())
    assert calls == [False, True]
    assert r.status == OPTIMAL
    assert r.exact is True
    assert r.fallback == "float run refused"
    assert r.value == F(12) and isinstance(r.value, F)
    assert r.primal == {0: F(4)}  # x


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
    assert calls == [False, True]


def test_exact_answer_is_certified_at_the_float_basis(kernel_calls):
    calls, _ = kernel_calls
    r = solve(lp_prod_mix(), exact=True)
    assert calls == [False]
    assert r.exact is True and r.fallback is None
    assert r.value == F(12) and isinstance(r.value, F)
    assert r.primal == {0: F(4)}  # x
    assert r.duals == (F(3), F(0))  # cap, labor


def test_exact_solve_agrees_with_the_rational_simplex():
    """Certified at the float basis or repaired, an exact solve has the
    status and value of a cold rational run, on programs with free and
    <= 0 variables, >= and = rows, degenerate pivots and unbounded rays."""
    ray = dict_program(MINIMIZE, ["x", "y"], {"x": 1, "y": -1},
                       [({"x": 1, "y": -2}, LE, 3, "a"), ({"x": 1}, EQ, 2, "b")],
                       bounds={1: FREE})  # y
    void = dict_program(MAXIMIZE, ["x"], {"x": 1},
                        [({"x": 1}, LE, 1, "a"), ({"x": 1}, GE, 2, "b")])
    # x >= 1: the float run stops with the row's slack entering
    slack_ray = dict_program(MAXIMIZE, ["x"], {"x": 1}, [({"x": 1}, GE, 1, "a")])
    programs = pricing_cases() + [beale(), dualize(lp_prod_mix()), slack_ray, ray, void]
    reports = [solve(p, exact=True) for p in programs]
    for program, report in zip(programs, reports):
        assert_certified(program, report)
    assert [r.status for r in reports[-3:]] == [UNBOUNDED, UNBOUNDED, INFEASIBLE]
    assert reports[-3].fallback is reports[-2].fallback is None  # the rays are certified
    assert reports[-1].fallback == "float phase 1 found no feasible point"


def test_exact_solve_outside_float_range_goes_to_rationals(kernel_calls):
    calls, _ = kernel_calls
    huge = 10 ** 400
    program = dict_program(MAXIMIZE, ["x"], {"x": 1}, [({"x": huge}, LE, huge, "r")])
    r = solve(program, exact=True)
    assert calls == [False, True]
    assert r.fallback.startswith("float image:")
    assert (r.status, r.value, r.primal) == (OPTIMAL, F(1), {0: F(1)})


@pytest.mark.parametrize("status, check", [(OPTIMAL, "dual row x is violated"),
                                           (UNBOUNDED, "entering x meets a row")])
def test_float_basis_that_fails_its_check_is_repaired(monkeypatch, status, check):
    """A float phase 2 that stops at its first basis, calling it OPTIMAL,
    or UNBOUNDED along the first improving column, fails the exact check
    named, and the rational simplex answers."""
    run = linprog._Revised.run

    def stop_at_once(self, costs, width, ray_free=False):
        if self.exact or ray_free:
            return run(self, costs, width, ray_free)
        reduced = self._prices(costs[self.basis] @ self.inverse, costs, width)
        self.entering = int(np.flatnonzero(reduced < 0)[0])
        return status

    monkeypatch.setattr(linprog._Revised, "run", stop_at_once)
    r = solve(lp_prod_mix(), exact=True)
    assert r.fallback.startswith(check)
    assert r == linprog.SolveReport(OPTIMAL, F(12), {0: F(4)}, (F(3), F(0)), 1, True,
                                    r.fallback)


def falling_ray():
    # max -x st -x <= 1: x may grow without end, but the objective falls
    return dict_program(MAXIMIZE, ["x"], {"x": -1}, [({"x": -1}, LE, 1, "a")])


HAND_BASES = {
    "point": (lp_prod_mix, [0, 2], None, "row cap is violated by 2$"),
    "sign": (lp_prod_mix, [0, 1], None, "row dual of labor has the wrong sign"),
    "dual-row": (lp_prod_mix, [2, 3], None, "dual row x is violated"),
    "no-ray": (lp_prod_mix, [2, 3], 0, "entering x meets a row"),
    "no-gain": (falling_ray, [1], 0, "entering x does not improve"),
    "optimal": (lp_prod_mix, [0, 3], None, None),
}


@pytest.mark.parametrize("program, basis, entering, check, exact", [
    pytest.param(*case, exact, id=label if exact else f"{label}-float")
    for exact in (True, False) for label, case in HAND_BASES.items()])
def test_certify_checks_the_basis_exactly(program, basis, entering, check, exact):
    """_read on hand-picked bases, by standard number: columns x, y, then
    the slacks; prod-mix's optimal basis is x and labor's slack.  Each
    check fails with the same message in both arithmetics."""
    program = program()
    stop = linprog._Stop(OPTIMAL if entering is None else UNBOUNDED, basis, entering,
                         linprog.KernelStats(), linprog._Region(program, exact))
    if check is not None:
        with pytest.raises(SolverError, match=check):
            linprog._read(stop, exact)
        return
    r = linprog._read(stop, exact)
    assert r.exact is exact
    assert (r.value, r.primal, r.duals) == (F(12), {0: F(4)}, (F(3), F(0)))


REFUSED_BASES = {
    # x twice: the block K is singular, to np.linalg in float and to the
    # elimination over Fractions
    "repeated": ([0, 0], None, "^basis is singular$"),
    # the slack and the artificial of cap: labor is the one row left, and
    # no structural column meets it
    "unit-pair": ([2, 4], None, "^basis is singular$"),
    # at the optimal basis cap's slack enters, and x falls along its ray
    "slack-ray": ([0, 3], 2, "^entering the slack of cap meets a row: no ray$"),
}


@pytest.mark.parametrize("basis, entering, check, exact", [
    pytest.param(*case, exact, id=label if exact else f"{label}-float")
    for exact in (True, False) for label, case in REFUSED_BASES.items()])
def test_a_refused_basis_names_its_fault(basis, entering, check, exact):
    """_read on prod-mix at bases no run of the kernel reaches: each
    refusal gives the same message in both arithmetics, and one whose
    entering column is a slack names that slack by its row."""
    stop = linprog._Stop(OPTIMAL if entering is None else UNBOUNDED, basis, entering,
                         linprog.KernelStats(), linprog._Region(lp_prod_mix(), exact))
    with pytest.raises(SolverError, match=check):
        linprog._read(stop, exact)


def test_the_iteration_cap_stops_both_runs(monkeypatch):
    """Under a cap of 0 pivots the float run raises, the rational run it
    falls back to raises too, and solve raises its message."""
    init = linprog._Revised.__init__

    def capped(self, system):
        init(self, system)
        self.max_iters = 0

    monkeypatch.setattr(linprog._Revised, "__init__", capped)
    with pytest.raises(SolverError, match="^iteration cap 0 exceeded$"):
        solve(lp_prod_mix())


@pytest.mark.parametrize("excess, value", [(1e-6, 13.048576), (1e-5, 26.97152)])
def test_float_dual_rows_are_checked_on_the_run_system(excess, value):
    """Prod-mix with y's column times 2**-20 and y's cost above its dual
    row by excess, read at the basis of x and labor's slack (x = 4, value
    12).  On the run's system y's column is divided by its largest entry,
    3 * 2**-20, and its dual row with it, so the float reading refuses the
    basis at both excesses, though at 1e-6 the program's own dual row, as
    dual_violations gives it, is within RESIDUAL_TOL of 1 + max|y| (here
    4e-6).  solve goes on to the optimum, where y is basic."""
    program = lp_prod_mix()
    program.coefficients[:, 1] *= F(1, 2**20)
    program.coefficients[-1, 1] = F(3, 2**20) + excess
    stop = linprog._Stop(OPTIMAL, [0, 3], None, linprog.KernelStats(),
                         linprog._Region(program, False))
    tol = linprog.RESIDUAL_TOL * (1 + 3)  # y = (3, 0)
    assert (max(dual_violations(program, [3, 0])) > tol) is (excess > 1e-6)
    with pytest.raises(SolverError, match="dual row y is violated"):
        linprog._read(stop, False)
    assert solve(program).value == pytest.approx(value, rel=VALUE_RTOL)


def test_iterations_count_the_float_and_the_rational_pivots(monkeypatch):
    program = beale()
    pivots = [linprog._simplex(program, exact).iterations for exact in (False, True)]
    read = linprog._read

    def refuse(stop, exact):
        if not stop.region.system.std.exact:
            raise SolverError("refused")
        return read(stop, exact)

    monkeypatch.setattr(linprog, "_read", refuse)
    r = solve(program, exact=True)
    assert (r.fallback, r.iterations) == ("refused", sum(pivots))
    assert min(pivots) > 0
    # the counts of both runs are summed too
    assert r.stats == linprog.KernelStats(phase2_pivots=sum(pivots), degenerate_pivots=2)


@pytest.mark.parametrize("exact", [False, True])
def test_stats_count_what_the_kernel_did(monkeypatch, exact):
    """Beale's program takes one degenerate pivot of its two in phase 2;
    with a DEGENERATE_STREAK of 1, Bland's rule takes over after it.  On
    the duplicated row, phase 1 drops the copy.  stats takes no part in
    == or repr."""
    r = solve(beale(), exact)
    assert r.stats == linprog.KernelStats(phase2_pivots=2, degenerate_pivots=1)
    assert "stats" not in repr(r) and r == dataclasses.replace(r, stats=None)
    monkeypatch.setattr(linprog, "DEGENERATE_STREAK", 1)
    r = solve(beale(), exact)
    assert r.stats == linprog.KernelStats(phase2_pivots=2, degenerate_pivots=1, bland_switches=1)
    r = solve(duplicated_row(), exact)
    assert r.stats.dropped_rows == 1
    assert r.stats.phase1_pivots + r.stats.phase2_pivots == r.iterations > 0


def test_float_callers_get_the_rational_retry(kernel_calls):
    # worst_cce has no fallback of its own; the hand value on g1 is 3
    _, failing = kernel_calls
    failing.add(False)
    report = oracle.worst_cce(g1(exact=False), g1_spec(exact=False))
    assert report.value == 3


def test_validation_errors():
    with pytest.raises(ValueError, match="objective references undeclared variable 'y'"):
        dict_program(MAXIMIZE, ["x"], {"y": 1}, [({"y": 1}, LE, 0, "r")])
    with pytest.raises(ValueError, match="row 'r' references undeclared variable 'y'"):
        dict_program(MAXIMIZE, ["x"], {"x": 1}, [({"y": 1}, LE, 0, "r")])
    with pytest.raises(ValueError):
        dict_program(MAXIMIZE, ["x", "x"], {}, [])
    with pytest.raises(ValueError):
        dict_program(MAXIMIZE, ["x"], {}, [({"x": 1}, "<", 0, "r")])
    with pytest.raises(ValueError):
        dict_program(
            MAXIMIZE, ["x"], {}, [({"x": 1}, LE, 0, "r"), ({"x": 1}, LE, 1, "r")]
        )
    with pytest.raises(ValueError):
        dict_program(MAXIMIZE, ["x"], {}, [], bounds={"x": (3, 1)})


def test_integer_coefficient_arrays_are_rejected():
    """Read against an int64 array, the point of feasibility_report and the
    duals of dual_violations would be cast to int: x + y <= 1 would hold at
    x = y = 0.6, and its dual rows at y = 0.5 would be violated by 1."""
    rows = [Row(LE, 1, "r")]
    with pytest.raises(ValueError, match="dtype int64, not float64 or object"):
        LinearProgram(MAXIMIZE, ["x", "y"], rows, np.ones((2, 2), dtype=np.int64))
    program = LinearProgram(MAXIMIZE, ["x", "y"], rows, np.ones((2, 2)))
    assert feasibility_report(program, {0: 0.6, 1: 0.6}, FEAS_ATOL) == (
        False, "r", pytest.approx(0.2))
    assert dual_violations(program, [0.5]).tolist() == [0.5, 0.5]


@pytest.mark.parametrize("bound", [(2, 5), (1, 1), (0, 5), (1, None), (None, 3)])
def test_bounds_other_than_sign_classes_are_rejected(bound):
    with pytest.raises(ValueError, match="variables are >= 0, <= 0 or free"):
        dict_program(MAXIMIZE, ["x"], {}, [], bounds={"x": bound})


def test_bounds_given_as_lists_are_tuples():
    lp = dict_program(MAXIMIZE, ["x", "y"], {}, [], bounds={"x": [None, 0], "y": [None, None]})
    assert lp.bounds == {0: (None, 0), 1: FREE}
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
    for i, row in enumerate(lp.rows):
        lhs = sum(a * point.get(v, 0) for v, a in nonzeros(lp, i).items())
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
    for j, var in enumerate(lp.variables):
        lo, hi = lp.bound(j)
        x = point.get(var, 0)
        for v in ((lo - x) if lo is not None else 0, (x - hi) if hi is not None else 0):
            if v > worst:
                worst = v
            if v > tol and first is None:
                first = f"bound[{var}]"
    return first is None, first, worst


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_rows_add_in_array_order_with_one_rounding_per_addition(exact):
    """1e16 x + y - 1e16 z at (1, 1, 1): in float, 1e16 + 1 rounds back to
    1e16 and the lhs is 0; exactly, it is 1.  As a primal row <= 1/2 the
    row holds in float and fails by 1/2 exactly.  As the dual row of a
    >= 0 variable of a max program, the same terms read >= 1/2, and the
    verdicts swap.  A compensated or reordered sum would give 1 in float."""
    num = F if exact else float
    terms = [num(10**16), num(1), num(-10**16)]
    dtype = object if exact else np.float64
    row = LinearProgram(MAXIMIZE, ["x", "y", "z"], [Row(LE, num(F(1, 2)), "r")],
                        np.array([terms, [0, 0, 0]], dtype=dtype))
    column = LinearProgram(MAXIMIZE, ["v"], [Row(LE, 0, f"r{i}") for i in range(3)],
                           np.array([[c] for c in terms + [num(F(1, 2))]], dtype=dtype))
    ones = [num(1)] * 3
    report = feasibility_report(row, dict(enumerate(ones)), 0)
    violation = dual_violations(column, ones).tolist()
    if exact:
        assert repr(report) == repr((False, "r", F(1, 2)))
        assert repr(violation) == repr([F(-1, 2)])
    else:
        assert report == (True, None, 0)
        assert repr(violation) == repr([0.5])


@pytest.mark.parametrize("block", [1, 2, 5, linprog._BLOCK])
def test_combination_is_the_sum_in_row_order_at_every_block_size(monkeypatch, block):
    """_combination against a plain loop, repr for repr: each entry summed
    from 0 over the rows in order, a term skipped where its slice entry is
    0.  Float arrays, wide and tall (a transposed program), take scalars
    of every kind (0.0, -0.0, inf, nan); exact ones take Fractions, and
    zero scalars, whose terms make a sum a Fraction.  The blocks the rows
    are summed in, each starting from the sum so far, change no bit."""
    monkeypatch.setattr(linprog, "_BLOCK", block)
    rng = random.Random(55)
    for rows, cols in ((4, 9), (9, 4), (1, 3), (12, 1), (10, 2)):
        for exact in (False, True):
            if exact:
                values = [0, 0, F(1, 3), F(-5, 7), 2, F(10**16)]
                scalars = [F(rng.randint(-4, 4), 3) for _ in range(rows)]
            else:
                values = [0.0, 0.0, 1e16, 1.0, -1e16, 0.1, -3.5, 2.0**-60]
                scalars = [0.0, -0.0, float("inf"), float("nan")][:rows]
                scalars += [rng.randint(-4, 4) / 3 for _ in range(rows - len(scalars))]
                rng.shuffle(scalars)
            table = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
            want = []
            for j in range(cols):
                total = 0 if exact else 0.0
                for row, scalar in zip(table, scalars):
                    if row[j] != 0:
                        total = total + row[j] * scalar
                want.append(total)
            slices = np.array(table, dtype=object if exact else np.float64)
            with np.errstate(invalid="ignore"):  # inf - inf is nan, as in the loop
                got = linprog._combination(slices, scalars).tolist()
            assert repr(got) == repr(want), (rows, cols, exact)


def test_a_point_is_read_by_position():
    """feasibility_report reads a point {j: x}, j the index into the
    program's variables, as solve reports one; a key that is no position,
    a variable's name included, is ignored."""
    program = lp_prod_mix()
    assert feasibility_report(program, {0: 5}, FEAS_ATOL) == (False, "cap", 1)
    ignored = {"x": 5, 2: 5, -1: 5, 0.5: 5}
    assert feasibility_report(program, ignored, FEAS_ATOL) == (True, None, 0)


def test_a_nan_entry_is_a_violation():
    """No tolerance admits a nan: a nan entry makes the first row it
    reaches fail, and the worst violation is nan."""
    ok, label, worst = feasibility_report(lp_prod_mix(), {0: float("nan")}, FEAS_ATOL)
    assert (ok, label, np.isnan(worst)) == (False, "cap", True)


def test_a_row_that_reads_nan_is_violated():
    """x0 - x1 <= 1 at x0 = x1 = inf: its lhs inf - inf is nan, and the
    point is refused."""
    program = LinearProgram(MAXIMIZE, ["x0", "x1"], [Row(LE, 1.0, "r")],
                            np.array([[1.0, -1.0], [0.0, 0.0]]))
    with np.errstate(invalid="ignore"):  # inf - inf is nan
        ok, label, worst = feasibility_report(program, {0: float("inf"), 1: float("inf")},
                                              FEAS_ATOL)
    assert (ok, label, np.isnan(worst)) == (False, "r", True)


def test_the_fold_names_the_first_failure_and_the_worst_violation():
    """_fold over a list keeps each entry's type: the first index not <=
    tol, nan included, and the first largest positive entry (nan when one
    is nan, 0 when none is positive)."""
    nan = float("nan")
    assert repr(linprog._fold([F(1, 2), 0.5, -1, 0.25], 0.3)) == repr((0, F(1, 2)))
    assert repr(linprog._fold([-1, 0.0, -0.5], 0)) == repr((None, 0))
    assert repr(linprog._fold(np.array([0.1, 2.0, 2.0]), 1.0)) == repr((1, 2.0))
    first, worst = linprog._fold([0.0, 5, nan, 7], 1)
    assert first == 1 and np.isnan(worst)
    assert repr(linprog._fold([], 0)) == repr((None, 0))


def _three_pass_fold(violations, tol):
    """The fold before its one-reduction path: nan, argmax, then the first
    violation, over every input."""
    v = violations if isinstance(violations, np.ndarray) else np.array(violations, dtype=object)
    nan = (v != v).nonzero()[0]
    k = nan[0] if len(nan) else v.argmax() if len(v) else None
    worst = 0 if k is None or v[k] <= 0 else v.item(k)
    if k is None or v[k] <= tol:
        return None, worst
    with np.errstate(invalid="ignore"):
        return int((~(v <= tol)).nonzero()[0][0]), worst


def test_the_fold_decides_a_float_array_by_its_largest_entry_as_before():
    """_fold on float arrays, decided by one max() when nothing exceeds tol,
    gives the three-pass fold's (first, worst), types included: arrays
    with a nan, with an entry above tol, of -0.0 and 0.0, empty, and
    seeded ones of mixed sign."""
    nan = float("nan")
    rng = random.Random(9191)
    cases = [[], [-0.0], [-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0], [1e-7, -2.0],
             [0.5, nan, 0.1], [nan], [-1.0, 0.3, 2.0, 2.0], [0.25, 0.25]]
    cases += [[rng.choice((-1.0, -0.0, 0.0, 1e-9, 0.2, 0.4)) for _ in range(rng.randint(1, 6))]
              for _ in range(200)]
    for values in cases:
        for tol in (0, 1e-9, 0.3, 1.0):
            v = np.array(values, dtype=np.float64)
            want = _three_pass_fold(v, tol)
            got = linprog._fold(v, tol)
            assert repr(got) == repr(want), (values, tol)


def test_feasibility_report_matches_a_reference_loop():
    """Seeded programs over >= 0, <= 0 and free variables, at points in
    float, Fraction and int arithmetic (some variables absent), and at the
    same points with each value's type drawn from the three, checked at
    three tolerances: the same (ok, first, worst), repr for repr.  A float
    program is also checked as a float64 array.  Rows and bounds both come
    first among the violations."""
    rng = random.Random(2026)
    firsts = set()
    for case in range(150):
        n, m = rng.randint(1, 4), rng.randint(0, 4)
        names = [f"x{j}" for j in range(n)]
        bounds = {v: rng.choice((FREE, (None, 0))) for v in names if rng.random() < 0.6}
        kind = case % 3
        num = [lambda c: c / 4, lambda c: F(c, 4), lambda c: c][kind]
        rows = [({v: num(rng.randint(-4, 4)) for v in names if rng.random() < 0.8},
                    rng.choice((LE, GE, EQ)), num(rng.randint(-4, 4)), f"r{i}")
                for i in range(m)]
        lp = dict_program(MAXIMIZE, names, {}, rows, bounds=bounds)
        programs = [lp]
        if kind == 0:
            programs.append(dataclasses.replace(lp, coefficients=lp.coefficients.astype(np.float64)))
        point = {v: num(rng.randint(-8, 8)) for v in names if rng.random() < 0.8}
        types = random.Random(case)
        mixed = {v: types.choice((float, F, lambda c: c))(x) for v, x in point.items()}
        for program, at, tol in itertools.product(programs, (point, mixed), (0, 1e-9, 0.5)):
            got = feasibility_report(program, positional(program, at), tol)
            assert repr(got) == repr(_reference_feasibility_report(program, at, tol)), (case, tol)
            if not got[0]:
                firsts.add(got[1][0])
    assert firsts == {"r", "b"}


def test_standard_columns_round_trip_a_point():
    """On seeded programs over >= 0, <= 0 and free variables in float,
    Fraction and int arithmetic, drawn as the feasibility corpus is, the
    standard columns and recover agree with the layout at a point of each
    program."""
    rng = random.Random(32)
    for case in range(150):
        n, m = rng.randint(1, 4), rng.randint(0, 4)
        names = [f"x{j}" for j in range(n)]
        bounds = {v: rng.choice((FREE, (None, 0))) for v in names if rng.random() < 0.6}
        num = [lambda c: c / 4, lambda c: F(c, 4), lambda c: c][case % 3]
        rows = [({v: num(rng.randint(-4, 4)) for v in names if rng.random() < 0.8},
                 rng.choice((LE, GE, EQ)), num(rng.randint(-4, 4)), f"r{i}")
                for i in range(m)]
        objective = {v: num(rng.randint(-4, 4)) for v in names}
        assert_standard_round_trip(dict_program(MAXIMIZE, names, objective, rows, bounds), rng)


@pytest.mark.parametrize("exact", [False, True])
def test_a_refusal_names_the_free_variable_of_a_negative_part(exact):
    """x and y are free around a >= 0, so x's negative part is standard
    column 3, after all three variables.  A basis of that column alone
    puts it at -1 on the row x + a + y = 1, and the reading names x."""
    program = dict_program(MAXIMIZE, ["x", "a", "y"], {},
                           [({"x": 1, "a": 1, "y": 1}, EQ, 1, "r")], {"x": FREE, "y": FREE})
    stop = linprog._Stop(OPTIMAL, [3], None, linprog.KernelStats(),
                         linprog._Region(program, False))
    with pytest.raises(SolverError, match="^basic x is -1$"):
        linprog._read(stop, exact)
