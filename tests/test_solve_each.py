"""lp.solve_each: several objectives over one program's rows, one float
standard form and one phase 1 for all of them, each later objective's
phase 2 starting at the basis where the previous run stopped, each
objective read and falling back on its own, and a fallback dropping the
region.  The first report, and any report after a fallback, must equal a
cold lp.solve of the program with that objective row, counts included;
every other one must have its status and value, with a point and duals
that pass their checks."""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

from poacert import linprog, oracle
from poacert.games import EQ1, FEAS_TOL, MAX, VERBATIM, SocialSpec, identity_matrix
from poacert.linprog import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    MAXIMIZE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    Row,
    solve,
    solve_each,
)
from test_linprog import pricing_cases
from test_oracle import _seeded_games


def _with_objective(program, objective):
    """The program with its objective row replaced, as a cold solve reads it."""
    rows = program.coefficients[:-1]
    objective = np.asarray(objective, dtype=rows.dtype)
    return dataclasses.replace(program, coefficients=np.concatenate([rows, objective[None]]))


def _answer(report):
    return repr((report.status, report.value, report.primal, report.duals, report.exact,
                 report.fallback))


def _count_pivots(monkeypatch):
    """Every _Revised._pivot call, float or rational, appends one entry."""
    pivots = []
    pivot = linprog._Revised._pivot

    def counted(self, r, j, column):
        pivots.append(j)
        return pivot(self, r, j, column)

    monkeypatch.setattr(linprog._Revised, "_pivot", counted)
    return pivots


def assert_answers_as_cold(program, objective, got, cold, exact):
    """got, a solve_each report for objective, has the cold solve's status
    and value (exactly when exact, else to 1e-9 relative), and an OPTIMAL
    one a point that passes feasibility_report and duals of their signs
    that pass dual_violations, with rhs sum the value: at tolerance 0 in
    rationals when exact, at FEAS_TOL in float."""
    assert got.status == cold.status, program.name
    if exact or cold.value is None:
        assert got.value == cold.value, program.name
    else:
        assert got.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12), program.name
    if got.status != OPTIMAL:
        return
    alone = _with_objective(program, objective)
    if exact:
        alone = dataclasses.replace(alone, coefficients=linprog._fractions(alone.coefficients))
    tol = 0 if exact else FEAS_TOL
    duals = got.duals
    assert linprog.feasibility_report(alone, got.primal, tol)[0], program.name
    assert max(linprog.dual_violations(alone, duals).tolist(), default=0) <= tol, program.name
    sign = 1 if program.sense == MAXIMIZE else -1
    assert all(sign * y >= -tol if row.relation == LE else sign * y <= tol
               for row, y in zip(program.rows, duals) if row.relation != EQ), program.name
    bound = sum(F(row.rhs) * F(y) for row, y in zip(program.rows, duals))
    assert abs(bound - F(got.value)) <= F(tol) * (1 + abs(F(got.value))), program.name


def assert_each_is_cold(program, objectives, exact, pivots):
    """solve_each against one cold solve per objective: the first report,
    and one that follows a fallback, is the cold solve's, counts included;
    any other answers as cold (assert_answers_as_cold) and, without a
    fallback of its own, reports no phase-1 pivot, retired column or
    dropped row; the reports' pivots add up to those run."""
    pivots.clear()
    reports = solve_each(program, objectives, exact)
    run = len(pivots)
    colds = [solve(_with_objective(program, c), exact) for c in objectives]
    assert len(reports) == len(objectives)
    for k, (objective, got, cold) in enumerate(zip(objectives, reports, colds)):
        if k == 0 or reports[k - 1].fallback is not None:  # a new region
            assert _answer(got) == _answer(cold), program.name
            assert got.stats == cold.stats and got.iterations == cold.iterations, program.name
            continue
        assert_answers_as_cold(program, objective, got, cold, exact)
        if got.fallback is None:
            assert got.stats.phase1_pivots == got.stats.retired_columns == 0
            assert got.stats.dropped_rows == 0 and got.stats.phase2_pivots == got.iterations
    assert sum(r.iterations for r in reports) == run
    return reports


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_every_coarse_region_solves_as_cold(monkeypatch, exact):
    """The programs worst_cce under max hands to solve_each on the seeded
    games of test_oracle, both predicates, eps 0 and 1/2: each player's
    report is a cold solve's."""
    calls = []
    each = linprog.solve_each

    def recorded(program, objectives, exact=False):
        calls.append((program, objectives, exact))
        return each(program, objectives, exact)

    monkeypatch.setattr(linprog, "solve_each", recorded)
    for _, game, beta in _seeded_games(8, exact):
        if all(b == 0 for row in beta for b in row):
            beta = identity_matrix(game.n, exact)
        for predicate in (EQ1, VERBATIM):
            for eps in (0, F(1, 2) if exact else 0.5):
                try:
                    oracle.worst_cce(game, SocialSpec(MAX, beta), eps, predicate)
                except oracle.GameError:  # an empty coarse set
                    pass
    assert len(calls) == 32
    monkeypatch.setattr(linprog, "solve_each", each)
    pivots = _count_pivots(monkeypatch)
    for program, objectives, flag in calls:
        assert flag is exact and len(objectives) > 1
        assert_each_is_cold(program, objectives, exact, pivots)


def seeded_objectives():
    """(program, objectives) of test_linprog's pricing cases: each case's
    own objective, then three seeded random ones."""
    rng = random.Random(3636)
    for program in pricing_cases():
        width = len(program.variables)
        yield program, [program.coefficients[-1]] + [
            [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(width)]
            for _ in range(3)]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_pricing_cases_with_random_objectives(monkeypatch, exact):
    """test_linprog's pricing cases, each with its own objective and three
    seeded random ones in its arithmetic."""
    pivots = _count_pivots(monkeypatch)
    statuses = set()
    for program, objectives in seeded_objectives():
        reports = assert_each_is_cold(program, objectives, exact, pivots)
        statuses.update(r.status for r in reports)
    assert OPTIMAL in statuses


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_each_run_of_a_region_starts_where_the_last_stopped(monkeypatch, exact):
    """On the pricing cases with their seeded objectives, every phase-2
    run of a kernel after its first starts at the basis where the one
    before it returned, OPTIMAL or UNBOUNDED: no run goes back to phase
    1's basis, and no kernel runs again after a run that raised."""
    runs = {}  # kernel -> [basis on entry, basis on return or None] of each run
    run = linprog._Revised.run

    def recorded(self, costs, width, ray_free=False):
        if ray_free:  # phase 1
            return run(self, costs, width, ray_free)
        record = [self.basis.copy(), None]
        runs.setdefault(self, []).append(record)
        status = run(self, costs, width, ray_free)
        record[1] = self.basis.copy()
        return status

    monkeypatch.setattr(linprog._Revised, "run", recorded)
    broken, chained = [], 0
    for k, (program, objectives) in enumerate(seeded_objectives()):
        runs.clear()
        solve_each(program, objectives, exact)
        for records in runs.values():
            for (_, stopped), (started, _) in zip(records, records[1:]):
                chained += 1
                if started != stopped:
                    broken.append(f"{k}:{program.name}")
    assert not broken, sorted(set(broken))
    assert chained > 0


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_every_objective_has_one_dual_per_row(exact):
    """On the pricing cases with their seeded objectives, and on rows no
    point meets, each report of solve_each holds, when OPTIMAL, a tuple of
    one dual per row in the arithmetic that answered, whose rhs sum in row
    order is the value (exactly in exact), and () otherwise."""
    void = LinearProgram(MAXIMIZE, ["x"], [Row(LE, 1, "a"), Row(GE, 2, "b")],
                         np.array([[1], [1], [0]], dtype=object))
    statuses = set()
    for program, objectives in [*seeded_objectives(), (void, [[1], [-1]])]:
        for report in solve_each(program, objectives, exact):
            statuses.add(report.status)
            if report.status != OPTIMAL:
                assert report.duals == (), program.name
                continue
            assert type(report.duals) is tuple and len(report.duals) == len(program.rows)
            assert all(type(y) is (F if exact else float) for y in report.duals), program.name
            bound = sum(F(row.rhs) * F(y) for row, y in zip(program.rows, report.duals))
            assert abs(bound - F(report.value)) <= (0 if exact else 1e-9 * (1 + abs(bound)))
    assert statuses == {OPTIMAL, UNBOUNDED, INFEASIBLE}


def _two_rows(first, second):
    """Two rows over x and y: x - y R1 1 and x + y R2 1."""
    rows = [Row(first, 1, "a"), Row(second, 1, "b")]
    return LinearProgram(MAXIMIZE, ["x", "y"], rows,
                         np.array([[1, -1], [1, 1], [0, 0]], dtype=object))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_an_infeasible_region_answers_each_objective(monkeypatch, exact):
    """Over x + y <= 1 and x + y >= 2 every objective is INFEASIBLE, as
    cold; in exact each falls back on its own, as solve does, since float
    phase 1 leaves no certificate to read."""
    program = LinearProgram(MAXIMIZE, ["x", "y"], [Row(LE, 1, "a"), Row(GE, 2, "b")],
                            np.array([[1, 1], [1, 1], [0, 0]], dtype=object))
    reports = assert_each_is_cold(program, [[1, 0], [0, 1], [-1, 2]], exact,
                                  _count_pivots(monkeypatch))
    assert {r.status for r in reports} == {INFEASIBLE}
    assert all((r.fallback is None) is not exact for r in reports)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_an_unbounded_objective_among_bounded_ones(monkeypatch, exact):
    """Over x - y <= 1 and x + y >= 1, which needs phase 1: -x - y stops
    at 1, x + y grows without end, x - y stops at 1."""
    reports = assert_each_is_cold(_two_rows(LE, GE), [[-1, -1], [1, 1], [1, -1], [0, 0]], exact,
                                  _count_pivots(monkeypatch))
    assert [r.status for r in reports] == [OPTIMAL, UNBOUNDED, OPTIMAL, OPTIMAL]
    assert [r.value for r in reports] == [-1, None, 1, 0]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_an_objective_out_of_float_range_falls_back_alone(monkeypatch, exact):
    """An objective entry of 10**400 has no float image: that objective
    alone is redone by the rational simplex, with the fallback text a cold
    solve gives, and the objective after it runs in a new float region,
    phase 1 included, as a cold solve."""
    program = _two_rows(LE, EQ)
    reports = assert_each_is_cold(program, [[1, 0], [F(10**400), 1], [0, 1]], exact,
                                  _count_pivots(monkeypatch))
    assert [r.fallback is None for r in reports] == [True, False, True]
    assert reports[1].fallback.startswith("float image: ")
    assert reports[1].exact and reports[1].value == F(10**400)
    assert reports[2].stats.phase1_pivots > 0  # the = row's artificial leaves again


def test_objectives_must_match_the_variables():
    with pytest.raises(ValueError, match="not k by 2 variables"):
        solve_each(_two_rows(LE, GE), [[1, 0, 0]])


def test_worst_cce_under_max_standardizes_its_region_once(monkeypatch):
    """In float, worst_cce under max builds one standard form per call,
    however many players it solves for."""
    systems = []
    system = linprog._system

    def counted(lp, exact):
        systems.append(lp.name)
        return system(lp, exact)

    monkeypatch.setattr(linprog, "_system", counted)
    checked = 0
    for _, game, _ in _seeded_games(6, False):
        systems.clear()
        oracle.worst_cce(game, SocialSpec(MAX, identity_matrix(game.n)))
        assert systems == ["cce_max"]
        checked += game.n
    assert checked > 6
