"""Programs given as one coefficient array against their dict twins.

build_pp_pne hands the closed-form arrays to lp.LinearProgram as its
coefficient array.  The reference builder below names every nonzero entry
as a dict row instead, the way build_pp_pne did before, and conftest's
dict_program places them; the two programs must agree entry by entry, and
every reader of a program (the solver, dualize, build_dp_pne,
to_fixed_format, feasibility_report) must give the same answer, repr for
repr, on both.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import assert_standard_round_trip, dict_program, nonzeros, same_program, seeded
from poacert import linprog as lp
from poacert.formulations import (
    WorstCaseConfig,
    _certificate_program,
    _closed_form,
    build_dp_pne,
    build_pp_pne,
    vname,
)
from poacert.games import FEAS_TOL, MAX, SUM, BasisFunction, SocialSpec
from poacert.representative import build_representative


def _named(names, coeffs):
    flat = coeffs.ravel()
    nz = np.flatnonzero(flat)
    return dict(zip(names[nz].tolist(), flat[nz].tolist()))


def reference_rows(cfg, eq, val, nrm, designated=None):
    """The worst-case program's rows laid out here rather than by
    _primal, each row's entries written out whole over the v columns'
    shape by np.where rather than by np.copyto: (rows, objective), each
    row (label, relation, rhs, entries, coefficient of t), and the
    objective's entries None when the program maximizes t."""
    n, (base, joins, joined) = cfg.n, eq
    eqs = [base[i] if joins is None else np.where(joined[i], joins[i], base[i]) for i in range(n)]
    shape = np.shape(eqs[0])
    rows = [(f"eq[{i}]", lp.LE, 0, eqs[i], 0) for i in range(n)]
    if cfg.spec.kind == SUM:
        rows, objective = rows + [("norm", lp.LE, 1, nrm, 0)], val
    else:
        norms = [(f"norm[{i}]", lp.LE, 1, nrm[i], 0) for i in range(n)]
        vals = [(f"val[{i}]", lp.EQ if i == designated else lp.LE, 0, val[i], -1)
                for i in range(n)]
        rows, objective = (rows + norms, val[0]) if designated is None else (
            rows + vals + norms, None)
    rows = [(label, rel, rhs, np.broadcast_to(a, shape), t) for label, rel, rhs, a, t in rows]
    return rows, None if objective is None else np.broadcast_to(objective, shape)


def reference_pp_pne(cfg, rep, designated=None):
    """build_pp_pne written as dict rows: the closed-form rows laid out by
    reference_rows with every nonzero entry named by vname, then t."""
    rows, objective = reference_rows(cfg, *_closed_form(cfg, rep), designated)
    names = np.array([vname(e, k) for e in rep.model.resources for k in range(len(cfg.basis))],
                     dtype=object)
    dict_rows = [({**_named(names, a), "t": t} if t else _named(names, a), rel, rhs, label)
                 for label, rel, rhs, a, t in rows]
    if cfg.spec.kind == SUM:
        return dict_program(
            lp.MAXIMIZE, names.tolist(), _named(names, objective), dict_rows, name="pp_sum")
    return dict_program(lp.MAXIMIZE, names.tolist() + ["t"], {"t": 1}, dict_rows,
                        name=f"pp_max_d{designated}")


def seeded_classes():
    """n = 2..6, sum and max, float and exact, alpha with signed
    off-diagonal entries, eps in {0, 1/2}; basis {x, x^2} up to n = 4 and
    {x} beyond.  Exact classes stop at n = 3 under max and at n = 5 under
    sum, where one rational solve takes one to two seconds.  Entries are
    sevenths, so float sums round."""
    k = 0
    for n in (2, 3, 4, 5, 6):
        basis = (BasisFunction.monomial(1),) + ((BasisFunction.monomial(2),) if n <= 4 else ())
        for exact in (False, True):
            num = F if exact else float
            for kind in (SUM, MAX):
                if exact and n > (3 if kind == MAX else 5):
                    continue
                for eps in (0, F(1, 2)):
                    rng = seeded(5000 + k)
                    k += 1
                    weights = [num(F(rng.randrange(1, 15), 7)) for _ in range(n)]
                    alpha = [[num(1) if i == j else num(F(rng.randrange(-7, 8), 7))
                              for j in range(n)] for i in range(n)]
                    beta = [[num(F(rng.randrange(0, 8), 7)) for _ in range(n)] for _ in range(n)]
                    beta[0][0] = num(1)
                    cfg = WorstCaseConfig(weights, alpha, SocialSpec(kind, beta), num(eps), basis)
                    arithmetic = "exact" if exact else "float"
                    yield pytest.param(cfg, exact, id=f"n{n}-{arithmetic}-{kind}-eps{eps}")


def designees(cfg):
    return [None] if cfg.spec.kind == SUM else range(cfg.n)


@pytest.mark.parametrize("cfg,exact", list(seeded_classes()))
def test_pp_pne_is_its_dict_reference(cfg, exact):
    """Programs equal entry by entry, and repr-identical solves; an exact
    class is also solved in exact arithmetic, under max for its first
    designee only."""
    rep = build_representative(cfg.weights)
    for d in designees(cfg):
        program, reference = build_pp_pne(cfg, rep, d), reference_pp_pne(cfg, rep, d)
        assert same_program(program, reference)
        assert repr(lp.solve(program)) == repr(lp.solve(reference)), d
        if exact and d in (None, 0):
            assert repr(lp.solve(program, True)) == repr(lp.solve(reference, True)), d


SMALL = [p for p in seeded_classes() if p.values[0].n <= 3]


@pytest.mark.parametrize("cfg,exact", SMALL)
def test_readers_of_array_programs_match_the_dict_reference(cfg, exact):
    """dualize, build_dp_pne, to_fixed_format and feasibility_report give
    the same program, text or report on build_pp_pne as on the reference,
    and the dual programs solve repr for repr in float arithmetic."""
    rep = build_representative(cfg.weights)
    for d in designees(cfg):
        program, reference = build_pp_pne(cfg, rep, d), reference_pp_pne(cfg, rep, d)
        assert lp.to_fixed_format(program) == lp.to_fixed_format(reference)
        dual, dual_ref = lp.dualize(program), lp.dualize(reference)
        assert same_program(dual, dual_ref)
        assert repr(lp.solve(dual)) == repr(lp.solve(dual_ref))
        dp, dp_ref = build_dp_pne(cfg, rep, d), _certificate_program(reference)
        assert same_program(dp, dp_ref)
        assert lp.to_fixed_format(dp) == lp.to_fixed_format(dp_ref)
        rp = lp.solve(program)
        if rp.status != lp.OPTIMAL:
            continue
        cert = dict(enumerate(rp.duals))
        assert repr(lp.feasibility_report(dp, cert, FEAS_TOL)) == repr(
            lp.feasibility_report(dp_ref, cert, FEAS_TOL))
        moved = dict(rp.primal)
        moved[0] = moved.get(0, 0.0) - 1
        for point in (rp.primal, moved, {j: 2 * x for j, x in rp.primal.items()}):
            for tol in (0, 1e-9):
                got = lp.feasibility_report(program, point, tol)
                assert repr(got) == repr(lp.feasibility_report(reference, point, tol))


def _random_program(rng, exact):
    """A seeded program with >= 0, <= 0 and free variables and some zero
    entries, as dict rows, and the same program as a coefficient array."""
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    names = [f"x{j}" for j in range(n)]
    num = (lambda c: F(c, 3)) if exact else (lambda c: c / 3)
    bounds = {j: rng.choice((lp.FREE, (None, 0))) for j in range(n) if rng.random() < 0.5}
    table = [[num(rng.randint(-4, 4)) if rng.random() < 0.7 else num(0) for _ in names]
             for _ in range(m + 1)]
    rows = [(rng.choice((lp.LE, lp.GE, lp.EQ)), num(rng.randint(-4, 4)), f"r{i}")
            for i in range(m)]
    rows.append((lp.LE, num(12), "box"))
    table.insert(m, [num(1)] * n)  # the box row keeps the program bounded
    sense = rng.choice((lp.MAXIMIZE, lp.MINIMIZE))
    dict_rows = [({v: a for v, a in zip(names, coeffs) if a != 0}, rel, rhs, label)
                 for coeffs, (rel, rhs, label) in zip(table, rows)]
    objective = {v: c for v, c in zip(names, table[-1]) if c != 0}
    as_dicts = dict_program(sense, names, objective, dict_rows, bounds)
    array = np.array(table, dtype=object if exact else np.float64)
    as_array = lp.LinearProgram(sense, names, [lp.Row(*row) for row in rows], array, bounds)
    return as_dicts, as_array


def test_array_program_solves_as_its_dict_twin():
    """Over >= 0, <= 0 and free variables, in float and exact arithmetic,
    an array program equals its dict twin entry by entry, solves repr for
    repr, and writes the same fixed-format text and dual."""
    rng = random.Random(18)
    statuses = set()
    for case in range(120):
        exact = case % 2 == 1
        as_dicts, as_array = _random_program(rng, exact)
        assert same_program(as_array, as_dicts)
        report = lp.solve(as_array, exact)
        assert repr(report) == repr(lp.solve(as_dicts, exact)), case
        assert lp.to_fixed_format(as_array) == lp.to_fixed_format(as_dicts)
        assert same_program(lp.dualize(as_array), lp.dualize(as_dicts))
        statuses.add(report.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


# the sign of the dual variable of a row, by the primal's sense and the row's relation
DUAL_SIGN = {(lp.MAXIMIZE, lp.LE): (0, None), (lp.MAXIMIZE, lp.EQ): lp.FREE,
             (lp.MAXIMIZE, lp.GE): (None, 0), (lp.MINIMIZE, lp.GE): (0, None),
             (lp.MINIMIZE, lp.EQ): lp.FREE, (lp.MINIMIZE, lp.LE): (None, 0)}


def test_dualize_keeps_every_bound_at_its_position():
    """On the array corpus, dual variable i is bounded at position i by
    primal row i's relation, and dualize(dualize(lp)) has lp's bounds, neg
    and free, position for position; for the worst-case program of every
    designee of the small seeded classes, _certificate_program's bounds
    are dualize's."""
    rng = random.Random(44)
    seen = set()
    for case in range(120):
        program = _random_program(rng, case % 2 == 1)[1]
        dual = lp.dualize(program)
        signs = [DUAL_SIGN[program.sense, row.relation] for row in program.rows]
        assert [dual.bound(i) for i in range(len(program.rows))] == signs
        twice = lp.dualize(dual)
        assert (twice.bounds, twice.neg, twice.free) == (program.bounds, program.neg, program.free)
        seen.update(program.bounds.values())
    assert seen == {(None, 0), lp.FREE}
    freed = 0
    for param in SMALL:
        cfg = param.values[0]
        rep = build_representative(cfg.weights)
        for d in designees(cfg):
            pp = build_pp_pne(cfg, rep, d)
            assert _certificate_program(pp).bounds == lp.dualize(pp).bounds
            freed += len(lp.dualize(pp).free)
    assert freed > 0


def test_standard_columns_round_trip_a_point():
    """On the array corpus, float and exact, the standard columns and
    recover agree with the layout at a point of each program."""
    rng = random.Random(32)
    for case in range(120):
        assert_standard_round_trip(_random_program(rng, case % 2 == 1)[1], rng)


def test_dual_violations_are_the_rows_of_dualize():
    """lp.dual_violations at row duals gives, value for value and type for
    type, each row's part of lp.feasibility_report on lp.dualize of the
    program, array or dict form: over both senses and >= 0, <= 0 and free
    variables, with float duals on float programs, Fraction duals on
    exact ones and Fraction duals on float ones."""
    rng = random.Random(20)
    seen = set()
    for case in range(150):
        exact, fractions = case % 3 == 1, case % 3 != 0
        as_dicts, as_array = _random_program(rng, exact)
        duals = [F(rng.randint(-6, 6), 4) for _ in as_array.rows]
        if not fractions:
            duals = [float(y) for y in duals]
        violations = lp.dual_violations(as_array, duals).tolist()
        for program in (as_array, as_dicts):
            dual = lp.dualize(program)
            point = dict(enumerate(duals))
            free = dict.fromkeys(range(len(dual.variables)), lp.FREE)
            for j, (row, v) in enumerate(zip(dual.rows, violations)):
                alone = lp.LinearProgram(dual.sense, dual.variables, [row],
                                         dual.coefficients[[j, -1]], free)
                want = (False, row.label, v) if v > 0 else (True, None, 0)
                assert repr(lp.feasibility_report(alone, point, 0)) == repr(want), (case, j)
        seen.add(as_array.sense)
        seen.update(as_array.bound(j) for j in range(len(as_array.variables)))
    assert seen == {lp.MAXIMIZE, lp.MINIMIZE, (0, None), (None, 0), lp.FREE}


def test_coefficient_array_must_be_rows_by_variables():
    rows = [lp.Row(lp.LE, 1, "r")]
    for shape in ((1, 2), (2, 1), (3, 2), (4,)):
        with pytest.raises(ValueError, match="coefficient array of shape"):
            lp.LinearProgram(lp.MAXIMIZE, ["x", "y"], rows, np.ones(shape))
    program = lp.LinearProgram(lp.MAXIMIZE, ["x", "y"], rows, np.ones((2, 2)))
    assert nonzeros(program, 0) == {"x": 1.0, "y": 1.0}
    assert nonzeros(program, -1) == {"x": 1, "y": 1}
