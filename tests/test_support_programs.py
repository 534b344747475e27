"""Solve and extract touch only the support.

lp.solve reports the nonzero variables alone, keyed by position; the
representative programs name their 4^n r columns on demand, so a solve,
an extraction and a whole-primal check format no name; _mask_factors
evaluates only the masks it is given, while a
lookup table is still read at every load of the class; and the float
system and the closed-form program are written without a temporary the
size of their coefficient array.  The references are the full name list
of test_mask_native and the expressions the code used before.
"""

import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from poacert import formulations
from poacert import linprog as lp
from poacert.formulations import (
    FEAS_TOL,
    WorstCaseConfig,
    _mask_factors,
    build_pp_pne,
    extract_worst_game,
    lemma1_witness,
    vname,
)
from poacert.games import (
    EQ1,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    GameError,
    SocialSpec,
    identity_matrix,
)
from poacert.oracle import worst_cce
from poacert.representative import build_representative
from conftest import column
from test_array_programs import designees, seeded_classes
from test_cost_table import corpus
from test_mask_native import reference_column_names

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "poabench"))
import workloads  # noqa: E402

X = BasisFunction.monomial(1)
X2 = BasisFunction.monomial(2)


def unit_class(n, r, kind):
    eye = identity_matrix(n)
    return WorstCaseConfig((1,) * n, eye, SocialSpec(kind, eye), 0, (X, X2, X)[:r])


def heavy_class():
    """n = 8, r = 1, sum, float weights 1, 3, 3, 1, 2, 3, 2, 3: a 10 x 4^8
    float coefficient array of 5.0 MiB."""
    eye = identity_matrix(8, False)
    weights = (1.0, 3.0, 3.0, 1.0, 2.0, 3.0, 2.0, 3.0)
    return WorstCaseConfig(weights, eye, SocialSpec(SUM, eye), 0.0, (X,))


# ============================================================
# names on demand
# ============================================================


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("kind", [SUM, MAX])
def test_column_names_are_the_reference_list(n, r, kind):
    cfg = unit_class(n, r, kind)
    program = build_pp_pne(cfg, build_representative(cfg.weights), None if kind == SUM else 0)
    want = reference_column_names(cfg) + ([] if kind == SUM else ["t"])
    got = list(program.variables)
    assert got == want
    assert len(program.variables) == len(want) == len(set(got))
    assert [program.variables[j] for j in (0, -1, len(want) // 2)] == \
        [want[j] for j in (0, -1, len(want) // 2)]
    with pytest.raises(IndexError):
        program.variables[len(want)]


def test_a_frontier_job_formats_no_name(monkeypatch):
    """An n = 6 max witness-frontier job (build, solve, extract) formats
    none of its 4^6 = 4,096 column names: the point is keyed by position
    from the solve to the extraction."""
    job = next(j for j in workloads.witness_frontier(random.Random("witness-frontier:2026"))
               if j.cfg.n == 6 and j.cfg.spec.kind == MAX)
    formatted = []

    def counted(e, k):
        formatted.append((e, k))
        return vname(e, k)

    monkeypatch.setattr(formulations, "vname", counted)
    rep, sol, game = job.run()
    monkeypatch.undo()
    assert not job.check((rep, sol, game))
    assert sol.primal and formatted == []


def _whole_primal():
    """(cfg, rep, program) of the whole n = 8, r = 3 sum primal."""
    eye = identity_matrix(8, False)
    cfg = WorstCaseConfig((1.0, 3.0, 3.0, 1.0, 2.0, 3.0, 2.0, 3.0), eye, SocialSpec(SUM, eye),
                          0.0, (X, X2, BasisFunction.monomial(3)))
    rep = build_representative(cfg.weights)
    program = build_pp_pne(cfg, rep)
    assert len(program.variables) == 4**8 * 3
    return cfg, rep, program


def test_the_whole_primal_is_checked_without_a_name(monkeypatch):
    """feasibility_report of the whole n = 8, r = 3 sum primal (196,608
    columns) at lemma1_witness formats no column name (_ColumnNames
    raises if one is read), and it reads only the point's support: its
    peak allocation under tracemalloc stays below 0.1 MB, where a list of
    one value per column takes megabytes."""
    cfg, rep, program = _whole_primal()

    def unread(self, j):
        raise AssertionError(f"column name {j} formatted")

    monkeypatch.setattr(formulations._ColumnNames, "__getitem__", unread)
    witness = lemma1_witness(cfg, rep)
    tracemalloc.start()
    try:
        report = lp.feasibility_report(program, witness.values, FEAS_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == (True, None, 0)
    assert peak < 100_000, peak


def test_a_key_is_placed_without_a_scan_of_the_positions():
    """On the whole n = 8, r = 3 sum primal, a key that is no position (a
    str, 0.5) is skipped in under 1 ms (best of 5), not compared with each
    of the 196,608 positions, and 1.0, True and Fraction(1) are still read
    at position 1: -1 there breaks that variable's bound."""
    program = _whole_primal()[2]
    for key in ("x", 0.5):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            report = lp.feasibility_report(program, {key: -1.0}, FEAS_TOL)
            times.append(time.perf_counter() - start)
        assert report == (True, None, 0)
        assert min(times) < 1e-3, (key, times)
    at_one = lp.feasibility_report(program, {1: -1.0}, FEAS_TOL)
    assert at_one == (False, f"bound[{program.variables[1]}]", 1.0)
    for key in (1.0, True, F(1)):
        assert lp.feasibility_report(program, {key: -1.0}, FEAS_TOL) == at_one, key


def test_listed_variables_are_still_checked_for_duplicates():
    with pytest.raises(ValueError, match="duplicate variable names"):
        lp.LinearProgram(lp.MAXIMIZE, ["x", "x"], [], np.zeros((1, 2)))


# ============================================================
# the support-only primal
# ============================================================


@pytest.mark.parametrize("cfg,exact", list(seeded_classes()))
def test_primal_is_the_support_of_the_full_point(cfg, exact):
    """Every reported value is nonzero, every absent variable is 0, and
    the point meets the program as feasibility_report reads it."""
    rep = build_representative(cfg.weights)
    for d in designees(cfg):
        program = build_pp_pne(cfg, rep, d)
        report = lp.solve(program)
        if report.status != lp.OPTIMAL:
            continue
        assert all(report.primal.values())
        assert list(report.primal) == sorted(report.primal)
        assert set(report.primal) <= set(range(len(program.variables)))
        assert len(report.primal) <= len(program.rows)
        assert lp.feasibility_report(program, report.primal, 1e-7)[0]


def test_nonpositive_and_free_variables_keep_their_sign():
    """x free, y <= 0, z >= 0: max -2x + y - z over x - y >= 3, x <= -1,
    y >= -10 gives x = -7, y = -10 and z absent."""
    coefficients = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [-2.0, 1.0, -1.0]])
    rows = [lp.Row(lp.GE, 3, "a"), lp.Row(lp.LE, -1, "b"), lp.Row(lp.GE, -10, "c")]
    program = lp.LinearProgram(lp.MAXIMIZE, ["x", "y", "z"], rows, coefficients,
                               bounds={0: lp.FREE, 1: (None, 0)})  # x free, y <= 0
    for exact in (False, True):
        report = lp.solve(program, exact)
        assert report.primal == {0: -7, 1: -10}  # x and y
        assert report.value == 4


# ============================================================
# factors at the masks read
# ============================================================


@pytest.mark.parametrize("cfg,exact", [p for p in seeded_classes() if p.values[0].n <= 5])
def test_factors_at_some_masks_are_the_full_ones_bit_for_bit(cfg, exact):
    n = cfg.n
    full = _mask_factors(cfg, cfg.weights, np.arange(1 << n))
    rng = np.random.default_rng(n)
    for masks in (np.arange(0), np.array([0]), np.array([(1 << n) - 1]),
                  np.unique(rng.integers(0, 1 << n, size=5))):
        got = _mask_factors(cfg, cfg.weights, masks)
        assert got[0] is masks
        for a, b in zip(got[1:], full[1:]):
            b = b[:, masks]
            assert a.shape == b.shape and a.dtype == b.dtype
            if a.dtype == object:
                assert list(map(repr, a.ravel())) == list(map(repr, b.ravel()))
            else:
                assert a.tobytes() == b.tobytes()


def test_extraction_needs_the_class_loads_its_support_never_reaches():
    """The twin of the extension test: weights (1, 2) and a table defined
    at loads 1 and 3 only.  A point whose columns have loads 0 and 1 reads
    no factor at load 2, yet the class reaches it (player 1 alone), so
    extract_worst_game raises the error solve_worst_case raises."""
    eye = identity_matrix(2, True)
    cfg = WorstCaseConfig((F(1), F(2)), eye, SocialSpec(SUM, eye), F(0),
                          (BasisFunction.lookup({F(1): F(1), F(3): F(1)}),))
    rep = build_representative(cfg.weights)
    point = {column(cfg, 1, 0): F(1), column(cfg, 0, 1): F(1)}
    message = "lookup table does not cover congestion value 2"
    with pytest.raises(GameError, match=message):
        formulations.solve_worst_case(cfg, exact=True)
    with pytest.raises(GameError, match=message):
        extract_worst_game(cfg, rep, point)


def _holed_class(num, kind):
    """Weights 4, 2, 1, whose loads in mask order are 4, 2, 6, 1, 5, 3, 7,
    and a table that misses 6, 5 and 3: 6 first in mask order, 3 first in
    sorted order."""
    eye = identity_matrix(3, num is F)
    table = BasisFunction.lookup({num(x): num(x) for x in (1, 2, 4, 7)})
    return WorstCaseConfig((num(4), num(2), num(1)), eye, SocialSpec(kind, eye), num(0),
                           (X, table))


@pytest.mark.parametrize("num", [F, float])
@pytest.mark.parametrize("kind", [SUM, MAX])
def test_a_table_raises_at_the_first_load_it_misses_in_mask_order(num, kind):
    """Each distinct load is read once, in the order the masks reach it,
    so the error names the load of the lowest mask the table misses: over
    every mask in solve_worst_case, and over the support's masks in
    extract_worst_game, which reads every load of the class first."""
    cfg = _holed_class(num, kind)
    rep = build_representative(cfg.weights)
    message = f"lookup table does not cover congestion value {num(6)}$"
    with pytest.raises(GameError, match=message):
        formulations.solve_worst_case(cfg, exact=num is F)
    point = {column(cfg, 4, 0): num(1)}
    if kind == MAX:
        point[4**3 * 2] = num(1)  # t
    with pytest.raises(GameError, match=message):
        extract_worst_game(cfg, rep, point, None if kind == SUM else 0)


# ============================================================
# no temporary the size of the array
# ============================================================


def _benchmark_programs():
    """The pure-equilibrium programs of every class-ladder and
    witness-frontier job at seed 2026, one per designee."""
    jobs = workloads.class_ladder(random.Random("class-ladder:2026"))
    cfgs = {id(job.cfg): (job.cfg, None if job.cfg.spec.kind == SUM else range(job.cfg.n))
            for job in jobs}
    for job in workloads.witness_frontier(random.Random("witness-frontier:2026")):
        cfgs.setdefault((id(job.cfg), job.designated), (job.cfg, [job.designated]))
    for cfg, ds in cfgs.values():
        rep = build_representative(cfg.weights)
        for d in [None] if ds is None else ds:
            yield build_pp_pne(cfg, rep, d)


def test_equilibration_is_the_abs_max_bit_for_bit():
    """_system's row scales, then its column scales over the equilibrated
    rows, and so A, costs and b, are byte-identical to those of
    np.abs(A).max(axis=1) and np.abs(...).max(axis=0), which built |A|
    temporaries."""
    count = 0
    for program in _benchmark_programs():
        system = lp._system(program, False)
        forms = lp._Standardizer(program, False).columns(program.coefficients)
        A = forms[:-1]
        biggest = np.abs(A).max(axis=1, initial=0.0)
        row_scale = 1.0 / np.where(biggest > 0, biggest, 1.0)
        b = np.array([float(row.rhs) for row in program.rows]) * row_scale
        rows = A * row_scale[:, None]
        biggest = np.abs(rows).max(axis=0, initial=0.0)
        columns = 1.0 / np.where(biggest > 0, biggest, 1.0)
        assert system.scale.tobytes() == row_scale.tobytes()
        assert system.columns.tobytes() == columns.tobytes()
        assert system.A.tobytes() == (rows * columns).tobytes()
        assert system.costs.tobytes() == (forms[-1] * columns).tobytes()
        assert system.b.tobytes() == b.tobytes()
        count += 1
    assert count > 100


def test_worst_cce_programs_keep_their_columns(monkeypatch):
    """The column pass scales no column of a worst-CCE program: its mass
    row of ones is every column's largest entry once each row is divided
    by its own, so every column scale is exactly 1.0.  (A pass by the
    2-norm would scale them, and grow the worst CCE's support.)"""
    systems, build = [], lp._system

    def built(program, exact):
        systems.append(build(program, exact))
        return systems[-1]

    monkeypatch.setattr(lp, "_system", built)
    for _, game, specs in corpus(False):
        for spec, predicate in itertools.product(specs, (EQ1, VERBATIM)):
            worst_cce(game, spec, 0, predicate)
    monkeypatch.undo()
    assert len(systems) > 50
    for system in systems:
        assert system.columns.tolist() == [1.0] * system.A.shape[1]


def _interleaved(program, coefficients, extra):
    """The standard columns of a float program in the layout that placed
    each free variable's negative part right after it: variable by
    variable, its column, negated when it is <= 0, then a free one's
    negative part; every zero +0.0, then extra columns of 0."""
    source, negated = [], []
    for j in range(coefficients.shape[1]):
        bound = program.bound(j)
        source.append(j)
        negated.append(bound == (None, 0))
        if bound == lp.FREE:
            source.append(j)
            negated.append(True)
    negated = np.flatnonzero(negated)
    out = np.zeros((len(coefficients), len(source) + extra))
    out[:, :len(source)] = coefficients.astype(np.float64)[:, source] + 0.0
    out[:, negated] = 0.0 - out[:, negated]
    return out


def test_benchmark_systems_keep_the_interleaved_layout(monkeypatch):
    """The float system of every benchmark pure-equilibrium program is byte
    for byte the one built from the interleaved layout: those programs
    declare no bounds."""
    for program in _benchmark_programs():
        assert not program.bounds
        standard = lp._system(program, False).standard
        monkeypatch.setattr(lp._Standardizer, "columns", lambda std, coefficients, extra=0:
                            _interleaved(program, coefficients, extra))
        assert lp._system(program, False).standard.tobytes() == standard.tobytes()
        monkeypatch.undo()


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_peak_is_within_one_and_a_half_arrays():
    cfg = heavy_class()
    program = build_pp_pne(cfg, build_representative(cfg.weights))
    assert program.coefficients.nbytes == 10 * 4**8 * 8
    report, peak = _peak(lambda: lp.solve(program))
    assert report.status == lp.OPTIMAL
    assert peak <= 1.5 * program.coefficients.nbytes


def test_build_peak_is_within_two_and_a_half_arrays():
    cfg = heavy_class()
    rep = build_representative(cfg.weights)
    program, peak = _peak(lambda: build_pp_pne(cfg, rep))
    assert peak <= 2.5 * program.coefficients.nbytes


def test_build_writes_its_rows_straight_into_the_array():
    """Each row is copied from the factor slices into the coefficient
    array itself, with no array of a row's entries (1.90 arrays when the
    eq rows were built first, 1.01 without)."""
    cfg = heavy_class()
    rep = build_representative(cfg.weights)
    program, peak = _peak(lambda: build_pp_pne(cfg, rep))
    assert peak <= 1.1 * program.coefficients.nbytes
