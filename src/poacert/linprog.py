"""Linear programming with explicit duals.

Self-contained primal simplex (two-phase, revised: an m x m basis
inverse and one y @ W pricing product per float pivot over the standard
columns and their slack and artificial unit columns, no tableau) plus a
mechanical dualizer.  Two arithmetic backends share one kernel: float64
numpy arrays, or object arrays of fractions.Fraction.  Every answer comes
from one reader, _read, at the run's final basis: it solves B x_B = b and
B^T y = c_B with one inverse of the basic block and checks the point, the
rows, the duals' signs and the dual rows, or at an UNBOUNDED stop the
ray.  A float run works on the program with its rows, then its columns,
each divided by its largest |a_ij|, so Dantzig's rule prices a column per
unit of its edge's length at the slack basis, in the max norm.  A float
answer is read and checked on the run's own system, dual rows included,
to RESIDUAL_TOL, and only its point is taken back to the program's
columns; an exact one reads the float run's basis on the program's
rational data, every row and column scale 1, and checks it with
tolerance 0, as QSopt_ex and SoPlex do.  A run whose reading fails, or
that fails itself, is redone by the rational simplex, so SolverError
means the rational run failed too; the solver never reports OPTIMAL on
an inconclusive run.  Every cold run, that one too, is one _run, which
writes its objective into its own standard form: none copies the
program.  solve_each solves several objectives over one program's rows
(a _Region): one float standard form and one phase 1, then each
objective's phase 2 from the feasible basis where the previous one
stopped; each is read and falls back on its own, a failure dropping the
region, and an exact reading rewrites only the costs row of the
region's rational form.  solve is its one-objective case.
Every run stops in a region, and _read takes the program and both
arithmetics' systems from it.

A program is stated as one coefficient array, rows by variables plus the
objective as a last row, and that array is the one path into the kernel;
each Row holds only the relation, rhs and label of its row of the array.
dualize is the array's transpose.  feasibility_report (rows at a point)
and dual_violations (the dual's rows at row duals, no dual built) read the
array through one linear combination of its slices, _combination, whose
sums do not depend on the Python version's builtin sum.  Every check
folds its violations through _fold (a nan is one).  A point {j: x}, read
on its support, bounds and duals are keyed by position; a name is formatted
only for a message, a violated bound's label, the dual's labels or MPS.

Conventions
-----------
* Rows are labeled; relations are "<=", "=", ">=".
* Every variable is >= 0 (the default bound (0, None)), <= 0 (bound
  (None, 0)) or free (FREE), keyed by its position in bounds; any other
  bound, or a key that is no position, is a ValueError.  In standard
  form variable j is column j, negated when it is <= 0, and the negative
  part of each free variable is a column after all of them.
* Row duals, a tuple in row order, follow the textbook convention for
  the stated sense: for a MAX program, "<=" rows get duals >= 0, ">="
  rows get duals <= 0, "=" rows are free; for a MIN program the signs
  swap.  sum(dual_i * rhs_i) equals the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from collections.abc import Mapping, Sequence
from operator import add
from typing import NamedTuple, Optional

import numpy as np

MAXIMIZE = "max"
MINIMIZE = "min"

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

# switch to Bland's entering rule after this many consecutive degenerate pivots
DEGENERATE_STREAK = 40

# float pivot, ratio-test and phase-1 feasibility tolerance; exact runs use 0
PIVOT_TOL = 1e-9

# largest violation a float reading may carry: of a row or x >= 0 relative
# to 1 + max|x|, of a dual row or a row dual's sign relative to 1 + max|y|;
# honest runs stay below 1e-8, the basis of a drifted run is off by O(1)
RESIDUAL_TOL = 1e-6

# most terms _combination sums in one pass
_BLOCK = 1 << 16


class SolverError(Exception):
    """Iteration cap hit or internal inconsistency; result is unusable."""


class Row(NamedTuple):
    """One row of a program, lhs R rhs, labelled; its lhs coefficients are
    the matching row of the program's coefficient array."""

    relation: str
    rhs: object
    label: str


@dataclass(eq=False)
class LinearProgram:
    """A program stated as one coefficient array, rows by variables with
    the objective as a last row: float64, or object over Python numbers.
    rows[i] holds the relation, rhs and label of the array's row i.
    variables given as a list or tuple are kept as a tuple and checked for
    duplicates; any other sequence is kept as it is, unread, so a program
    of many columns can name them on demand.  neg and free are the sorted
    positions of the <= 0 and the free variables, worked out once.
    Programs compare by identity, and several may share one coefficient
    array, which no solve writes to; each is standardized on its own."""

    sense: str
    variables: Sequence[str]
    rows: Sequence[Row]
    coefficients: np.ndarray
    bounds: Mapping[int, tuple] = field(default_factory=dict)
    name: str = "lp"

    def __post_init__(self):
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown sense {self.sense!r}")
        if isinstance(self.variables, (list, tuple)):
            self.variables = tuple(self.variables)
            if len(set(self.variables)) != len(self.variables):
                raise ValueError("duplicate variable names")
        shape = (len(self.rows) + 1, len(self.variables))
        if self.coefficients.shape != shape:
            raise ValueError(f"coefficient array of shape {self.coefficients.shape}, "
                             f"not rows + 1 (the objective) by variables {shape}")
        if self.coefficients.dtype not in (np.float64, object):
            # an integer array would cast a point or duals read against it to int
            raise ValueError(f"coefficient array of dtype {self.coefficients.dtype}, "
                             "not float64 or object")
        labels = set()
        for row in self.rows:
            if row.relation not in (LE, EQ, GE):
                raise ValueError(f"row {row.label!r}: unknown relation {row.relation!r}")
            if row.label in labels:
                raise ValueError(f"duplicate row label {row.label!r}")
            labels.add(row.label)
        self.bounds = {j: tuple(b) for j, b in self.bounds.items()}
        for j, b in self.bounds.items():
            self.bound(j)  # a key that is no position is refused
            if b not in _SIGN_CLASSES:
                raise ValueError(f"bound {b} on variable {j}: variables are >= 0, <= 0 or free")
        self.neg, self.free = (sorted(j for j, b in self.bounds.items() if b == sign)
                               for sign in (_NONPOS, FREE))

    def bound(self, j: int) -> tuple:
        """The sign class of the variable at position j; a key that is no
        position (a name, a bool, an int out of range) is a ValueError."""
        if not (type(j) is int and 0 <= j < len(self.variables)):
            raise ValueError(f"bound key {j!r} is not a variable position "
                             f"(0 to {len(self.variables) - 1})")
        return self.bounds.get(j, _NONNEG)


FREE = (None, None)
_NONNEG = (0, None)
_NONPOS = (None, 0)
_SIGN_CLASSES = (_NONNEG, _NONPOS, FREE)


class KernelStats(NamedTuple):
    """What the simplex runs behind a report did: pivots per phase (phase 1
    includes driving artificials out), pivots that moved no value, phases
    handed to Bland's rule, dust columns phase 1 retired, dependent rows
    it dropped."""

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    degenerate_pivots: int = 0
    bland_switches: int = 0
    retired_columns: int = 0
    dropped_rows: int = 0

    @property
    def pivots(self) -> int:
        return self.phase1_pivots + self.phase2_pivots


@dataclass
class SolveReport:
    """A solve's answer, read at a final basis by _read: a float answer
    has row duals of their sign, and its point and duals meet every row
    and dual row within RESIDUAL_TOL; an exact one meets them exactly.
    primal holds the point's support, keyed by position: {j: x} for each
    nonzero variable j, the index into the program's variables, in
    ascending j; a position it lacks is 0, as feasibility_report reads it.
    duals holds one row dual per row, in row order, () unless OPTIMAL.
    iterations counts the pivots of every run that answered or led to the
    answer: the float run's, plus the rational run's when that one had to
    run (a float run that raised counts none).  fallback is None when the
    float run's basis gave the answer; otherwise it says why the rational
    simplex ran: the float run's SolverError text, or the check its
    reading failed.  stats holds the same runs' KernelStats, summed; it
    takes no part in == or repr."""

    status: str
    value: object
    primal: dict
    duals: tuple
    iterations: int
    exact: bool
    fallback: Optional[str] = None
    stats: Optional[KernelStats] = field(default=None, compare=False, repr=False)


# ============================================================
# standard-form assembly
# ============================================================


def _fraction(x) -> Fraction:
    """x as a Fraction: a float's exact binary value, a Fraction itself."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _fractions(coefficients: np.ndarray) -> np.ndarray:
    """The Fractions of an array's nonzero entries, with every zero
    Fraction(0)."""
    vals = np.full(coefficients.shape, Fraction(0), dtype=object)
    nz = coefficients != 0
    vals[nz] = [_fraction(c) for c in coefficients[nz].tolist()]
    return vals


class _Standardizer:
    """Rewrites an LP into max c'x, Ax R b, x >= 0 and maps solutions back.

    Variable j is standard column j, negated when it is <= 0, and the k-th
    free variable, in variable order, is column j minus column nvars + k,
    neg and free being the program's."""

    def __init__(self, lp: LinearProgram, exact: bool):
        self.exact = exact
        self.dtype = object if exact else np.float64
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self.nvars = len(lp.variables)
        self.neg, self.free = lp.neg, lp.free
        self.ncols = self.nvars + len(self.free)

    def columns(self, coefficients: np.ndarray, extra: int = 0) -> np.ndarray:
        """A coefficient array over the standard columns, in the run's
        arithmetic, then extra columns of 0: its float64 values, with
        every zero +0.0; an exact run takes the array of Fractions that
        _fractions gives.  The values are written once, into the array
        returned, then negated column by column as 0 - a (+0.0 stays)."""
        out = np.full((len(coefficients), self.ncols + extra), self.zero, dtype=self.dtype)
        if self.exact:
            out[:, :self.nvars] = coefficients
        else:  # -0.0 + 0.0 is 0.0; an object array's entries are read by float()
            np.add(coefficients.astype(np.float64, copy=False), 0.0, out=out[:, :self.nvars])
        for j in self.neg:
            out[:, j] = self.zero - out[:, j]
        for k, j in enumerate(self.free, self.nvars):
            out[:, k] = self.zero - out[:, j]
        return out

    def recover(self, columns: np.ndarray, values: np.ndarray) -> dict:
        """{j: x} of the nonzero variables, in position order, of the
        program's point at which the standard columns hold values and
        every other column 0; no name is read."""
        negated, point = set(self.neg), {}
        for c, x in zip(columns.tolist(), values.tolist()):
            if c >= self.nvars:  # a free variable's negative part
                c, x = self.free[c - self.nvars], self.zero - x
            elif c in negated:
                x = self.zero - x
            point[c] = point.get(c, self.zero) + x
        return {j: x for j, x in sorted(point.items()) if x}


class _System(NamedTuple):
    """max costs'x over A x R b and x >= 0 with b >= 0, in one arithmetic:
    a program's standard form with every row of negative rhs negated and,
    in float, equilibrated as LAPACK's dgeequ does: every row divided by
    its largest |a_ij|, then every structural column, its cost included,
    by its largest |a_ij| over those rows.  slack[i] is the sign of row
    i's slack column: 1 on a <= row, -1 on a >= row, 0 on an = row
    (none).  A dual of row i here times scale[i] is the program's row
    dual, a value of structural column j here times columns[j] is that
    standard column's value (each scale is 1 when exact), and dual rows
    are checked here.  standard holds every standard column, m by n + 2m,
    with the costs below as its last row: A, then the unit column of the
    slack of row i (n + i) and of its artificial (n + m + i), 0 where the
    row has none, at cost 0.  A and costs are views of it."""

    A: np.ndarray
    b: np.ndarray
    costs: np.ndarray
    slack: np.ndarray
    scale: np.ndarray
    columns: np.ndarray
    std: _Standardizer
    standard: np.ndarray


_SLACK = {LE: 1, GE: -1, EQ: 0}


def _equilibrator(A: np.ndarray, axis: int) -> np.ndarray:
    """1 / max |a_ij| along axis, 1 where that is 0, without an |A|
    temporary the size of A."""
    biggest = np.maximum(A.max(axis=axis, initial=0.0), -A.min(axis=axis, initial=0.0))
    return 1.0 / np.where(biggest > 0, biggest, 1.0)


def _system(lp: LinearProgram, exact: bool) -> _System:
    std = _Standardizer(lp, exact)
    m, n = len(lp.rows), std.ncols
    standard = std.columns(_fractions(lp.coefficients) if exact else lp.coefficients, 2 * m)
    A, costs = standard[:m, :n], standard[m, :n]
    b = np.array([_fraction(r.rhs) if exact else r.rhs for r in lp.rows], dtype=std.dtype)
    if exact:
        scale, columns = np.full(m, std.one, dtype=object), np.full(n, std.one, dtype=object)
    else:
        # equilibrate: float tolerances are absolute, so rows must share a
        # scale for them to mean anything; columns of largest entry 1 let
        # Dantzig's rule price each one per unit of its edge at the slack
        # basis, as steepest edge does there
        scale = _equilibrator(A, axis=1)
        A *= scale[:, None]
        b *= scale
        columns = _equilibrator(A, axis=0)
        A *= columns
    if lp.sense == MINIMIZE:
        scale = -scale
    slack = np.array([_SLACK[row.relation] for row in lp.rows], dtype=std.dtype)
    flip = b < 0
    if flip.any():
        A[flip] = -A[flip]
        b[flip] = -b[flip]
        scale[flip] = -scale[flip]
        slack[flip] = -slack[flip]
    # a slack: +1 on a <= row, -1 on a >= row; an artificial on a >= or = row
    rows = np.arange(m)
    standard[rows, n + rows] = slack
    standard[rows, n + m + rows] = np.where(slack <= 0, std.one, std.zero)
    system = _System(A, b, costs, slack, scale, columns, std, standard)
    _scale_costs(system, lp.sense)
    return system


def _scale_costs(system: _System, sense: str):
    """Turn the system's costs row, over the standard columns as
    _Standardizer.columns writes them, into the costs the kernel maximizes,
    in place: each times its column's scale in float, negated under min.
    _system writes its program's objective this way, and _write_costs
    another objective over the same rows."""
    costs = system.costs
    if not system.std.exact:
        costs *= system.columns
    if sense == MINIMIZE:
        nz = np.flatnonzero(costs)
        costs[nz] = -costs[nz]


def _write_costs(system: _System, objective: np.ndarray, sense: str):
    """Write an objective row over the program's variables into the
    system's costs row, in the system's arithmetic, as _system writes its
    program's own: the same values, bit for bit."""
    row = objective[None]
    system.costs[:] = system.std.columns(_fractions(row) if system.std.exact else row)[0]
    _scale_costs(system, sense)


# ============================================================
# simplex kernel
# ============================================================


class _Revised:
    """The two-phase revised simplex on a _System: T = [B^-1 | x_B], m by
    m + 1, takes one rank-1 step per pivot, and every column is priced by
    one y @ W product, y = c_B B^-1, on the system's own standard array
    W = [A | slack and artificial unit columns].  Columns are numbered in
    standard form (see _Stop); a row with no slack or no artificial has a
    column of 0 there, which never enters.  Phase 2 prices the first n + m
    columns, all but the artificials."""

    def __init__(self, system: _System):
        std = system.std
        self.exact, self.zero = std.exact, std.zero
        self.tol = Fraction(0) if std.exact else PIVOT_TOL
        self.m, self.n = m, n = system.A.shape
        self.W = system.standard[:m]
        self.width = n + m
        signs = system.slack.tolist()
        self.artificial = [int(s <= 0) for s in signs]
        if std.exact:  # the unit block's diagonal, which prices the unit columns
            self.units = np.concatenate([system.slack, self.artificial])
        # the first basis is the identity: each row's slack on a <= row, else its artificial
        self.basis = [n + i if s > 0 else n + m + i for i, s in enumerate(signs)]
        self.T = np.full((m, m + 1), std.zero, dtype=std.dtype)
        self.T.flat[::m + 2] = std.one  # B^-1 = I
        self.T[:, m] = system.b
        self.inverse, self.x = self.T[:, :m], self.T[:, m]
        self.step = np.empty_like(self.T)  # _pivot's rank-1 term
        self.row_alive = [True] * m
        units = len(signs) - signs.count(0) + self.artificial.count(1)
        self.max_iters = 2000 + 100 * (m + n + units)
        self.iterations = self.degenerate = self.bland_switches = self.retired = 0
        self.entering = None  # the column of an UNBOUNDED stop

    # ---- pivoting ----

    def _prices(self, y, costs, width):
        """y a_j - costs[j] for the first width columns: in float by one
        product over W (a near tie between reduced costs can break another
        way when its width changes); in rationals a unit column is priced
        from y alone, y_i times its entry on row i."""
        return self._priced(y, self.W[:, :width], costs[:width])

    def _priced(self, y, W, costs):
        if self.exact:
            units = self.units[:len(costs) - self.n]
            reduced = np.concatenate([y @ W[:, :self.n], np.resize(y, len(units)) * units])
        else:
            reduced = y @ W
        reduced -= costs
        return reduced

    def _column(self, j):
        """B^-1 a_j."""
        return self.inverse @ self.W[:, j]

    def _pivot(self, r, j, column):
        pivot_row = self.T[r]
        pivot_row /= column[r]
        column[r] = self.zero
        # rank-1 elimination of column j everywhere but the pivot row
        self.T -= np.multiply(column[:, None], pivot_row, out=self.step)
        self.basis[r] = j
        self.iterations += 1

    def _ratio_row(self, column, bland=False):
        """Leaving row for the entering column B^-1 a_j, or None if
        unbounded.

        Ties on the minimum ratio are rampant in degenerate programs; among
        tied rows the largest pivot entry wins (tiny pivots shred a float
        basis inverse), except under Bland's rule in exact mode, where the
        lowest basis index keeps the termination guarantee."""
        tol, alive, basis = self.tol, self.row_alive, self.basis
        a, x = column.tolist(), self.x.tolist()
        best = None
        for i, a_i in enumerate(a):
            if a_i > tol and alive[i]:
                ratio = x[i] / a_i
                if best is None or ratio < best:
                    best = ratio
        if best is None:
            return None
        limit = best if self.exact else best + tol * (1 + abs(best))
        bland = bland and self.exact
        leave = None
        for i, a_i in enumerate(a):
            if a_i > tol and alive[i] and x[i] / a_i <= limit and (leave is None or (
                    basis[i] < basis[leave] if bland
                    else (a_i, -basis[i]) > (a[leave], -basis[leave]))):
                leave = i
        return leave

    def run(self, costs, width, ray_free=False):
        """Maximize costs'x over the first width columns from the current
        basis.  Returns status string.

        Dantzig's rule enters the first column of most negative reduced
        cost: on a float system's equilibrated columns, steepest edge's
        choice with its reference weights frozen at the slack basis
        (Forrest and Goldfarb 1992), in the max norm.  After
        DEGENERATE_STREAK degenerate pivots in a row, Bland's rule enters
        the first column below -tol.  ray_free callers guarantee the
        objective is bounded, so a column with no admissible pivot row is
        float dust, not a ray; it gets retired instead of triggering an
        UNBOUNDED verdict.
        """
        basic_costs = costs[self.basis]
        W, priced_costs = self.W[:, :width], costs[:width]  # the views every pricing reads
        reduced = self._priced(basic_costs @ self.inverse, W, priced_costs)
        bland = False
        streak = 0
        retired = []
        while True:
            if self.iterations > self.max_iters:
                raise SolverError(f"iteration cap {self.max_iters} exceeded")
            if bland:
                below = np.flatnonzero(reduced < -self.tol)
                enter = int(below[0]) if len(below) else None
            else:
                enter = int(reduced.argmin()) if width else None
                if enter is not None and not reduced[enter] < -self.tol:
                    enter = None
            if enter is None:
                return OPTIMAL
            if enter in self.basis:  # float dust: a basic column's reduced cost is 0
                reduced[enter] = self.zero
                continue
            column = self._column(enter)
            leave = self._ratio_row(column, bland)
            if leave is None:
                if ray_free:
                    retired.append(enter)
                    reduced[enter] = self.zero
                    self.retired += 1
                    continue
                self.entering = enter
                return UNBOUNDED
            degenerate = self.x[leave] <= self.tol
            self._pivot(leave, enter, column)
            basic_costs[leave] = costs[enter]
            reduced = self._priced(basic_costs @ self.inverse, W, priced_costs)
            if retired:
                reduced[retired] = self.zero
            if degenerate:
                self.degenerate += 1
                streak += 1
                if streak >= DEGENERATE_STREAK and not bland:
                    bland = True
                    self.bland_switches += 1
            else:
                streak = 0

    def phase1(self):
        """Drive the artificials to 0: False when they cannot be."""
        if all(j < self.width for j in self.basis):  # no artificial
            return True
        costs = np.full(self.width + self.m, self.zero, dtype=self.T.dtype)
        costs[self.width:] = [self.zero - a for a in self.artificial]
        self.run(costs, len(costs), ray_free=True)  # OPTIMAL: a ray_free run finds no ray
        artificials = (x for j, x in zip(self.basis, self.x.tolist()) if j >= self.width)
        if reduce(add, artificials, 0) > self.tol:
            return False  # an artificial stays positive
        # drive zero-level artificials out of the basis; drop dependent rows
        for r in range(self.m):
            if self.basis[r] < self.width:
                continue
            row = self._prices(self.inverse[r], costs, self.width)  # costs 0 below width
            row[[j for j in self.basis if j < self.width]] = self.zero  # float dust
            hits = np.flatnonzero((row > self.tol) | (row < -self.tol))
            if len(hits):
                self._pivot(r, int(hits[0]), self._column(int(hits[0])))
            else:
                self.row_alive[r] = False
        return True


class _Stop(NamedTuple):
    """Where a run of the kernel stopped: its status, the standard number
    of each row's basic column (structural j is j, the slack of row i is
    n + i and its artificial n + m + i), the entering column of an
    UNBOUNDED stop, the run's counts and the _Region it ran in, whose
    program and system the stop is read on and from which another
    objective over the same rows may run."""

    status: str
    basis: list
    entering: Optional[int]
    stats: KernelStats
    region: "_Region"


class _Region:
    """A program's rows in one arithmetic: one _system and one phase 1 on
    it, then a phase 2 per objective.  The first run maximizes the
    objective it is given, or lp's own.  A later one writes its objective
    into the costs row and starts from the basis where the last run
    stopped, OPTIMAL or UNBOUNDED: a feasible basis, from which phase 2
    may start.  Its counts restart at phase 1's, so the iteration cap
    counts as in a cold run, and it reports only its own phase 2's.
    Every stop shares the region's system, whose costs row the next run
    rewrites, so a stop is read before the region runs again."""

    def __init__(self, lp: LinearProgram, exact: bool):
        self.lp = lp
        self.system = system = _system(lp, exact)
        self.kernel = kernel = _Revised(system)
        self.feasible = kernel.phase1()
        self.phase1 = KernelStats(kernel.iterations, 0, kernel.degenerate, kernel.bland_switches,
                                  kernel.retired, kernel.row_alive.count(False))
        self.runs = 0
        # the objective the last run maximized, and the one the rational system's costs hold
        self.objective = self.written = lp.coefficients[-1]
        self.rational = system if exact else None

    def run(self, objective: Optional[np.ndarray] = None) -> _Stop:
        """Phase 2 on an objective row over lp's variables, or on lp's own."""
        system, kernel, p1 = self.system, self.kernel, self.phase1
        # count from the end of phase 1, as a cold run does, with no entering column
        kernel.iterations, kernel.degenerate = p1.phase1_pivots, p1.degenerate_pivots
        kernel.bland_switches, kernel.retired = p1.bland_switches, p1.retired_columns
        kernel.entering = None
        if objective is not None:
            _write_costs(system, objective, self.lp.sense)
            self.objective = objective
        # the costs row of the standard array: 0 at every slack and artificial
        status = kernel.run(system.standard[-1], kernel.width) if self.feasible else INFEASIBLE
        stats = KernelStats(p1.phase1_pivots, kernel.iterations - p1.phase1_pivots,
                            kernel.degenerate, kernel.bland_switches, kernel.retired,
                            p1.dropped_rows)
        if self.runs:  # phase 1 was reported by the first run
            stats = KernelStats(*[a - b for a, b in zip(stats, p1)])
        self.runs += 1
        return _Stop(status, kernel.basis.copy(), kernel.entering, stats, self)

    def exact_system(self) -> _System:
        """The rows' rational system, its costs the last run's objective:
        _system of lp on the first exact reading, after which only its
        costs row is rewritten, as a float run's is."""
        if self.rational is None:
            self.rational = _system(self.lp, True)
        if self.written is not self.objective:
            _write_costs(self.rational, self.objective, self.lp.sense)
            self.written = self.objective
        return self.rational


def _run(lp: LinearProgram, exact: bool, objective: Optional[np.ndarray] = None) -> _Stop:
    """Every cold run of the kernel: lp's _Region, run on objective or lp's own."""
    return _Region(lp, exact).run(objective)


def _simplex(lp: LinearProgram, exact: bool, objective=None) -> SolveReport:
    """A cold _run, read in its arithmetic: lp is read in place, not copied."""
    return _read(_run(lp, exact, objective), exact)


def solve(lp: LinearProgram, exact: bool = False) -> SolveReport:
    """Two-phase simplex: one float run, read at its final basis by _read
    in the arithmetic asked for; report.exact says which arithmetic
    answered.  The rational simplex runs from scratch only when that
    fails: the float run raises SolverError, leaves float range or stops
    at a basis whose reading fails its checks.  report.fallback says why
    it ran, and SolverError from here means it failed too.  This is
    solve_each with lp's own objective."""
    return _solve_each(lp, [None], exact)[0]


def solve_each(program: LinearProgram, objectives, exact: bool = False) -> list:
    """solve of each objective over the program's rows: one SolveReport
    per row of objectives (k by the program's variables; the program's own
    objective row is not read).  One float _system and one phase 1 serve
    every objective.  The first objective's phase 2 starts from phase 1's
    basis, and its report is a cold solve's, counts included.  Each later
    one starts from the basis where the previous objective stopped and
    counts only its own phase 2 (and any rational run), so the reports'
    pivots add up to those run.  Its status and value are a cold solve's;
    at a degenerate optimum its point and duals may be another optimal
    pair.  Each objective is read, and falls back to the rational simplex,
    on its own, under the iteration cap of a cold run; the objective after
    a fallback starts a new region, as a cold solve.  An exact reading
    reads the region's one rational standard form, whose costs row alone
    it rewrites."""
    rows = program.coefficients[:-1]
    objectives = np.asarray(objectives, dtype=rows.dtype)
    if objectives.ndim != 2 or objectives.shape[1] != len(program.variables):
        raise ValueError(f"objectives of shape {objectives.shape}, not k by "
                         f"{len(program.variables)} variables")
    return _solve_each(program, objectives, exact)


def _solve_each(program: LinearProgram, objectives, exact: bool) -> list:
    """The report of each objective row over the program's rows (None for
    its own): the one try-float-then-rational policy of solve and
    solve_each.  A float run that is read keeps its _Region, and the next
    objective runs phase 2 in it; a failed one drops it, so the run after
    a fallback, and the fallback itself, is a cold _run."""
    reports, region = [], None
    for objective in objectives:
        counts = KernelStats()
        try:
            # an overflow, or an inf or nan reached by a pivot, ends the float run
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                stop = region.run(objective) if region else _run(program, False, objective)
                region, counts = stop.region, stop.stats
                report = _read(stop, exact)
            reports.append(report)
            continue
        except SolverError as err:
            fallback = str(err)
        except ArithmeticError as err:  # OverflowError, FloatingPointError
            fallback = f"float image: {err}"
        region = None  # a failed run leaves no basis to go on from
        report = _simplex(program, True, objective)
        report.stats = KernelStats(*[a + b for a, b in zip(counts, report.stats)])
        report.iterations = report.stats.pivots
        report.fallback = fallback
        reports.append(report)
    return reports


def _inverse(matrix: np.ndarray, exact: bool) -> np.ndarray:
    """The inverse of a square basis matrix: by np.linalg in float, by
    Gauss-Jordan elimination over Fractions when exact.  SolverError when
    it is singular."""
    m = len(matrix)
    if not exact:
        try:
            return np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            raise SolverError("basis is singular") from None
    table = np.full((m, 2 * m), Fraction(0), dtype=object)
    table[:, :m] = matrix
    table[range(m), range(m, 2 * m)] = Fraction(1)
    for r in range(m):
        candidates = np.flatnonzero(table[r:, r])
        if not len(candidates):
            raise SolverError("basis is singular")
        p = r + candidates[0]
        table[[r, p]] = table[[p, r]]
        # a rational operation is dear: touch only the nonzero entries
        live = np.flatnonzero(table[r])
        table[r, live] = table[r, live] / table[r, r]
        hit = np.flatnonzero(table[:, r])
        hit = hit[hit != r]
        table[np.ix_(hit, live)] -= np.outer(table[hit, r], table[r, live])
    return table[:, m:]


def _tol(values: np.ndarray, exact: bool):
    """0 when exact, else RESIDUAL_TOL relative to 1 + max|values|."""
    return 0 if exact else RESIDUAL_TOL * (1 + max(map(abs, values.tolist()), default=0.0))


def _fold(violations, tol) -> tuple:
    """(first, worst) of an array or list (read as objects) of violations:
    the first index not <= tol, nan included, or None; the first largest
    positive one, nan if one is, or 0.  A float array whose largest
    entry is <= tol, no nan among them, is decided by that one reduction."""
    if isinstance(violations, np.ndarray) and violations.dtype.kind == "f" and violations.size:
        top = violations.max()  # nan when an entry is
        if top <= tol:
            return None, top.item() if top > 0 else 0
    v = violations if isinstance(violations, np.ndarray) else np.array(violations, dtype=object)
    nan = (v != v).nonzero()[0]
    k = nan[0] if len(nan) else v.argmax() if len(v) else None
    worst = 0 if k is None or v[k] <= 0 else v.item(k)
    if k is None or v[k] <= tol:  # the largest entry, or the first nan, decides
        return None, worst
    with np.errstate(invalid="ignore"):  # a float nan among objects flags their comparisons
        return int((~(v <= tol)).nonzero()[0][0]), worst


def _check(violations: np.ndarray, tol, message):
    """SolverError(message(i)) for _fold's first violation i."""
    first, _ = _fold(violations, tol)
    if first is not None:
        raise SolverError(message(first))


def _violations(excess: np.ndarray, slack: np.ndarray, tight) -> np.ndarray:
    """How far each row's lhs - rhs, excess, breaks the row's relation
    (see _System.slack), or = where tight."""
    return np.absolute(excess, out=slack * excess, where=tight | (slack == 0))


def _read(stop: _Stop, exact: bool) -> SolveReport:
    """The report of a run at its final basis, on the program and system
    of its region, in rationals when exact: a float run's basis is then
    read on the region's exact system and checked with tolerance 0; a
    float reading is checked on the run's own system to RESIDUAL_TOL
    relative to 1 + max|x| or 1 + max|y|.

    The structural basic columns S and the rows R whose slack and
    artificial are nonbasic meet in a square block K of the basis
    matrix, and x_S = K^-1 b_R, y_R = c_S K^-1.  A row whose artificial
    stayed basic was dropped by phase 1 as dependent; like a row whose
    slack is basic, it gets dual 0.  Every stop needs x_S >= 0 and every
    row to hold at x, tightly on R.  OPTIMAL needs row duals of their
    sign and every dual row to hold, tightly on S; UNBOUNDED needs the
    entering column's ray to keep x >= 0 and every row, and to improve
    the objective.  SolverError names the first check that fails."""
    lp, system = stop.region.lp, stop.region.system
    if stop.status == INFEASIBLE:
        if exact and not system.std.exact:
            raise SolverError("float phase 1 found no feasible point")
        return SolveReport(INFEASIBLE, None, {}, (), stop.stats.pivots, exact, stats=stop.stats)
    if system.std.exact != exact:
        system = stop.region.exact_system()
    A, b, costs, slack, scale, columns, std, standard = system
    m, n = A.shape
    zero, basis = std.zero, stop.basis

    def name(j):
        if j >= n:
            return f"the slack of {lp.rows[j - n].label}"
        return lp.variables[j if j < std.nvars else std.free[j - std.nvars]]

    S = np.array([j for j in basis if j < n], dtype=np.intp)
    off = {(j - n) % m for j in basis if j >= n}  # basic slacks' and artificials' rows
    square = np.array([i not in off for i in range(m)], dtype=bool)
    R = square.nonzero()[0]
    if len(R) != len(S):
        raise SolverError("basis is singular")
    A_S = A[:, S]
    inverse = _inverse(A_S[R], exact)
    x = inverse @ b[R]  # on the run's columns: x_S divided by their scales
    point = x * columns[S]
    tol = _tol(point, exact)
    _check(-point, tol, lambda j: f"basic {name(S[j])} is {float(point[j]):.3g}")
    # float dust within tol (and -0.0) read as 0: the point has x >= 0
    x, point = np.maximum(x, zero), np.maximum(point, zero)
    excess = _violations(A_S @ x - b, slack, square)
    _check(excess, tol, lambda i: f"row {lp.rows[i].label} is violated by {float(excess[i]):.3g}")

    if stop.status == UNBOUNDED:
        j = stop.entering
        column, gain = standard[:m, j], standard[m, j]
        # a slack's column is a unit column, and moves no row's lhs
        lhs = column if j < n else np.zeros(m, dtype=std.dtype)
        # along the ray x_j grows and x_S falls by d = K^-1 a_j per unit
        d = inverse @ column[R]
        tol = _tol(d, exact)
        _check(np.concatenate([d, _violations(lhs - A_S @ d, slack, False)]), tol,
               lambda _: f"entering {name(j)} meets a row: no ray")
        if not gain - costs[S] @ d > tol:
            raise SolverError(f"entering {name(j)} does not improve")
        return SolveReport(UNBOUNDED, None, {}, (), stop.stats.pivots, exact, stats=stop.stats)

    y = np.zeros(m, dtype=std.dtype)  # exact: int 0 off R, a Fraction once scaled
    y[R] = costs[S] @ inverse
    tol = _tol(y * scale, exact)
    wrong = -slack * y * abs(scale)
    _check(wrong, tol, lambda i: f"row dual of {lp.rows[i].label} has the wrong sign")
    y[wrong > 0] = zero  # float dust within tol: the duals are read with their signs
    short = costs - (_combination(A[R], y[R]) if exact else y @ A)
    short[S] = abs(short[S])  # a basic column's dual row is tight
    _check(short, tol, lambda j: f"dual row {name(j)} is violated")
    sense_flip = -std.one if lp.sense == MINIMIZE else std.one
    value = sense_flip * (costs[S] @ x) + zero
    return SolveReport(OPTIMAL, value if exact else float(value), std.recover(S, point),
                       tuple((y * scale + zero).tolist()),
                       stop.stats.pivots, exact, stats=stop.stats)


# ============================================================
# rows at a point
# ============================================================


def _combination(slices: np.ndarray, scalars: Sequence) -> np.ndarray:
    """sum_k slices[k] * scalars[k] over the rows k of a 2-D array, entry
    by entry: from 0, in the order of k, one rounding per addition, a term
    whose slice entry is 0 skipped, in the slices' arithmetic (a float64
    array reads its scalars as floats, as a float times a Fraction does).
    A zero scalar is not skipped: its terms set the type of an exact sum.
    The rows are summed in blocks of at most _BLOCK entries, so no array
    of terms the size of slices is built."""
    y = np.array(scalars, dtype=slices.dtype)
    total = np.zeros(slices.shape[1:], dtype=slices.dtype)
    step = max(1, _BLOCK // max(1, total.size))
    for k in range(0, len(slices), step):
        block = slices[k:k + step]
        # a skipped term is a 0, which leaves a sum that starts at 0 unchanged
        terms = np.multiply(block, y[k:k + step, None], where=block != 0,
                            out=np.zeros(block.shape, dtype=slices.dtype))
        terms[0] += total  # the sum so far, then this block's terms in order
        total = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return total


def feasibility_report(lp: LinearProgram, point: Mapping, tol):
    """(ok, first_violated_label, worst_violation) of a candidate point
    {j: x}, keyed by position as SolveReport.primal is: _fold over the
    rows, in declaration order, then the bounds (labeled bound[var]).

    Only the support is read, in position order: a key k with k == hash(k)
    in range(len(variables)) at position hash(k), as point.get(j) finds it
    (1.0 and True at 1), in O(1); any other key is ignored, and an absent
    position is 0.  The rows' lhs are one _combination of the support's
    columns.  An entry x of a variable >= 0 breaks its bound by -x, of one
    <= 0 by x; only the first violated bound's variable is named."""
    keys = sorted(k for k in point if 0 <= hash(k) < len(lp.variables) and k == hash(k))
    columns, x = [hash(k) for k in keys], [point[k] for k in keys]
    A = lp.coefficients
    rhs = np.array([row.rhs for row in lp.rows], dtype=A.dtype)
    slack = np.array([_SLACK[row.relation] for row in lp.rows], dtype=A.dtype)
    rows = _violations(_combination(A[:-1, columns].T, x) - rhs, slack, False).tolist()
    neg, free = set(lp.neg), set(lp.free)
    bounded = [(j, v - 0 if j in neg else 0 - v) for j, v in zip(columns, x) if j not in free]
    first, worst = _fold(rows + [v for _, v in bounded], tol)
    if first is not None:
        first = (lp.rows[first].label if first < len(rows)
                 else f"bound[{lp.variables[bounded[first - len(rows)][0]]}]")
    return first is None, first, worst


def dual_violations(lp: LinearProgram, duals: Sequence, objective=None) -> np.ndarray:
    """The violation of every row of dualize(lp) at duals, one value per
    row of lp and in its order, without building the dual: one per
    variable of lp, in its order, as feasibility_report gives it on that
    row.  Each row's lhs is one _combination of the coefficient array's
    rows, and its rhs is the variable's objective coefficient: in lp's
    own objective row, or in objective, a row over lp's variables read in
    its place, as solve_each reads one."""
    own = lp.coefficients[-1] if objective is None else objective
    gap = _combination(lp.coefficients[:-1], duals) - own
    # the row of a >= 0 variable reads lhs >= c in the dual of a max
    # program and lhs <= c in that of a min program; <= 0 swaps them
    viol = gap if lp.sense == MINIMIZE else -gap
    viol[lp.neg] = -viol[lp.neg]
    viol[lp.free] = abs(gap[lp.free])
    return viol


# ============================================================
# mechanical dual
# ============================================================

_DUAL_BOUND_MAX = {LE: _NONNEG, EQ: FREE, GE: _NONPOS}
_DUAL_BOUND_MIN = {GE: _NONNEG, EQ: FREE, LE: _NONPOS}
# the relation of the dual row of a primal variable, by the variable's bound
_DUAL_ROW_MAX = {_NONNEG: GE, FREE: EQ, _NONPOS: LE}
_DUAL_ROW_MIN = {_NONNEG: LE, FREE: EQ, _NONPOS: GE}


def dualize(lp: LinearProgram) -> LinearProgram:
    """Textbook dual: the transpose of the coefficient array, the rhs as
    its objective (in the array's dtype when that holds them exactly).
    Dual variable i, primal row i, is named after its label; dual row j
    after primal variable j, so dualize(dualize(lp)) restores the names."""
    primal_max = lp.sense == MAXIMIZE
    dual_bound = _DUAL_BOUND_MAX if primal_max else _DUAL_BOUND_MIN
    row_rel = _DUAL_ROW_MAX if primal_max else _DUAL_ROW_MIN
    A = lp.coefficients
    rhs = np.array([row.rhs for row in lp.rows], dtype=object)
    if A.dtype != object and (rhs.astype(A.dtype) == rhs).all():
        rhs = rhs.astype(A.dtype)
    relations = [row_rel[_NONNEG]] * len(lp.variables)
    for j in lp.neg + lp.free:
        relations[j] = row_rel[lp.bound(j)]
    return LinearProgram(
        sense=MINIMIZE if primal_max else MAXIMIZE,
        variables=[row.label for row in lp.rows],
        rows=[Row(rel, c, v) for rel, v, c in zip(relations, lp.variables, A[-1].tolist())],
        coefficients=np.vstack([A[:-1].T, rhs]),
        bounds={i: dual_bound[row.relation] for i, row in enumerate(lp.rows)
                if dual_bound[row.relation] != _NONNEG},
        name=f"dual({lp.name})",
    )


# ============================================================
# fixed-format text export
# ============================================================


def _num(x) -> str:
    return f"{float(x):.12g}"


def to_fixed_format(lp: LinearProgram) -> str:
    """Fixed-column MPS text.  Names are sanitized to 8 characters; the
    original identifiers are preserved in leading comment lines."""
    rown = {row.label: f"R{i:07d}" for i, row in enumerate(lp.rows)}
    coln = {v: f"C{j:07d}" for j, v in enumerate(lp.variables)}
    out = [f"* problem: {lp.name}"]
    for label, short in rown.items():
        out.append(f"* row {short} = {label}")
    for v, short in coln.items():
        out.append(f"* col {short} = {v}")
    out.append(f"NAME          {lp.name[:8].upper()}")
    out.append("OBJSENSE")
    out.append(f"    {'MAX' if lp.sense == MAXIMIZE else 'MIN'}")
    out.append("ROWS")
    out.append(" N  COST")
    rel_code = {LE: "L", EQ: "E", GE: "G"}
    for row in lp.rows:
        out.append(f" {rel_code[row.relation]}  {rown[row.label]}")
    out.append("COLUMNS")
    # a column's entries: the objective's, then the rows' in order
    labels = ["COST"] + [rown[row.label] for row in lp.rows]
    for v, column in zip(lp.variables, np.roll(lp.coefficients, 1, axis=0).T):
        entries = [(labels[i], column[i]) for i in np.flatnonzero(column)]
        for k in range(0, len(entries), 2):
            pair = entries[k : k + 2]
            line = f"    {coln[v]:<10}{pair[0][0]:<10}{_num(pair[0][1]):<12}"
            if len(pair) == 2:
                line += f"  {pair[1][0]:<10}{_num(pair[1][1]):<12}"
            out.append(line.rstrip())
    out.append("RHS")
    for row in lp.rows:
        if row.rhs != 0:
            out.append(f"    RHS       {rown[row.label]:<10}{_num(row.rhs):<12}".rstrip())
    out.append("BOUNDS")
    for j in sorted(lp.neg + lp.free):
        short = coln[lp.variables[j]]
        if lp.bound(j) == FREE:
            out.append(f" FR BND       {short}")
        else:
            out.append(f" MI BND       {short}")
            out.append(f" UP BND       {short:<10}0")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
