"""Dense linear programming with explicit duals.

Self-contained primal simplex (two-phase, tableau form) plus a mechanical
dualizer.  Two arithmetic backends share one kernel: float64 numpy arrays,
or object arrays of fractions.Fraction when exact=True.  A float run that
fails or ends at a point violating its own rows is redone in rationals, so
SolverError means the rational run failed too; the solver never reports
OPTIMAL on an inconclusive run.

Conventions
-----------
* Rows are labeled; relations are "<=", "=", ">=".
* Every variable is >= 0 (the default bound (0, None)), <= 0 (bound
  (None, 0)) or free (FREE); any other bound is a ValueError.
* Dual values follow the textbook convention for the stated sense:
  for a MAX program, "<=" rows get duals >= 0, ">=" rows get duals <= 0,
  "=" rows are free; for a MIN program the signs swap.  sum(dual_i *
  rhs_i) equals the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence

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

# largest relative row or bound residual a float optimum may carry; honest
# runs stay below 1e-8, a drifted tableau is off by O(1)
RESIDUAL_TOL = 1e-6


class SolverError(Exception):
    """Iteration cap hit or internal inconsistency; result is unusable."""


@dataclass(frozen=True)
class Row:
    coeffs: Mapping[str, object]
    relation: str
    rhs: object
    label: str


@dataclass
class LinearProgram:
    sense: str
    variables: Sequence[str]
    objective: Mapping[str, object]
    rows: Sequence[Row]
    bounds: Mapping[str, tuple] = field(default_factory=dict)
    name: str = "lp"

    def __post_init__(self):
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown sense {self.sense!r}")
        self.variables = tuple(self.variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        declared = set(self.variables)
        for v in self.objective:
            if v not in declared:
                raise ValueError(f"objective references undeclared variable {v!r}")
        labels = set()
        for row in self.rows:
            if row.relation not in (LE, EQ, GE):
                raise ValueError(f"row {row.label!r}: unknown relation {row.relation!r}")
            if row.label in labels:
                raise ValueError(f"duplicate row label {row.label!r}")
            labels.add(row.label)
            for v in row.coeffs:
                if v not in declared:
                    raise ValueError(f"row {row.label!r} references undeclared variable {v!r}")
        self.bounds = {v: tuple(b) for v, b in self.bounds.items()}
        for v, b in self.bounds.items():
            if v not in declared:
                raise ValueError(f"bound on undeclared variable {v!r}")
            if b not in _SIGN_CLASSES:
                raise ValueError(f"bound {b} on {v!r}: variables are >= 0, <= 0 or free")

    def bound(self, v: str) -> tuple:
        return self.bounds.get(v, _NONNEG)


FREE = (None, None)
_NONNEG = (0, None)
_NONPOS = (None, 0)
_SIGN_CLASSES = (_NONNEG, _NONPOS, FREE)


@dataclass
class SolveReport:
    status: str
    value: object
    primal: dict
    duals: dict
    iterations: int
    exact: bool


# ============================================================
# standard-form assembly
# ============================================================


def _convert(x, exact: bool):
    if exact:
        if isinstance(x, Fraction):
            return x
        return Fraction(x)  # exact binary value of a float
    return float(x)


class _Standardizer:
    """Rewrites an LP into max c'x, Ax R b, x >= 0 and maps solutions back.

    Variable j is column col[j], negated when it is nonpositive; a free
    variable is column col[j] minus column col[j] + 1."""

    def __init__(self, lp: LinearProgram, exact: bool):
        self.lp = lp
        self.exact = exact
        self.dtype = object if exact else np.float64
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self.index = {v: j for j, v in enumerate(lp.variables)}
        nvars = len(lp.variables)
        self.neg = np.zeros(nvars, dtype=bool)
        self.neg[[self.index[v] for v, b in lp.bounds.items() if b == _NONPOS]] = True
        self.free = np.zeros(nvars, dtype=bool)
        self.free[[self.index[v] for v, b in lp.bounds.items() if b == FREE]] = True
        self.col = np.arange(nvars, dtype=np.intp) + np.cumsum(self.free) - self.free
        self.ncols = nvars + int(self.free.sum())

    def scatter(self, forms: Sequence[Mapping[str, object]], out) -> None:
        """Write linear forms, form i into row i of out (a zero array), as
        column coefficients: all forms in one pass."""
        counts = np.fromiter(map(len, forms), dtype=np.intp, count=len(forms))
        var = np.fromiter(map(self.index.__getitem__, chain.from_iterable(forms)),
                          dtype=np.intp, count=int(counts.sum()))
        coeffs = chain.from_iterable(form.values() for form in forms)
        if self.exact:
            vals = np.array([_convert(c, True) for c in coeffs], dtype=object)
        else:
            vals = np.fromiter(map(float, coeffs), dtype=np.float64, count=len(var))
        keep = vals != 0
        rows = np.repeat(np.arange(len(forms)), counts)[keep]
        var, vals = var[keep], vals[keep]
        cols = self.col[var]
        out[rows, cols] = vals
        neg = self.neg[var]
        out[rows[neg], cols[neg]] = -vals[neg]
        free = self.free[var]
        out[rows[free], cols[free] + 1] = -vals[free]

    def recover(self, colvals: Sequence) -> dict:
        x = np.array(colvals[:self.ncols], dtype=self.dtype)
        prim = x[self.col]
        prim[self.neg] = self.zero - prim[self.neg]
        prim[self.free] -= x[self.col[self.free] + 1]
        return dict(zip(self.lp.variables, prim.tolist()))


# ============================================================
# simplex kernel
# ============================================================


class _Tableau:
    def __init__(self, A, b, relations, n_struct, exact):
        """A is the m x n_struct constraint array (float64, or object of
        Fractions when exact); rows with a negative rhs are flipped in place."""
        self.exact = exact
        self.tol = Fraction(0) if exact else PIVOT_TOL
        self.m = len(b)
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        self.sign = [one] * self.m
        # normalize rhs >= 0
        rels = list(relations)
        for i in range(self.m):
            if b[i] < 0:
                b[i] = -b[i]
                A[i] = -A[i]
                self.sign[i] = -one
                rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]
        self.n_struct = n_struct
        ncols = self.n_struct
        self.slack_col = [None] * self.m
        self.art_col = [None] * self.m
        for i, rel in enumerate(rels):
            if rel == LE:
                self.slack_col[i] = ncols
                ncols += 1
            elif rel == GE:
                self.slack_col[i] = ncols
                self.art_col[i] = ncols + 1
                ncols += 2
            else:
                self.art_col[i] = ncols
                ncols += 1
        self.ncols = ncols
        self.max_iters = 2000 + 100 * (self.m + ncols)
        M = np.zeros((self.m, ncols + 1), dtype=object if exact else np.float64)
        if exact:
            M[:, :] = zero
        M[:, :n_struct] = A
        for i in range(self.m):
            if self.slack_col[i] is not None:
                M[i, self.slack_col[i]] = one if rels[i] == LE else -one
            if self.art_col[i] is not None:
                M[i, self.art_col[i]] = one
            M[i, ncols] = b[i]
        self.M = M
        self.basis = [
            self.art_col[i] if self.art_col[i] is not None else self.slack_col[i]
            for i in range(self.m)
        ]
        self.artificials = {c for c in self.art_col if c is not None}
        self.row_alive = [True] * self.m
        self.iterations = 0

    # ---- pivoting ----

    def _pivot(self, r, j, B):
        M = self.M
        piv = M[r, j]
        M[r] = M[r] / piv
        col = M[:, j].copy()
        col[r] = self.zero_scalar()
        # rank-1 elimination of column j everywhere but the pivot row
        M -= np.outer(col, M[r])
        if B[j] != 0:
            B -= B[j] * M[r]
        if not self.exact:
            M[:, j] = 0.0
            M[r, j] = 1.0
            B[j] = 0.0
        self.basis[r] = j
        self.iterations += 1

    def zero_scalar(self):
        return Fraction(0) if self.exact else 0.0

    def _reduced_row(self, costs):
        """Build the z - c row (plus objective value cell) for given costs
        of the leading columns; the rest cost 0."""
        dtype = object if self.exact else np.float64
        B = np.zeros(self.M.shape[1], dtype=dtype)
        if self.exact:
            B[:] = Fraction(0)
        costs = np.asarray(costs, dtype=dtype)
        nz = np.flatnonzero(costs)
        B[nz] = -costs[nz]
        for r in range(self.m):
            if not self.row_alive[r]:
                continue
            jb = self.basis[r]
            if B[jb] != 0:
                B -= B[jb] * self.M[r]
        return B

    def _ratio_row(self, j, bland=False):
        """Leaving row for entering column j, or None if unbounded.

        Ties on the minimum ratio are rampant in degenerate programs; among
        tied rows the largest pivot entry wins (tiny pivots shred float
        tableaus), except under Bland's rule in exact mode, where the
        lowest basis index keeps the termination guarantee."""
        best_ratio = None
        M = self.M
        rows = []
        for i in range(self.m):
            if not self.row_alive[i]:
                continue
            a = M[i, j]
            if a <= self.tol:
                continue
            ratio = M[i, -1] / a
            rows.append((i, ratio, a))
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
        if best_ratio is None:
            return None
        if self.exact:
            tied = [t for t in rows if t[1] == best_ratio]
            if bland:
                return min(tied, key=lambda t: self.basis[t[0]])[0]
        else:
            slack = self.tol * (1 + abs(best_ratio))
            tied = [t for t in rows if t[1] <= best_ratio + slack]
        return max(tied, key=lambda t: (t[2], -self.basis[t[0]]))[0]

    def run(self, costs, banned, ray_free=False):
        """Maximize costs'x from the current basis.  Returns status string.

        Dantzig's rule enters the first column of most negative reduced
        cost; after DEGENERATE_STREAK degenerate pivots in a row, Bland's
        rule enters the first column below -tol.  ray_free callers
        guarantee the objective is bounded, so a column with no admissible
        pivot row is float dust, not a ray; it gets retired instead of
        triggering an UNBOUNDED verdict.
        """
        B = self._reduced_row(costs)
        bland = False
        streak = 0
        # columns that may enter, ascending; shrinks only when one retires
        allowed = np.ones(self.ncols, dtype=bool)
        allowed[list(banned)] = False
        allowed = np.flatnonzero(allowed)
        while True:
            if self.iterations > self.max_iters:
                raise SolverError(f"iteration cap {self.max_iters} exceeded")
            reduced = B[allowed]
            if bland:
                below = np.flatnonzero(reduced < -self.tol)
                pick = below[0] if len(below) else None
            else:
                pick = int(np.argmin(reduced)) if len(reduced) else None
                if pick is not None and not reduced[pick] < -self.tol:
                    pick = None
            if pick is None:
                self._B = B
                return OPTIMAL
            enter = int(allowed[pick])
            leave = self._ratio_row(enter, bland)
            if leave is None:
                if ray_free:
                    allowed = np.delete(allowed, pick)
                    continue
                self._B = B
                return UNBOUNDED
            degenerate = self.M[leave, -1] <= self.tol
            self._pivot(leave, enter, B)
            if degenerate:
                streak += 1
                if streak >= DEGENERATE_STREAK:
                    bland = True
            else:
                streak = 0

    def phase1(self):
        if not self.artificials:
            return True
        costs = [self.zero_scalar()] * self.ncols
        for c in self.artificials:
            costs[c] = -(Fraction(1) if self.exact else 1.0)
        status = self.run(costs, banned=frozenset(), ray_free=True)
        if status != OPTIMAL:  # phase-1 objective is bounded by 0
            raise SolverError("phase 1 reported unbounded")
        if self._B[-1] < -self.tol:
            return False
        # drive zero-level artificials out of the basis; drop dependent rows
        structural = np.ones(self.ncols, dtype=bool)
        structural[list(self.artificials)] = False
        for r in range(self.m):
            if not self.row_alive[r] or self.basis[r] not in self.artificials:
                continue
            row = self.M[r, :self.ncols]
            hits = np.flatnonzero(((row > self.tol) | (row < -self.tol)) & structural)
            if len(hits):
                self._pivot(r, int(hits[0]), self._B)
            else:
                self.row_alive[r] = False
        return True

    def column_values(self):
        vals = [self.zero_scalar()] * self.ncols
        for r in range(self.m):
            if self.row_alive[r]:
                vals[self.basis[r]] = self.M[r, -1]
        return vals


def _float_residual(A, b, relations, tab):
    """(worst violation relative to 1 + max|x|, row index or None for
    x >= 0) of the basic point against the equilibrated rows A x R b, in
    O(m^2): only basic columns are nonzero.  _Tableau flipped the rows with
    a negative rhs in place; tab.sign turns them back to `relations`."""
    basic = [(r, j) for r, j in enumerate(tab.basis) if tab.row_alive[r] and j < tab.n_struct]
    x = np.array([tab.M[r, -1] for r, _ in basic], dtype=float)
    sub = A[:, [j for _, j in basic]]
    gap = (sub @ x - np.asarray(b, dtype=float)) * tab.sign
    rel = np.asarray(relations)
    by_row = np.where(rel == EQ, abs(gap), np.where(rel == GE, -gap, gap))
    viol = np.concatenate([by_row, -x, [0]])
    i = int(np.argmax(viol))
    return viol[i] / (1 + np.abs(x).max(initial=0)), (i if i < len(A) else None)


def solve(lp: LinearProgram, exact: bool = False) -> SolveReport:
    """Two-phase simplex, in float unless exact.  A float run that raises
    SolverError is redone in rationals, which are slow but never lie;
    report.exact says which arithmetic answered.  SolverError from here
    means the rational run failed too."""
    if not exact:
        try:
            return _simplex(lp, exact=False)
        except SolverError:
            pass
    return _simplex(lp, exact=True)


def _simplex(lp: LinearProgram, exact: bool) -> SolveReport:
    """One run of the kernel in one arithmetic.  Raises SolverError rather
    than guessing, also when a float run ends at a point that violates its
    own rows."""
    std = _Standardizer(lp, exact)
    zero = std.zero
    sense_flip = -std.one if lp.sense == MINIMIZE else std.one

    # the rows and, last, the objective, scattered in one pass
    forms = np.full((len(lp.rows) + 1, std.ncols), zero, dtype=std.dtype)
    std.scatter([row.coeffs for row in lp.rows] + [lp.objective], forms)
    A, costs = forms[:-1], forms[-1]
    b = np.array([_convert(row.rhs, exact) for row in lp.rows], dtype=std.dtype)
    rels = [row.relation for row in lp.rows]
    if exact:
        row_scale = np.full(len(b), std.one, dtype=object)
    else:
        # equilibrate: float tolerances are absolute, so rows must share a
        # scale for them to mean anything
        biggest = np.abs(A).max(axis=1, initial=0.0)
        row_scale = 1.0 / np.where(biggest > 0, biggest, 1.0)
        A *= row_scale[:, None]
        b *= row_scale

    nz = np.flatnonzero(costs)
    costs[nz] = costs[nz] * sense_flip

    tab = _Tableau(A, b, rels, std.ncols, exact)
    if not tab.phase1():
        return SolveReport(INFEASIBLE, None, {}, {}, tab.iterations, exact)
    status = tab.run(costs, banned=frozenset(tab.artificials))
    if status == UNBOUNDED:
        return SolveReport(UNBOUNDED, None, {}, {}, tab.iterations, exact)

    if not exact:
        # a drifted float tableau can call an infeasible point optimal
        worst, i = _float_residual(A, b, rels, tab)
        if worst > RESIDUAL_TOL:
            where = "x >= 0" if i is None else lp.rows[i].label
            raise SolverError(f"float optimum violates {where} by {worst:.3g} (relative)")

    primal = std.recover(tab.column_values())
    # + zero turns a -0.0 optimum into 0.0
    value = sense_flip * tab._B[-1] + zero
    if not exact:
        value = float(value)

    # duals off the identity columns, undoing row sign normalization and
    # equilibration
    duals = {}
    B = tab._B
    for i, row in enumerate(lp.rows):
        if not tab.row_alive[i]:
            duals[row.label] = zero  # dependent row, any consistent dual works
            continue
        idcol = tab.art_col[i] if tab.art_col[i] is not None else tab.slack_col[i]
        y = B[idcol] * tab.sign[i] * sense_flip * row_scale[i]
        duals[row.label] = y if exact else float(y)
    return SolveReport(OPTIMAL, value, primal, duals, tab.iterations, exact)


# ============================================================
# point feasibility
# ============================================================


def evaluate_row(row: Row, point: Mapping) -> object:
    return sum(a * point.get(v, 0) for v, a in row.coeffs.items())


def fold_checks(checks, tol, first=None, worst=0):
    """Fold (label, violation) checks, in order, into (ok, first label
    whose violation exceeds tol, worst violation), starting from a first
    label and worst violation already found."""
    for label, v in checks:
        if v > worst:
            worst = v
        if v > tol and first is None:
            first = label
    return first is None, first, worst


def feasibility_report(lp: LinearProgram, point: Mapping, tol=1e-9):
    """(ok, first_violated_label, worst_violation) of a candidate point.

    Rows are checked in declaration order, then variable bounds (labeled
    bound[var]).  Variables absent from the point count as 0."""

    def checks():
        for row in lp.rows:
            gap = evaluate_row(row, point) - row.rhs
            yield row.label, gap if row.relation == LE else -gap if row.relation == GE else abs(gap)
        for var in lp.variables:
            lo, hi = lp.bound(var)
            x = point.get(var, 0)
            for v in ((lo - x) if lo is not None else 0, (x - hi) if hi is not None else 0):
                yield f"bound[{var}]", v

    return fold_checks(checks(), tol)


# ============================================================
# mechanical dual
# ============================================================

_DUAL_BOUND_MAX = {LE: _NONNEG, EQ: FREE, GE: _NONPOS}
_DUAL_BOUND_MIN = {GE: _NONNEG, EQ: FREE, LE: _NONPOS}
# the relation of the dual row of a primal variable, by the variable's bound
_DUAL_ROW_MAX = {_NONNEG: GE, FREE: EQ, _NONPOS: LE}
_DUAL_ROW_MIN = {_NONNEG: LE, FREE: EQ, _NONPOS: GE}


def dualize(lp: LinearProgram) -> LinearProgram:
    """Textbook dual.  Dual variables are named after primal row labels,
    dual rows after primal variables, so dualize(dualize(lp)) restores the
    original names."""
    primal_max = lp.sense == MAXIMIZE
    dvars = tuple(row.label for row in lp.rows)
    dbounds = {}
    for row in lp.rows:
        bnd = (_DUAL_BOUND_MAX if primal_max else _DUAL_BOUND_MIN)[row.relation]
        if bnd != _NONNEG:
            dbounds[row.label] = bnd
    # transpose
    col_coeffs: dict[str, dict[str, object]] = {v: {} for v in lp.variables}
    for row in lp.rows:
        for v, a in row.coeffs.items():
            if a != 0:
                col_coeffs[v][row.label] = a
    drows = []
    row_rel = _DUAL_ROW_MAX if primal_max else _DUAL_ROW_MIN
    for v in lp.variables:
        drows.append(Row(col_coeffs[v], row_rel[lp.bound(v)], lp.objective.get(v, 0), v))
    dobj = {row.label: row.rhs for row in lp.rows if row.rhs != 0}
    return LinearProgram(
        sense=MINIMIZE if primal_max else MAXIMIZE,
        variables=dvars,
        objective=dobj,
        rows=drows,
        bounds=dbounds,
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
    for v in lp.variables:
        entries = []
        c = lp.objective.get(v, 0)
        if c != 0:
            entries.append(("COST", c))
        for row in lp.rows:
            a = row.coeffs.get(v, 0)
            if a != 0:
                entries.append((rown[row.label], a))
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
    for v in lp.variables:
        short = coln[v]
        if lp.bound(v) == FREE:
            out.append(f" FR BND       {short}")
        elif lp.bound(v) == _NONPOS:
            out.append(f" MI BND       {short}")
            out.append(f" UP BND       {short:<10}0")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
