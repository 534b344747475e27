"""Worst-case certification programs.

Over a fixed weight vector, perception matrix and latency basis, the
worst-case (approximate) price of anarchy of the whole game class is the
optimum of a pair of linear programs written on the representative model:
the primal searches for latency coefficients making the first strategy
profile an approximate equilibrium of maximal social value subject to the
second profile's value being at most 1, the dual certifies the bound.  Only
the primals are written out: each dual program is lp.dualize of its primal
in certificate names, and solve_worst_case solves the primal alone and
reads the certificate off its row duals.  The coarse correlated analogues
replace the point profile by a distribution over an arbitrary model with
the same weights; every dual-feasible point of the pure program stays
feasible there row by row, which is what verify_extension checks
numerically.

Both primals are written from coefficient arrays over their columns.  The
representative program's come from a closed form over the (P, Q) bit
masks of its resources (_closed_form); build_pp_cce's from enumerating the
profiles of an arbitrary model (_coefficient_parts).  At a point mass on
sigma* they give equal programs.  _row_table lays out the rows of both,
and _primal names them as a LinearProgram.

No check builds a dual program (build_dp_cce serves the tests, and
build_dp_pne also --emit-lp).  solve_worst_case and verify_extension
price a certificate from the primal's arrays in one reduced-cost pass,
c - A^T y, and extract_worst_game checks a primal point from them row by
row; each gives lp.feasibility_report's verdict, label and violation on
the program it does not build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from . import linprog as lp
from .games import (
    FEAS_TOL,
    SUM,
    CongestionModel,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    congestion,
    resource_users,
)
from .representative import RepresentativeModel, build_representative

OPTIMAL = "OPTIMAL"
INFINITE = "INFINITE"

VALUE_RTOL = 1e-6


class InvariantViolation(Exception):
    """A relation the theory guarantees failed numerically; treat as a bug,
    not as a property of the instance."""


@dataclass(frozen=True)
class WorstCaseConfig:
    weights: tuple
    alpha: tuple
    spec: SocialSpec
    epsilon: object
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "alpha", tuple(tuple(row) for row in self.alpha))
        object.__setattr__(self, "basis", tuple(self.basis))
        n = len(self.weights)
        if n < 2:
            raise GameError("need at least 2 players")
        if any(w <= 0 for w in self.weights):
            raise GameError("weights must be positive")
        if len(self.alpha) != n or any(len(row) != n for row in self.alpha):
            raise GameError(f"alpha must be {n}x{n}")
        if self.spec.n != n:
            raise GameError("social spec dimension mismatch")
        if self.epsilon < 0:
            raise GameError("epsilon must be non-negative")
        if not self.basis:
            raise GameError("empty basis")

    @property
    def n(self) -> int:
        return len(self.weights)


def vname(e, k: int) -> str:
    return f"v[{e}][{k}]"


def _add(a: np.ndarray, key, val):
    if val != 0:
        a[key] += val


def _add_beta_costs(out, cfg: WorstCaseConfig, model: CongestionModel, loads, users, mass):
    """Add mass times each player i's beta-cost at one profile, given its
    loads and resource users, to out[i]."""
    n = cfg.n
    w = cfg.weights
    beta = cfg.spec.beta
    basis = cfg.basis
    for col, e in enumerate(model.resources):
        if loads[e] == 0:
            continue
        fvals = [f.value(loads[e]) for f in basis]
        for i in range(n):
            b = sum(beta[i][j] * w[j] for j in users[e] if beta[i][j] != 0)
            if b == 0:
                continue
            for k, fv in enumerate(fvals):
                _add(out[i], (col, k), mass * fv * b)


def _coefficient_parts(cfg: WorstCaseConfig, model: CongestionModel, dist, o_profile):
    """(eq, val, nrm) of the coarse programs over an arbitrary model, as
    object arrays over (resource, k), by enumerating the distribution's
    profiles.

    eq[i]: expected grouped-deviation expression of player i against o_i,
    val[i]: expected beta-cost of player i, nrm[i]: beta-cost of i at the
    comparison profile; under a sum objective, val and nrm are summed once.
    """
    n = cfg.n
    w = cfg.weights
    alpha = cfg.alpha
    eps = cfg.epsilon
    basis = cfg.basis
    if tuple(model.weights) != tuple(w):
        raise GameError("model weights differ from configuration weights")

    shape = (len(model.resources), len(basis))
    col = {e: j for j, e in enumerate(model.resources)}
    eq, val, nrm = ([np.zeros(shape, dtype=object) for _ in range(n)] for _ in range(3))
    o_sets = model.profile_strategies(o_profile)
    for prof, mass in dist.masses.items():
        loads = congestion(model, prof)
        users = resource_users(model, prof)
        s_sets = model.profile_strategies(prof)
        _add_beta_costs(val, cfg, model, loads, users, mass)
        for i in range(n):
            si, oi = s_sets[i], o_sets[i]
            for e in si - oi:
                aw = sum(alpha[i][j] * w[j] for j in users[e] if alpha[i][j] != 0)
                if aw == 0:
                    continue
                for k, f in enumerate(basis):
                    fv = f.value(loads[e])
                    if fv != 0:
                        _add(eq[i], (col[e], k), mass * fv * aw)
            for e in oi - si:
                aw = alpha[i][i] * w[i] + sum(
                    alpha[i][j] * w[j] for j in users[e] if alpha[i][j] != 0
                )
                if aw == 0:
                    continue
                for k, f in enumerate(basis):
                    fv = f.value(loads[e] + w[i])
                    if fv != 0:
                        _add(eq[i], (col[e], k), -(1 + eps) * mass * fv * aw)

    _add_beta_costs(
        nrm, cfg, model, congestion(model, o_profile), resource_users(model, o_profile), 1
    )
    if cfg.spec.kind == SUM:
        return eq, _summed(val), _summed(nrm)
    return eq, val, nrm


def _variables(cfg: WorstCaseConfig, model: CongestionModel) -> list:
    return [vname(e, k) for e in model.resources for k in range(len(cfg.basis))]


# ============================================================
# primal builders
# ============================================================


def _check_designee(cfg: WorstCaseConfig, designated: Optional[int]) -> None:
    if cfg.spec.kind == SUM:
        if designated is not None:
            raise GameError("designated player applies to max objectives only")
    elif designated is None or not 0 <= designated < cfg.n:
        raise GameError("max objective needs a designated player index")


def _summed(parts) -> np.ndarray:
    """The sum of per-player arrays in player order, each zero entry
    skipped, as _add skips it."""
    total = np.zeros_like(parts[0])
    for c in parts:
        total = np.where(c != 0, total + c, total)
    return total


def _row_table(cfg: WorstCaseConfig, eq, val, nrm, designated) -> tuple:
    """The primal as (objective, rows), each row (label, relation, rhs,
    coefficients over the v columns, coefficient of t): eq[i] <= 0, one
    per player, then the beta-cost rows.  eq holds per-player arrays over
    the columns; val and nrm hold the cost rows as the program uses them,
    per player under max and summed by the producer under sum (the
    objective and its norm row), and may broadcast to eq's shape, as the
    closed form's (P, 1, k) and (1, Q, k) costs do.  The max programs
    maximize t, and their objective is None."""
    n = cfg.n

    def full(a):
        return np.broadcast_to(a, eq[0].shape)

    rows = [(f"eq[{i}]", lp.LE, 0, eq[i], 0) for i in range(n)]
    if cfg.spec.kind == SUM:
        rows.append(("norm", lp.LE, 1, full(nrm), 0))
        return full(val), rows
    rows += [(f"val[{i}]", lp.EQ if i == designated else lp.LE, 0, full(val[i]), -1)
             for i in range(n)]
    rows += [(f"norm[{i}]", lp.LE, 1, full(nrm[i]), 0) for i in range(n)]
    return None, rows


def _named(names: np.ndarray, coeffs: np.ndarray) -> dict:
    flat = coeffs.ravel()
    nz = np.flatnonzero(flat)
    return dict(zip(names[nz].tolist(), flat[nz].tolist()))


def _primal(cfg: WorstCaseConfig, names, objective, rows, designated) -> lp.LinearProgram:
    """The program of a row table, its arrays named by the column names."""
    lp_rows = [lp.Row({**_named(names, a), "t": t} if t else _named(names, a), rel, rhs, label)
               for label, rel, rhs, a, t in rows]
    if cfg.spec.kind == SUM:
        return lp.LinearProgram(
            lp.MAXIMIZE, names.tolist(), _named(names, objective), lp_rows, name="pp_sum")
    return lp.LinearProgram(
        lp.MAXIMIZE, names.tolist() + ["t"], {"t": 1}, lp_rows, name=f"pp_max_d{designated}"
    )


def build_pp_cce(
    cfg: WorstCaseConfig,
    model: CongestionModel,
    dist: ProfileDistribution,
    o_profile,
    designated: Optional[int] = None,
) -> lp.LinearProgram:
    """Worst-case primal over latency coefficients for a fixed model,
    distribution and comparison profile."""
    _check_designee(cfg, designated)
    objective, rows = _row_table(
        cfg, *_coefficient_parts(cfg, model, dist, o_profile), designated)
    return _primal(cfg, np.array(_variables(cfg, model), dtype=object), objective, rows, designated)


def _subset_sums(terms, dtype) -> np.ndarray:
    """sums[m] = the sum of terms[j] over the set bits j of mask m, for
    every m < 2^len(terms).  The highest-bit recurrence adds the terms in
    ascending j, the order congestion() and sum() over sorted players use;
    a None term is skipped, as those sums skip zero factors."""
    sums = np.zeros(1 << len(terms), dtype=dtype)
    for j, t in enumerate(terms):
        lo = 1 << j
        sums[lo:2 * lo] = sums[:lo] if t is None else sums[:lo] + t
    return sums


def _basis_values(basis, loads, scale, dtype) -> np.ndarray:
    """out[.., k] = scale * basis[k].value(load), evaluated on Python
    scalars once per distinct load; None loads give 0 and are never
    evaluated."""
    flat = loads.ravel().tolist()
    cache: dict = {}
    out = np.zeros((len(flat), len(basis)), dtype=dtype)
    cast = float if dtype is np.float64 else (lambda x: x)
    for idx, x in enumerate(flat):
        if x is None:
            continue
        if x not in cache:
            cache[x] = [cast(scale * f.value(x)) for f in basis]
        out[idx] = cache[x]
    return out.reshape(loads.shape + (len(basis),))


def _closed_form(cfg: WorstCaseConfig, rep: RepresentativeModel) -> tuple:
    """(eq, val, nrm) of the representative primal for _row_table, written
    from the closed form over the (P, Q) masks of the resources: eq[i] as
    an array over (P, Q, k), val[i] over (P, 1, k) and nrm[i] over
    (1, Q, k); under a sum objective, val and nrm are one total of costs.

    Column (P, Q, k) has load w(P) under sigma* and w(Q) under o*:
    eq[i] = f_k(w(P)) * sum_{j in P} alpha_ij w_j for i in P\\Q and
    -(1+eps) * f_k(w(P)+w_i) * (alpha_ii w_i + sum_{j in P} alpha_ij w_j)
    for i in Q\\P; val[i] = f_k(w(P)) * sum_{j in P} beta_ij w_j and
    nrm[i] = f_k(w(Q)) * sum_{j in Q} beta_ij w_j.  Each factor is
    computed once per mask, in build_pp_cce's order of operations, so the
    two programs are equal value for value: in float64 when every weight
    is a float, else over Python numbers in object arrays.  A float
    coefficient that overflows raises OverflowError.
    """
    n, r = cfg.n, len(cfg.basis)
    w, alpha, beta = cfg.weights, cfg.alpha, cfg.spec.beta
    if tuple(rep.model.weights) != tuple(w):
        raise GameError("model weights differ from configuration weights")
    dtype = np.float64 if all(isinstance(x, float) for x in w) else object
    size = 1 << n
    masks = np.arange(size)
    shape = (size, size, r)

    def weighted(mat, i):
        return _subset_sums([mat[i][j] * w[j] if mat[i][j] != 0 else None for j in range(n)], dtype)

    # an overflow shows as a coefficient that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        loads = _subset_sums(list(w), dtype)
        f_load = _basis_values(cfg.basis, np.where(masks > 0, loads, None), 1, dtype)
        neg = -(1 + cfg.epsilon)
        eq = []
        for i in range(n):
            bit = 1 << i
            aw = weighted(alpha, i)
            aw_join = alpha[i][i] * w[i] + aw
            joins = (masks & bit == 0) & (aw_join != 0)
            f_join = _basis_values(
                cfg.basis, np.where(joins, loads + w[i], None), neg, dtype)
            coeffs = np.zeros(shape, dtype=dtype)
            p_in, p_out = np.flatnonzero(masks & bit), np.flatnonzero(masks & bit == 0)
            coeffs[np.ix_(p_in, p_out)] = (f_load * aw[:, None])[p_in, None, :]
            coeffs[np.ix_(p_out, p_in)] = (f_join * aw_join[:, None])[p_out, None, :]
            eq.append(coeffs)
        costs = [f_load * weighted(beta, i)[:, None] for i in range(n)]
        if cfg.spec.kind == SUM:
            costs = [_summed(costs)]
    if dtype is np.float64 and not all(np.isfinite(a).all() for a in eq + costs):
        raise OverflowError("a coefficient of the worst-case program exceeds the float range")
    val, nrm = [c[:, None, :] for c in costs], [c[None, :, :] for c in costs]
    return (eq, val[0], nrm[0]) if cfg.spec.kind == SUM else (eq, val, nrm)


def _column_names(cfg: WorstCaseConfig, rep: RepresentativeModel) -> np.ndarray:
    """Variable names of the v columns; resources are in (P, Q) order, P
    major, so flat column (P*size + Q)*r + k is v[e][k]."""
    return np.array(_variables(cfg, rep.model), dtype=object)


def build_pp_pne(
    cfg: WorstCaseConfig, rep: RepresentativeModel, designated: Optional[int] = None
) -> lp.LinearProgram:
    """Pure-equilibrium primal: the coarse program at a point mass on the
    representative first profile, named from the closed-form columns of
    _closed_form."""
    _check_designee(cfg, designated)
    objective, rows = _row_table(cfg, *_closed_form(cfg, rep), designated)
    return _primal(cfg, _column_names(cfg, rep), objective, rows, designated)


# ============================================================
# dual builders
# ============================================================


def _certificate_name(label: str) -> str:
    """The certificate variable of primal row label: eq[i] -> y[i],
    val[i] -> z[i], norm -> gamma, norm[i] -> gamma[i]."""
    head, bracket, tail = label.partition("[")
    return {"eq": "y", "val": "z", "norm": "gamma"}[head] + bracket + tail


def _certificate_program(pp: lp.LinearProgram) -> lp.LinearProgram:
    """lp.dualize(pp) in certificate names.  Its variables, one per row of
    pp and in the same order, are named by _certificate_name; the row of
    variable v[e][k] is labelled r[v[e][k]], and the last row, that of the
    max programs' level variable t, zsum."""
    dual = lp.dualize(pp)
    name = {label: _certificate_name(label) for label in dual.variables}
    rows = [
        lp.Row({name[v]: a for v, a in row.coeffs.items()}, row.relation, row.rhs,
               "zsum" if row.label == "t" else f"r[{row.label}]")
        for row in dual.rows
    ]
    return lp.LinearProgram(
        dual.sense,
        list(name.values()),
        {name[v]: c for v, c in dual.objective.items()},
        rows,
        bounds={name[v]: b for v, b in dual.bounds.items()},
        name="d" + pp.name[1:],
    )


def build_dp_cce(
    cfg: WorstCaseConfig,
    model: CongestionModel,
    dist: ProfileDistribution,
    o_profile,
    designated: Optional[int] = None,
) -> lp.LinearProgram:
    """Certificate program: the dual of build_pp_cce, one row per
    (resource, basis index)."""
    return _certificate_program(build_pp_cce(cfg, model, dist, o_profile, designated))


def build_dp_pne(
    cfg: WorstCaseConfig, rep: RepresentativeModel, designated: Optional[int] = None
) -> lp.LinearProgram:
    return _certificate_program(build_pp_pne(cfg, rep, designated))


# ============================================================
# the hand witness of value 1
# ============================================================


@dataclass(frozen=True)
class Witness:
    values: Mapping  # LP variable name -> value
    designated: Optional[int]  # player whose row is the equality, max only


def _witness_basis_index(cfg: WorstCaseConfig, players: Sequence[int]) -> int:
    for k, f in enumerate(cfg.basis):
        if all(f.covers(cfg.weights[j]) and f.value(cfg.weights[j]) > 0 for j in players):
            return k
    raise GameError("no basis function is positive at every player weight")


def lemma1_witness(cfg: WorstCaseConfig, rep: RepresentativeModel) -> Witness:
    """Closed-form feasible point of the primal with objective exactly 1.

    Mass sits on the singleton resources e({j}, {}) and e({}, {j}).  With
    eps > 0 and a negative alpha_jj the textbook coefficient would tip
    player j's equilibrium row positive, so the o-side coefficient shrinks
    by 1/(1+eps) for exactly those players, which zeroes the row instead.
    """
    n = cfg.n
    w = cfg.weights
    beta = cfg.spec.beta
    one = Fraction(1) if isinstance(w[0], (Fraction, int)) else 1.0
    if cfg.spec.kind == SUM:
        # each of the count players with a positive beta column adds 1/count
        scale = [sum(beta[i][j] for i in range(n)) for j in range(n)]
        players = [j for j in range(n) if scale[j] > 0]
        if not players:
            raise GameError("beta has no positive column")
        count, designated = len(players), None
    else:
        rowsum = [sum(beta[i][j] for j in range(n)) for i in range(n)]
        designated = max(range(n), key=lambda i: (rowsum[i], -i))
        players, count, scale = list(range(n)), 1, [rowsum[designated]] * n
    k = _witness_basis_index(cfg, players)
    f = cfg.basis[k]
    values: dict = {}
    for j in players:
        base = one / (count * f.value(w[j]) * w[j] * scale[j])
        values[vname(rep.resource_for([j], []), k)] = base
        repair = one / (1 + cfg.epsilon) if cfg.alpha[j][j] < 0 else 1
        values[vname(rep.resource_for([], [j]), k)] = base * repair
    if designated is not None:
        values["t"] = one
    return Witness(values, designated)


# ============================================================
# solve + extract
# ============================================================


@dataclass
class VariantResult:
    designated: Optional[int]
    status: str
    dp_value: object
    pp_value: object
    dual: dict
    primal: dict
    iterations: int


@dataclass
class WorstCaseResult:
    status: str
    gamma_star: object
    designated: Optional[int]
    rep: RepresentativeModel
    variants: list
    dual_solution: dict
    primal_solution: dict
    exact: bool

    def variant(self, designated) -> VariantResult:
        for var in self.variants:
            if var.designated == designated:
                return var
        raise KeyError(designated)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1, abs(a), abs(b))


def _reduced_cost_pass(names, objective, rows, duals, tol):
    """lp.feasibility_report's (ok, first violated label, worst violation)
    on the rows of the certificate program of a row table, for the
    certificate duals, one per row of the table and in its order, priced
    from the columns in one reduced-cost pass.

    Column v's dual row r[v] reads c_v - sum_rows a_row,v y_row <= tol.
    Each column's sum runs over its nonzero coefficients in row order, the
    order lp.evaluate_row adds the dual row in, one rounding per addition
    as the builtin sum adds floats (before Python 3.12, which compensates
    it), and in the same arithmetic (a float column's duals are floats, as
    a float times a Fraction is), so its value is the same to the bit.
    Then, as in the dual program, the max objectives' zsum row,
    1 + sum z_i <= tol.  The sign bounds of the duals are not checked."""
    dtype = rows[0][3].dtype
    lhs = np.zeros(rows[0][3].shape, dtype=dtype)
    for (_, _, _, a, _), y in zip(rows, duals):
        nz = a != 0
        lhs[nz] += a[nz] * (float(y) if dtype == np.float64 else y)
    # the dual row's rhs is the objective coefficient, an int 0 where it is 0
    viol = ((0 if objective is None else np.where(objective != 0, objective, 0)) - lhs).ravel()
    bad = np.flatnonzero(viol > tol)
    first = f"r[{names[bad[0]]}]" if len(bad) else None
    positive = viol[viol > 0].tolist()
    worst = max(positive) if positive else 0
    checks = []
    if objective is None:
        checks.append(("zsum", 1 - sum(t * y for (*_, t), y in zip(rows, duals) if t)))
    return lp.fold_checks(checks, tol, first, worst)


def _certificate_report(names, objective, rows, duals, tol):
    """lp.feasibility_report(build_dp_pne(...), cert, tol): the reduced-cost
    pass, then the sign bounds of the duals of <= rows."""
    _, first, worst = _reduced_cost_pass(names, objective, rows, duals, tol)
    bounds = [(f"bound[{_certificate_name(label)}]", 0 - y)
              for (label, rel, *_), y in zip(rows, duals) if rel == lp.LE]
    return lp.fold_checks(bounds, tol, first, worst)


def _point_report(names, rows, values, level, tol):
    """lp.feasibility_report(build_pp_pne(...), point, tol) from the
    closed-form row table, for the point's values over the v columns, in
    column order, and its level t.  Each row's lhs sums its nonzero
    coefficients times the nonzero values in column order, then t, with
    the builtin sum, as lp.evaluate_row does (a zero term leaves such a sum
    unchanged); then every variable's bound x >= 0."""
    x = np.array(values, dtype=object)
    support = np.flatnonzero(x)
    x = x[support]
    at = np.unravel_index(support, rows[0][3].shape)
    checks = []
    for label, rel, rhs, a, t in rows:
        coeffs = a[at]
        keep = coeffs != 0
        terms = (coeffs[keep] * x[keep]).tolist() + ([t * level] if t else [])
        gap = sum(terms) - rhs
        checks.append((label, abs(gap) if rel == lp.EQ else gap))
    checks += [(f"bound[{names[j]}]", 0 - values[j]) for j in support]
    if any(t for *_, t in rows):
        checks.append(("bound[t]", 0 - level))
    return lp.fold_checks(checks, tol)


def _exact_config(cfg: WorstCaseConfig) -> WorstCaseConfig:
    """cfg with every float (weights, alpha, beta, epsilon, lookup keys
    and values) read as its exact binary value, as lp.solve(exact=True)
    reads one."""

    def q(x):  # a number, or nested tuples or lists of them
        if isinstance(x, (tuple, list)):
            return tuple(map(q, x))
        return Fraction(x) if isinstance(x, float) else x

    basis = [replace(f, table=q(f.table)) for f in cfg.basis]
    spec = SocialSpec(cfg.spec.kind, q(cfg.spec.beta))
    return WorstCaseConfig(q(cfg.weights), q(cfg.alpha), spec, q(cfg.epsilon), basis)


def solve_worst_case(cfg: WorstCaseConfig, exact: bool = False) -> WorstCaseResult:
    """Solve the worst-case primal for the configuration and certify its
    optimum with the primal's row duals.

    For max objectives one program per designated player is solved and the
    largest optimum wins; an unbounded primal makes gamma* infinite.  The
    row duals, in certificate names, must be feasible for build_dp_pne with
    objective equal to the primal optimum, which by weak duality proves
    it.  Feasibility is priced from the closed-form columns, which every
    designee's program shares, in one reduced-cost pass that gives
    lp.feasibility_report's verdict on build_dp_pne.  These checks and the
    optimum being at least 1 are guaranteed by the theory; violations raise
    InvariantViolation rather than returning a bad number.
    Exact mode first reads every float of cfg as its exact binary value,
    as lp.solve does: weights (1.0, 1.5) solve, and give rep, as (1, 3/2).
    """
    if exact:
        cfg = _exact_config(cfg)
    rep = build_representative(cfg.weights)
    designees = [None] if cfg.spec.kind == SUM else list(range(cfg.n))
    columns = _closed_form(cfg, rep)
    names = _column_names(cfg, rep)
    variants = []
    for d in designees:
        objective, rows = _row_table(cfg, *columns, d)
        rp = lp.solve(_primal(cfg, names, objective, rows, d), exact)
        if rp.status == lp.UNBOUNDED:
            variants.append(VariantResult(d, INFINITE, None, None, {}, {}, rp.iterations))
            continue
        if rp.status != lp.OPTIMAL:
            raise InvariantViolation(f"primal is {rp.status}; the unit witness is feasible")
        duals = [rp.duals[label] for label, *_ in rows]
        ok, label, violation = _certificate_report(
            names, objective, rows, duals, 0 if exact else FEAS_TOL)
        if not ok:
            raise InvariantViolation(f"certificate violates {label} by {violation}")
        cert = {_certificate_name(label): y for (label, *_), y in zip(rows, duals)}
        bound = sum(rhs * y for (_, _, rhs, *_), y in zip(rows, duals) if rhs != 0)
        if not _close(bound, rp.value, 0 if exact else VALUE_RTOL):
            raise InvariantViolation(f"duality gap: primal {rp.value} vs certificate {bound}")
        variants.append(
            VariantResult(d, OPTIMAL, bound, rp.value, cert, rp.primal, rp.iterations)
        )

    infinite = [v for v in variants if v.status == INFINITE]
    if infinite:
        return WorstCaseResult(INFINITE, None, infinite[0].designated, rep, variants, {}, {}, exact)
    best = max(variants, key=lambda v: v.pp_value)
    if best.pp_value < 1 - (0 if exact else FEAS_TOL):
        raise InvariantViolation(
            f"optimum {best.pp_value} below 1; the unit witness must be feasible"
        )
    return WorstCaseResult(
        OPTIMAL,
        best.pp_value,
        best.designated,
        rep,
        variants,
        dict(best.dual),
        dict(best.primal),
        exact,
    )


def extract_worst_game(
    cfg: WorstCaseConfig,
    rep: RepresentativeModel,
    primal_values: Mapping,
    designated: Optional[int] = None,
) -> GeneralizedGame:
    """Turn a feasible primal point into a concrete game on the
    representative model.  Infeasible points are rejected with the first
    violated row label: the point is checked against the closed-form
    columns row by row, as lp.feasibility_report checks it on
    build_pp_pne."""
    _check_designee(cfg, designated)
    _, rows = _row_table(cfg, *_closed_form(cfg, rep), designated)
    names = _variables(cfg, rep.model)
    values = [primal_values.get(v, 0) for v in names]
    ok, label, violation = _point_report(
        names, rows, values, primal_values.get("t", 0), FEAS_TOL)
    if not ok:
        raise GameError(f"primal point violates {label} by {violation}")
    r = len(cfg.basis)
    coeffs = {}
    for j, e in enumerate(rep.model.resources):
        vec = []
        for c in values[j * r:(j + 1) * r]:
            if c < 0:
                c = 0  # solver noise within FEAS_TOL, checked above
            vec.append(c)
        coeffs[e] = tuple(vec)
    return GeneralizedGame(rep.model, cfg.basis, coeffs, cfg.alpha)


def normalize_game(game: GeneralizedGame, spec: SocialSpec):
    """Scale latencies so the best pure profile has social value exactly 1.

    Scaling preserves equilibrium sets and every value ratio, so worst-case
    ratios can be read off normalized games directly.  Returns (game,
    optimum value before scaling).
    """
    from .oracle import social_optimum

    _, value = social_optimum(game, spec)
    if value <= 0:
        raise GameError(f"social optimum {value} is not positive; cannot normalize")
    one = Fraction(1) if isinstance(value, (Fraction, int)) else 1.0
    return game.scaled(one / value), value


@dataclass
class ExtensionReport:
    ok: bool
    rows_checked: int
    worst_violation: object
    first_violated: Optional[str]


def verify_extension(
    cfg: WorstCaseConfig,
    dual_values: Mapping,
    model: CongestionModel,
    dist: ProfileDistribution,
    o_profile,
    designated: Optional[int] = None,
) -> ExtensionReport:
    """Check that a dual-feasible certificate for the representative pure
    program stays feasible for the coarse program of (model, dist, o): the
    rows of build_dp_cce, priced in the reduced-cost pass from build_pp_cce's
    arrays, without the duals' sign bounds.

    Holds for every input by convexity of the row family; a failure means
    an implementation bug, so callers normally escalate it."""
    _check_designee(cfg, designated)
    objective, rows = _row_table(
        cfg, *_coefficient_parts(cfg, model, dist, o_profile), designated)
    names = _variables(cfg, model)
    duals = [dual_values.get(_certificate_name(label), 0) for label, *_ in rows]
    ok, label, violation = _reduced_cost_pass(names, objective, rows, duals, FEAS_TOL)
    return ExtensionReport(ok, len(names) + (objective is None), violation, label)
