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

The two primals are built two ways.  build_pp_pne writes the
representative program from a closed form over the (P, Q) bit masks of
its resources, in numpy arrays; build_pp_cce enumerates the profiles of an
arbitrary model (_coefficient_parts).  At a point mass on sigma* they give
equal programs, and _primal assembles the rows of both.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _add(d: dict, key, val):
    if val == 0:
        return
    d[key] = d.get(key, 0) + val


def _merge(parts) -> dict:
    out: dict = {}
    for part in parts:
        for key, val in part.items():
            _add(out, key, val)
    return out


def _add_beta_costs(out, cfg: WorstCaseConfig, model: CongestionModel, loads, users, mass):
    """Add mass times each player i's beta-cost at one profile, given its
    loads and resource users, to out[i]."""
    n = cfg.n
    w = cfg.weights
    beta = cfg.spec.beta
    basis = cfg.basis
    for e in model.resources:
        if loads[e] == 0:
            continue
        fvals = [f.value(loads[e]) for f in basis]
        for i in range(n):
            b = sum(beta[i][j] * w[j] for j in users[e] if beta[i][j] != 0)
            if b == 0:
                continue
            for k, fv in enumerate(fvals):
                _add(out[i], vname(e, k), mass * fv * b)


def _coefficient_parts(cfg: WorstCaseConfig, model: CongestionModel, dist, o_profile):
    """Per-(resource, basis) coefficient tables of the coarse programs over
    an arbitrary model, by enumerating the distribution's profiles.

    eq[i]: expected grouped-deviation expression of player i against o_i,
    val[i]: expected beta-cost of player i, nrm[i]: beta-cost of i at the
    comparison profile.  Keys are variable names over (resource, k).
    """
    n = cfg.n
    w = cfg.weights
    alpha = cfg.alpha
    eps = cfg.epsilon
    basis = cfg.basis
    if tuple(model.weights) != tuple(w):
        raise GameError("model weights differ from configuration weights")

    eq = [dict() for _ in range(n)]
    val = [dict() for _ in range(n)]
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
                        _add(eq[i], vname(e, k), mass * fv * aw)
            for e in oi - si:
                aw = alpha[i][i] * w[i] + sum(
                    alpha[i][j] * w[j] for j in users[e] if alpha[i][j] != 0
                )
                if aw == 0:
                    continue
                for k, f in enumerate(basis):
                    fv = f.value(loads[e] + w[i])
                    if fv != 0:
                        _add(eq[i], vname(e, k), -(1 + eps) * mass * fv * aw)

    nrm = [dict() for _ in range(n)]
    _add_beta_costs(
        nrm, cfg, model, congestion(model, o_profile), resource_users(model, o_profile), 1
    )
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


def _primal(cfg: WorstCaseConfig, variables, eq, beta_rows, designated) -> lp.LinearProgram:
    """The primal over coefficient rows eq[i] <= 0, one per player, then
    the beta-cost rows.  beta_rows(summed) returns (val, nrm): with summed,
    each as one dict summed over the players in player order (the sum
    objective and its norm row); otherwise as per-player lists."""
    n = cfg.n
    rows = [lp.Row(eq[i], lp.LE, 0, f"eq[{i}]") for i in range(n)]
    if cfg.spec.kind == SUM:
        objective, norm = beta_rows(True)
        rows.append(lp.Row(norm, lp.LE, 1, "norm"))
        return lp.LinearProgram(lp.MAXIMIZE, variables, objective, rows, name="pp_sum")
    val, nrm = beta_rows(False)
    for i in range(n):
        coeffs = dict(val[i])
        coeffs["t"] = -1
        rel = lp.EQ if i == designated else lp.LE
        rows.append(lp.Row(coeffs, rel, 0, f"val[{i}]"))
    for i in range(n):
        rows.append(lp.Row(nrm[i], lp.LE, 1, f"norm[{i}]"))
    return lp.LinearProgram(
        lp.MAXIMIZE, list(variables) + ["t"], {"t": 1}, rows, name=f"pp_max_d{designated}"
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
    eq, val, nrm = _coefficient_parts(cfg, model, dist, o_profile)

    def beta_rows(summed):
        return (_merge(val), _merge(nrm)) if summed else (val, nrm)

    return _primal(cfg, _variables(cfg, model), eq, beta_rows, designated)


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


def build_pp_pne(
    cfg: WorstCaseConfig, rep: RepresentativeModel, designated: Optional[int] = None
) -> lp.LinearProgram:
    """Pure-equilibrium primal: the coarse program at a point mass on the
    representative first profile, written from the closed form over the
    (P, Q) masks of its resources.

    Column (P, Q, k) has load w(P) under sigma* and w(Q) under o*:
    eq[i] = f_k(w(P)) * sum_{j in P} alpha_ij w_j for i in P\\Q and
    -(1+eps) * f_k(w(P)+w_i) * (alpha_ii w_i + sum_{j in P} alpha_ij w_j)
    for i in Q\\P; val[i] = f_k(w(P)) * sum_{j in P} beta_ij w_j and
    nrm[i] = f_k(w(Q)) * sum_{j in Q} beta_ij w_j.  Each factor is
    computed once per mask, in build_pp_cce's order of operations, so the
    two programs are equal value for value: in float64 when every weight
    is a float, else over Python numbers in object arrays.
    """
    _check_designee(cfg, designated)
    n, r = cfg.n, len(cfg.basis)
    w, alpha, beta = cfg.weights, cfg.alpha, cfg.spec.beta
    if tuple(rep.model.weights) != tuple(w):
        raise GameError("model weights differ from configuration weights")
    dtype = np.float64 if all(isinstance(x, float) for x in w) else object
    size = 1 << n
    masks = np.arange(size)
    # resources are in (P, Q) order, P major: flat column (P*size + Q)*r + k
    names = np.array(_variables(cfg, rep.model), dtype=object)
    shape = (size, size, r)

    def row(coeffs) -> dict:
        flat = coeffs.ravel()
        nz = np.flatnonzero(flat)
        return dict(zip(names[nz].tolist(), flat[nz].tolist()))

    def weighted(mat, i):
        return _subset_sums([mat[i][j] * w[j] if mat[i][j] != 0 else None for j in range(n)], dtype)

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
        eq.append(row(coeffs))

    def beta_rows(summed):
        costs = [f_load * weighted(beta, i)[:, None] for i in range(n)]
        if summed:
            total = np.zeros((size, r), dtype=dtype)
            for c in costs:
                total = np.where(c != 0, total + c, total)
            costs = [total]
        val = [row(np.broadcast_to(c[:, None, :], shape)) for c in costs]
        nrm = [row(np.broadcast_to(c[None, :, :], shape)) for c in costs]
        return (val[0], nrm[0]) if summed else (val, nrm)

    return _primal(cfg, names.tolist(), eq, beta_rows, designated)


# ============================================================
# dual builders
# ============================================================


def _certificate_program(pp: lp.LinearProgram) -> lp.LinearProgram:
    """lp.dualize(pp) in certificate names.  Its variables, one per row of
    pp and in the same order, become eq[i] -> y[i], val[i] -> z[i],
    norm -> gamma, norm[i] -> gamma[i]; the row of variable v[e][k] is
    labelled r[v[e][k]], and the last row, that of the max programs' level
    variable t, zsum."""
    dual = lp.dualize(pp)
    name = {}
    for label in dual.variables:
        head, bracket, tail = label.partition("[")
        name[label] = {"eq": "y", "val": "z", "norm": "gamma"}[head] + bracket + tail
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
    values: dict = {}
    if cfg.spec.kind == SUM:
        colsum = [sum(beta[i][j] for i in range(n)) for j in range(n)]
        plus = [j for j in range(n) if colsum[j] > 0]
        if not plus:
            raise GameError("beta has no positive column")
        k = _witness_basis_index(cfg, plus)
        f = cfg.basis[k]
        for j in plus:
            base = one / (len(plus) * f.value(w[j]) * w[j] * colsum[j])
            values[vname(rep.resource_for([j], []), k)] = base
            repair = one / (1 + cfg.epsilon) if cfg.alpha[j][j] < 0 else 1
            values[vname(rep.resource_for([], [j]), k)] = base * repair
        return Witness(values, None)
    rowsum = [sum(beta[i][j] for j in range(n)) for i in range(n)]
    designated = max(range(n), key=lambda i: (rowsum[i], -i))
    k = _witness_basis_index(cfg, list(range(n)))
    f = cfg.basis[k]
    for j in range(n):
        base = one / (f.value(w[j]) * w[j] * rowsum[designated])
        values[vname(rep.resource_for([j], []), k)] = base
        repair = one / (1 + cfg.epsilon) if cfg.alpha[j][j] < 0 else 1
        values[vname(rep.resource_for([], [j]), k)] = base * repair
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


def solve_worst_case(cfg: WorstCaseConfig, exact: bool = False) -> WorstCaseResult:
    """Solve the worst-case primal for the configuration and certify its
    optimum with the primal's row duals.

    For max objectives one program per designated player is solved and the
    largest optimum wins; an unbounded primal makes gamma* infinite.  The
    row duals, in certificate names, must be feasible for build_dp_pne with
    objective equal to the primal optimum, which by weak duality proves
    it.  These checks and the optimum being at least 1 are guaranteed by
    the theory; violations raise InvariantViolation rather than returning a
    bad number.
    """
    rep = build_representative(cfg.weights)
    designees = [None] if cfg.spec.kind == SUM else list(range(cfg.n))
    variants = []
    for d in designees:
        pp = build_pp_pne(cfg, rep, d)
        rp = lp.solve(pp, exact)
        if rp.status == lp.UNBOUNDED:
            variants.append(VariantResult(d, INFINITE, None, None, {}, {}, rp.iterations))
            continue
        if rp.status != lp.OPTIMAL:
            raise InvariantViolation(f"primal is {rp.status}; the unit witness is feasible")
        dp = _certificate_program(pp)
        cert = {v: rp.duals[row.label] for v, row in zip(dp.variables, pp.rows)}
        ok, label, violation = lp.feasibility_report(dp, cert, 0 if exact else FEAS_TOL)
        if not ok:
            raise InvariantViolation(f"certificate violates {label} by {violation}")
        bound = sum(c * cert.get(v, 0) for v, c in dp.objective.items())
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
    violated row label."""
    program = build_pp_pne(cfg, rep, designated)
    ok, label, violation = lp.feasibility_report(program, primal_values, FEAS_TOL)
    if not ok:
        raise GameError(f"primal point violates {label} by {violation}")
    r = len(cfg.basis)
    coeffs = {}
    for e in rep.model.resources:
        vec = []
        for k in range(r):
            c = primal_values.get(vname(e, k), 0)
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
    program stays feasible for the coarse program of (model, dist, o).

    Holds for every input by convexity of the row family; a failure means
    an implementation bug, so callers normally escalate it."""
    program = build_dp_cce(cfg, model, dist, o_profile, designated)
    ok, label, violation = lp.feasibility_report(
        program, dual_values, FEAS_TOL, check_bounds=False)
    return ExtensionReport(ok, len(program.rows), violation, None if ok else label)
