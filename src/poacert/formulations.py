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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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
    """Per-(resource, basis) coefficient tables shared by all four programs.

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


def build_pp_cce(
    cfg: WorstCaseConfig,
    model: CongestionModel,
    dist: ProfileDistribution,
    o_profile,
    designated: Optional[int] = None,
) -> lp.LinearProgram:
    """Worst-case primal over latency coefficients for a fixed model,
    distribution and comparison profile."""
    n = cfg.n
    eq, val, nrm = _coefficient_parts(cfg, model, dist, o_profile)
    variables = _variables(cfg, model)
    rows = [lp.Row(eq[i], lp.LE, 0, f"eq[{i}]") for i in range(n)]
    if cfg.spec.kind == SUM:
        if designated is not None:
            raise GameError("designated player applies to max objectives only")
        rows.append(lp.Row(_merge(nrm), lp.LE, 1, "norm"))
        return lp.LinearProgram(
            lp.MAXIMIZE, variables, _merge(val), rows, name="pp_sum"
        )
    if designated is None or not 0 <= designated < n:
        raise GameError("max objective needs a designated player index")
    variables = variables + ["t"]
    for i in range(n):
        coeffs = dict(val[i])
        coeffs["t"] = -1
        rel = lp.EQ if i == designated else lp.LE
        rows.append(lp.Row(coeffs, rel, 0, f"val[{i}]"))
    for i in range(n):
        rows.append(lp.Row(nrm[i], lp.LE, 1, f"norm[{i}]"))
    return lp.LinearProgram(
        lp.MAXIMIZE, variables, {"t": 1}, rows, name=f"pp_max_d{designated}"
    )


def build_pp_pne(
    cfg: WorstCaseConfig, rep: RepresentativeModel, designated: Optional[int] = None
) -> lp.LinearProgram:
    """Pure-equilibrium primal: the coarse program at a point mass on the
    representative first profile."""
    return build_pp_cce(
        cfg,
        rep.model,
        ProfileDistribution.point(rep.sigma_star),
        rep.o_star,
        designated,
    )


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
    return build_dp_cce(
        cfg,
        rep.model,
        ProfileDistribution.point(rep.sigma_star),
        rep.o_star,
        designated,
    )


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
