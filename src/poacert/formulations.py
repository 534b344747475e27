"""Worst-case certification programs.

Over a fixed weight vector, perception matrix and latency basis, the
worst-case (approximate) price of anarchy of the whole game class is the
optimum of a pair of linear programs written on the representative model:
the primal searches for latency coefficients making the first strategy
profile an approximate equilibrium of maximal social value subject to the
second profile's value being at most 1, the dual certifies the bound.  Only
the primals are written out: each dual program is lp.dualize of its primal
in certificate names, and solve_worst_case solves the primal alone and
reads the certificate off its row duals, by position: one value per row
of the primal, the dual's variables in order.  Under a max objective it
solves each designee's cost row over one region, the rows every designee
shares, and the largest optimum is gamma*.  The coarse correlated analogues
replace the point profile by a distribution over an arbitrary model with
the same weights; every dual-feasible point of the pure program stays
feasible there row by row, which is what verify_extension checks
numerically.

Both primals are written from one closed form over the (P, Q) bit masks
of the representative resources: per-mask factor arrays of size
O(n len(masks) r) (_mask_factors: one masked accumulation of the loads
and weighted sums, the basis read once per distinct load), evaluated at
the masks a caller reads: every mask, once per answer (_factors, which
keeps them on the rep for the config object it was priced for), read at
every column (_closed_form) or at chosen ones (_entries); or mixed, at
the masks a model uses: the coarse column of
resource e is the mass-weighted sum of the columns (P, Q, k) of its
players under each profile and under o (_coarse_parts), the extension
argument itself.  _primal lays out the rows of every such program and
writes each part, a factor slice that broadcasts over the columns, by
np.copyto straight into a LinearProgram's coefficient array, with no
array of a row's entries built first and no name per entry.  A point of
the representative program is keyed by position: column (P, Q, k) is j =
(P 2^n + Q) r + k, and the max programs' level t is j = 4^n r.  Every
program's columns and certificate are named on demand, for a message, a
report or --emit-lp alone, and nothing here reads rep.model.

No check builds a dual program (build_dp_cce serves the tests, and
build_dp_pne also --emit-lp).  solve_worst_case and verify_extension
check a certificate as row duals of the primal that _primal built, with
lp.dual_violations on its array: the dual row of column v is r[v], and
that of the max programs' level t is zsum.  extract_worst_game decodes
the nonzero positions of a primal point to their masks with divmod,
builds the program of those columns alone from the factors its solve or
build kept on the rep, and checks the point with lp.feasibility_report.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import prod
from operator import add
from typing import Optional

import numpy as np

from . import linprog as lp
from .games import (
    FEAS_TOL,
    SUM,
    TABLE,
    CongestionModel,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    check_alpha,
    check_epsilon,
    check_weights,
    rational,
)
from .representative import RepresentativeModel, build_representative

OPTIMAL = lp.OPTIMAL
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
        n = check_weights(self.weights)
        check_alpha(self.alpha, n)
        if self.spec.n != n:
            raise GameError("social spec dimension mismatch")
        check_epsilon(self.epsilon)
        if not self.basis:
            raise GameError("empty basis")

    @property
    def n(self) -> int:
        return len(self.weights)


def vname(e, k: int) -> str:
    return f"v[{e}][{k}]"


def _width(cfg: WorstCaseConfig) -> int:
    """4^n r: the number of v columns of the representative program, and
    the position of the max programs' level t after them."""
    return (1 << 2 * cfg.n) * len(cfg.basis)


class _ColumnNames(Sequence):
    """The variables of a program over the given columns, read-only and
    named on demand: its i-th column j = columns[i] = e r + k is named
    vname(resource(e), k) only when read, and a last column t under max
    unless level is False (the designees' shared region has none).
    Distinct by construction, so a program of 4^n r columns holds no list
    of names; a solve or check that succeeds reads no name."""

    def __init__(self, cfg: WorstCaseConfig, resource, columns: Sequence, level: bool = True):
        self.resource, self.r, self.columns = resource, len(cfg.basis), columns
        self.level = level and cfg.spec.kind != SUM

    def __len__(self) -> int:
        return len(self.columns) + self.level

    def __getitem__(self, i: int) -> str:
        i = range(len(self))[i]  # IndexError past either end
        if i == len(self.columns):
            return "t"
        e, k = divmod(self.columns[i], self.r)
        return vname(self.resource(e), k)


def _representative(rep: RepresentativeModel):
    """The id of representative resource e = P 2^n + Q, e(P, Q)."""
    return lambda e: rep.resource_for(*divmod(e, 1 << rep.n))


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
    skipped, so an entry that only zeros reach stays the starting 0."""
    total = np.zeros_like(parts[0])
    for c in parts:  # a float +-0.0 added to a sum begun at +0.0 leaves it as skipping would
        np.add(total, c, out=total, where=True if c.dtype == np.float64 else c != 0)
    return total


def _layout(cfg: WorstCaseConfig, designated) -> list:
    """(relation, rhs, label) of each row of _primal's program, in order;
    row i's dual is the certificate's i-th value."""
    n = cfg.n
    rows = [(lp.LE, 0, f"eq[{i}]") for i in range(n)]
    if cfg.spec.kind == SUM:
        return rows + [(lp.LE, 1, "norm")]
    if designated is not None:
        rows += [(lp.EQ if i == designated else lp.LE, 0, f"val[{i}]") for i in range(n)]
    return rows + [(lp.LE, 1, f"norm[{i}]") for i in range(n)]


def _primal(cfg: WorstCaseConfig, names, eq, val, nrm, designated) -> lp.LinearProgram:
    """The worst-case program over the columns names (the v columns, then
    t when it maximizes t), each closed-form part written by np.copyto
    straight into its coefficient array, in the shape eq[0]'s parts
    broadcast to.  Its rows (_layout): eq[i] <= 0, one per player, where eq is
    (base, joins, joined) and row i is base[i], overwritten by joins[i]
    where joined[i] (joins is None when nothing overwrites it); then under
    sum norm <= 1, maximizing val; under max designee d's LP_d, val[i] - t
    <= 0 (= for d) and norm[i] <= 1, maximizing t, or with designated None
    the designees' shared region U, norm[i] <= 1 alone, maximizing
    designee 0's cost row val[0] (U_0).  val and nrm hold the cost rows
    as the program uses them, per player under max and summed by the
    producer under sum, and may broadcast, as the closed form's (P, 1, k)
    and (1, Q, k) costs do."""
    n, (base, joins, joined) = cfg.n, eq
    level = cfg.spec.kind != SUM and designated is not None  # LP_d maximizes t
    rows = [lp.Row(*row) for row in _layout(cfg, designated)]
    # the rows after eq, then the objective's entries
    parts = [nrm, val] if cfg.spec.kind == SUM else [*val, *nrm] if level else [*nrm, val[0]]
    overwrites = () if joins is None else (joins[0], joined[0])
    shape = np.broadcast(base[0], *overwrites).shape
    size = prod(shape)
    dtype = np.result_type(*{a.dtype for a in chain(base, () if joins is None else joins, parts)})
    coefficients = np.zeros((len(rows) + 1, size + level), dtype=dtype)
    for i, a in enumerate(chain(base, parts)):
        np.copyto(coefficients[i, :size].reshape(shape), a)
        if i < n and joins is not None:
            np.copyto(coefficients[i, :size].reshape(shape), joins[i], where=joined[i])
    if level:  # val[i] - t <= 0, maximizing t
        coefficients[n:2 * n, size] = -1
        coefficients[-1, size] = 1
    return lp.LinearProgram(lp.MAXIMIZE, names, rows, coefficients,
                            name=f"pp_{cfg.spec.kind}" + ("" if designated is None
                                                          else f"_d{designated}"))


def _subset_sums(terms: np.ndarray, live: np.ndarray, has: np.ndarray) -> np.ndarray:
    """sums[t, m] = the sum of terms[t, j] over the j with live[t, j] and
    has[j, m], where has[j] marks the masks with bit j set: one masked
    accumulation over every row of terms, adding them in ascending j from
    0, the order congestion() and the sums over sorted players use.  A term
    that is not live is skipped, as those sums skip zero factors."""
    sums = np.zeros((len(terms), has.shape[1]), dtype=terms.dtype)
    adds = live[:, :, None] & has  # adds[t, j, m]: term j of row t enters mask m's sum
    for j in range(terms.shape[1]):
        np.add(sums, terms[:, j, None], out=sums, where=adds[:, j])
    return sums


def _basis_values(basis, dtype, *blocks) -> list:
    """For each block (loads, live, scale), the array out[.., k] = scale *
    basis[k].value(load) at its live loads and 0 elsewhere.  Each distinct
    live load is read once per call, in the order the loads first appear,
    block by block and in row-major order within one, so a lookup table
    raises GameError at the first load it misses; within a block, a load
    equal to an earlier one (3 and Fraction(3)) takes that one's values.
    A block scales each of its distinct loads' values once."""
    cast = float if dtype is np.float64 else (lambda x: x)
    read: dict = {}  # (type, load) -> the basis at that load
    out = []
    for loads, live, scale in blocks:
        flat = loads[live].tolist()
        row = dict.fromkeys(flat)  # the block's distinct loads, as each first appears
        for x in row:
            fx = read.get((type(x), x))
            if fx is None:
                fx = read[type(x), x] = [f.value(x) for f in basis]
            row[x] = [cast(scale * v) for v in fx]
        values = np.zeros(loads.shape + (len(basis),), dtype=dtype)
        if flat:
            values[live] = [row[x] for x in flat]
        out.append(values)
    return out


def _numbers(cfg: WorstCaseConfig):
    """Every number of the class: weights, alpha, beta, epsilon, and the
    keys and values of its lookup tables."""
    return chain(cfg.weights, *cfg.alpha, *cfg.spec.beta, [cfg.epsilon],
                 *(pair for f in cfg.basis for pair in f.table))


def _mask_factors(cfg: WorstCaseConfig, weights: tuple, masks: np.ndarray) -> tuple:
    """The closed form of the representative primal as per-mask factor
    arrays (masks, joins, leaves, costs), joins, leaves and costs of shape
    (n, len(masks), r), evaluated at the given ascending masks alone:
    position j holds mask masks[j].

    Column (P, Q, k) has load w(P) under sigma* and w(Q) under o*.  Its
    eq[i] entry is leaves[i, P, k] = f_k(w(P)) * sum_{j in P} alpha_ij w_j
    for i in P\\Q, joins[i, P, k] = -(1+eps) * f_k(w(P)+w_i) *
    (alpha_ii w_i + sum_{j in P} alpha_ij w_j) for i in Q\\P, and 0 else;
    leaves[i] is 0 at the P without i and joins[i] at the P with i.  Player
    i's beta-cost at load w(M) is costs[i, M, k] = f_k(w(M)) * sum_{j in M}
    beta_ij w_j, its val[i] entry at M = P and its nrm[i] entry at M = Q;
    under a sum objective costs holds their one total, as its one row.
    The loads, every alpha_i . w and every beta_i . w are one masked
    accumulation (_subset_sums), and the basis is read once per distinct
    live load (_basis_values), in the order of operations of the
    profile-enumeration writer the tests keep as reference, so at a point
    mass on sigma* the programs are equal value for value: in object arrays
    when games.rational(_numbers(cfg)), else in float64, ints included.  A
    lookup table is read at every load of the class, whatever the masks,
    and raises GameError at the first it misses, in mask order.  weights,
    the served model's, must be cfg's.  A float coefficient that
    overflows raises OverflowError.
    """
    n = cfg.n
    w, alpha, beta = cfg.weights, cfg.alpha, cfg.spec.beta
    if tuple(weights) != w:
        raise GameError("model weights differ from configuration weights")
    dtype = object if rational(_numbers(cfg)) else np.float64
    # the rows summed: the load, then alpha_i . w and beta_i . w for each i
    terms = np.array([w, *alpha, *beta], dtype=dtype)
    live = terms != 0  # every weight is positive
    terms[1:] *= terms[0]

    def has_bits(at):  # has[i, j]: i in at[j]
        return at >> np.arange(n)[:, None] & 1 == 1

    has = has_bits(masks)
    # an overflow shows as a coefficient that is not finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _subset_sums(terms, live, has)
        loads, aw, bw = sums[0], sums[1:n + 1], sums[n + 1:]
        aw_join = np.diagonal(terms[1:n + 1])[:, None] + aw  # alpha_ii w_i + sum_{j in P} alpha_ij w_j
        join_loads = loads + terms[0][:, None]
        blocks = [(loads, masks > 0, 1), (join_loads, ~has & (aw_join != 0), -(1 + cfg.epsilon))]
        if len(masks) < 1 << n and any(f.kind == TABLE for f in cfg.basis):
            every = _subset_sums(terms[:1], live[:1], has_bits(np.arange(1, 1 << n)))[0]
            blocks.insert(0, (every, np.ones(every.shape, dtype=bool), 1))
        f_load, f_join = _basis_values(cfg.basis, dtype, *blocks)[-2:]
        joins, leaves = f_join * aw_join[..., None], f_load * aw[..., None]
        joins[has], leaves[~has] = 0, 0
        costs = f_load * bw[..., None]
        if cfg.spec.kind == SUM:
            costs = _summed(costs)[None]
    if dtype is np.float64 and not np.isfinite(np.concatenate((joins, leaves, costs))).all():
        raise OverflowError("a coefficient of the worst-case program exceeds the float range")
    return masks, joins, leaves, costs


def _entries(cfg: WorstCaseConfig, factors, p, q, k) -> tuple:
    """(eq, val, nrm) for _primal at the columns (P, Q, k) = (p, q, k),
    integer arrays that broadcast together, read off _mask_factors at
    masks that include every P and Q.  eq is (leaves, joins, joined) over
    the players, each broadcasting to the columns' shape: player i's entry
    is joins[i] where i is in Q and leaves[i] elsewhere, left for _primal
    to write.  val is over the shape of (p, k) and nrm over that of (q,
    k), per player under max and one total under sum."""
    masks, joins, leaves, costs = factors
    at_p, at_q = np.searchsorted(masks, p), np.searchsorted(masks, q)
    player = np.arange(cfg.n).reshape((-1,) + (1,) * np.ndim(q))
    eq = (leaves[:, at_p, k], joins[:, at_p, k], q >> player & 1 == 1)
    val, nrm = costs[:, at_p, k], costs[:, at_q, k]
    return (eq, val[0], nrm[0]) if cfg.spec.kind == SUM else (eq, val, nrm)


def _factors(cfg: WorstCaseConfig, rep: RepresentativeModel) -> tuple:
    """_mask_factors at every mask, derived once per answer: rep keeps,
    outside its fields, the read-only factors of the last cfg object it
    was priced for, matched by identity, never by equality (1, 1.0 and
    Fraction(1) price in different arithmetic); any other cfg derives
    them afresh and takes the slot.  _closed_form fills it and
    extract_worst_game reads it."""
    held = vars(rep).get("_factors")
    if held is None or held[0] is not cfg:
        factors = _mask_factors(cfg, rep.weights, np.arange(1 << cfg.n))
        for a in factors:
            a.flags.writeable = False
        held = vars(rep)["_factors"] = (cfg, factors)
    return held[1]


def _closed_form(cfg: WorstCaseConfig, rep: RepresentativeModel) -> tuple:
    """(eq, val, nrm) of the representative primal for _primal, every
    column's entries from the factors at every mask, which it fills on rep
    (_factors): eq[i] as an array over (P, Q, k), val[i] over (P, 1, k)
    and nrm[i] over (1, Q, k); under a sum objective, val and nrm are one
    total of costs."""
    masks = np.arange(1 << cfg.n)
    return _entries(cfg, _factors(cfg, rep), masks[:, None, None], masks[None, :, None],
                    np.arange(len(cfg.basis)))


def _coarse_parts(cfg: WorstCaseConfig, model: CongestionModel, dist, o_profile) -> tuple:
    """(eq, val, nrm) of the coarse programs for _primal over (resource,
    k), gathered from _mask_factors at the masks read: eq and val sum,
    over the profiles of dist in its order, mass times the entries at (P,
    Q, k), with P the players on resource e under the profile and Q those
    on e under o_profile; nrm reads Q alone.  eq is (mixture, None, None),
    each player's mixed row whole."""
    col = {e: j for j, e in enumerate(model.resources)}

    def users(profile):  # the mask of each resource's players
        masks = [0] * len(col)
        for i, strategy in enumerate(model.profile_strategies(profile)):
            for e in strategy:
                masks[col[e]] |= 1 << i
        return masks

    ps, q = [users(prof) for prof in dist.masses], users(o_profile)
    factors = _mask_factors(cfg, model.weights,
                            np.array(sorted({*q, *chain.from_iterable(ps)}), dtype=np.intp))
    q, k = np.array(q)[:, None], np.arange(len(cfg.basis))
    eq = val = 0
    for p, mass in zip(ps, dist.masses.values()):
        (leaves, joins, joined), v, nrm = _entries(cfg, factors, np.array(p)[:, None], q, k)
        eq, val = eq + mass * np.where(joined, joins, leaves), val + mass * v
    return (eq, None, None), val, nrm


def build_pp_pne(
    cfg: WorstCaseConfig, rep: RepresentativeModel, designated: Optional[int] = None
) -> lp.LinearProgram:
    """Pure-equilibrium primal: the coarse program at a point mass on the
    representative first profile, over the closed-form columns of
    _closed_form, named on demand (_ColumnNames): v column (P, Q, k) at
    position (P 2^n + Q) r + k, then t under max."""
    _check_designee(cfg, designated)
    return _primal(cfg, _ColumnNames(cfg, _representative(rep), range(_width(cfg))),
                   *_closed_form(cfg, rep), designated)


def build_pp_cce(
    cfg: WorstCaseConfig,
    model: CongestionModel,
    dist: ProfileDistribution,
    o_profile,
    designated: Optional[int] = None,
) -> lp.LinearProgram:
    """Worst-case primal over latency coefficients for a fixed model,
    distribution and comparison profile: column (model.resources[e], k)
    at e r + k, then t under max; its rows are build_pp_pne's."""
    _check_designee(cfg, designated)
    columns = range(len(model.resources) * len(cfg.basis))
    return _primal(cfg, _ColumnNames(cfg, model.resources.__getitem__, columns),
                   *_coarse_parts(cfg, model, dist, o_profile), designated)


# ============================================================
# dual builders
# ============================================================


def _dual_row_name(variable: str) -> str:
    """The certificate row of primal variable v[e][k], r[v[e][k]]; t's is zsum."""
    return "zsum" if variable == "t" else f"r[{variable}]"


def _certificate_name(label: str) -> str:
    """The certificate variable of primal row label: eq[i] -> y[i],
    val[i] -> z[i], norm -> gamma, norm[i] -> gamma[i]."""
    head, bracket, tail = label.partition("[")
    return {"eq": "y", "val": "z", "norm": "gamma"}[head] + bracket + tail


def _certificate_program(pp: lp.LinearProgram) -> lp.LinearProgram:
    """lp.dualize(pp) in certificate names, its bounds dualize's.  Its
    variables, one per row of pp and in the same order, are named by
    _certificate_name; the row of variable v[e][k] is labelled r[v[e][k]],
    and the last row, that of the max programs' level variable t, zsum."""
    dual = lp.dualize(pp)
    return lp.LinearProgram(
        dual.sense,
        [_certificate_name(label) for label in dual.variables],
        [row._replace(label=_dual_row_name(row.label)) for row in dual.rows],
        dual.coefficients,
        bounds=dual.bounds,
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
    values: Mapping  # position in build_pp_pne's variables -> value
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
    one = Fraction(1) if rational(_numbers(cfg)) else 1.0
    if cfg.spec.kind == SUM:
        # each of the count players with a positive beta column adds 1/count
        scale = [reduce(add, (beta[i][j] for i in range(n)), 0) for j in range(n)]
        players = [j for j in range(n) if scale[j] > 0]
        if not players:
            raise GameError("beta has no positive column")
        count, designated = len(players), None
    else:
        rowsum = [reduce(add, beta[i], 0) for i in range(n)]
        designated = max(range(n), key=lambda i: (rowsum[i], -i))
        players, count, scale = list(range(n)), 1, [rowsum[designated]] * n
    k, r = _witness_basis_index(cfg, players), len(cfg.basis)
    f = cfg.basis[k]
    values: dict = {}
    for j in players:
        base = one / (count * f.value(w[j]) * w[j] * scale[j])
        values[(1 << j << n) * r + k] = base  # e({j}, {})
        repair = one / (1 + cfg.epsilon) if cfg.alpha[j][j] < 0 else 1
        values[(1 << j) * r + k] = base * repair  # e({}, {j})
    if designated is not None:
        values[_width(cfg)] = one
    return Witness(values, designated)


# ============================================================
# solve + extract
# ============================================================


@dataclass
class VariantResult:
    """One designee's answer (designated None under sum).  Under max,
    pp_value and dp_value are U_d, which is at least LP_d; dual is a
    certificate of LP_d at that bound, by position in build_dp_pne's
    variables (() when INFINITE), and primal U_d's point."""

    designated: Optional[int]
    status: str
    dp_value: object
    pp_value: object
    dual: tuple
    primal: dict  # SolveReport.primal: the support, keyed by position
    iterations: int
    fallback: Optional[str] = None  # the designee program's SolveReport.fallback
    # and its SolveReport.stats, which take no part in == or repr either
    stats: Optional[lp.KernelStats] = field(default=None, compare=False, repr=False)


@dataclass
class WorstCaseResult:
    status: str
    gamma_star: object
    designated: Optional[int]
    rep: RepresentativeModel
    variants: list
    dual_solution: tuple  # the best variant's dual, () when INFINITE
    primal_solution: dict  # the best variant's primal, keyed by position
    exact: bool


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1, abs(a), abs(b))


def _dual_report(program: lp.LinearProgram, duals, tol, signed=(), objective=None) -> tuple:
    """lp.feasibility_report's (ok, first violated label, worst violation)
    on the rows of _certificate_program(program), at certificate duals, one
    per row of program and in its order, read by lp.dual_violations off
    program's own array (with objective, when given, as its objective
    row), then on the sign bounds of the duals of signed."""
    viol = lp.dual_violations(program, duals, objective)
    first, worst = lp._fold(np.concatenate([viol, np.array([0 - duals[i] for i in signed])]), tol)
    if first is not None:
        first = (_dual_row_name(program.variables[first]) if first < len(viol)
                 else f"bound[{_certificate_name(program.rows[signed[first - len(viol)]].label)}]")
    return first is None, first, worst


def _certificate_report(program: lp.LinearProgram, duals, tol, objective=None) -> tuple:
    """lp.feasibility_report(_certificate_program(program), cert, tol): the
    dual rows, then the sign bounds of the duals of <= rows; objective,
    when given, stands for program's objective row."""
    return _dual_report(program, duals, tol,
                        [i for i, row in enumerate(program.rows) if row.relation == lp.LE],
                        objective)


def _certificate(duals, designated, one) -> tuple:
    """The certificate, by position in build_dp_pne's variables, of a
    solved program's row duals: under sum the duals.  Under max they are
    the designees' shared region U_d's: y from the eq rows and gamma from
    the norm rows, and between them z = -e_d (one is 1 in the duals'
    arithmetic) for LP_d's val rows, which U_d has not.  That point is
    feasible for LP_d's dual with objective U_d = sum gamma: the r rows are
    U_d's dual rows, zsum reads -sum z = 1 >= 1, and only z[d], the dual of
    an equation, is negative."""
    if designated is None:
        return duals
    n = len(duals) // 2
    z = [-one if i == designated else 0 * one for i in range(n)]
    return (*duals[:n], *z, *duals[n:])


def _named_certificate(cfg: WorstCaseConfig, designated, certificate) -> dict:
    """A certificate as {build_dp_pne's variable name: value}, for a report."""
    return {_certificate_name(label): y
            for (_, _, label), y in zip(_layout(cfg, designated), certificate)}


def _exact_config(cfg: WorstCaseConfig) -> WorstCaseConfig:
    """cfg with every number (weights, alpha, beta, epsilon, lookup keys
    and values) a Fraction, a float's being its exact binary value, as
    lp.solve(exact=True) reads one: the class is rational, ints and all.
    A cfg whose every number is already a Fraction is returned itself, so
    the factors its solve keeps on the rep (_factors) serve its extraction."""
    if all(type(x) is Fraction for x in _numbers(cfg)):
        return cfg

    def q(x):  # a number, or nested tuples or lists of them
        return tuple(map(q, x)) if isinstance(x, (tuple, list)) else Fraction(x)

    basis = [replace(f, table=q(f.table)) for f in cfg.basis]
    spec = SocialSpec(cfg.spec.kind, q(cfg.spec.beta))
    return WorstCaseConfig(q(cfg.weights), q(cfg.alpha), spec, q(cfg.epsilon), basis)


def solve_worst_case(cfg: WorstCaseConfig, exact: bool = False) -> WorstCaseResult:
    """Solve the worst-case primal for the configuration and certify its
    optimum with the primal's row duals.

    A sum objective solves its one primal.  A max objective solves, for
    each designee d, U_d: designee d's cost row maximized over the rows
    every designee shares, eq[i] <= 0 and norm[i] <= 1, one region U with
    no val row and no t (_primal), so lp.solve_each serves all of them
    with one standard form, no phase 1, and each phase 2 from the last
    optimum.  U_d >= LP_d, the designee's program with its val rows, and
    max_d U_d = max_d LP_d = gamma*: each game counts under the designee
    of its largest cost.  So a variant's pp_value and dp_value are U_d,
    and only their largest is gamma*; an unbounded U_d makes gamma*
    infinite.  The winner d* is the first argmax, and primal_solution is
    its point with t = gamma* at 4^n r, a point of LP_{d*}: at U_{d*}'s
    optimum no cost_i exceeds cost_{d*}, or U_i would exceed gamma*.

    The row duals, a certificate by position (_certificate), must be
    feasible for build_dp_pne with objective equal to the primal optimum,
    which by weak duality proves it.  A float answer's feasibility is read
    again by lp.dual_violations off the program just solved, at its objective,
    to FEAS_TOL, which gives lp.feasibility_report's verdict on
    build_dp_pne without building it; an exact answer's dual rows and
    signs were read by lp.solve on the same rational data with tolerance
    0.  These checks and the optimum being at least 1 are guaranteed by
    the theory; violations raise InvariantViolation rather than returning
    a bad number.  Exact mode first reads every number of cfg as a
    Fraction, a float as its exact binary value, as lp.solve does: weights
    (1.0, 1.5) and (1, 1.5) solve, and give rep, as (1, 3/2).
    """
    if exact:
        cfg = _exact_config(cfg)
    rep = build_representative(cfg.weights)
    n, width = cfg.n, _width(cfg)
    eq, val, nrm = _closed_form(cfg, rep)
    program = _primal(cfg, _ColumnNames(cfg, _representative(rep), range(width), level=False),
                      eq, val, nrm, None)
    if cfg.spec.kind == SUM:
        designees, objectives = [None], [None]
        reports = [lp.solve(program, exact)]
    else:
        # designee d's cost row over every v column: the v entries of LP_d's val[d]
        designees = list(range(n))
        objectives = np.broadcast_to(val, (n, 1 << n, 1 << n, len(cfg.basis))).reshape(n, -1)
        reports = lp.solve_each(program, objectives, exact)
    one = Fraction(1) if exact else 1.0
    # rhs times duals added in row order by lp._combination, not by the
    # builtin sum, which compensates float sums from Python 3.12
    rhs = np.array([[row.rhs] for row in program.rows], dtype=object)
    variants = []
    for d, objective, rp in zip(designees, objectives, reports):
        if rp.status == lp.UNBOUNDED:
            variants.append(VariantResult(d, INFINITE, None, None, (), {}, rp.iterations,
                                          rp.fallback, rp.stats))
            continue
        if rp.status != lp.OPTIMAL:
            raise InvariantViolation(f"primal is {rp.status}; the unit witness is feasible")
        if not exact:  # an exact reading checked these dual rows and signs with tolerance 0
            ok, label, violation = _certificate_report(program, rp.duals, FEAS_TOL, objective)
            if not ok:
                raise InvariantViolation(f"certificate violates {label} by {violation}")
        bound = lp._combination(rhs, rp.duals)[0]
        if not _close(bound, rp.value, 0 if exact else VALUE_RTOL):
            raise InvariantViolation(f"duality gap: primal {rp.value} vs certificate {bound}")
        variants.append(
            VariantResult(d, OPTIMAL, bound, rp.value, _certificate(rp.duals, d, one),
                          rp.primal, rp.iterations, rp.fallback, rp.stats)
        )

    infinite = [v for v in variants if v.status == INFINITE]
    if infinite:
        return WorstCaseResult(INFINITE, None, infinite[0].designated, rep, variants, (), {}, exact)
    best = max(variants, key=lambda v: v.pp_value)
    if best.pp_value < 1 - (0 if exact else FEAS_TOL):
        raise InvariantViolation(
            f"optimum {best.pp_value} below 1; the unit witness must be feasible"
        )
    primal = dict(best.primal)
    if best.designated is not None:  # LP_{d*}'s level t = gamma*, after the v columns
        primal[width] = best.pp_value
    return WorstCaseResult(OPTIMAL, best.pp_value, best.designated, rep, variants,
                           best.dual, primal, exact)


def extract_worst_game(
    cfg: WorstCaseConfig,
    rep: RepresentativeModel,
    primal_values: Mapping,
    designated: Optional[int] = None,
) -> GeneralizedGame:
    """Turn a feasible primal point into a concrete game: the
    representative model restricted to the resources the point uses.

    The point is keyed by position in build_pp_pne's variables, as
    lp.solve's primal is: v column (P, Q, k) at (P 2^n + Q) r + k, and t
    at 4^n r under max.  A key that is no such position (a str, a float,
    a bool, a negative int or one past the last column) raises GameError
    naming it, before any program is built.  A column the point lacks is
    0.  An infeasible point (a nan is a violation) raises GameError with
    the first violated row label, from lp.feasibility_report on the
    program of its nonzero columns alone, cut by _entries from the
    factors that solve_worst_case or build_pp_pne kept on rep for this
    cfg object (_factors), or derived here at every mask when rep has
    none for it.  Like solve_worst_case, it raises GameError for a lookup
    table that misses a load of the class, even one the point never
    reaches, and OverflowError for a float class whose program does.
    Only the witness's resource ids are formatted, and a column name only
    for an error message.

    A resource is kept when any of its columns is nonzero, solver dust
    included, and keeps its id and representative order; strategies are
    the representative ones restricted to the kept set, so rep.sigma_star
    and rep.o_star index them as before.  A frozenset iterates by string
    hash, so a strategy's repr follows PYTHONHASHSEED (gamefile.emit_game
    sorts each one).  When player i's sigma*_i or o*_i would be left
    empty, e({i},{i}) is kept too: it has latency 0 and lies in i's two
    strategies only.  Every dropped resource has latency 0 at every load,
    so every cost, gap and social value is that of the full game."""
    _check_designee(cfg, designated)
    n, r, width = cfg.n, len(cfg.basis), _width(cfg)
    end = width + (cfg.spec.kind != SUM)  # t at width under max
    for j in primal_values:
        if not (type(j) is int and 0 <= j < end):  # a bool, an int subclass, is no position
            raise GameError(f"primal point key {j!r} is not a column position (0 to {end - 1})")
    support = sorted(j for j, x in primal_values.items() if x and j < width)
    triples = [(*divmod(j // r, 1 << n), j % r) for j in support]  # (P, Q, k)
    columns = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    program = _primal(cfg, _ColumnNames(cfg, _representative(rep), support),
                      *_entries(cfg, _factors(cfg, rep), *columns), designated)
    # the point on that program's positions: the support, then t at len(support)
    at = {i: primal_values[j] for i, j in enumerate(support + [width]) if j in primal_values}
    ok, label, violation = lp.feasibility_report(program, at, FEAS_TOL)
    if not ok:
        raise GameError(f"primal point violates {label} by {violation}")
    values = dict(zip(triples, (primal_values[j] for j in support)))
    kept = {(p, q) for p, q, _ in values}
    for i in range(n):
        if not any(p >> i & 1 for p, _ in kept) or not any(q >> i & 1 for _, q in kept):
            kept.add((1 << i, 1 << i))
    ids = {rep.resource_for(p, q): (p, q) for p, q in sorted(kept)}
    coeffs = {e: tuple(0 if c < 0 else c  # solver noise within FEAS_TOL, checked above
                       for c in (values.get((p, q, k), 0) for k in range(r)))
              for e, (p, q) in ids.items()}
    strategies = [[frozenset(e for e, (p, _) in ids.items() if p >> i & 1),
                   frozenset(e for e, (_, q) in ids.items() if q >> i & 1)] for i in range(n)]
    return GeneralizedGame(
        CongestionModel(rep.weights, list(ids), strategies), cfg.basis, coeffs, cfg.alpha)


def normalize_game(game: GeneralizedGame, spec: SocialSpec):
    """Scale latencies so the best pure profile has social value exactly 1.

    Scaling preserves equilibrium sets and every value ratio, so worst-case
    ratios can be read off normalized games directly.  Returns (game,
    optimum value before scaling), rational when the cost table is.
    """
    from .oracle import social_optimum

    _, value = social_optimum(game, spec)
    if value <= 0:
        raise GameError(f"social optimum {value} is not positive; cannot normalize")
    return game.scaled(1 / value), value


@dataclass
class ExtensionReport:
    ok: bool
    rows_checked: int
    worst_violation: object
    first_violated: Optional[str]


def verify_extension(
    cfg: WorstCaseConfig,
    certificate: Sequence,
    model: CongestionModel,
    dist: ProfileDistribution,
    o_profile,
    designated: Optional[int] = None,
) -> ExtensionReport:
    """Check that a dual-feasible certificate for the representative pure
    program, by position in build_dp_pne's variables as solve_worst_case
    gives it, stays feasible for the coarse program of (model, dist, o):
    the rows of build_dp_cce, whose variables are build_dp_pne's, read by
    lp.dual_violations off build_pp_cce's array, without the duals' sign
    bounds.  A Mapping or a sequence of another length raises GameError.

    Each row is a mixture of rows of build_dp_pne, so the check holds for
    every input by convexity; a failure means an implementation bug, so
    callers normally escalate it.  Like solve_worst_case, it raises
    GameError for a lookup table that misses a load of the class, even
    one that model never reaches."""
    program = build_pp_cce(cfg, model, dist, o_profile, designated)
    if isinstance(certificate, Mapping) or len(certificate) != len(program.rows):
        raise GameError(f"a certificate is a sequence of {len(program.rows)} values, one per "
                        f"variable of build_dp_pne, not a {type(certificate).__name__} of "
                        f"{len(certificate)}")
    ok, label, violation = _dual_report(program, certificate, FEAS_TOL)
    return ExtensionReport(ok, len(program.variables), violation, label)
