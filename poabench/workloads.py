"""Seeded job lists for the three workloads, and the output check of each job.

A job runs poacert's public API on one generated input and returns its
outcome; ``check`` turns the outcome into a list of failure reasons (empty
when correct).  Inputs depend only on (workload, seed), and the sequence
of job kinds does not depend on the seed at all: the
seed picks matrices, weights and games, never how many of each size run.

class-ladder      solve_worst_case + extract_worst_game over the class grid
witness-frontier  primal-only worst-game search at n = 5..7
game-audit        oracles, smoothness and certificate extension on games
"""

from __future__ import annotations

import contextlib
import itertools
import random
from fractions import Fraction

from poacert import formulations, linprog, oracle, representative, smoothness
from poacert.games import (
    EQ1,
    MAX,
    SUM,
    BasisFunction,
    CongestionModel,
    GeneralizedGame,
    SocialSpec,
    identity_matrix,
    individual_cost,
    is_eps_cce,
    is_eps_pne,
    social_value,
)

X = BasisFunction.monomial(1)
X2 = BasisFunction.monomial(2)
IND = BasisFunction.indicator()
BASES = {1: (X,), 3: (X, X2, IND)}
REL = 1e-6  # relative agreement of two computed values of one quantity
FEAS = 1e-9  # absolute slack of equilibrium and bound checks (poacert's FEAS_TOL)

# anchors of the acceptance scorecard (criterion 6): unit weights, identity
# matrices, latency x, sum objective, eps = 0
ANCHORS = {2: Fraction(2), 3: Fraction(5, 2)}


def _null_span(name):
    return contextlib.nullcontext()


class Job:
    """One unit of closed-loop work.  ``span`` opens the games-layer span
    around the benchmark's own checking calls when a tracer is active.
    ``runs`` is how many times a run of ``NOMINAL_SECONDS`` times the job,
    fixed by the job's kind and size."""

    label = "job"
    runs = 1
    span = staticmethod(_null_span)

    def run(self):
        raise NotImplementedError

    def check(self, outcome) -> list:
        raise NotImplementedError


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1, abs(a), abs(b))


def _dyadic(rng, lo, hi, exact):
    """Multiple of 1/4 in [lo, hi]: exact in both float and Fraction."""
    k = rng.randrange(int(lo * 4), int(hi * 4) + 1)
    return Fraction(k, 4) if exact else k / 4


# ============================================================
# class-ladder
# ============================================================

# (eps, alpha kind, beta kind) variants of one (n, r, sf) stratum
VARIANTS = list(itertools.product((0, 1), ("identity", "random"), ("identity", "random")))


class LadderCell:
    """One configuration of the class grid, generated once so that its
    float and exact runs see the same dyadic numbers."""

    def __init__(self, rng, n, r, kind, variant):
        eps_half, a_kind, b_kind = variant
        self.key = (n, r, kind) + variant
        # the r=1, eps=0, identity/identity cells have unit weights: the sum
        # ones are the anchors, and the n=4 max one, among the costliest
        # jobs, then costs the same on every seed
        unit = r == 1 and not eps_half and a_kind == b_kind == "identity"
        self.anchor = unit and kind == SUM
        self.weights = [1] * n if unit else [_dyadic(rng, 0.5, 2, True) for _ in range(n)]
        self.alpha = None if a_kind == "identity" else [
            [_dyadic(rng, -1, 1, True) for _ in range(n)] for _ in range(n)
        ]
        self.beta = None
        if b_kind == "random":
            self.beta = [[_dyadic(rng, 0, 1, True) for _ in range(n)] for _ in range(n)]
            self.beta[0][0] = max(self.beta[0][0], Fraction(1, 4))  # never all zero
        self.kind = kind
        self.basis = BASES[r]
        self.eps = Fraction(eps_half, 2)

    def config(self, exact):
        num = Fraction if exact else float
        n = len(self.weights)

        def matrix(m):
            return identity_matrix(n, exact) if m is None else [[num(x) for x in row] for row in m]

        return formulations.WorstCaseConfig(
            [num(w) for w in self.weights],
            matrix(self.alpha),
            SocialSpec(self.kind, matrix(self.beta)),
            num(self.eps),
            self.basis,
        )

    def describe(self):
        n, r, kind, eps_half, a, b = self.key
        return f"n={n} r={r} {kind} eps={eps_half / 2} alpha={a} beta={b}"


class LadderJob(Job):
    def __init__(self, cell, exact, results):
        self.cell = cell
        self.exact = exact
        self.cfg = cell.config(exact)
        self.results = results  # float gamma* by cell, shared by the twins
        self.label = ("exact " if exact else "") + cell.describe()
        n, r, kind = cell.key[:3]
        # the costlier jobs (0.03-2 s): exact twins, n = 4, n = 3 r = 3 max
        self.runs = 3 if exact or n == 4 or (n, r, kind) == (3, 3, MAX) else 9

    def run(self):
        res = formulations.solve_worst_case(self.cfg, exact=self.exact)
        game = None
        if res.status == formulations.OPTIMAL:
            game = formulations.extract_worst_game(
                self.cfg, res.rep, res.primal_solution, res.designated
            )
        if not self.exact:
            self.results[id(self.cell)] = (res.status, res.gamma_star)
        return res, game

    def check(self, outcome):
        res, game = outcome
        cfg, bad = self.cfg, []
        exact_eq = (lambda a, b: a == b) if self.exact else _close
        n = cfg.n
        if self.cell.anchor and n in ANCHORS:
            if res.status != formulations.OPTIMAL or not exact_eq(res.gamma_star, ANCHORS[n]):
                bad.append(f"anchor gamma* {res.status}/{res.gamma_star}, expected {ANCHORS[n]}")
        if self.exact:
            twin = self.results.get(id(self.cell))
            if twin is None:
                bad.append("float twin did not run")
            elif twin[0] != res.status or (
                res.status == formulations.OPTIMAL and not _close(float(res.gamma_star), twin[1])
            ):
                bad.append(f"exact {res.status}/{res.gamma_star} vs float {twin[0]}/{twin[1]}")
        if res.status != formulations.OPTIMAL:
            return bad
        rep, spec = res.rep, cfg.spec
        one = 1 if self.exact else 1 + FEAS
        with self.span("games.witness_check"):
            if not is_eps_pne(game, rep.sigma_star, cfg.epsilon, EQ1):
                bad.append("sigma* is not an eps-PNE of the witness")
            value = social_value(spec, game, rep.sigma_star)
            if not exact_eq(value, res.gamma_star):
                bad.append(f"witness value {value} != gamma* {res.gamma_star}")
            o_value = social_value(spec, game, rep.o_star)
            if not o_value <= one:
                bad.append(f"o* value {o_value} > 1")
        return bad


def class_ladder(rng, tiny=False):
    """All eight (eps, alpha, beta) variants of each (n, r, sf) stratum,
    except n = 3, r = 3 max and n = 4 max, which take one variant each,
    because one such cell costs as much as a whole stratum of the others."""
    results = {}
    if tiny:
        cells = [LadderCell(rng, 2, 1, SUM, VARIANTS[0])]
        return [LadderJob(c, False, results) for c in cells] + [
            LadderJob(c, True, results) for c in cells
        ]
    plan = [(n, r, kind, VARIANTS) for n in (2, 3) for r in (1, 3) for kind in (SUM, MAX)]
    plan[-1] = (3, 3, MAX, [VARIANTS[3]])
    plan += [(4, 1, SUM, VARIANTS), (4, 1, MAX, [VARIANTS[0]])]
    cells = {}
    for n, r, kind, variants in plan:
        for v in variants:
            cells[(n, r, kind) + v] = LadderCell(rng, n, r, kind, v)
    jobs = [LadderJob(c, False, results) for c in cells.values()]
    rng.shuffle(jobs)
    # exact twins run after the float jobs: two n=2 sum and two n=2 max
    # cells, and the n=3 anchor, all r=1 (exact n=3 max takes 25-45 s a
    # cell, so it is left out)
    twins = [(2, SUM, 0), (2, SUM, 5), (2, MAX, 3), (2, MAX, 6), (3, SUM, 0)]
    return jobs + [LadderJob(cells[(n, 1, kind) + VARIANTS[k]], True, results) for n, kind, k in twins]


# ============================================================
# witness-frontier
# ============================================================


class FrontierJob(Job):
    """Primal-only worst-game search for one (configuration, designee)."""

    def __init__(self, cfg, designated):
        self.cfg = cfg
        self.designated = designated
        d = "" if designated is None else f" d={designated}"
        self.label = f"n={cfg.n} r={len(cfg.basis)} {cfg.spec.kind}{d}"
        self.runs = 2 if cfg.n == 7 else 3

    def run(self):
        rep = representative.build_representative(self.cfg.weights)
        program = formulations.build_pp_pne(self.cfg, rep, self.designated)
        sol = linprog.solve(program)
        if sol.status != linprog.OPTIMAL:
            raise linprog.SolverError(f"primal is {sol.status}")
        game = formulations.extract_worst_game(self.cfg, rep, sol.primal, self.designated)
        return rep, sol, game

    def check(self, outcome):
        rep, sol, game = outcome
        bad = []
        with self.span("games.witness_check"):
            if not is_eps_pne(game, rep.sigma_star, self.cfg.epsilon, EQ1):
                bad.append("sigma* is not an eps-PNE of the witness")
            value = social_value(self.cfg.spec, game, rep.sigma_star)
        if not _close(value, sol.value):
            bad.append(f"witness value {value} != LP optimum {sol.value}")
        return bad


def _frontier_cfg(rng, n, r, kind):
    # nonnegative perception keeps the primal bounded, so every job yields
    # a witness
    return formulations.WorstCaseConfig(
        [_dyadic(rng, 0.5, 2, False) for _ in range(n)],
        [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)],
        SocialSpec(kind, [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)]),
        rng.choice((0.0, 0.5)),
        BASES[r],
    )


def witness_frontier(rng, tiny=False):
    """Every (r, sf) cell at n = 5 and a second r = 1 max one; at n = 6 r = 1 max, r = 1 sum and
    r = 3 sum; at n = 7 r = 1 sum.  Each max cell is one job
    per designee.  n = 6 max at r = 3 (8 s a cell), n = 7 at r = 3 (6 s a
    job) and n = 7 max (15-30 s a cell) do not fit a run."""
    if tiny:
        cells = [(5, 1, SUM)]
    else:
        cells = [(5, r, kind) for r in (1, 3) for kind in (SUM, MAX)] + [(5, 1, MAX)]
        cells += [(6, 1, MAX), (6, 1, SUM), (6, 3, SUM), (7, 1, SUM)]
    jobs = []
    for n, r, kind in cells:
        cfg = _frontier_cfg(rng, n, r, kind)
        for d in [None] if kind == SUM else range(n):
            jobs.append(FrontierJob(cfg, d))
    return jobs


# ============================================================
# game-audit
# ============================================================

# strategies per player, and how many games of that shape a run audits; most are 2x3 games, so the median job sits inside one shape
AUDIT_SHAPES = [
    ((2, 2), 8), ((2, 3), 18), ((2, 4), 3), ((2, 2, 2), 3), ((3, 3), 3), ((2, 2, 3), 3),
    ((2, 2, 2, 2), 1),
]
# check_smooth's tolerance is absolute, while robust_poa solves its probes on
# the pair tables divided by their largest entry, so the returned (lam, mu)
# is feasible to about 1e-9 of that entry.  The check allows 1e-8 of it.
SMOOTH_REL = 1e-8
AUDIT_BASES = {2: (X, X2), 3: (X, X2), 4: (X,)}


class AuditClass:
    """Class of the audited games of one weight vector (identity matrices,
    sum objective, eps = 0) with its certificate, solved in set-up."""

    def __init__(self, weights):
        n = len(weights)
        self.cfg = formulations.WorstCaseConfig(
            weights, identity_matrix(n), SocialSpec(SUM, identity_matrix(n)), 0.0, AUDIT_BASES[n]
        )
        self.cert = formulations.solve_worst_case(self.cfg)


def _random_game(rng, cls, shape, n_resources=4):
    resources = tuple(f"r{k}" for k in range(n_resources))
    strategies = []
    for k in shape:
        per, seen = [], set()
        while len(per) < k:
            s = frozenset(e for e in resources if rng.random() < 0.5)
            if s and s not in seen:
                seen.add(s)
                per.append(s)
        strategies.append(tuple(per))
    model = CongestionModel(cls.cfg.weights, resources, tuple(strategies))
    # positive coefficients: every profile has positive cost, so every
    # ratio is defined
    coeffs = {e: tuple(_dyadic(rng, 0.25, 2, False) for _ in cls.cfg.basis) for e in resources}
    return GeneralizedGame(model, cls.cfg.basis, coeffs, cls.cfg.alpha)


def _pair_scale(game, spec):
    """Largest entry of the smoothness pair tables: SF(sigma) and
    sum_i c_i(sigma_-i, sigma'_i) over all profiles and profile pairs."""
    profiles = list(game.model.profiles())
    sf = max(social_value(spec, game, a) for a in profiles)
    dev = max(
        sum(individual_cost(game, a[:i] + (b[i],) + a[i + 1:], i) for i in range(game.n))
        for a in profiles
        for b in profiles
    )
    return max(sf, dev, 1.0)


class AuditJob(Job):
    def __init__(self, rng, cls, shape):
        self.cls = cls
        self.game = _random_game(rng, cls, shape)
        self.o_profile = tuple(rng.randrange(k) for k in shape)
        n = len(shape)
        self.spec = SocialSpec(SUM, identity_matrix(n))
        self.max_spec = SocialSpec(MAX, identity_matrix(n))
        self.smooth_tol = SMOOTH_REL * _pair_scale(self.game, self.spec)
        profiles = self.game.model.profile_count()
        self.label = f"game {'x'.join(map(str, shape))} ({profiles} profiles)"
        self.runs = 3 if profiles >= 8 else 9

    def run(self):
        game, cls = self.game, self.cls
        val = smoothness.validate_smoothness_claims(game, self.spec)
        cce = oracle.worst_cce(game, self.max_spec)
        smooth = None
        if val.robust.status == smoothness.OPTIMAL:
            cert = smoothness.SmoothnessCertificate(val.robust.lam, val.robust.mu)
            smooth = smoothness.check_smooth(game, self.spec, cert, tol=self.smooth_tol)
        ext = formulations.verify_extension(
            cls.cfg, cls.cert.dual_solution, game.model, cce.distribution, self.o_profile,
            cls.cert.designated,
        )
        return val, cce, smooth, ext

    def check(self, outcome):
        val, cce, smooth, ext = outcome
        bad = []
        if val.robust.status != smoothness.OPTIMAL:
            bad.append(f"robust PoA {val.robust.status} on a sum-bounded game")
        elif not smooth[0]:
            bad.append(f"check_smooth rejects the returned (lam, mu) at {smooth[1]}")
        if val.ppoa_within_bound is False or val.ccpoa_within_bound is False:
            bad.append(f"robust bound {val.robust.value} below ppoa {val.ppoa} or ccpoa {val.ccpoa}")
        with self.span("games.witness_check"):
            if not is_eps_cce(self.game, cce.distribution, 0):
                bad.append("worst_cce distribution is not a CCE")
        if not ext.ok:
            bad.append(f"certificate extension violates {ext.first_violated} by {ext.worst_violation}")
        return bad


def audit_classes(rng):
    return {n: AuditClass([_dyadic(rng, 0.5, 2, False) for _ in range(n)]) for n in (2, 3, 4)}


def game_audit(rng, classes, tiny=False):
    shapes = [((2, 2), 2)] if tiny else AUDIT_SHAPES
    jobs = [AuditJob(rng, classes[len(s)], s) for s, count in shapes for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


# ============================================================
# entry point
# ============================================================

WORKLOADS = ("class-ladder", "witness-frontier", "game-audit")

# --seconds for which the runs of each job (Job.runs) are sized.  On the
# reference machine (2 cores, Python 3.11, numpy 2.4) one job's time swings
# by up to 1.7x from one run to the next and over tens of seconds while other
# tenants load the CPU; the fastest of runs spread over the whole run is far
# steadier, and poacert keeps no state between calls.
NOMINAL_SECONDS = 30


def prepare(workload: str, seed: int, tiny: bool = False):
    """(jobs, warm-up jobs).  Set-up work the workload needs, such as the
    class certificates of game-audit, happens here."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    warm_rng = random.Random(f"{workload}:{seed}:warm-up")
    if workload == "class-ladder":
        return class_ladder(rng, tiny), class_ladder(warm_rng, tiny=True)
    if workload == "witness-frontier":
        return witness_frontier(rng, tiny), witness_frontier(warm_rng, tiny=True)
    classes = audit_classes(rng)
    return game_audit(rng, classes, tiny), game_audit(warm_rng, classes, tiny=True)
