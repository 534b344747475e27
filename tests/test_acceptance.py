"""Acceptance gate: ten certification criteria, one printed verdict each.

Every criterion owns a single test and reports exactly one line to the
real stdout (pytest captures everything else), so a full run reads as a
ten-line scorecard.  The shared regression grid — 224 configurations
crossing n, epsilon, perception/weighting matrices, basis subsets and
both social-function kinds — is solved once per module and reused.

Seeds are frozen: 90_000+idx for the grid matrices, 777_000+idx for the
dominance games, 555_000+idx for the extension triples, 444_000+k and
660_000+k for the monotonicity and normalization suites.
"""

import contextlib
import itertools
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

import conftest
from conftest import closed_form_dual, g1, g1_spec, random_game, random_matrix, random_model, seeded
from poacert import linprog as lp
from poacert.formulations import (
    INFINITE,
    OPTIMAL,
    WorstCaseConfig,
    _certificate_name,
    _dual_row_name,
    build_dp_pne,
    build_pp_pne,
    extract_worst_game,
    lemma1_witness,
    normalize_game,
    solve_worst_case,
    verify_extension,
)
from poacert.games import (
    EQ1,
    FEAS_TOL,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    identity_matrix,
    is_eps_pne,
    social_value,
)
from poacert.oracle import (
    NO_EQUILIBRIUM,
    enumerate_eps_pne,
    exact_ppoa,
    social_optimum,
    worst_cce_value,
)
from poacert.smoothness import (
    NOT_SMOOTHABLE,
    SmoothnessCertificate,
    check_smooth,
    is_sum_bounded,
    robust_poa,
)
from poacert.smoothness import OPTIMAL as SM_OPTIMAL

REL = 1e-6

X = BasisFunction.monomial(1)
X2 = BasisFunction.monomial(2)
IND = BasisFunction.indicator()
SUBSETS = [(X,), (X2,), (IND,), (X, X2), (X, IND), (X2, IND), (X, X2, IND)]
WEIGHTS = {2: (1.0, 1.5), 3: (1.0, 1.5, 0.5)}


# ============================================================
# verdict plumbing
# ============================================================


class Checks:
    def __init__(self):
        self.problems = []
        self.notes = []

    def check(self, cond, msg):
        if not cond:
            self.problems.append(msg)

    def note(self, msg):
        self.notes.append(msg)


def _emit(line):
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)  # visible live under -s


@contextlib.contextmanager
def criterion(num, title):
    c = Checks()
    try:
        yield c
    except BaseException as exc:
        _emit(f"[criterion {num:2d}] FAIL {title} (crashed: {exc!r})")
        raise
    verdict = "PASS" if not c.problems else "FAIL"
    detail = "; ".join(c.problems[:3] if c.problems else c.notes)
    line = f"[criterion {num:2d}] {verdict} {title}"
    if detail:
        line += f" ({detail})"
    _emit(line)
    assert not c.problems, f"criterion {num}: " + "; ".join(c.problems[:5])


def rel_ok(a, b, tol=REL):
    return abs(a - b) <= tol * max(1, abs(a), abs(b))


def objective_at(program, values):
    return sum(c * values.get(v, 0) for v, c in conftest.nonzeros(program, -1).items())


# ============================================================
# the regression grid
# ============================================================


def grid_configs():
    """224 configurations; the per-config rng draws alpha then beta, so a
    configuration's matrices depend only on its index."""
    idx = 0
    for n, eps, a_kind, b_kind, sub, kind in itertools.product(
        (2, 3),
        (0, 0.5),
        ("identity", "random"),
        ("identity", "random"),
        range(len(SUBSETS)),
        (SUM, MAX),
    ):
        rng = random.Random(90_000 + idx)
        if a_kind == "identity":
            alpha = identity_matrix(n)
        else:
            alpha = tuple(
                tuple(rng.uniform(-1, 1) for _ in range(n)) for _ in range(n)
            )
        if b_kind == "identity":
            beta = identity_matrix(n)
        else:
            beta = tuple(
                tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(n)
            )
        cfg = WorstCaseConfig(
            WEIGHTS[n], alpha, SocialSpec(kind, beta), eps, SUBSETS[sub]
        )
        key = (n, eps, a_kind, b_kind, sub, kind)
        yield idx, key, cfg
        idx += 1


@dataclass(frozen=True)
class GridRun:
    idx: int
    key: tuple  # (n, eps, a_kind, b_kind, subset index, sf kind)
    cfg: WorstCaseConfig
    result: object

    @property
    def label(self):
        n, eps, a, b, sub, kind = self.key
        return f"#{self.idx} n={n} eps={eps} a={a} b={b} basis={sub} {kind}"


@pytest.fixture(scope="module")
def grid():
    return [
        GridRun(idx, key, cfg, solve_worst_case(cfg))
        for idx, key, cfg in grid_configs()
    ]


@pytest.fixture(scope="module")
def witnesses(grid):
    """Extracted worst-case game for every solvable cell."""
    return {
        run.idx: extract_worst_game(
            run.cfg, run.result.rep, run.result.primal_solution, run.result.designated
        )
        for run in grid
        if run.result.status == OPTIMAL
    }


# ============================================================
# criteria
# ============================================================


def same_program_under_certificate_names(dp, dz):
    """Whether dp is dz renamed: the same sense, byte-equal coefficient
    arrays, equal relations and rhs, bounds at the same positions, and
    dp's variables and row labels those of dz under _certificate_name and
    _dual_row_name."""
    return (
        dp.sense == dz.sense
        and dp.coefficients.dtype == dz.coefficients.dtype
        and dp.coefficients.shape == dz.coefficients.shape
        and dp.coefficients.tobytes() == dz.coefficients.tobytes()
        and [(r.relation, r.rhs) for r in dp.rows] == [(r.relation, r.rhs) for r in dz.rows]
        and list(dp.variables) == [_certificate_name(v) for v in dz.variables]
        and [r.label for r in dp.rows] == [_dual_row_name(r.label) for r in dz.rows]
        and dict(dp.bounds) == dict(dz.bounds)
    )


def test_criterion_01_strong_duality(grid):
    """pp and dp agree in value or as UNBOUNDED / INFEASIBLE.  build_dp_pne
    is dualize(build_pp_pne) under certificate names, so the criterion
    checks that the two are one program and solves it once."""
    with criterion(1, "strong duality across the regression grid") as c:
        t0 = time.perf_counter()
        finite = unbounded = 0
        for run in grid:
            cfg, rep = run.cfg, run.result.rep
            designees = [None] if cfg.spec.kind == SUM else range(cfg.n)
            for d in designees:
                primal, dual = build_pp_pne(cfg, rep, d), build_dp_pne(cfg, rep, d)
                c.check(
                    same_program_under_certificate_names(dual, lp.dualize(primal)),
                    f"{run.label} d={d}: build_dp_pne is not dualize(build_pp_pne) renamed",
                )
                pp, dp = lp.solve(primal), lp.solve(dual)
                if pp.status == lp.OPTIMAL:
                    finite += 1
                    c.check(
                        dp.status == lp.OPTIMAL and rel_ok(pp.value, dp.value),
                        f"{run.label} d={d}: pp {pp.value}, dp {dp.status}/{dp.value}",
                    )
                else:
                    unbounded += 1
                    c.check(
                        pp.status == lp.UNBOUNDED and dp.status == lp.INFEASIBLE,
                        f"{run.label} d={d}: statuses pp={pp.status} dp={dp.status}",
                    )
        dt = time.perf_counter() - t0
        c.check(dt < 120, f"runtime {dt:.1f}s exceeds 120s")
        c.note(f"{finite} finite + {unbounded} unbounded programs agree in {dt:.1f}s")


def test_criterion_02_witness_objective_one(grid):
    with criterion(2, "closed-form witness feasible with objective 1") as c:
        for run in grid:
            rep = run.result.rep
            w = lemma1_witness(run.cfg, rep)
            program = build_pp_pne(run.cfg, rep, w.designated)
            ok, label, viol = lp.feasibility_report(program, w.values, FEAS_TOL)
            c.check(ok, f"{run.label}: violates {label} by {viol}")
            val = objective_at(program, conftest.named(program, w.values))
            c.check(abs(val - 1) <= 1e-9, f"{run.label}: objective {val}")
        c.note("all 224 configurations")


def test_criterion_03_extraction_postconditions(grid, witnesses):
    with criterion(3, "extracted games realize gamma_star at an equilibrium") as c:
        undefined = 0
        for run in grid:
            if run.result.status != OPTIMAL:
                continue
            r = run.result
            game = witnesses[run.idx]
            sigma, o = r.rep.sigma_star, r.rep.o_star
            c.check(
                is_eps_pne(game, sigma, run.cfg.epsilon, EQ1),
                f"{run.label}: sigma* is not an eps-equilibrium",
            )
            eq_value = social_value(run.cfg.spec, game, sigma)
            c.check(
                rel_ok(eq_value, r.gamma_star),
                f"{run.label}: equilibrium value {eq_value} vs {r.gamma_star}",
            )
            o_value = social_value(run.cfg.spec, game, o)
            c.check(o_value <= 1 + 1e-9, f"{run.label}: optimum side {o_value}")
            try:
                p = exact_ppoa(game, run.cfg.spec, run.cfg.epsilon, EQ1)
            except GameError:  # zero social optimum: the ratio is undefined
                undefined += 1
                continue
            c.check(p != NO_EQUILIBRIUM, f"{run.label}: oracle finds no equilibrium")
            if p != NO_EQUILIBRIUM:
                c.check(
                    p >= r.gamma_star - REL * max(1, r.gamma_star),
                    f"{run.label}: oracle ppoa {p} below {r.gamma_star}",
                )
        c.note(
            f"{len(witnesses)} solvable cells"
            + (f", {undefined} with undefined oracle ratio" if undefined else "")
        )


def test_criterion_04_sandwich_and_dominance(grid, witnesses):
    with criterion(4, "eps=0 sandwich: witness attains the class value, random games stay below") as c:
        t0 = time.perf_counter()
        attained = cross = games = vacuous = 0
        for run in grid:
            if run.cfg.epsilon != 0:
                continue
            if run.result.status != OPTIMAL:
                vacuous += 1  # no finite class value to attain or dominate
                continue
            gs = run.result.gamma_star
            game = witnesses[run.idx]
            _, opt = social_optimum(game, run.cfg.spec)
            c.check(opt > 0, f"{run.label}: witness optimum {opt}")
            if opt > 0:
                ratio = worst_cce_value(game, run.cfg.spec, 0, predicate=EQ1) / opt
                c.check(
                    rel_ok(ratio, gs), f"{run.label}: CCPoA {ratio} vs gamma* {gs}"
                )
                attained += 1
                if run.key[2] == "identity":
                    # diagonal perception: the literal-cost predicate provably
                    # coincides with the grouped one, so cross-check it
                    rv = (
                        worst_cce_value(game, run.cfg.spec, 0, predicate=VERBATIM)
                        / opt
                    )
                    c.check(
                        rel_ok(rv, gs),
                        f"{run.label}: literal-predicate CCPoA {rv} vs {gs}",
                    )
                    cross += 1
            rng = random.Random(777_000 + run.idx)
            for _ in range(100):
                model = random_model(rng, run.cfg.weights)
                coeffs = {
                    e: tuple(rng.uniform(0, 2) for _ in run.cfg.basis)
                    for e in model.resources
                }
                g = GeneralizedGame(model, run.cfg.basis, coeffs, run.cfg.alpha)
                _, gopt = social_optimum(g, run.cfg.spec)
                if gopt <= 0:
                    continue
                games += 1
                p = exact_ppoa(g, run.cfg.spec, 0, EQ1)
                if p != NO_EQUILIBRIUM:
                    c.check(
                        p <= gs + REL * max(1, gs),
                        f"{run.label} game {games}: ppoa {p} above {gs}",
                    )
                cc = worst_cce_value(g, run.cfg.spec, 0, predicate=EQ1) / gopt
                c.check(
                    cc <= gs + REL * max(1, gs),
                    f"{run.label} game {games}: ccpoa {cc} above {gs}",
                )
        dt = time.perf_counter() - t0
        c.check(dt < 300, f"runtime {dt:.1f}s exceeds 300s")
        c.note(
            f"grouped-deviation predicate; {attained} witnesses attain gamma*, "
            f"{cross} diagonal-alpha cells cross-checked with the literal "
            f"predicate, {games} random games dominated, {vacuous} unbounded "
            f"cells vacuous; {dt:.0f}s"
        )


def test_eps_sandwich_on_the_witnesses(grid, witnesses):
    """The paper's claim at eps > 0: on every OPTIMAL eps = 0.5 cell, the
    witness's pure PoA and its worst eq1 CCE over its optimum both equal
    gamma*, as every pure eps-PNE is an eps-CCE; on identity-alpha cells
    the verbatim worst CCE equals it too.  Not a numbered criterion."""
    misses, cells = [], 0
    for run in grid:
        if run.cfg.epsilon != 0.5 or run.result.status != OPTIMAL:
            continue
        cells += 1
        gs, spec, eps = run.result.gamma_star, run.cfg.spec, run.cfg.epsilon
        game = witnesses[run.idx]
        _, opt = social_optimum(game, spec)
        ratios = {"ppoa": exact_ppoa(game, spec, eps, EQ1),
                  "eq1 ccpoa": worst_cce_value(game, spec, eps, EQ1) / opt}
        if run.key[2] == "identity":
            ratios["verbatim ccpoa"] = worst_cce_value(game, spec, eps, VERBATIM) / opt
        misses += [f"{run.label}: {name} {r} vs gamma* {gs}"
                   for name, r in ratios.items() if r == NO_EQUILIBRIUM or not rel_ok(r, gs)]
    assert cells == 65
    assert not misses, misses


def test_criterion_05_certificate_extension(grid):
    with criterion(5, "dual certificates hold on random models and distributions") as c:
        triples = 0
        for run in grid:
            if run.result.status != OPTIMAL:
                continue
            rng = random.Random(555_000 + run.idx)
            for _ in range(50):
                model = random_model(rng, run.cfg.weights)
                profiles = list(model.profiles())
                raw = [rng.random() for _ in profiles]
                total = sum(raw)
                dist = ProfileDistribution(
                    {p: m / total for p, m in zip(profiles, raw)}
                )
                o = tuple(rng.randrange(len(per)) for per in model.strategies)
                rep = verify_extension(
                    run.cfg,
                    run.result.dual_solution,
                    model,
                    dist,
                    o,
                    run.result.designated,
                )
                triples += 1
                c.check(
                    rep.ok,
                    f"{run.label}: row {rep.first_violated} violated by "
                    f"{rep.worst_violation}",
                )
        c.note(f"{triples} random (model, distribution, profile) triples")


def unit_cfg(n, alpha=None, exact=True):
    one = F(1) if exact else 1.0
    ident = identity_matrix(n, exact)
    return WorstCaseConfig(
        (one,) * n,
        alpha if alpha is not None else ident,
        SocialSpec(SUM, ident),
        F(0) if exact else 0.0,
        (X,),
    )


def test_criterion_06_anchor_values():
    with criterion(6, "anchor values confirmed by the independent enumerator") as c:
        hand2 = lp.solve(closed_form_dual(2), exact=True)
        c.check(
            hand2.status == lp.OPTIMAL and hand2.value == F(2),
            f"enumerator n=2 gave {hand2.status}/{hand2.value}",
        )
        r2f = solve_worst_case(unit_cfg(2, exact=False))
        c.check(
            r2f.status == OPTIMAL and rel_ok(r2f.gamma_star, 2.0),
            f"float n=2 gave {r2f.status}/{r2f.gamma_star}",
        )
        r2 = solve_worst_case(unit_cfg(2), exact=True)
        c.check(
            r2.status == OPTIMAL and r2.gamma_star == F(2),
            f"exact n=2 gave {r2.status}/{r2.gamma_star}",
        )
        zero = tuple((F(0),) * 2 for _ in range(2))
        r0 = solve_worst_case(unit_cfg(2, alpha=zero), exact=True)
        c.check(r0.status == INFINITE, f"alpha=0 gave {r0.status}")
        hand3 = lp.solve(closed_form_dual(3), exact=True)
        c.check(
            hand3.status == lp.OPTIMAL and hand3.value == F(5, 2),
            f"enumerator n=3 gave {hand3.status}/{hand3.value}",
        )
        r3 = solve_worst_case(unit_cfg(3), exact=True)
        c.check(
            r3.status == OPTIMAL and r3.gamma_star == F(5, 2),
            f"exact n=3 gave {r3.status}/{r3.gamma_star}",
        )
        c.note("n=2 value 2 and n=3 value 5/2 match the enumerator; alpha=0 unbounded")


def test_criterion_07_micro_fixtures():
    with criterion(7, "hand-computed oracle values on the shared-link game") as c:
        game, spec = g1(), g1_spec()
        c.check(exact_ppoa(game, spec, 0) == 1, "ppoa(eps=0) != 1")
        c.check(exact_ppoa(game, spec, 1) == 2, "ppoa(eps=1) != 2")
        cce = worst_cce_value(game, spec, 0)
        c.check(cce == 3, f"worst CCE value {cce} != 3")
        _, opt = social_optimum(game, spec)
        c.check(cce / opt == F(3, 2), f"CCPoA {cce / opt} != 3/2")
        pne = sorted(enumerate_eps_pne(game, 0))
        c.check(pne == [(0, 1), (1, 0)], f"equilibrium set {pne}")
        c.note("exact arithmetic throughout")


def test_criterion_08_normalization_invariance():
    with criterion(8, "normalization preserves equilibria and inefficiency ratios") as c:
        done = attempts = 0
        while done < 100 and attempts < 400:
            rng = seeded(660_000 + attempts)
            attempts += 1
            n = 2
            kind = SUM if attempts % 2 else MAX
            alpha = (
                identity_matrix(n, True)
                if attempts % 3
                else random_matrix(rng, n, -1, 1, exact=True)
            )
            game = random_game(rng, (F(1), F(3, 2)), (X,), alpha, exact=True)
            spec = SocialSpec(kind, identity_matrix(n, True))
            try:
                scaled, value = normalize_game(game, spec)
            except GameError:  # zero-value game cannot be normalized
                continue
            done += 1
            for pred in (EQ1, VERBATIM):
                before = sorted(enumerate_eps_pne(game, 0, pred))
                after = sorted(enumerate_eps_pne(scaled, 0, pred))
                c.check(
                    before == after,
                    f"seed {attempts - 1} {pred}: {before} -> {after}",
                )
                try:
                    pa = exact_ppoa(game, spec, 0, pred)
                    pb = exact_ppoa(scaled, spec, 0, pred)
                except GameError:
                    continue
                same = (
                    pa == pb
                    if NO_EQUILIBRIUM in (pa, pb)
                    else abs(pa - pb) <= 1e-9
                )
                c.check(same, f"seed {attempts - 1} {pred}: ppoa {pa} -> {pb}")
            _, opt_a = social_optimum(game, spec)
            _, opt_b = social_optimum(scaled, spec)
            ca = worst_cce_value(game, spec, 0) / opt_a
            cb = worst_cce_value(scaled, spec, 0) / opt_b
            c.check(
                abs(ca - cb) <= 1e-9, f"seed {attempts - 1}: ccpoa {ca} -> {cb}"
            )
        c.check(done == 100, f"only {done} usable games in {attempts} attempts")
        c.note(f"100 exact games in {attempts} draws, both deviation predicates")


def test_criterion_09_smoothness_suite(grid, witnesses):
    with criterion(9, "robust bound dominates oracles inside the framework's scope") as c:
        game, spec = g1(exact=False), g1_spec(exact=False)
        rg = robust_poa(game, spec)
        c.check(rg.status == SM_OPTIMAL, f"base game status {rg.status}")
        p = exact_ppoa(game, spec, 0)
        _, opt = social_optimum(game, spec)
        cc = worst_cce_value(game, spec, 0, predicate=EQ1) / opt
        c.check(p <= rg.value + REL, f"base game ppoa {p} above {rg.value}")
        c.check(cc <= rg.value + REL, f"base game ccpoa {cc} above {rg.value}")
        ok_cert, _ = check_smooth(
            game, spec, SmoothnessCertificate(rg.lam, rg.mu), tol=1e-7
        )
        c.check(ok_cert, "returned certificate fails its own pair inequalities")
        three = tuple(tuple(3.0 if i == j else 0.0 for j in range(2)) for i in range(2))
        bad = SocialSpec(SUM, three)
        okb, prof = is_sum_bounded(game, bad)
        c.check(not okb and prof is not None, "beta=3I not flagged")
        rb = robust_poa(game, bad)
        c.check(
            rb.status == NOT_SMOOTHABLE and rb.unbounded_witness is not None,
            f"beta=3I robust status {rb.status}",
        )

        scoped = mech = 0
        worst_dt = 0.0
        for run in grid:
            if run.result.status != OPTIMAL:
                continue
            wgame = witnesses[run.idx]
            okw, _ = is_sum_bounded(wgame, run.cfg.spec)
            if not okw:
                continue
            t1 = time.perf_counter()
            rw = robust_poa(wgame, run.cfg.spec)
            dt = time.perf_counter() - t1
            worst_dt = max(worst_dt, dt)
            mech += 1
            c.check(dt < 1.0, f"{run.label}: robust_poa took {dt:.2f}s")
            c.check(rw.status == SM_OPTIMAL, f"{run.label}: status {rw.status}")
            if run.key[2] != "identity" or rw.status != SM_OPTIMAL:
                # off-diagonal perception decouples the equilibrium
                # inequality from the individual costs the pair table sums,
                # so the bound is only claimed for diagonal perception
                continue
            _, wopt = social_optimum(wgame, run.cfg.spec)
            if wopt <= 0:
                continue
            scoped += 1
            wp = exact_ppoa(wgame, run.cfg.spec, 0, EQ1)
            wc = worst_cce_value(wgame, run.cfg.spec, 0, predicate=EQ1) / wopt
            if wp != NO_EQUILIBRIUM:
                c.check(
                    wp <= rw.value + REL, f"{run.label}: ppoa {wp} above {rw.value}"
                )
            c.check(wc <= rw.value + REL, f"{run.label}: ccpoa {wc} above {rw.value}")
        c.note(
            f"base game + {scoped} diagonal-perception witnesses dominated; "
            f"{mech} sum-bounded witnesses solved (worst {worst_dt * 1000:.0f}ms); "
            f"off-diagonal perception is outside the smoothness framework"
        )


def test_criterion_10_eps_monotonicity():
    with criterion(10, "gamma_star, ppoa and worst CCE value nondecreasing in eps") as c:
        eps_grid = (0, 0.25, 0.5, 1)
        configs = games = 0
        for k in range(20):
            rng = seeded(444_000 + k)
            n = 2 if k % 2 == 0 else 3
            # nonnegative perception keeps every eps-term a relaxation;
            # signed entries can shrink the equilibrium set as eps grows
            alpha = tuple(
                tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(n)
            )
            beta = (
                identity_matrix(n)
                if k % 4 < 2
                else tuple(tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(n))
            )
            kind = SUM if k % 3 else MAX
            basis = SUBSETS[k % len(SUBSETS)]
            spec = SocialSpec(kind, beta)
            gammas = []
            for eps in eps_grid:
                r = solve_worst_case(
                    WorstCaseConfig(WEIGHTS[n], alpha, spec, eps, basis)
                )
                gammas.append(math.inf if r.status == INFINITE else r.gamma_star)
            for a, b in zip(gammas, gammas[1:]):
                c.check(
                    a <= b or rel_ok(a, b),
                    f"config {k}: gamma* sequence {gammas} not monotone",
                )
            configs += 1
            game = None
            for _ in range(20):  # redraw until the optimum is positive
                cand = GeneralizedGame(
                    (m := random_model(rng, WEIGHTS[n])),
                    basis,
                    {
                        e: tuple(rng.uniform(0, 2) for _ in basis)
                        for e in m.resources
                    },
                    alpha,
                )
                if social_optimum(cand, spec)[1] > 0:
                    game = cand
                    break
            c.check(game is not None, f"config {k}: no usable random game")
            if game is None:
                continue
            games += 1
            ppoas = [
                p
                for eps in eps_grid
                if (p := exact_ppoa(game, spec, eps, EQ1)) != NO_EQUILIBRIUM
            ]
            for a, b in zip(ppoas, ppoas[1:]):
                c.check(
                    a <= b or rel_ok(a, b),
                    f"config {k}: ppoa sequence {ppoas} not monotone",
                )
            cces = [
                worst_cce_value(game, spec, eps, predicate=EQ1) for eps in eps_grid
            ]
            for a, b in zip(cces, cces[1:]):
                c.check(
                    a <= b or rel_ok(a, b),
                    f"config {k}: cce sequence {cces} not monotone",
                )
        c.note(
            f"{configs} nonnegative-perception configs, {games} random games, "
            f"eps in {{0, 1/4, 1/2, 1}}"
        )
