"""Exact ground truth on small games.

Everything here is brute force on purpose: optimum and equilibria by full
profile enumeration, worst coarse value by a linear program over the
profile simplex.  Arithmetic exactness follows the inputs — feed Fraction
data and pass exact=True where a solver is involved to get rational
answers end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linprog as lp
from .games import (
    EQ1,
    SUM,
    VERBATIM,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    beta_cost,
    deviation_gaps,
    is_eps_pne,
    social_value,
)

PROFILE_CAP = 10**6
NO_EQUILIBRIUM = "NO_EQUILIBRIUM"


def _guard_cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise GameError(f"{what}: {count} profiles exceeds cap {cap}")


def social_optimum(game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP):
    """Minimal-social-value pure profile, ties broken by lexicographic
    profile order.  Returns (profile, value)."""
    _guard_cap(game.model.profile_count(), cap, "social_optimum")
    best = None
    best_value = None
    for prof in game.model.profiles():
        v = social_value(spec, game, prof)
        if best_value is None or v < best_value:
            best, best_value = prof, v
    return best, best_value


def enumerate_eps_pne(
    game: GeneralizedGame,
    epsilon=0,
    predicate: str = EQ1,
    cap: int = PROFILE_CAP,
):
    """All pure profiles passing the chosen equilibrium predicate, in
    lexicographic order."""
    _guard_cap(game.model.profile_count(), cap, "enumerate_eps_pne")
    return [
        prof
        for prof in game.model.profiles()
        if is_eps_pne(game, prof, epsilon, predicate)
    ]


def exact_ppoa(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = EQ1,
    cap: int = PROFILE_CAP,
):
    """Worst equilibrium value over optimum value, or NO_EQUILIBRIUM.

    Generalized games need not possess pure equilibria at all, so the
    empty case is a legitimate answer, not an error."""
    opt_profile, opt = social_optimum(game, spec, cap)
    if opt == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    worst = None
    for prof in enumerate_eps_pne(game, epsilon, predicate, cap):
        v = social_value(spec, game, prof)
        if worst is None or v > worst:
            worst = v
    if worst is None:
        return NO_EQUILIBRIUM
    return worst / opt


# ============================================================
# worst coarse value over the profile simplex
# ============================================================


@dataclass
class CCEReport:
    value: object
    distribution: ProfileDistribution
    player: Optional[int]  # argmax player for max objectives, else None


def _cce_program(game, profiles, objective, epsilon, predicate, name):
    variables = [f"p[{idx}]" for idx in range(len(profiles))]
    coeffs: dict = {}  # (i, x) -> row coefficients, filled one profile at a time
    for idx, prof in enumerate(profiles):
        for i, x_idx, gap in deviation_gaps(game, prof, epsilon, predicate):
            row = coeffs.setdefault((i, x_idx), {})
            if gap != 0:
                row[f"p[{idx}]"] = gap
    rows = [lp.Row(row, lp.LE, 0, f"cce[{i}][{x_idx}]") for (i, x_idx), row in coeffs.items()]
    rows.append(lp.Row({v: 1 for v in variables}, lp.EQ, 1, "mass"))
    return lp.LinearProgram(lp.MAXIMIZE, variables, objective, rows, name=name)


def worst_cce(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = VERBATIM,
    cap: int = PROFILE_CAP,
    exact: bool = False,
) -> CCEReport:
    """Maximal social value over coarse equilibrium distributions.

    The constraints are the literal expectation form: for every player i
    and every fixed deviation x, E[perceived cost of i] is at most (1+eps)
    times the expected perceived cost after switching i to x.  One program
    for sum objectives; for max objectives one per player (a max of linear
    functionals), keeping the winner.
    """
    _guard_cap(game.model.profile_count(), cap, "worst_cce")
    profiles = list(game.model.profiles())

    def run(objective, player, name):
        program = _cce_program(game, profiles, objective, epsilon, predicate, name)
        rep = lp.solve(program, exact=exact)
        if rep.status != lp.OPTIMAL:
            # the literal definition admits empty coarse sets when
            # perceived costs go negative and epsilon > 0
            raise GameError(f"coarse constraint set is {rep.status}")
        masses = {}
        total = 0
        for idx, prof in enumerate(profiles):
            m = rep.primal[f"p[{idx}]"]
            if m > 0:
                masses[prof] = m
                total += m
        if not exact:  # shed solver rounding before re-validation
            masses = {prof: m / total for prof, m in masses.items()}
        return rep.value, ProfileDistribution(masses), player

    if spec.kind == SUM:
        objective = {}
        for idx, prof in enumerate(profiles):
            v = social_value(spec, game, prof)
            if v != 0:
                objective[f"p[{idx}]"] = v
        value, dist, _ = run(objective, None, "cce_sum")
        return CCEReport(value, dist, None)

    best = None
    for i in range(game.model.n):
        objective = {}
        for idx, prof in enumerate(profiles):
            v = beta_cost(spec, game, prof, i)
            if v != 0:
                objective[f"p[{idx}]"] = v
        cand = run(objective, i, f"cce_max_{i}")
        if best is None or cand[0] > best[0]:
            best = cand
    return CCEReport(best[0], best[1], best[2])


def worst_cce_value(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = VERBATIM,
    cap: int = PROFILE_CAP,
    exact: bool = False,
):
    return worst_cce(game, spec, epsilon, predicate, cap, exact).value
