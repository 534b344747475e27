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

import numpy as np

from . import linprog as lp
from .games import (
    EQ1,
    SUM,
    VERBATIM,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    _verbatim_gaps,
    _weighted,
    deviation_gaps,
    individual_costs,
    is_eps_pne,
    social_of_costs,
    social_value,
)

PROFILE_CAP = 10**6
NO_EQUILIBRIUM = "NO_EQUILIBRIUM"


def _profiles(game: GeneralizedGame, cap: int, what: str):
    """The game's profiles in lexicographic order, after the cap check."""
    if game.model.profile_count() > cap:
        raise GameError(f"{what}: {game.model.profile_count()} profiles exceeds cap {cap}")
    return game.model.profiles()


def _cost_table(game: GeneralizedGame, cap: int, what: str) -> dict:
    """{profile: individual_costs} over _profiles: an oracle call's one cost pass."""
    return {prof: individual_costs(game, prof) for prof in _profiles(game, cap, what)}


def social_optimum(game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP):
    """Minimal-social-value pure profile, ties broken by lexicographic
    profile order.  Returns (profile, value)."""
    best = None
    best_value = None
    for prof in _profiles(game, cap, "social_optimum"):
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
    return [
        prof
        for prof in _profiles(game, cap, "enumerate_eps_pne")
        if is_eps_pne(game, prof, epsilon, predicate)
    ]


def _equilibria(game, spec, epsilon, predicate, cap):
    """(optimum profile, optimum, [(equilibrium, its social value)]) as
    social_optimum and enumerate_eps_pne give them, from one enumeration."""
    values = {prof: social_value(spec, game, prof) for prof in _profiles(game, cap, "exact_ppoa")}
    opt_profile = min(values, key=values.get)
    if values[opt_profile] == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    equilibria = [(prof, v) for prof, v in values.items()
                  if is_eps_pne(game, prof, epsilon, predicate)]
    return opt_profile, values[opt_profile], equilibria


def _worst_ratio(opt, equilibria):
    """(worst equilibrium value / opt, the equilibria at it), or (NO_EQUILIBRIUM, [])."""
    if not equilibria:
        return NO_EQUILIBRIUM, []
    target = max(v for _, v in equilibria)
    return target / opt, [prof for prof, v in equilibria if v == target]


def exact_ppoa(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = EQ1,
    cap: int = PROFILE_CAP,
):
    """Worst equilibrium value over optimum value, or NO_EQUILIBRIUM, from
    one enumeration of the game (is_eps_pne is the equilibrium test).

    Generalized games need not possess pure equilibria at all, so the
    empty case is a legitimate answer, not an error."""
    _, opt, equilibria = _equilibria(game, spec, epsilon, predicate, cap)
    return _worst_ratio(opt, equilibria)[0]


# ============================================================
# worst coarse value over the profile simplex
# ============================================================


@dataclass
class CCEReport:
    value: object
    distribution: ProfileDistribution
    player: Optional[int]  # argmax player for max objectives, else None


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
    functionals), keeping the winner.  Rows and objectives read one
    individual_costs pass over the profiles."""
    costs = _cost_table(game, cap, "worst_cce")
    variables = [f"p[{idx}]" for idx in range(len(costs))]
    gap_rows: dict = {}  # (i, x) -> its row's entries, filled one profile at a time
    for col, prof in enumerate(costs):
        gaps = (_verbatim_gaps(game, prof, epsilon, costs.__getitem__) if predicate == VERBATIM
                else deviation_gaps(game, prof, epsilon, predicate))
        for i, x_idx, gap in gaps:
            row = gap_rows.setdefault((i, x_idx), [0] * len(costs))
            if gap != 0:
                row[col] = gap
    # rows cce[i][x] in first-seen order, then mass, then the objective, one
    # column per profile; an entry is int 0 where its value is 0
    coefficients = np.array([*gap_rows.values(), [1] * len(costs), [0] * len(costs)],
                            dtype=object)
    rows = [lp.Row(lp.LE, 0, f"cce[{i}][{x_idx}]") for i, x_idx in gap_rows]
    rows.append(lp.Row(lp.EQ, 1, "mass"))

    def run(player, name):
        values = (social_of_costs(spec, c) if player is None else _weighted(spec.beta[player], c)
                  for c in costs.values())
        coefficients[-1] = [v or 0 for v in values]
        program = lp.LinearProgram(lp.MAXIMIZE, variables, rows, coefficients, name=name)
        rep = lp.solve(program, exact=exact)
        if rep.status != lp.OPTIMAL:
            # the literal definition admits empty coarse sets when
            # perceived costs go negative and epsilon > 0
            raise GameError(f"coarse constraint set is {rep.status}")
        masses = {prof: m for var, prof in zip(variables, costs)
                  if (m := rep.primal.get(var, 0)) > 0}
        if not exact:  # shed solver rounding before re-validation
            total = sum(masses.values())
            masses = {prof: m / total for prof, m in masses.items()}
        return CCEReport(rep.value, ProfileDistribution(masses), player)

    if spec.kind == SUM:
        return run(None, "cce_sum")
    return max((run(i, f"cce_max_{i}") for i in range(game.model.n)), key=lambda rep: rep.value)


def worst_cce_value(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = VERBATIM,
    cap: int = PROFILE_CAP,
    exact: bool = False,
):
    return worst_cce(game, spec, epsilon, predicate, cap, exact).value
