"""Exact ground truth on small games.

Everything here is brute force on purpose: optimum and equilibria by full
profile enumeration, worst coarse value by a linear program over the
profile simplex, each read off one _CostTable and its gaps.  A call
prices the game in one pass (_cost_tables): each profile once, each
latency at a load once through a memo that lives for that call alone,
and, where an answer reads eq1 gaps, those gaps from the same loads and
latencies: every gap for eq1 coarse rows, or each profile's equilibrium
verdict, which stops at its first gap above FEAS_TOL.  The cost table
carries the game, spec and epsilon it was priced for, and fixes the
numbers, the slack and the gaps.  It decides the arithmetic by
games.rational: when none of the game's costs, the social spec's beta
and, where an answer reads gaps, alpha and epsilon is a float, and one
of them is a Fraction, its costs are Fractions and the answers rational
end to end; any other game, integer costs included, gets float64 ones.
Its tol, 0 or FEAS_TOL, is the slack of every comparison read off it, so
the pure and the coarse oracle accept the same equilibria.  A caller
that reads both a ratio of the costs and gaps takes both tables from one
pass, each in its own arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import NamedTuple, Optional

import numpy as np

from . import linprog as lp
from .games import (
    EQ1,
    FEAS_TOL,
    SUM,
    VERBATIM,
    GameError,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    check_epsilon,
    _costs,
    _grouped_gaps,
    _idle,
    _latency_memo,
    _pne_verdict,
    _price,
    rational,
)

PROFILE_CAP = 10**6
NO_EQUILIBRIUM = "NO_EQUILIBRIUM"


@dataclass(frozen=True, eq=False)
class _CostTable:
    """An oracle call's one priced pass of game, for spec (None on a table
    for gaps alone) and for gaps at epsilon (None on a table for no gaps):
    the game's profiles in lexicographic order as rows of strategy indices
    (profiles[a, i] is player i's strategy at row a), the individual cost
    of player i at row a as costs[a, i], and the mixed-radix strides of the
    profile order, so the deviation (sigma_{-i}, x) of row a is row
    a + (x - sigma_i) * strides[i].  exact is games.rational of the costs,
    of spec's beta and, for gaps, of alpha and epsilon: then costs is an
    object array of Fractions and every answer read off the table is
    solved and read in rationals; otherwise costs is float64, integer
    costs included.  eq1, on a table for eq1 gaps, is what its pass kept
    of them: every row's gaps in deviation_gaps order, in the costs' dtype
    (EQ1_ROWS), or one verdict per row (EQ1_PNE), True where no gap exceeds
    tol; None on any other table."""

    game: GeneralizedGame
    spec: Optional[SocialSpec]
    epsilon: object
    profiles: np.ndarray
    costs: np.ndarray
    strides: np.ndarray
    exact: bool
    eq1: Optional[np.ndarray] = None

    @property
    def tol(self):
        """The slack of every comparison read off the table: 0 when it is
        exact, FEAS_TOL otherwise."""
        return 0 if self.exact else FEAS_TOL

    def profile(self, a: int) -> tuple:
        """The profile of row a, as the tuple games reads."""
        return tuple(self.profiles[a].tolist())

    def deviations(self, i: int, targets) -> np.ndarray:
        """Rows by targets: the row of (sigma_{-i}, x) for every row sigma
        and every strategy index x of player i in targets."""
        shift = (np.asarray(targets)[None, :] - self.profiles[:, i, None]) * self.strides[i]
        return np.arange(len(self.profiles))[:, None] + shift

    @cached_property
    def social_values(self) -> list:
        """social_of_costs of every row under the table's spec, in row
        order, computed once: each player's beta-costs as _weighted_rows
        adds them, then their sum from 0 in player order, or the first
        largest of them, added as _python_floats adds them."""
        with _python_floats():
            per_player = [_weighted_rows(row, self.costs) for row in self.spec.beta]
            if self.spec.kind == SUM:
                return reduce(add, per_player, 0).tolist()
        return [max(values) for values in zip(*(p.tolist() for p in per_player))]


# what an answer reads of the eq1 gaps: every gap (the coarse rows) or each
# profile's verdict alone (the pure equilibria)
EQ1_ROWS = "rows"
EQ1_PNE = "pne"


def _eq1_reads(predicate: str, reads: str) -> Optional[str]:
    """reads when predicate is EQ1, None under VERBATIM, whose gaps are
    read off the costs; GameError for any other predicate."""
    if predicate not in (EQ1, VERBATIM):
        raise GameError(f"unknown predicate {predicate!r}")
    return reads if predicate == EQ1 else None


def _cost_table(game: GeneralizedGame, cap: int, what: str,
                spec: Optional[SocialSpec] = None, epsilon=None, eq1=None) -> _CostTable:
    """The _CostTable of the game's profiles for the answers of spec and,
    when epsilon is given, for gaps at epsilon; see _cost_tables."""
    return _cost_tables(game, cap, what, spec, epsilon, eq1)[1]


def _cost_tables(game: GeneralizedGame, cap: int, what: str,
                 spec: Optional[SocialSpec], epsilon, eq1: Optional[str] = None) -> tuple:
    """From one priced pass over the game's profiles, after the cap, the
    epsilon and the spec's size are checked, two _CostTables: the one for
    the answers of spec, whose arithmetic the costs and beta decide, and
    the one for gaps at epsilon (which it records), which read alpha and
    epsilon too.  With no epsilon, or when the two rules agree, both are
    one table.  The pass prices each profile once (games._price and
    games._costs), each latency at a load once per call
    (games._latency_memo) and, when eq1 names what an answer reads of the
    eq1 gaps (EQ1_ROWS or EQ1_PNE), computes them from the same loads and
    latencies (games._grouped_gaps): every gap, or each profile's
    games._pne_verdict."""
    if game.model.profile_count() > cap:
        raise GameError(f"{what}: {game.model.profile_count()} profiles exceeds cap {cap}")
    if epsilon is not None:
        check_epsilon(epsilon)
    if spec is not None and spec.n != game.n:
        raise GameError(f"social spec is {spec.n}x{spec.n} for a game of {game.n} players")
    profiles = list(game.model.profiles())
    latencies = _latency_memo(game)  # this call's alone
    idle = _idle(game)
    rows, kept = [], []
    for prof in profiles:
        priced = _price(game, prof, latencies, idle)
        rows.append(_costs(game.model, prof, priced[1]))
        if eq1 is not None:
            gaps = _grouped_gaps(game, prof, epsilon, priced, idle, latencies)
            kept.append([gap for _, _, gap in gaps] if eq1 == EQ1_ROWS else _pne_verdict(gaps))
    numbers = [*(c for row in rows for c in row),
               *([] if spec is None else (b for row in spec.beta for b in row))]
    rules = [rational(numbers)]
    if epsilon is not None:
        rules.append(rational([*numbers, epsilon, *(a for row in game.alpha for a in row)]))
    sizes = [len(per) for per in game.model.strategies]
    strides = np.cumprod([1, *sizes[:0:-1]])[::-1]
    index = np.array(profiles, dtype=np.intp)
    tables = {}
    for exact in set(rules):
        costs = lp._fractions(np.array(rows, dtype=object)) if exact else np.array(rows, np.float64)
        gaps = exact == rules[-1]  # whether this table serves the gaps
        tables[exact] = _CostTable(game, spec, epsilon if gaps else None, index, costs, strides,
                                   exact, _kept(kept, eq1, exact, costs.dtype) if gaps else None)
    return tables[rules[0]], tables[rules[-1]]


def _kept(kept: list, eq1: Optional[str], exact: bool, dtype) -> Optional[np.ndarray]:
    """A gap table's eq1, from what its pass kept: the gap rows in the
    table's dtype (EQ1_ROWS), or whether each row is an equilibrium under
    the table's tol (EQ1_PNE), from its games._pne_verdict."""
    if eq1 is None:
        return None
    if eq1 == EQ1_ROWS:
        return np.array(kept, dtype=dtype)
    return np.array(kept, np.int8) <= (0 if exact else 1)


def _python_floats():
    """The np.errstate of every array sum over a cost table's costs: a
    float64 one behaves as Python's float arithmetic, past the largest
    float inf and inf - inf nan, with no warning."""
    return np.errstate(over="ignore", invalid="ignore")


def _weighted_rows(row, costs: np.ndarray) -> np.ndarray:
    """games._weighted(row, c) for every row c of a cost array: the same
    terms, added in the same order, from a float64 zero or an int one.
    Every caller adds under _python_floats."""
    total = np.zeros(len(costs), dtype=costs.dtype)
    for j, r in enumerate(row):
        if r != 0:
            total = total + (float(r) if costs.dtype == np.float64 else r) * costs[:, j]
    return total


def _optimum(values: list) -> tuple:
    """The first row of least social value, and that value."""
    return min(enumerate(values), key=lambda pair: pair[1])


def _gaps(table: _CostTable, predicate) -> np.ndarray:
    """Every row's gaps at the table's epsilon in deviation_gaps order, as
    one profiles x deviations array in the table's dtype, for eq1 and
    verbatim alike: a verbatim gap read off the costs, an eq1 one as the
    table's pass kept it (EQ1_ROWS).  A gap within the table's tol of 0 is
    0 (an int 0 in an object array), so every reader judges a gap by its
    sign alone."""
    if _eq1_reads(predicate, EQ1_ROWS):
        gaps = table.eq1
    else:
        scale = 1 + table.epsilon if table.exact else float(1 + table.epsilon)
        blocks = []
        with _python_floats():
            for i, alpha in enumerate(table.game.alpha):
                perceived = _weighted_rows(alpha, table.costs)
                deviations = table.deviations(i, range(len(table.game.model.strategies[i])))
                blocks.append(perceived[:, None] - scale * perceived[deviations])
        gaps = np.concatenate(blocks, axis=1)
    return np.where(abs(gaps) > table.tol, gaps, 0)


def _equilibria(table: _CostTable, predicate) -> list:
    """The rows whose every gap is at most 0: under eq1 the verdicts the
    table's pass kept (EQ1_PNE), under verbatim the rows of _gaps."""
    if _eq1_reads(predicate, EQ1_PNE):
        return np.flatnonzero(table.eq1).tolist()
    return np.flatnonzero((_gaps(table, predicate) <= 0).all(axis=1)).tolist()


def social_optimum(game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP):
    """Minimal-social-value pure profile, ties broken by lexicographic
    profile order.  Returns (profile, value)."""
    table = _cost_table(game, cap, "social_optimum", spec)
    best, value = _optimum(table.social_values)
    return table.profile(best), value


def enumerate_eps_pne(
    game: GeneralizedGame,
    epsilon=0,
    predicate: str = EQ1,
    cap: int = PROFILE_CAP,
):
    """All pure profiles passing is_eps_pne under the chosen predicate, in
    lexicographic order: the _equilibria of one cost table."""
    table = _cost_table(game, cap, "enumerate_eps_pne", epsilon=epsilon,
                        eq1=_eq1_reads(predicate, EQ1_PNE))
    return [table.profile(a) for a in _equilibria(table, predicate)]


class PPoAReport(NamedTuple):
    """exact_ppoa with what it read: the optimum, the first profile at it,
    how many profiles pass the equilibrium predicate, and those at the
    worst equilibrium value (empty when value is NO_EQUILIBRIUM)."""

    value: object
    optimum: object
    optimum_profile: tuple
    equilibrium_count: int
    worst_equilibria: list


def _ppoa(table: _CostTable, predicate) -> PPoAReport:
    """ppoa_report on a cost table: _optimum of its social values and
    _equilibria, as social_optimum and enumerate_eps_pne read them."""
    values = table.social_values
    best, opt = _optimum(values)
    if opt == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    equilibria = _equilibria(table, predicate)
    if not equilibria:
        return PPoAReport(NO_EQUILIBRIUM, opt, table.profile(best), 0, [])
    target = max(values[a] for a in equilibria)
    return PPoAReport(target / opt, opt, table.profile(best), len(equilibria),
                      [table.profile(a) for a in equilibria if values[a] == target])


def ppoa_report(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = EQ1,
    cap: int = PROFILE_CAP,
) -> PPoAReport:
    """exact_ppoa's PPoAReport, from one enumeration of the game."""
    table = _cost_table(game, cap, "exact_ppoa", spec, epsilon, _eq1_reads(predicate, EQ1_PNE))
    return _ppoa(table, predicate)


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
    return ppoa_report(game, spec, epsilon, predicate, cap).value


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
) -> CCEReport:
    """Maximal social value over coarse equilibrium distributions.

    The constraints are the literal expectation form: for every player i
    and every fixed deviation x, E[perceived cost of i] is at most (1+eps)
    times the expected perceived cost after switching i to x.  One program
    for sum objectives; for max objectives one per player (a max of linear
    functionals) over one feasible region, solved by lp.solve_each,
    keeping the winner.  Rows and objectives read one cost table."""
    table = _cost_table(game, cap, "worst_cce", spec, epsilon, _eq1_reads(predicate, EQ1_ROWS))
    return _worst_cce(table, predicate)


def cce_poa(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = VERBATIM,
    cap: int = PROFILE_CAP,
):
    """(social optimum, worst_cce's CCEReport), both read off one cost
    table; a zero optimum raises GameError before any program is solved."""
    table = _cost_table(game, cap, "cce_poa", spec, epsilon, _eq1_reads(predicate, EQ1_ROWS))
    _, opt = _optimum(table.social_values)
    if opt == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    return opt, _worst_cce(table, predicate)


class _ProfileNames(Sequence):
    """The variables of a coarse program, one per profile row, read-only
    and named on demand: row a is p[a] only when read, so a solve that
    succeeds formats no name."""

    def __init__(self, size: int):
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, a: int) -> str:
        return f"p[{range(self.size)[a]}]"  # IndexError past either end


def _worst_cce(table: _CostTable, predicate) -> CCEReport:
    """worst_cce on a cost table: its social values are the objective
    under sum and are not computed under max, whose objectives are the
    players' beta-costs, all solved over one region."""
    game, spec, size = table.game, table.spec, len(table.profiles)
    # the rows cce[i][x], players then strategies, one column per profile
    gap_rows = _gaps(table, predicate).T
    with _python_floats():
        objectives = [table.social_values] if spec.kind == SUM else [
            _weighted_rows(row, table.costs).tolist() for row in spec.beta]
    objectives = np.array([[v or 0 for v in values] for values in objectives],
                          dtype=gap_rows.dtype)
    # rows cce[i][x], then mass, then the first objective
    coefficients = np.concatenate([gap_rows, np.ones((1, size), dtype=gap_rows.dtype),
                                   objectives[:1]])
    rows = [lp.Row(lp.LE, 0, f"cce[{i}][{x}]") for i, per in enumerate(game.model.strategies)
            for x in range(len(per))]
    rows.append(lp.Row(lp.EQ, 1, "mass"))
    program = lp.LinearProgram(lp.MAXIMIZE, _ProfileNames(size), rows, coefficients,
                               name=f"cce_{spec.kind}")
    if spec.kind == SUM:
        reports, players = [lp.solve(program, table.exact)], [None]
    else:
        reports, players = lp.solve_each(program, objectives, table.exact), range(game.model.n)
    for rep in reports:
        if rep.status != lp.OPTIMAL:
            # the literal definition admits empty coarse sets when
            # perceived costs go negative and epsilon > 0
            raise GameError(f"coarse constraint set is {rep.status}")
    rep, player = max(zip(reports, players), key=lambda pair: pair[0].value)
    masses = {table.profile(a): m for a, m in rep.primal.items() if m > 0}
    if not table.exact:  # shed solver rounding before re-validation
        total = reduce(add, masses.values(), 0)
        masses = {prof: m / total for prof, m in masses.items()}
    return CCEReport(rep.value, ProfileDistribution(masses), player)


def worst_cce_value(
    game: GeneralizedGame,
    spec: SocialSpec,
    epsilon=0,
    predicate: str = VERBATIM,
    cap: int = PROFILE_CAP,
):
    return worst_cce(game, spec, epsilon, predicate, cap).value
