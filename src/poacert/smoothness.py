"""Smoothness certificates and the robust price of anarchy.

A game is (lam, mu)-smooth when sum_i c_i(sigma_{-i}, sigma'_i) is at most
lam*SF(sigma') + mu*SF(sigma) for every ordered profile pair; any such
certificate with mu < 1 bounds every equilibrium notion's inefficiency by
lam/(1-mu).  Every answer reads one oracle cost table: SF, the sum bound
and the pair tables.  The table fixes their numbers and the slack of
every comparison read off it (its tol); only check_smooth, which judges
a certificate its caller hands it, adds games._tol of that certificate.
Pair tables of a float table that pass the float range are judged by
neither: the robust PoA and check_smooth raise OverflowError.
The infimum of that ratio over the certificate polyhedron is a
linear-fractional program; after the Charnes-Cooper transform
t = 1/(1-mu) (Charnes & Cooper 1962) it has one free direction, t, and
its optimum is the minimum of an upper envelope of one line in t per
profile pair, walked in the table's arithmetic (exact on an exact table)
with no LP.  mu may be negative but stays below 1 (t > 0): the closure
point (0, 1) satisfies the pair rows of some degenerate games, certifying
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .games import (
    EQ1,
    VERBATIM,
    GameError,
    GeneralizedGame,
    SocialSpec,
    _tol,
)
from .oracle import (EQ1_PNE, NO_EQUILIBRIUM, PROFILE_CAP, _cost_table, _cost_tables, _CostTable,
                     _ppoa, _python_floats, _weighted_rows, _worst_cce)

NOT_SMOOTHABLE = "NOT_SMOOTHABLE"
OPTIMAL = "OPTIMAL"  # linprog's name for an answer found


@dataclass(frozen=True)
class SmoothnessCertificate:
    lam: object
    mu: object

    def __post_init__(self):
        if self.lam is None or self.mu is None:
            raise GameError(f"smoothness certificate needs lam and mu, got {self.lam}, {self.mu}")
        if not self.lam > 0:
            raise GameError("smoothness certificate needs lam > 0")
        if not self.mu < 1:
            raise GameError("smoothness certificate needs mu < 1")

    @property
    def bound(self):
        return self.lam / (1 - self.mu)


def _unbounded_row(table: _CostTable) -> Optional[int]:
    """The first row whose social value exceeds, by more than the table's
    tol, its individual costs added from 0 in player order, as the pair
    tables' diagonal adds them, or None."""
    with _python_floats():
        totals = _weighted_rows([1] * table.costs.shape[1], table.costs)
    return next((a for a, (social, total) in enumerate(zip(table.social_values, totals.tolist()))
                 if social > total + table.tol), None)


def is_sum_bounded(game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP):
    """(True, None), or (False, first profile whose social value exceeds the
    sum of individual costs): _unbounded_row, as robust_poa reads it."""
    table = _cost_table(game, cap, "is_sum_bounded", spec)
    a = _unbounded_row(table)
    return (True, None) if a is None else (False, table.profile(a))


def _deviation_sums(table: _CostTable) -> np.ndarray:
    """The deviation sums of every ordered profile pair, as an array in the
    table's dtype: dev[a, b] = sum_i c_i(sigma_{-i}, sigma'_i) for sigma the
    profile of row a and sigma' that of row b, each c_i read off the table
    at the deviation's row and added from 0 in player order, as
    _python_floats adds them."""
    dev = np.zeros((len(table.profiles),) * 2, dtype=table.costs.dtype)
    with _python_floats():
        for i in range(table.costs.shape[1]):
            dev = dev + table.costs[table.deviations(i, table.profiles[:, i]), i]
    return dev


def _pair_tables(table: _CostTable) -> tuple:
    """SF and the deviation sums of the table's profile pairs.  On a float
    table where one of them is not finite (an inf or nan cost makes its
    row's own deviation sum so), OverflowError: no pair row past the float
    range can be judged."""
    sf, dev = table.social_values, _deviation_sums(table)
    if not table.exact and not (np.isfinite(sf).all() and np.isfinite(dev).all()):
        raise OverflowError("a social value or deviation sum exceeds the float range")
    return sf, dev


def check_smooth(
    game: GeneralizedGame,
    spec: SocialSpec,
    cert: SmoothnessCertificate,
    tol=None,
):
    """Exhaustive check of the pair inequalities; (True, None) or
    (False, first violating (sigma, sigma')) in row-major order.  Without
    tol, a row may exceed its bound by the table's tol, or by games._tol
    of lam and mu when that is larger: 0 when the table and the
    certificate are exact, FEAS_TOL otherwise."""
    table = _cost_table(game, PROFILE_CAP, "smoothness pair tables", spec)
    sf, dev = _pair_tables(table)
    if tol is None:
        tol = table.tol or _tol(cert.lam, cert.mu)
    lam, mu = cert.lam, cert.mu
    if not all(isinstance(v, float) for v in (lam, mu, tol)):
        dev = dev.astype(object)  # Python arithmetic on mixed number types
    sf = np.array(sf, dtype=dev.dtype)
    violated = np.flatnonzero(dev > lam * sf[None, :] + mu * sf[:, None] + tol)
    if violated.size:
        a, b = divmod(int(violated[0]), len(sf))
        return False, (table.profile(a), table.profile(b))
    return True, None


@dataclass
class RobustPoA:
    status: str  # OPTIMAL or NOT_SMOOTHABLE
    value: Optional[object]
    lam: Optional[object]
    mu: Optional[object]
    unbounded_witness: Optional[tuple]  # profile breaking sum-boundedness
    probes: int  # 0: no LP is solved; kept for poabench's tracer until ROADMAP item 18


def _highest(v: np.ndarray, s: np.ndarray, among: np.ndarray) -> int:
    """The line among the masked ones that is highest at the current t,
    the steepest of those on a tie."""
    tied = np.flatnonzero(among & (v == v[among].max()))
    return tied[np.argmax(s[tied])]


def _envelope_minimum(sf: list, dev: np.ndarray, tol) -> RobustPoA:
    """The robust PoA of sum-bounded pair tables, in their arithmetic.

    With t = 1/(1-mu) and lam*t as the value (Charnes & Cooper 1962), the
    pair row of (a, b) reads value*SF_b >= SF_a + t*(dev_ab - SF_a).  A
    pair with SF_b > 0 is a line in t, and the least value at t is their
    upper envelope; a pair with SF_b = 0 only allows the t >= 0 with
    t*(SF_a - dev_ab) >= SF_a, which (SF being >= 0) is every t from a
    least one, t = 0 alone, or none.  The walk starts at the least allowed
    t on the highest line (the steepest on a tie) and, while that line does
    not rise, steps to its first crossing with a steeper line: it stops at
    the largest optimal t, or, when the last piece is flat to infinity, at
    t = 1 unless the piece starts later.  lam = value/t and mu = (t-1)/t
    there; both are None when t is within tol of 0, where certificates only
    approach the value as mu -> -inf.  NOT_SMOOTHABLE when no t is allowed
    or no line exists.
    """
    top = max(sf)
    sf = np.array(sf, dtype=dev.dtype)
    pos = sf > 0
    need = np.broadcast_to(sf[:, None], (len(sf), len(sf) - int(pos.sum())))  # SF_a, SF_b = 0
    d = need - dev[:, ~pos]  # such a pair allows the t with t*d >= SF_a
    t = max([0, *(need[d > 0] / d[d > 0]).tolist()])  # the least allowed t
    pinned = (d < 0).any()  # t*d >= SF_a = 0 with d < 0 allows t = 0 alone
    if not top > 0 or ((d <= 0) & (need > 0)).any() or (pinned and t > 0):
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, None, 0)
    c = (sf[:, None] / sf[pos]).ravel()
    s = ((dev[:, pos] - sf[:, None]) / sf[pos]).ravel()
    v = c + s * t
    k = _highest(v, s, np.ones(len(s), dtype=bool))
    while not pinned and s[k] <= 0:
        up = s > s[k]
        if not up.any():
            t = max(t, top / top)
            break
        t = min((t + (v[k] - v[up]) / (s[up] - s[k])).tolist())
        v = c + s * t
        k = _highest(v, s, up)
    value = max((c + s * t).tolist())
    if t <= tol:  # a float t near 0 would scale its rounding by 1/t
        return RobustPoA(OPTIMAL, value, None, None, None, 0)
    return RobustPoA(OPTIMAL, value, value / t, (t - 1) / t, None, 0)


def robust_poa(
    game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP
) -> RobustPoA:
    """inf lam/(1-mu) over valid certificates: the minimum of an envelope
    of lines, read off the pair tables with no LP (_envelope_minimum).

    Only defined for sum-bounded (game, spec) pairs — everything else is
    NOT_SMOOTHABLE with is_sum_bounded's profile, found before the pair
    tables are built.  On an exact table value = lam/(1-mu) is the exact
    infimum, in Fractions; on a float table it is the same walk in float64.
    Where every optimal point has t = 0, (lam, mu) are None: the value is
    then max SF / min SF, approached by certificates only as mu -> -inf.
    """
    return _robust_poa(_cost_table(game, cap, "smoothness pair tables", spec))


def _robust_poa(table: _CostTable) -> RobustPoA:
    """robust_poa on a cost table."""
    a = _unbounded_row(table)
    if a is not None:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, table.profile(a), 0)
    return _envelope_minimum(*_pair_tables(table), table.tol)


@dataclass
class SmoothnessValidation:
    sum_bounded: bool
    sum_bounded_witness: Optional[tuple]
    robust: RobustPoA
    ppoa: object  # value or NO_EQUILIBRIUM
    ccpoa: object
    ppoa_within_bound: Optional[bool]
    ccpoa_within_bound: Optional[bool]
    tightness_gap: Optional[float]


def validate_smoothness_claims(
    game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP
) -> SmoothnessValidation:
    """Cross-check the certificate machinery against the exact oracles:
    the pure ratio at eps=0 (exact_ppoa's, from the one enumeration that
    also finds the optimum) and the coarse ratio must both sit below the
    robust bound.  Either failing indicates a bug, not a bad instance.
    One enumeration serves the three answers, each in its oracle's
    arithmetic: the robust one is robust_poa's, on the table of the costs
    and beta, and the gap answers are exact_ppoa's and worst_cce's, on the
    table for gaps at eps=0.  The bound gets a relative slack of the
    larger tol of the two tables: none when both are exact."""
    table, gaps = _cost_tables(game, cap, "smoothness pair tables", spec, 0, EQ1_PNE)
    robust = _robust_poa(table)
    pure = _ppoa(gaps, EQ1)
    ppoa, opt = pure.value, pure.optimum
    ccpoa = _worst_cce(gaps, VERBATIM).value / opt
    if robust.status != OPTIMAL:
        return SmoothnessValidation(
            False, robust.unbounded_witness, robust, ppoa, ccpoa, None, None, None
        )
    bound = robust.value * (1 + max(table.tol, gaps.tol))
    ok_p = None if ppoa == NO_EQUILIBRIUM else bool(ppoa <= bound)
    ok_c = bool(ccpoa <= bound)
    gap = None if ppoa == NO_EQUILIBRIUM else float(robust.value - ppoa)
    return SmoothnessValidation(True, None, robust, ppoa, ccpoa, ok_p, ok_c, gap)
