"""Smoothness certificates and the robust price of anarchy.

A game is (lam, mu)-smooth when sum_i c_i(sigma_{-i}, sigma'_i) is at most
lam*SF(sigma') + mu*SF(sigma) for every ordered profile pair; any such
certificate with mu < 1 bounds every equilibrium notion's inefficiency by
lam/(1-mu).  Every answer reads one oracle cost table: SF, the sum bound
and the pair tables.  The table fixes their numbers and the slack of
every comparison read off it (its tol); only check_smooth, which judges
a certificate its caller hands it, adds games._tol of that certificate.
The infimum of that ratio over the certificate polyhedron is a
linear-fractional program, one LP after the Charnes-Cooper transform
t = 1/(1-mu) (Charnes & Cooper 1962), exact on an exact table.  Only its
3-row dual is written, from the pair tables as one coefficient array;
the certificate is that dual's row duals, which lp.solve checks as it
checks every answer's: against the Charnes-Cooper rows, which are the
dual's own dual rows, and for their signs.  mu may be negative but stays
below 1 (t > 0): the closure point (0, 1) satisfies the pair rows of
some degenerate games, certifying nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linprog as lp
from .games import (
    EQ1,
    VERBATIM,
    GameError,
    GeneralizedGame,
    SocialSpec,
    _tol,
)
from .oracle import (NO_EQUILIBRIUM, PROFILE_CAP, _cost_table, _cost_tables, _CostTable, _ppoa,
                     _weighted_rows, _worst_cce)

NOT_SMOOTHABLE = "NOT_SMOOTHABLE"
OPTIMAL = lp.OPTIMAL


@dataclass(frozen=True)
class SmoothnessCertificate:
    lam: object
    mu: object

    def __post_init__(self):
        if not self.lam > 0:
            raise GameError("smoothness certificate needs lam > 0")
        if not self.mu < 1:
            raise GameError("smoothness certificate needs mu < 1")

    @property
    def bound(self):
        return self.lam / (1 - self.mu)


def _unbounded_row(table: _CostTable, sf: list) -> Optional[int]:
    """The first row whose social value exceeds, by more than the table's
    tol, its individual costs added from 0 in player order, as the pair
    tables' diagonal adds them, or None."""
    totals = _weighted_rows([1] * table.costs.shape[1], table.costs)
    return next((a for a, (social, total) in enumerate(zip(sf, totals.tolist()))
                 if social > total + table.tol), None)


def is_sum_bounded(game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP):
    """(True, None), or (False, first profile whose social value exceeds the
    sum of individual costs): _unbounded_row, as robust_poa reads it."""
    table = _cost_table(game, cap, "is_sum_bounded", spec)
    a = _unbounded_row(table, table.social_values(spec))
    return (True, None) if a is None else (False, table.profile(a))


def _deviation_sums(table: _CostTable) -> np.ndarray:
    """The deviation sums of every ordered profile pair, as an array in the
    table's dtype: dev[a, b] = sum_i c_i(sigma_{-i}, sigma'_i) for sigma the
    profile of row a and sigma' that of row b, each c_i read off the table
    at the deviation's row and added from 0 in player order."""
    dev = np.zeros((len(table.profiles),) * 2, dtype=table.costs.dtype)
    for i in range(table.costs.shape[1]):
        dev = dev + table.costs[table.deviations(i, table.profiles[:, i]), i]
    return dev


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
    sf, dev = table.social_values(spec), _deviation_sums(table)
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
    probes: int  # LP solves


def _ratio_dual(sf, dev, exact: bool) -> lp.LinearProgram:
    """The dual of the Charnes-Cooper program, written from the pair tables
    as one coefficient array.  Its rows lam, mu and t are the program's
    variables ("lam" and "mu" standing for lam*t and mu*t), its columns
    pair[a][b] and unit its rows: lam*SF(sigma_b) + mu*SF(sigma_a) -
    t*dev(sigma_a, sigma_b) >= 0 for every ordered pair and t - mu = 1.
    Those rows are this program's dual rows, so lp.dual_violations checks
    a certificate point against them."""
    sf = np.array(sf, dtype=object if exact else np.float64)
    pairs = len(sf) ** 2
    coefficients = np.zeros((4, pairs + 1), dtype=sf.dtype)
    coefficients[:3, :pairs] = [np.tile(sf, len(sf)), np.repeat(sf, len(sf)),
                                -np.array(dev, dtype=sf.dtype).ravel()]
    coefficients[:, pairs] = (0, -1, 1, 1)  # unit's column: t - mu = 1; maximize unit
    labels = [f"pair[{a}][{b}]" for a in range(len(sf)) for b in range(len(sf))]
    rows = [lp.Row(lp.EQ, 1, "lam"), lp.Row(lp.EQ, 0, "mu"), lp.Row(lp.LE, 0, "t")]
    return lp.LinearProgram(lp.MAXIMIZE, labels + ["unit"], rows, coefficients,
                            bounds={pairs: lp.FREE}, name="smooth_probe_dual")


def _certificate_point(dual: lp.LinearProgram, exact: bool) -> Optional[tuple]:
    """The Charnes-Cooper program's optimal point (lam, mu, t): the row
    duals of its 3-row dual, or None when that dual is not OPTIMAL.
    lp.solve reads them at its final basis and checks them, exactly in
    exact mode: the Charnes-Cooper rows are the dual's dual rows, t >= 0
    is the sign of t's row dual, and lam = b'y is the dual's optimum."""
    rep = lp.solve(dual, exact)
    return rep.duals if rep.status == lp.OPTIMAL else None


def robust_poa(
    game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP
) -> RobustPoA:
    """inf lam/(1-mu) over valid certificates, as one linear program,
    solved as its 3-row dual; the certificate is read off the row duals
    and checked.

    Only defined for sum-bounded (game, spec) pairs — everything else is
    NOT_SMOOTHABLE with is_sum_bounded's profile, found before the pair
    tables are built.  On an exact table value = lam/(1-mu) is the exact
    infimum, in Fractions; otherwise it is the optimum of one LP whose point
    lp.solve checked to its RESIDUAL_TOL.
    Where every optimal point has t = 0, (lam, mu) are None: the value is
    then max SF / min SF, approached by certificates only as mu -> -inf.
    """
    table = _cost_table(game, cap, "smoothness pair tables", spec)
    return _robust_poa(table, table.social_values(spec))


def _robust_poa(table: _CostTable, sf: list) -> RobustPoA:
    """robust_poa on a cost table of the game and its social values."""
    a = _unbounded_row(table, sf)
    if a is not None:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, table.profile(a), 0)
    dev = _deviation_sums(table)
    one = sf[0] / sf[0] if sf and sf[0] else 1
    if len(sf) == 1:
        # only the pair (sigma, sigma) exists and the value is 1: lam=1, mu=0
        # certifies it when dev(sigma, sigma) <= SF(sigma), as under the sum of
        # the players' own costs; otherwise mu -> -inf only approaches it
        if dev.item(0) <= sf[0] + table.tol:
            return RobustPoA(OPTIMAL, one, one, 0 * one, None, 0)
        return RobustPoA(OPTIMAL, one, None, None, None, 0)
    if not table.exact:
        # pair rows are homogeneous in the table scale, so dividing both
        # tables by a common factor leaves the feasible set untouched while
        # keeping the LP's data near unit scale
        big = float(max(max(sf), abs(dev).max(), 1.0))
        sf = [v / big for v in sf]
        dev = dev / big
    # Charnes-Cooper: lam*t and mu*t with t = 1/(1-mu), so the ratio is the
    # objective and mu < 1 is t > 0
    x = _certificate_point(_ratio_dual(sf, dev, table.exact), table.exact)
    if x is None:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, None, 1)
    lam, mu, t = x if table.exact else map(float, x)
    if t <= table.tol:
        # the row duals may pick the t = 0 end of an optimal face: hold lam*t at
        # the optimum and mu*t at t - 1 (the unit row), and take the largest t
        # each pair row lam*sf_b - sf_a >= t*(dev_ab - sf_a) allows (one when none bounds it)
        pairs = dev.tolist()
        t = min(((lam * sf_b - sf_a) / (pairs[a][b] - sf_a) for a, sf_a in enumerate(sf)
                 for b, sf_b in enumerate(sf) if pairs[a][b] > sf_a), default=one)
        mu = t - 1
    if t <= table.tol:  # a float t near 0 would scale its rounding by 1/t
        return RobustPoA(OPTIMAL, lam, None, None, None, 1)
    return RobustPoA(OPTIMAL, lam, lam / t, mu / t, None, 1)


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
    table, gaps = _cost_tables(game, cap, "smoothness pair tables", spec, 0)
    sf = table.social_values(spec)
    robust = _robust_poa(table, sf)
    if gaps is not table:
        sf = gaps.social_values(spec)
    pure = _ppoa(game, gaps, sf, 0, EQ1)
    ppoa, opt = pure.value, pure.optimum
    ccpoa = _worst_cce(game, gaps, spec, sf, 0, VERBATIM).value / opt
    if robust.status != OPTIMAL:
        return SmoothnessValidation(
            False, robust.unbounded_witness, robust, ppoa, ccpoa, None, None, None
        )
    bound = robust.value * (1 + max(table.tol, gaps.tol))
    ok_p = None if ppoa == NO_EQUILIBRIUM else bool(ppoa <= bound)
    ok_c = bool(ccpoa <= bound)
    gap = None if ppoa == NO_EQUILIBRIUM else float(robust.value - ppoa)
    return SmoothnessValidation(True, None, robust, ppoa, ccpoa, ok_p, ok_c, gap)
