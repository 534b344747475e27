"""Smoothness certificates and the robust price of anarchy.

A game is (lam, mu)-smooth when sum_i c_i(sigma_{-i}, sigma'_i) is at most
lam*SF(sigma') + mu*SF(sigma) for every ordered profile pair; any such
certificate with mu < 1 bounds every equilibrium notion's inefficiency by
lam/(1-mu).  The infimum of that ratio over the certificate polyhedron is a
linear-fractional program, solved as one LP after the Charnes-Cooper
transform t = 1/(1-mu) (Charnes & Cooper 1962), exactly on Fraction input.
mu may be negative but stays below 1 (t > 0): the closure point (0, 1)
satisfies the pair rows of some degenerate games, certifying nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linprog as lp
from .games import (
    FEAS_TOL,
    GameError,
    GeneralizedGame,
    SocialSpec,
    _deviate,
    individual_costs,
    social_of_costs,
)
from .oracle import (NO_EQUILIBRIUM, PROFILE_CAP, _guard_cap, exact_ppoa, social_optimum,
                     worst_cce_value)

NOT_SMOOTHABLE = "NOT_SMOOTHABLE"
OPTIMAL = "OPTIMAL"

_STRICT = 1e-12  # mu < 1 enforced up to this margin in the probe


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


def is_sum_bounded(game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP):
    """(True, None), or (False, first profile whose social value exceeds the
    sum of individual costs)."""
    _guard_cap(game.model.profile_count(), cap, "is_sum_bounded")
    for prof in game.model.profiles():
        costs = individual_costs(game, prof)
        if social_of_costs(spec, costs) > sum(costs) + FEAS_TOL:
            return False, prof
    return True, None


def _pair_tables(game, spec, cap):
    """Profiles, their social values and the deviation sums of every
    ordered profile pair: up to cap^2 entries for cap profiles, all read
    from one individual_costs pass per profile (a deviation is a profile)."""
    _guard_cap(game.model.profile_count(), cap, "smoothness pair tables")
    profiles = list(game.model.profiles())
    costs = {prof: individual_costs(game, prof) for prof in profiles}
    sf = [social_of_costs(spec, costs[prof]) for prof in profiles]
    n = game.model.n
    dev = [
        [sum(costs[_deviate(prof, i, other[i])][i] for i in range(n)) for other in profiles]
        for prof in profiles
    ]
    return profiles, sf, dev


def check_smooth(
    game: GeneralizedGame,
    spec: SocialSpec,
    cert: SmoothnessCertificate,
    tol=FEAS_TOL,
):
    """Exhaustive check of the pair inequalities; (True, None) or
    (False, first violating (sigma, sigma'))."""
    profiles, sf, dev = _pair_tables(game, spec, PROFILE_CAP)
    for a, sigma in enumerate(profiles):
        for b, target in enumerate(profiles):
            if dev[a][b] > cert.lam * sf[b] + cert.mu * sf[a] + tol:
                return False, (sigma, target)
    return True, None


@dataclass
class RobustPoA:
    status: str  # OPTIMAL or NOT_SMOOTHABLE
    value: Optional[object]
    lam: Optional[object]
    mu: Optional[object]
    unbounded_witness: Optional[tuple]  # profile breaking sum-boundedness
    probes: int  # LP solves


def _pair_rows(sf, dev):
    """lam*SF(sigma') + mu*SF(sigma) - t*dev(sigma, sigma') >= 0 for every
    ordered pair; t = 1 gives the certificate rows themselves."""
    rows = []
    for a, sf_a in enumerate(sf):
        for b, sf_b in enumerate(sf):
            coeffs = {}
            if sf_b:
                coeffs["lam"] = sf_b
            if sf_a:
                coeffs["mu"] = sf_a
            if dev[a][b]:
                coeffs["t"] = -dev[a][b]
            rows.append(lp.Row(coeffs, lp.GE, 0, f"pair[{a}][{b}]"))
    return rows


def _probe(rho: float, sf, dev) -> Optional[tuple]:
    """Feasibility of a certificate with bound <= rho: returns (lam, mu) or
    None.  delta keeps mu strictly below 1."""
    rows = _pair_rows(sf, dev) + [
        lp.Row({"lam": 1, "mu": rho}, lp.LE, rho, "cap"),
        lp.Row({"mu": 1, "delta": 1}, lp.LE, 1, "strict"),
        lp.Row({"t": 1}, lp.EQ, 1, "unit"),
        lp.Row({"delta": 1}, lp.LE, 1, "delta_cap"),
    ]
    program = lp.LinearProgram(
        lp.MAXIMIZE,
        ["lam", "mu", "t", "delta"],
        {"delta": 1},
        rows,
        bounds={"mu": lp.FREE},
        name="smooth_probe",
    )
    rep = lp.solve(program)
    if rep.status != lp.OPTIMAL or rep.value <= _STRICT:
        return None
    return float(rep.primal["lam"]), float(rep.primal["mu"])


def robust_poa(
    game: GeneralizedGame, spec: SocialSpec, cap: int = PROFILE_CAP
) -> RobustPoA:
    """inf lam/(1-mu) over valid certificates, as one linear program.

    Only defined for sum-bounded (game, spec) pairs — everything else is
    NOT_SMOOTHABLE with the offending profile attached.  On Fraction input
    value = lam/(1-mu) is the exact infimum, in Fractions; otherwise it
    is the optimum of one LP whose point passed lp.solve's residual check.
    Where that point has t = 0, (lam, mu) are None: the value is then
    max SF / min SF, approached by certificates only as mu -> -inf.
    """
    ok, witness = is_sum_bounded(game, spec, cap=cap)
    if not ok:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, witness, 0)
    profiles, sf, dev = _pair_tables(game, spec, cap)
    one = sf[0] / sf[0] if sf and sf[0] else 1
    if len(profiles) == 1:
        # only the pair (sigma, sigma) exists; lam=1, mu=0 is tight
        return RobustPoA(OPTIMAL, one, one, 0 * one, None, 0)
    exact = isinstance(sf[0], Fraction)
    if not exact:
        # pair rows are homogeneous in the table scale, so dividing both
        # tables by a common factor leaves the feasible set untouched while
        # keeping the LP's data near unit scale
        big = float(max(max(sf), max(abs(x) for row in dev for x in row), 1.0))
        sf = [v / big for v in sf]
        dev = [[x / big for x in row] for row in dev]
    # Charnes-Cooper: "lam" and "mu" stand for lam*t and mu*t with
    # t = 1/(1-mu), so the ratio is the objective and mu < 1 is t > 0
    program = lp.LinearProgram(
        lp.MINIMIZE,
        ["lam", "mu", "t"],
        {"lam": 1},
        _pair_rows(sf, dev) + [lp.Row({"t": 1, "mu": -1}, lp.EQ, 1, "unit")],
        bounds={"lam": lp.FREE, "mu": lp.FREE},
        name="smooth_probe_ratio",
    )
    rep = lp.solve(program, exact)
    if rep.status != lp.OPTIMAL:
        return RobustPoA(NOT_SMOOTHABLE, None, None, None, None, 1)
    x = rep.primal if exact else {v: float(c) for v, c in rep.primal.items()}
    if not x["t"]:
        return RobustPoA(OPTIMAL, x["lam"], None, None, None, 1)
    return RobustPoA(OPTIMAL, x["lam"], x["lam"] / x["t"], x["mu"] / x["t"], None, 1)


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
    the pure ratio at eps=0 and the coarse ratio must both sit below the
    robust bound.  Either failing indicates a bug, not a bad instance.
    Fraction input is compared exactly; otherwise the bound gets a relative
    FEAS_TOL of slack."""
    robust = robust_poa(game, spec, cap)
    _, opt = social_optimum(game, spec, cap)
    ppoa = exact_ppoa(game, spec, 0, cap=cap)
    exact = isinstance(opt, Fraction)
    ccpoa = worst_cce_value(game, spec, 0, cap=cap, exact=exact) / opt
    if robust.status != OPTIMAL:
        return SmoothnessValidation(
            False, robust.unbounded_witness, robust, ppoa, ccpoa, None, None, None
        )
    bound = robust.value if exact else robust.value * (1 + FEAS_TOL)
    ok_p = None if ppoa == NO_EQUILIBRIUM else bool(ppoa <= bound)
    ok_c = bool(ccpoa <= bound)
    gap = None if ppoa == NO_EQUILIBRIUM else float(robust.value - ppoa)
    return SmoothnessValidation(True, None, robust, ppoa, ccpoa, ok_p, ok_c, gap)
