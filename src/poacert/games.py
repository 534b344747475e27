"""Generalized weighted congestion games.

A congestion model fixes players, positive weights, resources and strategy
sets.  A game adds per-resource latency coefficients over a basis of
non-negative functions (f(0) = 0) and a real perception matrix alpha, where
player i experiences sum_j alpha_ij * (individual cost of j).  Social
objectives are beta-weighted sums or maxima of individual costs.

All arithmetic is generic: feed Fractions everywhere for exact results,
floats for speed.  Nothing in this module rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

MONOMIAL = "monomial"
INDICATOR = "indicator"
TABLE = "table"

SUM = "sum"
MAX = "max"

EQ1 = "eq1"  # grouped deviation form used by the LP machinery
VERBATIM = "verbatim"  # literal perceived-cost comparison

FEAS_TOL = 1e-9
MASS_TOL = 1e-12

# reachable_congestions enumerates weight subset sums and raises GameError
# beyond this many players
_EAGER_LIMIT = 16


class GameError(ValueError):
    pass


# ============================================================
# basis functions
# ============================================================


@dataclass(frozen=True)
class BasisFunction:
    """One generator of the latency span: x^d, a positive indicator, or a
    finite lookup table.  Always 0 at 0; never interpolates."""

    kind: str
    degree: int = 1
    table: tuple = ()

    @staticmethod
    def monomial(degree: int) -> "BasisFunction":
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
            raise GameError(f"monomial degree must be an integer >= 1, got {degree!r}")
        return BasisFunction(MONOMIAL, degree=degree)

    @staticmethod
    def indicator() -> "BasisFunction":
        return BasisFunction(INDICATOR)

    @staticmethod
    def lookup(table: Mapping) -> "BasisFunction":
        items = []
        for x, v in table.items():
            if x <= 0:
                raise GameError(f"lookup key {x} must be positive (f(0)=0 is implied)")
            if v < 0:
                raise GameError(f"lookup value f({x})={v} must be non-negative")
            items.append((x, v))
        if not items:
            raise GameError("empty lookup table")
        items.sort(key=lambda kv: kv[0])
        return BasisFunction(TABLE, table=tuple(items))

    def __post_init__(self):
        if self.kind not in (MONOMIAL, INDICATOR, TABLE):
            raise GameError(f"unknown basis kind {self.kind!r}")

    def value(self, x):
        if x == 0:
            return 0
        if x < 0:
            raise GameError(f"congestion {x} is negative")
        if self.kind == MONOMIAL:
            return x**self.degree
        if self.kind == INDICATOR:
            return 1
        for key, v in self.table:
            if key == x:
                return v
        if isinstance(x, float):
            for key, v in self.table:
                if abs(float(key) - x) <= FEAS_TOL:
                    return v
        raise GameError(f"lookup table does not cover congestion value {x}")

    def covers(self, x) -> bool:
        if self.kind != TABLE or x == 0:
            return True
        try:
            self.value(x)
            return True
        except GameError:
            return False

    def describe(self) -> str:
        if self.kind == MONOMIAL:
            return f"x^{self.degree}"
        if self.kind == INDICATOR:
            return "1[x>0]"
        return f"table({len(self.table)})"


# ============================================================
# models and games
# ============================================================


@dataclass(frozen=True)
class CongestionModel:
    weights: tuple
    resources: tuple
    strategies: tuple  # per player: tuple of frozensets of resource ids

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(
            self,
            "strategies",
            tuple(tuple(frozenset(s) for s in per) for per in self.strategies),
        )
        n = len(self.weights)
        if n < 2:
            raise GameError(f"need at least 2 players, got {n}")
        for i, w in enumerate(self.weights):
            if w <= 0:
                raise GameError(f"weight of player {i} must be positive, got {w}")
        if len(set(self.resources)) != len(self.resources):
            raise GameError("duplicate resource ids")
        known = set(self.resources)
        if len(self.strategies) != n:
            raise GameError("one strategy set per player required")
        for i, per in enumerate(self.strategies):
            if not per:
                raise GameError(f"player {i} has an empty strategy set")
            for s in per:
                if not s:
                    raise GameError(f"player {i} has an empty strategy")
                bad = s - known
                if bad:
                    raise GameError(f"player {i} uses unknown resources {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def profile_strategies(self, profile) -> list:
        return [self.strategies[i][profile[i]] for i in range(self.n)]

    def profile_count(self) -> int:
        c = 1
        for per in self.strategies:
            c *= len(per)
        return c

    def profiles(self) -> Iterable[tuple]:
        return itertools.product(*(range(len(per)) for per in self.strategies))

    def reachable_congestions(self) -> set:
        """Distinct subset sums of the weights.  These cover post-deviation
        loads too: a player joins only resources it is not already on."""
        if self.n > _EAGER_LIMIT:
            raise GameError(f"reachability enumeration capped at {_EAGER_LIMIT} players")
        sums = {0}
        for w in self.weights:
            sums |= {s + w for s in sums}
        return sums


@dataclass(frozen=True)
class GeneralizedGame:
    model: CongestionModel
    basis: tuple  # of BasisFunction
    coefficients: Mapping  # resource id -> length-r vector
    alpha: tuple  # n x n, row i = how player i weighs everyone's cost

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(
            self, "coefficients", {e: tuple(v) for e, v in dict(self.coefficients).items()}
        )
        object.__setattr__(self, "alpha", tuple(tuple(row) for row in self.alpha))
        if not self.basis:
            raise GameError("empty basis")
        r = len(self.basis)
        n = self.model.n
        if len(self.alpha) != n or any(len(row) != n for row in self.alpha):
            raise GameError(f"alpha must be {n}x{n}")
        for e in self.model.resources:
            if e not in self.coefficients:
                raise GameError(f"no coefficients for resource {e!r}")
            if len(self.coefficients[e]) != r:
                raise GameError(f"resource {e!r} needs {r} coefficients")
        self._check_latencies()

    def _check_latencies(self):
        """Induced latencies must be non-negative at every reachable load.
        With non-negative coefficients this holds for free; negatives force
        an explicit sweep (and require table coverage along the way)."""
        needs_sweep = any(
            any(c < 0 for c in vec) for vec in self.coefficients.values()
        ) or any(f.kind == TABLE for f in self.basis)
        if not needs_sweep:
            return
        loads = sorted(self.model.reachable_congestions())
        for e, vec in self.coefficients.items():
            for x in loads:
                # the value() calls double as the table coverage check
                val = sum(c * f.value(x) for c, f in zip(vec, self.basis) if c != 0)
                if val < 0:
                    raise GameError(f"latency of {e!r} is {val} < 0 at load {x}")

    @property
    def n(self) -> int:
        return self.model.n

    def latency(self, e, load):
        if load == 0:
            return 0
        return sum(c * f.value(load) for c, f in zip(self.coefficients[e], self.basis) if c != 0)

    def scaled(self, factor) -> "GeneralizedGame":
        return GeneralizedGame(
            self.model,
            self.basis,
            {e: tuple(c * factor for c in vec) for e, vec in self.coefficients.items()},
            self.alpha,
        )


@dataclass(frozen=True)
class SocialSpec:
    kind: str
    beta: tuple  # n x n, >= 0, not all zero

    def __post_init__(self):
        if self.kind not in (SUM, MAX):
            raise GameError(f"social function (sf) must be {SUM!r} or {MAX!r}, got {self.kind!r}")
        object.__setattr__(self, "beta", tuple(tuple(row) for row in self.beta))
        if any(b < 0 for row in self.beta for b in row):
            raise GameError("beta must be entrywise non-negative")
        if all(b == 0 for row in self.beta for b in row):
            raise GameError("beta must have a positive entry")

    @property
    def n(self) -> int:
        return len(self.beta)


def identity_matrix(n: int, exact: bool = False) -> tuple:
    one = Fraction(1) if exact else 1
    zero = Fraction(0) if exact else 0
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class ProfileDistribution:
    masses: Mapping  # profile tuple -> probability

    def __post_init__(self):
        cleaned = {}
        for prof, p in dict(self.masses).items():
            if p < 0:
                if isinstance(p, float) and p >= -MASS_TOL:
                    continue  # solver noise
                raise GameError(f"negative mass {p} on {prof}")
            if p == 0:
                continue
            cleaned[tuple(prof)] = p
        object.__setattr__(self, "masses", cleaned)
        total = sum(cleaned.values())
        if isinstance(total, float):
            if abs(total - 1.0) > MASS_TOL:
                raise GameError(f"masses sum to {total!r}, not 1")
        elif total != 1:
            raise GameError(f"masses sum to {total}, not 1")

    @staticmethod
    def point(profile) -> "ProfileDistribution":
        return ProfileDistribution({tuple(profile): 1})

    @staticmethod
    def uniform(profiles) -> "ProfileDistribution":
        profs = [tuple(p) for p in profiles]
        share = Fraction(1, len(profs))
        out: dict = {}
        for p in profs:
            out[p] = out.get(p, 0) + share
        return ProfileDistribution(out)

    def support(self):
        return sorted(self.masses)

    def expect(self, fn):
        return sum(p * fn(prof) for prof, p in self.masses.items())


# ============================================================
# cost operations
# ============================================================


def congestion(model: CongestionModel, profile) -> dict:
    """Total weight on each resource under the pure profile."""
    loads = {e: 0 for e in model.resources}
    for i, sidx in enumerate(profile):
        w = model.weights[i]
        for e in model.strategies[i][sidx]:
            loads[e] += w
    return loads


def resource_users(model: CongestionModel, profile) -> dict:
    used: dict = {e: [] for e in model.resources}
    for i, sidx in enumerate(profile):
        for e in model.strategies[i][sidx]:
            used[e].append(i)
    return used


def individual_cost(game: GeneralizedGame, profile, i: int):
    model = game.model
    loads = congestion(model, profile)
    return model.weights[i] * sum(
        game.latency(e, loads[e]) for e in model.strategies[i][profile[i]]
    )


def _used_latencies(game: GeneralizedGame, loads, idle=()) -> dict:
    """Latency of each used resource at its load, evaluated once; an idle
    resource's is 0 without evaluation."""
    return {e: 0 if e in idle else game.latency(e, x) for e, x in loads.items() if x != 0}


def individual_costs(game: GeneralizedGame, profile) -> list:
    """individual_cost of every player, from one load pass over the
    profile: each used resource's latency is evaluated once."""
    model = game.model
    loads = congestion(model, profile)
    lat = _used_latencies(game, loads)
    return [
        model.weights[i] * sum(lat[e] for e in model.strategies[i][s])
        for i, s in enumerate(profile)
    ]


def _weighted(row, costs):
    return sum(row[j] * costs[j] for j in range(len(costs)) if row[j] != 0)


def perceived_cost(game: GeneralizedGame, profile, i: int):
    """alpha-weighted sum of everyone's individual cost (player-grouped)."""
    return _weighted(game.alpha[i], individual_costs(game, profile))


def beta_cost(spec: SocialSpec, game: GeneralizedGame, profile, i: int):
    return _weighted(spec.beta[i], individual_costs(game, profile))


def social_of_costs(spec: SocialSpec, costs):
    """Social value of a pure profile from its individual_costs."""
    per_player = [_weighted(row, costs) for row in spec.beta]
    return sum(per_player) if spec.kind == SUM else max(per_player)


def social_value(spec: SocialSpec, game: GeneralizedGame, outcome):
    """Social value of a pure profile or a ProfileDistribution.

    SUM: sum_i E[beta-cost_i]; MAX: max_i E[beta-cost_i] (expectation
    inside the max, per coarse correlated semantics).
    """
    if not isinstance(outcome, ProfileDistribution):
        return social_of_costs(spec, individual_costs(game, outcome))
    costs = {prof: individual_costs(game, prof) for prof in outcome.masses}
    per_player = [
        outcome.expect(lambda prof, row=row: _weighted(row, costs[prof]))
        for row in spec.beta
    ]
    return sum(per_player) if spec.kind == SUM else max(per_player)


def _gap_inputs(game: GeneralizedGame, profile) -> tuple:
    """What every grouped gap of a profile reads: its loads, resource users
    and _used_latencies, and the idle resources (all coefficients 0)."""
    model = game.model
    loads = congestion(model, profile)
    idle = {e for e, vec in game.coefficients.items() if not any(vec)}
    return loads, resource_users(model, profile), _used_latencies(game, loads, idle), idle


def _grouped_gap(game: GeneralizedGame, profile, i: int, target, eps, inputs):
    """deviation_gap towards the resource set target, given _gap_inputs.  A
    resource of latency 0 adds 0, so its alpha-weighted users are not summed."""
    loads, users, lat, idle = inputs
    model = game.model
    current = model.strategies[i][profile[i]]
    w = model.weights
    gain = 0
    for e in current - target:
        if lat[e] == 0:
            continue
        aw = sum(game.alpha[i][j] * w[j] for j in users[e])
        if aw != 0:
            gain += lat[e] * aw
    pay = 0
    for e in target - current:
        if e in idle:
            continue
        aw = game.alpha[i][i] * w[i] + sum(game.alpha[i][j] * w[j] for j in users[e])
        if aw != 0:
            pay += game.latency(e, loads[e] + w[i]) * aw
    return gain - (1 + eps) * pay


def deviation_gap(game: GeneralizedGame, profile, i: int, x, eps=0):
    """Grouped deviation expression for player i moving to strategy x.

    Resources i abandons contribute their current latency times the
    alpha-weighted load of their current users; resources i would join
    contribute latency at the increased load times (alpha_ii w_i + the
    alpha-weighted current load), scaled by (1+eps).  Non-positive for all
    (i, x) is the equilibrium condition the certification programs encode.
    For off-diagonal alpha this is a genuinely different quantity from the
    literal perceived-cost difference, even at eps = 0.
    """
    model = game.model
    target = model.strategies[i][x] if isinstance(x, int) else frozenset(x)
    return _grouped_gap(game, profile, i, target, eps, _gap_inputs(game, profile))


def _deviate(profile, i: int, x) -> tuple:
    """The unilateral deviation (sigma_{-i}, x) of a profile."""
    return tuple(x if j == i else s for j, s in enumerate(profile))


def deviation_gap_verbatim(game: GeneralizedGame, profile, i: int, x, eps=0):
    """Literal Definition-style difference c-hat_i(sigma) - (1+eps) *
    c-hat_i(sigma_{-i}, x); x is a strategy index or a resource set."""
    if not isinstance(x, int):
        target = frozenset(x)
        x = next((k for k, s in enumerate(game.model.strategies[i]) if s == target), None)
        if x is None:
            raise GameError(f"strategy {sorted(target)} is not in player {i}'s set")
    return perceived_cost(game, profile, i) - (1 + eps) * perceived_cost(
        game, _deviate(profile, i, x), i)


def deviation_gaps(game: GeneralizedGame, profile, eps=0, predicate: str = EQ1):
    """(i, x, gap) for every player i and strategy index x, in that order,
    equal to deviation_gap or deviation_gap_verbatim but from one load pass
    over the profile.  Lazy, so a caller may stop at the first bad gap."""
    if predicate not in (EQ1, VERBATIM):
        raise GameError(f"unknown predicate {predicate!r}")
    model = game.model
    if predicate == EQ1:
        inputs = _gap_inputs(game, profile)
        for i in range(game.n):
            for x, target in enumerate(model.strategies[i]):
                yield i, x, _grouped_gap(game, profile, i, target, eps, inputs)
        return
    costs = individual_costs(game, profile)
    for i in range(game.n):
        here = _weighted(game.alpha[i], costs)
        for x in range(len(model.strategies[i])):
            yield i, x, here - (1 + eps) * perceived_cost(game, _deviate(profile, i, x), i)


def is_eps_pne(
    game: GeneralizedGame,
    profile,
    eps=0,
    predicate: str = EQ1,
) -> bool:
    """eps-approximate pure Nash test under either deviation predicate.

    The two predicates coincide at eps = 0 whenever alpha is diagonal; they
    may part ways otherwise (see deviation_gap).
    """
    return all(gap <= FEAS_TOL for _, _, gap in deviation_gaps(game, profile, eps, predicate))


def is_eps_cce(
    game: GeneralizedGame,
    dist: ProfileDistribution,
    eps=0,
    predicate: str = VERBATIM,
) -> bool:
    """Coarse correlated test: no player gains (1+eps)-factor in
    expectation by a constant pure deviation."""
    gaps = {
        prof: [gap for _, _, gap in deviation_gaps(game, prof, eps, predicate)]
        for prof in dist.masses
    }
    k = 0
    for i in range(game.n):
        for _ in game.model.strategies[i]:
            if dist.expect(lambda prof: gaps[prof][k]) > FEAS_TOL:
                return False
            k += 1
    return True
