"""Representative two-strategy congestion model.

For weight vector w over n players, the model carries one resource e(P, Q)
per ordered pair of player subsets, 4^n in total.  Player i's first
strategy sigma*_i collects every e(P, Q) with i in P, the second o*_i every
e(P, Q) with i in Q.  Any (profile, profile) pair of any congestion model
with the same weights maps resource-wise into this one: send e to
e(users under the first profile, users under the second); loads and user
sets are preserved, which is what makes the worst-case programs over this
single model speak for the whole class.  e(P, Q) is model.resources[P * 2^n + Q].
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .games import CongestionModel, GameError

PLAYER_CAP = 10  # 4^n resources; past this the model is no longer a desk object


def _players(mask: int) -> str:
    """Comma-separated 1-based players of a bit mask, as in resource ids."""
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class RepresentativeModel:
    model: CongestionModel
    sigma_star: tuple  # profile of first strategies
    o_star: tuple  # profile of second strategies

    @property
    def n(self) -> int:
        return self.model.n

    def resource_for(self, p_players, q_players) -> str:
        p = p_players if isinstance(p_players, int) else _mask_of(p_players)
        q = q_players if isinstance(q_players, int) else _mask_of(q_players)
        size = 1 << self.n
        if not (0 <= p < size and 0 <= q < size):
            raise GameError(f"no resource for masks P={p:b}, Q={q:b}")
        return self.model.resources[p * size + q]


def _mask_of(players) -> int:
    m = 0
    for i in players:
        m |= 1 << i
    return m


def build_representative(weights, cap: int = PLAYER_CAP) -> RepresentativeModel:
    n = len(weights)
    if n > cap:
        raise GameError(f"{n} players would need {4**n} resources (cap {cap})")
    size = 1 << n
    players = [_players(m) for m in range(size)]
    names = [f"P:{{{players[p]}}}|Q:{{{players[q]}}}" for p in range(size) for q in range(size)]
    # ids[p, q] is the id of e(P, Q)
    ids = np.array(names, dtype=object).reshape(size, size)
    masks = np.arange(size)
    strategies = []
    for i in range(n):
        has = masks >> i & 1 == 1
        sigma, omega = ids[has].ravel().tolist(), ids[:, has].ravel().tolist()
        strategies.append((frozenset(sigma), frozenset(omega)))
    model = CongestionModel(tuple(weights), tuple(names), tuple(strategies))
    return RepresentativeModel(
        model=model,
        sigma_star=tuple(0 for _ in range(n)),
        o_star=tuple(1 for _ in range(n)),
    )


def map_profile_pair(rep: RepresentativeModel, model: CongestionModel, sigma, tau) -> dict:
    """Resource-wise embedding of (sigma, tau) into the representative model.

    Returns {resource of `model` -> representative resource id}; requires
    matching weight vectors, since the embedding must preserve loads.
    """
    if tuple(model.weights) != tuple(rep.model.weights):
        raise GameError("profile mapping requires identical weight vectors")
    out = {}
    for e in model.resources:
        p = _mask_of(i for i in range(model.n) if e in model.strategies[i][sigma[i]])
        q = _mask_of(i for i in range(model.n) if e in model.strategies[i][tau[i]])
        out[e] = rep.resource_for(p, q)
    return out
