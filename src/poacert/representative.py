"""Representative two-strategy congestion model.

For weight vector w over n players, the model carries one resource e(P, Q)
per ordered pair of player subsets, 4^n in total.  Player i's first
strategy sigma*_i collects every e(P, Q) with i in P, the second o*_i every
e(P, Q) with i in Q.  Any (profile, profile) pair of any congestion model
with the same weights maps resource-wise into this one: send e to
e(users under the first profile, users under the second); loads and user
sets are preserved, which is what makes the worst-case programs over this
single model speak for the whole class (formulations._coarse_parts).

A RepresentativeModel's fields are the weights and the two profiles: the
worst-case programs read a resource as its (P, Q) bit masks, and
resource_for formats its id from two int masks alone, for a witness's
resources and a name asked for; no id is read back.
The CongestionModel, with its 4^n ids and frozenset strategies, is built
when rep.model is first read; e(P, Q) is model.resources[P * 2^n + Q].
Outside its fields, as it keeps model, a rep also keeps the read-only
closed-form factors of the last WorstCaseConfig object it was priced for,
which formulations._factors fills on a solve or a build and reads on the
extraction that follows; ==, hash and repr read the fields alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import CongestionModel, GameError, check_weights

PLAYER_CAP = 10  # 4^n resources; past this the model is no longer a desk object


def _players(mask: int) -> str:
    """Comma-separated 1-based players of a bit mask, as in resource ids."""
    return ",".join([str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1])


def _head(p: int) -> str:
    """The part of every id e(P, .) that P fixes; e(P, Q) is _head(P) + _tail(Q)."""
    return f"P:{{{_players(p)}}}|Q:{{"


def _tail(q: int) -> str:
    return f"{_players(q)}}}"


@dataclass(frozen=True)
class RepresentativeModel:
    weights: tuple
    sigma_star: tuple  # profile of first strategies
    o_star: tuple  # profile of second strategies

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def model(self) -> CongestionModel:
        size = 1 << self.n
        heads, tails = [_head(m) for m in range(size)], [_tail(m) for m in range(size)]
        names = [h + t for h in heads for t in tails]
        # ids[p, q] is the id of e(P, Q)
        ids = np.array(names, dtype=object).reshape(size, size)
        masks = np.arange(size)
        strategies = []
        for i in range(self.n):
            has = masks >> i & 1 == 1
            sigma, omega = ids[has].ravel().tolist(), ids[:, has].ravel().tolist()
            strategies.append((frozenset(sigma), frozenset(omega)))
        return CongestionModel(self.weights, tuple(names), tuple(strategies))

    def resource_for(self, p: int, q: int) -> str:
        """The id of e(P, Q), from the int bit masks of P and Q."""
        size = 1 << self.n
        if not all(type(m) is int and 0 <= m < size for m in (p, q)):  # a bool is no mask
            raise GameError(f"no resource for masks P={p!r}, Q={q!r}")
        return _head(p) + _tail(q)


def build_representative(weights) -> RepresentativeModel:
    n = len(weights)
    if n > PLAYER_CAP:
        raise GameError(f"{n} players would need {4**n} resources (cap {PLAYER_CAP})")
    check_weights(weights)
    return RepresentativeModel(
        weights=tuple(weights),
        sigma_star=tuple(0 for _ in range(n)),
        o_star=tuple(1 for _ in range(n)),
    )

