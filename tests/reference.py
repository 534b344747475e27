"""Reference readers the tests compare the package against.

Each one restates a quantity from its definition, one player or one
resource at a time, over the package's public per-profile readers.  None
checks its indices beyond what those readers check: they are references
for values, not API.
"""

from poacert.games import _deviate, _weighted, individual_costs


def perceived_cost(game, profile, i: int):
    """alpha-weighted sum of everyone's individual cost (player-grouped)."""
    return _weighted(game.alpha[i], individual_costs(game, profile))


def beta_cost(spec, game, profile, i: int):
    """beta-weighted sum of everyone's individual cost, row i of spec."""
    return _weighted(spec.beta[i], individual_costs(game, profile))


def deviation_gap_verbatim(game, profile, i: int, x, eps=0):
    """Literal Definition-style difference c-hat_i(sigma) - (1+eps) *
    c-hat_i(sigma_{-i}, x); x is a strategy index or one of player i's
    strategies as a resource set."""
    if not isinstance(x, int):
        x = game.model.strategies[i].index(frozenset(x))
    return perceived_cost(game, profile, i) - (1 + eps) * perceived_cost(
        game, _deviate(profile, i, x), i)


def map_profile_pair(rep, model, sigma, tau) -> dict:
    """Resource-wise embedding of (sigma, tau) into the representative
    model: {resource of model -> id of e(P, Q)}, P the players on it under
    sigma and Q those under tau.  The weight vectors must match for the
    embedding to preserve loads."""
    def users(profile, e):
        mask = 0
        for i, per in enumerate(model.strategies):
            if e in per[profile[i]]:
                mask |= 1 << i
        return mask

    return {e: rep.resource_for(users(sigma, e), users(tau, e)) for e in model.resources}
