"""Tour of the certification pipeline, end to end.

1. solve the worst-case program for a configuration (two unit-weight
   players, linear latencies, sum objective) — the optimum gamma* is the
   exact worst-case price of anarchy of the whole game class;
2. extract a concrete worst-case game attaining gamma* and check it with
   the brute-force oracles;
3. spot-check the dual certificate on random models and distributions.
"""

try:
    import poacert  # noqa: F401
except ImportError:  # running from a source checkout without installing
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import random
from fractions import Fraction as F

from poacert.formulations import (
    WorstCaseConfig,
    extract_worst_game,
    solve_worst_case,
    verify_extension,
)
from poacert.games import (
    EQ1,
    SUM,
    BasisFunction,
    CongestionModel,
    ProfileDistribution,
    SocialSpec,
    identity_matrix,
    is_eps_pne,
    social_value,
)
from poacert.oracle import exact_ppoa, social_optimum, worst_cce

for n in (2, 3):
    cfg = WorstCaseConfig(
        (F(1),) * n,
        identity_matrix(n, exact=True),
        SocialSpec(SUM, identity_matrix(n, exact=True)),
        F(0),
        (BasisFunction.monomial(1),),
    )
    result = solve_worst_case(cfg, exact=True)
    print(f"n = {n}: worst-case price of anarchy gamma* = {result.gamma_star}")

cfg = WorstCaseConfig(
    (F(1), F(1)),
    identity_matrix(2, exact=True),
    SocialSpec(SUM, identity_matrix(2, exact=True)),
    F(0),
    (BasisFunction.monomial(1),),
)
result = solve_worst_case(cfg, exact=True)
game = extract_worst_game(cfg, result.rep, result.primal_solution, result.designated)

sigma, o = result.rep.sigma_star, result.rep.o_star
print("\nextracted worst-case game, restricted to its latency-carrying resources:")
active = {e: c for e, c in game.coefficients.items() if any(x != 0 for x in c)}
for e, coeffs in sorted(active.items()):
    print(f"  latency on {e}: {coeffs[0]} * x")
print(f"  sigma* is an equilibrium: {is_eps_pne(game, sigma, 0, EQ1)}")
print(f"  social value at sigma*:   {social_value(cfg.spec, game, sigma)}  (= gamma*)")
print(f"  social value at o:        {social_value(cfg.spec, game, o)}  (<= 1)")

_, opt = social_optimum(game, cfg.spec)
print(f"  oracle pure PoA:          {exact_ppoa(game, cfg.spec, 0)}")
print(f"  oracle coarse PoA:        {worst_cce(game, cfg.spec, 0, predicate=EQ1).value / opt}")

rng = random.Random(7)
rejected = 0
for _ in range(200):
    resources = ("r0", "r1", "r2")
    strategies = tuple(
        tuple(
            frozenset(e for e in resources if rng.random() < 0.5) or frozenset(["r0"])
            for _ in range(2)
        )
        for _ in cfg.weights
    )
    model = CongestionModel(cfg.weights, resources, strategies)
    profiles = list(model.profiles())
    raw = [rng.random() for _ in profiles]
    dist = ProfileDistribution({p: m / sum(raw) for p, m in zip(profiles, raw)})
    o_prof = tuple(rng.randrange(len(per)) for per in model.strategies)
    report = verify_extension(cfg, result.dual_solution, model, dist, o_prof)
    if not report.ok:
        rejected += 1
print(f"\ncertificate re-checked on 200 random (model, distribution, profile)")
print(f"triples: {200 - rejected} hold, {rejected} violated")
