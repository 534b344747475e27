"""Float results do not depend on the string hash seed.

Resource ids are strings, and a frozenset of them iterates in an order
that follows PYTHONHASHSEED.  individual_cost, individual_costs and the
grouped deviation gaps add latencies in the model's resource order
instead, so one oracle pass and one witness pass print the same bytes in
processes with different hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# float games of 2 and 3 players over six string resources (non-dyadic
# data, so a reordered sum rounds differently), then the witnesses of two
# float classes: costs, eq1 and verbatim gaps at every profile, the
# oracle and smoothness answers, and each witness's file form, whose
# strategies emit_game sorts
PASS = """
import json
import random
from poacert import formulations, smoothness
from poacert.gamefile import emit_game
from poacert.games import (EQ1, MAX, SUM, VERBATIM, BasisFunction, CongestionModel,
                           GeneralizedGame, SocialSpec, deviation_gaps, individual_costs)
from poacert.oracle import exact_ppoa, worst_cce

basis = (BasisFunction.monomial(1), BasisFunction.monomial(2), BasisFunction.indicator())
rng = random.Random(7)
for k in range(6):
    n = 2 + k % 2
    resources = tuple(f"r{j}" for j in range(6))
    strategies = [tuple(frozenset(rng.sample(resources, rng.randint(2, 5))) for _ in range(3))
                  for _ in range(n)]
    model = CongestionModel(tuple(rng.uniform(0.5, 2) for _ in range(n)), resources, strategies)
    coefficients = {e: tuple(rng.uniform(0, 1) for _ in basis) for e in resources}
    alpha = [[1.0 if i == j else rng.uniform(-0.5, 0.5) for j in range(n)] for i in range(n)]
    game = GeneralizedGame(model, basis, coefficients, alpha)
    spec = SocialSpec(SUM, [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])
    for prof in model.profiles():
        print(individual_costs(game, prof), list(deviation_gaps(game, prof, 0.5, EQ1)),
              list(deviation_gaps(game, prof, 0.5, VERBATIM)))
    print(smoothness.robust_poa(game, spec), exact_ppoa(game, spec, 0.5))
    print(worst_cce(game, spec, 0.5), worst_cce(game, SocialSpec(MAX, spec.beta), 0.5))
for n in (3, 4):
    cfg = formulations.WorstCaseConfig(
        [rng.uniform(0.5, 2) for _ in range(n)],
        [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)],
        SocialSpec(SUM, [[rng.uniform(0, 1) for _ in range(n)] for _ in range(n)]), 0.5, basis)
    res = formulations.solve_worst_case(cfg)
    game = formulations.extract_worst_game(cfg, res.rep, res.primal_solution, res.designated)
    for prof in game.model.profiles():
        print(individual_costs(game, prof), list(deviation_gaps(game, prof, cfg.epsilon, EQ1)))
    print(json.dumps(emit_game(game)))
"""


def _output(hash_seed: int) -> bytes:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", PASS], env=env, capture_output=True,
                          check=True, timeout=120).stdout


def test_float_results_do_not_depend_on_the_hash_seed():
    first = _output(1)
    assert first.count(b"\n") > 100
    assert _output(2) == first
