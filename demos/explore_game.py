"""Tour of the game model: two players share two links.

Builds the canonical two-player game (players of weight 1, resources a and
b, linear latency on both, singleton strategies), then walks through loads,
individual and perceived costs, deviation gaps, and the equilibrium test.
"""

try:
    import poacert  # noqa: F401
except ImportError:  # running from a source checkout without installing
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fractions import Fraction as F

from poacert.games import (
    EQ1,
    SUM,
    BasisFunction,
    CongestionModel,
    GeneralizedGame,
    SocialSpec,
    congestion,
    deviation_gap,
    identity_matrix,
    individual_costs,
    is_eps_pne,
    social_value,
)

one = F(1)
model = CongestionModel((one, one), ("a", "b"), ((("a",), ("b",)),) * 2)
game = GeneralizedGame(
    model,
    (BasisFunction.monomial(1),),
    {"a": (one,), "b": (one,)},
    identity_matrix(2, exact=True),
)
spec = SocialSpec(SUM, identity_matrix(2, exact=True))

print("profile notation: (0, 1) means player 0 plays {a}, player 1 plays {b}\n")

for profile in model.profiles():
    loads = congestion(model, profile)
    costs = individual_costs(game, profile)
    # player i perceives its alpha row times everyone's individual cost
    hats = [sum(a * c for a, c in zip(row, costs)) for row in game.alpha]
    sv = social_value(spec, game, profile)
    print(
        f"profile {profile}: loads {loads}, individual costs {costs}, "
        f"perceived {hats}, social value {sv}"
    )

print("\ndeviation gaps at the split profile (0, 1) — negative means content:")
for i in range(2):
    for s in range(2):
        gap = deviation_gap(game, (0, 1), i, s, 0)
        print(f"  player {i} -> strategy {s}: gap {gap}")

for profile in [(0, 1), (0, 0)]:
    verdict = is_eps_pne(game, profile, 0, EQ1)
    print(f"\nis {profile} a pure equilibrium? {verdict}")
