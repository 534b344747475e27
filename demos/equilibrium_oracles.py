"""Tour of the brute-force oracles on the shared-link game.

Enumerates approximate pure equilibria as the tolerance grows, computes the
exact pure price of anarchy, and solves the small LP behind the worst
coarse-correlated equilibrium — whose optimal distribution is printed.
"""

try:
    import poacert  # noqa: F401
except ImportError:  # running from a source checkout without installing
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fractions import Fraction as F

from poacert.games import SUM, BasisFunction, CongestionModel, GeneralizedGame, SocialSpec, identity_matrix
from poacert.oracle import (
    enumerate_eps_pne,
    exact_ppoa,
    social_optimum,
    worst_cce,
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

opt_profile, opt = social_optimum(game, spec)
print(f"social optimum: profile {opt_profile} with value {opt}\n")

for eps in (F(0), F(1, 2), F(1)):
    pne = sorted(enumerate_eps_pne(game, eps))
    ratio = exact_ppoa(game, spec, eps)
    print(f"eps = {eps}: equilibria {pne}, pure price of anarchy {ratio}")

print()
for eps in (F(0), F(1)):
    res = worst_cce(game, spec, eps)
    print(f"worst coarse-correlated value at eps = {eps}: {res.value}")
    for profile, mass in sorted(res.distribution.masses.items()):
        print(f"    profile {profile}: mass {mass}")
