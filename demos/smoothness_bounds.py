"""Tour of the smoothness machinery on the shared-link game.

A (lam, mu) certificate bounds every equilibrium notion's inefficiency by
lam/(1-mu); the robust price of anarchy is the best such bound, the
minimum of a linear-fractional program, read off an envelope of lines
with no LP.  The framework only applies when the
social function is sum-bounded — the demo ends with a weighting matrix
that breaks that precondition and gets caught.
"""

try:
    import poacert  # noqa: F401
except ImportError:  # running from a source checkout without installing
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from poacert.games import SUM, BasisFunction, CongestionModel, GeneralizedGame, SocialSpec, identity_matrix
from poacert.smoothness import (
    SmoothnessCertificate,
    check_smooth,
    is_sum_bounded,
    robust_poa,
    validate_smoothness_claims,
)

model = CongestionModel((1.0, 1.0), ("a", "b"), ((("a",), ("b",)),) * 2)
game = GeneralizedGame(
    model,
    (BasisFunction.monomial(1),),
    {"a": (1.0,), "b": (1.0,)},
    identity_matrix(2),
)
spec = SocialSpec(SUM, identity_matrix(2))

ok, witness = check_smooth(game, spec, SmoothnessCertificate(5 / 3, 1 / 3))
print(f"(5/3, 1/3) is a valid certificate: {ok}  -> bound {2.5}")
ok, witness = check_smooth(game, spec, SmoothnessCertificate(1.0, 0.0))
print(f"(1, 0) is a valid certificate:     {ok}  (violated at pair {witness})")

r = robust_poa(game, spec)
print(
    f"\nrobust price of anarchy: {r.value:.6f} "
    f"(lam = {r.lam:.6f}, mu = {r.mu:.6f}, read off the line envelope with no LP)"
)

v = validate_smoothness_claims(game, spec)
print(f"exact pure PoA:   {v.ppoa}  <= robust bound: {v.ppoa_within_bound}")
print(f"exact coarse PoA: {v.ccpoa}  <= robust bound: {v.ccpoa_within_bound}")
print(f"tightness gap (robust - pure): {v.tightness_gap:.6f}")

triple = tuple(tuple(3.0 if i == j else 0.0 for j in range(2)) for i in range(2))
heavy = SocialSpec(SUM, triple)
ok, profile = is_sum_bounded(game, heavy)
print(f"\nweighting beta = 3I sum-bounded? {ok} (social value exceeds the")
print(f"cost sum at profile {profile}; the framework does not apply)")
rb = robust_poa(game, heavy)
print(f"robust_poa status: {rb.status}, witness profile {rb.unbounded_witness}")
