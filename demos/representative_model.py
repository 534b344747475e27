"""Tour of the representative congestion model.

For n players the model owns one resource per ordered pair (P, Q) of
player subsets — the players using it at the reference profile and at the
comparison profile — and two strategies per player.  Any profile pair of
any congestion model with the same weights maps onto it load-for-load,
which is why one finite LP can speak for the whole game class.
"""

try:
    import poacert  # noqa: F401
except ImportError:  # running from a source checkout without installing
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from poacert.games import CongestionModel
from poacert.representative import build_representative

for n in (2, 3):
    rep = build_representative((1.0,) * n)
    print(
        f"n = {n}: {len(rep.model.resources)} resources "
        f"(= 4^{n}), {rep.model.profile_count()} profiles"
    )

rep = build_representative((1.0, 1.0))
print("\nresource ids for n = 2 (P = users at sigma*, Q = users at o):")
print(" ", ", ".join(rep.model.resources))

# map a concrete profile pair of a 3-resource model onto the representative
model = CongestionModel(
    (1.0, 1.0),
    ("top", "mid", "bot"),
    ((("top", "mid"), ("bot",)), (("mid",), ("bot",))),
)
sigma = (0, 1)  # player 0 uses {top, mid}, player 1 uses {bot}
tau = (1, 0)  # the comparison profile reverses both choices


def users(profile, e):
    """The bit mask of the players on resource e under profile."""
    return sum(1 << i for i, per in enumerate(model.strategies) if e in per[profile[i]])


# e goes to e(P, Q): P its users under sigma, Q its users under tau
print(f"\nmapping the pair sigma={sigma}, tau={tau} of a 3-resource model:")
for resource in sorted(model.resources):
    image = rep.resource_for(users(sigma, resource), users(tau, resource))
    print(f"  {resource:>4} -> {image}")
