"""The coarse programs gathered from the representative program's columns.

build_pp_cce writes no coefficient of its own: under a profile sigma,
resource e of an arbitrary model is the representative column (P, Q, k)
of its players under sigma and under o, and the coarse column of e is
those columns weighted by the distribution's masses.  That is the
paper's extension argument.  The reference below is the writer that
build_pp_cce used before: it enumerates the distribution's profiles and
adds each latency term, resource by resource, as the model's strategies
give it.  The gather must equal it entry for entry in exact arithmetic,
and to the last bits in float, where only the order of the products
moves (mass * (c * f * aw) for ((c * mass) * f) * aw).
"""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import ordered_sum, random_model, same_program, seeded
from poacert.formulations import (
    WorstCaseConfig,
    _dual_report,
    _primal,
    build_pp_cce,
    solve_worst_case,
    verify_extension,
    vname,
)
from poacert.games import (
    MAX,
    SUM,
    BasisFunction,
    CongestionModel,
    GameError,
    ProfileDistribution,
    SocialSpec,
    congestion,
    identity_matrix,
    resource_users,
)
from test_array_programs import designees

# ============================================================
# the reference: the coarse coefficients by profile enumeration
# ============================================================


def _reference_coefficient_parts(cfg, model, dist, o_profile):
    """(eq, val, nrm) of the coarse programs over an arbitrary model, as
    object arrays over (resource, k), by enumerating the distribution's
    profiles; each nonzero term is added to its entry as it is found.

    eq[i]: expected grouped-deviation expression of player i against o_i,
    val[i]: expected beta-cost of player i, nrm[i]: beta-cost of i at the
    comparison profile; under a sum objective, val and nrm are summed once.
    """
    n = cfg.n
    w, alpha, beta, eps, basis = cfg.weights, cfg.alpha, cfg.spec.beta, cfg.epsilon, cfg.basis
    if tuple(model.weights) != tuple(w):
        raise GameError("model weights differ from configuration weights")
    col = {e: j for j, e in enumerate(model.resources)}
    shape = (len(model.resources), len(basis))
    eq, val, nrm = ([np.zeros(shape, dtype=object) for _ in range(n)] for _ in range(3))

    def add(a, key, x):
        if x != 0:
            a[key] += x

    def add_beta_costs(out, profile, mass):
        loads, users = congestion(model, profile), resource_users(model, profile)
        for e in model.resources:
            if loads[e] == 0:
                continue
            fvals = [f.value(loads[e]) for f in basis]
            for i in range(n):
                b = ordered_sum(beta[i][j] * w[j] for j in users[e] if beta[i][j] != 0)
                if b != 0:
                    for k, fv in enumerate(fvals):
                        add(out[i], (col[e], k), mass * fv * b)

    o_sets = model.profile_strategies(o_profile)
    for prof, mass in dist.masses.items():
        loads, users = congestion(model, prof), resource_users(model, prof)
        s_sets = model.profile_strategies(prof)
        add_beta_costs(val, prof, mass)
        for i in range(n):
            si, oi = s_sets[i], o_sets[i]
            for e in si - oi:
                aw = ordered_sum(alpha[i][j] * w[j] for j in users[e] if alpha[i][j] != 0)
                if aw != 0:
                    for k, f in enumerate(basis):
                        fv = f.value(loads[e])
                        if fv != 0:
                            add(eq[i], (col[e], k), mass * fv * aw)
            for e in oi - si:
                aw = alpha[i][i] * w[i] + ordered_sum(
                    alpha[i][j] * w[j] for j in users[e] if alpha[i][j] != 0)
                if aw != 0:
                    for k, f in enumerate(basis):
                        fv = f.value(loads[e] + w[i])
                        if fv != 0:
                            add(eq[i], (col[e], k), -(1 + eps) * mass * fv * aw)
    add_beta_costs(nrm, o_profile, 1)
    if cfg.spec.kind == SUM:
        val, nrm = ([ordered_sum(a[key] for a in parts if a[key] != 0)
                     for key in np.ndindex(shape)] for parts in (val, nrm))
        val, nrm = (np.array(a, dtype=object).reshape(shape) for a in (val, nrm))
    return eq, val, nrm


def reference_pp_cce(cfg, model, dist, o_profile, designated=None):
    """build_pp_cce with the enumerated coefficients, laid out as the
    production program is, its columns listed by name: v[e][k] resource
    major, then t under max."""
    eq, val, nrm = _reference_coefficient_parts(cfg, model, dist, o_profile)
    names = [vname(e, k) for e in model.resources for k in range(len(cfg.basis))]
    return _primal(cfg, names + ([] if cfg.spec.kind == SUM else ["t"]), (eq, None, None), val,
                   nrm, designated)


# ============================================================
# the seeded corpus
# ============================================================


def covering_table(weights, rng, num):
    """A lookup basis defined at exactly the positive subset sums of the
    weights, every load a deviation in the class can produce, with values
    in sevenths."""
    loads = {ordered_sum(c) for m in range(1, len(weights) + 1)
             for c in itertools.combinations(weights, m)}
    return BasisFunction.lookup({x: num(F(rng.randrange(1, 15), 7)) for x in sorted(loads)})


def coarse_cases():
    """n = 2..5, exact and float, bases {x, x^2, 1[x>0]} and a covering
    table; inside each case sum and max, eps in {0, 1/2}, alpha with
    signed off-diagonal entries and beta with zeros.  Entries are
    sevenths, so float products and sums round."""
    for n in (2, 3, 4, 5):
        for exact in (True, False):
            for basis in ("poly", "table"):
                arithmetic = "exact" if exact else "float"
                yield pytest.param(n, exact, basis, id=f"n{n}-{arithmetic}-{basis}")


def coarse_triples(n, exact, basis, seed):
    """(cfg, model, dist, o_profile) of one corpus case: for each kind and
    eps, three random models with 2 or 3 strategies per player and a
    distribution of 1 to 4 profiles with masses in {1..5}/total."""
    num = F if exact else float
    rng = seeded(seed)
    for kind, eps in itertools.product((SUM, MAX), (0, F(1, 2))):
        weights = [num(F(rng.randrange(1, 15), 7)) for _ in range(n)]
        if basis == "table":
            fs = (covering_table(weights, rng, num),)
        else:
            fs = (BasisFunction.monomial(1), BasisFunction.monomial(2),
                  BasisFunction.indicator())
        alpha = [[num(1) if i == j else num(F(rng.randrange(-7, 8), 7)) for j in range(n)]
                 for i in range(n)]
        beta = [[num(F(rng.randrange(0, 8), 7)) for _ in range(n)] for _ in range(n)]
        beta[0][0] = num(1)
        cfg = WorstCaseConfig(weights, alpha, SocialSpec(kind, beta), num(eps), fs)
        for _ in range(3):
            model = random_model(rng, cfg.weights, rng.randrange(2, 5), rng.choice((2, 3)))
            profiles = list(model.profiles())
            support = rng.sample(profiles, min(len(profiles), rng.randrange(1, 5)))
            raw = [rng.randrange(1, 6) for _ in support]
            dist = ProfileDistribution({p: num(F(m, sum(raw))) for p, m in zip(support, raw)})
            yield cfg, model, dist, rng.choice(profiles)


FLOAT_RTOL = 1e-15


def close_program(a, b):
    """Whether two float programs agree in everything but the last bits of
    their coefficients: each entry within FLOAT_RTOL of the largest entry
    of its row, and zero in one exactly where it is zero in the other.  A
    row's scale, not the entry's, bounds the error of a sum whose terms
    cancel."""
    x, y = (p.coefficients.astype(float) for p in (a, b))
    scale = np.maximum(abs(x), abs(y)).max(axis=1, keepdims=True)
    return ((a.sense, tuple(a.variables), a.rows, a.bounds, a.name)
            == (b.sense, tuple(b.variables), b.rows, b.bounds, b.name)
            and x.shape == y.shape and ((x == 0) == (y == 0)).all()
            and (abs(x - y) <= FLOAT_RTOL * scale).all())


@pytest.mark.parametrize("n, exact, basis", list(coarse_cases()))
def test_gather_equals_profile_enumeration(n, exact, basis):
    """build_pp_cce equals the reference program for every designee: entry
    for entry in exact arithmetic, and by close_program in float, where
    its array is float64."""
    seed = 3000 + 16 * n + 2 * exact + (basis == "table")
    for cfg, model, dist, o_profile in coarse_triples(n, exact, basis, seed):
        for d in designees(cfg):
            got = build_pp_cce(cfg, model, dist, o_profile, d)
            want = reference_pp_cce(cfg, model, dist, o_profile, d)
            if exact:
                assert same_program(got, want), d
            else:
                assert got.coefficients.dtype == np.float64
                assert close_program(got, want), d


# ============================================================
# the one change of behaviour
# ============================================================


def test_extension_needs_the_class_loads_the_model_never_reaches():
    """Weights (1, 2) and a table defined at loads 1 and 3 only: player 0
    uses a and b, player 1 only a, so at sigma = o = (0, 0) the model's
    loads are 3 on a and 1 on b.  The enumerated program is defined there
    and the certificate gamma = 1 passes it; but the class reaches load 2
    (player 1 alone), so solve_worst_case raises and no certificate of the
    class exists.  verify_extension reads the class's columns and raises
    the same error."""
    eye = identity_matrix(2, True)
    cfg = WorstCaseConfig((F(1), F(2)), eye, SocialSpec(SUM, eye), F(0),
                          (BasisFunction.lookup({F(1): F(1), F(3): F(1)}),))
    model = CongestionModel((F(1), F(2)), ("a", "b"),
                            ((frozenset("ab"),), (frozenset("a"),)))
    dist, cert = ProfileDistribution.point((0, 0)), {"gamma": F(1)}
    reference = reference_pp_cce(cfg, model, dist, (0, 0))
    assert _dual_report(reference, [0, 0, 1], 0)[0]
    message = "lookup table does not cover congestion value 2"
    with pytest.raises(GameError, match=message):
        solve_worst_case(cfg, exact=True)
    with pytest.raises(GameError, match=message):
        verify_extension(cfg, cert, model, dist, (0, 0))
