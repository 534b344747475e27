"""The representative model read as (P, Q) bit masks.

A RepresentativeModel builds its 4^n ids and frozenset strategies only
when rep.model is read, and nothing on the solve or witness path reads it.
extract_worst_game reads the closed form's per-mask factors at the point's
nonzero columns alone.  The references below are the eager model, the
closed form scattered column by column, and extraction over every column
position, written as they were before the model became mask-native; the
new code must give the same arrays bit for bit and the same witness
games, repr for repr.
"""

import functools
import operator
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from poacert import formulations
from poacert import linprog as lp
from poacert.formulations import (
    FEAS_TOL,
    WorstCaseConfig,
    _closed_form,
    _ColumnNames,
    _representative,
    build_pp_pne,
    extract_worst_game,
    solve_worst_case,
    vname,
)
from poacert.games import (
    MAX,
    SUM,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    SocialSpec,
    identity_matrix,
    rational,
)
from poacert.representative import build_representative
from test_array_programs import designees, reference_rows, seeded_classes

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "poabench"))
import workloads  # noqa: E402

# ============================================================
# references: the eager model, the scattered closed form, and extraction
# over every column position
# ============================================================


def reference_model(weights):
    """The representative CongestionModel, built eagerly from formatted ids."""
    n = len(weights)
    size = 1 << n

    def players(mask):
        return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)

    names = [f"P:{{{players(p)}}}|Q:{{{players(q)}}}" for p in range(size) for q in range(size)]
    ids = np.array(names, dtype=object).reshape(size, size)
    masks = np.arange(size)
    strategies = []
    for i in range(n):
        has = masks >> i & 1 == 1
        sigma, omega = ids[has].ravel().tolist(), ids[:, has].ravel().tolist()
        strategies.append((frozenset(sigma), frozenset(omega)))
    return CongestionModel(tuple(weights), tuple(names), tuple(strategies))


def reference_id_parts(n):
    """(heads, tails) over all masks below 2^n: e(P, Q) is heads[P] + tails[Q]."""

    def players(mask):
        return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)

    size = 1 << n
    return ([f"P:{{{players(m)}}}|Q:{{" for m in range(size)],
            [f"{players(m)}}}" for m in range(size)])


def reference_column_names(cfg):
    """Variable names of the v columns, every one formatted: resources in
    (P, Q) order, P major, so flat column (P*size + Q)*r + k is
    vname(e(P, Q), k)."""
    heads, tails = reference_id_parts(cfg.n)
    heads = ["v[" + h for h in heads]
    tails = [f"{t}][{k}]" for t in tails for k in range(len(cfg.basis))]
    return [h + t for h in heads for t in tails]


def _reference_subset_sums(terms, dtype):
    sums = np.zeros(1 << len(terms), dtype=dtype)
    for j, t in enumerate(terms):
        lo = 1 << j
        sums[lo:2 * lo] = sums[:lo] if t is None else sums[:lo] + t
    return sums


def _reference_basis_values(basis, loads, scale, dtype):
    flat = loads.ravel().tolist()
    cache = {}
    out = np.zeros((len(flat), len(basis)), dtype=dtype)
    cast = float if dtype is np.float64 else (lambda x: x)
    for idx, x in enumerate(flat):
        if x is None:
            continue
        if x not in cache:
            cache[x] = [cast(scale * f.value(x)) for f in basis]
        out[idx] = cache[x]
    return out.reshape(loads.shape + (len(basis),))


def reference_closed_form(cfg):
    """(eq, val, nrm) for _primal, one player's arrays at a time, each
    eq[i] scattered into (P, Q, k) from its per-mask products."""
    n, r = cfg.n, len(cfg.basis)
    w, alpha, beta = cfg.weights, cfg.alpha, cfg.spec.beta
    tables = [x for f in cfg.basis for pair in f.table for x in pair]
    numbers = [*w, *(a for row in alpha for a in row), *(b for row in beta for b in row),
               cfg.epsilon, *tables]
    dtype = object if rational(numbers) else np.float64
    size = 1 << n
    masks = np.arange(size)

    def weighted(mat, i):
        return _reference_subset_sums(
            [mat[i][j] * w[j] if mat[i][j] != 0 else None for j in range(n)], dtype)

    with np.errstate(over="ignore", invalid="ignore"):
        loads = _reference_subset_sums(list(w), dtype)
        f_load = _reference_basis_values(cfg.basis, np.where(masks > 0, loads, None), 1, dtype)
        neg = -(1 + cfg.epsilon)
        eq = []
        for i in range(n):
            bit = 1 << i
            aw = weighted(alpha, i)
            aw_join = alpha[i][i] * w[i] + aw
            joins = (masks & bit == 0) & (aw_join != 0)
            f_join = _reference_basis_values(
                cfg.basis, np.where(joins, loads + w[i], None), neg, dtype)
            coeffs = np.zeros((size, size, r), dtype=dtype)
            p_in, p_out = np.flatnonzero(masks & bit), np.flatnonzero(masks & bit == 0)
            coeffs[np.ix_(p_in, p_out)] = (f_load * aw[:, None])[p_in, None, :]
            coeffs[np.ix_(p_out, p_in)] = (f_join * aw_join[:, None])[p_out, None, :]
            eq.append(coeffs)
        costs = [f_load * weighted(beta, i)[:, None] for i in range(n)]
        if cfg.spec.kind == SUM:
            total = np.zeros_like(costs[0])
            for c in costs:
                total = np.where(c != 0, total + c, total)
            costs = [total]
    val, nrm = [c[:, None, :] for c in costs], [c[None, :, :] for c in costs]
    return (eq, val[0], nrm[0]) if cfg.spec.kind == SUM else (eq, val, nrm)


def _reference_point_report(names, rows, values, level, tol):
    x = np.array(values, dtype=object)
    support = np.flatnonzero(x)
    x = x[support]
    at = np.unravel_index(support, rows[0][3].shape)
    checks = []
    for label, rel, rhs, a, t in rows:
        coeffs = a[at]
        keep = coeffs != 0
        terms = (coeffs[keep] * x[keep]).tolist() + ([t * level] if t else [])
        gap = functools.reduce(operator.add, terms, 0) - rhs
        checks.append((label, abs(gap) if rel == lp.EQ else gap))
    checks += [(f"bound[{names[j]}]", 0 - values[j]) for j in support]
    if any(t for *_, t in rows):
        checks.append(("bound[t]", 0 - level))
    first, worst = None, 0
    for label, v in checks:
        if v > worst:
            worst = v
        if v > tol and first is None:
            first = label
    return first is None, first, worst


def reference_extract_worst_game(cfg, rep, primal_values, designated=None):
    """extract_worst_game over every column: the full closed form, every
    column position looked up in the point (t after the v columns), and
    the witness cut out of the eager model's frozensets."""
    eq, val, nrm = reference_closed_form(cfg)
    rows, _ = reference_rows(cfg, (eq, None, None), val, nrm, designated)
    model = reference_model(cfg.weights)
    names = [vname(e, k) for e in model.resources for k in range(len(cfg.basis))]
    values = [primal_values.get(j, 0) for j in range(len(names))]
    ok, label, violation = _reference_point_report(
        names, rows, values, primal_values.get(len(names), 0), FEAS_TOL)
    if not ok:
        raise GameError(f"primal point violates {label} by {violation}")
    r, size = len(cfg.basis), 1 << cfg.n
    kept = {model.resources[j // r]: j // r for j, c in enumerate(values) if c != 0}
    for i, per in enumerate(model.strategies):
        if any(s.isdisjoint(kept) for s in per):
            kept[rep.resource_for(1 << i, 1 << i)] = (size + 1) << i
    ids = sorted(kept, key=kept.get)
    coeffs = {e: tuple(0 if c < 0 else c for c in values[kept[e] * r:(kept[e] + 1) * r])
              for e in ids}
    strategies = [[s.intersection(ids) for s in per] for per in model.strategies]
    return GeneralizedGame(
        CongestionModel(model.weights, ids, strategies), cfg.basis, coeffs, cfg.alpha)


# ============================================================
# helpers
# ============================================================


X = BasisFunction.monomial(1)
X2 = BasisFunction.monomial(2)


def extra_classes():
    """Classes the seeded corpus lacks: mixed int and Fraction weights,
    whose loads repeat a value in two types (1 + 2 and F(3)); float
    classes over the indicator and a lookup table; integer classes, float
    by games.rational, over an integer lookup table; and integer classes
    made rational by their epsilon alone."""
    table = BasisFunction.lookup({1.0: 1.0, 2.0: 3.0, 3.0: 4.0, 4.0: 7.0, 5.0: 0.0, 6.0: 2.0})
    ints = BasisFunction.lookup({k: round(v) for k, v in table.table})
    alpha = [[1, F(-1, 2), 0], [F(1, 3), 1, F(2, 7)], [0, F(1, 2), 1]]
    beta = [[1, F(1, 2), 0], [0, 1, 0], [F(1, 3), 0, 1]]
    int_alpha, int_beta = [[1, -1, 0], [2, 1, 1], [0, 3, 1]], [[1, 2, 0], [0, 1, 0], [1, 0, 1]]
    for kind in (SUM, MAX):
        yield pytest.param(WorstCaseConfig((1, 2, F(3)), alpha, SocialSpec(kind, beta), F(1, 2),
                                           (X, X2)), True, id=f"mixed-{kind}")
        floats = [[float(x) for x in row] for row in alpha]
        yield pytest.param(
            WorstCaseConfig((1.0, 2.0, 3.0), floats,
                            SocialSpec(kind, [[float(x) for x in row] for row in beta]), 0.5,
                            (BasisFunction.indicator(), table)), False, id=f"table-{kind}")
        yield pytest.param(WorstCaseConfig((1, 2, 3), int_alpha, SocialSpec(kind, int_beta), 0,
                                           (X, ints)), False, id=f"int-{kind}")
        yield pytest.param(WorstCaseConfig((1, 2, 3), int_alpha, SocialSpec(kind, int_beta),
                                           F(1, 2), (X, X2)), True, id=f"int-fraction-{kind}")


CLASSES = list(seeded_classes()) + list(extra_classes())


def as_rational(point):
    return {v: F(x) for v, x in point.items()}


def points(cfg, exact, rep, d):
    """Primal points of the class and designee: the float solution, and,
    for an exact class, that point read in rationals, and its exact
    solution where an exact solve is quick."""
    rp = lp.solve(build_pp_pne(cfg, rep, d))
    if rp.status != lp.OPTIMAL:
        return []
    out = [rp.primal]
    if exact:
        out.append(as_rational(rp.primal))
        if cfg.n <= 3:
            out.append(lp.solve(build_pp_pne(cfg, rep, d), True).primal)
    return out


def outcome(extract, *args):
    try:
        return extract(*args)
    except GameError as exc:
        return f"GameError: {exc}"


def assert_same_witness(got, want):
    assert repr(got) == repr(want)
    if isinstance(want, str):
        return
    assert got.model.resources == want.model.resources
    assert [[list(s) for s in per] for per in got.model.strategies] == \
        [[list(s) for s in per] for per in want.model.strategies]
    assert list(got.coefficients) == list(want.coefficients)


def perturbed(cfg, point, designated):
    """Points that violate a row or a bound, and some that stay feasible;
    new values keep the point's arithmetic.  A solution lists its nonzero
    variables only, so the empty one (a max program's at t = 0) takes
    float values."""
    one = next(iter(point.values()), 0.0) * 0 + 1
    t = 4**cfg.n * len(cfg.basis)  # the level's position
    support = [j for j, x in point.items() if x and j != t] or [None]
    first, last = support[0], support[-1]
    x0 = point.get(first, one)
    # the first column at 0, as the point lists only its support: column
    # 0, e({}, {}), has no nonzero coefficient and is never basic
    zero = 0
    assert not point.get(zero, 0)
    out = [
        {**point, zero: x0 / 1000},
        {**point, zero: -x0 / 10**12},
        {j: x * 3 for j, x in point.items()},
        {**point, zero: -one},  # a column with no nonzero coefficient
    ]
    if first is not None:
        out += [{**point, first: point[first] * 2}, {**point, last: point[last] / 2},
                {**point, first: -point[first]}]
    if designated is not None:
        level = point.get(t, 0 * one)
        out += [{**point, t: level * 2}, {**point, t: level - one}]
    return out


# ============================================================
# tests
# ============================================================


def _same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == object:
        assert list(map(repr, got.ravel())) == list(map(repr, want.ravel()))
    else:
        assert got.tobytes() == want.tobytes()


def frontier_classes():
    """The n = 6 float classes of the seeded corpus and one n = 7 float
    class like them (max, eps 1/2, basis x), the sizes witness-frontier
    runs."""
    yield from (p for p in seeded_classes() if p.values[0].n == 6)
    rng = random.Random(7007)
    n = 7
    weights = [float(F(rng.randrange(1, 15), 7)) for _ in range(n)]
    alpha = [[1.0 if i == j else float(F(rng.randrange(-7, 8), 7)) for j in range(n)]
             for i in range(n)]
    beta = [[float(F(rng.randrange(0, 8), 7)) for _ in range(n)] for _ in range(n)]
    cfg = WorstCaseConfig(weights, alpha, SocialSpec(MAX, beta), 0.5, (X,))
    yield pytest.param(cfg, False, id="n7-float-max-eps1/2")


@pytest.mark.parametrize("cfg,exact", [p for p in CLASSES if p.values[0].n <= 5]
                         + list(frontier_classes()))
def test_closed_form_is_the_scattered_reference_bit_for_bit(cfg, exact):
    """Same values, types, shapes and float bits (signed zeros included)."""
    rep = build_representative(cfg.weights)
    got, want = _closed_form(cfg, rep), reference_closed_form(cfg)
    leaves, joins, joined = got[0]
    for i in range(cfg.n):
        _same_array(np.where(joined[i], joins[i], leaves[i]), want[0][i])
    if cfg.spec.kind == SUM:
        _same_array(got[1], want[1])
        _same_array(got[2], want[2])
    else:
        for i in range(cfg.n):
            _same_array(got[1][i], want[1][i])
            _same_array(got[2][i], want[2][i])


@pytest.mark.parametrize("cfg,exact", CLASSES)
def test_extraction_matches_the_full_column_reference(cfg, exact):
    """Repr-identical witnesses, strategy iteration orders and coefficient
    orders on every designee's solution, and on perturbed points the same
    witness or the same GameError message."""
    rep = build_representative(cfg.weights)
    for d in designees(cfg):
        for point in points(cfg, exact, rep, d):
            assert_same_witness(extract_worst_game(cfg, rep, point, d),
                                reference_extract_worst_game(cfg, rep, point, d))
            for moved in perturbed(cfg, point, d):
                assert_same_witness(outcome(extract_worst_game, cfg, rep, moved, d),
                                    outcome(reference_extract_worst_game, cfg, rep, moved, d))
    assert "model" not in vars(rep)


def test_perturbed_points_raise_the_reference_message():
    """At least one perturbation of each kind is rejected, with the label
    and violation the reference reports."""
    cfg = list(seeded_classes())[2].values[0]  # n = 2, float, max
    assert cfg.spec.kind == MAX
    rep = build_representative(cfg.weights)
    point = lp.solve(build_pp_pne(cfg, rep, 0)).primal
    messages = set()
    for moved in perturbed(cfg, point, 0):
        got = outcome(extract_worst_game, cfg, rep, moved, 0)
        assert got == outcome(reference_extract_worst_game, cfg, rep, moved, 0)
        if isinstance(got, str):
            messages.add(got.split(" violates ")[1].split("[")[0])
    assert {"eq", "norm", "bound", "val"} <= messages


def test_solve_and_extract_leave_the_model_unbuilt():
    cfg = list(seeded_classes())[2].values[0]
    result = solve_worst_case(cfg)
    rep = result.rep
    extract_worst_game(cfg, rep, result.primal_solution, result.designated)
    assert "model" not in vars(rep)


@pytest.mark.parametrize("seed", [2026, 4001])
def test_witness_frontier_sequence_leaves_the_model_unbuilt(seed):
    """build, build_pp_pne, lp.solve, extract: the benchmark's call sequence
    on the smallest witness-frontier jobs."""
    jobs = workloads.witness_frontier(random.Random(f"witness-frontier:{seed}"))
    for job in [j for j in jobs if j.cfg.n == 5 and len(j.cfg.basis) == 1][:3]:
        rep, sol, game = job.run()
        assert not job.check((rep, sol, game))
        assert "model" not in vars(rep)


@pytest.mark.parametrize("weights", [(1, 1), (F(1), F(3, 2), F(2)), (1.0, 2.5, 1.0, 0.5),
                                     (1.0,) * 5])
def test_lazy_model_is_the_eager_one(weights):
    rep = build_representative(weights)
    assert "model" not in vars(rep)
    want = reference_model(weights)
    got = rep.model
    assert got == want
    assert got.resources == want.resources and got.weights == want.weights
    assert [[list(s) for s in per] for per in got.strategies] == \
        [[list(s) for s in per] for per in want.strategies]
    assert rep.model is got  # built once


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 3])
def test_column_name_inverse_round_trips(n, r):
    """Every column name, formatted on demand, is the reference's name of
    its position; no name is read back to its masks."""
    rep = build_representative((1,) * n)
    cfg = WorstCaseConfig((1,) * n, identity_matrix(n), SocialSpec(SUM, identity_matrix(n)), 0,
                          (X,) * r)
    names = reference_column_names(cfg)
    assert len(names) == 4**n * r
    columns = _ColumnNames(cfg, _representative(rep), range(len(names)))
    assert [columns[j] for j in range(len(names))] == names
    assert "model" not in vars(rep)


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_a_key_that_is_no_column_position_raises(kind):
    """extract_worst_game reads a point keyed by position alone: a str, a
    float, a bool, a negative int or an int past the last column (4^n r
    under sum, 4^n r + 1 under max, t being 4^n r) raises GameError
    naming the key, before any program is built, even at value 0."""
    cfg = list(seeded_classes())[0 if kind == SUM else 2].values[0]  # n = 2, float
    assert cfg.spec.kind == kind
    rep = build_representative(cfg.weights)
    d = None if kind == SUM else 0
    point = lp.solve(build_pp_pne(cfg, rep, d)).primal
    end = 4**cfg.n * len(cfg.basis) + (kind == MAX)
    extract_worst_game(cfg, rep, {**point, end - 1: point.get(end - 1, 0)}, d)
    built = []
    original = formulations._primal

    def counted(*args):
        built.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formulations, "_primal", counted)
        for key in ["v[P:{1}|Q:{}][0]", "t", 1.0, True, False, -1, end, end + 1, 10**30]:
            for value in (1.0, 0):
                with pytest.raises(GameError, match=re.escape(f"key {key!r} is not a column position")):
                    extract_worst_game(cfg, rep, {**point, key: value}, d)
    assert not built


def test_build_representative_still_checks_weights():
    with pytest.raises(GameError, match="at least 2 players"):
        build_representative((1,))
    with pytest.raises(GameError, match="must be positive"):
        build_representative((1, 0))
