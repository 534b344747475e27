"""Shared fixtures: the canonical two-player game, seeded generators, the
hand-built certificate program, programs written as dict rows and read
back entry by entry, and points relabelled between positions, as lp
reads them, and variable names, as assertions read them."""

import itertools
import operator
import random
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce

import numpy as np

# one verdict line per acceptance criterion, filled by test_acceptance and
# replayed after the run (fd-level capture swallows prints made mid-test)
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)

from poacert import linprog as lp
from poacert.games import (
    SUM,
    BasisFunction,
    CongestionModel,
    GeneralizedGame,
    ProfileDistribution,
    SocialSpec,
    identity_matrix,
)


def ordered_sum(terms):
    """terms added from 0 in order, one rounding per addition, as the
    package adds: the builtin sum of Python 3.11 and earlier, which from
    3.12 compensates float sums.  References that add floats use it."""
    return reduce(operator.add, terms, 0)


# the four profiles of g1, by strategy index: (0,0)=(a,a), (0,1)=(a,b), ...
AA, AB, BA, BB = (0, 0), (0, 1), (1, 0), (1, 1)


def g1(exact=True, alpha=None):
    """Two players of weight 1, resources a and b, one singleton strategy
    per resource, latency x on both.  Small enough to enumerate everything
    by hand (4 profiles), rich enough to exercise every code path."""
    one = F(1) if exact else 1.0
    model = CongestionModel(
        (one, one), ("a", "b"), ((("a",), ("b",)), (("a",), ("b",)))
    )
    return GeneralizedGame(
        model,
        (BasisFunction.monomial(1),),
        {"a": (one,), "b": (one,)},
        identity_matrix(2, exact) if alpha is None else alpha,
    )


def g1_spec(kind=SUM, exact=True):
    return SocialSpec(kind, identity_matrix(2, exact))


def random_model(rng, weights, n_resources=3, strategies_per_player=2):
    """Random congestion model over a fixed weight vector: each strategy is
    a nonempty resource subset drawn uniformly."""
    resources = tuple(f"r{k}" for k in range(n_resources))
    strategies = []
    for _ in weights:
        per, seen = [], set()
        while len(per) < strategies_per_player:
            s = frozenset(e for e in resources if rng.random() < 0.5)
            if s and s not in seen:
                seen.add(s)
                per.append(s)
        strategies.append(tuple(per))
    return CongestionModel(tuple(weights), resources, tuple(strategies))


def k_profile_representative(weights, masses):
    """The class-level model of K-profile distributions, K = len(masses),
    as (model, dist, o_profile) for build_pp_cce.  A resource is a nonzero
    (K+1)-tuple of player masks (P_1, ..., P_K, Q), 2^{n(K+1)} - 1 of them;
    player i's strategy j < K is the set of resources whose P_{j+1} holds
    i and its strategy K the set whose Q holds i.  dist puts masses[j] on
    "everyone plays j" and o_profile is "everyone plays K": any
    distribution over K profiles of a model with these weights, against
    any comparison profile, maps into it resource by resource."""
    n, k = len(weights), len(masses)
    tuples = [m for m in itertools.product(range(1 << n), repeat=k + 1) if any(m)]
    ids = [",".join(map(str, m)) for m in tuples]
    strategies = [[frozenset(e for e, m in zip(ids, tuples) if m[j] >> i & 1)
                   for j in range(k + 1)] for i in range(n)]
    dist = ProfileDistribution({(j,) * n: p for j, p in enumerate(masses)})
    return CongestionModel(tuple(weights), ids, strategies), dist, (k,) * n


def random_game(rng, weights, basis, alpha, exact=False, n_resources=3):
    """Random nonnegative coefficients over a random model; exact mode uses
    small dyadic fractions so Fraction blow-up stays bounded."""
    model = random_model(rng, weights, n_resources)
    r = len(basis)

    def coef():
        c = rng.randrange(0, 9)
        return F(c, 4) if exact else c / 4

    coeffs = {e: tuple(coef() for _ in range(r)) for e in model.resources}
    # a game with an all-zero latency row is legal; a game with no latency
    # at all makes every ratio 0/0, so force one positive entry
    e0 = model.resources[0]
    if all(c == 0 for vec in coeffs.values() for c in vec):
        vec = list(coeffs[e0])
        vec[0] = F(1, 2) if exact else 0.5
        coeffs[e0] = tuple(vec)
    return GeneralizedGame(model, basis, coeffs, alpha)


def random_matrix(rng, n, lo, hi, exact=False):
    def entry():
        c = rng.randrange(int(lo * 4), int(hi * 4) + 1)
        return F(c, 4) if exact else c / 4

    return tuple(tuple(entry() for _ in range(n)) for _ in range(n))


def seeded(seed):
    return random.Random(seed)


def dict_program(sense, variables, objective, rows, bounds=None, name="lp"):
    """The lp.LinearProgram of dict rows: each row (coefficients, relation,
    rhs, label) with coefficients {variable: value}, and the objective such
    a dict.  One name-to-position pass places every entry in an object
    array, int 0 wherever a dict leaves one out; a name the program does
    not declare is a ValueError (the objective's first, then the rows' in
    order).  bounds may name a variable, which is put at its position, or
    give the position itself; any other key goes to lp.LinearProgram as it
    is, to be refused there."""
    position = {v: j for j, v in enumerate(variables)}
    labelled = [("objective", objective)] + [(f"row {label!r}", coeffs)
                                             for coeffs, _, _, label in rows]
    for what, form in labelled:
        for v in form:
            if v not in position:
                raise ValueError(f"{what} references undeclared variable {v!r}")
    forms = [coeffs for coeffs, _, _, _ in rows] + [objective]
    coefficients = np.zeros((len(forms), len(variables)), dtype=object)
    for i, form in enumerate(forms):
        coefficients[i, [position[v] for v in form]] = np.array(list(form.values()), dtype=object)
    lp_rows = [lp.Row(rel, rhs, label) for _, rel, rhs, label in rows]
    bounds = {position.get(v, v): b for v, b in (bounds or {}).items()}
    return lp.LinearProgram(sense, variables, lp_rows, coefficients, bounds, name)


def named(program, point):
    """A point keyed by position, as lp.solve's primal is, relabelled
    {program.variables[j]: x}, so an assertion can read it by name."""
    return {program.variables[j]: x for j, x in point.items()}


def positional(program, point):
    """A point keyed by variable name, relabelled {j: x} by the position
    j of each name in program.variables, as feasibility_report and
    extract_worst_game read one."""
    index = {v: j for j, v in enumerate(program.variables)}
    return {index[v]: x for v, x in point.items()}


def column(cfg, p, q, k=0):
    """The position of representative column (P, Q, k), P and Q bit
    masks, in build_pp_pne's variables: (P 2^n + Q) r + k."""
    return ((p << cfg.n) + q) * len(cfg.basis) + k


def assert_standard_round_trip(program, rng):
    """Check the standard layout at a seeded point of a program, Fractions
    that keep each variable's sign class: the standard point holds
    variable j at column j, negated when it is <= 0, and the k-th free
    variable's positive part at column j and its negative part at column
    len(variables) + k.  The standard columns times it are the
    coefficient array times the point, row by row, and recover, given its
    support in reverse, gives back the point's nonzero entries by
    position, in variable order."""
    std = lp._Standardizer(program, True)
    values, s, k = [], [F(0)] * std.ncols, len(program.variables)
    for j in range(len(program.variables)):
        x = F(rng.randint(0, 8), 4)
        if program.bound(j) == lp.FREE:  # x in one of its two parts
            s[j if rng.random() < 0.5 else k] = x
            values.append(s[j] - s[k])
            k += 1
        else:
            s[j] = x
            values.append(-x if program.bound(j) == (None, 0) else x)
    assert k == std.ncols
    coefficients = lp._fractions(program.coefficients)
    s = np.array(s, dtype=object)
    assert (std.columns(coefficients) @ s).tolist() == (
        coefficients @ np.array(values, dtype=object)).tolist()
    support = np.flatnonzero(s)[::-1]
    assert list(std.recover(support, s[support]).items()) == [
        (j, x) for j, x in enumerate(values) if x]


def assert_certified(program, report, objective=None):
    """report, an exact solve of program on objective (None: its own
    objective row), has the status and value of a cold rational simplex
    run, and an OPTIMAL one passes feasibility_report and dual_violations
    at tolerance 0, read in rationals, with duals whose rhs sum is the
    value."""
    cold = lp._simplex(program, True, objective)
    assert report.exact is True
    assert (report.status, report.value) == (cold.status, cold.value), program.name
    if report.status != lp.OPTIMAL:
        return
    exact = replace(program, coefficients=lp._fractions(program.coefficients))
    duals = report.duals
    assert lp.feasibility_report(exact, report.primal, 0)[0], program.name
    objective = None if objective is None else lp._fractions(objective)
    assert max(lp.dual_violations(exact, duals, objective).tolist(), default=0) <= 0, program.name
    assert sum(F(row.rhs) * y for row, y in zip(program.rows, duals)) == report.value


def nonzeros(program, i):
    """{variable: value} of the nonzero entries of row i of a program's
    coefficient array, in column order; row -1 is the objective."""
    values = program.coefficients[i]
    nz = np.flatnonzero(values)
    return dict(zip([program.variables[j] for j in nz], values[nz].tolist()))


def same_program(a, b):
    """Whether two programs agree in sense, variables, rows, bounds and
    name, and in their coefficient arrays entry by entry, by value (a
    float64 entry equals the same number in an object array)."""
    def fields(p):
        return p.sense, tuple(p.variables), list(p.rows), p.bounds, p.name, p.coefficients.shape

    return fields(a) == fields(b) and all(
        x == y for x, y in zip(a.coefficients.ravel().tolist(), b.coefficients.ravel().tolist()))


def closed_form_dual(n):
    """Independent certificate program for unit weights / identity matrices
    / latency x / sum objective: rows enumerated directly over ordered
    subset pairs (P, Q), bypassing every production builder."""
    players = range(n)
    rows = []
    for pq in itertools.product([0, 1], repeat=2 * n):
        p = {i for i in players if pq[i]}
        q = {i for i in players if pq[n + i]}
        coeffs = {}
        for i in p - q:
            coeffs[f"y[{i}]"] = F(len(p))
        for i in q - p:
            coeffs[f"y[{i}]"] = -F(len(p) + 1)
        coeffs["gamma"] = F(len(q) ** 2)
        rows.append((coeffs, lp.GE, F(len(p) ** 2), f"pq{pq}"))
    variables = [f"y[{i}]" for i in players] + ["gamma"]
    return dict_program(lp.MINIMIZE, variables, {"gamma": 1}, rows)
