"""One arithmetic rule, games.rational, for every layer.

Data are rational when none of the numbers is a float and at least one is
a Fraction; any other data are float64, and an int counts as a float.  So
a class of integers, read in float mode, builds the same float64 program
as its float twin and gets the same gamma* bit for bit; in exact mode it
gets its Fraction twin's answer; and an oracle answer on a game of
integer costs is a float, while on an exact cost table every answer is a
Fraction, even where the costs it reads are ints.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_game, random_model, seeded
from poacert.formulations import (
    WorstCaseConfig,
    _mask_factors,
    build_pp_pne,
    lemma1_witness,
    normalize_game,
    solve_worst_case,
)
from poacert.games import (
    EQ1,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    SocialSpec,
    identity_matrix,
    is_eps_pne,
    rational,
)
from poacert.oracle import (NO_EQUILIBRIUM, _cost_table, cce_poa, enumerate_eps_pne, exact_ppoa,
                            ppoa_report, social_optimum, worst_cce)
from poacert.smoothness import robust_poa, validate_smoothness_claims
from poacert.representative import build_representative
from test_array_programs import designees


@pytest.mark.parametrize("numbers,want", [
    ([], False), ([1, 2], False), ([1, F(1, 2)], True), ([F(1)], True),
    ([1.0, F(1, 2)], False), ([F(1, 2), 2, 0.5], False), ([np.float64(1), F(1)], False),
])
def test_rational_is_a_fraction_and_no_float(numbers, want):
    assert rational(numbers) is want


def _twin(cfg, num):
    """cfg with every number read by num (float or Fraction)."""
    def q(x):
        return tuple(map(q, x)) if isinstance(x, (tuple, list)) else num(x)

    spec = SocialSpec(cfg.spec.kind, q(cfg.spec.beta))
    return WorstCaseConfig(q(cfg.weights), q(cfg.alpha), spec, q(cfg.epsilon), cfg.basis)


def integer_classes():
    """n = 2..4, r in {1, 3} (basis x .. x^r), sum and max, identity or
    seeded random integer alpha and beta, eps in {0, 1/2}: eps 1/2 is the
    float 0.5, so those classes are float by their epsilon too."""
    rng = seeded(4040)
    for n in (2, 3, 4):
        for r in (1, 3):
            basis = tuple(BasisFunction.monomial(k) for k in range(1, r + 1))
            for kind in (SUM, MAX):
                for eps in (0, 0.5):
                    for shape in ("identity", "random"):
                        weights = [rng.randrange(1, 6) for _ in range(n)]
                        alpha = beta = identity_matrix(n)
                        if shape == "random":
                            alpha = [[1 if i == j else rng.randrange(-1, 3) for j in range(n)]
                                     for i in range(n)]
                            beta = [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
                            beta[0][0] = 1
                        cfg = WorstCaseConfig(weights, alpha, SocialSpec(kind, beta), eps, basis)
                        yield pytest.param(cfg, id=f"n{n}-r{r}-{kind}-eps{eps}-{shape}")


INTEGER_CLASSES = list(integer_classes())


@pytest.mark.parametrize("cfg", INTEGER_CLASSES)
def test_integer_class_is_its_float_twin(cfg):
    """build_pp_pne is float64 and byte-equal to the float twin's, every
    factor array of a class without a Fraction is float64, and gamma* is
    the twin's bit for bit."""
    twin = _twin(cfg, float)
    rep = build_representative(cfg.weights)
    masks = np.arange(1 << cfg.n)
    for c in (cfg, twin):
        _, *factors = _mask_factors(c, c.weights, masks)
        assert [a.dtype for a in factors] == [np.float64] * 3
    for d in designees(cfg):
        got = build_pp_pne(cfg, rep, d)
        want = build_pp_pne(twin, build_representative(twin.weights), d)
        assert got.coefficients.dtype == np.float64
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.rows == want.rows and list(got.variables) == list(want.variables)
    got, want = solve_worst_case(cfg), solve_worst_case(twin)
    assert got.status == want.status
    assert repr(got.gamma_star) == repr(want.gamma_star)


@pytest.mark.parametrize("cfg", INTEGER_CLASSES)
def test_exact_integer_class_is_its_fraction_twin(cfg):
    """Exact mode reads every number as a Fraction, ints too: the answer,
    and the representative model it was found on, are the Fraction
    twin's, repr for repr."""
    got, want = solve_worst_case(cfg, exact=True), solve_worst_case(_twin(cfg, F), exact=True)
    assert got.status == want.status
    assert repr(got.gamma_star) == repr(want.gamma_star)
    assert repr(got.rep.weights) == repr(want.rep.weights)


@pytest.mark.parametrize("cfg", INTEGER_CLASSES)
def test_lemma1_witness_follows_the_rule(cfg):
    """Float on an integer class, rational on its Fraction twin, equal in
    value."""
    fractions = _twin(cfg, F)
    floats = lemma1_witness(cfg, build_representative(cfg.weights)).values
    exact = lemma1_witness(fractions, build_representative(fractions.weights)).values
    assert {type(v) for v in floats.values()} == {float}
    assert {type(v) for v in exact.values()} == {F}
    assert floats == pytest.approx({j: float(v) for j, v in exact.items()}, rel=1e-15)


def _game(num):
    """Weights 1 and 2 on resources a and b, latencies x and 3x, each
    player on one of them: optimum 7, player 1 alone on b."""
    model = CongestionModel((num(1), num(2)), ("a", "b"), ((("a",), ("b",)),) * 2)
    return GeneralizedGame(model, (BasisFunction.monomial(1),),
                           {"a": (num(1),), "b": (num(3),)}, identity_matrix(2))


@pytest.mark.parametrize("num,answer", [(int, float), (F, F)])
def test_integer_costs_answer_in_floats(num, answer):
    """A game of integer costs has a float64 cost table and float answers;
    its Fraction twin, an object table and rational ones."""
    game, spec = _game(num), SocialSpec(SUM, identity_matrix(2))
    table = _cost_table(game, 100, "test", spec)
    assert table.exact is (answer is F) and table.costs.dtype == (object if table.exact else float)
    profile, value = social_optimum(game, spec)
    assert profile == (1, 0) and value == 7 and type(value) is answer
    assert type(exact_ppoa(game, spec)) is answer
    scaled, _ = normalize_game(game, spec)
    assert {type(c) for vec in scaled.coefficients.values() for c in vec} == {answer}


def test_an_exact_table_answers_in_fractions():
    """Weights 1 and 2, resources a: x, b: 3x and c: 7/2 x, player 1 on a
    or b, player 2 on a or c: the optimum (b, a) costs the ints 3 and 4,
    yet every answer off the exact table is a Fraction."""
    model = CongestionModel((1, 2), ("a", "b", "c"), ((("a",), ("b",)), (("a",), ("c",))))
    game = GeneralizedGame(model, (BasisFunction.monomial(1),),
                           {"a": (1,), "b": (3,), "c": (F(7, 2),)}, identity_matrix(2))
    spec = SocialSpec(SUM, identity_matrix(2))
    answers = (social_optimum(game, spec), exact_ppoa(game, spec), worst_cce(game, spec).value)
    assert repr(answers) == repr((((1, 0), F(7)), F(9, 7), F(9)))


def test_seeded_exact_games_answer_in_fractions():
    """On 200 seeded exact games of integer weights, basis x and integer
    beta, under sum and max, every number social_optimum, exact_ppoa,
    worst_cce and robust_poa answer is a Fraction: dyadic coefficients
    of 0 leave some costs ints, and the table lifts them."""
    numbers = []
    for seed in range(200):
        rng = seeded(seed)
        n = 2 + seed % 2
        weights = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        game = random_game(rng, weights, (BasisFunction.monomial(1),),
                           identity_matrix(n, True), exact=True)
        for kind in (SUM, MAX):
            spec = SocialSpec(kind, identity_matrix(n))
            _, opt = social_optimum(game, spec)
            robust = robust_poa(game, spec)
            numbers += [opt, worst_cce(game, spec).value, robust.value, robust.lam, robust.mu]
            if opt != 0:
                numbers.append(exact_ppoa(game, spec, 0, EQ1))
    numbers = [v for v in numbers if v is not None and v != NO_EQUILIBRIUM]
    assert len(numbers) > 1000
    assert {type(v) for v in numbers} == {F}


def _float_alpha_game(seed):
    """Two players of weights k/2 (k = 1..4) on random_model's 3
    resources, basis x, coefficients k/4 (k = 0..8), all Fractions, and
    alpha 1 on the diagonal, a float of 0.1, 0.2, 0.3, 0.6, 0.7 off it,
    drawn in that order."""
    rng = random.Random(seed)
    weights = [F(rng.randint(1, 4), 2) for _ in range(2)]
    model = random_model(rng, weights, 3)
    coefficients = {e: (F(rng.randrange(0, 9), 4),) for e in model.resources}
    alpha = [[F(1) if i == j else rng.choice((0.1, 0.2, 0.3, 0.6, 0.7)) for j in range(2)]
             for i in range(2)]
    return GeneralizedGame(model, (BasisFunction.monomial(1),), coefficients, alpha)


@pytest.mark.parametrize("seed", [158, 1372, 1421])
def test_a_float_alpha_makes_the_gaps_table_float(seed):
    """Gaps read alpha and epsilon, so a cost table built for them is
    float where either is: enumerate_eps_pne and ppoa_report then accept
    the profiles is_eps_pne accepts.  These are the 3 of 1,500 seeds,
    each at epsilon 0 and 1/2 under both predicates, on which a table of
    the exact costs alone, slack 0, judged a float gap's dust otherwise
    (seed 158, epsilon 1/2, verbatim: [(0, 0), (1, 1)] against
    [(0, 0), (1, 0), (1, 1)]).  An answer that reads no gap keeps the
    costs' rule."""
    game = _float_alpha_game(seed)
    spec = SocialSpec(SUM, identity_matrix(2, True))
    for eps in (0, F(1, 2)):
        for predicate in (EQ1, VERBATIM):
            want = [p for p in game.model.profiles() if is_eps_pne(game, p, eps, predicate)]
            assert enumerate_eps_pne(game, eps, predicate) == want
            assert ppoa_report(game, spec, eps, predicate).equilibrium_count == len(want)
    if seed == 158:
        assert enumerate_eps_pne(game, F(1, 2), VERBATIM) == [(0, 0), (1, 0), (1, 1)]
    assert not _cost_table(game, 100, "test", spec, 0).exact
    assert _cost_table(game, 100, "test", spec).exact


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_validation_answers_the_robust_poa_in_its_arithmetic(kind):
    """validate_smoothness_claims(...).robust is robust_poa's answer, repr
    for repr, on the games of exact costs and beta with a float alpha:
    the robust half reads the costs and beta alone, as robust_poa does,
    and only the gaps read alpha in float64.  Seed 0 under sum answers
    Fraction(32, 25), not 1.2799999999999998."""
    spec = SocialSpec(kind, identity_matrix(2, True))
    answered = 0
    for seed in range(300):
        game = _float_alpha_game(seed)
        try:
            robust = validate_smoothness_claims(game, spec).robust
        except GameError:
            continue
        assert repr(robust) == repr(robust_poa(game, spec)), seed
        answered += 1
    assert answered >= 290
    if kind == SUM:
        assert validate_smoothness_claims(_float_alpha_game(0), spec).robust.value == F(32, 25)


def _fraction_alpha_game(seed):
    """Two players of int weights 1..3 on random_model's 3 resources, basis
    x, int coefficients 0..8, and alpha [[1, 1/3], [1/2, 1]]: no float
    anywhere, so gaps read Fractions while the costs and beta are ints."""
    rng = random.Random(seed)
    model = random_model(rng, [rng.randint(1, 3) for _ in range(2)], 3)
    coefficients = {e: (rng.randrange(0, 9),) for e in model.resources}
    alpha = [[1, F(1, 3)], [F(1, 2), 1]]
    return GeneralizedGame(model, (BasisFunction.monomial(1),), coefficients, alpha)


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_validation_answers_the_gaps_in_their_oracles_arithmetic(kind):
    """On games of int costs and beta with a Fraction alpha, the gap rule
    reads alpha and is exact while the costs' rule is float64: the
    validation's ppoa and ccpoa are exact_ppoa's and worst_cce's
    Fractions, and its robust PoA is robust_poa's float, from one
    enumeration."""
    spec = SocialSpec(kind, identity_matrix(2))
    answered = 0
    for seed in range(40):
        game = _fraction_alpha_game(seed)
        try:
            got = validate_smoothness_claims(game, spec)
            opt, cce = cce_poa(game, spec)
        except GameError:
            continue
        assert repr(got.robust) == repr(robust_poa(game, spec)), seed
        assert repr(got.ppoa) == repr(exact_ppoa(game, spec)), seed
        assert repr(got.ccpoa) == repr(cce.value / opt), seed
        assert isinstance(got.ccpoa, F) and isinstance(opt, F), seed
        assert got.ppoa == NO_EQUILIBRIUM or isinstance(got.ppoa, F), seed
        assert got.robust.value is None or isinstance(got.robust.value, float), seed
        answered += 1
    assert answered >= 30
