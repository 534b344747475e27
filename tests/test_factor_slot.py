"""One closed form per answer.

A RepresentativeModel keeps, outside its fields, the per-mask factors of
the last WorstCaseConfig object it was priced for (formulations._factors):
_closed_form fills the slot and extract_worst_game reads it, so a solve
and its extraction derive the class's closed form once.  The slot matches
a config by identity, never by equality, since 1, 1.0 and Fraction(1)
price in different arithmetic; its arrays are read-only, and the rep
compares, hashes and reprs as before.  A rep without the factors derives
them through the same accessor and gives the same witness or the same
rejection.
"""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from poacert import formulations
from poacert import linprog as lp
from poacert.formulations import (
    WorstCaseConfig,
    _exact_config,
    _factors,
    _numbers,
    build_pp_pne,
    extract_worst_game,
    solve_worst_case,
)
from poacert.games import MAX, SUM, BasisFunction, SocialSpec, identity_matrix, rational
from poacert.representative import build_representative
from test_arithmetic_rule import INTEGER_CLASSES, _twin
from test_array_programs import designees, seeded_classes
from test_mask_native import CLASSES, assert_same_witness, outcome, perturbed


@pytest.fixture
def derivations(monkeypatch):
    """A list that grows by one entry, the masks read, per _mask_factors
    call."""
    calls = []
    derive = formulations._mask_factors

    def counted(cfg, weights, masks):
        calls.append(masks)
        return derive(cfg, weights, masks)

    monkeypatch.setattr(formulations, "_mask_factors", counted)
    return calls


def _float_class(kind):
    return next(cfg for cfg, exact in (p.values for p in seeded_classes())
                if cfg.n == 3 and cfg.spec.kind == kind and not exact)


def _fraction_class(kind):
    eye = identity_matrix(3, True)
    return WorstCaseConfig((F(1), F(3, 2), F(1, 2)), eye, SocialSpec(kind, eye), F(1, 2),
                           (BasisFunction.monomial(1),))


SOLVED = [pytest.param(_float_class(SUM), False, id="float-sum"),
          pytest.param(_float_class(MAX), False, id="float-max"),
          pytest.param(_fraction_class(SUM), True, id="fraction-sum"),
          pytest.param(_fraction_class(MAX), True, id="fraction-max")]


@pytest.mark.parametrize("cfg,exact", SOLVED)
def test_a_solve_and_its_extraction_derive_the_closed_form_once(cfg, exact, derivations):
    result = solve_worst_case(cfg, exact)
    assert result.status == formulations.OPTIMAL
    game = extract_worst_game(cfg, result.rep, result.primal_solution, result.designated)
    assert len(derivations) == 1
    assert derivations[0].tolist() == list(range(1 << cfg.n))
    assert game.model.weights == cfg.weights


@pytest.mark.parametrize("kind", [SUM, MAX])
def test_a_witness_frontier_answer_derives_the_closed_form_once(kind, derivations):
    """build_pp_pne, lp.solve and extract_worst_game on one rep, as
    witness-frontier runs them: one derivation for every designee."""
    cfg = _float_class(kind)
    rep = build_representative(cfg.weights)
    for d in designees(cfg):
        report = lp.solve(build_pp_pne(cfg, rep, d))
        extract_worst_game(cfg, rep, report.primal, d)
    assert len(derivations) == 1


@pytest.mark.parametrize("cfg", INTEGER_CLASSES[:8])
def test_one_rep_serves_an_integer_class_and_its_twins_as_fresh_reps_do(cfg):
    """One rep read for an integer class, its float twin, its Fraction
    twin and the integer class again, which compare equal, gives each the
    program a fresh rep gives: same dtype and the same bytes or reprs."""
    rep = build_representative(cfg.weights)
    d = next(iter(designees(cfg)))
    for c in (cfg, _twin(cfg, float), _twin(cfg, F), cfg):
        got = build_pp_pne(c, rep, d).coefficients
        want = build_pp_pne(c, build_representative(c.weights), d).coefficients
        assert got.dtype == want.dtype == (object if rational(_numbers(c)) else np.float64)
        if got.dtype == object:
            assert list(map(repr, got.ravel())) == list(map(repr, want.ravel()))
        else:
            assert got.tobytes() == want.tobytes()
        assert vars(rep)["_factors"][0] is c


def test_the_slot_is_keyed_by_identity_and_outside_the_fields():
    cfg = _float_class(MAX)
    fresh, result = build_representative(cfg.weights), solve_worst_case(cfg)
    rep = result.rep
    extract_worst_game(cfg, rep, result.primal_solution, result.designated)
    assert rep == fresh and (repr(rep), hash(rep)) == (repr(fresh), hash(fresh))
    assert "model" not in vars(rep)
    factors = _factors(cfg, rep)
    assert _factors(cfg, rep) is factors
    equal = replace(cfg)
    assert equal == cfg and _factors(equal, rep) is not factors
    assert vars(rep)["_factors"][0] is equal  # one config held
    for a in _factors(equal, rep):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def test_a_fraction_slot_is_read_only_too():
    cfg = _fraction_class(SUM)
    rep = solve_worst_case(cfg, exact=True).rep
    masks, joins, leaves, costs = _factors(cfg, rep)
    assert joins.dtype == object
    with pytest.raises(ValueError):
        costs[0, 0, 0] = F(1)


@pytest.mark.parametrize("cfg,exact", [p for p in CLASSES if p.values[0].n <= 3])
def test_extraction_on_a_fresh_rep_is_extraction_after_a_solve(cfg, exact):
    """The same witness or the same rejection, at a solution and at its
    perturbations, from a rep whose slot a solve filled and from a fresh
    one."""
    solved = build_representative(cfg.weights)
    for d in designees(cfg):
        report = lp.solve(build_pp_pne(cfg, solved, d))
        if report.status != lp.OPTIMAL:
            continue
        for point in [report.primal, *perturbed(cfg, report.primal, d)]:
            fresh = build_representative(cfg.weights)
            assert_same_witness(outcome(extract_worst_game, cfg, solved, point, d),
                                outcome(extract_worst_game, cfg, fresh, point, d))
            assert vars(fresh)["_factors"][0] is cfg


def test_an_all_fraction_class_is_its_own_exact_config():
    cfg = _fraction_class(MAX)
    assert _exact_config(cfg) is cfg
    for other in (_twin(cfg, float), replace(cfg, epsilon=0.5),
                  replace(cfg, weights=(1, F(3, 2), F(1, 2)))):
        exact = _exact_config(other)
        assert exact is not other and exact == cfg
        assert all(type(x) is F for x in _numbers(exact))
