"""JSON round-trips and input validation."""

import json
from fractions import Fraction as F

import pytest

from conftest import g1
from poacert.gamefile import (
    GameFileError,
    emit_game,
    emit_number,
    load_config,
    load_game,
    parse_number,
    write_json,
)
from poacert.games import MAX, SUM, BasisFunction
from poacert.oracle import exact_ppoa


def g1_doc():
    return {
        "weights": [1, 1],
        "resources": ["a", "b"],
        "strategies": [[["a"], ["b"]], [["a"], ["b"]]],
        "basis": [{"kind": "monomial", "degree": 1}],
        "coefficients": {"a": [1], "b": [1]},
        "alpha": [[1, 0], [0, 1]],
    }


def dump(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ============================================================
# numbers
# ============================================================


def test_parse_number_forms():
    assert parse_number(3, exact=False) == 3
    assert parse_number("3/4", exact=False) == 0.75
    assert parse_number("3/4", exact=True) == F(3, 4)
    assert parse_number(0.25, exact=True) == F(1, 4)
    assert parse_number("7", exact=False) == 7
    assert isinstance(parse_number("7", exact=False), int)


def test_parse_number_rejects_garbage():
    with pytest.raises(GameFileError):
        parse_number(True, exact=False)
    with pytest.raises(GameFileError):
        parse_number("1/0", exact=True)
    with pytest.raises(GameFileError):
        parse_number("pi", exact=False)
    with pytest.raises(GameFileError):
        parse_number(None, exact=False)


def test_emit_number_round_trips_rationals():
    assert emit_number(F(3, 4)) == "3/4"
    assert emit_number(F(5)) == "5"
    assert emit_number(0.5) == 0.5
    assert parse_number(emit_number(F(22, 7)), exact=True) == F(22, 7)


# ============================================================
# games
# ============================================================


def test_load_game_float_mode(tmp_path):
    doc = load_game(dump(tmp_path, g1_doc()))
    assert doc.game.model.weights == (1, 1)
    assert doc.beta is None
    assert doc.epsilon == 0
    assert doc.spec(SUM).beta == ((1, 0), (0, 1))


def test_load_game_exact_mode(tmp_path):
    doc = load_game(dump(tmp_path, g1_doc()), exact=True)
    assert doc.game.model.weights == (F(1), F(1))
    assert isinstance(doc.game.coefficients["a"][0], F)


def test_game_round_trip_exact(tmp_path):
    game = g1(exact=True)
    path = tmp_path / "rt.json"
    write_json(str(path), emit_game(game, beta=((F(1), F(0)), (F(0), F(1))),
                                    epsilon=F(1, 2)))
    doc = load_game(str(path), exact=True)
    assert doc.game.model == game.model
    assert doc.game.coefficients == game.coefficients
    assert doc.game.alpha == game.alpha
    assert doc.epsilon == F(1, 2)
    assert doc.beta == ((F(1), F(0)), (F(0), F(1)))


def test_round_trip_table_basis(tmp_path):
    doc = g1_doc()
    # must cover every reachable load, deviation loads included: 1, 2, 3
    doc["basis"] = [{"kind": "table", "table": {"1": 2, "2": "5/4", "3": 0}}]
    doc["coefficients"] = {"a": [1], "b": [1]}
    loaded = load_game(dump(tmp_path, doc), exact=True)
    f = loaded.game.basis[0]
    assert f.value(2) == F(5, 4)
    # exact-mode rationals come back out as strings, integral ones included
    emitted = emit_game(loaded.game)
    assert emitted["basis"][0]["table"] == {"1": "2", "2": "5/4", "3": "0"}


def test_round_trip_indicator_basis(tmp_path):
    """An indicator basis function is read from {"kind": "indicator"} and
    written back as it, and the game it loads is answered."""
    doc = g1_doc()
    doc["basis"] = [{"kind": "indicator"}, {"kind": "monomial", "degree": 1}]
    doc["coefficients"] = {"a": [1, 1], "b": [3, 0]}
    loaded = load_game(dump(tmp_path, doc), exact=True)
    assert [f.kind for f in loaded.game.basis] == ["indicator", "monomial"]
    assert loaded.game.basis[0].value(F(3)) == 1 and loaded.game.basis[0].value(0) == 0
    emitted = emit_game(loaded.game)
    assert emitted["basis"] == doc["basis"]
    again = load_game(dump(tmp_path, emitted, "again.json"), exact=True)
    assert again.game.basis == loaded.game.basis
    assert again.game.coefficients == loaded.game.coefficients
    # a costs 1 + x and b 3: (a, a) is an equilibrium of cost 6, (a, b) costs 5
    assert exact_ppoa(again.game, again.spec(SUM)) == F(6, 5)


def test_load_game_error_paths(tmp_path):
    with pytest.raises(GameFileError):
        load_game(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GameFileError):
        load_game(str(bad))
    top = tmp_path / "top.json"
    top.write_text("[1, 2]")
    with pytest.raises(GameFileError):
        load_game(str(top))
    for key in ("weights", "resources", "strategies", "basis", "coefficients", "alpha"):
        doc = g1_doc()
        del doc[key]
        with pytest.raises(GameFileError):
            load_game(dump(tmp_path, doc, f"missing_{key}.json"))


def test_load_game_rejects_model_errors_with_path(tmp_path):
    doc = g1_doc()
    doc["alpha"] = [[1, 0]]
    path = dump(tmp_path, doc)
    with pytest.raises(GameFileError) as err:
        load_game(path)
    assert path in str(err.value)


def test_load_game_rejects_bad_basis(tmp_path):
    doc = g1_doc()
    doc["basis"] = [{"kind": "spline"}]
    with pytest.raises(GameFileError):
        load_game(dump(tmp_path, doc))
    doc["basis"] = [{"kind": "table", "table": {}}]
    with pytest.raises(GameFileError):
        load_game(dump(tmp_path, doc))


MALFORMED_FIELDS = {
    "weights-number": ("weights", 3),
    "weights-string": ("weights", "11"),
    "resources-string": ("resources", "ab"),
    "strategies-string": ("strategies", ["ab", [["a"], ["b"]]]),
    "strategy-string": ("strategies", [["a", "b"], [["a"], ["b"]]]),
    "degree-float": ("basis", [{"kind": "monomial", "degree": 1.5}]),
    "degree-string": ("basis", [{"kind": "monomial", "degree": "x"}]),
    "degree-bool": ("basis", [{"kind": "monomial", "degree": True}]),
    "degree-zero": ("basis", [{"kind": "monomial", "degree": 0}]),
    "weights-nan": ("weights", [float("nan"), 1]),
    "weights-too-large-for-float": ("weights", [10**400, 1]),
    "epsilon-negative": ("epsilon", -1),
    "epsilon-infinite": ("epsilon", float("inf")),
    "coefficient-nan": ("coefficients", {"a": [float("nan")], "b": [1]}),
    "coefficient-infinite": ("coefficients", {"a": [float("inf")], "b": [1]}),
    # exponents beyond sys.get_int_max_str_digits(): float mode would take
    # 1e-1000000 as 0.0, exact mode would take either, after Fraction
    # expanded the power in full
    "epsilon-exponent-too-long": ("epsilon", "1e-1000000"),
    "weights-exponent-too-long": ("weights", ["1e1000000", 1]),
    # 4301 digits: too large for a float, and too long for the int repr of
    # the message
    "weights-exponent-at-the-limit": ("weights", ["1e4300", 1]),
}


@pytest.mark.parametrize("case", MALFORMED_FIELDS)
def test_load_game_rejects_malformed_fields(tmp_path, case):
    field, value = MALFORMED_FIELDS[case]
    doc = g1_doc()
    doc[field] = value
    with pytest.raises(GameFileError):
        load_game(dump(tmp_path, doc))


@pytest.mark.parametrize("case", [c for c in MALFORMED_FIELDS if c.endswith("too-long")])
def test_exact_mode_rejects_long_exponents(tmp_path, case):
    field, value = MALFORMED_FIELDS[case]
    doc = g1_doc()
    doc[field] = value
    with pytest.raises(GameFileError, match="exponent"):
        load_game(dump(tmp_path, doc), exact=True)
    with pytest.raises(GameFileError, match="exponent"):
        load_config(dump(tmp_path, {**cfg_doc(), field: value}), exact=True)


def test_load_game_rejects_wrong_coefficient_arity(tmp_path):
    doc = g1_doc()
    doc["coefficients"]["a"] = [1, 2]
    with pytest.raises(GameFileError):
        load_game(dump(tmp_path, doc))


# ============================================================
# configurations
# ============================================================


def cfg_doc():
    return {
        "weights": [1, 1],
        "alpha": [[1, 0], [0, 1]],
        "basis": [{"kind": "monomial", "degree": 1}],
    }


def test_load_config_defaults(tmp_path):
    cfg = load_config(dump(tmp_path, cfg_doc()), exact=True)
    assert cfg.spec.kind == SUM
    assert cfg.epsilon == 0
    assert cfg.spec.beta == ((F(1), F(0)), (F(0), F(1)))


def test_load_config_file_fields(tmp_path):
    doc = cfg_doc()
    doc["sf"] = MAX
    doc["epsilon"] = "1/2"
    doc["beta"] = [[2, 0], [0, 2]]
    cfg = load_config(dump(tmp_path, doc), exact=True)
    assert cfg.spec.kind == MAX
    assert cfg.epsilon == F(1, 2)
    assert cfg.spec.beta[0][0] == F(2)


def test_load_config_argument_overrides(tmp_path):
    doc = cfg_doc()
    doc["sf"] = MAX
    doc["epsilon"] = "1/2"
    cfg = load_config(dump(tmp_path, doc), exact=True, sf=SUM, epsilon=F(1, 4))
    assert cfg.spec.kind == SUM
    assert cfg.epsilon == F(1, 4)


@pytest.mark.parametrize("case", [c for c in MALFORMED_FIELDS if c.startswith(("weights", "degree"))])
def test_load_config_rejects_malformed_fields(tmp_path, case):
    field, value = MALFORMED_FIELDS[case]
    doc = cfg_doc()
    doc[field] = value
    with pytest.raises(GameFileError):
        load_config(dump(tmp_path, doc))


def test_load_config_rejects_unknown_sf(tmp_path):
    doc = cfg_doc()
    doc["sf"] = "median"
    with pytest.raises(GameFileError):
        load_config(dump(tmp_path, doc))


def test_emit_strategies_are_sorted_lists(tmp_path):
    game = g1(exact=True)
    doc = emit_game(game)
    assert doc["strategies"][0] == [["a"], ["b"]]
    assert isinstance(doc["basis"][0]["degree"], int)
