"""JSON game and configuration files.

Numbers may be plain JSON numbers or strings: "3/4" is parsed as a
rational, and so is "0.25".  In exact mode every number becomes a Fraction
(floats via their shortest decimal representation), otherwise everything
becomes int/float and must fit a float.  NaN and infinities are rejected.
Emission mirrors this: rationals are written as "p/q" strings so a file
round-trips losslessly through exact mode.

Game schema: weights, resources, strategies (per player: list of lists of
resource ids), basis (list of {kind, degree?, table?}), coefficients
(resource id -> list, one entry per basis function), alpha (n x n), and
optional beta / epsilon.  A configuration file is the same minus the
model-specific parts: weights, alpha, basis, optional beta / epsilon / sf.
Both kinds read the shared fields with the same code: at least two weights,
a beta that is present is an n x n array (only an absent one means the
identity), and epsilon >= 0.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .games import (
    INDICATOR,
    MONOMIAL,
    SUM,
    TABLE,
    BasisFunction,
    CongestionModel,
    GameError,
    GeneralizedGame,
    SocialSpec,
    identity_matrix,
)
from .formulations import WorstCaseConfig


class GameFileError(GameError):
    """Malformed input file; maps to the validation exit code."""


def parse_number(x, exact: bool):
    """The one way a number enters: a JSON int or float, or a string such as
    "3/4" or "0.25".  NaN and infinities are rejected; in float mode so is
    an integer too large for a float.  A string's exponent may have no more
    digits' worth of magnitude than Python allows an integer string
    (sys.get_int_max_str_digits()), since Fraction expands it in full."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise GameFileError(f"bad number {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise GameFileError(f"numbers must be finite, got {x!r}")
    try:
        if isinstance(x, str):
            exponent = re.search(r"e([-+]?\d[\d_]*)\s*$", x, re.IGNORECASE)
            limit = sys.get_int_max_str_digits()
            if exponent and limit and abs(int(exponent[1])) > limit:
                raise ValueError(f"exponent beyond {limit}, the integer string digit limit")
        f = Fraction(str(x) if isinstance(x, float) else x)
        if exact:
            return f
        value = (int(f) if f.denominator == 1 else float(f)) if isinstance(x, str) else x
        float(value)  # OverflowError when it does not fit
        return value
    except (ValueError, ZeroDivisionError) as err:
        raise GameFileError(f"bad number {x!r}: {err}") from None
    except OverflowError:
        raise GameFileError(f"{x!r:.40} is too large for a float; use --exact") from None


def emit_number(x):
    if isinstance(x, Fraction):
        try:
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise GameError(f"a number to write exceeds {limit} digits, "
                            "the integer string digit limit") from None
    return x


def _matrix(raw, n: int, what: str, exact: bool):
    if not isinstance(raw, list) or len(raw) != n or any(
        not isinstance(row, list) or len(row) != n for row in raw
    ):
        raise GameFileError(f"{what} must be an {n}x{n} array")
    return tuple(tuple(parse_number(x, exact) for x in row) for row in raw)


def _require(doc: dict, key: str):
    if key not in doc:
        raise GameFileError(f"missing field {key!r}")
    return doc[key]


def _array(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise GameFileError(f"{what} must be an array, got {raw!r}")
    return raw


def _read_epsilon(raw, exact: bool, name: str = "epsilon"):
    """eps >= 0, from a file's epsilon field or the --epsilon flag."""
    try:
        eps = parse_number(raw, exact)
    except GameFileError as err:
        raise GameFileError(f"{name}: {err}") from None
    if eps < 0:
        raise GameFileError(f"{name} must be >= 0, got {raw!r}")
    return eps


def _class_fields(doc: dict, exact: bool) -> tuple:
    """weights, alpha, basis, beta and epsilon: the fields game and
    configuration files share.  beta is None when the field is absent."""
    weights = _require(doc, "weights")
    if not isinstance(weights, list) or len(weights) < 2:
        raise GameFileError(
            f"weights must be an array of at least two numbers, got {weights!r:.40}")
    n = len(weights)
    return (
        tuple(parse_number(x, exact) for x in weights),
        _matrix(_require(doc, "alpha"), n, "alpha", exact),
        parse_basis(_require(doc, "basis"), exact),
        _matrix(doc["beta"], n, "beta", exact) if "beta" in doc else None,
        _read_epsilon(doc.get("epsilon", 0), exact),
    )


def _social(kind: str, beta, n: int, exact: bool) -> SocialSpec:
    """The social function of a file; an absent beta is the identity."""
    return SocialSpec(kind, identity_matrix(n, exact=exact) if beta is None else beta)


def parse_basis(raw, exact: bool) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise GameFileError("basis must be a non-empty array")
    out = []
    for item in raw:
        if not isinstance(item, dict) or "kind" not in item:
            raise GameFileError(f"bad basis entry {item!r}")
        kind = item["kind"]
        if kind == MONOMIAL:
            out.append(BasisFunction.monomial(item.get("degree", 1)))
        elif kind == INDICATOR:
            out.append(BasisFunction.indicator())
        elif kind == TABLE:
            table = item.get("table")
            if not isinstance(table, dict) or not table:
                raise GameFileError("table basis entry needs a non-empty table object")
            mapping = {
                parse_number(k, exact): parse_number(v, exact) for k, v in table.items()
            }
            out.append(BasisFunction.lookup(mapping))
        else:
            raise GameFileError(f"unknown basis kind {kind!r}")
    return tuple(out)


def emit_basis(basis) -> list:
    out = []
    for f in basis:
        if f.kind == MONOMIAL:
            out.append({"kind": MONOMIAL, "degree": f.degree})
        elif f.kind == INDICATOR:
            out.append({"kind": INDICATOR})
        else:
            out.append(
                {"kind": TABLE, "table": {str(emit_number(k)): emit_number(v) for k, v in f.table}}
            )
    return out


@dataclass
class GameDocument:
    game: GeneralizedGame
    beta: Optional[tuple]  # None means "not stated"; callers default to identity
    epsilon: object

    def spec(self, kind: str) -> SocialSpec:
        weights = self.game.model.weights
        return _social(kind, self.beta, len(weights), isinstance(weights[0], Fraction))


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise GameFileError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise GameFileError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise GameFileError(f"{path}: top level must be an object")
    return doc


def load_game(path: str, exact: bool = False) -> GameDocument:
    doc = _load(path)
    try:
        weights, alpha, basis, beta, epsilon = _class_fields(doc, exact)
        resources = tuple(str(e) for e in _array(_require(doc, "resources"), "resources"))
        raw_strats = _require(doc, "strategies")
        if not isinstance(raw_strats, list) or len(raw_strats) != len(weights):
            raise GameFileError("strategies must list one entry per player")
        strategies = tuple(
            tuple(frozenset(str(e) for e in _array(strat, f"a strategy of player {i}"))
                  for strat in _array(per, f"strategies of player {i}"))
            for i, per in enumerate(raw_strats)
        )
        model = CongestionModel(weights, resources, strategies)
        raw_coeffs = _require(doc, "coefficients")
        if not isinstance(raw_coeffs, dict):
            raise GameFileError("coefficients must map resource id to an array")
        coeffs = {}
        for e in resources:
            if e not in raw_coeffs:
                raise GameFileError(f"coefficients missing resource {e!r}")
            vec = raw_coeffs[e]
            if not isinstance(vec, list) or len(vec) != len(basis):
                raise GameFileError(
                    f"coefficients[{e!r}] must have {len(basis)} entries"
                )
            coeffs[e] = tuple(parse_number(x, exact) for x in vec)
        game = GeneralizedGame(model, basis, coeffs, alpha)
    except GameError as err:
        raise GameFileError(f"{path}: {err}") from None
    return GameDocument(game, beta, epsilon)


def emit_game(game: GeneralizedGame, beta=None, epsilon=None) -> dict:
    doc = {
        "weights": [emit_number(w) for w in game.model.weights],
        "resources": list(game.model.resources),
        "strategies": [
            [sorted(strat) for strat in per] for per in game.model.strategies
        ],
        "basis": emit_basis(game.basis),
        "coefficients": {
            e: [emit_number(c) for c in game.coefficients[e]]
            for e in game.model.resources
        },
        "alpha": [[emit_number(x) for x in row] for row in game.alpha],
    }
    if beta is not None:
        doc["beta"] = [[emit_number(x) for x in row] for row in beta]
    if epsilon is not None:
        doc["epsilon"] = emit_number(epsilon)
    return doc


def load_config(path: str, exact: bool = False, sf=None, epsilon=None) -> WorstCaseConfig:
    """Worst-case configuration; sf/epsilon arguments override the file."""
    doc = _load(path)
    try:
        weights, alpha, basis, beta, file_epsilon = _class_fields(doc, exact)
        spec = _social(sf if sf is not None else doc.get("sf", SUM), beta, len(weights), exact)
        return WorstCaseConfig(weights, alpha, spec,
                               file_epsilon if epsilon is None else epsilon, basis)
    except GameError as err:
        raise GameFileError(f"{path}: {err}") from None


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
