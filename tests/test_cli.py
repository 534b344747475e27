"""End-to-end command tests: exit codes, payload shape, file side effects.

Commands run in-process through main(); stdout is one JSON document per
invocation.
"""

import json
import time
from pathlib import Path
from fractions import Fraction as F

import pytest

from conftest import random_game, random_matrix, seeded
from poacert import cli, formulations, games, linprog as lp
from poacert.cli import EXIT_INVARIANT, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, as_json, main
from poacert.gamefile import emit_game, load_game, write_json
from poacert.oracle import (NO_EQUILIBRIUM, enumerate_eps_pne, exact_ppoa, social_optimum,
                            worst_cce)

CFG = {
    "weights": [1, 1],
    "alpha": [[1, 0], [0, 1]],
    "basis": [{"kind": "monomial", "degree": 1}],
}

GAME = {
    "weights": [1, 1],
    "resources": ["a", "b"],
    "strategies": [[["a"], ["b"]], [["a"], ["b"]]],
    "basis": [{"kind": "monomial", "degree": 1}],
    "coefficients": {"a": [1], "b": [1]},
    "alpha": [[1, 0], [0, 1]],
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return str(p)


@pytest.fixture
def game_path(tmp_path):
    p = tmp_path / "game.json"
    p.write_text(json.dumps(GAME))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ============================================================
# happy paths
# ============================================================


def test_build_representative(capsys, cfg_path):
    code, doc = run(capsys, "build-representative", "--config", cfg_path)
    assert code == EXIT_OK
    assert doc["n"] == 2
    assert doc["resource_count"] == 16
    assert len(doc["players"][0]["sigma_star"]) == 8


def test_solve_worst_case_report(capsys, cfg_path):
    code, doc = run(capsys, "solve-worst-case", "--config", cfg_path)
    assert code == EXIT_OK
    assert doc["status"] == "OPTIMAL"
    assert doc["gamma_star"] == pytest.approx(2.0, rel=1e-6)
    assert doc["settings"]["predicate"] == "eq1"
    assert doc["settings"]["arithmetic"] == "float64"
    assert doc["settings"]["tolerances"] == {
        "feasibility": games.FEAS_TOL,
        "value_rtol": formulations.VALUE_RTOL,
        "mass": games.MASS_TOL,
    }
    assert "threads" not in doc["settings"]
    assert doc["witness"]["equilibrium_value"] == pytest.approx(2.0, rel=1e-6)
    assert doc["witness"]["o_star_value"] <= 1 + 1e-9


def test_solve_worst_case_exact_mode(capsys, cfg_path):
    code, doc = run(capsys, "solve-worst-case", "--config", cfg_path, "--exact")
    assert code == EXIT_OK
    assert doc["gamma_star"] == "2"
    assert doc["settings"]["arithmetic"] == "rational"
    # certified at the float basis: the rational simplex did not run
    assert [v["fallback"] for v in doc["variants"]] == [None]


def test_solve_worst_case_reports_kernel_stats(capsys, cfg_path):
    """Each variant carries its designee program's SolveReport.stats; the
    pivots of its two phases add up to its iterations."""
    code, doc = run(capsys, "solve-worst-case", "--config", cfg_path)
    assert code == EXIT_OK
    for v in doc["variants"]:
        stats = v["stats"]
        assert set(stats) == set(lp.KernelStats._fields)
        assert stats["phase1_pivots"] + stats["phase2_pivots"] == v["iterations"] > 0


def test_solve_worst_case_on_the_1331_max_class(capsys, tmp_path):
    """Weights (1, 3, 3, 1), basis x, x^2, x^3, max, in float: the command
    exited 4 when the float duals missed a certificate row by 4.6e-9; it
    now answers 6760/243 with no designee falling back to rationals."""
    p = tmp_path / "cfg.json"
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    p.write_text(json.dumps({"weights": [1, 3, 3, 1], "alpha": eye, "sf": "max",
                             "basis": [{"kind": "monomial", "degree": k} for k in (1, 2, 3)]}))
    code, doc = run(capsys, "solve-worst-case", "--config", str(p))
    assert code == EXIT_OK
    assert doc["gamma_star"] == pytest.approx(6760 / 243, rel=formulations.VALUE_RTOL)
    assert [v["fallback"] for v in doc["variants"]] == [None] * 4


def test_solve_worst_case_emits_files(capsys, tmp_path, cfg_path):
    wit = tmp_path / "wit.json"
    prog = tmp_path / "prog.mps"
    code, _ = run(capsys, "solve-worst-case", "--config", cfg_path,
                  "--emit-witness", str(wit), "--emit-lp", str(prog))
    assert code == EXIT_OK
    emitted = json.loads(wit.read_text())
    assert set(emitted) >= {"weights", "resources", "strategies", "coefficients"}
    assert prog.exists() and (tmp_path / "prog.mps.dual").exists()
    text = prog.read_text()
    assert text.startswith("* problem:") and "\nNAME" in text


def test_witness_round_trip_closes_the_loop(capsys, tmp_path, cfg_path):
    """The emitted worst-case game must reproduce gamma_star through the
    independent oracle commands."""
    wit = tmp_path / "wit.json"
    code, doc = run(capsys, "solve-worst-case", "--config", cfg_path,
                    "--emit-witness", str(wit))
    assert code == EXIT_OK
    code, poa = run(capsys, "exact-ppoa", "--game", str(wit))
    assert code == EXIT_OK
    assert poa["value"] == pytest.approx(doc["gamma_star"], rel=1e-6)
    code, cce = run(capsys, "cce-poa", "--game", str(wit))
    assert code == EXIT_OK
    assert cce["ccpoa"] >= poa["value"] - 1e-6


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_solve_worst_case_rechecks_its_witness(capsys, tmp_path, cfg_path, exact):
    """The witness block gives the witness's resource count, at most 4n,
    and the oracle's pure PoA of the witness, which is gamma* itself."""
    wit = tmp_path / "wit.json"
    code, doc = run(capsys, "solve-worst-case", "--config", cfg_path,
                    "--emit-witness", str(wit), *(["--exact"] if exact else []))
    assert code == EXIT_OK
    block = doc["witness"]
    if exact:
        assert block["oracle_ppoa"] == doc["gamma_star"] == "2"
    else:
        assert block["oracle_ppoa"] == pytest.approx(doc["gamma_star"], rel=1e-12)
    assert block["resources"] == len(json.loads(wit.read_text())["resources"]) <= 4 * 2


def test_exact_ppoa_command(capsys, game_path):
    code, doc = run(capsys, "exact-ppoa", "--game", game_path, "--exact")
    assert code == EXIT_OK
    assert doc["value"] == "1"
    assert doc["optimum"] == "2"
    assert doc["optimum_profile"] == [0, 1]
    assert doc["equilibrium_count"] == 2


# player 0 picks a or b, player 1 only c; b costs 10^-11 more than a, so
# in exact arithmetic (0, 0) is the one equilibrium and (1, 0) is not
NEAR_TIE = {
    "weights": [1, 1],
    "resources": ["a", "b", "c"],
    "strategies": [[["a"], ["b"]], [["c"]]],
    "basis": [{"kind": "monomial", "degree": 1}],
    "coefficients": {"a": [1], "b": ["100000000001/100000000000"], "c": [1]},
    "alpha": [[1, 0], [0, 1]],
}


def test_exact_equilibrium_tests_compare_gaps_with_zero(capsys, tmp_path):
    """An exact deviation gap of 10^-11 rules a profile out; FEAS_TOL
    stays the slack of float gaps only."""
    path = str(tmp_path / "near_tie.json")
    write_json(path, NEAR_TIE)
    game = load_game(path, True).game
    for predicate in (games.EQ1, games.VERBATIM):
        assert not games.is_eps_pne(game, (1, 0), 0, predicate)
        assert not games.is_eps_cce(game, games.ProfileDistribution.point((1, 0)), 0, predicate)
        assert enumerate_eps_pne(game, 0, predicate) == [(0, 0)]
        assert exact_ppoa(game, load_game(path, True).spec("sum"), 0, predicate) == 1
    code, doc = run(capsys, "exact-ppoa", "--game", path, "--exact")
    assert code == EXIT_OK
    assert (doc["value"], doc["equilibrium_count"], doc["worst_equilibria"]) == ("1", 1, [[0, 0]])
    code, doc = run(capsys, "cce-poa", "--game", path, "--exact")
    assert code == EXIT_OK and doc["ccpoa"] == "1"
    code, doc = run(capsys, "exact-ppoa", "--game", path)
    assert code == EXIT_OK and doc["equilibrium_count"] == 2


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_exact_ppoa_report_matches_the_oracles(capsys, tmp_path, game_path, exact):
    """Every field of the exact-ppoa report, worst_equilibria included, is
    what social_optimum, enumerate_eps_pne and social_value give: on the
    two-link game (two worst equilibria at eps = 1) and seeded game files."""
    basis = (games.BasisFunction.monomial(1), games.BasisFunction.monomial(2))
    one = F(1) if exact else 1.0
    flags = ["--exact"] if exact else []
    paths = [game_path]
    for seed in range(6):
        rng = seeded(seed)
        n = 2 + seed % 2
        weights = tuple(one * rng.choice((1, 2, 3)) / 2 for _ in range(n))
        alpha = games.identity_matrix(n, exact)
        if seed % 3 == 0:
            alpha = random_matrix(rng, n, -1, 1, exact)
        beta = random_matrix(rng, n, 0, 1, exact)
        if not any(b for row in beta for b in row):
            beta = games.identity_matrix(n, exact)
        paths.append(str(tmp_path / f"game{seed}.json"))
        write_json(paths[-1], emit_game(random_game(rng, weights, basis, alpha, exact), beta))
    checked = ties = 0
    for path in paths:
        loaded = load_game(path, exact)
        for sf in (games.SUM, games.MAX):
            spec = loaded.spec(sf)
            opt_profile, opt = social_optimum(loaded.game, spec)
            if opt == 0:
                continue
            for predicate in (games.EQ1, games.VERBATIM):
                for eps in (0, 1):
                    equilibria = enumerate_eps_pne(loaded.game, eps, predicate)
                    values = [games.social_value(spec, loaded.game, p) for p in equilibria]
                    worst = max(values, default=None)
                    want = {
                        "value": NO_EQUILIBRIUM if worst is None else worst / opt,
                        "optimum": opt,
                        "optimum_profile": opt_profile,
                        "equilibrium_count": len(equilibria),
                        "worst_equilibria": [p for p, v in zip(equilibria, values) if v == worst],
                    }
                    code, doc = run(capsys, "exact-ppoa", "--game", path, "--sf", sf,
                                    "--predicate", predicate, "--epsilon", str(eps), *flags)
                    assert code == EXIT_OK
                    got = {key: doc[key] for key in want}
                    assert got == json.loads(json.dumps(as_json(want))), (path, sf, predicate, eps)
                    checked += 1
                    ties += len(want["worst_equilibria"]) > 1
    assert checked >= 40 and ties >= 2


def test_exact_ppoa_epsilon_fraction_flag(capsys, game_path):
    code, doc = run(capsys, "exact-ppoa", "--game", game_path, "--exact",
                    "--epsilon", "1")
    assert code == EXIT_OK
    assert doc["value"] == "2"


def test_cce_poa_command(capsys, game_path):
    code, doc = run(capsys, "cce-poa", "--game", game_path, "--exact")
    assert code == EXIT_OK
    assert doc["value"] == "3"
    assert doc["ccpoa"] == "3/2"
    masses = {tuple(entry["profile"]): entry["mass"] for entry in doc["distribution"]}
    assert masses == {(0, 0): "1/4", (0, 1): "1/4", (1, 0): "1/4", (1, 1): "1/4"}


def test_cce_poa_runs_and_reports_the_verbatim_predicate(capsys, tmp_path):
    # off-diagonal alpha: the verbatim and eq1 coarse sets differ here
    p = tmp_path / "off_diagonal.json"
    p.write_text(json.dumps({**GAME, "coefficients": {"a": [1], "b": [2]},
                             "alpha": [[1, "-3/4"], ["9/10", 1]]}))
    doc = load_game(str(p), exact=True)
    verbatim = worst_cce(doc.game, doc.spec(games.SUM), 0, games.VERBATIM).value
    eq1 = worst_cce(doc.game, doc.spec(games.SUM), 0, games.EQ1).value
    assert verbatim != eq1
    code, out = run(capsys, "cce-poa", "--game", str(p), "--exact")
    assert code == EXIT_OK
    assert out["settings"]["predicate"] == "verbatim"
    assert F(out["value"]) == verbatim


def test_enumerate_pne_command(capsys, game_path):
    code, doc = run(capsys, "enumerate-pne", "--game", game_path)
    assert code == EXIT_OK
    assert doc["profiles"] == [[0, 1], [1, 0]]
    code, doc = run(capsys, "enumerate-pne", "--game", game_path, "--epsilon", "1")
    assert doc["count"] == 4


def test_normalize_command(capsys, tmp_path, game_path):
    out = tmp_path / "normalized.json"
    code, doc = run(capsys, "normalize", "--game", game_path, "--exact",
                    "--emit-witness", str(out))
    assert code == EXIT_OK
    assert doc["optimum_before"] == "2"
    emitted = json.loads(out.read_text())
    assert emitted["coefficients"]["a"] == ["1/2"]


def test_normalize_writes_the_arithmetic_it_reports(capsys, tmp_path):
    """A game of integers normalizes in floats, as its settings say, and
    in rationals under --exact, whose default beta is written as JSON
    ints.  Optimum 7: player 1 alone on b, player 2 alone on a."""
    path = tmp_path / "game.json"
    path.write_text(json.dumps({**GAME, "weights": [1, 2], "coefficients": {"a": [1], "b": [3]}}))
    code, doc = run(capsys, "normalize", "--game", str(path))
    assert code == EXIT_OK and doc["settings"]["arithmetic"] == "float64"
    assert isinstance(doc["optimum_before"], float) and doc["optimum_before"] == 7
    assert doc["game"]["coefficients"] == {"a": [1 / 7], "b": [3 / 7]}
    code, doc = run(capsys, "normalize", "--game", str(path), "--exact")
    assert code == EXIT_OK and doc["settings"]["arithmetic"] == "rational"
    assert doc["optimum_before"] == "7"
    assert doc["game"]["coefficients"] == {"a": ["1/7"], "b": ["3/7"]}
    assert doc["game"]["beta"] == [[1, 0], [0, 1]]


def test_verify_extension_command(capsys, cfg_path, game_path):
    code, doc = run(capsys, "verify-extension", "--config", cfg_path,
                    "--game", game_path, "--seed", "3")
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert doc["trials"] >= 50
    assert doc["failures"] == []


def test_exact_verify_extension_draws_exact_masses(capsys, cfg_path, game_path):
    """Under --exact the trials' masses are the float draws read as
    Fractions and normalised exactly, so the coarse check runs in
    rationals: the tight unit certificate has no rounding to report."""
    code, doc = run(capsys, "verify-extension", "--config", cfg_path,
                    "--game", game_path, "--exact")
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert doc["worst_violation"] == 0


def test_smoothness_command(capsys, game_path):
    code, doc = run(capsys, "smoothness", "--game", game_path)
    assert code == EXIT_OK
    assert doc["sum_bounded"] is True
    assert doc["robust_poa"] == pytest.approx(5 / 3, abs=1e-4)
    assert doc["bounds_hold"] == {"ppoa": True, "ccpoa": True}
    assert doc["exact_ccpoa"] == pytest.approx(1.5, rel=1e-9)


def test_smoothness_command_exact(capsys, game_path):
    code, doc = run(capsys, "smoothness", "--game", game_path, "--exact")
    assert code == EXIT_OK
    assert doc["robust_poa"] == "5/3"
    assert (doc["lambda"], doc["mu"]) == ("5/2", "-1/2")
    assert doc["exact_ccpoa"] == "3/2"
    assert doc["bounds_hold"] == {"ppoa": True, "ccpoa": True}


def test_smoothness_exact_on_eight_profiles_is_fast(capsys, tmp_path):
    """smoothness --exact on three players with two strategies each prints
    the exact robust PoA in under a second."""
    basis = (games.BasisFunction.monomial(1), games.BasisFunction.monomial(2))
    game = random_game(seeded(0), (F(1), F(3, 2), F(1)), basis,
                       games.identity_matrix(3, True), exact=True)
    assert game.model.profile_count() == 8
    path = str(tmp_path / "eight.json")
    write_json(path, emit_game(game))
    start = time.perf_counter()
    code, doc = run(capsys, "smoothness", "--game", path, "--exact")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert doc["robust_poa"] == "737483/241895"
    assert doc["bounds_hold"] == {"ppoa": True, "ccpoa": True}


@pytest.mark.parametrize("command", ["smoothness", "exact-ppoa", "cce-poa", "enumerate-pne"])
def test_cap_counts_profiles(capsys, game_path, command):
    # the game has 4 pure profiles (16 smoothness pairs): a cap of 5 admits
    # it for every command, a cap of 3 for none
    assert main([command, "--game", game_path, "--cap", "5"]) == EXIT_OK
    capsys.readouterr()
    assert main([command, "--game", game_path, "--cap", "3"]) == EXIT_VALIDATION
    assert "cap" in capsys.readouterr().err


def test_max_flag_overrides_config(capsys, cfg_path):
    code, doc = run(capsys, "solve-worst-case", "--config", cfg_path,
                    "--sf", "max", "--exact")
    assert code == EXIT_OK
    assert doc["gamma_star"] == "2"
    assert doc["designated"] in (0, 1)


# ============================================================
# failure paths
# ============================================================


def test_missing_file_is_validation_error(capsys):
    code = main(["solve-worst-case", "--config", "/nonexistent.json"])
    assert code == EXIT_VALIDATION
    assert "cannot read" in capsys.readouterr().err


def test_malformed_game_is_validation_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"weights": [1, 1]}))
    code = main(["exact-ppoa", "--game", str(p)])
    assert code == EXIT_VALIDATION
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("weights", 3),
    ("weights", "11"),
    ("basis", [{"kind": "monomial", "degree": 1.5}]),
    ("basis", [{"kind": "monomial", "degree": "x"}]),
    ("basis", [{"kind": "monomial", "degree": True}]),
    ("beta", 0),
    ("beta", []),
    ("beta", None),
    ("weights", [float("nan"), 1]),
    ("epsilon", float("inf")),
    ("weights", [10**400, 1]),
], ids=["weights-number", "weights-string", "degree-float", "degree-string", "degree-bool",
        "beta-zero", "beta-empty", "beta-null", "weights-nan", "epsilon-infinite",
        "weights-too-large-for-float"])
def test_malformed_config_is_validation_error(capsys, tmp_path, field, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**CFG, field: value}))
    assert main(["solve-worst-case", "--config", str(p)]) == EXIT_VALIDATION
    assert "cfg.json" in capsys.readouterr().err


# (command, input flag, file contents, further argv, what stderr must name)
MALFORMED_RUNS = {
    "build-representative-weights-number":
        ("build-representative", "--config", {**CFG, "weights": 3}, (), "input.json"),
    "build-representative-weights-string":
        ("build-representative", "--config", {**CFG, "weights": "11"}, (), "input.json"),
    "build-representative-weights-nan":
        ("build-representative", "--game", {**GAME, "weights": [1, float("nan")]}, (),
         "input.json"),
    "config-weights-empty":
        ("solve-worst-case", "--config", {**CFG, "weights": [], "alpha": []}, (),
         "at least two"),
    "exact-ppoa-epsilon-negative":
        ("exact-ppoa", "--game", {**GAME, "epsilon": -1}, (), "input.json"),
    "cce-poa-epsilon-negative":
        ("cce-poa", "--game", {**GAME, "epsilon": -1}, (), "input.json"),
    "enumerate-pne-epsilon-flag-negative":
        ("enumerate-pne", "--game", GAME, ("--epsilon", "-5"), "--epsilon"),
    "exact-ppoa-coefficient-nan":
        ("exact-ppoa", "--game", {**GAME, "coefficients": {"a": [float("nan")], "b": [1]}},
         (), "input.json"),
    "smoothness-coefficient-infinite":
        ("smoothness", "--game", {**GAME, "coefficients": {"a": [float("inf")], "b": [1]}},
         (), "input.json"),
    "solve-worst-case-float-overflow":
        ("solve-worst-case", "--config",
         {**CFG, "weights": [1e308, 1e308], "basis": [{"kind": "monomial", "degree": 3}]},
         (), "--exact"),
    "solve-worst-case-float-load-overflow":
        ("solve-worst-case", "--config",
         {**CFG, "weights": [1e308, 1e308], "basis": [{"kind": "monomial", "degree": 1}]},
         (), "--exact"),
    "solve-worst-case-epsilon-exponent-too-long":
        ("solve-worst-case", "--config", {**CFG, "epsilon": "1e-1000000"}, (), "epsilon"),
    # accepted, since the exponent is at the limit, but 10^4300 has 4301 digits
    "solve-worst-case-exact-output-too-long":
        ("solve-worst-case", "--config", {**CFG, "weights": ["1e4300", "1"]}, ("--exact",),
         "digit limit"),
    "build-representative-exact-output-too-long":
        ("build-representative", "--config", {**CFG, "weights": ["1e4300", "1"]}, ("--exact",),
         "digit limit"),
}


@pytest.mark.parametrize("case", MALFORMED_RUNS)
def test_malformed_input_exits_2_and_names_it(capsys, tmp_path, case):
    command, flag, doc, argv, named = MALFORMED_RUNS[case]
    p = tmp_path / "input.json"
    p.write_text(json.dumps(doc))
    assert main([command, flag, str(p), *argv]) == EXIT_VALIDATION
    assert named in capsys.readouterr().err


# game files whose basis, strategies or coefficients load_game refuses
MALFORMED_GAMES = {
    "basis-empty": {**GAME, "basis": []},
    "basis-entry-without-kind": {**GAME, "basis": [{"degree": 1}]},
    "strategies-for-one-player": {**GAME, "strategies": [[["a"], ["b"]]]},
    "coefficients-array": {**GAME, "coefficients": [[1], [1]]},
    "coefficients-missing-a-resource": {**GAME, "coefficients": {"a": [1]}},
}


@pytest.mark.parametrize("case", MALFORMED_GAMES)
def test_a_malformed_game_file_exits_2_and_names_it(capsys, tmp_path, case):
    p = tmp_path / "game.json"
    p.write_text(json.dumps(MALFORMED_GAMES[case]))
    assert main(["exact-ppoa", "--game", str(p)]) == EXIT_VALIDATION
    assert str(p) in capsys.readouterr().err


@pytest.mark.parametrize("error, code, prefix", [
    (lp.SolverError("no basis"), EXIT_SOLVER, "poacert: solver failure: no basis"),
    (formulations.InvariantViolation("gap"), EXIT_INVARIANT,
     "poacert: invariant violated (this is a bug): gap"),
])
def test_solver_and_invariant_failures_exit_3_and_4(capsys, monkeypatch, cfg_path, error,
                                                     code, prefix):
    def fail(cfg, exact=False):
        raise error

    monkeypatch.setattr(cli, "solve_worst_case", fail)
    assert main(["solve-worst-case", "--config", cfg_path]) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.fixture
def infinite_cfg_path(tmp_path):
    """Weights 1, 1, alpha 0 and basis x: no player perceives a cost, so
    the worst case is INFINITE."""
    p = tmp_path / "infinite.json"
    p.write_text(json.dumps({**CFG, "alpha": [[0, 0], [0, 0]]}))
    return str(p)


def test_an_infinite_class_emits_no_witness(capsys, tmp_path, infinite_cfg_path):
    wit = tmp_path / "wit.json"
    code, doc = run(capsys, "solve-worst-case", "--config", infinite_cfg_path,
                    "--emit-witness", str(wit))
    assert code == EXIT_OK
    assert doc["status"] == "INFINITE"
    assert doc["witness"] == {"note": "no witness for INFINITE status"}
    assert not wit.exists()


MAX_CFG = {
    "weights": [1, 2],
    "alpha": [[1, 0.5], [-0.25, 1]],
    "beta": [[1, 0.5], [0, 1]],
    "sf": "max",
    "epsilon": 0.5,
    "basis": [{"kind": "monomial", "degree": 1}, {"kind": "monomial", "degree": 2}],
}
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("config, golden", [
    (CFG, "sum"), (MAX_CFG, "max"), ({**CFG, "alpha": [[0, 0], [0, 0]]}, "infinite")])
@pytest.mark.parametrize("exact", [False, True])
def test_solve_worst_case_prints_the_pinned_report(capsys, tmp_path, config, golden, exact):
    """solve-worst-case prints, byte for byte, the report pinned in
    tests/golden when the certificate was a dict keyed by name: its
    dual_solution is {name: value} in build_dp_pne's variable order, {}
    for an INFINITE class, formatted from the certificate's positions."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    code = main(["solve-worst-case", "--config", str(p)] + ["--exact"] * exact)
    assert code == EXIT_OK
    want = GOLDEN / f"solve_worst_case_{golden}{'_exact' if exact else ''}.json"
    assert capsys.readouterr().out == want.read_text()


def test_selftest_stops_drawing_at_the_first_failed_extension(capsys, monkeypatch):
    """selftest checks each finite class's certificate on up to 5 random
    trials and stops drawing at the first failure."""
    checked = []

    def failing(*args):
        checked.append(args[4])
        return formulations.ExtensionReport(False, 1, 1.0, "r[v[a][0]]")

    monkeypatch.setattr(cli, "verify_extension", failing)
    code, doc = run(capsys, "selftest", "--seed", "3")
    assert code == EXIT_INVARIANT
    extension = [c for c in doc["checks"] if c["name"].endswith(" extension")]
    assert extension and not any(c["ok"] for c in extension)
    assert {c["detail"] for c in extension} == {"row r[v[a][0]]"}
    assert len(checked) == len(extension)


def test_an_infinite_class_has_no_certificate_to_extend(capsys, infinite_cfg_path, game_path):
    code = main(["verify-extension", "--config", infinite_cfg_path, "--game", game_path])
    assert code == EXIT_VALIDATION
    assert "configuration has no finite certificate to extend" in capsys.readouterr().err


def test_smoothness_exits_4_when_a_bound_fails(capsys, monkeypatch, game_path):
    validate = cli.validate_smoothness_claims

    def failing(game, spec, cap):
        report = validate(game, spec, cap)
        report.ccpoa_within_bound = False
        return report

    monkeypatch.setattr(cli, "validate_smoothness_claims", failing)
    code, doc = run(capsys, "smoothness", "--game", game_path)
    assert code == EXIT_INVARIANT
    assert doc["bounds_hold"] == {"ppoa": True, "ccpoa": False}


def test_table_over_subset_sums_yields_a_witness(capsys, tmp_path):
    # fair cost sharing on two unit players: loads 1 and 2 are all that any
    # profile or deviation reaches
    p = tmp_path / "cfg.json"
    table = {"kind": "table", "table": {"1": 1, "2": "1/2"}}
    p.write_text(json.dumps({**CFG, "basis": [table]}))
    code, doc = run(capsys, "solve-worst-case", "--config", str(p), "--exact")
    assert code == EXIT_OK
    assert doc["gamma_star"] == "2"
    assert doc["witness"]["equilibrium_value"] == "2"
    assert doc["witness"]["o_star_value"] == "1"


def test_command_requires_its_input(capsys, game_path):
    # solve-worst-case with neither --config nor --game
    code = main(["solve-worst-case"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ("smoothness", "--epsilon", "0.5"),
    ("selftest", "--exact"),
    ("cce-poa", "--predicate", "eq1"),
    ("normalize", "--cap", "5"),
    ("solve-worst-case", "--seed", "3"),
    # reads one of the two, so the other would go unread
    ("build-representative", "--config", "cfg.json", "--game", "game.json"),
])
def test_flag_the_command_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == EXIT_VALIDATION


def test_selftest_smoke(capsys):
    code, doc = run(capsys, "selftest", "--seed", "7")
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])
