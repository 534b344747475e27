"""End-to-end command tests: exit codes, payload shape, file side effects.

Commands run in-process through main(); stdout is one JSON document per
invocation.
"""

import json
from fractions import Fraction as F

import pytest

from poacert import formulations, games
from poacert.cli import EXIT_INVARIANT, EXIT_OK, EXIT_VALIDATION, main
from poacert.gamefile import load_game
from poacert.oracle import worst_cce_value

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


def test_exact_ppoa_command(capsys, game_path):
    code, doc = run(capsys, "exact-ppoa", "--game", game_path, "--exact")
    assert code == EXIT_OK
    assert doc["value"] == "1"
    assert doc["optimum"] == "2"
    assert doc["optimum_profile"] == [0, 1]
    assert doc["equilibrium_count"] == 2


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
    verbatim = worst_cce_value(doc.game, doc.spec(games.SUM), 0, games.VERBATIM,
                               exact=True)
    eq1 = worst_cce_value(doc.game, doc.spec(games.SUM), 0, games.EQ1, exact=True)
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


def test_verify_extension_command(capsys, cfg_path, game_path):
    code, doc = run(capsys, "verify-extension", "--config", cfg_path,
                    "--game", game_path, "--seed", "3")
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert doc["trials"] >= 50
    assert doc["failures"] == []


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
