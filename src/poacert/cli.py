"""poacert command line interface.

Every subcommand prints one JSON report to stdout and exits 0.  Exit 2
signals bad input (files, flags, caps), exit 3 a solver failure, and exit
4 a violated invariant that the underlying theory guarantees — 4 is
always a bug somewhere, never a property of the instance.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import linprog as lp
from .formulations import (
    INFINITE,
    VALUE_RTOL,
    InvariantViolation,
    WorstCaseConfig,
    _close,
    build_dp_pne,
    build_pp_pne,
    extract_worst_game,
    lemma1_witness,
    normalize_game,
    solve_worst_case,
    verify_extension,
)
from .games import (
    EQ1,
    FEAS_TOL,
    MASS_TOL,
    MAX,
    SUM,
    VERBATIM,
    BasisFunction,
    GameError,
    ProfileDistribution,
    SocialSpec,
    identity_matrix,
    social_value,
)
from .gamefile import (
    GameFileError,
    _read_epsilon,
    emit_game,
    emit_number,
    load_config,
    load_game,
    write_json,
)
from .oracle import (
    NO_EQUILIBRIUM,
    PROFILE_CAP,
    enumerate_eps_pne,
    exact_ppoa,
    social_optimum,
    worst_cce,
)
from .representative import build_representative
from .smoothness import NOT_SMOOTHABLE, validate_smoothness_claims

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


def as_json(x):
    """Recursively rewrite values into JSON-encodable form."""
    if isinstance(x, Fraction):
        return emit_number(x)
    if isinstance(x, dict):
        return {str(k): as_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [as_json(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(as_json(v) for v in x)
    if is_dataclass(x) and not isinstance(x, type):
        return as_json(asdict(x))
    return x


def _settings(args, resolved: dict) -> dict:
    """The settings that ran: the subcommand's own flags and fixed settings,
    then the values it resolved from its input files."""
    settings = {key: value for key, value in vars(args).items()
                if key in ("sf", "predicate", "seed", "cap")}
    settings.update(resolved)
    settings["arithmetic"] = "rational" if args.exact else "float64"
    settings["tolerances"] = {
        "feasibility": FEAS_TOL,
        "value_rtol": VALUE_RTOL,
        "mass": MASS_TOL,
    }
    return settings


def _emit(args, payload: dict, **resolved) -> int:
    doc = {"command": args.command, "settings": _settings(args, resolved)}
    doc.update(payload)
    json.dump(as_json(doc), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _epsilon(args, default):
    if args.epsilon is None:
        return default
    return _read_epsilon(args.epsilon, args.exact, "--epsilon")


def _need(args, flag: str):
    value = getattr(args, flag.strip("-").replace("-", "_"))
    if value is None:
        raise GameFileError(f"{args.command} requires {flag}")
    return value


# ============================================================
# subcommands
# ============================================================


def cmd_build_representative(args) -> int:
    if args.config is not None:
        weights = load_config(args.config, args.exact).weights
    else:
        weights = load_game(args.game, args.exact).game.model.weights
    rep = build_representative(weights)
    model = rep.model
    return _emit(args, {
        "n": model.n,
        "weights": list(model.weights),
        "resource_count": len(model.resources),
        "resources": list(model.resources),
        "players": [
            {
                "sigma_star": sorted(model.strategies[i][rep.sigma_star[i]]),
                "o_star": sorted(model.strategies[i][rep.o_star[i]]),
            }
            for i in range(model.n)
        ],
    })


def cmd_solve_worst_case(args) -> int:
    cfg = load_config(_need(args, "--config"), args.exact, args.sf, _epsilon(args, None))
    result = solve_worst_case(cfg, exact=args.exact)
    payload = {
        "status": result.status,
        "gamma_star": result.gamma_star,
        "designated": result.designated,
        "variants": [
            {
                "designated": v.designated,
                "status": v.status,
                "dp_value": v.dp_value,
                "pp_value": v.pp_value,
                "iterations": v.iterations,
            }
            for v in result.variants
        ],
        "dual_solution": result.dual_solution,
    }
    if result.status != INFINITE:
        game = extract_worst_game(cfg, result.rep, result.primal_solution,
                                  result.designated)
        payload["witness"] = {
            "equilibrium_value": social_value(cfg.spec, game, result.rep.sigma_star),
            "o_star_value": social_value(cfg.spec, game, result.rep.o_star),
            "support": sorted(
                e for e, c in game.coefficients.items() if any(x != 0 for x in c)
            ),
        }
        if args.emit_witness:
            write_json(args.emit_witness, emit_game(game, cfg.spec.beta, cfg.epsilon))
            payload["witness"]["path"] = args.emit_witness
    elif args.emit_witness:
        payload["witness"] = {"note": "no witness for INFINITE status"}
    if args.emit_lp:
        pp = build_pp_pne(cfg, result.rep, result.designated)
        dp = build_dp_pne(cfg, result.rep, result.designated)
        with open(args.emit_lp, "w") as fh:
            fh.write(lp.to_fixed_format(pp))
        with open(args.emit_lp + ".dual", "w") as fh:
            fh.write(lp.to_fixed_format(dp))
        payload["lp_paths"] = [args.emit_lp, args.emit_lp + ".dual"]
    return _emit(args, payload, epsilon=cfg.epsilon, sf=cfg.spec.kind)


def cmd_exact_ppoa(args) -> int:
    doc = load_game(_need(args, "--game"), args.exact)
    eps = _epsilon(args, doc.epsilon)
    spec = doc.spec(args.sf)
    opt_profile, opt = social_optimum(doc.game, spec, args.cap)
    equilibria = enumerate_eps_pne(doc.game, eps, args.predicate, cap=args.cap)
    value = exact_ppoa(doc.game, spec, eps, args.predicate, cap=args.cap)
    worst = []
    if value != NO_EQUILIBRIUM:
        target = max(social_value(spec, doc.game, prof) for prof in equilibria)
        worst = [prof for prof in equilibria
                 if social_value(spec, doc.game, prof) == target]
    return _emit(args, {
        "value": value,
        "optimum": opt,
        "optimum_profile": opt_profile,
        "equilibrium_count": len(equilibria),
        "worst_equilibria": worst,
    }, epsilon=eps)


def cmd_cce_poa(args) -> int:
    doc = load_game(_need(args, "--game"), args.exact)
    eps = _epsilon(args, doc.epsilon)
    spec = doc.spec(args.sf)
    _, opt = social_optimum(doc.game, spec, args.cap)
    if opt == 0:
        raise GameError("social optimum is 0; the ratio is undefined")
    report = worst_cce(doc.game, spec, eps, args.predicate, args.cap, args.exact)
    return _emit(args, {
        "value": report.value,
        "optimum": opt,
        "ccpoa": report.value / opt,
        "player": report.player,
        "distribution": [
            {"profile": prof, "mass": mass}
            for prof, mass in sorted(report.distribution.masses.items())
        ],
    }, epsilon=eps)


def cmd_enumerate_pne(args) -> int:
    doc = load_game(_need(args, "--game"), args.exact)
    eps = _epsilon(args, doc.epsilon)
    profiles = enumerate_eps_pne(doc.game, eps, args.predicate, cap=args.cap)
    return _emit(args, {"count": len(profiles), "profiles": profiles}, epsilon=eps)


def cmd_normalize(args) -> int:
    doc = load_game(_need(args, "--game"), args.exact)
    spec = doc.spec(args.sf)
    game, factor = normalize_game(doc.game, spec)
    emitted = emit_game(game, spec.beta, doc.epsilon)
    if args.emit_witness:
        write_json(args.emit_witness, emitted)
    return _emit(args, {"optimum_before": factor, "game": emitted}, epsilon=doc.epsilon)


def _random_trials(rng, model, count: int):
    """count random (distribution, comparison profile) pairs over model's
    pure profiles, lazily: each draws the profile masses, then o."""
    profiles = list(model.profiles())
    for _ in range(count):
        raw = [rng.random() for _ in profiles]
        total = sum(raw)
        dist = ProfileDistribution({prof: m / total for prof, m in zip(profiles, raw)})
        yield dist, tuple(rng.randrange(len(per)) for per in model.strategies)


def cmd_verify_extension(args) -> int:
    cfg = load_config(_need(args, "--config"), args.exact, args.sf, _epsilon(args, None))
    doc = load_game(_need(args, "--game"), args.exact)
    model = doc.game.model
    result = solve_worst_case(cfg, exact=args.exact)
    if result.status == INFINITE:
        raise GameFileError("configuration has no finite certificate to extend")
    trials = 50
    failures = []
    worst = 0
    for t, (dist, o_profile) in enumerate(_random_trials(random.Random(args.seed), model, trials)):
        rep = verify_extension(cfg, result.dual_solution, model, dist, o_profile,
                               result.designated)
        if rep.worst_violation > worst:
            worst = rep.worst_violation
        if not rep.ok:
            failures.append({"trial": t, "o": o_profile,
                             "row": rep.first_violated,
                             "violation": rep.worst_violation})
    code = _emit(args, {
        "gamma_star": result.gamma_star,
        "trials": trials,
        "failures": failures,
        "worst_violation": worst,
        "ok": not failures,
    }, epsilon=cfg.epsilon, sf=cfg.spec.kind)
    return code if not failures else EXIT_INVARIANT


def cmd_smoothness(args) -> int:
    doc = load_game(_need(args, "--game"), args.exact)
    spec = doc.spec(args.sf)
    report = validate_smoothness_claims(doc.game, spec, cap=args.cap)
    robust = report.robust
    payload = {
        "sum_bounded": report.sum_bounded,
        "sum_bounded_witness": report.sum_bounded_witness,
        "robust_poa": robust.value if robust.status != NOT_SMOOTHABLE else NOT_SMOOTHABLE,
        "lambda": robust.lam,
        "mu": robust.mu,
        "probes": robust.probes,
        "exact_ppoa": report.ppoa,
        "exact_ccpoa": report.ccpoa,
        "bounds_hold": {"ppoa": report.ppoa_within_bound,
                        "ccpoa": report.ccpoa_within_bound},
        "gaps": {"tightness": report.tightness_gap},
    }
    code = _emit(args, payload, epsilon=0)
    if report.sum_bounded and (report.ppoa_within_bound is False
                               or report.ccpoa_within_bound is False):
        return EXIT_INVARIANT
    return code


def _selftest_configs():
    one = 1.0
    idm = lambda n: identity_matrix(n)
    rng = random.Random(7)
    for n in (2, 3):
        for kind in (SUM, MAX):
            for eps in (0, 0.5):
                for basis in ((BasisFunction.monomial(1),),
                              (BasisFunction.monomial(1), BasisFunction.monomial(2),
                               BasisFunction.indicator())):
                    alpha = idm(n)
                    beta = idm(n)
                    yield WorstCaseConfig((one,) * n, alpha, SocialSpec(kind, beta),
                                          eps, basis)
                    rand_alpha = tuple(
                        tuple(rng.uniform(-1, 1) for _ in range(n)) for _ in range(n)
                    )
                    rand_beta = tuple(
                        tuple(rng.uniform(0, 1) for _ in range(n)) for _ in range(n)
                    )
                    yield WorstCaseConfig((one,) * n, rand_alpha,
                                          SocialSpec(kind, rand_beta), eps, basis)


def cmd_selftest(args) -> int:
    checks = []
    ok_all = True

    def record(name, ok, detail=""):
        nonlocal ok_all
        ok_all = ok_all and ok
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    rng = random.Random(args.seed)
    for idx, cfg in enumerate(_selftest_configs()):
        tag = f"cfg{idx}[n={cfg.n},{cfg.spec.kind},eps={cfg.epsilon}]"
        try:
            result = solve_worst_case(cfg)
        except InvariantViolation as err:
            record(f"{tag} solve", False, str(err))
            continue
        rep = result.rep
        wit = lemma1_witness(cfg, rep)
        pp = build_pp_pne(cfg, rep, wit.designated)
        feas, label, viol = lp.feasibility_report(pp, wit.values, FEAS_TOL)
        obj = sum(pp.objective.get(v, 0) * x for v, x in wit.values.items())
        record(f"{tag} witness", feas and abs(obj - 1) <= FEAS_TOL,
               f"objective {obj}, worst violation {viol}")
        if result.status == INFINITE:
            record(f"{tag} status", True, "INFINITE")
            continue
        dual_of_pp = lp.solve(lp.dualize(build_pp_pne(cfg, rep, result.designated)))
        agree = _close(dual_of_pp.value, result.gamma_star, VALUE_RTOL)
        record(f"{tag} duality", agree,
               f"gamma {result.gamma_star} vs dualized {dual_of_pp.value}")
        bad = None
        for dist, o_profile in _random_trials(rng, rep.model, 5):
            ext = verify_extension(cfg, result.dual_solution, rep.model, dist,
                                   o_profile, result.designated)
            if not ext.ok:
                bad = ext
                break
        record(f"{tag} extension", bad is None,
               "" if bad is None else f"row {bad.first_violated}")
    return_code = EXIT_OK if ok_all else EXIT_INVARIANT
    _emit(args, {"checks": checks, "ok": ok_all})
    return return_code


# ============================================================
# argument plumbing
# ============================================================

_FLAGS = {
    "--config": dict(help="configuration JSON file"),
    "--game": dict(help="game JSON file"),
    "--sf": dict(choices=[SUM, MAX],
                 help="social function (default: the config file's sf, else sum)"),
    "--epsilon": dict(help="approximation parameter; number or p/q "
                           "(default: file value, else 0)"),
    "--predicate": dict(choices=[EQ1, VERBATIM], default=EQ1,
                        help="equilibrium predicate (default eq1)"),
    "--exact": dict(action="store_true", help="rational arithmetic end to end"),
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--cap": dict(type=int, default=PROFILE_CAP,
                  help="profile enumeration cap: the most pure profiles a command "
                       "enumerates (smoothness's pair table holds up to cap^2 entries)"),
    "--emit-witness": dict(metavar="PATH",
                           help="write the extracted/normalized game file here"),
    "--emit-lp": dict(metavar="PATH",
                      help="write the primal program here (dual at PATH.dual)"),
}

# subcommand: (handler, the flags it reads, its fixed settings and the flag
# defaults it changes).  A tuple of flags is a required choice of one.  The
# worst-case programs encode the eq1 form, and worst_cce's coarse
# constraints are the verbatim ones.
_COMMANDS = {
    "build-representative": (cmd_build_representative,
                             (("--config", "--game"), "--exact"), {}),
    "solve-worst-case": (cmd_solve_worst_case,
                         ("--config", "--sf", "--epsilon", "--exact",
                          "--emit-witness", "--emit-lp"),
                         {"predicate": EQ1}),
    "exact-ppoa": (cmd_exact_ppoa,
                   ("--game", "--sf", "--epsilon", "--predicate", "--exact", "--cap"),
                   {"sf": SUM}),
    "cce-poa": (cmd_cce_poa,
                ("--game", "--sf", "--epsilon", "--exact", "--cap"),
                {"sf": SUM, "predicate": VERBATIM}),
    "enumerate-pne": (cmd_enumerate_pne,
                      ("--game", "--epsilon", "--predicate", "--exact", "--cap"), {}),
    "normalize": (cmd_normalize,
                  ("--game", "--sf", "--exact", "--emit-witness"), {"sf": SUM}),
    "verify-extension": (cmd_verify_extension,
                         ("--config", "--game", "--sf", "--epsilon", "--exact", "--seed"),
                         {"predicate": EQ1}),
    "smoothness": (cmd_smoothness, ("--game", "--sf", "--exact", "--cap"), {"sf": SUM}),
    "selftest": (cmd_selftest, ("--seed",), {"predicate": EQ1, "exact": False}),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poacert",
        description="worst-case price-of-anarchy certification for generalized "
                    "weighted congestion games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            if isinstance(flag, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for one in flag:
                    group.add_argument(one, **_FLAGS[one])
            else:
                p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (GameError, OSError) as err:
        print(f"poacert: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as err:
        hint = "" if args.exact else "; use --exact"
        print(f"poacert: number out of float range ({err}){hint}", file=sys.stderr)
        return EXIT_VALIDATION
    except lp.SolverError as err:
        print(f"poacert: solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as err:
        print(f"poacert: invariant violated (this is a bug): {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
