"""Command-line front end.

Subcommands::

    ternstab algebra check (<algebra.json> | --builder NAME ...)
    ternstab derive solve <config.json>
    ternstab stabilize <config.json> [--seed N] [--tol T] [--out DIR] [--sign s1,s2,s3]
    ternstab experiment sweep <config.json> --param p=0.1:0.9:0.1 [--out FILE]

Exit status: 0 on pass, 1 on a failed check or run, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algebra import FIELDS, _check_arguments, check_ternary_associativity
from .errors import ConfigError, TernstabError
from .harness import (
    _build_algebra,
    _parse_config,
    _read_config,
    load_config,
    parse_sweep_spec,
    run_experiment,
    run_sweep,
)
from .maps import SignConvention, solve_exact_derivations
from .module import check_module_axioms, self_module
from .serialize import _checked, algebra_from_json, read_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternstab",
        description="numerical workbench for ternary Banach algebras and "
        "direct-method stabilization of twisted derivations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    algebra = sub.add_parser("algebra", help="algebra-level checks")
    algebra_sub = algebra.add_subparsers(dest="subcommand", required=True)
    check = algebra_sub.add_parser("check", help="associativity, module axioms, norm report")
    check.add_argument("target", nargs="?", help="algebra JSON file")
    check.add_argument("--builder", choices=["trivial-matrix", "odd-poly"])
    check.add_argument("--m", type=int, default=2, help="matrix size for trivial-matrix")
    check.add_argument("--cap", type=int, default=3, help="degree cap for odd-poly")
    check.add_argument("--field", choices=FIELDS, default="real")
    check.add_argument("--tol", type=float, default=1e-10)
    check.add_argument("--samples", type=int, default=1000)
    check.add_argument("--seed", type=int, default=0)

    derive = sub.add_parser("derive", help="exact-derivation solving")
    derive_sub = derive.add_subparsers(dest="subcommand", required=True)
    solve = derive_sub.add_parser("solve", help="print a derivation-space basis")
    solve.add_argument("config")
    solve.add_argument("--sign", help="override sign convention, e.g. 1,-1,-1")

    stabilize = sub.add_parser("stabilize", help="full direct-method experiment")
    stabilize.add_argument("config")
    stabilize.add_argument("--seed", type=int)
    stabilize.add_argument("--tol", type=float)
    stabilize.add_argument("--out", help="output directory for report and traces")
    stabilize.add_argument("--sign", help="override sign convention, e.g. 1,-1,-1")

    experiment = sub.add_parser("experiment", help="experiment batches")
    experiment_sub = experiment.add_subparsers(dest="subcommand", required=True)
    sweep = experiment_sub.add_parser("sweep", help="one run per parameter value")
    sweep.add_argument("config")
    sweep.add_argument("--param", required=True, help="e.g. p=0.1:0.9:0.1")
    sweep.add_argument("--out", help="CSV output path")
    sweep.add_argument("--seed", type=int)

    return parser


def _parse_signs(text: str):
    try:
        return SignConvention.from_sequence(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--sign needs three entries of +1 or -1, e.g. 1,-1,-1; got {text!r}"
        ) from None


def _load_overridden(path, overrides: dict):
    """Parse the config file once, with command-line overrides patched into
    its raw fields; input files still resolve against the file's directory."""
    raw, base_dir = _read_config(path)
    raw.update(overrides)
    return _parse_config(raw, base_dir)


def _cmd_algebra_check(args) -> int:
    # the checkers' own rules, and at least one norm sample, so that a pass checked something
    with _checked("--"):
        _check_arguments(least={"samples": 1}, tol=args.tol, samples=args.samples, seed=args.seed)
    if args.target:
        alg = algebra_from_json(read_json(args.target))
        label = args.target
    elif args.builder:
        # the config's builder checks: a bad --m or --cap is CONFIG_INVALID
        size = {"trivial-matrix": "m", "odd-poly": "cap"}[args.builder]
        spec = {"builder": args.builder, size: getattr(args, size), "field": args.field}
        alg = _build_algebra(spec, Path.cwd())
        label = f"{args.builder} {size}={spec[size]}"
    else:
        print("error: give an algebra file or --builder", file=sys.stderr)
        return 2

    assoc = check_ternary_associativity(alg, args.tol, seed=args.seed)
    mod = self_module(alg)
    axioms = check_module_axioms(mod, args.tol, samples=args.samples, seed=args.seed)
    print(f"algebra: {label} (dim {alg.dim}, field {alg.field})")
    mode = "exhaustive" if assoc.exhaustive else "sampled"
    print(
        f"associativity: max residual {assoc.max_residual:.3e} over "
        f"{assoc.checked} {mode} tuples -> {'pass' if assoc.passed else 'FAIL'}"
    )
    mode = "exhaustive" if axioms.exhaustive else "sampled"
    print(f"module chains: over {axioms.tuples_checked} {mode} tuples")
    for chain, residual in axioms.chain_residuals.items():
        print(f"module chain {chain}: max residual {residual:.3e}")
    print(
        f"norm inequality: worst violation {axioms.norm_violation:.3e} over "
        f"{axioms.norm_samples} samples -> {'pass' if axioms.passed else 'FAIL'}"
    )
    return 0 if (assoc.passed and axioms.passed) else 1


def _cmd_derive_solve(args) -> int:
    config = load_config(args.config)
    signs = _parse_signs(args.sign) if args.sign else config.signs
    mod = self_module(config.algebra)
    sigma, tau, xi = config.map_candidates[0]
    basis = solve_exact_derivations(mod, sigma, tau, xi, signs, config.rank_tol)
    print(f"derivation space dimension: {len(basis)} (signs {signs.as_tuple()})")
    print("rank margin: " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                      for k, v in basis.margin.items()))
    for idx, lm in enumerate(basis):
        print(f"basis[{idx}] =")
        print(lm.matrix)
    return 0


def _cmd_stabilize(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.sign:
        overrides["signs"] = list(_parse_signs(args.sign).as_tuple())
    config = _load_overridden(args.config, overrides)
    result = run_experiment(config, out_dir=args.out)
    report = result.report
    for err in report["errors"]:
        print(f"error [{err['code']}]: {err['message']}", file=sys.stderr)
    for note in report["notes"]:
        print(f"note [{note['code']}]: {note['message']}")
    if report["recovered"] is not None:
        truth_err = report["recovered"]["truth_error"]
        print(
            "recovered maps; worst truth error "
            + ", ".join(f"{k}={v:.3e}" for k, v in truth_err.items())
        )
        print(f"bound violation: {report['bounds']['max_violation']:.3e}")
        print(
            f"identity residual (normalized): "
            f"{report['identity_residuals']['max_normalized']:.3e}"
        )
        if report["hypothesis"] is not None:
            print(
                f"hypothesis slack: min {report['hypothesis']['min_slack']:.3e}, "
                f"violations {report['hypothesis']['violations']} (findings)"
            )
    if result.report_path is not None:
        print(f"report written to {result.report_path}")
    print(f"all_passed: {result.all_passed}")
    return 0 if result.all_passed else 1


def _cmd_experiment_sweep(args) -> int:
    overrides = {} if args.seed is None else {"seed": args.seed}
    config = _load_overridden(args.config, overrides)
    param, values = parse_sweep_spec(args.param)
    rows = run_sweep(config, param, values, out_csv=args.out)
    for row in rows:
        print(
            f"{param}={row['value']:g}: all_passed={row['all_passed']} "
            f"max_iterations={row['max_iterations']}"
        )
    if args.out:
        print(f"sweep CSV written to {Path(args.out)}")
    return 0 if all(row["all_passed"] for row in rows) else 1


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    commands = {"algebra": _cmd_algebra_check, "derive": _cmd_derive_solve,
                "stabilize": _cmd_stabilize, "experiment": _cmd_experiment_sweep}
    try:
        return commands[args.command](args)
    except TernstabError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
