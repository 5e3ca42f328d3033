"""Command-line front end.

Subcommands:
  eval    single operator evaluation with error estimate
  reduce  classify a parameter point against the classical reduction table
  oracle  closed-form-vs-quadrature sweep over the full parameter grid
  verify  run the inequality suite and emit a machine-readable report

Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 non-convergence or inconclusive rate over threshold.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import (
    BoundsError,
    ConvergenceError,
    DomainError,
    FunctionSpecError,
    ParameterError,
)
from .functions import parse_function_spec
from .inequalities import (
    DEFAULT_THEOREMS,
    SuiteConfig,
    TheoremId,
    run_suite,
    suite_threads_default,
)
from .operator_core import OperatorParams, Side, evaluate, reduce_to_classical
from .oracle import sweep
from .quadrature import QuadratureConfig

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--rho", type=float, required=True)
    parser.add_argument("--eta", type=float, required=True)
    parser.add_argument("--kappa", type=float, required=True)
    parser.add_argument("--a", type=float, required=True,
                        help="lower bound (write --a=-inf for the truncated infinite form)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genfrac", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version="genfrac %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the operator at a point")
    _add_param_flags(p_eval)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--fn", type=str, required=True,
                        help="function spec, e.g. const:1, mono:sigma=2, poly:1,0,2, expoly:0,-0.5, sinpos:2,0,0.5,1.5")
    p_eval.add_argument("--side", choices=["left", "right"], default="left")
    p_eval.add_argument("--upper", type=float, default=None, help="upper bound (right side only)")
    p_eval.add_argument("--rel-tol", type=float, default=1e-10)
    p_eval.add_argument("--abs-tol", type=float, default=1e-12)

    p_reduce = sub.add_parser("reduce", help="classify parameters")
    _add_param_flags(p_reduce)
    p_reduce.add_argument("--tol", type=float, default=1e-12)
    p_reduce.add_argument("--rho-limit-tol", type=float, default=1e-6)

    p_oracle = sub.add_parser("oracle", help="closed-form oracle sweep")
    p_oracle.add_argument("--x", type=float, default=1.5)
    p_oracle.add_argument("--rel-tol", type=float, default=1e-10)
    p_oracle.add_argument("--threshold", type=float, default=1e-8)
    p_oracle.add_argument("--json", type=str, default=None, help="write per-point results to this path")

    p_verify = sub.add_parser("verify", help="run the inequality suite")
    p_verify.add_argument("--theorem", type=str, required=True,
                          help="theorem number 8..15 or 'all'")
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--p", type=float, required=True)
    p_verify.add_argument("--m", type=float, required=True)
    p_verify.add_argument("--M", type=float, required=True)
    p_verify.add_argument("--c", type=float, default=None,
                          help="sandwich-check parameter, 0 < c < m (default m/2)")
    p_verify.add_argument("--x", type=float, default=1.0)
    p_verify.add_argument("--slack-factor", type=float, default=2.0)
    p_verify.add_argument("--paper-statement-constants", action="store_true",
                          help="use the 2^(p-1) variant of the product-bound constant")
    p_verify.add_argument("--json", type=str, default=None)
    p_verify.add_argument("--csv", type=str, default=None)
    return parser


def _params_from_args(args, side=Side.LEFT, upper=None) -> OperatorParams:
    return OperatorParams(
        alpha=args.alpha,
        beta=args.beta,
        rho=args.rho,
        eta=args.eta,
        kappa=args.kappa,
        lower=args.a,
        upper=upper,
        side=side,
    )


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError("%s must be finite, got %r" % (name, value))


def cmd_eval(args) -> int:
    side = Side.RIGHT if args.side == "right" else Side.LEFT
    try:
        params = _params_from_args(args, side=side, upper=args.upper)
        domain = (args.x, args.upper) if side is Side.RIGHT else (args.a, args.x)
        f = parse_function_spec(args.fn, domain)
        cfg = QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
        result = evaluate(params, f, args.x, cfg)
    except (ParameterError, DomainError, FunctionSpecError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        if exc.result is not None:
            print("best estimate: %.17g (error estimate %.3g)"
                  % (exc.result.value, exc.result.error_estimate), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print("value = %.17g" % result.value)
    print("error_estimate = %.3g" % result.error_estimate)
    print("evaluations = %d" % result.evaluations)
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        params = _params_from_args(args)
        kind = reduce_to_classical(params, tol=args.tol, rho_limit_tol=args.rho_limit_tol)
    except (ParameterError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    print(kind.value)
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        _require_finite(x=args.x)
        cfg = QuadratureConfig(rel_tol=args.rel_tol)
        worst, results = sweep(x=args.x, cfg=cfg)
    except (ParameterError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print("points = %d" % len(results))
    print("max_rel_error = %.3e" % worst)
    if args.json:
        payload = [
            {
                "alpha": pt.params.alpha, "beta": pt.params.beta,
                "rho": pt.params.rho, "eta": pt.params.eta,
                "kappa": pt.params.kappa, "sigma": pt.sigma,
                "quadrature": num, "closed_form": exact, "rel_error": rel,
            }
            for pt, num, exact, rel in results
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return EXIT_OK if worst <= args.threshold else EXIT_FAIL


def _theorem_selection(text: str):
    if text.strip().lower() == "all":
        return DEFAULT_THEOREMS
    try:
        number = int(text)
    except ValueError:
        raise DomainError("theorem must be 8..15 or 'all', got %r" % (text,)) from None
    if not 8 <= number <= 15:
        raise DomainError("theorem must be 8..15 or 'all', got %r" % (text,))
    return (TheoremId("T%d" % number),)


def cmd_verify(args) -> int:
    try:
        theorems = _theorem_selection(args.theorem)
        _require_finite(x=args.x, p=args.p)
        if args.trials < 1:
            raise DomainError("trials must be >= 1")
        if not 0.0 < args.m <= args.M:
            raise DomainError("require 0 < m <= M")
        c_fraction = 0.5
        if args.c is not None:
            if not 0.0 < args.c < args.m:
                raise DomainError("require 0 < c < m")
            c_fraction = args.c / args.m
        cfg = SuiteConfig(
            theorems=theorems,
            trials=args.trials,
            seed=args.seed,
            p_values=(args.p,),
            ratio_bounds=((args.m, args.M),),
            c_fraction=c_fraction,
            x=args.x,
            slack_factor=args.slack_factor,
            statement_constants=args.paper_statement_constants,
            threads=suite_threads_default(),
        )
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        report = run_suite(cfg, version=__version__, timestamp=timestamp)
    except (ParameterError, DomainError, BoundsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    for theorem, stats in report.summary().items():
        margin = stats["min_margin"]
        print(
            "%s: trials=%d passes=%d failures=%d inconclusive=%d min_margin=%s"
            % (
                theorem,
                stats["trials"],
                stats["passes"],
                stats["failures"],
                stats["inconclusive"],
                "n/a" if margin is None else "%.3e" % margin,
            )
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_json_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            csv.writer(handle).writerows(report.csv_rows())
    if report.total_failures > 0:
        print("FAIL: %d violated trial(s)" % report.total_failures)
        return EXIT_FAIL
    if report.inconclusive_over_threshold():
        print("INCONCLUSIVE: %d trial(s) did not converge" % report.total_inconclusive)
        return EXIT_NO_CONVERGENCE
    print("OK")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "eval": cmd_eval,
        "reduce": cmd_reduce,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
