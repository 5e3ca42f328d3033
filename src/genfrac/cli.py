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
import contextlib
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import BoundsError, ConvergenceError, DomainError, FunctionSpecError
from .functions import parse_function_spec
from .inequalities import DEFAULT_THEOREMS, SuiteConfig, TheoremId, run_suite
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``genfrac`` argument parser, built on the first call.

    Every later call returns the same parser, shared by every ``main`` call
    in the process, so callers must not change it.  Reuse is safe because
    ``parse_args`` fills a new namespace each time and leaves the parser as
    it was, and usage and help text are formatted when printed, so they
    read ``COLUMNS`` and the current ``sys.stdout``/``sys.stderr`` then.
    """
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
                          help="check the paper's printed displays where they differ from "
                               "the derivation: T11 with the 2^(p-1) variant of c4, and T10 "
                               "with an outer 1/p on its right-hand side")
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


def cmd_eval(args) -> int:
    side = Side.RIGHT if args.side == "right" else Side.LEFT
    params = _params_from_args(args, side=side, upper=args.upper)
    domain = (args.x, args.upper) if side is Side.RIGHT else (args.a, args.x)
    f = parse_function_spec(args.fn, domain)
    cfg = QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    # an overflowing integrand is reported by evaluate, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(params, f, args.x, cfg)
    print("value = %.17g" % result.value)
    print("error_estimate = %.3g" % result.error_estimate)
    print("evaluations = %d" % result.evaluations)
    return EXIT_OK


def cmd_reduce(args) -> int:
    params = _params_from_args(args)
    kind = reduce_to_classical(params, tol=args.tol, rho_limit_tol=args.rho_limit_tol)
    print(kind.value)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if not math.isfinite(args.x):
        raise DomainError("x must be finite, got %r" % (args.x,))
    if not args.threshold >= 0.0:
        raise DomainError("threshold must be a number >= 0, got %r" % (args.threshold,))
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    with _report_file(args.json) as json_file:
        # as in cmd_eval: evaluate reports an overflowing integrand
        with np.errstate(over="ignore", invalid="ignore"):
            worst, results = sweep(x=args.x, cfg=cfg)
        if json_file:
            payload = [
                {
                    "alpha": pt.params.alpha, "beta": pt.params.beta,
                    "rho": pt.params.rho, "eta": pt.params.eta,
                    "kappa": pt.params.kappa, "sigma": pt.sigma,
                    "quadrature": num, "closed_form": exact, "rel_error": rel,
                }
                for pt, num, exact, rel in results
            ]
            json.dump(payload, json_file, sort_keys=True, indent=2)
            json_file.write("\n")
    print("points = %d" % len(results))
    print("max_rel_error = %.3e" % worst)
    if not worst <= args.threshold:
        print("FAIL: max_rel_error %.3e exceeds threshold %g" % (worst, args.threshold))
        return EXIT_FAIL
    return EXIT_OK


def _report_file(path, newline=None):
    """The report file at ``path``, opened for writing before the work whose
    results it takes, so a path that cannot be written is an invalid
    parameter, not a traceback after the run.  As with a shell redirection,
    the file is created or emptied at once.  No path gives a null context."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise DomainError("cannot write report %r: %s" % (path, exc.strerror or exc)) from None


def _theorem_selection(text: str):
    if text.strip().lower() == "all":
        return DEFAULT_THEOREMS
    theorem = TheoremId.__members__.get("T" + text.strip())
    if theorem is None:
        raise DomainError("theorem must be 8..15 or 'all', got %r" % (text,))
    return (theorem,)


def cmd_verify(args) -> int:
    cfg = SuiteConfig(
        theorems=_theorem_selection(args.theorem),
        trials=args.trials,
        seed=args.seed,
        p_values=(args.p,),
        ratio_bounds=((args.m, args.M),),
        c=args.c,
        x=args.x,
        slack_factor=args.slack_factor,
        statement_constants=args.paper_statement_constants,
    )
    with _report_file(args.json) as json_file, _report_file(args.csv, newline="") as csv_file:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        report = run_suite(cfg, version=__version__, timestamp=timestamp)
        if json_file:
            json.dump(report.to_json_dict(), json_file, sort_keys=True, indent=2)
            json_file.write("\n")
        if csv_file:
            csv.writer(csv_file).writerows(report.csv_rows())
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
    if report.total_failures > 0:
        print("FAIL: %d violated trial(s)" % report.total_failures)
        return EXIT_FAIL
    if report.inconclusive_over_threshold():
        print("INCONCLUSIVE: %d trial(s) inconclusive: quadrature did not converge "
              "or an integrand row was not finite" % report.total_inconclusive)
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
    try:
        return handlers[args.command](args)
    except (DomainError, FunctionSpecError, BoundsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        if exc.result is not None:
            print("best estimate: %.17g (error estimate %.3g)"
                  % (exc.result.value, exc.result.error_estimate), file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
