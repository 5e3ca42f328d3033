"""The three benchmark workloads: inputs from a seed, timed ops, output checks.

Every workload is a stream of rounds.  A round holds prepared inputs and
their reference values; preparing it is not timed.  Running a round times
each op, in a closed loop with one caller, and only then checks the
outputs, so checking is not timed either.

All calls into genfrac go through module attributes (``oc.evaluate``, not
a name imported once), so that the traced run can rebind those attributes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from genfrac import cli, inequalities as ineq, operator_core as oc, oracle, quadrature
from genfrac.errors import ConvergenceError
from genfrac.functions import (
    ExpPoly,
    Monomial,
    PMax,
    Polynomial,
    SinPos,
    TestFunction,
)

Kind = oc.ClassicalKind
REL_TOL = 1e-8  # acceptance criteria 1 and 2


@dataclass
class RoundResult:
    """What one round did: op count, timed seconds, per-op latencies, failures."""

    ops: int
    seconds: float
    latencies: list  # seconds per op sample
    failed: int
    notes: list = field(default_factory=list)  # one line per failed check
    extra: dict = field(default_factory=dict)
    speed: float = 1.0  # reference seconds per raw second, set by the runner


class CliError(RuntimeError):
    """``genfrac eval`` exited with a non-zero code."""


def _time_ops(ops):
    """Run each op's thunk in turn; return (outputs, latencies, total seconds)."""
    outputs = []
    latencies = []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except (ConvergenceError, CliError) as exc:
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return outputs, latencies, clock() - start


def _check_ops(ops, outputs, latencies, seconds) -> RoundResult:
    failed = 0
    notes = []
    for op, out in zip(ops, outputs):
        problem = op.check(out)
        if problem:
            failed += 1
            notes.append("%s: %s" % (op.label, problem))
    return RoundResult(len(ops), seconds, latencies, failed, notes)


# ---------------------------------------------------------------------------
# evaluate-style ops shared by oracle-sweep and eval-mix
# ---------------------------------------------------------------------------


@dataclass
class EvalOp:
    """One evaluation and its reference.

    ``run`` returns an IntegralResult.  ``reference`` returns a float,
    compared at REL_TOL; ``prepare`` computes it before the round is timed.
    """

    label: str
    run: object
    reference: object
    ref: object = None

    def prepare(self):
        try:
            self.ref = self.reference()
        except ConvergenceError as exc:
            self.ref = exc

    def check(self, out):
        if isinstance(out, Exception):
            return "%s: %s" % (type(out).__name__, out)
        if isinstance(self.ref, Exception):
            return "reference failed: %s" % self.ref
        if not math.isfinite(out.value):
            return "non-finite value %r" % out.value
        rel = abs(out.value - self.ref) / abs(self.ref)
        if not rel <= REL_TOL:
            return "value %.17g vs reference %.17g (rel %.3g)" % (out.value, self.ref, rel)
        return None


class _EvalStream:
    """oracle-sweep and eval-mix: a round is a list of EvalOps from ``_ops()``."""

    group = 1

    def next_round(self):
        ops = self._ops()
        for op in ops:
            op.prepare()
        return ops

    def run_round(self, ops) -> RoundResult:
        return _check_ops(ops, *_time_ops(ops))

    def first_op(self):
        self._ops()[0].run()


def _run_cli(argv):
    """``genfrac eval`` in-process, its printed result parsed back."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliError("exit code %d: %s" % (code, err.getvalue().strip()))
    fields = dict(line.split(" = ", 1) for line in out.getvalue().splitlines())
    return quadrature.IntegralResult(float(fields["value"]), float(fields["error_estimate"]),
                                     int(fields["evaluations"]))


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------


class OracleSweep(_EvalStream):
    """evaluate() once per op over the 540-point closed-form grid.

    Each round is one pass over the grid at one x, in a seeded order.
    """

    name = "oracle-sweep"
    trace_rounds = 40

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([0x6F72, seed])
        self.grid = oracle.grid_points()

    def _ops(self):
        x = float(self.rng.uniform(0.5, 2.5))
        ops = []
        for i in self.rng.permutation(len(self.grid)):
            p, sigma = self.grid[i].params, self.grid[i].sigma
            f = TestFunction(Monomial(sigma), (0.0, x))
            ops.append(EvalOp(
                "grid point %d at x=%r" % (i, x),
                lambda p=p, f=f: oc.evaluate(p, f, x),
                lambda p=p, sigma=sigma: quadrature.closed_form_monomial(p, sigma, x),
            ))
        return ops



# ---------------------------------------------------------------------------
# eval-mix
# ---------------------------------------------------------------------------


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _smooth_function(rng, domain):
    """A positive smooth test function and its ``--fn`` spec."""
    choice = int(rng.integers(0, 3))
    if choice == 0:
        c = tuple(float(v) for v in rng.uniform(-0.5, 0.5, size=3))
        return TestFunction(ExpPoly(c), domain), "expoly:%r,%r,%r" % c
    if choice == 1:
        c = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0)),
             float(rng.uniform(0.0, 1.0)))
        return TestFunction(Polynomial(c), domain), "poly:%r,%r,%r" % c
    w, phi = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 2.0 * math.pi))
    lo = float(rng.uniform(0.2, 1.0))
    hi = lo + float(rng.uniform(0.2, 1.5))
    return TestFunction(SinPos(w, phi, lo, hi), domain), "sinpos:%r,%r,%r,%r" % (w, phi, lo, hi)


def _cli_argv(params: oc.OperatorParams, x: float, spec: str):
    argv = ["eval"] + ["--%s=%r" % (k, getattr(params, k))
                       for k in ("alpha", "beta", "rho", "eta", "kappa")]
    argv += ["--a=%r" % params.lower, "--x=%r" % x, "--fn", spec]
    if params.side is oc.Side.RIGHT:
        argv += ["--side", "right", "--upper=%r" % params.upper]
    return argv


def _reduced_point(rng, kind, alpha, lower):
    """Generalized parameters of a classical kind, with the classical kwargs."""
    if kind is Kind.RIEMANN_LIOUVILLE:
        beta = float(rng.uniform(0.0, 2.0))
        return oc.OperatorParams(alpha, beta, 1.0, 0.0, 0.0, lower=lower), {}
    rho = float(rng.choice([rng.uniform(0.4, 0.9), rng.uniform(1.2, 3.0)]))
    if kind is Kind.KATUGAMPOLA:
        return oc.OperatorParams(alpha, alpha, rho, 0.0, 0.0, lower=lower), {"rho": rho}
    eta = float(rng.choice([rng.uniform(-0.6, -0.1), rng.uniform(0.1, 1.5)]))
    params = oc.OperatorParams(alpha, 0.0, rho, eta, -rho * (alpha + eta), lower=lower)
    return params, {"sigma": rho, "eta": eta}


def _regularized_lower_gamma(a: float, z: float) -> float:
    """P(a, z) by its power series, for the Hadamard monomial reference."""
    term = 1.0 / a
    total = term
    n = 1
    while term > 1e-17 * total:
        term *= z / (a + n)
        total += term
        n += 1
    return math.exp(a * math.log(z) - z - math.lgamma(a)) * total


def _hadamard_monomial(alpha, sigma, a, x):
    w = math.log(x / a)
    if sigma == 0.0:
        return math.exp(alpha * math.log(w) - math.lgamma(alpha + 1.0))
    return x ** sigma * sigma ** (-alpha) * _regularized_lower_gamma(alpha, sigma * w)


def _kinked_reference(alpha, kappa, a, x, c, lines):
    """x^kappa/Gamma(alpha) int_a^x (x-t)^(alpha-1) max(p1, p2) dt, p1 left of c."""

    def piece(A, B, s0, s1):
        # int_s0^s1 s^(alpha-1) (A + B(x - s)) ds
        return ((A + B * x) * (s1 ** alpha - s0 ** alpha) / alpha
                - B * (s1 ** (alpha + 1.0) - s0 ** (alpha + 1.0)) / (alpha + 1.0))

    (a1, b1), (a2, b2) = lines
    total = piece(a1, b1, x - c, x - a) + piece(a2, b2, 0.0, x - c)
    return x ** kappa * total / math.gamma(alpha)


class EvalMix(_EvalStream):
    """A seeded stream of single evaluations over the forms ``genfrac eval`` takes.

    A block has a fixed number of ops of each form (``BLOCK``).  A round is
    ``BLOCKS`` blocks in seeded order, and exactly one of its ops goes
    through ``cli.main(["eval", ...])``, its form taken from ``CLI_FORMS``
    in turn.  That share (1 in 180) stays below 1%: a CLI call costs about
    1.4 ms, mostly argument parsing, and a larger share would put
    op_p99_ms on the CLI instead of on the deep quadrature forms.

    The truncated Weyl form (lower = -inf) is not in the stream: genfrac can
    report an error estimate for it well below its true error, so its
    acceptance check fails on rare draws (perfbench/README.md, "Known
    failure").
    """

    name = "eval-mix"
    BLOCK = (("left", 4), ("mono0", 2), ("right", 3), ("direct", 4), ("kink", 2),
             ("osc", 3))
    BLOCKS = 10
    CLI_FORMS = ("left", "mono0", "right", "osc")
    cli_share = 1.0 / (BLOCKS * sum(n for _, n in BLOCK))
    trace_rounds = 20

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([0x6576, seed])
        self.rounds = 0
        self.direct_turn = 0

    def _ops(self):
        cli_form = self.CLI_FORMS[self.rounds % len(self.CLI_FORMS)]
        self.rounds += 1
        ops = []
        for block in range(self.BLOCKS):
            for form, count in self.BLOCK:
                for i in range(count):
                    via_cli = block == 0 and i == 0 and form == cli_form
                    ops.append(getattr(self, "_" + form)(via_cli=via_cli))
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def _op(self, form, params, f, x, spec, via_cli, ref, breakpoints=()):
        if via_cli:
            argv = _cli_argv(params, x, spec)
            return EvalOp("genfrac " + " ".join(argv), lambda: _run_cli(argv), ref)
        label = "%s x=%r f=%r breakpoints=%r %r" % (form, x, f.expr, breakpoints, params)
        return EvalOp(label, lambda: oc.evaluate(params, f, x, breakpoints=breakpoints), ref)

    # -- forms ---------------------------------------------------------------

    def _left(self, via_cli):
        """a > 0, rho != 1; mostly Erdelyi-Kober with eta != 0."""
        rng = self.rng
        kind = Kind.ERDELYI_KOBER if rng.uniform() < 0.75 else Kind.KATUGAMPOLA
        alpha = _log_uniform(rng, 0.05, 2.5)
        a = float(rng.uniform(0.1, 1.0))
        x = a + float(rng.uniform(0.3, 2.0))
        params, kw = _reduced_point(rng, kind, alpha, a)
        f, spec = _smooth_function(rng, (a, x))
        ref = lambda: oc.evaluate_classical(kind, alpha, f, (a,), x, **kw).value
        return self._op("left", params, f, x, spec, via_cli, ref)

    def _mono0(self, via_cli):
        """a = 0 monomial at a generalized point, against the closed form."""
        rng = self.rng
        rho = float(rng.uniform(0.3, 3.0))
        params = oc.OperatorParams(
            alpha=_log_uniform(rng, 0.05, 2.5), beta=float(rng.uniform(0.0, 2.0)),
            rho=rho, eta=float(rng.uniform(-0.5, 1.5)), kappa=float(rng.uniform(-1.0, 1.0)),
        )
        sigma = float(rng.uniform(0.0, 3.0))
        x = float(rng.uniform(0.5, 3.0))
        f = TestFunction(Monomial(sigma), (0.0, x))
        ref = lambda: quadrature.closed_form_monomial(params, sigma, x)
        return self._op("mono0", params, f, x, "mono:sigma=%r" % sigma, via_cli, ref)

    def _right(self, via_cli):
        """Right-sided form against a reflected Riemann-Liouville integral.

        With w = tau^rho the right-sided value is
        rho^(-beta) x^(rho*eta) * RL_X[s -> h(X + B - s)](B), where
        X = x^rho, B = b^rho and h(w) = w^(kappa/rho) f(w^(1/rho)).
        """
        rng = self.rng
        alpha = _log_uniform(rng, 0.05, 2.5)
        rho = float(rng.uniform(0.5, 2.5))
        x = float(rng.uniform(0.3, 1.5))
        b = x + float(rng.uniform(0.3, 2.0))
        params = oc.OperatorParams(
            alpha, float(rng.uniform(0.0, 2.0)), rho, float(rng.uniform(-0.5, 1.0)),
            float(rng.uniform(-1.0, 1.0)), lower=0.0, upper=b, side=oc.Side.RIGHT,
        )
        f, spec = _smooth_function(rng, (x, b))
        big_x, big_b = x ** rho, b ** rho
        k_rho, inv_rho = params.kappa / rho, 1.0 / rho

        def reflected(s):
            w = big_x + big_b - np.asarray(s, dtype=float)
            return w ** k_rho * f(w ** inv_rho)

        def reference():
            rl = oc.evaluate_classical(Kind.RIEMANN_LIOUVILLE, alpha, reflected, (big_x,), big_b)
            return rho ** (-params.beta) * x ** (rho * params.eta) * rl.value

        return self._op("right", params, f, x, spec, via_cli, reference)

    def _direct(self, via_cli):
        """evaluate_classical itself, one kind per call in turn."""
        rng = self.rng
        kind = (Kind.RIEMANN_LIOUVILLE, Kind.HADAMARD, Kind.KATUGAMPOLA,
                Kind.ERDELYI_KOBER)[self.direct_turn]
        self.direct_turn = (self.direct_turn + 1) % 4
        alpha = _log_uniform(rng, 0.05, 2.5)
        if kind is Kind.HADAMARD:
            a = float(rng.uniform(0.3, 1.5))
            x = a * math.exp(float(rng.uniform(0.2, 1.5)))
            sigma = float(rng.choice([0.0, rng.uniform(0.2, 2.0)]))
            f = TestFunction(Monomial(sigma), (a, x))
            ref = lambda: _hadamard_monomial(alpha, sigma, a, x)
            call = lambda: oc.evaluate_classical(kind, alpha, f, (a,), x)
            return EvalOp("direct hadamard alpha=%r a=%r x=%r f=%r" % (alpha, a, x, f.expr),
                          call, ref)
        a = float(rng.choice([0.0, rng.uniform(0.1, 1.0)]))
        x = a + float(rng.uniform(0.3, 2.0))
        params, kw = _reduced_point(rng, kind, alpha, a)
        if rng.uniform() < 0.25:
            sigma = float(rng.uniform(0.0, 2.0))
            f = TestFunction(Monomial(sigma), (a, x))
        else:
            f, _ = _smooth_function(rng, (a, x))
        ref = lambda: oc.evaluate(params, f, x).value
        call = lambda: oc.evaluate_classical(kind, alpha, f, (a,), x, **kw)
        return EvalOp("direct %s alpha=%r a=%r x=%r f=%r %r" % (kind.value, alpha, a, x, f.expr, kw),
                      call, ref)

    def _kink(self, via_cli):
        """PMax of two lines crossing inside (a, x), with the crossing as breakpoint."""
        rng = self.rng
        alpha = _log_uniform(rng, 0.05, 2.5)
        a = float(rng.choice([0.0, rng.uniform(0.1, 0.8)]))
        x = a + float(rng.uniform(0.5, 2.0))
        c = a + float(rng.uniform(0.2, 0.8)) * (x - a)
        v = float(rng.uniform(0.5, 1.5))
        b1, b2 = -float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
        lines = ((v - b1 * c, b1), (v - b2 * c, b2))
        f = TestFunction(PMax(Polynomial(lines[0]), Polynomial(lines[1])), (a, x))
        params = oc.OperatorParams(alpha, float(rng.uniform(0.0, 2.0)), 1.0, 0.0,
                                   float(rng.uniform(-1.0, 1.0)), lower=a)
        ref = lambda: _kinked_reference(alpha, params.kappa, a, x, c, lines)
        return self._op("kink", params, f, x, None, False, ref, breakpoints=(c,))

    def _osc(self, via_cli):
        """Fast SinPos that needs deeper refinement, at a classical point."""
        rng = self.rng
        kind = (Kind.RIEMANN_LIOUVILLE, Kind.KATUGAMPOLA, Kind.ERDELYI_KOBER)[int(rng.integers(0, 3))]
        alpha = _log_uniform(rng, 0.05, 2.5)
        a = float(rng.choice([0.0, rng.uniform(0.1, 1.0)]))
        x = a + float(rng.uniform(1.0, 2.0))
        params, kw = _reduced_point(rng, kind, alpha, a)
        w, phi = float(rng.uniform(8.0, 16.0)), float(rng.uniform(0.0, 2.0 * math.pi))
        lo = float(rng.uniform(0.3, 1.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        f = TestFunction(SinPos(w, phi, lo, hi), (a, x))
        ref = lambda: oc.evaluate_classical(kind, alpha, f, (a,), x, **kw).value
        spec = "sinpos:%r,%r,%r,%r" % (w, phi, lo, hi)
        return self._op("osc", params, f, x, spec, via_cli, ref)


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


def serialize_report(report) -> tuple:
    """The ``genfrac verify --json --csv`` payloads, in memory."""
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows(report.csv_rows())
    return text, buf.getvalue()


class VerifySuite:
    """run_suite over T8..T15 with the default SuiteConfig mix.

    A group of eight rounds shares one master seed and makes one run_suite
    call per theorem, T8 to T15, one call per round (trial seeds depend
    only on the master seed, the theorem and the trial index, so these are
    the trials of one all-theorem run); each report is then serialized to
    JSON and CSV.  TRIALS = 126 covers every (operator, ratio bound, p)
    combination twice, or three times for T10 and T11, which skip p = 1.

    A single trial is not visible from outside run_suite, so rounds carry
    no per-op latencies; the runner takes one sample per group instead.
    """

    name = "verify-suite"
    group = len(ineq.DEFAULT_THEOREMS)
    TRIALS = 126
    THREADS2_TRIALS = 50
    trace_rounds = 2 * group

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([0x7666, seed])
        self.turn = 0
        self.master_seed = None

    def next_round(self):
        if self.turn == 0:
            self.master_seed = int(self.rng.integers(0, 2 ** 31))
        theorem = ineq.DEFAULT_THEOREMS[self.turn]
        self.turn = (self.turn + 1) % self.group
        return self.master_seed, theorem

    def run_round(self, inputs) -> RoundResult:
        master_seed, theorem = inputs
        cfg = ineq.SuiteConfig(theorems=(theorem,), trials=self.TRIALS,
                               seed=master_seed, threads=1)
        clock = time.perf_counter
        t0 = clock()
        report = ineq.run_suite(cfg, timestamp="bench")
        t1 = clock()
        text, table = serialize_report(report)
        t2 = clock()
        failed, notes = 0, []
        bad = report.total_failures + report.total_inconclusive
        if bad:
            failed += bad
            notes.append("%s seed %d: %d failures, %d inconclusive" % (
                theorem.value, master_seed, report.total_failures, report.total_inconclusive))
        if (json.loads(text)["theorems"][theorem.value]["trials"] != self.TRIALS
                or table.count("\n") != self.TRIALS + 1):
            failed += 1
            notes.append("%s seed %d: serialized report is incomplete"
                         % (theorem.value, master_seed))
        return RoundResult(self.TRIALS, t2 - t0, [], failed, notes, extra={
            "theorem": theorem.value,
            "serialize_s": t2 - t1,
            "bytes": len(text.encode()) + len(table.encode()),
            "failures": report.total_failures,
            "inconclusive": report.total_inconclusive,
        })

    def first_op(self):
        cfg = ineq.SuiteConfig(theorems=(ineq.TheoremId.T8,), trials=1,
                               seed=self.next_round()[0], threads=1)
        ineq.run_suite(cfg, timestamp="bench")

    def threads2(self, seed: int):
        """threads=2 over threads=1 trials/s, and byte identity of the reports.

        Returns (speedup, problem or None).  Runs alternate 1, 2, 1, 2, ...
        and each side's median time is used.
        """
        times = {1: [], 2: []}
        payloads = {}
        for _ in range(3):
            for threads in (1, 2):
                cfg = ineq.SuiteConfig(trials=self.THREADS2_TRIALS, seed=seed, threads=threads)
                t0 = time.perf_counter()
                report = ineq.run_suite(cfg, timestamp="bench")
                times[threads].append(time.perf_counter() - t0)
                payloads.setdefault(threads, serialize_report(report))
        speedup = float(np.median(times[1]) / np.median(times[2]))
        problem = None
        if payloads[1] != payloads[2]:
            problem = "threads=1 and threads=2 reports differ"
        return speedup, problem


WORKLOADS = {w.name: w for w in (VerifySuite, OracleSweep, EvalMix)}
