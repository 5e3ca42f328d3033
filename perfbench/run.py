"""genfrac benchmark: one workload, one closed-loop caller, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Workloads: verify-suite, oracle-sweep, eval-mix (see perfbench/README.md).

--trace 0 measures the end-to-end metrics: ``setup_s`` in fresh
interpreters, then ``ops_per_s``, ``op_p50_ms`` and ``op_p99_ms`` over
``--seconds`` of timed rounds.  --trace 1 runs the same timed rounds,
replays the first few of them with spans installed around every genfrac
module (perfbench/tracing.py) and prints the per-layer metrics, including
the tracing overhead.

Every output is checked.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every check passed; without the genfrac sources next to this
directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibration import calibrate, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
SWEEP_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-suite", "oracle-sweep", "eval-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _run_record(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "genfrac").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def _setup_seconds(workload, seed):
    """Median over fresh interpreters of import genfrac plus the first op.

    One extra interpreter runs first and is discarded, so every measured
    one finds the bytecode cache written.  These are raw seconds: a
    calibration inside each interpreter made the figures spread more, not
    less, since import time is mostly loading code, not running it.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    values = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError("setup probe failed: %s" % out.stderr.strip())
        values.append(float(out.stdout))
    return statistics.median(values[1:])


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, notes=()):
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes[: max(0, 20 - len(self.notes))])

    def add_round(self, res):
        self.add(res.ops, res.failed, res.notes)


def _run_rounds(workload, rounds, tally):
    """Run the given rounds, each between two calibrations; set ``speed``."""
    results = []
    cal = calibrate()
    for inputs in rounds:
        res = workload.run_round(inputs)
        after = calibrate()
        res.speed = speed(cal, after)
        cal = after
        tally.add_round(res)
        results.append(res)
    return results


def _timed_rounds(workload, seconds, keep, tally):
    """One warm-up group of rounds, then whole groups for ``seconds`` of wall time.

    Wall time includes preparing and checking each round, which is not
    timed, so a run's length does not depend on the workload.  At least
    ``keep`` rounds run; their inputs are returned for replay.
    """
    for _ in range(workload.group):
        tally.add_round(workload.run_round(workload.next_round()))
    kept = []
    end = time.perf_counter() + seconds

    def rounds():
        while time.perf_counter() < end or len(kept) < keep:
            for _ in range(workload.group):
                inputs = workload.next_round()
                if len(kept) < keep:
                    kept.append(inputs)
                yield inputs

    results = _run_rounds(workload, rounds(), tally)
    return kept, results


def _rate(results, scaled=True):
    seconds = sum(res.seconds * (res.speed if scaled else 1.0) for res in results)
    return sum(res.ops for res in results) / seconds


def _latency_stats(results, group):
    """Per-op latencies in ms; rounds without them (verify-suite) give one
    sample per group of rounds, its time per op.  The inclusive quantile
    method never reads beyond the largest sample, which the default method
    does for p99 of fewer than 100 samples."""
    samples = [s * res.speed * 1e3 for res in results for s in res.latencies]
    if not samples:
        samples = [1e3 / _rate(results[i:i + group]) for i in range(0, len(results), group)]
    samples.sort()
    p50 = statistics.median(samples)
    p99 = (statistics.quantiles(samples, n=100, method="inclusive")[98]
           if len(samples) > 1 else samples[0])
    beyond = sum(1 for s in samples if s > p99)
    return p50, p99, len(samples), beyond


def end_to_end(workload, args, tally):
    setup_s = _setup_seconds(args.workload, args.seed)
    _, results = _timed_rounds(workload, args.seconds, 0, tally)
    ops = sum(res.ops for res in results)
    median_speed = statistics.median(res.speed for res in results)
    p50, p99, nsamples, beyond = _latency_stats(results, workload.group)
    what = "op latency" if workload.group == 1 else "time per op of %d rounds" % workload.group
    return [
        ("setup_s", setup_s, "s", "median of %d fresh interpreters; raw seconds"
         % SETUP_PROBES),
        ("ops_per_s", _rate(results), "1/s", "%d ops in %d rounds; raw %.6g/s; median speed %.3f"
         % (ops, len(results), _rate(results, scaled=False), median_speed)),
        ("op_p50_ms", p50, "ms", "%s, n=%d samples" % (what, nsamples)),
        ("op_p99_ms", p99, "ms", "%s, n=%d samples, %d beyond: %s"
         % (what, nsamples, beyond, "valid" if beyond >= 10 else "NOT VALID (<10 beyond)")),
    ]


def per_layer(workload, args, tally):
    import tracing
    from genfrac import inequalities, oracle

    kept, results = _timed_rounds(workload, args.seconds, workload.trace_rounds, tally)
    untraced = results[: len(kept)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = _run_rounds(workload, kept, tally)
    replay_ops = sum(res.ops for res in traced)

    busy, nested, counts, calls = tracer.busy, tracer.nested, tracer.counts, tracer.calls
    op_calls = calls["operator_core"]
    m = {
        "quadrature.calls": (counts["quadrature.calls"], "count"),
        "quadrature.evaluations": (counts["quadrature.evaluations"], "count"),
        "quadrature.busy_s": (busy["quadrature"], "s"),
        "quadrature.self_s": (busy["quadrature"] - nested["quadrature", "quadrature.integrand"], "s"),
        "quadrature.integrand_s": (busy["quadrature.integrand"], "s"),
        "quadrature.convergence_errors": (counts["quadrature.convergence_errors"], "count"),
        "operator_core.calls": (op_calls, "count"),
        "operator_core.busy_s": (busy["operator_core"], "s"),
        "operator_core.self_s": (busy["operator_core"] - nested["operator_core", "quadrature"], "s"),
        "operator_core.integrals_per_op": (
            counts["quadrature.calls"] / op_calls if op_calls else 0.0, "ratio"),
        "special_functions.calls": (calls["special_functions"], "count"),
        "special_functions.busy_s": (busy["special_functions"], "s"),
        "functions.pair.calls": (calls["functions.pair"], "count"),
        "functions.pair.busy_s": (busy["functions.pair"], "s"),
        "functions.eval.calls": (counts["functions.eval.calls"], "count"),
        "functions.eval.points": (counts["functions.eval.points"], "count"),
        "functions.eval.busy_s": (busy["functions.eval"], "s"),
        "functions.eval.calls_per_op": (counts["functions.eval.calls"] / replay_ops, "ratio"),
    }
    suite = [res for res in results if res.extra]
    for theorem in (t.value for t in inequalities.DEFAULT_THEOREMS):
        per_trial = [res.seconds * res.speed / res.ops for res in suite
                     if res.extra["theorem"] == theorem]
        m["inequalities.%s.ms_per_trial" % theorem] = (
            statistics.median(per_trial) * 1e3 if per_trial else 0.0, "ms")
    m["inequalities.self_s"] = (
        busy["inequalities"] - nested["inequalities", "functions.pair"]
        - nested["inequalities", "operator_core"], "s")
    replay = [res.extra for res in traced if res.extra]
    m["inequalities.inconclusive"] = (sum(e["inconclusive"] for e in replay), "count")
    m["inequalities.failures"] = (sum(e["failures"] for e in replay), "count")
    m["inequalities.report.serialize_ms"] = (
        statistics.median(res.extra["serialize_s"] * res.speed for res in suite) * 1e3
        if suite else 0.0, "ms")
    m["inequalities.report.bytes"] = (sum(e["bytes"] for e in replay), "bytes")

    speedup = 0.0
    if args.workload == "verify-suite":
        speedup, problem = workload.threads2(args.seed)
        tally.add(1, int(problem is not None), [problem] if problem else [])
    m["inequalities.threads2_speedup"] = (speedup, "ratio")

    sweep_s = 0.0
    if args.workload == "oracle-sweep":
        x = 0.5 + (args.seed % 21) / 10.0
        times = []
        for _ in range(SWEEP_REPEATS):
            before = calibrate()
            t0 = time.perf_counter()
            worst, points = oracle.sweep(x)
            elapsed = time.perf_counter() - t0
            times.append(elapsed * speed(before, calibrate()))
            bad = int(not worst <= 1e-8)
            tally.add(len(points), bad, ["oracle.sweep(%r): max rel err %.3g" % (x, worst)] * bad)
        sweep_s = statistics.median(times)
    m["oracle.sweep_s"] = (sweep_s, "s")

    m["cli.calls"] = (calls["cli"], "count")
    m["cli.self_ms"] = ((busy["cli"] - nested["cli", "operator_core"]) * 1e3, "ms")
    m["trace.untraced_ops_per_s"] = (_rate(untraced), "1/s")
    m["trace.traced_ops_per_s"] = (_rate(traced), "1/s")
    m["trace.overhead"] = (_rate(untraced) / _rate(traced), "ratio")

    detail = {
        "trace.overhead": "traced over untraced time of the same %d ops (%d rounds)"
                          % (replay_ops, len(kept)),
        "functions.eval.calls_per_op": "per op of the replay",
        "operator_core.integrals_per_op": "quadrature.calls / operator_core.calls",
    }
    return [(name, value, unit, detail.get(name, "")) for name, (value, unit) in m.items()]


def _fmt(value):
    return str(value) if isinstance(value, int) else "%.6g" % value


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "genfrac" / "__init__.py").is_file():
        print("error: genfrac sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import genfrac
    import workloads

    if Path(genfrac.__file__).resolve().parent != SRC / "genfrac":
        print("error: imported genfrac from %s, not %s" % (genfrac.__file__, SRC),
              file=sys.stderr)
        return 2

    print("run_record %s" % json.dumps(_run_record(args), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.workload == "eval-mix":
        print("eval-mix: closed loop, one caller; cli share %.4f of ops" % workload.cli_share)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    lines = measure(workload, args, tally)

    for name, value, unit, detail in lines:
        print("%-36s = %-16s %-6s %s" % (name, _fmt(value), unit, detail))
    failed_share = tally.failed / tally.attempted
    print("%-36s = %-16s %-6s %d of %d attempted ops failed"
          % ("failed_share", _fmt(failed_share), "ratio", tally.failed, tally.attempted))
    for note in tally.notes:
        print("FAILED CHECK: %s" % note)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in lines},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
