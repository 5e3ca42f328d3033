"""Spans around calls into genfrac's modules, installed from outside.

``installed(tracer)`` rebinds module-level names in every loaded genfrac
module (and ``TestFunction.__call__``) to wrappers that open a span, and
puts the originals back on exit.  No file under ``src/genfrac`` changes.

Spans are aggregated as they close, not stored: per layer the busy time
(outermost span of that layer only, so recursion inside a layer is not
counted twice), the number of outermost calls, and the time spent in each
other layer's spans directly nested inside it.  Counts that do not depend
on the clock (integrals, nodes, points) are kept beside the times.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from genfrac import cli, functions, inequalities, operator_core, quadrature, special_functions
from genfrac.errors import ConvergenceError

# layer -> (module, public functions wrapped with a plain span)
SPANS = {
    "special_functions": (special_functions, ("log_gamma", "log_beta", "gamma_fn", "beta_fn")),
    "quadrature": (quadrature, ("integrate_kernel", "closed_form_monomial")),
    "operator_core": (operator_core, ("evaluate", "evaluate_classical")),
    "functions.pair": (functions, ("generate_ratio_pair", "generate_box_pair")),
    "inequalities": (inequalities, ("run_suite",)),
    "cli": (cli, ("main",)),
}


class Tracer:
    def __init__(self):
        self._stack = []  # (layer, start)
        self._depth = Counter()
        self.busy = defaultdict(float)
        self.calls = Counter()  # outermost spans per layer
        self.nested = defaultdict(float)  # (parent layer, child layer) -> seconds
        self.counts = Counter()

    def _enter(self, layer):
        self._stack.append((layer, time.perf_counter()))
        self._depth[layer] += 1

    def _exit(self):
        layer, start = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy[layer] += elapsed
            self.calls[layer] += 1
        if self._stack and self._stack[-1][0] != layer:
            self.nested[self._stack[-1][0], layer] += elapsed

    def span(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def quadrature_span(self, fn):
        """weighted_unit_integral: also time the integrand and count work."""
        integrand = self.span("quadrature.integrand", lambda g, u: g(u))

        @functools.wraps(fn)
        def traced(g, *args, **kwargs):
            self.counts["quadrature.calls"] += 1
            self._enter("quadrature")
            try:
                res = fn(lambda u: integrand(g, u), *args, **kwargs)
            except ConvergenceError as exc:
                self.counts["quadrature.convergence_errors"] += 1
                if exc.result is not None:
                    self.counts["quadrature.evaluations"] += exc.result.evaluations
                raise
            finally:
                self._exit()
            self.counts["quadrature.evaluations"] += res.evaluations
            return res
        return traced

    def eval_span(self, fn):
        """TestFunction.__call__: also count the points evaluated."""

        @functools.wraps(fn)
        def traced(f, t):
            self.counts["functions.eval.calls"] += 1
            self.counts["functions.eval.points"] += int(np.size(t))
            self._enter("functions.eval")
            try:
                return fn(f, t)
            finally:
                self._exit()
        return traced


def _rebind_everywhere(original, replacement, undo):
    for name, module in list(sys.modules.items()):
        if name != "genfrac" and not name.startswith("genfrac."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route calls into genfrac through ``tracer`` while the block runs."""
    undo = []
    try:
        for layer, (module, names) in SPANS.items():
            for name in names:
                fn = getattr(module, name)
                _rebind_everywhere(fn, tracer.span(layer, fn), undo)
        wui = quadrature.weighted_unit_integral
        _rebind_everywhere(wui, tracer.quadrature_span(wui), undo)
        call = functions.TestFunction.__call__
        functions.TestFunction.__call__ = tracer.eval_span(call)
        undo.append((functions.TestFunction, "__call__", call))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
