"""Per-layer tracing for the traced benchmark run.

``Tracer.install`` wraps the public functions of each expsums module and
replaces every reference to them: in the defining module, in every module that
imported the name (``bounds`` holds ``sup_norm`` and ``l1_norm``; ``expsum``
and ``dephasing`` hold ``adaptive_gauss_legendre``; ``cli`` holds
``derivative_magnitudes``, ``uhrig_sum`` and ``scaled_sum``) and in the package
namespace.  Each wrapped call is a span; a span's self time is its duration
minus the spans it caused.  The integrand passed to the quadrature is wrapped
too, to count evaluation points, and the sup-norm scan and refinement helpers
are timed when ``sup_norm`` calls them.  ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "bounds", "sequences", "expsum", "quadrature", "dephasing", "chebyshev")

# Span keys of functions with metrics of their own; every other public function
# is keyed by its module.
SPAN_KEYS = {
    "cli.main": "cli",
    "expsum.sup_norm": "expsum.sup_norm",
    "expsum.vanishing_order": "expsum.vanishing_order",
    "expsum.derivative_magnitudes": "expsum.derivative_magnitudes",
    "expsum.l1_norm": "expsum.l1_norm",
    "quadrature.adaptive_gauss_legendre": "quadrature",
    "dephasing.decay_factor": "dephasing.decay_factor",
    "dephasing.filter_function": "dephasing.filter_function",
    "dephasing.uhrig_filter_magnitude": "dephasing.uhrig_filter_magnitude",
    "dephasing.vanishing_order_filter": "dephasing.vanishing_order_filter",
    "bounds.check_taylor_envelope": "bounds.check",
    "bounds.check_stirling_envelope": "bounds.check",
    "bounds.lower_bound_probe": "bounds.lower_bound_probe",
    "bounds.scaling_fit": "bounds.scaling_fit",
    "chebyshev.endpoint_identity_residual": "chebyshev.endpoint_identity",
}

# Per-layer metrics: (name, unit, kind, source).  kind "calls", "ms" (inclusive)
# and "self_ms" read span statistics; "count" reads a counter.
METRICS = [
    ("cli.calls", "count", "calls", "cli"),
    ("cli.self_ms", "ms", "self_ms", "cli"),
    ("sequences.calls", "count", "calls", "sequences"),
    ("sequences.ms", "ms", "ms", "sequences"),
    ("expsum.sup_norm.calls", "count", "calls", "expsum.sup_norm"),
    ("expsum.sup_norm.scan_ms", "ms", "ms", "expsum.sup_norm.scan"),
    ("expsum.sup_norm.refine_ms", "ms", "ms", "expsum.sup_norm.refine"),
    ("expsum.sup_norm.refine_evals", "count", "count", "refine_evals"),
    ("expsum.sup_norm.grid_points", "count", "count", "grid_points"),
    ("expsum.vanishing_order.calls", "count", "calls", "expsum.vanishing_order"),
    ("expsum.vanishing_order.ms", "ms", "ms", "expsum.vanishing_order"),
    ("expsum.vanishing_order.orders", "count", "count", "orders"),
    ("expsum.derivative_magnitudes.ms", "ms", "ms", "expsum.derivative_magnitudes"),
    ("expsum.l1_norm.calls", "count", "calls", "expsum.l1_norm"),
    ("expsum.l1_norm.self_ms", "ms", "self_ms", "expsum.l1_norm"),
    ("quadrature.calls", "count", "calls", "quadrature"),
    ("quadrature.self_ms", "ms", "self_ms", "quadrature"),
    ("quadrature.integrand_ms", "ms", "ms", "quadrature.integrand"),
    ("quadrature.integrand_calls", "count", "calls", "quadrature.integrand"),
    ("quadrature.integrand_points", "count", "count", "integrand_points"),
    ("quadrature.panels", "count", "count", "panels"),
    ("quadrature.panels_per_integral", "count", "count", "panels_per_integral"),
    ("quadrature.failed", "count", "count", "quadrature_failed"),
    ("dephasing.decay_factor.calls", "count", "calls", "dephasing.decay_factor"),
    ("dephasing.decay_factor.self_ms", "ms", "self_ms", "dephasing.decay_factor"),
    ("dephasing.filter_function.calls", "count", "calls", "dephasing.filter_function"),
    ("dephasing.filter_function.ms", "ms", "ms", "dephasing.filter_function"),
    ("dephasing.uhrig_filter_magnitude.ms", "ms", "ms", "dephasing.uhrig_filter_magnitude"),
    ("dephasing.vanishing_order_filter.ms", "ms", "ms", "dephasing.vanishing_order_filter"),
    ("bounds.check.calls", "count", "calls", "bounds.check"),
    ("bounds.check.self_ms", "ms", "self_ms", "bounds.check"),
    ("bounds.lower_bound_probe.self_ms", "ms", "self_ms", "bounds.lower_bound_probe"),
    ("bounds.scaling_fit.ms", "ms", "ms", "bounds.scaling_fit"),
    ("chebyshev.endpoint_identity.calls", "count", "calls", "chebyshev.endpoint_identity"),
    ("chebyshev.endpoint_identity.ms", "ms", "ms", "chebyshev.endpoint_identity"),
]

# Counts a later change may cite: each repeats exactly for one seed.
EXACT_COUNTS = (
    "quadrature.panels",
    "quadrature.integrand_points",
    "expsum.sup_norm.refine_evals",
    "expsum.sup_norm.grid_points",
    "expsum.vanishing_order.orders",
    "dephasing.filter_function.calls",
)


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._patched = []  # (namespace, attribute, original)
        self._stack = []  # [key, start, child_seconds]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _enter(self, key):
        self._stack.append([key, time.perf_counter(), 0.0])
        self._depth[key] += 1

    def _exit(self, key):
        _, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._depth[key] -= 1
        self.calls[key] += 1
        self.self_time[key] += duration - child
        if self._depth[key] == 0:
            self.inclusive[key] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _span(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key)
        return wrapper

    # -- wrappers with counters --------------------------------------------

    def _wrap(self, layer, name, fn):
        key = SPAN_KEYS.get(f"{layer}.{name}", layer)
        if key == "quadrature":
            return self._wrap_quadrature(fn)
        if key == "expsum.vanishing_order":
            return self._wrap_vanishing_order(fn)
        return self._span(key, fn)

    def _wrap_quadrature(self, fn):
        integrand_span = "quadrature.integrand"

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(ts):
                self.counters["integrand_points"] += len(ts)
                self._enter(integrand_span)
                try:
                    return f(ts)
                finally:
                    self._exit(integrand_span)

            self._enter("quadrature")
            try:
                return fn(counted, *args, **kwargs)
            except self._quadrature_error:
                self.counters["quadrature_failed"] += 1
                raise
            finally:
                self._exit("quadrature")
        return wrapper

    def _wrap_vanishing_order(self, fn):
        signature = inspect.signature(fn)
        key = "expsum.vanishing_order"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(key)
            try:
                order = fn(*args, **kwargs)
            finally:
                self._exit(key)
            if order is None:
                bound = signature.bind(*args, **kwargs)
                m_max = bound.arguments.get("m_max")
                if m_max is None:
                    m_max = 2 * len(bound.arguments["g"]) + 8
                self.counters["orders"] += m_max + 1
            else:
                self.counters["orders"] += order + 1
            return order
        return wrapper

    def _wrap_sup_norm_helpers(self, expsum):
        grid, golden = expsum._values_on_grid, expsum._golden_max

        @functools.wraps(grid)
        def scan(g, ts):
            if self._parent() != "expsum.sup_norm":
                return grid(g, ts)
            self.counters["grid_points"] += len(ts)
            self._enter("expsum.sup_norm.scan")
            try:
                return grid(g, ts)
            finally:
                self._exit("expsum.sup_norm.scan")

        @functools.wraps(golden)
        def refine(f, *args):
            if self._parent() != "expsum.sup_norm":
                return golden(f, *args)

            def counted(t):
                self.counters["refine_evals"] += 1
                return f(t)

            self._enter("expsum.sup_norm.refine")
            try:
                return golden(counted, *args)
            finally:
                self._exit("expsum.sup_norm.refine")

        self._set(expsum, "_values_on_grid", scan)
        self._set(expsum, "_golden_max", refine)

    # -- install / uninstall -----------------------------------------------

    def _set(self, namespace, attribute, value):
        self._patched.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, value)

    def install(self):
        from expsums.errors import QuadratureError

        self._quadrature_error = QuadratureError
        namespaces = [self._package, *self._modules.values()]
        for layer, module in self._modules.items():
            if layer == "cli":
                names = ["main"]
            else:
                names = [
                    name for name in module.__all__
                    if inspect.isfunction(getattr(module, name))
                    and getattr(module, name).__module__ == module.__name__
                ]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            self._set(namespace, attribute, wrapper)
        self._wrap_sup_norm_helpers(self._modules["expsum"])

    def uninstall(self):
        for namespace, attribute, original in reversed(self._patched):
            setattr(namespace, attribute, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric, per pass of the workload's op list."""
        counters = dict(self.counters)
        counters["panels"] = self.calls["quadrature.integrand"] // 2
        integrals = self.calls["quadrature"]
        out = {}
        for name, unit, kind, source in METRICS:
            if kind == "calls":
                value = self.calls[source] / passes
            elif kind == "ms":
                value = 1e3 * self.inclusive[source] / passes
            elif kind == "self_ms":
                value = 1e3 * self.self_time[source] / passes
            elif source == "panels_per_integral":
                value = counters["panels"] / integrals if integrals else 0.0
            else:
                value = counters.get(source, 0) / passes
            out[name] = {"value": value, "unit": unit}
        return out
