"""Span tracing of lgcardy from outside the package.

``Tracer.install`` replaces every public function of the eight layer
modules with a recording wrapper, in every ``lgcardy`` namespace that binds
it (``from .cardy import verify_cardy_frobenius`` copies the binding, so the
package, ``bundle`` and ``cli`` each hold their own).  A span is
(function, start, end, parent span, job, raised, argument key); spans stay
in memory and ``layer_metrics`` derives self times, counts and distinct
ratios from them.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("polycore", "frobenius", "cardy", "landau_ginzburg", "moduli",
          "tensor_series", "bundle", "cli")


def _polynomial_key(signature):
    """Coefficients of the polynomial a call is about, given as p or (n, a)."""
    def key(args, kwargs):
        bound = signature.bind_partial(*args, **kwargs).arguments
        p = bound.get("p")
        a = p.a if p is not None else bound.get("a")
        return tuple(complex(z) for z in a)
    return key


def _series_size(args, kwargs):
    series = args[0] if args else kwargs["series"]
    return len(series.terms)


# functions whose argument is recorded: the polynomial for distinct ratios,
# the series size for ext_wdvv_check
KEYED = {
    ("polycore", "critical_points"): _polynomial_key,
    ("landau_ginzburg", "build_closed"): _polynomial_key,
    ("moduli", "flat_chart"): _polynomial_key,
    ("tensor_series", "ext_wdvv_check"): lambda sig: _series_size,
}


class Tracer:
    def __init__(self, package):
        self.spans = []
        self.job = -1
        self._stack = []
        self._last_exc = None
        self.functions = []  # (layer, name), indexed by span function id
        modules = [package] + [importlib.import_module(package.__name__ + "." + layer)
                               for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, type) or not callable(fn):
                    continue
                make_key = KEYED.get((layer, name))
                key = make_key(inspect.signature(fn)) if make_key else None
                wrappers[id(fn)] = self._wrap(len(self.functions), fn, key)
                self.functions.append((layer, name))
        self._patches = [
            (module, attr, value, wrappers[id(value)])
            for module in modules
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def _wrap(self, fid, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            arg_key = key(args, kwargs) if key is not None else None
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count a raise once, in the span it left first
                raised = exc is not tracer._last_exc
                tracer._last_exc = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fid, start, end, parent, tracer.job, raised, arg_key)

        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans


class LayerTotals:
    """Sums over the spans of traced passes, from which the metrics follow."""

    def __init__(self, functions):
        self.functions = functions
        self.calls = defaultdict(int)       # (layer, name) -> calls
        self.inclusive = defaultdict(float)  # (layer, name) -> seconds
        self.distinct = defaultdict(int)    # (layer, name) -> distinct keys per job, summed
        self.key_sum = defaultdict(int)     # (layer, name) -> sum of integer keys
        self.self_time = defaultdict(float)  # layer -> seconds
        self.raised = defaultdict(int)      # layer -> raises
        self.spans = 0

    def add(self, spans):
        self.spans += len(spans)
        child = [0.0] * len(spans)
        for fid, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        keys = defaultdict(set)
        for i, (fid, start, end, parent, job, raised, key) in enumerate(spans):
            fn = self.functions[fid]
            layer = fn[0]
            self.calls[fn] += 1
            self.inclusive[fn] += end - start
            self.self_time[layer] += end - start - child[i]
            self.raised[layer] += raised
            if isinstance(key, int):
                self.key_sum[fn] += key
            elif key is not None:
                keys[(fn, job)].add(key)
        for (fn, _), distinct in keys.items():
            self.distinct[fn] += len(distinct)

    def self_seconds(self):
        return sum(self.self_time.values())


def layer_metrics(totals, jobs):
    """Per-layer metrics over ``jobs`` traced jobs (names as in BENCHMARK.json)."""
    def per_job(x):
        return x / jobs

    def ms_per_call(fn):
        calls = totals.calls[fn]
        return 1e3 * totals.inclusive[fn] / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = totals.calls
    out = {}
    for layer in LAYERS:
        out[layer + ".self_ms_per_job"] = (per_job(1e3 * totals.self_time[layer]), "ms/job")
    out.update({
        "cardy.verify_cardy_frobenius.ms_per_call":
            (ms_per_call(("cardy", "verify_cardy_frobenius")), "ms/call"),
        "cardy.coordinate_route_share":
            (ratio(totals.inclusive[("cardy", "cardy_residual_coordinates")],
                   totals.inclusive[("cardy", "verify_cardy_frobenius")]), "ratio"),
        "tensor_series.ext_wdvv_check.ms_per_call":
            (ms_per_call(("tensor_series", "ext_wdvv_check")), "ms/call"),
        "tensor_series.d_sss.calls_per_job":
            (per_job(c[("tensor_series", "d_sss")]), "calls/job"),
        "tensor_series.series_terms_per_check":
            (ratio(totals.key_sum[("tensor_series", "ext_wdvv_check")],
                   c[("tensor_series", "ext_wdvv_check")]), "terms/call"),
        "polycore.critical_points.calls_per_job":
            (per_job(c[("polycore", "critical_points")]), "calls/job"),
        "polycore.critical_points.distinct_ratio":
            (ratio(totals.distinct[("polycore", "critical_points")],
                   c[("polycore", "critical_points")]), "ratio"),
        "polycore.residue_functional.calls_per_job":
            (per_job(c[("polycore", "residue_functional")]), "calls/job"),
        "polycore.raised_per_job": (per_job(totals.raised["polycore"]), "raises/job"),
        "landau_ginzburg.build_closed.calls_per_job":
            (per_job(c[("landau_ginzburg", "build_closed")]), "calls/job"),
        "landau_ginzburg.build_closed.distinct_ratio":
            (ratio(totals.distinct[("landau_ginzburg", "build_closed")],
                   c[("landau_ginzburg", "build_closed")]), "ratio"),
        "moduli.flat_chart.calls_per_job":
            (per_job(c[("moduli", "flat_chart")]), "calls/job"),
        "moduli.flat_chart.distinct_ratio":
            (ratio(totals.distinct[("moduli", "flat_chart")],
                   c[("moduli", "flat_chart")]), "ratio"),
        "moduli.coefficients_from_flat.ms_per_call":
            (ms_per_call(("moduli", "coefficients_from_flat")), "ms/call"),
        "moduli.reconstruct_potential.ms_per_call":
            (ms_per_call(("moduli", "reconstruct_potential")), "ms/call"),
        "moduli.raised_per_job": (per_job(totals.raised["moduli"]), "raises/job"),
        "frobenius.verify_frobenius.calls_per_job":
            (per_job(c[("frobenius", "verify_frobenius")]), "calls/job"),
        "bundle.assemble_potential.ms_per_call":
            (ms_per_call(("bundle", "assemble_potential")), "ms/call"),
        "bundle.flat_s_frame.calls_per_job":
            (per_job(c[("bundle", "flat_s_frame")]), "calls/job"),
    })
    return out
