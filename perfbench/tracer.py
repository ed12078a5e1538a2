"""In-memory span tracer for the valwb benchmark.

The tracer wraps functions of the ``valwb`` package from outside it, so the
program's source stays untouched.  A wrapped function becomes a *span*: the
tracer records its calls, its self time (duration minus the time of the
spans it called) and the exceptions that leave its layer.  Field operations
are only *counted*: they run millions of times per suite call, and timing
each would swamp what is measured.

Module-level functions are often imported by name into other modules (for
example ``selftest`` does ``from .valuation import eval_spec``).  Patching
only the defining module would silently miss those callers, so ``install``
rebinds every name, in every loaded ``valwb`` namespace, that refers to the
original function.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, owner, attribute).  An owner is "module" for a module-level
# function or "module:Class" for a method.  Several targets may share one
# span name; self time then adds up across them.
SPANS = [
    ("series.add", "series:PuiseuxSeries", "__add__"),
    ("series.mul", "series:PuiseuxSeries", "__mul__"),
    ("series.val", "series:PuiseuxSeries", "val"),         # for series.undecidable
    ("series.invert", "series", "invert"),
    ("series.coerce", "series", "coerce"),
    ("series.ratfunc", "series:RatFunc", "__init__"),
    ("series.ratfunc", "series:RatFunc", "__add__"),
    ("series.ratfunc", "series:RatFunc", "__mul__"),
    ("series.ratfunc", "series:RatFunc", "__truediv__"),
    ("polyx.recenter", "polyx:PolyX", "recenter_hasse"),
    ("polyx.mul", "polyx:PolyX", "__mul__"),
    ("polyx.qadic", "polyx:PolyX", "qadic_expand"),
    ("polyx.newton", "polyx:PolyX", "newton_polygon"),
    ("polyx.evaluate", "polyx:PolyX", "evaluate"),
    ("valuation.eval", "valuation", "eval_spec"),
    ("valuation.delta", "valuation", "delta"),
    ("pcs.values_along", "pcs", "values_along"),
    ("pcs.classify", "pcs", "classify_generator"),
    ("pcs.materialize", "pcs:PcsGenerator", "elements"),
    ("pcs.materialize", "pcs:PcsGenerator", "gammas"),
    ("algnum.minpoly", "algnum", "minpoly_over_completion"),
    ("algnum.krasner", "algnum", "krasner_constant"),
    ("lifting.density", "lifting", "approximate_density"),
    ("lifting.same_delta", "lifting", "approximate_same_delta"),
    ("lifting.lift", "lifting", "lift_cskp"),
    ("lifting.classify", "lifting", "classify_extension"),
    ("sampling", "sampling", "random_scalar"),
    ("sampling", "sampling", "random_tpoly"),
    ("sampling", "sampling", "random_ratfunc"),
    ("sampling", "sampling", "random_series"),
    ("sampling", "sampling", "random_polyx"),
    ("selftest.examples", "examples", "run_example"),
    ("selftest.axioms", "selftest", "check_valuation_axioms"),
    ("selftest.laws", "selftest", "check_value_comparison_laws"),
    ("selftest.pairs", "selftest", "check_pair_equivalence"),
    ("selftest.density", "selftest", "check_density"),
    ("selftest.same_delta", "selftest", "check_same_delta"),
    ("selftest.roots", "selftest", "check_root_continuity"),
    ("selftest.conjugacy", "selftest", "check_conjugacy"),
    ("report.structured", "report:Report", "to_structured"),
]

# (counter name, owner, attribute): counted, never timed.
COUNTERS = [("field.ops", "field:BaseField", op)
            for op in ("add", "sub", "neg", "mul", "inv", "div", "pow")]
COUNTERS += [("field.is_zero.calls", "field:BaseField", "is_zero"),
             ("field.coerce.calls", "field:BaseField", "coerce")]

UNDECIDABLE = ("PrecisionExhausted", "HorizonExceeded")


class Tracer:
    """Span stack, per-span totals and counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)    # outermost instance only
        self.counts = defaultdict(int)
        self.failures = defaultdict(int)     # (layer, exception class) -> n
        self.degree_sum = 0                  # over polyx.recenter calls
        self.redraw_calls = 0
        self.redraws = 0
        self._stack = []                     # [child seconds, layer] per span
        self._depth = defaultdict(int)       # span name -> open instances
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn):
        """``fn`` wrapped as a span called ``name``."""
        stack, clock, depth = self._stack, self.clock, self._depth
        calls, self_s, total_s, failures = self.calls, self.self_s, self.total_s, self.failures
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # counted once where it leaves the layer, not at every frame
                if len(stack) < 2 or stack[-2][1] != layer:
                    failures[(layer, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if not depth[name]:
                    total_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target of SPANS and COUNTERS in the loaded valwb."""
        for name, owner, attr in COUNTERS:
            self._wrap(owner, attr, lambda fn, n=name: self.counter(n, fn))
        for name, owner, attr in SPANS:
            make = lambda fn, n=name: self.span(n, fn)
            if name == "polyx.recenter":
                make = self._recenter_span
            self._wrap(owner, attr, make)
        self._wrap("selftest", "_redraw", self._redraw_counter)

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, owner, attr, make):
        module_name, _, class_name = owner.partition(":")
        module = sys.modules[f"valwb.{module_name}"]
        if class_name:
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, original, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "valwb" and not mod_name.startswith("valwb."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapped)

    def _set(self, target, attr, original, wrapped):
        setattr(target, attr, wrapped)
        self._undo.append((target, attr, original))

    def _recenter_span(self, fn):
        inner = self.span("polyx.recenter", fn)

        def wrapper(poly, center):
            self.degree_sum += len(poly.coeffs) - 1
            return inner(poly, center)

        wrapper.__wrapped__ = fn
        return wrapper

    def _redraw_counter(self, fn):
        def wrapper(*args, **kwargs):
            result, redraws = fn(*args, **kwargs)
            self.redraw_calls += 1
            self.redraws += redraws
            return result, redraws

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def attributed_s(self):
        """Sum of self times: the wall time the spans account for."""
        return sum(self.self_s.values())

    def layer_failures(self, layer, kinds=UNDECIDABLE):
        return sum(n for (lay, kind), n in self.failures.items()
                   if lay == layer and kind in kinds)

    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        c, s, t = self.calls, self.self_s, self.total_s
        out = {
            "field.ops": (self.counts["field.ops"], "count"),
            "field.is_zero.calls": (self.counts["field.is_zero.calls"], "count"),
            "field.coerce.calls": (self.counts["field.coerce.calls"], "count"),
            "series.undecidable": (self.layer_failures("series"), "count"),
            "polyx.recenter.degree_mean": (
                self.degree_sum / c["polyx.recenter"] if c["polyx.recenter"] else 0.0,
                "degree"),
            "valuation.undecidable": (self.layer_failures("valuation"), "count"),
            "pcs.horizon_exceeded": (
                self.layer_failures("pcs", ("HorizonExceeded",)), "count"),
            "selftest.redraws": (self.redraws, "count"),
            "selftest.redraw_ratio": (
                self.redraws / (self.redraws + self.redraw_calls)
                if self.redraw_calls else 0.0, "ratio"),
        }
        for name in ("series.coerce", "series.add", "series.mul", "series.invert",
                     "polyx.recenter", "valuation.eval", "valuation.delta",
                     "pcs.values_along", "lifting.density"):
            out[f"{name}.calls"] = (c[name], "count")
        for name in ("series.coerce", "series.add", "series.mul", "series.invert",
                     "series.ratfunc", "polyx.recenter", "polyx.mul", "polyx.qadic",
                     "polyx.newton", "polyx.evaluate", "valuation.eval",
                     "valuation.delta", "pcs.values_along", "pcs.classify",
                     "pcs.materialize", "algnum.minpoly", "algnum.krasner",
                     "lifting.density", "lifting.same_delta", "lifting.lift",
                     "lifting.classify", "sampling", "report.structured"):
            out[f"{name}.self_s"] = (s[name], "s")
        out["polyx.recenter.s"] = (t["polyx.recenter"], "s")
        for part in ("axioms", "laws", "pairs", "density", "same_delta", "roots",
                     "conjugacy", "examples"):
            out[f"selftest.{part}.s"] = (t[f"selftest.{part}"], "s")
        return out
