"""Per-layer tracing of mellinkit from outside the package.

``Tracer.install`` replaces every binding of each layer's public functions
(module attributes and the from-imports of other modules alike) with a
wrapper that counts the call and times it as a span; ``uninstall`` puts the
originals back. A layer's self time is the time of its spans minus the time
of the spans they caused in any layer, so it is the time spent in that
layer's own code (tracing cost included).

Beyond the module functions, the tracer hooks the places where the
pipeline's per-evaluation work happens without a module-level call:

* ``Jet`` and ``PrincipalPart`` construction (``jets.objects``);
* the ``jet``/``principal_part``/``eval`` callables that ``catalog`` stores
  inside each kernel and coefficient object;
* ``mellin._EvalBudget.spend``, which every integrand evaluation passes
  through, so evaluations are counted even when a transform fails (its
  ``QuadResult`` is then lost, and the harness records ``n_evals=0``);
* ``interp.SequenceData.head``.

Kernel and coefficient objects are created by ``catalog.kernel`` and
``catalog.coefficient``; the harness registry keeps the ones it built on
first use. ``install`` therefore drops the registry so that it is rebuilt
from wrapped objects, and ``uninstall`` restores the original one.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "harness", "interp", "mellin", "series", "jets", "catalog", "specfun")

#: private functions that another layer calls, traced like public ones
_EXTRA = {"cli": ("_emit",), "mellin": ("_scaled_lower_transform",)}
#: left unwrapped: only jets calls it, once per derivative inside
#: shift_operator_apply, so a span would add cost without moving time
#: between layers
_SKIP = {"jets.binomial"}
#: the mellin entry points that start one transform
TRANSFORMS = ("mellin.mellin_transform", "mellin.mellin_oscillatory",
              "mellin.mellin_on_series", "mellin._scaled_lower_transform")


def _modules() -> dict:
    return {layer: sys.modules[f"mellinkit.{layer}"] for layer in LAYERS}


def _own_functions(layer: str, module) -> list:
    names = [n for n, obj in vars(module).items()
             if not n.startswith("_") and callable(obj) and not isinstance(obj, type)
             and getattr(obj, "__module__", None) == module.__name__]
    names += _EXTRA.get(layer, ())
    return [n for n in names if f"{layer}.{n}" not in _SKIP]


class Tracer:
    """Counters and span times for one traced pass over a list of ops."""

    def __init__(self):
        self.calls = Counter()          # "layer.name" -> calls
        self.incl = defaultdict(float)  # "layer.name" -> inclusive seconds
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.edges = Counter()          # (caller key, callee key) -> calls
        self.evals = 0                  # integrand evaluations
        self.transforms = 0             # transforms started from outside mellin
        self.diag_transforms = 0        # ... that ended in an exception
        self.diag_evals = 0             # evaluations those spent
        self.x_calls = 0                # integrand evaluations with a recorded x
        self.x_distinct = 0             # distinct x per op, summed over ops
        self._xs = set()
        self._stack = [["op", None, 0.0]]
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, before=None, after=None):
        stack, calls, edges = self._stack, self.calls, self.edges
        incl, self_s, clock = self.incl, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            calls[key] += 1
            edges[(parent[0], key)] += 1
            state = None
            if before is not None:
                args, state = before(parent, args)
            frame = [key, layer, 0.0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                incl[key] += dt
                self_s[layer] += dt - frame[2]
                parent[2] += dt
                if after is not None:
                    after(state, failed)

        return functools.wraps(fn)(traced)

    def _record_x(self, f):
        xs = self._xs

        def recorded(x):
            xs.add(x)
            self.x_calls += 1
            return f(x)

        return recorded

    def _transform_before(self, key):
        takes_f = key != "mellin.mellin_on_series"

        def before(parent, args):
            if parent[1] == "mellin":
                return args, None
            self.transforms += 1
            if takes_f:
                args = (self._record_x(args[0]),) + tuple(args[1:])
            return args, self.evals

        return before

    def _transform_after(self, start, failed):
        if start is not None and failed:
            self.diag_transforms += 1
            self.diag_evals += self.evals - start

    def _eval_series_before(self, parent, args):
        # the series is mellin's integrand when mellin calls it
        if parent[1] == "mellin":
            self._xs.add(args[1])
            self.x_calls += 1
        return args, None

    def _wrap_catalog_object(self, obj, fields):
        changes = {f: self._wrap(getattr(obj, f), "catalog", f"catalog.{f}") for f in fields}
        return dataclasses.replace(obj, **changes)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every binding of each traced function in mellinkit."""
        mods = _modules()
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name in _own_functions(layer, mod):
                fn = getattr(mod, name)
                key = f"{layer}.{name}"
                before = after = None
                if key in TRANSFORMS:
                    before, after = self._transform_before(key), self._transform_after
                elif key == "series.eval_series":
                    before = self._eval_series_before
                if key in ("catalog.kernel", "catalog.coefficient"):
                    fields = ("eval", "principal_part", "phi_eval") if name == "kernel" \
                        else ("eval", "jet")
                    fn = self._catalog_lookup(fn, fields)
                wrapped[id(getattr(mod, name))] = self._wrap(fn, layer, key, before, after)
        for mod in sys.modules.values():
            if getattr(mod, "__name__", "").startswith("mellinkit."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._set(mod, name, wrapped[id(obj)])
        jets, mellin, interp = mods["jets"], mods["mellin"], mods["interp"]
        for cls in (jets.Jet, jets.PrincipalPart):
            self._set(cls, "__post_init__", self._wrap(
                cls.__post_init__, "jets", f"jets.{cls.__name__}"))
        self._set(interp.SequenceData, "head", self._wrap(
            interp.SequenceData.head, "interp", "interp.SequenceData.head"))
        spend = mellin._EvalBudget.spend

        def counted_spend(budget, n=1):
            self.evals += n
            return spend(budget, n)

        self._set(mellin._EvalBudget, "spend", counted_spend)
        harness = mods["harness"]
        self._set(harness, "_REGISTRY", None)

    def _catalog_lookup(self, lookup, fields):
        def traced_lookup(*args, **kwargs):
            return self._wrap_catalog_object(lookup(*args, **kwargs), fields)
        return functools.wraps(lookup)(traced_lookup)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- per-op bookkeeping --------------------------------------------------

    def end_op(self):
        """Close one op: distinct integrand abscissae count per op."""
        self.x_distinct += len(self._xs)
        self._xs.clear()

    def reset(self):
        """Forget everything counted so far (e.g. while the registry was
        built). Clears in place: the wrappers hold these containers."""
        self.calls.clear()
        self.incl.clear()
        self.edges.clear()
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self._stack[:] = [["op", None, 0.0]]
        self._xs.clear()
        self.evals = self.transforms = self.diag_transforms = self.diag_evals = 0
        self.x_calls = self.x_distinct = 0

    # -- metrics ---------------------------------------------------------------

    def counts(self) -> dict:
        """Every exact count, for comparing two traced runs."""
        return {"calls": dict(self.calls), "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
                "evals": self.evals, "transforms": self.transforms,
                "diag_transforms": self.diag_transforms, "diag_evals": self.diag_evals,
                "x_calls": self.x_calls, "x_distinct": self.x_distinct}

    def metrics(self) -> dict:
        c = self.calls

        def ratio(a, b):
            return a / b if b else 0.0

        def ms(layer):
            return 1e3 * self.self_s[layer]

        sums = c["series.sum_series"]
        evals_calls = c["series.eval_series"]
        return {
            "series.terms_per_sum": ratio(c["series.term"], sums),
            "series.us_per_term": 1e6 * ratio(self.incl["series.term"], c["series.term"]),
            "series.sum_calls": sums,
            "series.eval_calls": evals_calls,
            "series.closed_form_frac": ratio(
                evals_calls - self.edges[("series.eval_series", "series.sum_series")], evals_calls),
            "series.seam_checks": c["series.seam_check"],
            "series.self_ms": ms("series"),
            "jets.objects": c["jets.Jet"] + c["jets.PrincipalPart"],
            "jets.self_ms": ms("jets"),
            "catalog.jet_calls": c["catalog.jet"],
            "catalog.principal_part_calls": c["catalog.principal_part"],
            "catalog.self_ms": ms("catalog"),
            "mellin.transforms": self.transforms,
            "mellin.evals_per_transform": ratio(self.evals, self.transforms),
            "mellin.f_reuse": ratio(self.x_calls, self.x_distinct),
            "mellin.evals_to_diagnostic": ratio(self.diag_evals, self.diag_transforms),
            "mellin.self_ms": ms("mellin"),
            "specfun.calls": sum(n for k, n in c.items() if k.startswith("specfun.")),
            "specfun.self_ms": ms("specfun"),
            "specfun.bessel_k0_calls": c["specfun.bessel_k0"],
            "specfun.bessel_k0_ms": 1e3 * self.incl["specfun.bessel_k0"],
            "harness.handles_built": c["series.handle"],
            "harness.self_ms": ms("harness"),
            "interp.head_calls": c["interp.SequenceData.head"],
            "interp.self_ms": ms("interp"),
            "cli.self_ms": ms("cli"),
            "cli.render_ms": 1e3 * self.incl["cli._emit"],
        }
