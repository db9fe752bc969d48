"""Outside-in tracer for the qkt layers.

The tracer wraps public functions of the ``qkt`` modules from outside the
program: every module namespace that holds a reference to a traced
function gets the wrapper (``from .tensor_core import gradient`` copies
``gradient`` into five modules, so wrapping only the defining module
would miss most calls).  Each call records a span ``(name, start, end,
parent)``; self time is a span's duration minus the durations of its
direct children.

Known limit: private helpers reached through closures are not wrapped.
``qkt_connection._section2_bundle`` runs behind ``QKTStructure.torsion``
and ``connection``, so its time lands in the self time of whichever
traced function first touches a point (``torsion_one_forms`` on
``conf8_all``, ``tensor_core.partial_derivative`` on ``conf8_curv``).
"""

from __future__ import annotations

import functools
import sys
import time

# (layer metric prefix, module, attribute path, metrics to report).
#   "calls"    -- number of calls per operation;
#   "self_pct" -- time outside traced children, in % of the operation;
#   "pct"      -- inclusive time (outermost calls only), in % of the operation.
# Times are reported as shares of the traced operation's wall time, not in
# seconds: a layer that a workload never enters would otherwise read 0 s on
# every run, and the shares absorb some of the host's speed drift.  The
# seconds themselves are printed beside them (see run.py).
TRACED = (
    ("zoo.build_manifold", "qkt.zoo", "build_manifold", ("pct",)),
    ("zoo.sample_points", "qkt.zoo", "sample_points", ("pct",)),
    ("zoo.conformal_ingredients", "qkt.zoo", "conformal_ingredients", ("pct",)),
    ("qkt_connection.existence_residual", "qkt.qkt_connection",
     "existence_residual", ("calls", "self_pct")),
    ("qkt_connection.bundle_at", "qkt.qkt_connection",
     "QKTStructure.bundle_at", ("calls",)),
    ("qkt_connection.torsion_one_forms", "qkt.qkt_connection",
     "torsion_one_forms", ("calls", "self_pct")),
    ("qkt_connection.structure_invariant_residuals", "qkt.qkt_connection",
     "structure_invariant_residuals", ("calls", "self_pct")),
    ("qkt_connection.classify", "qkt.qkt_connection", "classify",
     ("calls", "self_pct")),
    ("quaternionic.project_plus_3form", "qkt.quaternionic",
     "project_plus_3form", ("calls", "self_pct")),
    ("quaternionic.frame_trace_pair", "qkt.quaternionic",
     "frame_trace_pair", ("calls", "self_pct")),
    ("quaternionic.nijenhuis_bracket", "qkt.quaternionic",
     "nijenhuis_bracket", ("calls", "self_pct")),
    ("quaternionic.torsion_02_part", "qkt.quaternionic",
     "torsion_02_part", ("calls", "self_pct")),
    ("quaternionic.dT_type22_residual", "qkt.quaternionic",
     "dT_type22_residual", ("calls", "self_pct")),
    ("tensor_core.partial_derivative", "qkt.tensor_core",
     "partial_derivative", ("calls", "self_pct")),
    ("tensor_core.gradient", "qkt.tensor_core", "gradient",
     ("calls", "self_pct")),
    ("tensor_core.levi_civita", "qkt.tensor_core", "levi_civita",
     ("calls", "self_pct")),
    ("tensor_core.covariant_derivative_array", "qkt.tensor_core",
     "covariant_derivative_array", ("calls", "self_pct")),
    ("tensor_core.wedge_arrays", "qkt.tensor_core", "wedge_arrays",
     ("calls", "self_pct")),
    ("tensor_core.hodge_star_array", "qkt.tensor_core", "hodge_star_array",
     ("calls", "self_pct")),
    ("conformal.ConformalFactor.value", "qkt.conformal",
     "ConformalFactor.value", ("calls",)),
    ("conformal.conformal_law_residuals", "qkt.conformal",
     "conformal_law_residuals", ("pct",)),
    ("conformal.lchkt_residual", "qkt.conformal", "lchkt_residual", ("pct",)),
    ("conformal.lcqk_residual", "qkt.conformal", "lcqk_residual", ("pct",)),
    ("curvature.curvature_tensor", "qkt.curvature", "curvature_tensor",
     ("calls", "self_pct")),
    ("curvature.sp1_curvature_residuals", "qkt.curvature",
     "sp1_curvature_residuals", ("pct",)),
    ("curvature.bianchi_and_symmetry_residuals", "qkt.curvature",
     "bianchi_and_symmetry_residuals", ("pct",)),
    ("curvature.trace_identity_residuals", "qkt.curvature",
     "trace_identity_residuals", ("pct",)),
    ("curvature.dim4_einstein_suite", "qkt.curvature",
     "dim4_einstein_suite", ("pct",)),
    ("curvature.weyl_correspondence", "qkt.curvature",
     "weyl_correspondence", ("pct",)),
    ("expressions.Expression.__call__", "qkt.expressions",
     "Expression.__call__", ("calls", "self_pct")),
    ("suite.diagnostics", "qkt.suite", "_diagnostics", ("pct",)),
)

# The suite runner looks its evaluator groups up in this table at call time.
GROUPS = ("structural", "lc", "conformal", "curvature", "dim4")

# Per-structure memo caches, counted after each operation.
CACHES = (
    ("qkt_connection.cache.bundle", "bundle"),
    ("qkt_connection.cache.T", "T"),
    ("qkt_connection.cache.Gamma", "Gamma"),
    ("qkt_connection.cache.omega", "omega"),
    ("curvature.cache.ctx", "curvature_ctx"),
)


# Every traced layer, in report order: the evaluator groups, then TRACED.
LAYERS = [(f"suite.group.{g}", ("pct",)) for g in GROUPS] + [
    (prefix, kinds) for prefix, _, _, kinds in TRACED]


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{prefix}.{kind}", "count" if kind == "calls" else "%")
             for prefix, kinds in LAYERS for kind in kinds]
    names.extend((name, "count") for name, _ in CACHES)
    names.append(("trace.report_s", "s"))
    return names


def layer_metrics(seconds: dict, caches: dict, report_s: float) -> dict:
    """The per-layer metrics of one traced operation that took ``report_s``
    seconds, from its ``Tracer.layer_seconds()`` and ``Tracer.cache_sizes()``."""
    out = {}
    for prefix, kinds in LAYERS:
        calls, self_s, inclusive_s = seconds[prefix]
        values = {"calls": calls, "self_pct": 100.0 * self_s / report_s,
                  "pct": 100.0 * inclusive_s / report_s}
        for kind in kinds:
            out[f"{prefix}.{kind}"] = values[kind]
    out.update(caches)
    out["trace.report_s"] = report_s
    return out


class Tracer:
    """Installs span-recording wrappers into the qkt namespaces.

    ``spans`` is a list of ``(name, start, end, parent_index)``; a parent
    index of -1 marks a span with no traced caller.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self.structure = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qkt" or mod_name.startswith("qkt.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        import qkt.suite as suite

        for prefix, mod_name, path, _ in TRACED:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(prefix, original)
            if outer:
                self._set(owner, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)

        evaluators = suite._GROUP_EVALUATORS
        for group in GROUPS:
            self._undo.append((evaluators, group, evaluators[group]))
            evaluators[group] = self._wrap(f"suite.group.{group}", evaluators[group])

        # The structure under test is what the suite's build_manifold returns.
        build = suite.build_manifold

        def build_and_keep(*args, **kwargs):
            self.structure = build(*args, **kwargs)
            return self.structure

        self._set(suite, "build_manifold", build_and_keep)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.structure = None

    def layer_seconds(self) -> dict:
        """``{layer: (calls, self seconds, inclusive seconds)}`` of the spans
        recorded since the last reset."""
        spans = self.spans
        totals = {prefix: [0, 0.0, 0.0] for prefix, _ in LAYERS}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            total = totals[name]
            total[0] += 1
            total[1] += (end - start) - child_time[index]
            if not self._nested_in_same(index):
                total[2] += end - start
        return {prefix: tuple(total) for prefix, total in totals.items()}

    def cache_sizes(self) -> dict:
        """Entries in each memo cache of the structure under test."""
        caches = self.structure.caches if self.structure is not None else {}
        return {name: len(caches.get(key, {})) for name, key in CACHES}

    def _nested_in_same(self, index) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
