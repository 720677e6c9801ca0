"""Per-layer timings and work counts, recorded from outside vfindex.

``LayerTrace`` wraps the public functions of each vfindex module where their
callers look them up.  Modules import functions by name, so a function is
wrapped once per importing module (``indices.find_interior_zeros``,
``verify.find_boundary_tangential_zeros``, ...); methods are wrapped on
their class.  Every wrapper keeps a call stack, so each layer gets its self
time: the wall time of its calls minus the time spent in wrapped calls
beneath them.  Code that is not wrapped (numpy, small helpers) counts
towards the nearest wrapped caller.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

from vfindex import (complexfield, euler, expr, fields, indices, manifold,
                     verify, zerofind)

_FULL_INDEX_SIG = inspect.signature(indices.full_index)

# work counted at the wrapped calls
COUNTS = ("expr.jets_points", "expr.values_points", "fields.callable_points",
          "zerofind.interior_calls", "zerofind.boundary_calls",
          "zerofind.boundary_zeros", "manifold.charts",
          "manifold.surface_points", "degree.calls", "degree.samples",
          "indices.full_index_calls", "verify.tame_checks",
          "verify.perturbations", "euler.voxels",
          "complexfield.square_norm_points")
# self time of each layer
SELF_TIMES = {"expr.self_s": "expr", "fields.self_s": "fields",
              "zerofind.interior_self_s": "zerofind.interior",
              "zerofind.boundary_self_s": "zerofind.boundary",
              "manifold.chart_self_s": "manifold.chart",
              "manifold.projection_self_s": "manifold.projection",
              "degree.self_s": "degree", "indices.self_s": "indices",
              "verify.tame_self_s": "verify.tame"}
# wall time of whole calls, children included
INCLUSIVE = ("euler.chi_voxel_s", "complexfield.verdict_s")


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


class LayerTrace:
    """Install with ``with LayerTrace() as t:``; read ``t.metrics(rounds)``."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.time_s = defaultdict(float)
        self.count = defaultdict(int)
        self._stack = []
        self._undo = []
        self._inputs = {}
        self._distinct_inputs = 0
        self._stable_depth = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, name, layer, before=None, after=None,
              inclusive=None, done=None):
        orig = inspect.getattr_static(owner, name)
        trace = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            trace._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                trace._stack.pop()
                trace.self_s[layer] += dt - frame[0]
                if trace._stack:
                    trace._stack[-1][0] += dt
                if inclusive is not None:
                    trace.time_s[inclusive] += dt
                if done is not None:
                    done()
            if after is not None:
                after(result)
            return result

        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def _counter(self, key, size=None):
        def before(args, kwargs):
            self.count[key] += 1 if size is None else size(args, kwargs)
        return before

    def __enter__(self):
        c = self._counter
        # expressions: points evaluated, values and jets separately
        self._wrap(expr.Expression, "evaluate", "expr",
                   c("expr.values_points", lambda a, k: _rows(a[1])))
        for name in ("jets", "eval_jet"):
            self._wrap(expr.Expression, name, "expr",
                       c("expr.jets_points", lambda a, k: _rows(a[1])))
        # fields: finite-difference Jacobians evaluate the callable 2n times
        for cls in (fields.ExpressionField, fields.NegatedField):
            for name in ("value", "jacobian"):
                self._wrap(cls, name, "fields")
        self._wrap(fields.CallableField, "value", "fields",
                   c("fields.callable_points", lambda a, k: _rows(a[1])))
        self._wrap(fields.CallableField, "jacobian", "fields",
                   c("fields.callable_points",
                     lambda a, k: 0 if a[0]._jac is not None
                     else 2 * a[0].n * _rows(a[1])))
        # zero finding, at each module that calls it
        self._wrap(indices, "find_interior_zeros", "zerofind.interior",
                   c("zerofind.interior_calls"))
        for mod in (indices, verify):
            self._wrap(mod, "find_boundary_tangential_zeros",
                       "zerofind.boundary", c("zerofind.boundary_calls"),
                       self._boundary_zeros)
        # manifold: charts and surface sampling with projection
        for mod in (zerofind, indices):
            self._wrap(mod, "boundary_chart", "manifold.chart",
                       c("manifold.charts"))
        self._wrap(manifold.BoundaryChart, "point", "manifold.chart")
        for mod in (zerofind, verify, complexfield):
            self._wrap(mod, "surface_samples", "manifold.projection",
                       after=self._surface_points)
        # degrees and the radii _stable_degree tries per zero
        for mod in (indices, verify):
            self._wrap(mod, "degree_for", "degree", self._degree_call,
                       self._degree_samples)
        self._wrap(indices, "_stable_degree", "indices", self._enter_stable,
                   done=self._leave_stable)
        for name in ("interior_index", "boundary_tangential_degree",
                     "hypersurface_index"):
            self._wrap(indices, name, "indices")
        for mod in (indices, verify):
            self._wrap(mod, "full_index", "indices", self._full_index)
        # tameness repair
        self._wrap(verify, "make_tame", "verify.tame")
        self._wrap(verify, "tameness_status", "verify.tame",
                   c("verify.tame_checks"))
        for name in ("half_ball_shift", "collar_blend",
                     "random_linear_jiggle"):
            self._wrap(verify, name, "verify.tame", c("verify.perturbations"))
        # chi and the complex square norm
        self._wrap(euler, "chi_voxel", "euler", inclusive="euler.chi_voxel_s")
        self._wrap(euler, "_occupancy", "euler",
                   c("euler.voxels",
                     lambda a, k: int(a[2]) ** a[1].shape[0]))
        self._wrap(complexfield, "complex_verdict", "complexfield",
                   inclusive="complexfield.verdict_s")
        self._wrap(complexfield.ComplexField, "square_norm", "complexfield",
                   c("complexfield.square_norm_points",
                     lambda a, k: _rows(a[1])))
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()
        return False

    # -- callbacks ---------------------------------------------------------

    def _boundary_zeros(self, records):
        self.count["zerofind.boundary_zeros"] += len(records)

    def _surface_points(self, pts):
        self.count["manifold.surface_points"] += len(pts)

    def _degree_call(self, args, kwargs):
        self.count["degree.calls"] += 1
        if self._stable_depth:
            self.count["indices.stable_degree_calls"] += 1

    def _degree_samples(self, result):
        self.count["degree.samples"] += result.samples_used

    def _enter_stable(self, args, kwargs):
        self.count["indices.stable_calls"] += 1
        self._stable_depth += 1

    def _leave_stable(self):
        self._stable_depth -= 1

    def _full_index(self, args, kwargs):
        b = _FULL_INDEX_SIG.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        key = (id(a["v"]), a["collar"].kind, a["seed"])
        # the entry keeps the field alive, so its id is never reused
        self._inputs.setdefault(key, a["v"])
        self.count["indices.full_index_calls"] += 1

    # -- results -----------------------------------------------------------

    def end_round(self):
        """Rounds reuse their field objects, so distinct inputs are counted
        per round."""
        self._distinct_inputs += len(self._inputs)
        self._inputs.clear()

    def metrics(self, rounds):
        """Per-layer metrics per round, as {name: (value, unit)}."""
        out = {k: (self.count[k] / rounds, "count") for k in COUNTS}
        out.update((k, (self.self_s[layer] / rounds, "s"))
                   for k, layer in SELF_TIMES.items())
        out.update((k, (self.time_s[k] / rounds, "s")) for k in INCLUSIVE)
        stable = self.count["indices.stable_calls"]
        out["indices.degree_calls_per_zero"] = (
            self.count["indices.stable_degree_calls"] / stable
            if stable else 0.0, "calls/zero")
        out["verify.full_index_per_input"] = (
            self.count["indices.full_index_calls"] / self._distinct_inputs
            if self._distinct_inputs else 0.0, "calls/input")
        return out
