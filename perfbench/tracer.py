"""In-memory spans around finslergeo's public entry points.

The tracer replaces each listed function or method with a wrapper that
records one span per call: layer name, start, end, the index of the
enclosing span and the id of the scenario being run, plus work counts
taken from the argument or return shapes at that boundary.  Nothing
under finslergeo changes; `uninstall` puts every original back.
Spans stay in a list until the caller writes them out.

A layer's self time is its span's duration minus the durations of its
direct child spans.  The program is single-threaded, so children never
overlap.
"""

import functools
import sys
import time

import numpy as np


def _rows(array) -> int:
    """Rows of a batch: the product of every axis but the last."""
    shape = np.shape(array)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _calls(args, kwargs, out):
    return {}


def _y_rows(pos):
    return lambda args, kwargs, out: {"rows": _rows(_arg(args, kwargs, pos, "y"))}


def _x_rows(args, kwargs, out):
    return {"rows": _rows(_arg(args, kwargs, 1, "x"))}


def _report_bytes(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


def _steps(args, kwargs, out):
    # trajectory-steps: steps times the trajectories advanced in lockstep
    return {"steps": (len(out.ts) - 1) * _rows(out.points[0])}


def _zero_set(args, kwargs, out):
    return {
        "seeds": out.seeds_total,
        "converged": out.converged_total,
        "representatives": len(out.representatives),
    }


def _path_points(args, kwargs, out):
    return {"points": len(out.ts)}


def _stencil_points(args, kwargs, out):
    return {"points": 3}


def _targets():
    """(layer, owner, attribute, counter) for every traced entry point."""
    from finslergeo import (
        cli,
        geodesic_flow,
        geodesic_vectors,
        groups,
        lie,
        norms,
        reports,
        s_curvature,
        scenario,
        sphere,
    )

    out = [
        ("scenario.validate", scenario, "scenario_from_dict", _calls),
        ("cli.run_scenario", cli, "run_scenario", _calls),
        ("reports.machine_report", reports, "machine_report", _report_bytes),
        ("jets.route", norms.MinkowskiNorm, "_generic_fundamental", _y_rows(1)),
        ("jets.route", norms.MinkowskiNorm, "_generic_cartan", _y_rows(1)),
        ("lie.ad", lie, "ad", _calls),
        ("lie.bracket", lie, "bracket", _calls),
        ("groups.orbit_curve", groups, "orbit_curve", _calls),
        ("sphere.quad_grid", sphere, "quad_grid", _calls),
        ("sphere.seeds", sphere, "seeds", _calls),
        ("geodesic_vectors.find", geodesic_vectors, "find_geodesic_vectors", _zero_set),
        ("geodesic_vectors.checks", geodesic_vectors, "check_minkowski_lie_algebra", _calls),
        ("geodesic_vectors.checks", geodesic_vectors, "check_naturally_reductive", _calls),
        ("geodesic_flow.integrate", geodesic_flow, "integrate_geodesic", _steps),
        ("geodesic_flow.chart_tensor", geodesic_flow, "chart_fundamental_tensor", _y_rows(2)),
        ("geodesic_flow.berwald", geodesic_flow, "berwald_test", _calls),
        ("s_curvature", s_curvature, "s_along_path", _path_points),
        ("s_curvature", s_curvature, "s_curvature", _stencil_points),
    ]
    for cls in (norms.MinkowskiNorm, norms.EuclideanNorm, norms.RandersNorm, norms.CustomNorm):
        for attr, layer in (
            ("fundamental_matrix", "norms.fundamental_matrix"),
            ("cartan", "norms.cartan"),
            ("value", "norms.value"),
        ):
            if attr in vars(cls):
                out.append((layer, cls, attr, _y_rows(1)))
    for cls in (groups.GroupModel, groups.Heisenberg3, groups.SU2, groups.Abelian):
        if "body_jacobian" in vars(cls):
            out.append(("groups.body_jacobian", cls, "body_jacobian", _x_rows))
        if "check_chart" in vars(cls):
            out.append(("groups.check_chart", cls, "check_chart", _calls))
    return out


class Tracer:
    """Records spans while installed; `scenario` tags the spans of one run."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, scenario, counts]
        self.scenario = None
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.scenario, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items() if name.startswith("finslergeo.")]
        for layer, owner, attr, counter in _targets():
            original = vars(owner)[attr]
            wrapped = self._wrap(layer, original, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # names bound by `from module import fn` in other modules
            for module in modules:
                if module is not owner and vars(module).get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_totals(spans) -> dict:
    """Per layer: calls, self and inclusive seconds, and each summed count."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for pos, (layer, start, end, _, _, counts) in enumerate(spans):
        entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
        entry["self_s"] += (end - start) - child_time[pos]
        entry["total_s"] += end - start
    return totals


def layer_time_excluding(spans, layer: str, excluded: str) -> float:
    """Inclusive seconds of `layer` spans minus their direct `excluded` children."""
    total = 0.0
    for layer_name, start, end, parent, _, _ in spans:
        if layer_name == layer:
            total += end - start
        elif layer_name == excluded and parent >= 0 and spans[parent][0] == layer:
            total -= end - start
    return total
