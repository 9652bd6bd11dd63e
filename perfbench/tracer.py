"""Outside-in layer tracer: wraps fathorse entry points from outside the package.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses, so nested calls credit their
time to the child only (verify_cone_bound -> slice_measure, witness ->
membership -> base_value).  Spans are aggregated in memory per name:
call count, self seconds and inclusive seconds.

Names are patched where callers look them up:

* runner binds verify_surgery, build_base_map, make_construction and
  make_poincare_system at import, so those are patched on fathorse.runner;
* runner reaches cones and svgfig through their modules, and cones,
  fatcantor call their own functions through module globals, so those are
  patched on their modules;
* methods of BowenSystem and PoincareSystem are patched on the class.

The tracer is single-threaded: it assumes the sequential default
(FATHORSE_THREADS unset).
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        # (depth, cells per axis, base_value calls) per measure_estimate call
        self.grid: list[tuple[int, int, int]] = []
        self._child_s: list[float] = []  # time covered by children, per open span

    def span(self, name: str, fn, after=None):
        """Wrap fn so that each call records one span named `name`.

        `after(tracer, args, kwargs, result)` runs once the span has closed,
        so what it costs is not credited to the span itself.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - child
                self.incl_s[name] += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every span for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, after in _targets():
                original = owner.__dict__[attr]  # KeyError: the entry point moved
                saved.append((owner, attr, original))
                wrapped = self.span(name, original, after)
                if attr == "measure_estimate":
                    wrapped = _grid_probe(self, wrapped)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _targets():
    """(owner, attribute, span name, after-hook) for every traced entry point."""
    from fathorse import bowen, cones, fatcantor, horseshoe, runner, svgfig

    return [
        (runner, "_cones_suite", "runner.suite.cones", None),
        (runner, "_fatcantor_suite", "runner.suite.fatcantor", None),
        (runner, "_bowen_suite", "runner.suite.bowen", None),
        (runner, "_horseshoe_suite", "runner.suite.horseshoe", None),
        (runner, "_write_csv", "runner.writers", _count_bytes),
        (runner, "_write_json", "runner.writers", _count_bytes),
        (runner, "make_construction", "fatcantor.make_construction", None),
        (runner, "build_base_map", "bowen.build_base_map", None),
        (runner, "verify_surgery", "bowen.verify_surgery", None),
        (runner, "make_poincare_system", "horseshoe.make_poincare_system", None),
        (cones, "verify_cone_bound", "cones.verify_cone_bound", None),
        (cones, "slice_measure", "cones.slice_measure", _count_leaves),
        (cones, "brute_force_slice", "cones.brute_force_slice", None),
        (cones, "preimage_level", "cones.preimage_level", None),
        (cones, "exact_preimage_table", "cones.exact_preimage_table", None),
        (fatcantor, "zeta_value", "fatcantor.zeta_value", None),
        (bowen.BowenSystem, "base_value", "bowen.base_value", None),
        (bowen.BowenSystem, "base_invert", "bowen.base_invert", None),
        (bowen.BowenSystem, "base_derivative", "bowen.base_derivative", None),
        (horseshoe.PoincareSystem, "measure_estimate", "horseshoe.measure_estimate", None),
        (horseshoe.PoincareSystem, "membership", "horseshoe.membership", None),
        (horseshoe.PoincareSystem, "fiber_intervals", "horseshoe.fiber_intervals", None),
        (horseshoe.PoincareSystem, "vertical_gap_witness", "horseshoe.vertical_gap_witness",
         None),
        (horseshoe.PoincareSystem, "fiber_contraction_report",
         "horseshoe.fiber_contraction_report", None),
        (svgfig, "render_section_svg", "svgfig.render_section_svg", None),
    ]


def span_names() -> set[str]:
    return {name for _, _, name, _ in _targets()}


def _count_bytes(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counters["runner.writers.bytes"] += Path(path).stat().st_size


def _count_leaves(tracer: Tracer, args, kwargs, result) -> None:
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.counters["cones.leaves"] += 2**n


def _grid_probe(tracer: Tracer, traced_estimate):
    """Record each estimate's depth, grid size and base-map calls."""

    @functools.wraps(traced_estimate)
    def measure_estimate(ps, depth, resolution, *args, **kwargs):
        before = tracer.calls["bowen.base_value"]
        estimate = traced_estimate(ps, depth, resolution, *args, **kwargs)
        cells = round(2.0 * ps.bowen.m.a / estimate.cell)
        tracer.grid.append((depth, cells, tracer.calls["bowen.base_value"] - before))
        return estimate

    return measure_estimate


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run() iteration.

    `.s` is self seconds unless the name says inclusive (the suites,
    verify_surgery and measure_estimate are reported inclusive, with
    measure_estimate's own per-cell loop as `.self_s`).
    """
    c, s, incl = tracer.calls, tracer.self_s, tracer.incl_s
    grid_calls = sum(calls for _, _, calls in tracer.grid)
    deepest = max(tracer.grid, key=lambda g: (g[0], g[1]), default=(0, 0, 0))
    m = {f"runner.suite.{suite}.s": incl[f"runner.suite.{suite}"] for suite in
         ("cones", "fatcantor", "bowen", "horseshoe")}
    m.update({
        "runner.writers.s": s["runner.writers"],
        "runner.writers.bytes": tracer.counters["runner.writers.bytes"],
        "cones.slice_measure.calls": c["cones.slice_measure"],
        "cones.slice_measure.s": s["cones.slice_measure"],
        "cones.leaves": tracer.counters["cones.leaves"],
        "cones.brute_force_slice.s": s["cones.brute_force_slice"],
        "fatcantor.zeta_value.calls": c["fatcantor.zeta_value"],
        "fatcantor.zeta_value.s": s["fatcantor.zeta_value"],
        "bowen.base_value.calls": c["bowen.base_value"],
        "bowen.base_value.s": s["bowen.base_value"],
        "bowen.base_invert.calls": c["bowen.base_invert"],
        "bowen.base_invert.s": s["bowen.base_invert"],
        "bowen.base_derivative.calls": c["bowen.base_derivative"],
        "bowen.verify_surgery.s": incl["bowen.verify_surgery"],
        "horseshoe.measure_estimate.calls": c["horseshoe.measure_estimate"],
        "horseshoe.measure_estimate.s": incl["horseshoe.measure_estimate"],
        "horseshoe.measure_estimate.self_s": s["horseshoe.measure_estimate"],
        "horseshoe.grid.cells": sum(depth * cells for depth, cells, _ in tracer.grid),
        "horseshoe.grid.useful_ratio": deepest[2] / grid_calls if grid_calls else 1.0,
        "horseshoe.vertical_gap_witness.s": s["horseshoe.vertical_gap_witness"],
        "horseshoe.fiber_contraction_report.s": s["horseshoe.fiber_contraction_report"],
        "svgfig.render_section_svg.s": s["svgfig.render_section_svg"],
    })
    return m


# Metrics that are counts of work; they must repeat exactly run to run.
COUNT_METRICS = (
    "runner.writers.bytes",
    "cones.slice_measure.calls",
    "cones.leaves",
    "fatcantor.zeta_value.calls",
    "bowen.base_value.calls",
    "bowen.base_invert.calls",
    "bowen.base_derivative.calls",
    "horseshoe.measure_estimate.calls",
    "horseshoe.grid.cells",
    "horseshoe.grid.useful_ratio",
)
