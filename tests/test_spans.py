"""The benchmark's span table against the package's entry points.

perfbench/tracer.py wraps named functions and methods of the package; a
kernel change that moves one of them, or stops the default run from
calling it, leaves a span empty.  This runs a small config twice, each
run under its own tracer, and requires every span to fire and every count
metric to repeat, as perfbench/selftest.py does on the benchmark
workloads.  It also checks the closed form that the selftest pins for
the cones.slice_measure call count, and that the grid estimator's
base-map work shows in the tracer's grid entries.
"""

import importlib.util
from pathlib import Path

import pytest

from fathorse import runner
from fathorse.config import ExperimentConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_fires(tmp_path):
    tracing = _tracer_module()
    cfg = ExperimentConfig(N=2, n_max=2, level_max=4, output_dir=str(tmp_path))
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.patched():  # KeyError: an entry point moved
            assert runner.run(cfg) == 0
        assert sorted(n for n in tracing.span_names() if tracer.calls[n] == 0) == []
        metrics = tracing.layer_metrics(tracer)
        counts.append({name: metrics[name] for name in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n_max", [0, 2])
def test_slice_measure_closed_form(tmp_path, n_max):
    # one call per (k, a, n), 161 for the cones figure sweep, 1 for the oracle sample
    tracer = _tracer_module().Tracer()
    cfg = ExperimentConfig(k_list=[2, 3], a_list=[0.0, 0.3, 0.6], n_max=n_max,
                           output_dir=str(tmp_path))
    with tracer.patched():
        assert runner.run(cfg, only="cones") == 0
    closed_form = len(cfg.k_list) * len(cfg.a_list) * (n_max + 1) + 161 + 1
    assert tracer.calls["cones.slice_measure"] == closed_form


def test_grid_records_base_map_calls(tmp_path):
    # the exit-time pass of the grid runs the traced base map from depth 2 on
    tracer = _tracer_module().Tracer()
    cfg = ExperimentConfig(N=3, level_max=4, output_dir=str(tmp_path))
    with tracer.patched():
        assert runner.run(cfg, only="horseshoe") == 0
    assert [depth for depth, *_ in tracer.grid] == [0, 1, 2, 3]
    assert sum(calls for *_, calls in tracer.grid) > 0
