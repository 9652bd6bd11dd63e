"""The benchmark's span table against the package's entry points.

perfbench/tracer.py wraps named functions and methods of the package; a
kernel change that moves one of them, or stops the default run from
calling it, leaves a span empty.  This runs a small config under the
tracer and requires every span to fire.
"""

import importlib.util
from pathlib import Path

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
    tracer = tracing.Tracer()
    cfg = ExperimentConfig(N=2, n_max=2, level_max=4, output_dir=str(tmp_path))
    with tracer.patched():  # KeyError: an entry point moved
        assert runner.run(cfg) == 0
    assert sorted(n for n in tracing.span_names() if tracer.calls[n] == 0) == []
