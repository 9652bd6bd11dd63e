"""fathorse benchmark: repeated in-process `runner.run` on one workload.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The workload's config (its overrides
over the defaults, plus `seed`, which drives only the witness sampler) is
written to a scratch directory inside the checkout and read back with
`fathorse.config.load_config`, as the CLI does.

--trace 0 interleaves the checkout's run() with that of a frozen reference
copy of the package for about --seconds and reports the end-to-end
metrics (see end_to_end); --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics of perfbench/tracer.py plus
the tracing overhead.  Every iteration's output is checked: run() returns
0, every report.json check passes and is present, the artifact files have
their expected shape, and the artifacts are byte-identical to the first
iteration's.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
machine, the artifact digest and the figures that are reported but not
gated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A frozen copy of the package at the commit that defined this benchmark,
# imported as fathorse_ref; see end_to_end for why it runs beside the checkout.
REFERENCE = Path(__file__).resolve().parent / "reference"

# One config object per workload, applied over the defaults.  Why each
# exists is recorded in BENCHMARK.json and perfbench/WORKLOADS.md.
WORKLOADS = {
    "default": {},
    "deep_grid": {"N": 10, "resolution": 1e-4},
    "wide_cones": {
        "k_list": [2, 3, 4, 5, 6, 7],
        "a_list": [-0.9, -0.6, -0.3, 0.0, 0.2, 0.42, 0.6, 0.75, 0.9],
        "n_max": 20,
        "N": 2,
    },
}

# Every check the runner reports at the baseline commit; a later commit may
# add checks but must keep these (cone_k2_identity needs 2 in k_list, which
# every workload has).
REQUIRED_CHECKS = frozenset({
    "cone_bound_excess", "cone_k2_identity", "cone_integer_spotcheck",
    "cone_oracle_sample", "fatcantor_telescoping", "fatcantor_limit_gap",
    "fatcantor_limit_positive", "fatcantor_infeasible_c2_detected",
    "surgery_sup_formula", "surgery_endpoint_slope", "surgery_splice_continuity",
    "surgery_monotone", "surgery_sup_decreasing", "horseshoe_fiber_tree_match",
    "horseshoe_envelope_excess", "horseshoe_estimate_positive",
    "horseshoe_f2_identities", "horseshoe_vertical_witness",
    "suspension_positive_exact", "fiber_two_step_contraction",
})
ARTIFACTS = frozenset(
    ["cones.csv", "fatcantor.csv", "surgery.json", "horseshoe.csv", "report.json"]
    + [f"figures/{kind}.{ext}" for kind in ("cones", "horseshoe", "image", "partition")
       for ext in ("json", "svg")]
)

SETUP_REPEATS = 9
SETUP_CHILD = (
    "import sys\n"
    "import fathorse\n"
    "from fathorse.config import load_config\n"
    "load_config(sys.argv[1])\n"
)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_sample(cfg_path: Path) -> float:
    """Wall seconds of a fresh interpreter importing fathorse and loading
    the config: what every CLI call pays before any suite runs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(cfg_path)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return time.perf_counter() - t0


def _digest(out: Path) -> tuple[str, set[str]]:
    h = hashlib.sha256()
    names = set()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        names.add(rel)
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest(), names


def check_output(rc: int, out: Path, cfg) -> tuple[str, list[str]]:
    """Artifact digest plus the problems found in one iteration's output."""
    problems = []
    if rc != 0:
        problems.append(f"run() returned {rc}")
    digest, names = _digest(out)
    if ARTIFACTS - names:
        problems.append(f"missing artifacts {sorted(ARTIFACTS - names)}")
        return digest, problems
    records = json.loads((out / "report.json").read_text())["criteria"]
    failing = [r["id"] for r in records if r["pass"] is not True]
    if failing:
        problems.append(f"checks failed: {failing}")
    missing = REQUIRED_CHECKS - {r["id"] for r in records}
    if missing:
        problems.append(f"checks missing: {sorted(missing)}")
    cone_rows = len((out / "cones.csv").read_text().splitlines()) - 1
    if cone_rows != len(cfg.k_list) * len(cfg.a_list) * (cfg.n_max + 1):
        problems.append(f"cones.csv has {cone_rows} rows")
    grid_rows = len((out / "horseshoe.csv").read_text().splitlines()) - 1
    if grid_rows != cfg.N + 1:
        problems.append(f"horseshoe.csv has {grid_rows} rows")
    return digest, problems


class Harness:
    """Runs, times and checks iterations of one workload."""

    def __init__(self, cfg, scratch: Path):
        from fathorse import runner

        self.runner = runner
        self.cfg = cfg
        self.out = scratch / "out"
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def load_reference(self, cfg_path: Path) -> None:
        sys.path.insert(1, str(REFERENCE))
        from fathorse_ref import runner as ref_runner
        from fathorse_ref.config import load_config as ref_load_config

        self.ref_runner, self.ref_cfg = ref_runner, ref_load_config(cfg_path)

    def iteration(self, run=None) -> tuple[float, float]:
        """One run() call; returns (wall s, cpu s) and checks its output."""
        rc, wall, cpu = _timed(run or self.runner.run, self.cfg, self.out)
        digest, problems = check_output(rc, self.out, self.cfg)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("artifacts differ from the first iteration")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall, cpu

    def reference_iteration(self) -> tuple[float, float]:
        """One run() of the reference program; only its exit code is checked."""
        rc, wall, cpu = _timed(self.ref_runner.run, self.ref_cfg, self.out)
        if rc != 0:
            self.problems.append(f"reference run() returned {rc}")
        return wall, cpu


def _timed(run, cfg, out: Path) -> tuple[int, float, float]:
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0, c0 = time.perf_counter(), time.process_time()
        rc = run(cfg, out_dir=str(out))
        return rc, time.perf_counter() - t0, time.process_time() - c0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten
    samples above it, or None with ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_paired(harness: Harness, seconds: float, cfg_path: Path) -> dict:
    """Interleave the checkout's run() with the reference's until the next
    pair would end past `seconds`.

    The first pair's checkout iteration runs before the reference is
    imported, so the peak RSS taken after it is that of a fresh process
    running the workload.  Pairs alternate which program goes first.  One
    set-up sample follows each of the first SETUP_REPEATS pairs, so set-up
    sees the same spells of machine contention as the iterations.
    """
    start = time.perf_counter()
    cur = [harness.iteration()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    harness.load_reference(cfg_path)
    ref = [harness.reference_iteration()]
    setups = []
    while True:
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_sample(cfg_path))
        pair_s = statistics.median(w for w, _ in cur) + statistics.median(w for w, _ in ref)
        if time.perf_counter() - start + pair_s > seconds:
            break
        if len(cur) % 2:
            ref.append(harness.reference_iteration())
            cur.append(harness.iteration())
        else:
            cur.append(harness.iteration())
            ref.append(harness.reference_iteration())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(cfg_path))
    return {"rss_mb": rss_mb, "cur": cur, "ref": ref, "setups": setups}


def run_traced(harness: Harness, seconds: float) -> dict:
    """Alternate untraced and traced iterations; per-layer figures are the
    medians over traced iterations (counts must repeat exactly)."""
    from tracer import COUNT_METRICS, Tracer, layer_metrics

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(harness.iteration()[0])
        tracer = Tracer()
        with tracer.patched():
            traced.append(harness.iteration(tracer.span("runner.run", harness.runner.run))[0])
        layers.append(layer_metrics(tracer))
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break
    for name in COUNT_METRICS:
        if len({m[name] for m in layers}) != 1:
            harness.problems.append(f"count {name} differs between traced iterations")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update((name, layers[-1][name]) for name in COUNT_METRICS)
    metrics["trace.run_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def _unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def machine_info(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def use_checkout_sources() -> None:
    """Run single-threaded on the checkout's own sources, or exit 2."""
    if not (SRC / "fathorse" / "__init__.py").is_file():
        _fail(f"no fathorse sources under {SRC}; run from a source checkout")
    for var in THREAD_ENV:
        os.environ[var] = "1"
    os.environ.pop("FATHORSE_THREADS", None)  # the sequential default users get
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def scratch_dir():
    """A private directory inside the checkout, removed afterwards."""
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def write_config(scratch: Path, workload: str, seed: int) -> Path:
    cfg_path = scratch / "config.json"
    cfg_path.write_text(json.dumps({**WORKLOADS[workload], "seed": seed}))
    return cfg_path


def load_harness(cfg_path: Path, scratch: Path) -> Harness:
    import fathorse
    from fathorse.config import load_config

    if Path(fathorse.__file__).resolve().parent != SRC / "fathorse":
        _fail(f"imported fathorse from {fathorse.__file__}, not {SRC}")
    return Harness(load_config(cfg_path), scratch)


def end_to_end(harness: Harness, seconds: float, cfg_path: Path, info: dict) -> dict:
    """Gated metrics, plus the checkout's own medians and tail in
    `info["reported"]`.

    Run and CPU time are gated as the ratio of the checkout's total to the
    reference program's total over the same interleaved pairs.  On a
    shared host, spells of contention slow whole iterations by up to 60 %
    and the host's speed drifts by a third within a quarter hour, so the
    absolute median of one run moves by more than any useful bound; the
    two programs of a run see the same spells, so their ratio moves less.
    """
    timed = run_paired(harness, seconds, cfg_path)
    cur, ref = timed["cur"], timed["ref"]
    walls = [w for w, _ in cur]
    t = tail(walls)
    info["reported"] = {
        "run_s": statistics.median(walls),
        "run_s_tail": t and t[1],
        "run_s_tail_percentile": t and t[0],
        "cpu_s": statistics.median(c for _, c in cur),
        "reference_run_s": statistics.median(w for w, _ in ref),
    }
    info["iteration_s"] = walls
    info["reference_iteration_s"] = [w for w, _ in ref]
    info["setup_samples_s"] = timed["setups"]
    return {
        "run_ratio": sum(w for w, _ in cur) / sum(w for w, _ in ref),
        "cpu_ratio": sum(c for _, c in cur) / sum(c for _, c in ref),
        "peak_rss_mb": timed["rss_mb"],
        "setup_s": statistics.median(timed["setups"]),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    use_checkout_sources()
    with scratch_dir() as scratch:
        cfg_path = write_config(scratch, args.workload, args.seed)
        harness = load_harness(cfg_path, scratch)
        info = machine_info(args)
        if args.trace == 0:
            metrics = end_to_end(harness, args.seconds, cfg_path, info)
        else:
            metrics = run_traced(harness, args.seconds)
    units = {name: _unit(name) for name in metrics}
    info["iterations"] = harness.attempted
    info["artifact_sha256"] = harness.first_digest
    info["failed_ratio"] = harness.failed / harness.attempted

    for problem in sorted(set(harness.problems)):
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if args.trace == 0:
        rep, n = info["reported"], len(info["iteration_s"])
        print(f"run_s: {rep['run_s']:.6g} s (median of {n} iterations; "
              f"reference {rep['reference_run_s']:.6g} s)")
        print("run_s_tail: " + (
            f"{rep['run_s_tail']:.6g} s (p{rep['run_s_tail_percentile']:.1f} of {n} iterations)"
            if rep["run_s_tail"] is not None else
            f"undefined ({n} iterations; a tail needs more than 10)"
        ))
        print(f"cpu_s: {rep['cpu_s']:.6g} s (median of {n} iterations)")
    print(f"failed_ratio: {info['failed_ratio']:.6g} ({harness.failed}/{harness.attempted})")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not harness.problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
