"""Checks of the benchmark's tracer, run against the real workloads.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) two traced run() iterations must
produce checked, byte-identical output; every span must fire; every count
must repeat exactly; the self times of all spans must add up to the
traced run's duration (nested spans credit their time to the child only);
and cones.slice_measure.calls must equal its closed form,
len(k_list) * len(a_list) * (n_max + 1) + 161 + 1, which is 1,296 on
wide_cones.  Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import sys
import time

import run as bench
from tracer import COUNT_METRICS, Tracer, layer_metrics, span_names


def check_attribution(problems: list[str]) -> None:
    """outer (10 ms own) encloses inner (20 ms): self times split cleanly."""
    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.span("outer", outer_body)()
    own, child = tracer.self_s["outer"], tracer.self_s["inner"]
    if not (0.01 <= own < 0.02 and 0.02 <= child < 0.03):
        problems.append(f"toy spans: outer self {own:.4f} s, inner self {child:.4f} s")
    if abs(tracer.incl_s["outer"] - own - child) > 1e-9:
        problems.append("toy spans: outer inclusive time is not self plus child")


def check_workload(workload: str, problems: list[str]) -> None:
    with bench.scratch_dir() as scratch:
        harness = bench.load_harness(bench.write_config(scratch, workload, seed=1), scratch)
        tracers = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.patched():
                harness.iteration(tracer.span("runner.run", harness.runner.run))
            tracers.append(tracer)
    problems.extend(f"{workload}: {p}" for p in sorted(set(harness.problems)))

    first, second = tracers
    silent = sorted(n for n in span_names() | {"runner.run"} if first.calls[n] == 0)
    if silent:
        problems.append(f"{workload}: spans never fired: {silent}")
    if first.calls != second.calls:
        problems.append(f"{workload}: span call counts differ between two runs")
    m1, m2 = layer_metrics(first), layer_metrics(second)
    for name in COUNT_METRICS:
        if m1[name] != m2[name]:
            problems.append(f"{workload}: {name} {m1[name]} then {m2[name]}")
    for tracer in tracers:
        total = sum(tracer.self_s.values())
        if abs(total - tracer.incl_s["runner.run"]) > 1e-6 * total:
            problems.append(f"{workload}: self times sum to {total}, "
                            f"run took {tracer.incl_s['runner.run']}")

    cfg = harness.cfg
    closed_form = len(cfg.k_list) * len(cfg.a_list) * (cfg.n_max + 1) + 161 + 1
    if workload == "wide_cones" and closed_form != 1296:
        problems.append(f"wide_cones closed form is {closed_form}, expected 1296")
    if m1["cones.slice_measure.calls"] != closed_form:
        problems.append(f"{workload}: cones.slice_measure.calls is "
                        f"{m1['cones.slice_measure.calls']}, closed form {closed_form}")
    print(f"{workload}: {len(first.calls)} spans, "
          f"slice_measure.calls={m1['cones.slice_measure.calls']}, "
          f"base_value.calls={m1['bowen.base_value.calls']}", flush=True)


def main(argv: list[str]) -> int:
    bench.use_checkout_sources()
    problems: list[str] = []
    check_attribution(problems)
    for workload in argv or list(bench.WORKLOADS):
        check_workload(workload, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
