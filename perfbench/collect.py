"""Repeat perfbench/run.py over seeds and summarise the spread per metric.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 --seconds 30 \
        [--workloads default deep_grid] [--traced] [--write perfbench/BENCH_<tag>.json]

Runs go one at a time, seed-major (every workload for seed 1, then seed 2,
...), so a slow drift of machine speed reaches every workload alike.  For
each end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  --traced adds one
traced run per workload, whose per-layer figures and self-time shares go
into the written file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: (its info line, its result line)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return json.loads(lines[-2])["info"], result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--write", type=Path)
    args = p.parse_args()

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            info, result = bench(w, seed, args.seconds, 0)
            runs[w].append((info, result))
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed={seed} n={info['iterations']} {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for w, rs in runs.items():
        info = rs[0][0]
        entry = {
            "machine": {k: info[k] for k in ("nproc", "cpu", "python", "numpy")},
            "artifact_sha256": sorted({i["artifact_sha256"] for i, _ in rs}),
            "iterations": [i["iterations"] for i, _ in rs],
            "failed_ratio": sum(r["failed"] for _, r in rs) / sum(r["attempted"] for _, r in rs),
            "end_to_end": {},
        }
        for name in rs[0][1]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for _, r in rs])
            entry["end_to_end"][name] = s
            print(f"{w:11s} {name:12s} median={s['median']:.4g} spread={s['spread']:.3f} "
                  f"bound={bounds.get(name)}")
        entry["reported"] = {}
        for name in rs[0][0]["reported"]:
            values = [i["reported"][name] for i, _ in rs if i["reported"][name] is not None]
            if len(values) > 1:
                s = entry["reported"][name] = summarise(values)
                print(f"{w:11s} {name:12s} median={s['median']:.4g} spread={s['spread']:.3f} "
                      "(reported, not gated)")
        if args.traced:
            _, traced = bench(w, args.seeds[0], args.seconds, 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = layers
            entry["traced_self_share"] = {
                k: v / layers["trace.run_s"] for k, v in layers.items()
                if k.endswith((".s", ".self_s")) and not k.startswith(("runner.suite.", "trace."))
                and k not in ("bowen.verify_surgery.s", "horseshoe.measure_estimate.s")
            }
        out["workloads"][w] = entry
    if args.write:
        args.write.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
