"""Experiment orchestration: run the four suites, then write their artifacts.

The suites only compute: each adds its artifacts to one mapping keyed by
path in the output directory, a CSV as (header, rows), a JSON file or a
figure's dataset as its object.  run() writes them all, each dataset with
its SVG, once every enabled suite has finished.  Outputs:

    cones.csv       per (k, a, n): slice total, decay bound, level ratio
    fatcantor.csv   per level: cover measure, closed form, removed gap
    surgery.json    derivative-2 verification report plus constants
    horseshoe.csv   per depth: grid estimate, exact product, envelope
    report.json     one {id, value, bound, rule, pass} record per check
    figures/*.svg   partition, image, cones, horseshoe renderings
    figures/*.json  the datasets the figures were rendered from: the cones
                    slices as flat endpoint lists merged at one canvas pixel,
                    the horseshoe points as the two axes of their product

Exit codes: 0 all checks pass, 1 some check failed, 2 invalid or
infeasible parameters (no file written, no directory created, an existing
one left as it was), 3 I/O failure on any write.  A refusal (exit 2 or 3)
is one line on stderr, the check lines go to stdout.  Floats are written
as .17g in CSV, as the shortest round-trip repr in JSON and with six
decimals in SVG, all with LF line endings, so repeated runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from . import cones as cones_mod
from . import svgfig
from .bowen import build_base_map, verify_surgery
from .config import ExperimentConfig, validate
from .errors import ConfigError, FathorseError, FeasibilityError
from .fatcantor import make_construction
from .horseshoe import make_poincare_system, suspension_volume
from .lorenz import LorenzBranchMap

__all__ = ["run", "SUITES"]

SUITES = ("cones", "fatcantor", "bowen", "horseshoe")


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json(obj, ind: str = "\n", end: str = "") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    writes it at the indent `ind` (a newline and spaces), then `end`.  An
    all-float list is one join; a dict key that is not a str raises
    TypeError."""
    inner = ind + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        body = sep.join([f"{_encode_str(k)}: {_json(obj[k], inner)}" for k in sorted(obj)])
        return f"{{{inner}{body}{ind}}}{end}" if obj else "{}" + end
    if isinstance(obj, str):
        return _encode_str(obj) + end
    if obj is None or obj is True or obj is False:
        return ("null" if obj is None else "true" if obj else "false") + end
    if isinstance(obj, int):
        return int.__repr__(obj) + end
    if isinstance(obj, float):
        text = float.__repr__(obj)
    elif not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif all(isinstance(v, float) for v in obj):
        text = f"[{inner}{sep.join(map(float.__repr__, obj))}{ind}]" if obj else "[]"
    else:
        return f"[{inner}{sep.join([_json(v, inner) for v in obj])}{ind}]{end}"
    if "n" in text:  # only floats are in text, and no finite float's repr has an n
        raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    return text + end


def _write_json(path: Path, obj) -> None:
    path.write_text(_json(obj, end="\n"), encoding="utf-8", newline="\n")


class _Checks:
    """The report.json records; add() is the one place a verdict is made.

    A record passes when value <= bound, or value > bound for rule ">".
    A non-finite value (a vacuous check, such as a minimum over no pairs)
    is kept in `value` for the console line and written to JSON as null.
    """

    def __init__(self):
        self.records = []

    def add(self, cid: str, value: float, bound: float, rule: str = "<=") -> None:
        ok = value > bound if rule == ">" else value <= bound
        self.records.append(
            {"id": cid, "value": value, "bound": bound, "rule": rule, "pass": bool(ok)}
        )

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)


def _pixel_merge(intervals: np.ndarray) -> np.ndarray:
    """Merge sorted, disjoint [lo, hi] rows whose gap is under one canvas
    pixel, returning the merged endpoints lo0, hi0, lo1, hi1, ... flat.

    The figure cannot tell such neighbours apart.  In the endpoint sequence
    a merge drops the hi and the lo on either side of its gap.
    """
    ends = intervals.ravel()
    drop = np.zeros(ends.size, dtype=bool)
    drop[1:-1:2] = drop[2::2] = ends[2::2] - ends[1:-1:2] < svgfig.PIXEL
    return ends[~drop]


def _cone_figure(system: cones_mod.ConeSystem, n: int) -> dict:
    """The cone figure's 161 slices at level n: each slice's total and its
    leaf ends merged at one pixel.  One slice_intervals call gives the
    leaves of every slice, released on return, before the tables walk.  It
    also keeps every slice's level totals, so each slice_measure call below
    reads its total without walking."""
    abscissas = [-0.98 + i * (1.96 / 160) for i in range(161)]
    leaves = cones_mod.slice_intervals(system, np.array(abscissas), n)
    slices = []
    for a, rows in zip(abscissas, leaves):
        total = cones_mod.slice_measure(system, a, n)
        slices.append({"a": a, "ends": _pixel_merge(rows).tolist(), "total": total})
    return {"k": system.k, "n": n, "slices": slices}


def _cones_suite(cfg: ExperimentConfig, checks: _Checks, artifacts: dict) -> None:
    # One system per k_list entry, in config order, so a repeated k gets its
    # own block of cones.csv.  The first also serves the oracle sample and
    # the figure.  The figure's slice_intervals call keeps every slice's
    # totals, so its one slice_measure call per abscissa, the count
    # perfbench/selftest.py pins, reads them and walks no abscissa.
    # The tables walk once per abscissa for every k: walk_slices leaves
    # each system the level totals its table reads.
    systems = [cones_mod.ConeSystem(k) for k in cfg.k_list]
    system = systems[0]
    oracle_a = cfg.a_list[len(cfg.a_list) // 2]
    bf = cones_mod.brute_force_slice(system, oracle_a, min(4, cfg.n_max), 1e-3)
    oracle_dev = abs(bf - cones_mod.slice_measure(system, oracle_a, min(4, cfg.n_max)))
    artifacts["figures/cones.json"] = _cone_figure(system, min(6, cfg.n_max))

    tables = [[] for _ in systems]
    for a in cfg.a_list:
        cones_mod.walk_slices(systems, a, cfg.n_max)
        for system, table in zip(systems, tables):
            table.append(cones_mod.verify_cone_bound(system, a, cfg.n_max))
    rows = []
    worst_excess = worst_decay = -math.inf
    k2_dev = 0.0
    for system, table in zip(systems, tables):  # k outer, a inner
        decay = 2.0 ** (-2.0 / system.k)
        for a, bound_rows in zip(cfg.a_list, table):
            for row in bound_rows:
                rows.append([system.k, a, row.n, row.total, row.bound, row.ratio])
                worst_excess = max(worst_excess, row.total - row.bound)
                if row.n > 0:
                    worst_decay = max(worst_decay, row.ratio / decay)
                if system.k == 2:
                    k2_dev = max(k2_dev, abs(row.total - 2.0 ** (1 - row.n)))
    artifacts["cones.csv"] = ["k", "a", "n", "total", "bound", "ratio"], rows
    checks.add("cone_bound_excess", worst_excess, 1e-12)
    checks.add("cone_level_decay", worst_decay, 1.0 + 1e-12)
    if 2 in cfg.k_list:
        checks.add("cone_k2_identity", k2_dev, 1e-12)

    levels, denoms = cones_mod.exact_preimage_table(4)
    mismatches = sum(d != e for d, e in zip(denoms, [1, 4, 64, 16384]))
    for n in range(5):
        floats = cones_mod.preimage_level(0.0, n)
        mismatches += sum(
            Fraction(float(r)) != Fraction(val, denoms[n]) for r, val in zip(floats, levels[n])
        )
    checks.add("cone_integer_spotcheck", mismatches, 0)
    checks.add("cone_oracle_sample", oracle_dev, max(10 * 1e-3, 1e-6))


def _fatcantor_suite(cfg: ExperimentConfig, checks: _Checks, artifacts: dict, cc) -> None:
    rows = []
    tele_dev = 0.0
    for n in range(cfg.level_max + 1):
        measure = cc.level_measure(n)
        closed = 2.0 * cc.half_width - cc.gaps.partial_sum(n)
        gap = cc.gaps.length(n)
        rows.append([n, measure, closed, gap])
        if n > 0:
            tele_dev = max(tele_dev, abs((prev - measure) - cc.gaps.length(n - 1)))
        prev = measure
    artifacts["fatcantor.csv"] = ["n", "measure", "closed_form", "gap_length"], rows
    checks.add("fatcantor_telescoping", tele_dev, 1e-12)

    limit = cc.limit_measure()
    lm20 = cc.level_measure(20)
    tail = cc.gaps.total() - cc.gaps.partial_sum(20)
    checks.add("fatcantor_limit_gap", abs(lm20 - limit), tail + 1e-12)
    checks.add("fatcantor_limit_positive", limit, 0.0, ">")

    try:  # the value counts an infeasible c = 2 construction that went undetected
        make_construction(LorenzBranchMap.from_coefficient(2.0), 2.0)
        undetected = 1
    except FeasibilityError:
        undetected = 0
    checks.add("fatcantor_infeasible_c2_detected", undetected, 0)


def _bowen_suite(cfg: ExperimentConfig, checks: _Checks, artifacts: dict, cc) -> object:
    system = build_base_map(cc)
    report = verify_surgery(system, max_level=min(10, cfg.level_max), monotone_grid=20_000)
    checks.add("surgery_sup_formula", max(lv.formula_err for lv in report.levels), 1e-9)
    checks.add("surgery_endpoint_slope", report.endpoint_max_dev, 1e-9)
    checks.add("surgery_splice_continuity", max(report.splice_margins.values()), 1e-10)
    checks.add("surgery_monotone", report.min_increment, 0.0, ">")
    checks.add("surgery_sup_decreasing", report.min_sup_drop, 0.0, ">")
    artifacts["surgery.json"] = {
        "constants": {
            "c": system.m.c,
            "a": system.m.a,
            "b": system.m.b,
            "alpha": system.m.alpha,
            "f_of_b": system.fb,
            "gap_exponent": cc.gaps.exponent,
            "limit_measure": cc.limit_measure(),
        },
        **dataclasses.asdict(report),
    }
    return system


def _horseshoe_suite(cfg: ExperimentConfig, checks: _Checks, artifacts: dict, bowen) -> None:
    ps = make_poincare_system(bowen)
    cc = bowen.cc

    match_depth = min(8, cfg.level_max)
    fiber, tree = ps.fiber_intervals(match_depth), cc.level(match_depth)
    tree_dev = max(float(abs(f - t).max()) for f, t in zip(fiber, tree))
    checks.add("horseshoe_fiber_tree_match", tree_dev, 1e-9)

    estimates = [ps.measure_estimate(depth, cfg.resolution) for depth in range(cfg.N + 1)]
    rows = [[e.depth, e.estimated_area, e.exact_level_area, e.envelope] for e in estimates]
    artifacts["horseshoe.csv"] = ["N", "estimate", "exact_product", "envelope"], rows
    # the value is the error's share of the envelope at the loosest depth
    checks.add(
        "horseshoe_envelope_excess",
        max(abs(e.estimated_area - e.exact_level_area) / e.envelope for e in estimates),
        1.0,
    )
    checks.add("horseshoe_estimate_positive", min(e.estimated_area for e in estimates), 0.0, ">")

    a, b = bowen.m.a, bowen.m.b
    # (a, a) -> (a, -b), (b, -a) -> (-a, -a) and (a, -a) -> (a, -a)
    x, y, fx, fy = np.array([[a, a, a, -b], [b, -a, -a, -a], [a, -a, a, -a]]).T
    got = ps.second_return((x, y))
    checks.add("horseshoe_f2_identities", float(np.abs(np.subtract(got, (fx, fy))).max()), 1e-9)

    # the paper's cross-section map applied twice against its closed-form
    # square, on 2 x 17 abscissas in +-[b, a] times 17 ordinates in [-a, a]
    xs = np.linspace(b, a, 17)
    core = np.repeat(np.concatenate([xs, -xs]), 17), np.tile(np.linspace(-a, a, 17), 34)
    twice, closed = ps.section_map(ps.section_map(core)), ps.second_return(core)
    checks.add(
        "horseshoe_second_return_composition",
        max(float(np.abs(u - v).max()) for u, v in zip(twice, closed)),
        1e-9,
    )

    eps = cc.gaps.length(3) / 16.0
    witness = ps.vertical_gap_witness(1000, eps, seed=cfg.seed, depth=cfg.N)
    failures = sum(record.failure is not None for record in witness)
    checks.add("horseshoe_vertical_witness", float(failures), 0.0)

    volume = suspension_volume(cc.level_measure(cfg.N) ** 2, cfg.delta)
    checks.add("suspension_positive_exact", volume, 0.0, ">")

    checks.add("fiber_two_step_contraction", ps.fiber_contraction_report(), 0.5 + 1e-9)

    artifacts["figures/partition.json"] = {
        "b": bowen.m.b,
        "strip_halfheight": ps.strip_halfheight,
        "epsilon": ps.epsilon,
    }
    artifacts["figures/image.json"] = _image_dataset(ps)
    coarse_resolution = max(cfg.resolution, 2.0 * a / 160)
    xs, ys = ps.member_centers(cfg.N, coarse_resolution)
    artifacts["figures/horseshoe.json"] = {
        "half_width": a,
        "depth": cfg.N,
        "point_size": ps.exit_times(cfg.N, coarse_resolution).cell / 2.0,
        "xs": xs.tolist(),
        "ys": ys.tolist(),
    }


def _image_dataset(ps) -> dict:
    """The section map's images of the corners (x, -1) and (x, 1) as x runs
    from b down to 0 (cap), of (b, -+y_cap) (strip_y) and of (b, -+1)
    (hook_y); the lower half is their odd mirror."""
    b, y_cap, steps = ps.bowen.m.b, ps.strip_halfheight, 48
    xs = [b * (1.0 - i / steps) ** 2 + 1e-9 for i in range(steps + 1)]
    n = len(xs)
    ys = [-1.0] * n + [1.0] * n + [-y_cap, y_cap, -1.0, 1.0]
    fx, fy = (v.tolist() for v in ps.section_map((np.array(xs + xs + [b] * 4), np.array(ys))))
    upper = {
        "x_range": [ps.bowen.fb, ps.bowen.m.c - 1.0],
        "strip_y": fy[2 * n:2 * n + 2],
        "hook_y": fy[2 * n + 2:],
        "cap": [[x, lo, hi] for x, lo, hi in zip(fx, fy[:n], fy[n:2 * n])],
    }
    lower = {key: [-v for v in upper[key][::-1]] for key in ("x_range", "strip_y", "hook_y")}
    lower["cap"] = [[-x, -hi, -lo] for x, lo, hi in upper["cap"]]
    return {"upper": upper, "lower": lower}


def run(cfg: ExperimentConfig, only: str | None = None, out_dir: str | None = None) -> int:
    """Run the enabled suites, then write their artifacts; return the exit code."""
    try:
        cfg = validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if only is not None and only not in SUITES:
        print(f"invalid parameters: unknown suite {only!r}; expected one of {SUITES}", file=sys.stderr)
        return 2
    enabled = SUITES if only is None else (only,)
    checks = _Checks()
    artifacts: dict[str, object] = {}

    try:
        if "cones" in enabled:
            _cones_suite(cfg, checks, artifacts)
        cc = None
        if {"fatcantor", "bowen", "horseshoe"} & set(enabled):
            lorenz = LorenzBranchMap.from_coefficient(cfg.c)
            cc = make_construction(lorenz, cfg.p)
        if "fatcantor" in enabled:
            _fatcantor_suite(cfg, checks, artifacts, cc)
        bowen = None
        if {"bowen", "horseshoe"} & set(enabled):
            bowen = _bowen_suite(cfg, checks, artifacts, cc)
        if "horseshoe" in enabled:
            _horseshoe_suite(cfg, checks, artifacts, bowen)
    except FeasibilityError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return 2
    except FathorseError as exc:  # any other guard of the kernels
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2

    criteria = [
        {**r, "value": r["value"] if math.isfinite(r["value"]) else None} for r in checks.records
    ]
    artifacts["report.json"] = {"criteria": criteria}
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    try:
        for name, content in artifacts.items():
            path = out / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.suffix == ".csv":
                _write_csv(path, *content)
            else:
                _write_json(path, content)
            if name.startswith("figures/"):  # each dataset with its rendering
                svg = svgfig.render_section_svg(content, path.stem)
                path.with_suffix(".svg").write_text(svg, encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3

    for record in checks.records:
        status = "pass" if record["pass"] else "FAIL"
        print(
            f"{status}  {record['id']}: value={_fmt(record['value'])} {record['rule']} "
            f"bound={_fmt(record['bound'])}"
        )
    return 0 if checks.all_pass else 1
