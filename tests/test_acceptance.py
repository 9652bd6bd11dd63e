"""Acceptance checklist: one test per numbered criterion.

Each test prints a pass/fail line with the measured quantity next to its
stated tolerance, so a bare `pytest -s tests/test_acceptance.py` reads as
the acceptance protocol.  Criterion 4b is implemented faithfully to its
stated tolerance and is expected to fail: the distance from the level-20
cover to the limit measure is the exact series tail, about 9.3e-3, which
no implementation can bring under 1e-4 (see README, "known red check").
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fathorse.bowen import verify_surgery
from fathorse.cones import (
    ConeSystem,
    brute_force_slice,
    exact_preimage_table,
    preimage_level,
    slice_measure,
)
from fathorse.config import ExperimentConfig
from fathorse.errors import FeasibilityError
from fathorse.fatcantor import make_construction, zeta_value
from fathorse.horseshoe import suspension_volume
from fathorse.lorenz import LorenzBranchMap
from fathorse.runner import run

K_VALUES = (2, 3, 5)
A_VALUES = (-0.9, -0.3, 0.0, 0.42, 0.9)


def _line(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")


def test_c1_cone_bound():
    started = time.perf_counter()
    worst_excess = -math.inf
    k2_dev = 0.0
    k2_spread = 0.0
    for k in K_VALUES:
        system = ConeSystem(k)
        for n in range(15):
            totals = [slice_measure(system, a, n) for a in A_VALUES]
            bound = 2.0 / 4.0 ** (n / k)
            worst_excess = max(worst_excess, max(totals) - bound)
            if k == 2:
                k2_dev = max(k2_dev, max(abs(t - 2.0 ** (1 - n)) for t in totals))
                k2_spread = max(k2_spread, max(totals) - min(totals))
    elapsed = time.perf_counter() - started
    ok = worst_excess <= 1e-12 and k2_dev <= 1e-12 and k2_spread <= 1e-12 and elapsed < 5.0
    _line(
        "criterion-1 cone bound",
        ok,
        f"max excess {worst_excess:.3e} (tol 1e-12), k=2 dev {k2_dev:.3e}, "
        f"spread {k2_spread:.3e}, {elapsed:.2f}s (< 5s)",
    )
    assert worst_excess <= 1e-12
    assert k2_dev <= 1e-12
    assert k2_spread <= 1e-12
    assert elapsed < 5.0


def test_c2_oracle_equivalence():
    started = time.perf_counter()
    resolution = 1e-5
    tol = max(10.0 * resolution, 1e-6)
    worst = 0.0
    for k in (2, 3):
        system = ConeSystem(k)
        for a in (0.0, 0.42):
            for n in range(7):
                estimate = brute_force_slice(system, a, n, resolution)
                exact = slice_measure(system, a, n)
                worst = max(worst, abs(estimate - exact))
    elapsed = time.perf_counter() - started
    ok = worst <= tol and elapsed < 60.0
    _line(
        "criterion-2 oracle equivalence",
        ok,
        f"max |oracle - recursion| {worst:.3e} (tol {tol:.1e}), {elapsed:.1f}s (< 60s)",
    )
    assert worst <= tol
    assert elapsed < 60.0


def test_c3_integer_recursion():
    levels, denominators = exact_preimage_table(4)
    denoms_ok = denominators[:4] == [1, 4, 64, 16384]
    exact_ok = True
    for n in range(5):
        floats = preimage_level(0.0, n)
        exact_ok = exact_ok and all(
            Fraction(float(r)) == Fraction(value, denominators[n])
            for r, value in zip(floats, levels[n])
        )
    ok = denoms_ok and exact_ok
    _line(
        "criterion-3 integer recursion",
        ok,
        f"denominators {denominators[:4]}, float/rational tables identical "
        f"through level 4: {exact_ok}",
    )
    assert denoms_ok
    assert exact_ok


def test_c4a_level_measure_telescoping(construction18):
    worst = 0.0
    for n in range(20):
        step = construction18.level_measure(n) - construction18.level_measure(n + 1)
        worst = max(worst, abs(step - construction18.gaps.length(n)))
    ok = worst <= 1e-12
    _line("criterion-4a telescoping", ok, f"max |step - gap| {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_c4b_level20_limit_proximity(construction18, lorenz18):
    """Faithful to the stated 1e-4 tolerance; expected to fail.

    The level-20 cover exceeds the limit by the exact remaining gap mass
    2b * sum_{m>20} m^-2, about 9.33e-3.  The check is kept at its stated
    tolerance rather than widened; the runner reports the same quantity
    against the true tail bound instead.
    """
    limit = 2.0 * lorenz18.a - 2.0 * lorenz18.b * zeta_value(2.0)
    distance = abs(construction18.level_measure(20) - limit)
    ok = distance <= 1e-4
    _line(
        "criterion-4b level-20 proximity",
        ok,
        f"|measure(20) - limit| = {distance:.6e} vs stated tol 1e-4 "
        f"(exact tail: {construction18.gaps.total() - construction18.gaps.partial_sum(20):.6e})",
    )
    assert distance <= 1e-4, (
        "unreachable by construction: the distance equals the gap-series "
        f"tail {distance:.3e}, two orders above the stated 1e-4"
    )


def test_c4c_infeasibility_reported():
    boundary = LorenzBranchMap.from_coefficient(2.0)
    with pytest.raises(FeasibilityError):
        make_construction(boundary, 2.0)
    _line("criterion-4c infeasibility at c=2", True, "feasibility error raised")


def test_c5_surgery(bowen18):
    started = time.perf_counter()
    report = verify_surgery(bowen18, max_level=10, monotone_grid=100_000)
    elapsed = time.perf_counter() - started
    formula_err = max(level.formula_err for level in report.levels)
    splice = max(report.splice_margins.values())
    ok = (
        report.endpoint_max_dev <= 1e-9
        and formula_err <= 1e-9
        and report.min_sup_drop > 0.0
        and splice <= 1e-10
        and report.min_increment > 0.0
        and elapsed < 30.0
    )
    _line(
        "criterion-5 surgery",
        ok,
        f"endpoint dev {report.endpoint_max_dev:.2e} (tol 1e-9), sup formula err "
        f"{formula_err:.2e} (tol 1e-9), splice {splice:.2e} (tol 1e-10), "
        f"smallest sup drop {report.min_sup_drop:.2e} (> 0), smallest step on "
        f"2x{report.grid_size} grid {report.min_increment:.2e} (> 0), {elapsed:.1f}s (< 30s)",
    )
    assert report.endpoint_max_dev <= 1e-9
    assert formula_err <= 1e-9
    assert report.min_sup_drop > 0.0
    assert splice <= 1e-10
    assert report.min_increment > 0.0
    assert elapsed < 30.0


def test_c6_product_structure(poincare18, construction18):
    started = time.perf_counter()
    tree_dev = 0.0
    for depth in range(9):
        for fiber, tree in zip(poincare18.fiber_intervals(depth), construction18.level(depth)):
            tree_dev = max(tree_dev, float(np.max(np.abs(fiber - tree))))
    grid_ok = True
    positive = True
    for depth in range(7):
        estimate = poincare18.measure_estimate(depth, 1e-3)
        error = abs(estimate.estimated_area - estimate.exact_level_area)
        grid_ok = grid_ok and error <= estimate.envelope
        positive = positive and estimate.estimated_area > 0.0
    elapsed = time.perf_counter() - started
    ok = tree_dev <= 1e-9 and grid_ok and positive and elapsed < 120.0
    _line(
        "criterion-6 product structure",
        ok,
        f"fiber/tree dev {tree_dev:.2e} (tol 1e-9, all words to depth 8), grid within "
        f"envelope: {grid_ok}, positive: {positive}, {elapsed:.1f}s (< 120s)",
    )
    assert tree_dev <= 1e-9
    assert grid_ok
    assert positive
    assert elapsed < 120.0


def test_c7_mapping_identities(poincare18, lorenz18):
    a, b = lorenz18.a, lorenz18.b
    cases = {
        "(a,a)->(a,-b)": ((a, a), (a, -b)),
        "(b,-a)->(-a,-a)": ((b, -a), (-a, -a)),
        "(a,-a)->(a,-a)": ((a, -a), (a, -a)),
    }
    worst = 0.0
    for point, expected in cases.values():
        got = poincare18.second_return(point)
        worst = max(worst, abs(got[0] - expected[0]), abs(got[1] - expected[1]))
    ok = worst <= 1e-9
    _line("criterion-7 mapping identities", ok, f"max dev {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_c8_vertical_witness(poincare18):
    eps = poincare18.bowen.cc.gaps.length(3) / 16.0
    records = poincare18.vertical_gap_witness(1_000, eps, seed=20_260_810, depth=6)
    failures = [rec for rec in records if rec.failure is not None]
    ok = not failures and len(records) == 1_000
    _line(
        "criterion-8 vertical-gap witness",
        ok,
        f"1000/{len(records) - len(failures)} samples witnessed, eps {eps:.3e}, "
        f"deepest gap level {max((rec.gap_level or 0 for rec in records), default=0)}",
    )
    assert not failures
    assert len(records) == 1_000


def test_c9_suspension_bound(construction18):
    area = construction18.level_measure(6) ** 2
    volume = suspension_volume(area, 0.1)
    ok = volume > 0.0 and volume == 0.1 * area
    _line("criterion-9 suspension bound", ok, f"volume {volume:.6e} = 0.1 x {area:.6e} > 0")
    assert volume > 0.0
    assert volume == 0.1 * area


def test_c10_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        target = tmp_path / name
        code = run(ExperimentConfig(output_dir=str(target)))
        assert code == 0
        outs.append(target)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    identical = all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in files
    )
    _line(
        "criterion-10 determinism",
        identical,
        f"{len(files)} artifacts byte-identical across two default runs",
    )
    assert identical
