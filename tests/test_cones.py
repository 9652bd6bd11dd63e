import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fathorse import cones
from fathorse.cones import (
    brute_force_slice,
    cone_map,
    exact_preimage_table,
    make_cone_system,
    preimage_level,
    slice_intervals,
    slice_measure,
    verify_cone_bound,
)
from fathorse.errors import DomainError, InvalidParameterError, SingularityError, SizeGuardError


@pytest.fixture(scope="module")
def k2():
    return make_cone_system(2)


@pytest.fixture(scope="module")
def k3():
    return make_cone_system(3)


class TestConeMap:
    def test_positive_branch(self, k2):
        assert cone_map(k2, 9.0 / 16.0, 0.0) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_mirrored_branch(self, k2):
        assert cone_map(k2, -9.0 / 16.0, 0.0) == pytest.approx((-0.5, -0.5), abs=1e-15)

    def test_corner_fixed_point(self, k3):
        assert cone_map(k3, 1.0, 1.0) == (1.0, 1.0)

    def test_undefined_on_gamma(self, k2):
        with pytest.raises(SingularityError):
            cone_map(k2, 0.0, 0.3)

    def test_outside_square(self, k2):
        with pytest.raises(DomainError):
            cone_map(k2, 0.5, 1.2)

    def test_image_stays_in_square(self, k3):
        for i in range(-50, 51):
            for j in (-1.0, -0.3, 0.7, 1.0):
                x = i / 50
                if x == 0.0:
                    continue
                xe, ye = cone_map(k3, x, j)
                assert abs(xe) <= 1.0 and abs(ye) <= 1.0

    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            make_cone_system(1)


class TestPreimageLevel:
    def test_level_one(self):
        assert preimage_level(0.0, 1).tolist() == [-0.25, 0.25]

    def test_level_two(self):
        assert preimage_level(0.0, 2).tolist() == [
            -25.0 / 64.0,
            9.0 / 64.0,
            -9.0 / 64.0,
            25.0 / 64.0,
        ]

    def test_denominators(self):
        _, denoms = exact_preimage_table(4)
        assert denoms == [1, 4, 64, 16384, 1073741824]

    def test_integer_table_matches_floats_exactly(self):
        # from abscissa 0 every entry is an exact dyadic rational, so the
        # float recursion reproduces the rational table with no rounding
        levels, denoms = exact_preimage_table(4)
        for n in range(5):
            floats = preimage_level(0.0, n)
            assert all(
                Fraction(float(r)) == Fraction(v, denoms[n])
                for r, v in zip(floats, levels[n])
            )

    def test_rational_table_close_for_generic_abscissa(self):
        levels, denoms = exact_preimage_table(4, Fraction(21, 50))
        floats = preimage_level(0.42, 4)
        worst = max(
            abs(float(r) - v / denoms[4]) for r, v in zip(floats, levels[4])
        )
        assert worst < 1e-14

    def test_branch_consistency(self):
        # every leaf maps back onto its parent under the c = 2 map
        for a in (0.0, 0.42, -0.9):
            prev = preimage_level(a, 13)
            cur = preimage_level(a, 14)
            for j, parent in enumerate(prev):
                for child in (cur[2 * j], cur[2 * j + 1]):
                    fx = 2.0 * math.sqrt(abs(child)) * math.copysign(1.0, child) - math.copysign(
                        1.0, child
                    )
                    assert abs(fx - parent) < 1e-12

    def test_sign_interleave(self):
        level = preimage_level(0.42, 6)
        assert all(r < 0 for r in level[0::2])
        assert all(r > 0 for r in level[1::2])
        assert np.all(np.abs(level) < 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            preimage_level(1.0, 2)
        with pytest.raises(DomainError):
            preimage_level(0.0, -1)
        with pytest.raises(SizeGuardError):
            preimage_level(0.0, 25)


def _last_level(system, a, n):
    """(r, widths) of the deepest level of the slice recursion."""
    *_, last = cones._levels(system, a, n)
    return last


class TestSliceMeasure:
    def test_level_zero_is_full_fiber(self, k3):
        assert slice_measure(k3, 0.7, 0) == 2.0

    def test_k2_level_one(self, k2):
        assert slice_measure(k2, 0.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_k2_level_two_widths(self, k2):
        _, widths = _last_level(k2, 0.0, 2)
        assert slice_measure(k2, 0.0, 2) == pytest.approx(0.5, abs=1e-15)
        assert (32.0 * widths).tolist() == pytest.approx([5.0, 3.0, 3.0, 5.0], abs=1e-12)

    def test_k2_exact_halving(self, k2):
        for n in range(15):
            for a in (-0.9, -0.3, 0.0, 0.42, 0.9):
                assert abs(slice_measure(k2, a, n) - 2.0 ** (1 - n)) <= 1e-12

    @pytest.mark.parametrize("k,a", [(2, 0.0), (3, 0.42), (5, -0.9)])
    def test_monotone_decay(self, k, a):
        system = make_cone_system(k)
        totals = [slice_measure(system, a, n) for n in range(13)]
        assert all(t2 < t1 for t1, t2 in zip(totals, totals[1:]))

    def test_widths_positive_and_sum(self, k3):
        r, widths = _last_level(k3, 0.3, 10)
        assert np.all(widths > 0.0)
        assert slice_measure(k3, 0.3, 10) == pytest.approx(float(np.sum(widths)), abs=0.0)
        assert r.size == 2 ** 10

    def test_leaves_are_preimage_level(self, k3):
        for a in (-0.9, 0.0, 0.42):
            for n in (0, 1, 9):
                assert np.array_equal(_last_level(k3, a, n)[0], preimage_level(a, n))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_intervals_match_scalar_composite(self, k):
        # scalar reference: carry each leaf's affine composite of fiber maps
        # (slope, offset) back to the slice; numpy and Python powers may
        # differ by an ulp per level, hence a tolerance of a few ulps per level
        system = make_cone_system(k)
        n = 7
        for a in (-0.9, 0.0, 0.42):
            level = [(a, 1.0, 0.0)]
            for _ in range(n):
                nxt = []
                for r, slope, offset in level:
                    for child in (-(((r - 1.0) / 2.0) ** 2), ((r + 1.0) / 2.0) ** 2):
                        f_slope = 0.5 * abs(child) ** (1.0 / k)
                        f_offset = 0.5 if child > 0 else -0.5
                        nxt.append((child, slope * f_slope, slope * f_offset + offset))
                level = nxt
            expected = [[offset - slope, offset + slope] for _, slope, offset in level]
            got = slice_intervals(system, a, n)
            assert np.allclose(got, expected, rtol=0.0, atol=4 * n * np.finfo(float).eps)


class TestConeBound:
    def test_k2_equality_case(self, k2):
        report = verify_cone_bound(k2, 0.0, 14)
        assert report.all_pass
        for row in report.rows:
            assert row.total == pytest.approx(row.bound, abs=1e-12)

    def test_k3_strict(self, k3):
        report = verify_cone_bound(k3, 0.3, 12)
        assert report.all_pass
        assert all(row.total < row.bound for row in report.rows if row.n > 0)

    def test_base_case_row(self):
        report = verify_cone_bound(make_cone_system(5), 0.0, 1)
        assert report.rows[0].total == 2.0
        assert report.rows[0].bound == 2.0

    def test_nmax_precondition(self, k2):
        with pytest.raises(DomainError):
            verify_cone_bound(k2, 0.0, -1)

    def test_peak_memory_is_one_level(self, k3):
        # no level's leaf arrays outlive their slice_measure call, so the
        # whole table peaks no higher than its deepest level alone
        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = traced_peak(lambda: slice_measure(k3, 0.42, 16))
        table = traced_peak(lambda: verify_cone_bound(k3, 0.42, 16))
        assert table <= 1.05 * single

    def test_nmax_zero_single_row(self, k3):
        report = verify_cone_bound(k3, 0.42, 0)
        assert len(report.rows) == 1 and report.all_pass
        row = report.rows[0]
        assert (row.n, row.total, row.bound) == (0, 2.0, 2.0)
        assert math.isnan(row.ratio)


class TestBruteForce:
    def test_k2_small_levels(self, k2):
        for n, expected in ((1, 1.0), (2, 0.5)):
            est = brute_force_slice(k2, 0.0, n, 1e-5)
            assert abs(est.total - expected) < 1e-3

    def test_level_zero(self, k3):
        assert brute_force_slice(k3, 0.0, 0, 1e-2).total == 2.0

    def test_oracle_matches_recursion(self, k3):
        for a in (0.0, 0.42):
            for n in (3, 5):
                est = brute_force_slice(k3, a, n, 1e-5)
                exact = slice_measure(k3, a, n)
                assert abs(est.total - exact) <= max(10 * 1e-5, 1e-6)

    def test_coarse_resolution_warns_in_result(self, k2):
        est = brute_force_slice(k2, 0.0, 1, 0.01)
        assert est.warning is not None

    def test_cost_guard(self, k2):
        with pytest.raises(SizeGuardError):
            brute_force_slice(k2, 0.0, 9, 1e-4)
