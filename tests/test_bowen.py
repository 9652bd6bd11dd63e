import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fathorse import bowen
from fathorse.bowen import _SNAP, GapDiffeo, build_base_map, verify_surgery
from fathorse.errors import DomainError, SingularityError, SizeGuardError
from fathorse.fatcantor import make_construction
from fathorse.lorenz import LorenzBranchMap
from fathorse.rng import SplitMix64


class TestGapDiffeo:
    def test_endpoint_slopes_exactly_two(self, bowen18):
        for word in ("", "0", "11", "010"):
            d = bowen18.gap_diffeo(word)
            assert d.derivative(d.source[0]) == 2.0
            assert d.derivative(d.source[1]) == 2.0

    def test_maps_source_onto_target(self, bowen18):
        for word in ("", "1", "00", "0110"):
            d = bowen18.gap_diffeo(word)
            assert d.value(d.source[0]) == d.target[0]
            assert d.value(d.source[1]) == pytest.approx(d.target[1], abs=1e-15)

    def test_mean_slope_formula(self, bowen18):
        p = bowen18.cc.gaps.exponent
        for word, n in (("", 0), ("0", 1), ("101", 3)):
            d = bowen18.gap_diffeo(word)
            assert d.mean_slope == pytest.approx(2.0 * ((n + 2.0) / (n + 1.0)) ** p, rel=1e-12)

    def test_sup_deviation_at_midpoint(self, bowen18):
        d = bowen18.gap_diffeo("")
        mid = 0.5 * (d.source[0] + d.source[1])
        assert d.derivative(mid) == pytest.approx(2.0 + 2.0 * (d.mean_slope - 2.0), rel=1e-12)

    def test_invert_round_trip(self, bowen18):
        d = bowen18.gap_diffeo("01")
        for i in range(21):
            x = d.source[0] + (d.source[1] - d.source[0]) * i / 20
            assert d.invert(d.value(x)) == pytest.approx(x, abs=1e-13)


class TestBaseMap:
    def test_fixed_endpoints(self, bowen18, lorenz18):
        assert bowen18.base_value(lorenz18.a) == lorenz18.a
        assert bowen18.base_value(lorenz18.b) == -lorenz18.a

    def test_gap_center_to_center(self, bowen18, lorenz18):
        center = 0.5 * (lorenz18.a + lorenz18.b)
        assert bowen18.base_value(center) == pytest.approx(0.0, abs=1e-15)

    def test_address_shift_at_interval_endpoint(self, bowen18, lorenz18):
        # right endpoint of I_{01} is the left edge of the top gap; its
        # image is the matching edge one level up, the point -b
        hi = bowen18.cc.interval("01")[1]
        assert bowen18.base_value(hi) == pytest.approx(-lorenz18.b, abs=1e-15)

    def test_nested_gap_midpoints(self, bowen18):
        src = bowen18.cc.gap("00")
        tgt = bowen18.cc.gap("0")
        got = bowen18.base_value(0.5 * (src[0] + src[1]))
        assert got == pytest.approx(0.5 * (tgt[0] + tgt[1]), abs=1e-14)

    def test_address_shift_on_sample_points(self, bowen18):
        cc = bowen18.cc
        rng = SplitMix64(7)
        lo, hi = cc.interval("0")
        for _ in range(200):
            x = lo + rng.random() * (hi - lo)
            kind, word = cc.locate(x, 9)
            assert word[0] == "0"
            image = bowen18.base_value(x)
            kind2, word2 = cc.locate(image, len(word) - 1 if kind == "interval" else 9)
            if kind == "gap":
                assert (kind2, word2) == ("gap", word[1:])
            else:
                assert word2 == word[1:]

    def test_domain(self, bowen18):
        with pytest.raises(DomainError):
            bowen18.base_value(0.01)


class TestBaseDerivative:
    def test_endpoints_exactly_two(self, bowen18, lorenz18):
        assert bowen18.base_derivative(lorenz18.a) == 2.0
        assert bowen18.base_derivative(lorenz18.b) == 2.0
        for word in ("", "0", "10"):
            glo, ghi = bowen18.cc.gap("0" + word)
            assert bowen18.base_derivative(glo) == 2.0
            assert bowen18.base_derivative(ghi) == 2.0

    def test_gap_midpoint_profile(self, bowen18):
        # level-3 gap: mean slope 2(5/4)^2 = 3.125, peak 2 + 2(s-2) = 4.25
        word = "101"
        glo, ghi = bowen18.cc.gap("0" + word)
        got = bowen18.base_derivative(0.5 * (glo + ghi))
        assert got == pytest.approx(4.25, rel=1e-11)

    @pytest.mark.parametrize("n", [9, 12])
    def test_deep_gap_midpoints_approach_two(self, bowen18, n):
        p = bowen18.cc.gaps.exponent
        word = "0" * n
        glo, ghi = bowen18.cc.gap("0" + word)
        dev = bowen18.base_derivative(0.5 * (glo + ghi)) - 2.0
        assert dev == pytest.approx(4.0 * p / (n + 1.0), abs=8.0 / (n + 1.0) ** 2)

    def test_cantor_point_ratio_near_two(self, bowen18):
        # a point so deep that the walk bottoms out on the interval side:
        # the reported slope is the interval-length ratio, already near 2
        lo, hi = bowen18.cc.interval("0" + "01" * 18)
        d = bowen18.base_derivative(0.5 * (lo + hi))
        assert abs(d - 2.0) < 0.01


class TestBaseInverse:
    def test_splice_values(self, bowen18, lorenz18):
        assert bowen18.base_invert(-lorenz18.a) == lorenz18.b
        assert bowen18.base_invert(lorenz18.a) == lorenz18.a

    def test_gap_center(self, bowen18, lorenz18):
        assert bowen18.base_invert(0.0) == pytest.approx(
            0.5 * (lorenz18.a + lorenz18.b), abs=1e-14
        )

    def test_round_trip(self, bowen18, lorenz18):
        a = lorenz18.a
        worst = 0.0
        for i in range(2_001):
            v = -a + 2.0 * a * i / 2_000
            worst = max(worst, abs(bowen18.base_value(bowen18.base_invert(v)) - v))
        assert worst < 1e-9


class TestSplicedMap:
    def test_splice_values(self, bowen18, lorenz18):
        a = lorenz18.a
        fb = bowen18.fb
        assert bowen18.modified_value(a) == pytest.approx(-a, abs=1e-15)
        assert bowen18.modified_value(-fb) == pytest.approx(a, abs=1e-14)
        assert bowen18.modified_value(1.0) == pytest.approx(0.8, abs=1e-15)

    def test_singularity(self, bowen18):
        with pytest.raises(SingularityError):
            bowen18.modified_value(0.0)

    def test_odd_symmetry(self, bowen18):
        for i in range(1, 400):
            x = i / 400
            assert bowen18.modified_value(-x) == pytest.approx(
                -bowen18.modified_value(x), abs=1e-13
            )

    def test_second_iterate_factors_through_base(self, bowen18, lorenz18):
        rng = SplitMix64(11)
        b, a = lorenz18.b, lorenz18.a
        worst = 0.0
        for _ in range(10_000):
            x = b + rng.random() * (a - b)
            worst = max(worst, abs(bowen18.second_iterate(x) - bowen18.base_value(x)))
        assert worst < 1e-9

    def test_inverse_splice_values(self, bowen18, lorenz18):
        a = lorenz18.a
        assert bowen18.invert_right(-a) == pytest.approx(a, abs=1e-14)
        assert bowen18.invert_right(a) == pytest.approx(-bowen18.fb, abs=1e-14)

    def test_inverse_center_composite(self, bowen18, lorenz18):
        # x = -f(B^{-1}(0)) with B^{-1}(0) the center of the core gap
        center = 0.5 * (lorenz18.a + lorenz18.b)
        expected = -lorenz18.value(center)
        assert bowen18.invert_right(0.0) == pytest.approx(expected, abs=1e-13)

    def test_inverse_round_trip(self, bowen18, lorenz18):
        worst = 0.0
        for i in range(5_000):
            y = -0.999 + i * (0.8 + 0.999) / 4_999
            x = bowen18.invert_right(y)
            worst = max(worst, abs(bowen18.modified_value(x) - y))
        assert worst < 1e-9

    def test_inverse_domain(self, bowen18):
        with pytest.raises(DomainError):
            bowen18.invert_right(0.81)


@pytest.fixture(scope="module")
def report(bowen18):
    return verify_surgery(bowen18, max_level=10, monotone_grid=20_000)


class TestVerifySurgery:
    def test_level_zero_sup(self, report):
        assert report.levels[0].sup_dev == pytest.approx(12.0, abs=1e-9)

    def test_level_nine_sup(self, report):
        assert report.levels[9].sup_dev == pytest.approx(0.84, abs=1e-9)

    def test_formula_agreement(self, report):
        assert all(lv.formula_err <= 1e-9 for lv in report.levels)

    def test_endpoint_derivatives(self, report):
        assert report.endpoint_max_dev <= 1e-9
        assert report.endpoint_count == 2 + 2 * (2 ** 10 - 1)

    def test_level_cap(self, bowen18):
        with pytest.raises(SizeGuardError):
            verify_surgery(bowen18, max_level=15)

    def test_endpoints_match_word_frontier(self, report, bowen18):
        # the source-gap ends of every word 0w, |w| < 10, from the scalar tree
        words = [format(i, f"0{n}b") if n else "" for n in range(10) for i in range(2 ** n)]
        ends = {bowen18.m.b, bowen18.m.a}
        ends.update(v for w in words for v in bowen18.cc.gap("0" + w))
        assert report.endpoint_count == len(ends)
        assert report.endpoint_max_dev == max(
            abs(2.0 - bowen18.core_second_derivative(x)) for x in ends)

    def test_splice_continuity(self, report):
        assert max(report.splice_margins.values()) <= 1e-10

    def test_monotone_and_decreasing(self, report):
        assert report.monotone_ok
        assert report.sup_strictly_decreasing
        assert report.all_pass

    def test_checks_hold_the_pass_rule(self, report):
        assert [cid for cid, *_ in report.checks] == [
            "surgery_sup_formula",
            "surgery_endpoint_slope",
            "surgery_splice_continuity",
            "surgery_monotone",
            "surgery_sup_decreasing",
        ]
        assert report.all_pass == all(ok for *_, ok in report.checks)
        broken = dataclasses.replace(report, monotone_ok=False)
        assert not broken.all_pass
        assert not all(ok for *_, ok in broken.checks)

    def test_measure_preserved_under_shift(self, bowen18):
        # the base map doubles lengths: the cover inside I_{0w} is half
        # the matching cover inside I_w
        cc = bowen18.cc
        for word in ("", "0", "11"):
            for level in (len(word) + 2, len(word) + 5):
                half = cc.subtree_cover_length("0" + word, level)
                full = cc.subtree_cover_length(word, level)
                assert abs(2.0 * half - full) <= 1e-12


# -- array kernels against their scalar oracles ------------------------------

PARITY_COEFFICIENTS = (1.7, 1.8, 1.95)


@functools.lru_cache(maxsize=None)
def _system(c):
    return build_base_map(make_construction(LorenzBranchMap.from_coefficient(c), 2.0))


@pytest.fixture(scope="module", params=PARITY_COEFFICIENTS, ids=lambda c: f"c={c}")
def bowen_c(request):
    return _system(request.param)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _core_probe_points(system):
    """Random core points, every source-tree endpoint to level 10, points
    on either side of each endpoint inside and just outside the snap, a and b."""
    cc, b, a = system.cc, system.m.b, system.m.a
    ends = {b, a}
    frontier = ["0"]
    for _ in range(11):
        ends.update(v for w in frontier for v in cc.interval(w))
        frontier = [w + ch for w in frontier for ch in "01"]
    ends = np.array(sorted(ends))
    near = [ends + k * _SNAP for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    random = b + (a - b) * np.random.default_rng(5).random(2_000)
    points = np.concatenate([ends, *near, random])
    return points[(b <= points) & (points <= a)]


class TestArrayKernels:
    def test_base_values_bit_equal(self, bowen_c):
        xs = _core_probe_points(bowen_c)
        assert xs.size > 6 * 2**10
        scalar = [bowen_c.base_value(float(x)) for x in xs]
        assert np.array_equal(_bits(bowen_c.base_values(xs)), _bits(scalar))

    def test_base_values_domain(self, bowen_c):
        with pytest.raises(DomainError):
            bowen_c.base_values(np.array([bowen_c.m.a, bowen_c.m.b / 2.0]))
        assert bowen_c.base_values(np.array([])).size == 0

    def test_spliced_map_bit_equal_on_surgery_grid(self, bowen_c):
        # the monotone grid of verify_surgery, both branches
        xs = np.linspace(1.0 / 20_000, 1.0, 20_000)
        for grid in (xs, -xs[::-1]):
            scalar = [bowen_c.modified_value(float(x)) for x in grid]
            assert np.array_equal(_bits(bowen_c.modified_values(grid)), _bits(scalar))

    def test_spliced_map_domain(self, bowen_c):
        with pytest.raises(SingularityError):
            bowen_c.modified_values(np.array([0.5, 0.0]))
        with pytest.raises(DomainError):
            bowen_c.modified_values(np.array([1.5]))

    def test_second_iterates_bit_equal_on_core(self, bowen_c):
        side = _core_probe_points(bowen_c)[::7]
        xs = np.concatenate([side, -side])
        scalar = [bowen_c.second_iterate(float(x)) for x in xs]
        assert np.array_equal(_bits(bowen_c.second_iterates(xs)), _bits(scalar))


@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from(PARITY_COEFFICIENTS),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    ys=st.lists(st.floats(-1.0, 1.0).filter(bool), min_size=1, max_size=40),
)
def test_array_kernels_match_scalar_property(c, ts, ys):
    """Random core points through B; the same points of both signs and
    random nonzero points of [-1, 1] through the spliced map."""
    system = _system(c)
    b, a = system.m.b, system.m.a
    xs = np.clip(b + (a - b) * np.array(ts), b, a)
    assert np.array_equal(
        _bits(system.base_values(xs)), _bits([system.base_value(float(x)) for x in xs])
    )
    spliced = np.concatenate([xs, -xs, ys])
    assert np.array_equal(
        _bits(system.modified_values(spliced)),
        _bits([system.modified_value(float(x)) for x in spliced]),
    )


def _target_probe_points(system):
    """Random points of [-a, a], every target-tree endpoint to level 10,
    points on either side of each endpoint inside and just outside the
    snap, and +-a."""
    cc, a = system.cc, system.m.a
    ends = {-a, a}
    frontier = [""]
    for _ in range(11):
        ends.update(v for w in frontier for v in cc.interval(w))
        frontier = [w + ch for w in frontier for ch in "01"]
    ends = np.array(sorted(ends))
    near = [ends + k * _SNAP for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    random = -a + 2.0 * a * np.random.default_rng(11).random(2_000)
    points = np.concatenate([ends, *near, random])
    return points[np.abs(points) <= a]


def _full_budget_invert(d, y):
    """GapDiffeo.invert's scalar loop without the repeated-state stop: it
    runs the whole 80-step budget unless |err| < 1e-16.  Returns the
    preimage and whether some step left (t, lo, hi) unchanged."""
    s = d.mean_slope
    tau = (y - d.target[0]) / (d.target[1] - d.target[0])
    t, lo, hi = min(max(tau, 0.0), 1.0), 0.0, 1.0
    repeated = False
    for _ in range(80):
        err = bowen._integral(t, s) - tau
        if abs(err) < 1e-16:
            break
        state = t, lo, hi
        if err > 0.0:
            hi = t
        else:
            lo = t
        step = t - err / bowen._normalized_slope(t, s)
        t = step if lo < step < hi else 0.5 * (lo + hi)
        repeated = repeated or (t, lo, hi) == state
    return d.source[0] + (d.source[1] - d.source[0]) * t, repeated


class TestInverseArrayKernels:
    def test_gap_diffeo_invert_bit_equal(self, bowen_c):
        vs = _target_probe_points(bowen_c)
        _, gap, diffeo = bowen_c._walks(vs, forward=False)
        assert gap.size > 1_000
        scalars = [
            GapDiffeo(int(n), (s0, s1), (t0, t1))
            for n, s0, s1, t0, t1 in zip(diffeo.level, *diffeo.source, *diffeo.target)
        ]
        full = [_full_budget_invert(d, float(v)) for d, v in zip(scalars, vs[gap])]
        assert sum(repeated for _, repeated in full) > 50  # elements that stop on a repeat
        expected = _bits([x for x, _ in full])
        assert np.array_equal(_bits([d.invert(float(v)) for d, v in zip(scalars, vs[gap])]),
                              expected)
        assert np.array_equal(_bits(diffeo.invert(vs[gap])), expected)

    def test_base_inverts_bit_equal(self, bowen_c):
        vs = _target_probe_points(bowen_c)
        assert vs.size > 6 * 2**11
        scalar = [bowen_c.base_invert(float(v)) for v in vs]
        assert np.array_equal(_bits(bowen_c.base_inverts(vs)), _bits(scalar))

    def test_base_inverts_domain(self, bowen_c):
        a = bowen_c.m.a
        for bad in (a + 1e-9, -a - 1e-9, np.nan):
            with pytest.raises(DomainError):
                bowen_c.base_inverts(np.array([0.0, bad]))
        assert bowen_c.base_inverts(np.array([])).size == 0

    def test_invert_rights_bit_equal(self, bowen_c):
        m, fb = bowen_c.m, bowen_c.fb
        top = m.c - 1.0
        shifts = (-1.5, -1.0, 0.0, 0.5, 1.0, 1.5)
        snapped = np.array([v + k * _SNAP for v in (-m.a, m.a, fb) for k in shifts])
        beyond = np.linspace(-0.999, top, 1_001)  # |y| > a on both sides of the core
        ys = np.concatenate([_target_probe_points(bowen_c)[::4], snapped, beyond, [top + 1e-13]])
        assert (np.abs(ys) > m.a).sum() > 500
        scalar = [bowen_c.invert_right(float(y)) for y in ys]
        assert np.array_equal(_bits(bowen_c.invert_rights(ys)), _bits(scalar))
        assert bowen_c.invert_rights(np.array([-m.a, m.a, fb])).tolist() == [m.a, -fb, m.b]

    def test_invert_rights_domain(self, bowen_c):
        for bad in (-1.0, bowen_c.m.c - 1.0 + 1e-9):
            with pytest.raises(DomainError):
                bowen_c.invert_rights(np.array([0.0, bad]))
        assert bowen_c.invert_rights(np.array([])).size == 0


@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from(PARITY_COEFFICIENTS),
    ts=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
    ys=st.lists(st.floats(-1.0, 1.0, exclude_min=True), min_size=1, max_size=40),
)
def test_inverse_kernels_match_scalar_property(c, ts, ys):
    """Random points of [-a, a] through the inverse base map, and random
    points of the right-branch range through its inverse."""
    system = _system(c)
    a = system.m.a
    vs = np.clip(a * np.array(ts), -a, a)
    assert np.array_equal(
        _bits(system.base_inverts(vs)), _bits([system.base_invert(float(v)) for v in vs])
    )
    ys = np.minimum(np.array(ys), system.m.c - 1.0)
    assert np.array_equal(
        _bits(system.invert_rights(ys)), _bits([system.invert_right(float(y)) for y in ys])
    )
