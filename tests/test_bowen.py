import functools
import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fathorse.bowen import (
    _SNAP,
    JUMP,
    BowenSystem,
    GapDiffeo,
    _sample_words,
    build_base_map,
    verify_surgery,
)
from fathorse.errors import DomainError, SingularityError, SizeGuardError
from fathorse.fatcantor import make_construction
from fathorse.lorenz import LorenzBranchMap, branch_value
from oracles import SplitMix64


class TestGapDiffeo:
    def test_endpoint_slopes_exactly_two(self, bowen18):
        for word in ("", "0", "11", "010"):
            d = oracles.gap_diffeo(bowen18, word)
            assert d.derivative(d.source[0]) == 2.0
            assert d.derivative(d.source[1]) == 2.0

    def test_maps_source_onto_target(self, bowen18):
        for word in ("", "1", "00", "0110"):
            d = oracles.gap_diffeo(bowen18, word)
            assert d.value(d.source[0]) == d.target[0]
            assert d.value(d.source[1]) == pytest.approx(d.target[1], abs=1e-15)

    def test_mean_slope_formula(self, bowen18):
        p = bowen18.cc.gaps.exponent
        for word, n in (("", 0), ("0", 1), ("101", 3)):
            d = oracles.gap_diffeo(bowen18, word)
            assert d.mean_slope == pytest.approx(2.0 * ((n + 2.0) / (n + 1.0)) ** p, rel=1e-12)

    def test_sup_deviation_at_midpoint(self, bowen18):
        d = oracles.gap_diffeo(bowen18, "")
        mid = 0.5 * (d.source[0] + d.source[1])
        assert d.derivative(mid) == pytest.approx(2.0 + 2.0 * (d.mean_slope - 2.0), rel=1e-12)

    def test_invert_round_trip(self, bowen18):
        d = oracles.gap_diffeo(bowen18, "01")
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
        hi = oracles.interval(bowen18.cc, "01")[1]
        assert bowen18.base_value(hi) == pytest.approx(-lorenz18.b, abs=1e-15)

    def test_nested_gap_midpoints(self, bowen18):
        src = oracles.gap(bowen18.cc, "00")
        tgt = oracles.gap(bowen18.cc, "0")
        got = bowen18.base_value(0.5 * (src[0] + src[1]))
        assert got == pytest.approx(0.5 * (tgt[0] + tgt[1]), abs=1e-14)

    def test_address_shift_on_sample_points(self, bowen18):
        cc = bowen18.cc
        rng = SplitMix64(7)
        lo, hi = oracles.interval(cc, "0")
        for _ in range(200):
            x = lo + rng.random() * (hi - lo)
            kind, word = oracles.locate(cc, x, 9)
            assert word[0] == "0"
            image = bowen18.base_value(x)
            kind2, word2 = oracles.locate(cc, image, len(word) - 1 if kind == "interval" else 9)
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
            glo, ghi = oracles.gap(bowen18.cc, "0" + word)
            assert bowen18.base_derivative(glo) == 2.0
            assert bowen18.base_derivative(ghi) == 2.0

    def test_gap_midpoint_profile(self, bowen18):
        # level-3 gap: mean slope 2(5/4)^2 = 3.125, peak 2 + 2(s-2) = 4.25
        word = "101"
        glo, ghi = oracles.gap(bowen18.cc, "0" + word)
        got = bowen18.base_derivative(0.5 * (glo + ghi))
        assert got == pytest.approx(4.25, rel=1e-11)

    @pytest.mark.parametrize("n", [9, 12])
    def test_deep_gap_midpoints_approach_two(self, bowen18, n):
        p = bowen18.cc.gaps.exponent
        word = "0" * n
        glo, ghi = oracles.gap(bowen18.cc, "0" + word)
        dev = bowen18.base_derivative(0.5 * (glo + ghi)) - 2.0
        assert dev == pytest.approx(4.0 * p / (n + 1.0), abs=8.0 / (n + 1.0) ** 2)

    def test_cantor_point_ratio_near_two(self, bowen18):
        # a point so deep that the walk bottoms out on the interval side:
        # the reported slope is the interval-length ratio, already near 2
        lo, hi = oracles.interval(bowen18.cc, "0" + "01" * 18)
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
        vs = -a + 2.0 * a * np.arange(2_001) / 2_000
        worst = np.max(np.abs(bowen18.base_value(bowen18.base_invert(vs)) - vs))
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
        xs = np.arange(1, 400) / 400
        assert bowen18.modified_value(-xs) == pytest.approx(-bowen18.modified_value(xs), abs=1e-13)

    def test_second_iterate_factors_through_base(self, bowen18, lorenz18):
        rng = SplitMix64(11)
        b, a = lorenz18.b, lorenz18.a
        xs = np.array([b + rng.random() * (a - b) for _ in range(10_000)])
        worst = np.max(np.abs(bowen18.second_iterate(xs) - bowen18.base_value(xs)))
        assert worst < 1e-9

    def test_inverse_splice_values(self, bowen18, lorenz18):
        a = lorenz18.a
        assert bowen18.invert_right(-a) == pytest.approx(a, abs=1e-14)
        assert bowen18.invert_right(a) == pytest.approx(-bowen18.fb, abs=1e-14)

    def test_inverse_center_composite(self, bowen18, lorenz18):
        # x = -f(B^{-1}(0)) with B^{-1}(0) the center of the core gap
        center = 0.5 * (lorenz18.a + lorenz18.b)
        expected = -branch_value(lorenz18.c, center)
        assert bowen18.invert_right(0.0) == pytest.approx(expected, abs=1e-13)

    def test_inverse_round_trip(self, bowen18, lorenz18):
        ys = -0.999 + np.arange(5_000) * (0.8 + 0.999) / 4_999
        worst = np.max(np.abs(bowen18.modified_value(bowen18.invert_right(ys)) - ys))
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
        # a negative level reached numpy's concatenate of no arrays
        with pytest.raises(DomainError):
            verify_surgery(bowen18, max_level=-1)

    @pytest.mark.parametrize("grid", [1, 0, -5])
    def test_monotone_grid_size(self, bowen18, grid):
        # 0 divided by zero and 1 or -5 reached numpy's diff of too few points
        with pytest.raises(DomainError, match="monotone grid"):
            verify_surgery(bowen18, max_level=2, monotone_grid=grid)

    def test_endpoints_match_word_frontier(self, report, bowen18):
        # the source-gap ends of every word 0w, |w| < 10, from the scalar tree
        words = [format(i, f"0{n}b") if n else "" for n in range(10) for i in range(2 ** n)]
        ends = {bowen18.m.b, bowen18.m.a}
        ends.update(v for w in words for v in oracles.gap(bowen18.cc, "0" + w))
        assert report.endpoint_count == len(ends)
        assert report.endpoint_max_dev == max(
            abs(2.0 - oracles.core_second_derivative(bowen18, x)) for x in ends)
        # and each level's sampled source gaps, 21 points per word 0w
        ts = [i / 20.0 for i in range(21)]
        for level in report.levels:
            sampled = [oracles.gap(bowen18.cc, "0" + w) for w in _sample_words(level.n)]
            points = [glo + t * (ghi - glo) for glo, ghi in sampled for t in ts]
            assert level.words_sampled == len(sampled)
            assert level.sup_dev == max(
                abs(2.0 - oracles.core_second_derivative(bowen18, x)) for x in points)

    def test_one_derivative_call(self, bowen18, monkeypatch):
        # the sampled gap points and the endpoints go through one walk together
        calls, derivative = [], BowenSystem.core_second_derivative
        monkeypatch.setattr(BowenSystem, "core_second_derivative",
                            lambda self, xs: calls.append(xs.size) or derivative(self, xs))
        verify_surgery(bowen18, max_level=10, monotone_grid=200)
        assert calls == [3_245]

    def test_splice_continuity(self, report):
        assert max(report.splice_margins.values()) <= 1e-10

    def test_monotone_and_decreasing(self, report):
        assert report.min_increment > 0.0
        assert report.min_sup_drop > 0.0
        assert max(level.formula_err for level in report.levels) <= 1e-9
        assert report.endpoint_max_dev <= 1e-9
        assert max(report.splice_margins.values()) <= 1e-10

    def test_min_sup_drop_over_levels_from_one(self, report, bowen18):
        devs = [level.sup_dev for level in report.levels]
        assert report.min_sup_drop == min(devs[n] - devs[n + 1] for n in range(1, len(devs) - 1))
        # with no pair to compare the drop is vacuous
        assert verify_surgery(bowen18, max_level=1, monotone_grid=2).min_sup_drop == math.inf

    def test_min_increment_is_the_smallest_grid_step(self, bowen18):
        xs = np.linspace(1.0 / 50, 1.0, 50)
        steps = np.concatenate([np.diff(bowen18.modified_value(v)) for v in (xs, -xs[::-1])])
        report = verify_surgery(bowen18, max_level=0, monotone_grid=50)
        assert report.min_increment == float(steps.min())

    def test_measure_preserved_under_shift(self, bowen18):
        # the base map doubles lengths: the cover inside I_{0w} is half
        # the matching cover inside I_w
        cc = bowen18.cc
        for word in ("", "0", "11"):
            for level in (len(word) + 2, len(word) + 5):
                half = oracles.subtree_cover_length(cc, "0" + word, level)
                full = oracles.subtree_cover_length(cc, word, level)
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
        ends.update(v for w in frontier for v in oracles.interval(cc, w))
        frontier = [w + ch for w in frontier for ch in "01"]
    ends = np.array(sorted(ends))
    near = [ends + k * _SNAP for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    random = b + (a - b) * np.random.default_rng(5).random(2_000)
    points = np.concatenate([ends, *near, random])
    return points[(b <= points) & (points <= a)]


def _surgery_points(system, max_level=10):
    """The points verify_surgery(system, max_level) evaluates: 21 per sampled
    source gap of each level, and the source-gap ends with b and a."""
    ts = [i / 20.0 for i in range(21)]
    sampled = [oracles.gap(system.cc, "0" + w)
               for n in range(max_level + 1) for w in _sample_words(n)]
    words = [format(i, f"0{n}b") if n else "" for n in range(max_level) for i in range(2 ** n)]
    ends = {system.m.b, system.m.a}
    ends.update(v for w in words for v in oracles.gap(system.cc, "0" + w))
    points = np.array([glo + t * (ghi - glo) for glo, ghi in sampled for t in ts])
    return points, np.array(sorted(ends))


class TestArrayKernels:
    def test_base_values_bit_equal(self, bowen_c):
        xs = _core_probe_points(bowen_c)
        assert xs.size > 6 * 2**10
        scalar = [oracles.base_value(bowen_c, float(x)) for x in xs]
        assert np.array_equal(_bits(bowen_c.base_value(xs)), _bits(scalar))

    def test_base_values_domain(self, bowen_c):
        with pytest.raises(DomainError):
            bowen_c.base_value(np.array([bowen_c.m.a, bowen_c.m.b / 2.0]))
        with pytest.raises(DomainError):
            bowen_c.base_value(bowen_c.m.b / 2.0)
        assert bowen_c.base_value(np.array([])).size == 0

    def test_base_derivative_bit_equal(self, bowen_c):
        xs = np.concatenate([_core_probe_points(bowen_c), *_surgery_points(bowen_c)])
        scalar = [oracles.base_derivative(bowen_c, float(x)) for x in xs]
        assert np.array_equal(_bits(bowen_c.base_derivative(xs)), _bits(scalar))

    def test_base_derivative_exactly_two_at_snapped_endpoints(self, bowen_c):
        cc, b, a = bowen_c.cc, bowen_c.m.b, bowen_c.m.a
        ends = {b, a}
        frontier = ["0"]
        for _ in range(11):
            ends.update(v for w in frontier for v in oracles.interval(cc, w))
            frontier = [w + ch for w in frontier for ch in "01"]
        ends = np.array(sorted(ends))
        for points in (ends, np.clip(ends + 0.5 * _SNAP, b, a), np.clip(ends - 0.5 * _SNAP, b, a)):
            assert bowen_c.base_derivative(points).tolist() == [2.0] * ends.size

    def test_base_derivative_domain(self, bowen_c):
        with pytest.raises(DomainError):
            bowen_c.base_derivative(np.array([bowen_c.m.a, 1.0]))
        with pytest.raises(DomainError):
            bowen_c.base_derivative(np.nan)
        assert bowen_c.base_derivative(np.array([])).size == 0

    def test_core_second_derivative_bit_equal(self, bowen_c):
        for xs in (_core_probe_points(bowen_c), *_surgery_points(bowen_c)):
            scalar = [oracles.core_second_derivative(bowen_c, float(x)) for x in xs]
            assert np.array_equal(_bits(bowen_c.core_second_derivative(xs)), _bits(scalar))
        with pytest.raises(DomainError):
            bowen_c.core_second_derivative(np.array([bowen_c.m.b, -bowen_c.m.b]))

    def test_surgery_points_are_the_checked_points(self, bowen_c):
        gap_points, ends = _surgery_points(bowen_c)
        report = verify_surgery(bowen_c, max_level=10, monotone_grid=200)
        assert gap_points.size == 21 * sum(lv.words_sampled for lv in report.levels)
        assert ends.size == report.endpoint_count
        assert gap_points.size + ends.size == 3_245
        devs = np.abs(2.0 - bowen_c.core_second_derivative(gap_points)).reshape(-1, 21)
        assert max(lv.sup_dev for lv in report.levels) == devs.max()

    def test_spliced_map_bit_equal_on_surgery_grid(self, bowen_c):
        # the monotone grid of verify_surgery, both branches
        xs = np.linspace(1.0 / 20_000, 1.0, 20_000)
        for grid in (xs, -xs[::-1]):
            scalar = [oracles.modified_value(bowen_c, float(x)) for x in grid]
            assert np.array_equal(_bits(bowen_c.modified_value(grid)), _bits(scalar))

    def test_surgery_bit_equal_at_splice_abscissas(self, bowen_c):
        zone = np.array([bowen_c.fb, -bowen_c.m.a])
        scalar = [oracles.surgery(bowen_c, float(x)) for x in zone]
        assert np.array_equal(_bits(bowen_c._surgery(zone)), _bits(scalar))

    def test_spliced_map_domain(self, bowen_c):
        with pytest.raises(SingularityError):
            bowen_c.modified_value(np.array([0.5, 0.0]))
        with pytest.raises(DomainError):
            bowen_c.modified_value(np.array([1.5]))
        with pytest.raises(DomainError):
            bowen_c.second_iterate(-1.5)

    def test_second_iterates_bit_equal_on_core(self, bowen_c):
        side = _core_probe_points(bowen_c)[::7]
        xs = np.concatenate([side, -side])
        scalar = [oracles.second_iterate(bowen_c, float(x)) for x in xs]
        assert np.array_equal(_bits(bowen_c.second_iterate(xs)), _bits(scalar))

    def test_float_in_float_out(self, bowen_c):
        b, a, fb = bowen_c.m.b, bowen_c.m.a, bowen_c.fb
        x = 0.5 * (a + b) + 1e-3
        pairs = [
            (bowen_c.base_value(x), oracles.base_value(bowen_c, x)),
            (bowen_c.base_derivative(x), oracles.base_derivative(bowen_c, x)),
            (bowen_c.base_invert(0.1), oracles.base_invert(bowen_c, 0.1)),
            (bowen_c.invert_right(0.1), oracles.invert_right(bowen_c, 0.1)),
            (bowen_c.invert_right(0.7), oracles.invert_right(bowen_c, 0.7)),
            (bowen_c.modified_value(-0.3), oracles.modified_value(bowen_c, -0.3)),
            (bowen_c.second_iterate(x), oracles.second_iterate(bowen_c, x)),
            (bowen_c.core_second_derivative(x), oracles.core_second_derivative(bowen_c, x)),
            (bowen_c._surgery(fb), oracles.surgery(bowen_c, fb)),
        ]
        for merged, scalar in pairs:
            assert type(merged) is float
            assert merged.hex() == scalar.hex()


# -- the jump: walk levels 0..JUMP-1 read off the level arrays ---------------

JUMP_CONFIGS = ((1.8, 2.0), (1.95, 3.0), (1.7, 2.5))


@functools.lru_cache(maxsize=None)
def _jump_system(c, p):
    return build_base_map(make_construction(LorenzBranchMap.from_coefficient(c), p))


def _scalar_maps(system, points, forward):
    """The oracle walk once per point: B and B' forward, B^{-1} backward,
    and how the walks end, with the walk level of each gap."""
    values, slopes, exits = [], [], set()
    for x in points.tolist():
        kind, *leaf = oracles.walk(system, x, forward)
        exits.add((kind, leaf[1] if kind == "gap" else None))
        if kind == "gap":
            d = leaf[0]
            if forward:
                values.append(oracles.gap_value(d, x))
                slopes.append(oracles.gap_derivative(d, x))
            else:
                values.append(oracles.gap_invert(d, x))
        else:
            values.append(leaf[0])
            slopes.append(2.0 if kind == "endpoint" else leaf[1])
    return values, slopes, exits


def _assert_jump_parity(system, points, forward):
    """The array maps bit-equal to the oracle walk; returns the walks' exits."""
    values, slopes, exits = _scalar_maps(system, points, forward)
    if forward:
        assert np.array_equal(_bits(system.base_value(points)), _bits(values))
        assert np.array_equal(_bits(system.base_derivative(points)), _bits(slopes))
    else:
        assert np.array_equal(_bits(system.base_invert(points)), _bits(values))
    return exits


def _jump_points(system, forward):
    """Every probe-tree endpoint of levels 0..JUMP+1, exactly, at +-_SNAP,
    just past +-_SNAP and +-1 ulp; both ends of every probe gap of those
    levels, exactly and +-1 ulp; b, a and -a; all inside the probe root."""
    cc, b, a = system.cc, system.m.b, system.m.a
    ends, gap_ends, frontier = set(), set(), ["0" if forward else ""]
    for _ in range(JUMP + 2):
        ends.update(v for w in frontier for v in oracles.interval(cc, w))
        gap_ends.update(v for w in frontier for v in oracles.gap(cc, w))
        frontier = [w + ch for w in frontier for ch in "01"]
    ends, gap_ends = np.array(sorted(ends)), np.array(sorted(gap_ends))
    snapped = [ends + side * _SNAP for side in (-1.0, 1.0)]
    points = np.concatenate([
        ends, *snapped, *(np.nextafter(v, side * np.inf) for v, side in zip(snapped, (-1, 1))),
        *(np.nextafter(v, side) for v in (ends, gap_ends) for side in (-np.inf, np.inf)),
        gap_ends, [b, a, -a],
    ])
    lo, hi = (b, a) if forward else (-a, a)
    return np.unique(points[(lo <= points) & (points <= hi)])


@pytest.mark.parametrize("c, p", JUMP_CONFIGS, ids=lambda v: str(v))
class TestJump:
    def test_base_maps_bit_equal_at_jump_points(self, c, p):
        system = _jump_system(c, p)
        for forward in (True, False):
            points = _jump_points(system, forward)
            assert points.size > 2 ** (JUMP + 3)
            exits = _assert_jump_parity(system, points, forward)
            # they snap, walk past the jump, and hit gaps of every jumped level and the next
            assert {("endpoint", None), ("deep", None)} <= exits
            assert {("gap", n) for n in range(JUMP + 1)} <= exits


@settings(max_examples=80, deadline=None)
@given(
    config=st.sampled_from(JUMP_CONFIGS),
    forward=st.booleans(),
    level=st.integers(0, JUMP + 1),
    cell=st.integers(0, 2 ** (JUMP + 1) - 1),
    end=st.sampled_from(["lo", "hi", "gap_lo", "gap_hi"]),
    snaps=st.floats(-3.0, 3.0),
    ulps=st.integers(-3, 3),
)
def test_jump_matches_walk_near_level_endpoints(config, forward, level, cell, end, snaps, ulps):
    """A point a few _SNAP and a few ulps from an endpoint or gap end of a
    probe-tree level the jump reads or enters at."""
    system = _jump_system(*config)
    word = ("0" if forward else "") + (format(cell % 2 ** level, f"0{level}b") if level else "")
    lo, hi = oracles.interval(system.cc, word)
    glo, ghi = oracles.gap(system.cc, word)
    x = {"lo": lo, "hi": hi, "gap_lo": glo, "gap_hi": ghi}[end] + snaps * _SNAP
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    bound = system.m.a
    x = min(max(x, system.m.b if forward else -bound), bound)
    _assert_jump_parity(system, np.array([x]), forward)


def test_walks_build_no_level_past_the_jump():
    # the jump reads only levels the run builds anyway: verify_surgery reaches level 11
    cc = make_construction(LorenzBranchMap.from_coefficient(1.8), 2.0)
    system = build_base_map(cc)
    b, a = system.m.b, system.m.a
    system.base_value(np.linspace(b, a, 1_000))
    system.base_invert(np.linspace(-a, a, 1_000))
    assert len(cc._levels) <= JUMP + 2


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
        _bits(system.base_value(xs)), _bits([oracles.base_value(system, float(x)) for x in xs])
    )
    spliced = np.concatenate([xs, -xs, ys])
    assert np.array_equal(
        _bits(system.modified_value(spliced)),
        _bits([oracles.modified_value(system, float(x)) for x in spliced]),
    )


def _target_probe_points(system):
    """Random points of [-a, a], every target-tree endpoint to level 10,
    points on either side of each endpoint inside and just outside the
    snap, and +-a."""
    cc, a = system.cc, system.m.a
    ends = {-a, a}
    frontier = [""]
    for _ in range(11):
        ends.update(v for w in frontier for v in oracles.interval(cc, w))
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
        err = oracles._integral(t, s) - tau
        if abs(err) < 1e-16:
            break
        state = t, lo, hi
        if err > 0.0:
            hi = t
        else:
            lo = t
        step = t - err / oracles._normalized_slope(t, s)
        t = step if lo < step < hi else 0.5 * (lo + hi)
        repeated = repeated or (t, lo, hi) == state
    return d.source[0] + (d.source[1] - d.source[0]) * t, repeated


class TestInverseArrayKernels:
    def test_gap_diffeo_invert_bit_equal(self, bowen_c):
        vs = _target_probe_points(bowen_c)
        _, _, gap, diffeo = bowen_c._walks(vs, forward=False)
        assert gap.size > 1_000
        scalars = [
            GapDiffeo((s0, s1), (t0, t1))
            for s0, s1, t0, t1 in zip(*diffeo.source, *diffeo.target)
        ]
        full = [_full_budget_invert(d, float(v)) for d, v in zip(scalars, vs[gap])]
        assert sum(repeated for _, repeated in full) > 50  # elements that stop on a repeat
        expected = _bits([x for x, _ in full])
        assert np.array_equal(
            _bits([oracles.gap_invert(d, float(v)) for d, v in zip(scalars, vs[gap])]), expected)
        assert np.array_equal(_bits(diffeo.invert(vs[gap])), expected)

    def test_base_inverts_bit_equal(self, bowen_c):
        vs = _target_probe_points(bowen_c)
        assert vs.size > 6 * 2**11
        scalar = [oracles.base_invert(bowen_c, float(v)) for v in vs]
        assert np.array_equal(_bits(bowen_c.base_invert(vs)), _bits(scalar))

    def test_base_inverts_domain(self, bowen_c):
        a = bowen_c.m.a
        for bad in (a + 1e-9, -a - 1e-9, np.nan):
            with pytest.raises(DomainError):
                bowen_c.base_invert(np.array([0.0, bad]))
            with pytest.raises(DomainError):
                bowen_c.base_invert(bad)
        assert bowen_c.base_invert(np.array([])).size == 0

    def test_invert_rights_bit_equal(self, bowen_c):
        m, fb = bowen_c.m, bowen_c.fb
        top = m.c - 1.0
        shifts = (-1.5, -1.0, 0.0, 0.5, 1.0, 1.5)
        snapped = np.array([v + k * _SNAP for v in (-m.a, m.a, fb) for k in shifts])
        beyond = np.linspace(-0.999, top, 1_001)  # |y| > a on both sides of the core
        ys = np.concatenate([_target_probe_points(bowen_c)[::4], snapped, beyond, [top + 1e-13]])
        assert (np.abs(ys) > m.a).sum() > 500
        scalar = [oracles.invert_right(bowen_c, float(y)) for y in ys]
        assert np.array_equal(_bits(bowen_c.invert_right(ys)), _bits(scalar))
        assert bowen_c.invert_right(np.array([-m.a, m.a, fb])).tolist() == [m.a, -fb, m.b]

    def test_invert_rights_domain(self, bowen_c):
        for bad in (-1.0, bowen_c.m.c - 1.0 + 1e-9):
            with pytest.raises(DomainError):
                bowen_c.invert_right(np.array([0.0, bad]))
            with pytest.raises(DomainError):
                bowen_c.invert_right(bad)
        assert bowen_c.invert_right(np.array([])).size == 0


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
        _bits(system.base_invert(vs)), _bits([oracles.base_invert(system, float(v)) for v in vs])
    )
    ys = np.minimum(np.array(ys), system.m.c - 1.0)
    assert np.array_equal(
        _bits(system.invert_right(ys)),
        _bits([oracles.invert_right(system, float(y)) for y in ys]),
    )
