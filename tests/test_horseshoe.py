import functools
import math

import numpy as np
import oracles
import pytest

from fathorse.bowen import BowenSystem, build_base_map
from fathorse.errors import DomainError, SingularityError, SizeGuardError
from fathorse import horseshoe
from fathorse.fatcantor import make_construction
from fathorse.horseshoe import (
    FIBER_DEPTH_CAP,
    WITNESS_SEARCH_LEVEL,
    WitnessRecord,
    make_poincare_system,
    suspension_volume,
)
from fathorse.lorenz import LorenzBranchMap, branch_value
from oracles import SplitMix64


@functools.lru_cache(maxsize=None)
def _poincare(c):
    cc = make_construction(LorenzBranchMap.from_coefficient(c), 2.0)
    return make_poincare_system(build_base_map(cc))


class TestSectionMap:
    def test_core_corner(self, poincare18, lorenz18):
        got = poincare18.section_map((lorenz18.b, -lorenz18.a))
        assert got[0] == pytest.approx(poincare18.bowen.fb, abs=1e-15)
        assert got[1] == pytest.approx(lorenz18.a, abs=1e-14)

    def test_right_edge(self, poincare18, lorenz18):
        # fiber at y = 0 runs through the surgered inverse
        center = 0.5 * (lorenz18.a + lorenz18.b)
        got = poincare18.section_map((1.0, 0.0))
        assert got[0] == pytest.approx(0.8, abs=1e-15)
        assert got[1] == pytest.approx(-branch_value(lorenz18.c, center), abs=1e-13)

    def test_undefined_on_gamma(self, poincare18):
        with pytest.raises(SingularityError):
            poincare18.section_map((0.0, 0.5))

    def test_strip_geometry(self, poincare18, lorenz18):
        eps = poincare18.epsilon
        assert eps > 0.0
        assert eps == pytest.approx((0.8 + poincare18.bowen.fb) / 2.0, abs=1e-15)
        assert poincare18.strip_halfheight == pytest.approx(
            -poincare18.bowen.fb + eps, abs=1e-15
        )

    def test_images_stay_in_square(self, poincare18):
        i, j = np.meshgrid(np.arange(-40, 41), np.arange(-10, 11), indexing="ij")
        x, y = i / 40, j / 10
        off_gamma = x != 0.0
        xe, ye = poincare18.section_map((x[off_gamma], y[off_gamma]))
        assert np.all(np.abs(xe) <= 1.0) and np.all(np.abs(ye) <= 1.0)
        assert xe.size == 80 * 21

    def test_odd_equivariance(self, poincare18):
        for x, y in ((0.5, 0.3), (0.9, -0.95), (0.1, 0.7), (0.25, 0.0)):
            fx, fy = poincare18.section_map((x, y))
            gx, gy = poincare18.section_map((-x, -y))
            assert (gx, gy) == pytest.approx((-fx, -fy), abs=1e-13)


class TestSecondReturn:
    def test_fixed_point(self, poincare18, lorenz18):
        a = lorenz18.a
        got = poincare18.second_return((a, -a))
        assert got == pytest.approx((a, -a), abs=1e-9)

    def test_corner_identities(self, poincare18, lorenz18):
        a, b = lorenz18.a, lorenz18.b
        assert poincare18.second_return((a, a)) == pytest.approx((a, -b), abs=1e-9)
        assert poincare18.second_return((b, -a)) == pytest.approx((-a, -a), abs=1e-9)

    def test_matches_composition(self, poincare18, lorenz18):
        a, b = lorenz18.a, lorenz18.b
        i, j = (v.ravel() for v in np.meshgrid(np.arange(50), np.arange(100), indexing="ij"))
        worst = 0.0
        for side in (1.0, -1.0):
            x = side * (b + (a - b) * (i + 0.5) / 50)
            y = -a + 2.0 * a * (j + 0.5) / 100
            direct = poincare18.second_return((x, y))
            via = poincare18.section_map(poincare18.section_map((x, y)))
            for d, v in zip(direct, via):
                worst = max(worst, np.max(np.abs(d - v)))
        assert worst < 1e-9

    def test_domain(self, poincare18, lorenz18):
        with pytest.raises(DomainError):
            poincare18.second_return((0.01, 0.0))


def _fiber_word_cover(c, depth):
    """The fiber cover of _poincare(c) as the sign-word recursion over the
    scalar oracle fiber_map builds it: word -> (lo, hi)."""
    return oracles.fiber_cover(_poincare(c), depth)


@functools.lru_cache(maxsize=None)
def _sorted_fiber_cover(c, depth):
    """The word cover's intervals sorted, as the per-cell estimator used them."""
    return sorted(_fiber_word_cover(c, depth).values())


def _count_walks(monkeypatch) -> list[int]:
    """From now on, the size of every BowenSystem._walks call, in order."""
    sizes, walks = [], BowenSystem._walks

    def counted(self, xs, forward):
        sizes.append(xs.size)
        return walks(self, xs, forward)

    monkeypatch.setattr(BowenSystem, "_walks", counted)
    return sizes


class TestFiberMap:
    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_one_walk_for_both_signs(self, c, monkeypatch):
        # a sign per point: a mixed-sign batch is one base-map walk, and
        # second_return adds one for x
        ps = _poincare(c)
        a, b = ps.bowen.m.a, ps.bowen.m.b
        rng = np.random.default_rng(11)
        signs = np.where(rng.random(400) < 0.5, 1.0, -1.0)
        xs, ys = signs * (b + (a - b) * rng.random(400)), -a + 2.0 * a * rng.random(400)
        walks = _count_walks(monkeypatch)
        fy = ps.fiber_map(signs, ys)
        assert walks == [400]
        fx2, fy2 = ps.second_return((xs, ys))
        assert walks == [400, 400, 400]
        scalar = np.array([oracles.fiber_map(ps, s, y) for s, y in zip(signs.tolist(), ys.tolist())])
        assert fy.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()
        assert fy2.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()
        assert np.array_equal(fx2, signs * ps.bowen.base_value(signs * xs))

    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_one_walk_per_fiber_level(self, c, monkeypatch):
        # level 1 maps the ends +-a of level 0 to derived constants, with no
        # walk; every deeper level is one fiber_map call over both signs
        ps = make_poincare_system(_poincare(c).bowen)
        walks = _count_walks(monkeypatch)
        assert ps.fiber_intervals(1) and walks == []
        for depth in range(2, FIBER_DEPTH_CAP + 1):
            ps.fiber_intervals(depth)
            assert len(walks) == depth - 1
        ps.fiber_intervals(FIBER_DEPTH_CAP // 2)
        assert len(walks) == FIBER_DEPTH_CAP - 1

    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_bit_equal_to_scalar_oracle(self, c):
        ps = _poincare(c)
        a = ps.bowen.m.a
        ys = np.concatenate([[-a, a, -ps.bowen.m.b, ps.bowen.m.b, 0.0, a + 1e-13],
                             -a + 2.0 * a * np.random.default_rng(2).random(500)])
        for sign in (1, -1):
            scalar = [oracles.fiber_map(ps, sign, y) for y in ys.tolist()]
            assert ps.fiber_map(sign, ys).view(np.uint64).tolist() == np.array(scalar).view(
                np.uint64).tolist()

    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_inverse_branches_of_the_second_iterate(self, c):
        # why both axes share one depth-N set: the second iterate is odd
        # and the two fiber maps are its inverse branches
        ps = _poincare(c)
        a = ps.bowen.m.a
        ys = -a + 2.0 * a * np.random.default_rng(5).random(20_000)
        f2 = ps.bowen.second_iterate
        assert np.array_equal(f2(-ys), -f2(ys))
        for sign in (1, -1):
            assert np.max(np.abs(f2(ps.fiber_map(sign, ys)) - ys)) <= 1e-12

    def test_domain(self, poincare18):
        a = poincare18.bowen.m.a
        with pytest.raises(DomainError, match="fiber argument"):
            poincare18.fiber_map(1, np.array([0.0, a + 1e-9]))
        with pytest.raises(DomainError, match="fiber argument"):
            poincare18.fiber_map(-1, -a - 1e-9)
        assert poincare18.fiber_map(1, np.array([])).size == 0

    def test_float_in_float_out(self, poincare18, lorenz18):
        a, b = lorenz18.a, lorenz18.b
        for sign in (1, -1):
            got = poincare18.fiber_map(sign, 0.1)
            assert type(got) is float and got == oracles.fiber_map(poincare18, sign, 0.1)
        member = poincare18.membership((a, a), 3)
        assert type(member) is bool and member == oracles.membership(poincare18, (a, a), 3)
        for point in ((b, -a), (-a, 0.1)):
            direct = poincare18.second_return(point)
            assert [type(v) for v in direct] == [float, float]
            assert [type(v) for v in poincare18.section_map(point)] == [float, float]
            arrays = poincare18.second_return(tuple(np.array([v]) for v in point))
            assert [v.tolist() for v in arrays] == [[v] for v in direct]


class TestFiberIntervals:
    def test_depth_zero(self, poincare18, lorenz18):
        a = lorenz18.a
        lo, hi = poincare18.fiber_intervals(0)
        assert (lo.tolist(), hi.tolist()) == ([-a], [a])

    def test_depth_one(self, poincare18, lorenz18):
        a, b = lorenz18.a, lorenz18.b
        lo, hi = poincare18.fiber_intervals(1)
        assert (lo[0], hi[0]) == pytest.approx((-a, -b), abs=1e-9)
        assert (lo[1], hi[1]) == pytest.approx((b, a), abs=1e-9)
        assert np.sum(hi - lo) == pytest.approx(2.0 * a - 2.0 * b, abs=1e-9)

    def test_disjoint(self, poincare18):
        lo, hi = poincare18.fiber_intervals(5)
        assert np.all(lo < hi) and np.all(hi[:-1] < lo[1:])

    def test_matches_interval_tree(self, poincare18, construction18):
        worst = max(
            float(np.max(np.abs(f - t)))
            for f, t in zip(poincare18.fiber_intervals(6), construction18.level(6))
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_bit_equal_to_word_cover(self, c):
        # the arrays are the word cover in word order, which is its sorted order
        ps = make_poincare_system(_poincare(c).bowen)
        for depth in range(FIBER_DEPTH_CAP + 1):
            words = _fiber_word_cover(c, depth)
            in_word_order = [words[w] for w in sorted(words)]
            assert in_word_order == _sorted_fiber_cover(c, depth)
            expected = np.array(in_word_order).T
            got = np.array(ps.fiber_intervals(depth))
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_read_only(self, poincare18):
        lo, _ = poincare18.fiber_intervals(2)
        with pytest.raises(ValueError):
            lo[0] = 0.0

    def test_depth_guard(self, poincare18):
        with pytest.raises(SizeGuardError):
            poincare18.fiber_intervals(13)
        with pytest.raises(DomainError):
            poincare18.fiber_intervals(-1)


class TestMembership:
    def test_corner_member_all_depths(self, poincare18, lorenz18):
        a = lorenz18.a
        for depth in range(9):
            assert poincare18.membership((a, a), depth)

    def test_gap_center_not_member(self, poincare18, lorenz18):
        assert not poincare18.membership((lorenz18.a, 0.0), 1)

    def test_orbit_escape(self, poincare18, bowen18):
        # the core-gap preimage lands on 0 after one doubling step, so the
        # x-condition fails once the second step is requested
        x = bowen18.base_invert(0.0)
        y = poincare18.bowen.m.a
        assert poincare18.membership((x, y), 1)
        assert not poincare18.membership((x, y), 2)

    def test_nesting(self, poincare18, lorenz18):
        a = lorenz18.a
        grid = np.array([-a + 2.0 * a * (i + 0.5) / 60 for i in range(60)])
        x, y = (v.ravel() for v in np.meshgrid(grid, grid[::3], indexing="ij"))
        for depth in range(5):
            deeper = poincare18.membership((x, y), depth + 1)
            assert np.all(poincare18.membership((x, y), depth)[deeper])

    def test_domain(self, poincare18):
        with pytest.raises(DomainError):
            poincare18.membership((0.5, 0.0), 2)
        for point in ((math.nan, 0.0), (poincare18.bowen.m.a, math.nan)):
            with pytest.raises(DomainError, match="outside the core square"):
                poincare18.membership(point, 2)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_array_domain(self, poincare18, axis, where):
        # one point outside the core square anywhere in the arrays
        a = poincare18.bowen.m.a
        point = [np.linspace(-a, a, 6), np.linspace(a, -a, 6)]
        point[axis][where] = 1.01 * a * (1.0 if where else -1.0)
        with pytest.raises(DomainError, match="outside the core square"):
            poincare18.membership(tuple(point), 2)

    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_array_matches_scalar_at_every_depth(self, c):
        ps = _poincare(c)
        a, b = ps.bowen.m.a, ps.bowen.m.b
        rng = np.random.default_rng(3)
        xs = np.concatenate([[a, -a, b, -b, 0.5 * b], -a + 2.0 * a * rng.random(250)])
        ys = np.concatenate([[a, -a, -b, b, 0.0], -a + 2.0 * a * rng.random(250)])
        for depth in range(11):
            scalar = [oracles.membership(ps, (x, y), depth)
                      for x, y in zip(xs.tolist(), ys.tolist())]
            assert ps.membership((xs, ys), depth).tolist() == scalar
        assert ps.membership((xs[:0], ys[:0]), 4).size == 0


class TestMeasureEstimate:
    def test_depth_zero_exact(self, poincare18, lorenz18):
        est = poincare18.measure_estimate(0, 1e-2)
        assert est.estimated_area == pytest.approx((2.0 * lorenz18.a) ** 2, abs=1e-14)
        assert est.exact_level_area == pytest.approx((2.0 * lorenz18.a) ** 2, abs=1e-14)

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_within_envelope(self, poincare18, depth):
        est = poincare18.measure_estimate(depth, 1e-3)
        assert abs(est.estimated_area - est.exact_level_area) <= est.envelope
        assert est.estimated_area > 0.0

    def test_guards(self, poincare18):
        with pytest.raises(SizeGuardError):
            poincare18.measure_estimate(11, 1e-3)
        with pytest.raises(SizeGuardError):
            poincare18.measure_estimate(3, 1e-6)
        with pytest.raises(SizeGuardError, match="resolution nan below the floor"):
            poincare18.measure_estimate(2, math.nan)

    def test_infinite_resolution(self, poincare18):
        # an infinite cell would leave a grid of no cells
        with pytest.raises(DomainError, match="resolution must be finite, got inf"):
            poincare18.measure_estimate(2, math.inf)


def _scalar_grid(ps, resolution):
    """Cell size and centers as the per-cell estimator computed them."""
    a = ps.bowen.m.a
    ncells = int(math.ceil(2.0 * a / resolution))
    cell = 2.0 * a / ncells
    return cell, [-a + (i + 0.5) * cell for i in range(ncells)]


def _scalar_y_condition(ps, y, depth):
    """Bisection over the sorted oracle fiber cover, as the per-cell estimator did."""
    return oracles.y_condition(ps, y, depth)


class TestExitTimes:
    def test_counts_match_scalar_conditions_at_every_depth(self, poincare18):
        cell, centers = _scalar_grid(poincare18, 1e-3)
        x_counts = [sum(oracles.x_condition(poincare18, x, d) for x in centers)
                    for d in range(11)]
        for depth in range(11):
            y_count = sum(_scalar_y_condition(poincare18, y, depth) for y in centers)
            est = poincare18.measure_estimate(depth, 1e-3)
            assert est.cell == cell
            assert est.estimated_area == x_counts[depth] * y_count * cell * cell
        grid = poincare18.exit_times(10, 1e-3)
        assert grid.steps == 10 and grid.centers.tolist() == centers
        assert [np.count_nonzero(grid.exits >= d) for d in range(11)] == x_counts

    def test_coarse_figure_members_unchanged(self, poincare18):
        # the runner's horseshoe figure: depth N = 6 on a 160-cell grid
        depth = 6
        resolution = 2.0 * poincare18.bowen.m.a / 160
        _, centers = _scalar_grid(poincare18, resolution)
        expected = [
            [x, y]
            for x in centers
            if oracles.x_condition(poincare18, x, depth)
            for y in centers
            if _scalar_y_condition(poincare18, y, depth)
        ]
        xs, ys = poincare18.member_centers(depth, resolution)
        assert [[x, y] for x in xs.tolist() for y in ys.tolist()] == expected
        assert all(poincare18.membership((x, y), depth) for x, y in expected[::97])

    def test_cached_per_resolution(self, poincare18):
        system = make_poincare_system(poincare18.bowen)
        fine = system.exit_times(3, 1e-3)
        coarse = system.exit_times(2, 1e-2)
        assert (fine.steps, coarse.steps) == (3, 2)
        assert coarse.centers.size < fine.centers.size
        # a deeper request continues the same orbits; a shallower one reuses them
        assert system.exit_times(8, 1e-3) is fine and fine.steps == 8
        assert system.exit_times(5, 1e-3) is fine and fine.steps == 8
        shared = poincare18.exit_times(8, 1e-3)  # possibly advanced further
        assert fine.exits.tolist() == np.minimum(shared.exits, 8).tolist()

    def test_in_set_matches_scalar_conditions(self, poincare18):
        # the cover path against the oracle y-test, the orbit path past the
        # cap against the oracle x-test
        a = poincare18.bowen.m.a
        ys = np.concatenate([[a, -a], np.linspace(-a, a, 301)])
        assert poincare18._in_set(ys, 4).tolist() == [
            _scalar_y_condition(poincare18, y, 4) for y in ys.tolist()]
        deep = FIBER_DEPTH_CAP + 2
        flags = poincare18._in_set(ys, deep)
        assert flags[:2].all()
        assert flags.tolist() == [oracles.x_condition(poincare18, y, deep) for y in ys.tolist()]

    @pytest.mark.parametrize("c, p, depth, resolution", [
        (1.8, 2.0, 6, 1e-3), (1.8, 2.0, 10, 1e-4), (1.95, 2.0, 10, 1e-4), (1.7, 2.5, 10, 1e-4)])
    def test_cover_and_orbits_give_one_set(self, c, p, depth, resolution):
        # the predicate's two paths agree at every grid center and depth:
        # the grid's exit times are the orbit path
        lorenz = LorenzBranchMap.from_coefficient(c)
        ps = make_poincare_system(build_base_map(make_construction(lorenz, p)))
        grid = ps.exit_times(depth, resolution)
        for d in range(min(depth, FIBER_DEPTH_CAP) + 1):
            assert np.array_equal(ps._in_set(grid.centers, d), grid.exits >= d)


def _scalar_non_member(ps, x, y, depth):
    """The scalar membership oracle up to the fiber cover's cap; past it the
    x-orbit or the y-orbit exits, as both axes share the depth-N set."""
    if depth <= FIBER_DEPTH_CAP:
        return not oracles.membership(ps, (x, y), depth)
    return not (oracles.x_condition(ps, x, depth) and oracles.x_condition(ps, y, depth))


def _scalar_samples(ps, sample_count, seed, depth):
    """The (x, y) samples of the witness, drawn one at a time from the
    stream and placed by the word descent."""
    cc = ps.bowen.cc
    rng = SplitMix64(seed)
    samples = []
    for _ in range(sample_count):
        wx, wy = oracles.bits(rng, depth), oracles.bits(rng, depth)
        ux, uy = rng.random(), rng.random()
        xlo, xhi = oracles.interval(cc, wx)
        ylo, yhi = oracles.interval(cc, wy)
        samples.append((xlo + ux * (xhi - xlo), ylo + uy * (yhi - ylo)))
    return samples


def _scalar_witness(ps, sample_count, eps, seed, depth):
    """vertical_gap_witness as a plain loop over scalar membership: the
    oracle of the array witness."""
    cc = ps.bowen.cc
    records = []
    for x, y in _scalar_samples(ps, sample_count, seed, depth):
        if not oracles.membership(ps, (x, y), depth):
            records.append(WitnessRecord(x, y, None, None, "sample not a member"))
            continue
        word = ""
        for level in range(WITNESS_SEARCH_LEVEL + 1):
            glo, ghi = oracles.gap(cc, word)
            if y < glo:
                dist = glo - y
                inside = glo + 0.5 * min(ghi - glo, eps - dist) if dist < eps else None
            elif y > ghi:
                dist = y - ghi
                inside = ghi - 0.5 * min(ghi - glo, eps - dist) if dist < eps else None
            else:
                inside = min(max(y, glo + 0.25 * (ghi - glo)), ghi - 0.25 * (ghi - glo))
            if inside is not None and _scalar_non_member(ps, x, inside, max(depth, level + 1)):
                records.append(WitnessRecord(x, y, inside, level, None))
                break
            word += "0" if y > ghi else "1"
        else:
            records.append(WitnessRecord(x, y, None, None, "no gap within eps"))
    return tuple(records)


def _failures(records):
    return [rec for rec in records if rec.failure is not None]


def _deepest(records):
    return max((rec.gap_level for rec in records if rec.failure is None), default=0)


class TestWitness:
    @pytest.mark.parametrize("c", [1.8, 1.95])
    @pytest.mark.parametrize("depth", [0, 2, 6, 10])
    def test_matches_scalar_oracle(self, c, depth):
        ps = _poincare(c)
        for eps in (ps.bowen.cc.gaps.length(3) / 16.0, 1e-4):
            for seed in (1, 7):
                records = ps.vertical_gap_witness(100, eps, seed=seed, depth=depth)
                assert repr(records) == repr(_scalar_witness(ps, 100, eps, seed, depth))

    def test_no_samples(self, poincare18):
        records = poincare18.vertical_gap_witness(0, 1e-3, seed=1)
        assert records == ()
        assert records == _scalar_witness(poincare18, 0, 1e-3, 1, 6)

    @pytest.mark.parametrize("search_level", [2, WITNESS_SEARCH_LEVEL])
    def test_one_record_per_sample_in_order(self, poincare18, monkeypatch, search_level):
        # a search cut at level 2 leaves some samples with no gap within eps;
        # it also caps membership at depth 3, so the samples are drawn at depth 2
        monkeypatch.setattr(horseshoe, "WITNESS_SEARCH_LEVEL", search_level)
        eps = poincare18.bowen.cc.gaps.length(3) / 16.0
        records = poincare18.vertical_gap_witness(60, eps, seed=5, depth=2)
        assert [(rec.x, rec.y) for rec in records] == _scalar_samples(poincare18, 60, 5, 2)
        failed = [rec.failure is not None for rec in records]
        assert [rec.witness_y is None for rec in records] == failed
        assert [rec.gap_level is None for rec in records] == failed
        assert any(failed) == (search_level == 2) and not all(failed)

    @pytest.mark.parametrize("depth", range(FIBER_DEPTH_CAP + 1))
    def test_cells_are_the_oracle_word_cells(self, poincare18, depth):
        # each cell is the top depth bits of one output, which oracles.bits
        # spells as a word that the scalar samples place by word descent
        records = poincare18.vertical_gap_witness(40, 1e-3, seed=depth + 3, depth=depth)
        assert [(rec.x, rec.y) for rec in records] == _scalar_samples(
            poincare18, 40, depth + 3, depth)

    def test_small_run_finds_gaps(self, poincare18):
        eps = poincare18.bowen.cc.gaps.length(3) / 16.0
        records = poincare18.vertical_gap_witness(50, eps, seed=42, depth=6)
        assert not _failures(records)
        assert all(rec.witness_y is not None for rec in records)
        assert all(abs(rec.witness_y - rec.y) < eps for rec in records)

    def test_wide_eps_uses_shallow_gap(self, poincare18):
        # eps just under the gap scale: the top-level gap is within reach
        eps = poincare18.bowen.m.b * 0.99
        records = poincare18.vertical_gap_witness(20, eps, seed=3, depth=4)
        assert not _failures(records)
        assert _deepest(records) <= 3

    def test_eps_precondition(self, poincare18):
        with pytest.raises(DomainError):
            poincare18.vertical_gap_witness(5, poincare18.bowen.m.b, seed=1)
        # invalid input, not a failed check with "no gap within eps" records
        for eps in (0.0, -0.01, math.nan):
            with pytest.raises(DomainError):
                poincare18.vertical_gap_witness(10, eps, seed=1, depth=2)

    def test_size_preconditions(self, poincare18, monkeypatch):
        # a negative count would report no failures over no samples
        with pytest.raises(DomainError, match="sample count"):
            poincare18.vertical_gap_witness(-5, 1e-3, seed=1)
        # the depth is refused before the first sample is drawn, also with no samples
        monkeypatch.setattr(horseshoe, "splitmix64", None)
        for count in (0, 5):
            with pytest.raises(DomainError, match="witness depth"):
                poincare18.vertical_gap_witness(count, 1e-3, seed=1, depth=-1)
            for depth in (FIBER_DEPTH_CAP + 1, 20):
                with pytest.raises(SizeGuardError, match="witness depth"):
                    poincare18.vertical_gap_witness(count, 1e-3, seed=1, depth=depth)

    def test_seed_taken_mod_two_to_the_64(self, poincare18):
        # the config admits negative seeds; -1 is 2^64 - 1 mod 2^64
        eps = poincare18.bowen.cc.gaps.length(3) / 16.0
        records = poincare18.vertical_gap_witness(100, eps, seed=-1)
        assert repr(records) == repr(poincare18.vertical_gap_witness(100, eps, seed=2 ** 64 - 1))

    def test_gap_point_trivially_non_member(self, poincare18, construction18):
        glo, ghi = oracles.gap(construction18, "0")
        assert not poincare18.membership((poincare18.bowen.m.a, 0.5 * (glo + ghi)), 2)

    @pytest.mark.parametrize("depth", [2, 6, 10])
    def test_witnesses_are_scalar_non_members(self, poincare18, depth):
        # the search tests x on the fiber cover; the scalar membership
        # oracle runs the x-orbit
        eps = poincare18.bowen.cc.gaps.length(3) / 16.0
        for seed in (1, 2, 3):
            records = poincare18.vertical_gap_witness(100, eps, seed=seed, depth=depth)
            assert not _failures(records)
            assert len(records) == 100
            for rec in records:
                deep = max(depth, rec.gap_level + 1)
                assert not oracles.membership(poincare18, (rec.x, rec.witness_y), deep)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-9])
    def test_gaps_past_the_fiber_cap(self, eps):
        # below eps = 1e-5 the nearest gaps lie deeper than FIBER_DEPTH_CAP,
        # where membership runs the exit times of both coordinates
        deepest = 0
        for c in (1.7, 1.8, 1.95):
            ps = _poincare(c)
            records = ps.vertical_gap_witness(20, eps, seed=1, depth=4)
            assert repr(records) == repr(_scalar_witness(ps, 20, eps, 1, 4))
            assert not _failures(records) and len(records) == 20
            for rec in records:
                assert _scalar_non_member(ps, rec.x, rec.witness_y, max(4, rec.gap_level + 1))
            deepest = max(deepest, _deepest(records))
        assert (deepest > FIBER_DEPTH_CAP) == (eps < 1e-5)

    def test_deterministic_given_seed(self, poincare18):
        eps = poincare18.bowen.cc.gaps.length(3) / 16.0
        r1 = poincare18.vertical_gap_witness(10, eps, seed=9, depth=5)
        r2 = poincare18.vertical_gap_witness(10, eps, seed=9, depth=5)
        assert r1 == r2


H = 1e-7  # the central-difference step of fiber_contraction_report


def _midpoints(half, samples):
    """Midpoints of `samples` equal cells of [-half, half]."""
    return [-half + (2.0 * half) * (i + 0.5) / samples for i in range(samples)]


def _scalar_max_slope(f, ys):
    """Largest |f(y + H) - f(y - H)| / 2H over ys, point by point, or 0.0."""
    return max((abs(f(y + H) - f(y - H)) / (2.0 * H) for y in ys), default=0.0)


def _strip_max_slope(ps, samples):
    """Largest single-return fiber slope on the strip, which the run does not
    report, with all samples through one array invert_right call."""
    ys = np.array(_midpoints(ps.strip_halfheight, samples))
    up, down = ps.bowen.invert_right(np.concatenate([ys + H, ys - H])).reshape(2, -1)
    return float(np.max(np.abs(up - down) / (2.0 * H), initial=0.0))


class TestContraction:
    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    @pytest.mark.parametrize("samples", [1, 7, 400])
    def test_matches_scalar_oracle(self, c, samples):
        ps = _poincare(c)
        core = _scalar_max_slope(functools.partial(oracles.fiber_map, ps, -1),
                                 _midpoints(ps.bowen.m.a, samples))
        assert ps.fiber_contraction_report(samples) == core
        strip = _scalar_max_slope(functools.partial(oracles.invert_right, ps.bowen),
                                  _midpoints(ps.strip_halfheight, samples))
        assert _strip_max_slope(ps, samples) == strip

    def test_no_samples(self, poincare18):
        assert poincare18.fiber_contraction_report(0) == 0.0
        # a negative count is not a passing bound over no samples
        with pytest.raises(DomainError, match="sample count"):
            poincare18.fiber_contraction_report(-3)

    def test_two_step_factor_below_half(self, poincare18):
        assert poincare18.fiber_contraction_report(500) <= 0.5 + 1e-6

    def test_single_step_strip_bound(self, poincare18, lorenz18):
        # the surgered right branch dips below slope 1 near -f(b), so the
        # single-return fiber slope peaks near f'(b)/2 (above 1); only the
        # two-step fiber is a uniform contraction
        peak = oracles.branch_derivative(lorenz18.c, lorenz18.b) / 2.0
        assert 1.0 < _strip_max_slope(poincare18, 2_000) <= peak + 1e-6


class TestSuspension:
    def test_product(self):
        assert suspension_volume(0.00671, 0.1) == pytest.approx(6.71e-4, abs=1e-12)

    def test_zero_delta(self):
        assert suspension_volume(0.5, 0.0) == 0.0

    def test_homogeneity(self):
        assert suspension_volume(2.0 * 0.013, 0.1) == pytest.approx(
            2.0 * suspension_volume(0.013, 0.1), abs=1e-15
        )

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            suspension_volume(-1.0, 0.1)
        with pytest.raises(DomainError):
            suspension_volume(0.1, -0.5)
