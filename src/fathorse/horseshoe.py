"""Product horseshoe of the spliced map's return dynamics on the section.

The section map expands x through the spliced interval map and moves y by
the inverse of its right branch (oriented by the sign of x).  Its second
iterate on the core square [-a, a]^2 has two fiber contractions, one per
sign of x, and these are exactly the inverse branches of the base map and
its odd reflection: composing N of them reproduces the level-N intervals
of the Cantor construction.  The invariant set is therefore the product
of two fat Cantor sets and its area is the square of the limit measure.

Because the spliced map is odd and the fiber maps invert its second
iterate, both axes share one depth-N set: the points whose first N
second-return iterates stay in [-a, -b] u [b, a], which is also the
depth-N fiber cover.  Membership at depth N asks whether x and y both lie
in it, through one predicate that reads the cover's level arrays up to
FIBER_DEPTH_CAP and runs the points' exit times past it.  The grid
estimator's x axis keeps the forward orbits instead: it records each cell
center's exit time in one vectorized pass per resolution that advances
only as far as the deepest depth asked for, so the x-condition at depth N
is exit >= N for every such N at once, and the run checks that the
forward second iterate reproduces the tree measure.  fiber_map takes the
sign of x per point, so second_return and each new level of
fiber_intervals make one fiber_map call: one base-map walk over both
signs.  Each map has one entry point, which takes a float or an array
and runs the array body of the base-map kernels; the per-point code
(fiber_map, the x-condition, membership) is kept in tests/oracles.py as
the oracle of the parity tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bowen import BowenSystem, _like, _points
from .errors import DomainError, SingularityError, SizeGuardError, check_depth

__all__ = [
    "PoincareSystem",
    "HorseshoeEstimate",
    "WitnessRecord",
    "make_poincare_system",
    "suspension_volume",
]

FIBER_DEPTH_CAP = 12
MEASURE_DEPTH_CAP = 10
MEASURE_RESOLUTION_FLOOR = 1e-5
WITNESS_SEARCH_LEVEL = 40  # deepest gap level the witness search descends to


@dataclass
class PoincareSystem:
    """Section map state: strip geometry and cached fiber covers."""

    bowen: BowenSystem
    epsilon: float = field(init=False)
    strip_halfheight: float = field(init=False)
    _fiber_levels: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)
    _exit_cache: dict[float, "ExitTimes"] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        fb = self.bowen.fb
        self.epsilon = (self.bowen.m.c - 1.0 + fb) / 2.0
        self.strip_halfheight = h = -fb + self.epsilon
        # strip-image ends, and hook extension slopes <= 1/4 by the
        # fixed-point-free inequality
        self._g_bot, self._g_top = self.bowen.invert_right(np.array([-h, h])).tolist()
        self._mu_top = 0.25 * (1.0 - self._g_top) / (1.0 - h)
        self._mu_bot = 0.25 * (self._g_bot + 1.0) / (1.0 - h)
        self._fiber_levels = [self.bowen.cc.level(0)]

    # -- section map -------------------------------------------------------

    def section_map(self, point):
        """One return: x through the spliced map, y through the fiber.

        `point` is (x, y) with floats, or with equal-length arrays for
        which the images are arrays.  In the frame of positive x the fiber
        is the right-branch inverse on the strip |y| <= y_cap and an
        affine contraction into the hooks beyond it; over the inner
        rectangles |x| < b it is squeezed toward the strip-image midline,
        so the images taper into the hook caps and stay inside the square.
        """
        x, y = point
        xs, ys = _points(x), _points(y)
        if (xs == 0.0).any():
            raise SingularityError("section map undefined on the line x = 0")
        _check_square(xs, ys, 1.0, "section square")
        sign = np.where(xs > 0.0, 1.0, -1.0)
        us, y_cap, b = sign * ys, self.strip_halfheight, self.bowen.m.b
        g = np.where(us > y_cap, self._g_top + self._mu_top * (us - y_cap),
                     self._g_bot + self._mu_bot * (us + y_cap))
        strip = np.abs(us) <= y_cap
        if strip.any():
            g[strip] = self.bowen.invert_right(us[strip])
        inner = np.abs(xs) < b
        mid = 0.5 * (self._g_top + self._g_bot)
        g[inner] = mid + np.sqrt(np.abs(xs[inner]) / b) * (g[inner] - mid)
        return _like(x, self.bowen.modified_value(xs)), _like(x, sign * g)

    def second_return(self, point):
        """Closed-form second return on [-a, -b] u [b, a] x [-a, a], for a
        point of floats or of equal-length arrays: x through the base map
        and its odd reflection, y through one fiber_map call with each
        point's sign of x, so a call makes two base-map walks."""
        x, y = point
        xs, ys = _points(x), _points(y)
        a, b = self.bowen.m.a, self.bowen.m.b
        _check_square(xs, ys, a, "core domain", inner=b)
        sign = np.where(xs > 0.0, 1.0, -1.0)
        return _like(x, sign * self.bowen.base_value(sign * xs)), _like(x, self.fiber_map(sign, ys))

    def fiber_map(self, sign, y):
        """The second-return fiber contraction for the sign of x, on a float
        or an array y: `sign` is +1 or -1 for every point, or an array of
        one sign per point, so both contractions run in one call and one
        base-map walk."""
        a = self.bowen.m.a
        ys, s = _points(y), np.asarray(sign, dtype=float)
        bad = ~(np.abs(ys) <= a + 1e-12)  # also rejects NaN
        if bad.any():
            raise DomainError(f"fiber argument {ys[bad][0]} outside [-a, a]")
        if s.ndim and s.size != ys.size or not (np.abs(s) == 1.0).all():  # also rejects NaN
            raise DomainError(
                f"sign must be +1 or -1, once or per point; got {sign!r} for {ys.size} points")
        inv = self.bowen.invert_right
        return _like(y, -s * inv(-inv(s * np.clip(ys, -a, a))))

    # -- product structure ---------------------------------------------------

    def fiber_intervals(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Images of [-a, a] under the 2^depth compositions of fiber maps,
        as read-only (lo, hi) arrays ordered left to right like the tree's.

        Level d + 1 is fiber_map(+1, .) of level d followed by
        fiber_map(-1, .): +1 lands in [-a, -b] and -1 in [b, a], and both
        maps preserve order, so every level is sorted as built.  One
        fiber_map call maps the level's lo and hi arrays under both signs.
        """
        check_depth(depth, FIBER_DEPTH_CAP, "fiber depth")
        levels = self._fiber_levels
        while len(levels) <= depth:
            ends = np.tile(np.concatenate(levels[-1]), 2)  # (lo, hi) for +1, then for -1
            images = self.fiber_map(np.repeat([1.0, -1.0], ends.size // 2), ends)
            lo, hi = images.reshape(2, 2, -1).swapaxes(0, 1).reshape(2, -1)
            lo.flags.writeable = hi.flags.writeable = False
            levels.append((lo, hi))
        return levels[depth]

    def _in_set(self, values: np.ndarray, depth: int) -> np.ndarray:
        """Whether each value lies in the depth-N set of either axis: the
        fiber cover's level arrays up to FIBER_DEPTH_CAP, exit times past it."""
        if depth > FIBER_DEPTH_CAP:
            return ExitTimes(values).advance(self.bowen, depth).exits >= depth
        los, his = self.fiber_intervals(depth)
        i = np.searchsorted(los, values, side="right") - 1
        return (i >= 0) & (values <= his[np.maximum(i, 0)])

    def exit_times(self, depth: int, resolution: float) -> "ExitTimes":
        """The grid's exit times, advanced to at least this depth.

        One grid per resolution is cached; a deeper request continues the
        surviving orbits from where the last one stopped, so the depths
        0..N together cost one pass of N second returns.
        """
        check_depth(depth, MEASURE_DEPTH_CAP, "measure depth")
        if not resolution >= MEASURE_RESOLUTION_FLOOR:  # also rejects NaN
            raise SizeGuardError(f"resolution {resolution} below the floor {MEASURE_RESOLUTION_FLOOR}")
        if resolution == math.inf:  # would give a grid of no cells
            raise DomainError(f"resolution must be finite, got {resolution}")
        grid = self._exit_cache.get(resolution)
        if grid is None:
            a = self.bowen.m.a
            ncells = int(math.ceil(2.0 * a / resolution))
            cell = 2.0 * a / ncells
            grid = ExitTimes(-a + (np.arange(ncells) + 0.5) * cell, cell)
            self._exit_cache[resolution] = grid
        return grid.advance(self.bowen, depth)

    def membership(self, point, depth: int):
        """Finite-depth horseshoe membership on the core square.

        `point` is (x, y) with floats, for which the result is a bool, or
        with equal-length arrays, for which it is a boolean array; a float
        point runs as one-element arrays.  Both coordinates are tested in
        one _in_set call, since x and y share the depth-N set.
        """
        check_depth(depth, WITNESS_SEARCH_LEVEL + 1, "membership depth")
        x, y = point
        xs, ys = _points(x), _points(y)
        _check_square(xs, ys, self.bowen.m.a, "core square")
        return _like(x, self._in_set(np.concatenate([xs, ys]), depth).reshape(2, -1).all(axis=0))

    def member_centers(self, depth: int, resolution: float) -> tuple[np.ndarray, np.ndarray]:
        """Grid centers passing the depth-N x-condition and y-condition.

        The member cells of the grid are their product; both axes share
        the centers of measure_estimate at the same resolution.  The x
        axis reads the grid's exit times, the y axis the depth-N set.
        """
        grid = self.exit_times(depth, resolution)
        centers = grid.centers
        return centers[grid.exits >= depth], centers[self._in_set(centers, depth)]

    def measure_estimate(self, depth: int, resolution: float) -> "HorseshoeEstimate":
        """Cell-center grid estimate of the depth-N horseshoe area.

        The membership predicate factors into per-axis conditions, so the
        member-cell count over the grid is the product of the per-axis
        counts: the centers whose exit time is at least N, from the
        per-resolution exit-time cache (one orbit pass serves every
        depth), times the centers inside the depth-N fiber cover.  The
        envelope 4 h 2^N L_N bounds the cells straddling the 2^{N+1}
        interval endpoints per axis.
        """
        cell = self.exit_times(depth, resolution).cell
        xs, ys = self.member_centers(depth, resolution)
        level = self.bowen.cc.level_measure(depth)
        return HorseshoeEstimate(
            depth=depth,
            cell=cell,
            estimated_area=xs.size * ys.size * cell * cell,
            exact_level_area=level * level,
            envelope=4.0 * cell * (2.0 ** depth) * level,
        )

    # -- witnesses ------------------------------------------------------------

    def vertical_gap_witness(
        self, sample_count: int, eps: float, seed: int, depth: int = 6
    ) -> tuple["WitnessRecord", ...]:
        """Certify that no vertical eps-segment lies in the horseshoe.

        Members of the depth-N set are sampled from the product cover with
        the seeded splitmix64 stream, drawn as one array of four outputs
        per sample, placed in their cells of the depth-N level arrays and
        then tested together by one array membership call.  For
        every member at once, the interval tree under y is descended level
        by level until a removed gap sits within eps, and the nudged gap
        point is tested as a non-member by membership at the gap's own
        depth if that exceeds the sampling depth (the failure certificate
        concerns the full intersection, whose covers shrink with depth).
        One record per sample, in sample order: a non-member sample, or one
        no level certifies, has its failure set and no witness.
        """
        b = self.bowen.m.b
        if not 0.0 < eps < b:  # also rejects NaN
            raise DomainError(f"eps = {eps} must lie between 0 and the gap scale b = {b}")
        check_depth(sample_count, math.inf, "sample count")
        check_depth(depth, FIBER_DEPTH_CAP, "witness depth")
        cc = self.bowen.cc
        # four outputs per sample: x cell, y cell, x offset, y offset; a cell
        # is word_cell of the word spelled by the top depth bits of its output
        words = splitmix64(seed, 4 * sample_count).reshape(-1, 4)
        cells = 2 ** depth - 1 - (words[:, :2] >> (64 - depth))
        offsets = (words[:, 2:] >> 11) * 2.0 ** -53
        lo, hi = cc.level(depth)
        xs, ys = (lo[cells] + offsets * (hi[cells] - lo[cells])).T
        member = self.membership((xs, ys), depth)

        witness_y, gap_level = np.empty(ys.size), np.full(ys.size, -1)
        pending = np.flatnonzero(member)  # members still descending
        lo, hi = np.full(pending.size, -cc.half_width), np.full(pending.size, cc.half_width)
        for level in range(WITNESS_SEARCH_LEVEL + 1):
            if not pending.size:
                break
            y = ys[pending]
            glo, ghi = cc._gap_from(lo, hi, level)
            below, above = y < glo, y > ghi
            dist = np.where(below, glo - y, y - ghi)
            nudge, quarter = 0.5 * np.minimum(ghi - glo, eps - dist), 0.25 * (ghi - glo)
            clamped = np.minimum(np.maximum(y, glo + quarter), ghi - quarter)
            inside = np.where(below, glo + nudge, np.where(above, ghi - nudge, clamped))
            near = np.flatnonzero(~(below | above) | (dist < eps))
            if near.size:
                out = ~self.membership((xs[pending[near]], inside[near]), max(depth, level + 1))
                hit = near[out]
                witness_y[pending[hit]], gap_level[pending[hit]] = inside[hit], level
                go = np.ones(pending.size, dtype=bool)
                go[hit] = False
                pending, lo, hi, glo, ghi, above = (
                    v[go] for v in (pending, lo, hi, glo, ghi, above))
            lo, hi = np.where(above, ghi, lo), np.where(above, hi, glo)

        records = []
        for x, y, inside, wy, level in zip(xs.tolist(), ys.tolist(), member.tolist(),
                                           witness_y.tolist(), gap_level.tolist()):
            if not inside:
                records.append(WitnessRecord(x, y, None, None, "sample not a member"))
            elif level < 0:
                records.append(WitnessRecord(x, y, None, None, "no gap within eps"))
            else:
                records.append(WitnessRecord(x, y, wy, level, None))
        return tuple(records)

    def fiber_contraction_report(self, samples: int = 2000) -> float:
        """Sampled two-step contraction factor of the fiber on the core
        (provably <= 1/2): the largest central difference at the sample
        midpoints, all samples through one fiber_map(-1, .) call.  It is
        bit-equal to the per-point difference of the oracles in
        tests/oracles.py, and 0.0 with no samples.
        """
        check_depth(samples, math.inf, "sample count")
        a, h = self.bowen.m.a, 1e-7
        ys = -a + (2.0 * a) * (np.arange(samples) + 0.5) / samples
        up, down = self.fiber_map(-1, np.concatenate([ys + h, ys - h])).reshape(2, -1)
        return float(np.max(np.abs(up - down) / (2.0 * h), initial=0.0))


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first count outputs of the splitmix64 stream of a seed (taken
    mod 2^64), as uint64.  The stream is counter-based: output i, from 1,
    is the 30/27/31 xor-multiply mix of seed + i * 0x9E3779B97F4A7C15, and
    uint64 arithmetic wraps mod 2^64.  tests/oracles.py keeps the stateful
    generator as its oracle."""
    counter = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed % 2 ** 64) + counter * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _check_square(xs: np.ndarray, ys: np.ndarray, half: float, name: str, inner=None):
    """Raise for unequal x and y sizes, or at the first point (NaN included)
    with |x| or |y| above half or |x| below inner."""
    if xs.size != ys.size:
        raise DomainError(f"{xs.size} x coordinates but {ys.size} y coordinates")
    outside = ~((np.abs(xs) <= half) & (np.abs(ys) <= half))
    if inner is not None:
        outside |= ~(np.abs(xs) >= inner)
    if outside.any():
        i = np.argmax(outside)
        raise DomainError(f"point {(float(xs[i]), float(ys[i]))} outside the {name}")


@dataclass
class ExitTimes:
    """Exit times of a set of points, known through `steps` returns.

    The points are a grid's cell centers (with the cell size), or the
    values of a membership test past FIBER_DEPTH_CAP on either axis.  A
    point's exit time is the number of leading second-return iterates of
    its orbit inside [-a, -b] u [b, a]; `exits` holds it capped at `steps`,
    so the point lies in the depth-N set exactly when exits >= N, for
    every N <= steps.  `orbit` holds the latest iterates of the points
    still inside, `alive` their indices.
    """

    centers: np.ndarray = field(repr=False)
    cell: float = 0.0
    exits: np.ndarray = field(init=False, repr=False)
    orbit: np.ndarray = field(init=False, repr=False)
    alive: np.ndarray = field(init=False, repr=False)
    steps: int = 0

    def __post_init__(self):
        self.exits = np.zeros(self.centers.size, dtype=int)
        self.orbit, self.alive = self.centers, np.arange(self.centers.size)

    def advance(self, bowen: BowenSystem, depth: int) -> "ExitTimes":
        """Run the surviving orbits on to `depth` steps, if not there yet."""
        a, b = bowen.m.a, bowen.m.b
        while self.steps < depth:
            if self.steps:
                self.orbit = bowen.second_iterate(self.orbit)
            inside = (b <= np.abs(self.orbit)) & (np.abs(self.orbit) <= a)
            self.orbit, self.alive = self.orbit[inside], self.alive[inside]
            self.steps += 1
            self.exits[self.alive] = self.steps
        return self


@dataclass
class HorseshoeEstimate:
    depth: int
    cell: float
    estimated_area: float
    exact_level_area: float
    envelope: float


@dataclass(frozen=True)
class WitnessRecord:
    """One witness sample: failure is None exactly when witness_y and
    gap_level are set."""

    x: float
    y: float
    witness_y: float | None
    gap_level: int | None
    failure: str | None


def make_poincare_system(bowen: BowenSystem) -> PoincareSystem:
    return PoincareSystem(bowen=bowen)


def suspension_volume(area: float, delta: float) -> float:
    """Flow-box volume of the thickened set: delta times the planar area."""
    if not (area >= 0.0 and delta >= 0.0):  # also rejects NaN
        raise DomainError("area and delta must be nonnegative")
    return delta * area
