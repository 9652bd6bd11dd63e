"""Cantor-cone sections of a square-root skew product on the square.

The planar map acts on [-1, 1]^2 minus the line x = 0: the x coordinate
moves through the c = 2 square-root branches while each vertical fiber is
squeezed by |x|^{1/k}/2 and pushed toward the top (x > 0) or bottom
(x < 0) half.  Slicing the forward-invariant set along x = a gives a
Cantor set whose level-n cover is described exactly by a preimage
recursion: level n holds 2^n normalized preimages of a, and each leaf
interval width is the running product of the fiber factors along its
orbit.  The total width decays at least like 4^{-n/k}, so every slice has
zero length in the limit; for k = 2 the decay is exactly one half per
level, independent of the abscissa.

Preimages are kept in normalized coordinates r = (unscaled value)/b_n
with b_n = 2^{2^{n+1}-2}: the unscaled integers overflow binary64 at
n = 4, while the normalized recursion stays inside [-1, 1].  The exact
unnormalized table is retained in rational arithmetic for small n as an
independent cross-check, as is a brute-force slice estimator that finds
preimages by bisection and pushes dense fiber grids forward.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvalidParameterError, SingularityError, check_depth
from .lorenz import branch_value

__all__ = [
    "ConeSystem",
    "cone_map",
    "preimage_level",
    "slice_measure",
    "slice_intervals",
    "walk_slices",
    "verify_cone_bound",
    "brute_force_slice",
    "exact_preimage_table",
]

LEVEL_HARD_CAP = 24
BLOCK_DEPTH = 10  # the last levels of a walk, descended block by block
BLOCK_NODES = 128  # nodes per block: numpy's pairwise sum splits down to 128 elements
BRUTE_FORCE_LEVEL_CAP = 8
EXACT_TABLE_CAP = 6  # the denominators b_n = 2^{2^{n+1}-2} explode beyond


@dataclass(frozen=True)
class ConeSystem:
    """Fiber-contraction exponent k >= 2 of the skew product.

    The base is always the c = 2 branch map, so k is the only parameter.
    The system keeps the per-level totals of the last abscissa walked for
    it, by slice_measure or by a walk_slices shared with other exponents,
    so a table at that abscissa reads its levels without walking again.
    """

    k: int
    _totals: dict[float, list[float]] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.k, numbers.Real) or not float(self.k).is_integer() or self.k < 2:
            raise InvalidParameterError(f"fiber exponent k must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))  # 3.0 becomes 3, as the figure JSON writes it


def cone_map(sys: ConeSystem, x: float, y):
    """One application of the skew product at (x, y), x != 0; y may be an array on one fiber."""
    if x == 0.0:
        raise SingularityError("skew product is undefined on the line x = 0")
    if not (abs(x) <= 1.0 and np.all(np.abs(y) <= 1.0)):  # also rejects NaN
        raise DomainError(f"point ({x}, {y}) outside the section square")
    push = 1.0 if x > 0.0 else -1.0
    return branch_value(2.0, x), 0.5 * (y * abs(x) ** (1.0 / sys.k) + push)


def _check_slice(a: float, n: int, cap: int = LEVEL_HARD_CAP) -> None:
    """Shared argument guard of the slice recursions."""
    if not abs(a) < 1.0:  # also rejects NaN
        raise DomainError(f"slice abscissa must satisfy |a| < 1, got {a}")
    check_depth(n, cap)


def _children(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One preimage step into out: parent j (1-based) has children m = 2j-1 and 2j.

    Odd m takes the negative branch preimage -((r-1)/2)^2, even m the
    positive one ((r+1)/2)^2, so signs alternate -,+,-,+ along the level.
    """
    neg = out[..., 0::2]
    np.subtract(r, 1.0, out=neg)
    np.add(r, 1.0, out=out[..., 1::2])
    out /= 2.0
    np.square(out, out=out)
    np.negative(neg, out=neg)
    return out


def _widths(r: np.ndarray, parent: np.ndarray, inv_k: float, out: np.ndarray) -> np.ndarray:
    """One width step into out: width(n, m) = |r(n, m)|^{1/k}/2 * width(n-1, ceil(m/2)).

    Level 0 has the full fiber width 2.
    """
    np.abs(r, out=out)
    out **= inv_k
    out *= 0.5
    out[..., 0::2] *= parent
    out[..., 1::2] *= parent
    return out


def _preimages(a, n: int):
    """Yield the normalized preimages of a for levels 0..n, each a fresh array;
    an array of abscissas gives one row per abscissa, stepped along the last axis."""
    r = np.asarray(a, dtype=float)[..., None]
    yield r
    for _ in range(n):
        r = _children(r, np.empty((*r.shape[:-1], 2 * r.shape[-1])))
        yield r


def _walk_totals(a: float, n: int, ks: list[int]) -> list[list[float]]:
    """Total width of each level 0..n of the slice cover at x = a, one list per k.

    Levels 0..n-BLOCK_DEPTH are walked whole: the preimages once, the
    widths once per k.  The last BLOCK_DEPTH levels are descended in
    blocks of BLOCK_NODES nodes of the top level, so a block's deepest
    level is 2^17 floats (1 MB) and its buffers are reused by every block
    and every k.  Each level of each block is summed with np.sum, and the
    block sums are added in a balanced pairwise tree.  numpy's float64 sum
    of a contiguous 2^L array splits at halves down to blocks of 128
    elements, so each total is bit-equal to one np.sum over the whole level.
    """
    depth = min(n, BLOCK_DEPTH)
    inv = [1.0 / k for k in ks]
    widths = [np.full(1, 2.0) for _ in ks]
    totals = [[2.0] for _ in ks]
    levels = _preimages(a, n - depth)
    r = next(levels)
    for r in levels:
        for i, inv_k in enumerate(inv):
            widths[i] = _widths(r, widths[i], inv_k, np.empty(r.size))
            totals[i].append(float(np.sum(widths[i])))

    nodes = min(r.size, BLOCK_NODES)
    # a block's level j = 1..depth: nodes * 2^j floats, after its levels 1..j-1
    block_levels = [slice(nodes * (2**j - 2), nodes * (2**j - 1) * 2) for j in range(1, depth + 1)]
    size = nodes * (2 ** (depth + 1) - 2)
    r_buf, w_buf = np.empty(size), np.empty(size)
    sums = np.empty((len(ks), depth, r.size // nodes))
    for block, lo in enumerate(range(0, r.size, nodes)):
        rs = [r[lo : lo + nodes]]
        for at in block_levels:
            rs.append(_children(rs[-1], r_buf[at]))
        for i, inv_k in enumerate(inv):
            w = widths[i][lo : lo + nodes]
            for j, at in enumerate(block_levels):
                w = _widths(rs[j + 1], w, inv_k, w_buf[at])
                sums[i, j, block] = np.sum(w)
    while sums.shape[2] > 1:  # numpy's own order: halves first
        sums = sums[:, :, 0::2] + sums[:, :, 1::2]
    for level_totals, block_totals in zip(totals, sums[:, :, 0].tolist()):
        level_totals += block_totals
    return totals


def walk_slices(systems: list[ConeSystem], a: float, n: int) -> None:
    """One walk at abscissa a to level n for every system.

    Each system keeps the totals of levels 0..n in place of its earlier
    ones, so slice_measure(system, a, m) for m <= n reads them; systems
    with the same k share one width recursion.
    """
    _check_slice(a, n)
    ks = list(dict.fromkeys(system.k for system in systems))
    by_k = dict(zip(ks, _walk_totals(a, n, ks)))
    for system in systems:
        system._totals.clear()
        system._totals[float(a)] = by_k[system.k]  # 0.0 and -0.0 share a key: bit-equal totals


def preimage_level(a: float, n: int) -> np.ndarray:
    """Normalized preimages of a at level n, ordered m = 1..2^n."""
    _check_slice(a, n)
    for r in _preimages(a, n):
        pass
    return r


def slice_measure(sys: ConeSystem, a: float, n: int) -> float:
    """Total width of the exact level-n slice cover, via the width recursion.

    A call at the abscissa the system last walked, and a level no deeper,
    returns the kept total; any other call walks to level n first.
    """
    _check_slice(a, n)
    totals = sys._totals.get(float(a), ())
    if n >= len(totals):
        walk_slices([sys], a, n)
        totals = sys._totals[float(a)]
    return totals[n]


def slice_intervals(sys: ConeSystem, a, n: int) -> np.ndarray:
    """Fiber intervals [lo, hi] of the level-n cover at abscissa a, one row per leaf.

    A float a gives a (2^n, 2) array; a 1-D array of abscissas gives one
    such array per abscissa, shape (len(a), 2^n, 2), from the same
    recursion along the last axis.  A leaf interval is its parent's image
    under the child's fiber map y -> (|r|^{1/k} y +- 1)/2, so the child
    center sits a quarter of the parent width below (negative branch) or
    above (positive branch) the parent center.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim > 1:
        raise DomainError(f"slice abscissas must be a float or a 1-D array, got shape {a.shape}")
    outside = a[~(np.abs(a) < 1.0)]  # also NaN
    _check_slice(outside[0] if outside.size else 0.0, n)
    levels = _preimages(a, n)
    next(levels)
    centers, widths = np.zeros((*a.shape, 1)), np.full((*a.shape, 1), 2.0)
    for r in levels:
        centers = np.repeat(centers, 2, axis=-1)
        centers[..., 0::2] -= 0.25 * widths
        centers[..., 1::2] += 0.25 * widths
        widths = _widths(r, widths, 1.0 / sys.k, np.empty(r.shape))
    return np.stack([centers - 0.5 * widths, centers + 0.5 * widths], axis=-1)


@dataclass(frozen=True)
class ConeBoundRow:
    n: int
    total: float
    bound: float
    ratio: float


def verify_cone_bound(sys: ConeSystem, a: float, n_max: int) -> tuple[ConeBoundRow, ...]:
    """One row per level 0..n_max: the level's total, its 2/4^{n/k} bound
    and its ratio to the previous level's total (nan at n = 0)."""
    _check_slice(a, n_max)  # before the first level, not after level LEVEL_HARD_CAP
    # deepest level first: a table with no walk kept for a walks once
    totals = [slice_measure(sys, a, n) for n in range(n_max, -1, -1)][::-1]
    ratios = [math.nan] + [t / prev for prev, t in zip(totals, totals[1:])]
    return tuple(
        ConeBoundRow(n, total, 2.0 / 4.0 ** (n / sys.k), ratio)
        for n, (total, ratio) in enumerate(zip(totals, ratios))
    )


def _branch_preimage(v: float, sign: int) -> float:
    """Preimage of v under one branch of the c = 2 map, by plain bisection."""
    if sign > 0:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = -1.0, 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = branch_value(2.0, mid) if mid != 0.0 else (-1.0 if sign > 0 else 1.0)
        if fm < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_slice(sys: ConeSystem, a: float, n: int, resolution: float) -> float:
    """Independent slice total: bisect preimages, push dense fiber grids.

    Every level-n preimage of a is found by per-branch bisection (no use
    of the analytic inverse or the width recursion).  A dense y-grid on
    each preimage line is pushed forward n times through the skew product;
    the images land on the slice x = a and their merged interval lengths
    are summed.  Agreement with slice_measure is expected within
    max(10 * resolution, 1e-6).
    """
    _check_slice(a, n, BRUTE_FORCE_LEVEL_CAP)
    if not 0.0 < resolution < math.inf:  # also rejects NaN
        raise DomainError(f"resolution must be positive and finite, got {resolution}")

    level = [a]
    for _ in range(n):
        level = [x for v in level for x in (_branch_preimage(v, -1), _branch_preimage(v, +1))]

    npts = int(math.ceil(2.0 / resolution)) + 1
    ygrid = np.linspace(-1.0, 1.0, npts)
    intervals = []
    for x0 in level:
        x, y = x0, ygrid
        for _ in range(n):
            if x == 0.0:  # an a this close to +-1 has bisected preimages such as +-0.25
                raise DomainError(f"cannot resolve the level-{n} brute-force slice at a = {a}: "
                                  "an orbit of its bisected preimages meets the line x = 0")
            x, y = cone_map(sys, x, y)
        intervals.append((float(y.min()), float(y.max())))

    intervals.sort()
    pieces = []
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            pieces.append(cur_hi - cur_lo)
            cur_lo, cur_hi = lo, hi
    pieces.append(cur_hi - cur_lo)
    return math.fsum(pieces)


def exact_preimage_table(n: int, a: Fraction = Fraction(0)) -> tuple[list[list[Fraction]], list[int]]:
    """Unnormalized preimage table in exact rational arithmetic.

    Returns per-level lists of the unscaled values (integers when a is an
    integer) alongside the scale denominators b_n = 2^{2^{n+1}-2}; level
    n entry m satisfies value = (-1)^m (parent + (-1)^m b_{n-1})^2 with
    parent at index ceil(m/2) of the previous level.
    """
    check_depth(n, EXACT_TABLE_CAP)
    denominators = [1]
    for _ in range(n):
        denominators.append(4 * denominators[-1] ** 2)
    levels = [[Fraction(a)]]
    for depth in range(1, n + 1):
        prev, scale = levels[-1], denominators[depth - 1]
        cur = []
        for parent in prev:
            cur.append(-((parent - scale) ** 2))
            cur.append((parent + scale) ** 2)
        levels.append(cur)
    return levels, denominators
