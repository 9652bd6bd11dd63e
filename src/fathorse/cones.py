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
    "ConeBoundReport",
    "BruteForceSlice",
    "make_cone_system",
    "cone_map",
    "preimage_level",
    "slice_measure",
    "slice_intervals",
    "verify_cone_bound",
    "brute_force_slice",
    "exact_preimage_table",
]

LEVEL_HARD_CAP = 24
BRUTE_FORCE_LEVEL_CAP = 8
EXACT_TABLE_CAP = 6  # the denominators b_n = 2^{2^{n+1}-2} explode beyond


@dataclass(frozen=True)
class ConeSystem:
    """Fiber-contraction exponent k >= 2 of the skew product.

    The base is always the c = 2 branch map, so k is the only parameter.
    The system owns the scratch of its width recursion: one buffer for
    the preimages and one for the widths, grown to the deepest level
    asked for and reused by every later call, so one system per k serves
    every slice, table and figure of that exponent.  It also keeps the
    per-level totals of the last abscissa slice_measure walked, so a
    table asked deepest level first walks its leaves once.
    """

    k: int
    _scratch: list[np.ndarray] = field(default_factory=list, init=False, compare=False, repr=False)
    _totals: dict[float, list[float]] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.k, numbers.Real) or not float(self.k).is_integer() or self.k < 2:
            raise InvalidParameterError(f"fiber exponent k must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))  # 3.0 becomes 3, as the figure JSON writes it


def make_cone_system(k: int) -> ConeSystem:
    return ConeSystem(k=k)


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
    neg = out[0::2]
    np.subtract(r, 1.0, out=neg)
    np.add(r, 1.0, out=out[1::2])
    out /= 2.0
    np.square(out, out=out)
    np.negative(neg, out=neg)
    return out


def _levels(sys: ConeSystem, a: float, n: int):
    """Yield (r, widths) for levels 0..n of the slice cover at x = a.

    width(n, m) = |r(n, m)|^{1/k}/2 * width(n-1, ceil(m/2)), starting
    from the full fiber width 2 at level 0.  The yielded arrays are views
    into the system's scratch: level L sits at offset 0 when n - L is
    even and at offset 2^n otherwise, so a level and its parent never
    overlap.  A level is overwritten two levels later, and every level
    by the next _levels call on the same system.
    """
    _check_slice(a, n)
    size = 3 * 2**n // 2
    scratch = sys._scratch
    if not scratch or scratch[0].size < size:
        scratch.clear()  # free the old buffers before allocating the new ones
        scratch += [np.empty(size), np.empty(size)]
    r_buf, w_buf = scratch
    inv_k = 1.0 / sys.k
    at = 0 if n % 2 == 0 else 2**n
    r, widths = r_buf[at : at + 1], w_buf[at : at + 1]
    r[0], widths[0] = a, 2.0
    yield r, widths
    for level in range(1, n + 1):
        at = 0 if (n - level) % 2 == 0 else 2**n
        r = _children(r, r_buf[at : at + 2**level])
        child_w = np.abs(r, out=w_buf[at : at + 2**level])  # |r|^{1/k}/2 times the parent width
        child_w **= inv_k
        child_w *= 0.5
        child_w[0::2] *= widths
        child_w[1::2] *= widths
        widths = child_w
        yield r, widths


def preimage_level(a: float, n: int) -> np.ndarray:
    """Normalized preimages of a at level n, ordered m = 1..2^n."""
    _check_slice(a, n)
    level = np.array([a], dtype=float)
    for _ in range(n):
        level = _children(level, np.empty(2 * level.size))
    return level


def slice_measure(sys: ConeSystem, a: float, n: int) -> float:
    """Total width of the exact level-n slice cover, via the width recursion.

    A walk keeps one np.sum per level, 0..n, as the totals of its
    abscissa; a later call at the same abscissa and a level no deeper
    returns the kept total without walking.
    """
    _check_slice(a, n)
    key = float(a)  # 0.0 and -0.0 share a key: their totals are bit-equal
    totals = sys._totals.get(key, ())
    if n >= len(totals):
        totals = [float(np.sum(widths)) for _, widths in _levels(sys, a, n)]
        sys._totals.clear()
        sys._totals[key] = totals
    return totals[n]


def slice_intervals(sys: ConeSystem, a: float, n: int) -> np.ndarray:
    """Fiber intervals [lo, hi] of the level-n cover at abscissa a, one row per leaf.

    A leaf interval is its parent's image under the child's fiber map
    y -> (|r|^{1/k} y +- 1)/2, so the child center sits a quarter of the
    parent width below (negative branch) or above (positive branch) the
    parent center.
    """
    levels = _levels(sys, a, n)
    _, widths = next(levels)
    centers = np.zeros(1)
    for _, child_widths in levels:
        centers = np.repeat(centers, 2)
        centers[0::2] -= 0.25 * widths
        centers[1::2] += 0.25 * widths
        widths = child_widths
    return np.stack([centers - 0.5 * widths, centers + 0.5 * widths], axis=1)


@dataclass(frozen=True)
class ConeBoundRow:
    n: int
    total: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class ConeBoundReport:
    k: int
    a: float
    rows: tuple[ConeBoundRow, ...]


def verify_cone_bound(sys: ConeSystem, a: float, n_max: int) -> ConeBoundReport:
    """Tabulate each level's total, its 2/4^{n/k} bound and its ratio to
    the previous level's total (nan at n = 0)."""
    _check_slice(a, n_max)  # before the first level, not after level LEVEL_HARD_CAP
    # deepest level first, so the scratch is sized once for the whole table
    # and its one walk keeps every level's total for the shallower calls
    totals = [slice_measure(sys, a, n) for n in range(n_max, -1, -1)][::-1]
    ratios = [math.nan] + [t / prev for prev, t in zip(totals, totals[1:])]
    rows = tuple(
        ConeBoundRow(n, total, 2.0 / 4.0 ** (n / sys.k), ratio)
        for n, (total, ratio) in enumerate(zip(totals, ratios))
    )
    return ConeBoundReport(k=sys.k, a=a, rows=rows)


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


@dataclass(frozen=True)
class BruteForceSlice:
    a: float
    n: int
    k: int
    resolution: float
    total: float
    leaf_count: int
    warning: str | None = None


def brute_force_slice(sys: ConeSystem, a: float, n: int, resolution: float) -> BruteForceSlice:
    """Independent slice estimate: bisect preimages, push dense fiber grids.

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
    warning = None
    if resolution > 1e-3:
        warning = f"resolution {resolution} coarser than 1e-3; estimate may be imprecise"

    level = [a]
    for _ in range(n):
        level = [x for v in level for x in (_branch_preimage(v, -1), _branch_preimage(v, +1))]

    npts = int(math.ceil(2.0 / resolution)) + 1
    ygrid = np.linspace(-1.0, 1.0, npts)
    intervals = []
    for x0 in level:
        x, y = x0, ygrid
        for _ in range(n):
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
    return BruteForceSlice(
        a=a,
        n=n,
        k=sys.k,
        resolution=resolution,
        total=math.fsum(pieces),
        leaf_count=len(level),
        warning=warning,
    )


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
