"""Scalar oracles of the interval-tree, base-map and horseshoe array kernels.

Each function is the per-point code that fathorse.fatcantor,
fathorse.bowen and fathorse.horseshoe ran before their kernels took
arrays, written as a function of the construction or system.  The slope
and right-branch inverse of the square-root family come first; the
package itself never evaluates them.  The word-addressed interval tree
(interval, gap, locate, the closed-form level length, the subtree cover
and the gap diffeomorphism of a word) reads one word by descent from
[-a, a], one centered gap per letter, and is the oracle of
CantorConstruction.level.  The rest are the paired-tree walk, the base
map with its inverse and derivative, the gap profile with its
Newton-bisection inverse, the spliced map, the spliced right-branch
inverse, the second-iterate derivative, the fiber maps with their
sign-word cover, and finite-depth membership.  They use math, not
numpy, and call no array kernel of the package (CantorConstruction.level,
BowenSystem._walks, bowen._invert_profile), so a parity test against
them compares the array code with independent per-point code.

zeta_long_sum is the 200,000-term sum that fathorse.fatcantor.zeta_value
replaced with a short Euler-Maclaurin sum; it is kept as that sum's
oracle.  SplitMix64 is the stateful generator that
fathorse.horseshoe.splitmix64 replaced with one counter-based uint64
array, and bits is the '0'/'1' word draw that
PoincareSystem.vertical_gap_witness replaced with an integer cell draw;
they are kept as the oracles of the array draw and of the cells.

slice_intervals_1d is the body of fathorse.cones.slice_intervals before
it took an array of abscissas: one abscissa, one 1-D level at a time,
with its own copies of the preimage and width steps.  It uses numpy, as
that body did, with the same operations in the same order, so its leaf
intervals are the oracle of the batched recursion bit for bit.

cones_svg and horseshoe_svg are the figure bodies that fathorse.svgfig
wrote one `_f` call per coordinate before each element became one
%-template; they are the oracles of those templates, and read the
datasets' flat `ends` lists and `xs`/`ys` axes as the renderers do.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from fathorse.bowen import _SNAP, _TOL, _TWO_PI, GapDiffeo
from fathorse.errors import DomainError, SingularityError
from fathorse.lorenz import branch_value
from fathorse.svgfig import _f, _line, _rect

# -- branch family -------------------------------------------------------------


def branch_derivative(c: float, x: float) -> float:
    """Slope c / (2 sqrt(|x|)); always >= c/2 on [-1, 1], diverging at 0."""
    if x == 0.0:
        raise SingularityError("derivative is undefined at x = 0")
    if not abs(x) <= 1.0:  # also rejects NaN
        raise DomainError(f"x = {x} outside [-1, 1]")
    return c / (2.0 * math.sqrt(abs(x)))


def right_branch_inverse(c: float, y: float) -> float:
    """Inverse of the x > 0 branch: y in (-1, c-1] maps to ((y+1)/c)^2."""
    if not -1.0 < y <= (c - 1.0) + 1e-12:  # also rejects NaN
        raise DomainError(f"y = {y} outside the right-branch range (-1, {c - 1.0}]")
    t = (min(y, c - 1.0) + 1.0) / c
    return t * t


# -- gap series ----------------------------------------------------------------


def zeta_long_sum(p: float) -> float:
    """zeta(p) for p > 1 by partial sum plus an Euler-Maclaurin remainder.

    The correction integral term M^{1-p}/(p-1) - M^{-p}/2 + p M^{-p-1}/12
    bounds the truncation error by O(M^{-p-3}), far below double rounding
    for M = 200,000 terms.
    """
    partial = math.fsum(m ** -p for m in range(1, 200_001))
    m = 200_000.0
    remainder = m ** (1.0 - p) / (p - 1.0) - 0.5 * m ** -p + p / 12.0 * m ** (-p - 1.0)
    return partial + remainder


# -- witness sampler -----------------------------------------------------------

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 stream, one output per call: the state advances by
    the 64-bit golden ratio constant and the output is the finalized mix
    of the new state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1): the top 53 bits of one output scaled by 2^-53."""
        return (self.next_uint64() >> 11) * 2.0 ** -53


def bits(rng, n: int) -> str:
    """A word of n '0'/'1' letters from the top bits of one output of rng."""
    if not 0 <= n <= 64:
        raise ValueError("bit count must be in [0, 64]")
    word = rng.next_uint64()
    return "".join("1" if (word >> (63 - i)) & 1 else "0" for i in range(n))


# -- interval tree -------------------------------------------------------------


class Address(NamedTuple):
    kind: str  # "interval" or "gap"
    word: str


def _check_word(word: str) -> None:
    if any(ch not in "01" for ch in word):
        raise DomainError(f"word must be a 0/1 string, got {word!r}")


def interval(cc, word: str) -> tuple[float, float]:
    """Endpoints of I_word; the empty word gives [-a, a]."""
    _check_word(word)
    lo, hi = -cc.half_width, cc.half_width
    for n, letter in enumerate(word):
        gap_lo, gap_hi = cc._gap_from(lo, hi, n)
        lo, hi = (gap_hi, hi) if letter == "0" else (lo, gap_lo)
    return lo, hi


def gap(cc, word: str) -> tuple[float, float]:
    """The closed centered gap removed from I_word."""
    lo, hi = interval(cc, word)
    return cc._gap_from(lo, hi, len(word))


def level_interval_length(cc, n: int) -> float:
    """Closed form (2a - sum of gap lengths below n) / 2^n."""
    return (2.0 * cc.half_width - cc.gaps.partial_sum(n)) / 2.0 ** n


def locate(cc, x: float, depth: int) -> Address:
    """Descend the tree at x down to the given depth.

    Returns the first gap word whose closed gap contains x, or the
    depth-length interval word otherwise.  Gaps are closed and share
    endpoints with their neighbor intervals; the tie goes to the gap.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if not -cc.half_width <= x <= cc.half_width:
        raise DomainError(f"x = {x} outside [-a, a]")
    word, lo, hi = "", -cc.half_width, cc.half_width
    for n in range(depth):
        gap_lo, gap_hi = cc._gap_from(lo, hi, n)
        if gap_lo <= x <= gap_hi:
            return Address("gap", word)
        if x > gap_hi:
            word, lo = word + "0", gap_hi
        else:
            word, hi = word + "1", gap_lo
    return Address("interval", word)


def subtree_cover_length(cc, word: str, level: int) -> float:
    """Length of the absolute level-`level` cover inside I_word."""
    n = len(word)
    if level < n:
        raise DomainError("cover level must be at least the word length")
    lo, hi = interval(cc, word)
    removed = math.fsum(cc.gaps.length(j) / 2.0 ** n for j in range(n, level))
    return (hi - lo) - removed


def gap_diffeo(sys, word: str) -> GapDiffeo:
    """The base map on the source gap of I_{0 word}, onto the gap of I_word."""
    return GapDiffeo(source=gap(sys.cc, "0" + word), target=gap(sys.cc, word))

# -- gap diffeomorphisms -------------------------------------------------------


def _integral(t, s):
    """Integral of phi over [0, t] divided by the mean slope s, so 1 at t = 1."""
    return (2.0 * t + (s - 2.0) * (t - math.sin(_TWO_PI * t) / _TWO_PI)) / s


def _normalized_slope(t, s):
    return (2.0 + (s - 2.0) * (1.0 - math.cos(_TWO_PI * t))) / s


def _gap_t(d: GapDiffeo, x: float) -> float:
    return (x - d.source[0]) / (d.source[1] - d.source[0])


def gap_value(d: GapDiffeo, x: float) -> float:
    return d.target[0] + (d.target[1] - d.target[0]) * _integral(_gap_t(d, x), d.mean_slope)


def gap_derivative(d: GapDiffeo, x: float) -> float:
    s = d.mean_slope
    return 2.0 + (s - 2.0) * (1.0 - math.cos(_TWO_PI * _gap_t(d, x)))


def gap_invert(d: GapDiffeo, y: float) -> float:
    """Newton with a bisection bracket on the normalized coordinate.

    It stops at |err| < 1e-16, or at a step that leaves (t, lo, hi)
    unchanged: the step is a pure function of that state, so the rest
    of the 80-step budget would change no bit.
    """
    s = d.mean_slope
    tau = (y - d.target[0]) / (d.target[1] - d.target[0])
    t, lo, hi = min(max(tau, 0.0), 1.0), 0.0, 1.0
    for _ in range(80):
        err = _integral(t, s) - tau
        if abs(err) < 1e-16:
            break
        state = t, lo, hi
        if err > 0.0:
            hi = t
        else:
            lo = t
        step = t - err / _normalized_slope(t, s)
        t = step if lo < step < hi else 0.5 * (lo + hi)
        if (t, lo, hi) == state:
            break
    return d.source[0] + (d.source[1] - d.source[0]) * t


# -- base map ------------------------------------------------------------------


def walk(sys, x: float, forward: bool):
    """Walk the paired trees (source I_{0w}, target I_w) toward x.

    x lies in the probe tree: the source tree for the base map
    (forward), the target tree for its inverse.  The other tree is the
    partner; both descend in lockstep, the source one level below the
    target.  Returns ('endpoint', partner endpoint) when x snaps to a
    probe endpoint, ('gap', diffeo, walk level) when x falls in a closed
    probe gap, or ('deep', value, slope) once the probe interval is below
    _TOL, with the affine partner-over-probe interpolation at x.
    """
    cc = sys.cc
    source, target = interval(cc, "0"), interval(cc, "")
    (plo, phi), (qlo, qhi), dp, dq = (
        (source, target, 1, 0) if forward else (target, source, 0, 1)
    )
    n = 0
    while phi - plo >= _TOL:
        if abs(x - plo) <= _SNAP:
            return ("endpoint", qlo)
        if abs(x - phi) <= _SNAP:
            return ("endpoint", qhi)
        gp = cc._gap_from(plo, phi, n + dp)
        gq = cc._gap_from(qlo, qhi, n + dq)
        if gp[0] <= x <= gp[1]:
            source, target = (gp, gq) if forward else (gq, gp)
            return ("gap", GapDiffeo(source=source, target=target), n)
        if x > gp[1]:
            plo, qlo = gp[1], gq[1]
        else:
            phi, qhi = gp[0], gq[0]
        n += 1
    return ("deep", qlo + (x - plo) * (qhi - qlo) / (phi - plo), (qhi - qlo) / (phi - plo))


def base_value(sys, x: float) -> float:
    """B(x) for x in [b, a]: shifted address, evaluated to depth _TOL."""
    sys._check_core(x)
    kind, leaf, *_ = walk(sys, x, forward=True)
    return gap_value(leaf, x) if kind == "gap" else leaf


def base_derivative(sys, x: float) -> float:
    """B'(x): the gap profile inside gaps, exactly 2 at tree endpoints,
    and the interval-length ratio (tending to 2) deep on the Cantor set."""
    sys._check_core(x)
    kind, *leaf = walk(sys, x, forward=True)
    if kind == "endpoint":
        return 2.0
    if kind == "gap":
        return gap_derivative(leaf[0], x)
    return leaf[1]


def base_invert(sys, v: float) -> float:
    """Inverse of the base map, descending the shifted address tree."""
    sys._check_target(v)
    kind, leaf, *_ = walk(sys, v, forward=False)
    return gap_invert(leaf, v) if kind == "gap" else leaf


# -- spliced map ---------------------------------------------------------------


def core_preimage(sys, x: float) -> float:
    """Analytic right-branch preimage in [b, a] of x clamped to [f(b), -a]."""
    u = right_branch_inverse(sys.m.c, min(max(x, sys.fb), -sys.m.a))
    return min(max(u, sys.m.b), sys.m.a)


def surgery(sys, x: float) -> float:
    """h(x) = B applied to the analytic right-branch preimage of x."""
    return base_value(sys, core_preimage(sys, x))


def modified_value(sys, x: float) -> float:
    """The spliced map: analytic outside [f(b), -a] u [a, -f(b)],
    h on the left zone, odd reflection -h(-x) on the right zone."""
    if x == 0.0:
        raise SingularityError("spliced map is undefined at x = 0")
    if abs(x) > 1.0:
        raise DomainError(f"x = {x} outside [-1, 1]")
    if sys._in_left_surgery(x):
        return surgery(sys, x)
    if sys._in_left_surgery(-x):
        return -surgery(sys, -x)
    return branch_value(sys.m.c, x)


def second_iterate(sys, x: float) -> float:
    return modified_value(sys, modified_value(sys, x))


def invert_right(sys, y: float) -> float:
    """Inverse of the spliced map's right branch on (-1, f(1)].

    Analytic for |y| > a; for y in [-a, a] the branch runs through the
    reflected surgery, so x = -f(B^{-1}(-y)).  The three preimages that
    are derived constants (of -a, a and f(b)) are returned exactly.
    """
    if y <= -1.0 or y > (sys.m.c - 1.0) + 1e-12:
        raise DomainError(f"y = {y} outside the right-branch range")
    a = sys.m.a
    if abs(y + a) <= _SNAP:
        return a
    if abs(y - a) <= _SNAP:
        return -sys.fb
    if abs(y - sys.fb) <= _SNAP:
        return sys.m.b
    if -a < y < a:
        return -branch_value(sys.m.c, base_invert(sys, -y))
    return right_branch_inverse(sys.m.c, y)


def core_second_derivative(sys, x: float) -> float:
    """(f^2)'(x) for x in [b, a]: the chain f'(x) h'(f(x))."""
    sys._check_core(x)
    c = sys.m.c
    u = core_preimage(sys, branch_value(c, x))
    return branch_derivative(c, x) * base_derivative(sys, u) / branch_derivative(c, u)


# -- horseshoe -----------------------------------------------------------------


def fiber_map(ps, sign: int, y: float) -> float:
    """One second-return fiber contraction for the given sign of x."""
    a = ps.bowen.m.a
    if abs(y) > a + 1e-12:
        raise DomainError(f"fiber argument {y} outside [-a, a]")
    y = min(max(y, -a), a)
    s = 1.0 if sign > 0 else -1.0
    return -s * invert_right(ps.bowen, -invert_right(ps.bowen, s * y))


_COVERS: dict[int, tuple] = {}  # id(ps) -> (ps, word covers by depth, sorted covers by depth)


def fiber_cover(ps, depth: int) -> dict[str, tuple[float, float]]:
    """The depth-N fiber cover as the sign-word recursion over fiber_map
    builds it: word -> (lo, hi), read outermost contraction first, '-'
    landing in [b, a] and '+' in [-a, -b].  Cached per system."""
    a = ps.bowen.m.a
    _, covers, _ = _COVERS.setdefault(id(ps), (ps, [{"": (-a, a)}], {}))
    while len(covers) <= depth:
        covers.append({
            ch + word: (fiber_map(ps, sign, lo), fiber_map(ps, sign, hi))
            for word, (lo, hi) in covers[-1].items()
            for ch, sign in (("-", -1), ("+", +1))
        })
    return covers[depth]


def y_condition(ps, y: float, depth: int) -> bool:
    """Bisection over the sorted fiber cover, as the per-cell estimator did."""
    cover = fiber_cover(ps, depth)
    ordered = _COVERS[id(ps)][2]
    if depth not in ordered:
        intervals = sorted(cover.values())
        ordered[depth] = [lo for lo, _ in intervals], [hi for _, hi in intervals]
    los, his = ordered[depth]
    i = bisect.bisect_right(los, y) - 1
    return i >= 0 and y <= his[i]


def x_condition(ps, x: float, depth: int) -> bool:
    """Whether the first `depth` second-return iterates of x stay in [-a, -b] u [b, a]."""
    a, b = ps.bowen.m.a, ps.bowen.m.b
    for _ in range(depth):
        if not b <= abs(x) <= a:
            return False
        x = second_iterate(ps.bowen, x)
    return True


def membership(ps, point, depth: int) -> bool:
    """Finite-depth horseshoe membership of one point of the core square."""
    x, y = point
    a = ps.bowen.m.a
    if abs(x) > a or abs(y) > a:
        raise DomainError(f"point {point} outside the core square")
    return x_condition(ps, x, depth) and y_condition(ps, y, depth)


# -- cone slice leaves -----------------------------------------------------------


def slice_intervals_1d(sys, a: float, n: int) -> np.ndarray:
    """Fiber intervals [lo, hi] of the level-n cover at one abscissa a, shape (2^n, 2).

    Each level's preimages are the children -((r-1)/2)^2 and ((r+1)/2)^2
    of the level above; each leaf interval is its parent's image under
    the fiber map y -> (|r|^{1/k} y +- 1)/2.
    """
    if not abs(a) < 1.0:  # also rejects NaN
        raise DomainError(f"slice abscissa must satisfy |a| < 1, got {a}")
    r = np.array([a], dtype=float)
    centers, widths = np.zeros(1), np.full(1, 2.0)
    for _ in range(n):
        child = np.empty(2 * r.size)
        neg = child[0::2]
        np.subtract(r, 1.0, out=neg)
        np.add(r, 1.0, out=child[1::2])
        child /= 2.0
        np.square(child, out=child)
        np.negative(neg, out=neg)
        r = child
        centers = np.repeat(centers, 2)
        centers[0::2] -= 0.25 * widths
        centers[1::2] += 0.25 * widths
        child_widths = np.abs(r)
        child_widths **= 1.0 / sys.k
        child_widths *= 0.5
        child_widths[0::2] *= widths
        child_widths[1::2] *= widths
        widths = child_widths
    return np.stack([centers - 0.5 * widths, centers + 0.5 * widths], axis=1)


# -- SVG figure bodies -----------------------------------------------------------


def cones_svg(dataset: dict) -> list[str]:
    """The cones figure's elements: one vertical line per slice interval,
    read from the slice's endpoints lo0, hi0, lo1, hi1, ..."""
    parts = []
    for entry in dataset.get("slices", []):
        x, ends = entry["a"], entry["ends"]
        for i in range(0, len(ends), 2):
            parts.append(_line(x, ends[i], x, ends[i + 1], "#303030", 0.004))
    parts.append(_line(0, -1, 0, 1, "black", 0.006))
    return parts


def horseshoe_svg(dataset: dict) -> list[str]:
    """The horseshoe figure's elements: the core square, then one square per
    point of the product of the axes xs and ys, x outer."""
    parts = []
    a = dataset.get("half_width")
    if a:
        parts.append(_rect(-a, -a, a, a, "none", stroke="black"))
    r = dataset.get("point_size", 0.002)
    for x in dataset.get("xs", []):
        for y in dataset.get("ys", []):
            parts.append(
                f'<rect x="{_f(x - r)}" y="{_f(y - r)}" width="{_f(2 * r)}" '
                f'height="{_f(2 * r)}" fill="#202020"/>\n'
            )
    return parts
