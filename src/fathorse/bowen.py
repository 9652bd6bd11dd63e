"""Derivative-2 surgery: a base map on [b, a] and the spliced interval map.

The base map B sends I_{0w} onto I_w order-preservingly, shifting interval
addresses one letter left.  On the removed gaps it crosses by a smooth
sine-profile diffeomorphism whose endpoint slope is exactly 2 and whose
mean slope is the ratio of the gap lengths, so B has slope 2 on the Cantor
set and slope 2 at every tree endpoint, while the per-gap deviation
sup|2 - B'| = 2(s_n - 2) with s_n = 2 gap(n)/gap(n+1) shrinks to zero.

Splicing replaces the square-root family on [f(b), -a] by
h = B o (right branch inverse), and on [a, -f(b)] by the odd reflection
x -> -h(-x).  The spliced map stays continuous and increasing per branch,
and its second iterate on [b, a] is B by construction, which is exactly
the chain rule f'(f(x)) f'(x) = B'(x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameterError, SingularityError, check_depth
from .fatcantor import LEVEL_ARRAY_CAP, CantorConstruction, word_cell
from .lorenz import LorenzBranchMap, branch_value

__all__ = [
    "GapDiffeo",
    "BowenSystem",
    "SurgeryLevel",
    "SurgeryReport",
    "build_base_map",
    "verify_surgery",
]

_SNAP = 1e-14  # absolute snap distance for exact endpoint semantics
_TOL = 1e-12  # probe-interval length below which the tree walks go affine
JUMP = 10  # walk levels read off the level arrays; verify_surgery builds level 11 anyway
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GapDiffeo:
    """Orientation-preserving diffeomorphism between two centered gaps.

    Normalized source coordinate t in [0, 1]; the derivative profile is
    phi(t) = 2 + 2 (s - 2) sin^2(pi t) with s the mean slope, so both
    endpoint slopes are exactly 2 and the integral of phi is s, which
    makes the image cover the target gap exactly.  `value`, `derivative`
    and `invert` take a float, or arrays with one source and target gap
    per point.
    """

    source: tuple[float, float]
    target: tuple[float, float]

    @property
    def mean_slope(self) -> float:
        return (self.target[1] - self.target[0]) / (self.source[1] - self.source[0])

    def _t(self, x):
        return (x - self.source[0]) / (self.source[1] - self.source[0])

    def value(self, x):
        t = self._t(x)
        return self.target[0] + (self.target[1] - self.target[0]) * _integral(t, self.mean_slope)

    def derivative(self, x):
        return 2.0 + (self.mean_slope - 2.0) * (1.0 - np.cos(_TWO_PI * self._t(x)))

    def invert(self, y):
        """Newton with a bisection bracket on the normalized coordinate.

        Each point stops at |err| < 1e-16, or at a step that leaves
        (t, lo, hi) unchanged: the step is a pure function of that state,
        so the rest of the 80-step budget would change no bit.  One
        _invert_profile call runs every point; its per-point oracle is
        gap_invert in tests/oracles.py.
        """
        tau = (y - self.target[0]) / (self.target[1] - self.target[0])
        t = _invert_profile(*np.atleast_1d(self.mean_slope, tau))
        return self.source[0] + (self.source[1] - self.source[0]) * t.reshape(np.shape(tau))


def _integral(t, s):
    """Integral of phi over [0, t] divided by the mean slope s, so 1 at t = 1."""
    return (2.0 * t + (s - 2.0) * (t - np.sin(_TWO_PI * t) / _TWO_PI)) / s


def _normalized_slope(t, s):
    return (2.0 + (s - 2.0) * (1.0 - np.cos(_TWO_PI * t))) / s


def _invert_profile(s: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """GapDiffeo.invert's Newton-bisection on arrays, one element per gap."""
    t = np.clip(tau, 0.0, 1.0)
    out = t.copy()
    idx = np.arange(t.size)
    lo, hi = np.zeros_like(t), np.ones_like(t)
    moved = np.ones(t.size, dtype=bool)  # whether the last step changed (t, lo, hi)
    for _ in range(80):
        err = _integral(t, s) - tau
        go = moved & ~(np.abs(err) < 1e-16)
        out[idx[~go]] = t[~go]
        t, tau, s, lo, hi, err, idx = t[go], tau[go], s[go], lo[go], hi[go], err[go], idx[go]
        if not idx.size:
            return out
        state = t, lo, hi
        above = err > 0.0
        hi, lo = np.where(above, t, hi), np.where(above, lo, t)
        step = t - err / _normalized_slope(t, s)
        t = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        moved = (t != state[0]) | (lo != state[1]) | (hi != state[2])
    out[idx] = t
    return out


def _points(v) -> np.ndarray:
    """A float or a 1-D array of them as a 1-D float array; DomainError
    for an array of more dimensions."""
    points = np.atleast_1d(np.asarray(v, dtype=float))
    if points.ndim > 1:
        raise DomainError(f"points must be a float or a 1-D array, got shape {points.shape}")
    return points


def _like(x, values: np.ndarray):
    """values for an array x; for a float x, its one element as a Python scalar."""
    return values if np.ndim(x) else values[0].item()


def _pointwise(method):
    """Let a method written for a 1-D float array also take a float, which
    runs through the array body as a one-element array."""

    @functools.wraps(method)
    def on_points(self, x):
        return _like(x, method(self, _points(x)))

    return on_points


@dataclass
class BowenSystem:
    """Base map on [b, a] plus the spliced interval map around it.

    Every map takes a float or a 1-D array of points and runs one array
    body; the per-point code is kept in tests/oracles.py as the oracle
    of the parity tests.
    """

    cc: CantorConstruction
    m: LorenzBranchMap = field(init=False)
    fb: float = field(init=False)
    _jump: int = field(init=False, repr=False)

    def __post_init__(self):
        self.m = self.cc.source_map
        self.fb = branch_value(self.m.c, self.m.b)
        # the walks stop at the first level whose intervals are shorter than
        # _TOL and read its gaps, the narrowest they meet; a gap narrower
        # than the spacing of doubles at a can round to a point, and a zero
        # source gap makes GapDiffeo's mean slope infinite
        length, n = 2.0 * self.m.a, 0
        while length >= _TOL:
            length, n = 0.5 * length - self.cc.half_gap(n), n + 1
        if 2.0 * self.cc.half_gap(n) < np.spacing(self.m.a):
            raise InvalidParameterError(
                f"gap exponent {self.cc.gaps.exponent} is too large: the base-map walks "
                f"reach level {n}, whose gaps ({2.0 * self.cc.half_gap(n):.3g} long) are "
                f"narrower than the spacing of doubles at a = {self.m.a:.6g}"
            )
        # the jump's deepest probe cells, at level jump + 1, stay two levels
        # above _TOL, so no walk level it skips or enters at goes affine
        self._jump = max(0, min(JUMP, n - 3))

    # -- base map -----------------------------------------------------------

    def _walks(self, xs: np.ndarray, forward: bool):
        """Walk the paired trees (source I_{0w}, target I_w) toward every
        point of xs at once: one lookup for the first levels, then level
        by level.

        The points lie in the probe tree: the source tree for the base map
        (forward), the target tree for its inverse.  The other tree is the
        partner; both descend in lockstep, the source one level below the
        target, with the half gaps from the construction's half_gap.  A
        point that snaps to a probe endpoint takes the partner endpoint
        and slope exactly 2; once its probe interval is below _TOL it
        takes the affine partner-over-probe interpolation and that
        interval-length ratio as slope.

        Walk levels 0..jump-1 are one searchsorted into the level arrays,
        whose cells are the walk's probe and partner intervals bit for
        bit.  With i the last probe cell whose lo is below x: x at or past
        hi[i] lies in the closed gap up to lo[i + 1].  Every other point
        enters the level loop at cell i.

        Returns the values and slopes, the indices of the points in closed
        probe gaps, and one GapDiffeo over the gaps of all levels, which
        the caller applies once.
        """
        cc, jump = self.cc, self._jump
        cells = 2 ** jump
        source = tuple(v[cells:] for v in cc.level(jump + 1))  # the I_{0w} with |w| = jump
        target = cc.level(jump)
        (plos, phis), (qlos, qhis), dp, dq = (
            (source, target, 1, 0) if forward else (target, source, 0, 1))
        i = np.searchsorted(plos[1:], xs)  # the last cell whose lo is below x; 0 at the root's lo
        hit = (xs >= phis[i]) & (i < cells - 1)  # per point: whether it lies in a probe gap
        ends = np.empty((4, xs.size))  # per point in a gap: the probe and partner gap ends
        g = i[hit]
        ends[:, hit] = phis[g], plos[g + 1], qhis[g], qlos[g + 1]
        out, slope = np.empty_like(xs), np.empty_like(xs)
        idx = np.flatnonzero(~hit)
        i = i[idx]
        x, plo, phi, qlo, qhi = xs[idx], plos[i], phis[i], qlos[i], qhis[i]
        n = jump
        while idx.size:
            deep = phi - plo < _TOL
            at_lo = x - plo <= _SNAP
            at_hi = phi - x <= _SNAP
            glo, ghi = cc._gap_from(plo, phi, n + dp)
            tlo, thi = cc._gap_from(qlo, qhi, n + dq)
            gap = (glo <= x) & (x <= ghi)
            stop = deep | at_lo | at_hi | gap
            if stop.any():
                if deep.any():
                    k = idx[deep]
                    slope[k] = (qhi[deep] - qlo[deep]) / (phi[deep] - plo[deep])
                    out[k] = qlo[deep] + (x[deep] - plo[deep]) * (qhi[deep] - qlo[deep]) / (
                        phi[deep] - plo[deep])
                at_lo &= ~deep
                at_hi &= ~(deep | at_lo)
                gap &= ~(deep | at_lo | at_hi)
                out[idx[at_lo]], out[idx[at_hi]] = qlo[at_lo], qhi[at_hi]
                slope[idx[at_lo | at_hi]] = 2.0
                k = idx[gap]
                hit[k] = True
                ends[:, k] = glo[gap], ghi[gap], tlo[gap], thi[gap]
                go = ~stop
                x, plo, phi, qlo, qhi, glo, ghi, tlo, thi, idx = (
                    v[go] for v in (x, plo, phi, qlo, qhi, glo, ghi, tlo, thi, idx))
            right = x > ghi
            plo, phi = np.where(right, ghi, plo), np.where(right, phi, glo)
            qlo, qhi = np.where(right, thi, qlo), np.where(right, qhi, tlo)
            n += 1
        gap = np.flatnonzero(hit)
        plo, phi, qlo, qhi = ends[:, gap]
        source, target = ((plo, phi), (qlo, qhi)) if forward else ((qlo, qhi), (plo, phi))
        return out, slope, gap, GapDiffeo(source=source, target=target)

    @_pointwise
    def base_value(self, xs):
        """B(x) for x in [b, a]: shifted address, evaluated to depth _TOL."""
        self._check_core(xs)
        out, _, gap, diffeo = self._walks(xs, forward=True)
        out[gap] = diffeo.value(xs[gap])
        return out

    @_pointwise
    def base_derivative(self, xs):
        """B'(x): the gap profile inside gaps, exactly 2 at tree endpoints,
        and the interval-length ratio (tending to 2) deep on the Cantor set."""
        self._check_core(xs)
        _, slope, gap, diffeo = self._walks(xs, forward=True)
        slope[gap] = diffeo.derivative(xs[gap])
        return slope

    @_pointwise
    def base_invert(self, vs):
        """Inverse of the base map on [-a, a]: the inverse walk, then one
        Newton-bisection over the gap hits of every level."""
        self._check_target(vs)
        out, _, gap, diffeo = self._walks(vs, forward=False)
        out[gap] = diffeo.invert(vs[gap])
        return out

    def _check_core(self, xs) -> None:
        _check_within(xs, self.m.b, self.m.a, "x", "the core interval [b, a]")

    def _check_target(self, vs) -> None:
        _check_within(vs, -self.cc.half_width, self.cc.half_width, "v", "[-a, a]")

    # -- spliced map ----------------------------------------------------------

    def _in_left_surgery(self, x):
        """Whether x (a float or an array) lies in the closed zone [f(b), -a]."""
        return (self.fb - _SNAP <= x) & (x <= -self.m.a + _SNAP)

    def _core_preimage(self, x):
        """Analytic right-branch preimage in [b, a] of x clamped to [f(b), -a]."""
        c, a = self.m.c, self.m.a
        t = (np.minimum(np.clip(x, self.fb, -a), c - 1.0) + 1.0) / c
        return np.clip(t * t, self.m.b, a)

    def _surgery(self, x):
        """h(x) = B applied to the analytic right-branch preimage of x."""
        return self.base_value(self._core_preimage(x))

    @_pointwise
    def modified_value(self, xs):
        """The spliced map: analytic outside [f(b), -a] u [a, -f(b)],
        h on the left zone, odd reflection -h(-x) on the right zone."""
        if (xs == 0.0).any():
            raise SingularityError("spliced map is undefined at x = 0")
        bad = ~(np.abs(xs) <= 1.0)  # also rejects NaN
        if bad.any():
            raise DomainError(f"x = {xs[bad][0]} outside [-1, 1]")
        c, root = self.m.c, np.sqrt(np.abs(xs))
        out = np.where(xs > 0.0, c * root - 1.0, -c * root + 1.0)
        left = self._in_left_surgery(xs)
        zone = left | self._in_left_surgery(-xs)
        if zone.any():  # h on the left zone, -h(-x) on the right one, in one base-map call
            sign = np.where(left, 1.0, -1.0)[zone]
            out[zone] = sign * self._surgery(sign * xs[zone])
        return out

    def second_iterate(self, x):
        return self.modified_value(self.modified_value(x))

    @_pointwise
    def invert_right(self, ys):
        """Inverse of the spliced map's right branch on (-1, f(1)].

        Analytic for |y| > a; for y in [-a, a] the branch runs through the
        reflected surgery, so x = -f(B^{-1}(-y)).  The three preimages that
        are derived constants (of -a, a and f(b)) are returned exactly, so
        corner identities survive repeated composition.
        """
        c, a, fb = self.m.c, self.m.a, self.fb
        bad = ~((-1.0 < ys) & (ys <= (c - 1.0) + 1e-12))  # also rejects NaN
        if bad.any():
            raise DomainError(f"y = {ys[bad][0]} outside the right-branch range")
        t = (np.minimum(ys, c - 1.0) + 1.0) / c
        out = t * t
        core = (-a < ys) & (ys < a)
        if core.any():
            out[core] = -(c * np.sqrt(self.base_invert(-ys[core])) - 1.0)
        snaps = [np.abs(ys + a) <= _SNAP, np.abs(ys - a) <= _SNAP, np.abs(ys - fb) <= _SNAP]
        return np.select(snaps, [a, -fb, self.m.b], out)

    @_pointwise
    def core_second_derivative(self, xs):
        """(f^2)'(x) for x in [b, a]: the chain f'(x) h'(f(x)).

        One-sided at the endpoints: on [b, a] the spliced map is the
        analytic branch (the right surgery zone only touches at a), and
        its image [f(b), -a] lies in the left surgery zone, so the
        second factor is always the h-branch derivative.
        """
        self._check_core(xs)
        c = self.m.c
        fx, slope = c * np.sqrt(xs) - 1.0, c / (2.0 * np.sqrt(xs))  # f and f' on x > 0
        u = self._core_preimage(fx)
        return slope * self.base_derivative(u) / (c / (2.0 * np.sqrt(u)))


def _check_within(xs, lo: float, hi: float, name: str, where: str) -> None:
    """Raise unless every point of xs (a float or an array) lies in [lo, hi]."""
    for x in (np.min(xs), np.max(xs)) if np.size(xs) else ():  # a NaN reaches both
        if not lo <= x <= hi:
            raise DomainError(f"{name} = {x} outside {where}")


def build_base_map(cc: CantorConstruction) -> BowenSystem:
    return BowenSystem(cc=cc)


@dataclass(frozen=True)
class SurgeryLevel:
    n: int
    sup_dev: float
    expected_dev: float
    formula_err: float
    words_sampled: int


@dataclass(frozen=True)
class SurgeryReport:
    levels: tuple[SurgeryLevel, ...]
    endpoint_count: int
    endpoint_max_dev: float
    splice_margins: dict[str, float]
    min_increment: float
    max_grid_jump: float
    grid_size: int

    @property
    def min_sup_drop(self) -> float:
        """Smallest sup_dev(n) - sup_dev(n + 1) over n >= 1; inf with no pair."""
        devs = [lv.sup_dev for lv in self.levels]
        return min((d1 - d2 for d1, d2 in zip(devs[1:], devs[2:])), default=math.inf)


def _sample_words(n: int) -> list[str]:
    if n == 0:
        return [""]
    if n <= 3:
        return [format(i, f"0{n}b") for i in range(2 ** n)]
    picks = {
        "0" * n,
        "1" * n,
        ("01" * n)[:n],
        ("10" * n)[:n],
        ("0011" * n)[:n],
        "1" + "0" * (n - 1),
    }
    return sorted(picks)


def verify_surgery(sys: BowenSystem, max_level: int, monotone_grid: int = 100_000) -> SurgeryReport:
    """Measure the three surgery conditions plus splice continuity.

    Per gap level n: the sampled sup of |2 - (f^2)'| over source gaps,
    compared against the exact profile deviation 2(s_n - 2).  Tree
    endpoints down to max_level must have (f^2)' = 2.  The spliced map's
    jumps at the four splice abscissas and its smallest step per branch
    on a dense grid (positive when it is increasing) are reported.

    Gap lengths shrink like 2^-n, so the slope ratio taken from endpoint
    differences loses about one digit per two levels, faster for larger
    gap exponents.  Through level 10 the largest formula error is 1.0e-10
    at (c, p) = (1.8, 2) and 1.8e-10 at (1.8, 2.5), but 2.2e-9 at
    (1.95, 3), which the config admits and which fails the run's 1e-9
    bound (ROADMAP item 2: closed-form gap slopes).  The deviation values
    themselves stay fine.
    """
    check_depth(max_level, LEVEL_ARRAY_CAP - 1, "surgery level")
    check_depth(monotone_grid, math.inf, "monotone grid")
    if monotone_grid < 2:
        raise DomainError(f"monotone grid needs at least 2 points, got {monotone_grid}")
    cc, gaps = sys.cc, sys.cc.gaps
    ts = np.arange(21) / 20.0

    # the source gap of I_{0w} is removed at level |w| + 1, at cell word_cell(w) of
    # that level's right half.  Each level's gaps are computed once: the sampled
    # words pick theirs, and the ends of levels 1..max_level with b and a are the
    # endpoints (distinct, the gaps being disjoint), so all go through one call
    source_gaps = []
    for n in range(1, max_level + 2):
        lo, hi = cc.level(n)
        source_gaps.append(cc._gap_from(lo[2 ** (n - 1):], hi[2 ** (n - 1):], n))
    words = [_sample_words(n) for n in range(max_level + 1)]
    points = []
    for (glo, ghi), ws in zip(source_gaps, words):
        cells = [word_cell(w) for w in ws]
        glo, ghi = glo[cells], ghi[cells]
        points.append(glo[:, None] + ts * (ghi - glo)[:, None])
    endpoints = np.concatenate([[sys.m.b, sys.m.a], *source_gaps[:-1]], axis=None)
    devs = np.abs(2.0 - sys.core_second_derivative(np.concatenate([*points, endpoints], axis=None)))
    devs, endpoint_devs = devs[:-endpoints.size].reshape(-1, ts.size), devs[-endpoints.size:]
    levels = []
    for n, level_devs in enumerate(np.split(devs, np.cumsum([len(ws) for ws in words])[:-1])):
        s_n = 2.0 * gaps.length(n) / gaps.length(n + 1)
        expected = 2.0 * (s_n - 2.0)
        sup_dev = float(level_devs.max(initial=0.0))
        levels.append(
            SurgeryLevel(
                n=n,
                sup_dev=sup_dev,
                expected_dev=expected,
                formula_err=abs(sup_dev - expected),
                words_sampled=len(words[n]),
            )
        )

    endpoint_max = float(endpoint_devs.max())

    a, fb = sys.m.a, sys.fb
    h_fb, h_a = sys._surgery(np.array([fb, -a])).tolist()
    margins = {
        "f(b)": abs(branch_value(sys.m.c, fb) - h_fb),
        "-a": abs(branch_value(sys.m.c, -a) - h_a),
        "a": abs(branch_value(sys.m.c, a) - (-h_a)),
        "-f(b)": abs(branch_value(sys.m.c, -fb) - (-h_fb)),
    }

    xs = np.linspace(1.0 / monotone_grid, 1.0, monotone_grid)
    pos = sys.modified_value(xs)
    neg = sys.modified_value(-xs[::-1])
    dpos, dneg = np.diff(pos), np.diff(neg)
    max_jump = float(max(np.max(np.abs(dpos)), np.max(np.abs(dneg))))

    return SurgeryReport(
        levels=tuple(levels),
        endpoint_count=endpoints.size,
        endpoint_max_dev=endpoint_max,
        splice_margins=margins,
        min_increment=float(min(dpos.min(), dneg.min())),
        max_grid_jump=max_jump,
        grid_size=monotone_grid,
    )
