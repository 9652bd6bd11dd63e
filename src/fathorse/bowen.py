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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError, SizeGuardError
from .fatcantor import LEVEL_ARRAY_CAP, CantorConstruction
from .lorenz import LorenzBranchMap

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
_TWO_PI = 2.0 * math.pi


def _sin(t):
    return np.sin(t) if isinstance(t, np.ndarray) else math.sin(t)


def _cos(t):
    return np.cos(t) if isinstance(t, np.ndarray) else math.cos(t)


@dataclass(frozen=True)
class GapDiffeo:
    """Orientation-preserving diffeomorphism between two centered gaps.

    Normalized source coordinate t in [0, 1]; the derivative profile is
    phi(t) = 2 + 2 (s - 2) sin^2(pi t) with s the mean slope, so both
    endpoint slopes are exactly 2 and the integral of phi is s, which
    makes the image cover the target gap exactly.  `value` and `invert`
    also take arrays, with one source and target gap per point.
    """

    level: int
    source: tuple[float, float]
    target: tuple[float, float]

    @property
    def mean_slope(self) -> float:
        return (self.target[1] - self.target[0]) / (self.source[1] - self.source[0])

    def _t(self, x: float) -> float:
        return (x - self.source[0]) / (self.source[1] - self.source[0])

    def value(self, x: float) -> float:
        t = self._t(x)
        return self.target[0] + (self.target[1] - self.target[0]) * _integral(t, self.mean_slope)

    def derivative(self, x: float) -> float:
        s = self.mean_slope
        t = self._t(x)
        return 2.0 + (s - 2.0) * (1.0 - math.cos(_TWO_PI * t))

    def invert(self, y: float) -> float:
        """Newton with a bisection bracket on the normalized coordinate.

        It stops at |err| < 1e-16, or at a step that leaves (t, lo, hi)
        unchanged: the step is a pure function of that state, so the rest
        of the 80-step budget would change no bit.  On arrays each element
        follows the scalar iteration and leaves it where the scalar breaks.
        """
        s = self.mean_slope
        tau = (y - self.target[0]) / (self.target[1] - self.target[0])
        if isinstance(tau, np.ndarray):
            t = _invert_profile(s, tau)
        else:
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
        return self.source[0] + (self.source[1] - self.source[0]) * t


def _integral(t, s):
    """Integral of phi over [0, t] divided by the mean slope s, so 1 at t = 1."""
    return (2.0 * t + (s - 2.0) * (t - _sin(_TWO_PI * t) / _TWO_PI)) / s


def _normalized_slope(t, s):
    return (2.0 + (s - 2.0) * (1.0 - _cos(_TWO_PI * t))) / s


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


@dataclass
class BowenSystem:
    """Base map on [b, a] plus the spliced interval map around it."""

    cc: CantorConstruction
    m: LorenzBranchMap = field(init=False)
    fb: float = field(init=False)

    def __post_init__(self):
        self.m = self.cc.source_map
        self.fb = self.m.value(self.m.b)

    # -- base map -----------------------------------------------------------

    def gap_diffeo(self, word: str) -> GapDiffeo:
        return GapDiffeo(level=len(word), source=self.cc.gap("0" + word), target=self.cc.gap(word))

    def _walk(self, x: float, forward: bool):
        """Walk the paired trees (source I_{0w}, target I_w) toward x.

        x lies in the probe tree: the source tree for the base map
        (forward), the target tree for its inverse.  The other tree is the
        partner; both descend in lockstep, the source one level below the
        target.  Returns ('endpoint', partner endpoint) when x snaps to a
        probe endpoint, ('gap', diffeo) when x falls in a closed probe gap,
        or ('deep', value, slope) once the probe interval is below _TOL,
        with the affine partner-over-probe interpolation at x.
        """
        cc = self.cc
        source, target = cc.interval("0"), cc.interval("")
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
                return ("gap", GapDiffeo(level=n, source=source, target=target))
            if x > gp[1]:
                plo, qlo = gp[1], gq[1]
            else:
                phi, qhi = gp[0], gq[0]
            n += 1
        return ("deep", qlo + (x - plo) * (qhi - qlo) / (phi - plo), (qhi - qlo) / (phi - plo))

    def base_value(self, x: float) -> float:
        """B(x) for x in [b, a]: shifted address, evaluated to depth _TOL."""
        self._check_core(x)
        kind, leaf, *_ = self._walk(x, forward=True)
        return leaf.value(x) if kind == "gap" else leaf

    def base_values(self, xs: np.ndarray) -> np.ndarray:
        """B on an array of points in [b, a], bit-equal to base_value."""
        xs = np.asarray(xs, dtype=float)
        if xs.size:  # the extremes decide, and a NaN reaches both
            self._check_core(float(xs.min()))
            self._check_core(float(xs.max()))
        out, gap, diffeo = self._walks(xs, forward=True)
        out[gap] = diffeo.value(xs[gap])
        return out

    def _walks(self, xs: np.ndarray, forward: bool):
        """_walk for every point of an array at once, level by level.

        The same endpoint snap, closed-gap test and deep affine tail, with
        the half gaps read from the construction's per-level table.
        Returns the values of the endpoint and deep points, the indices of
        the points in gaps, and one GapDiffeo over the gaps of all levels,
        which the caller applies once.
        """
        cc = self.cc
        out = np.empty_like(xs)
        (plo, phi), (qlo, qhi), dp, dq = (
            (cc.interval("0"), cc.interval(""), 1, 0) if forward
            else (cc.interval(""), cc.interval("0"), 0, 1)
        )
        # rows: x, probe interval (plo, phi), partner interval (qlo, qhi)
        state = np.array([xs, np.full_like(xs, plo), np.full_like(xs, phi),
                          np.full_like(xs, qlo), np.full_like(xs, qhi)])
        idx = np.arange(xs.size)
        # per point in a gap: its level and the probe and partner gap ends
        levels, ends = np.full(xs.size, -1), np.empty((4, xs.size))
        n = 0
        while idx.size:
            x, plo, phi, qlo, qhi = state
            deep = phi - plo < _TOL
            out[idx[deep]] = (qlo + (x - plo) * (qhi - qlo) / (phi - plo))[deep]
            at_lo = ~deep & (np.abs(x - plo) <= _SNAP)
            out[idx[at_lo]] = qlo[at_lo]
            at_hi = ~deep & ~at_lo & (np.abs(x - phi) <= _SNAP)
            out[idx[at_hi]] = qhi[at_hi]
            glo, ghi = cc._gap_from(plo, phi, n + dp)
            tlo, thi = cc._gap_from(qlo, qhi, n + dq)
            walking = ~(deep | at_lo | at_hi)
            gap = walking & (glo <= x) & (x <= ghi)
            levels[idx[gap]] = n
            ends[:, idx[gap]] = np.array([glo, ghi, tlo, thi])[:, gap]
            right = x > ghi
            state = np.array([x, np.where(right, ghi, plo), np.where(right, phi, glo),
                              np.where(right, thi, qlo), np.where(right, qhi, tlo)])
            walking &= ~gap
            state, idx = state[:, walking], idx[walking]
            n += 1
        gap = np.flatnonzero(levels >= 0)
        plo, phi, qlo, qhi = ends[:, gap]
        source, target = ((plo, phi), (qlo, qhi)) if forward else ((qlo, qhi), (plo, phi))
        return out, gap, GapDiffeo(level=levels[gap], source=source, target=target)

    def base_derivative(self, x: float) -> float:
        """B'(x): the gap profile inside gaps, exactly 2 at tree endpoints,
        and the interval-length ratio (tending to 2) deep on the Cantor set."""
        self._check_core(x)
        kind, *leaf = self._walk(x, forward=True)
        if kind == "endpoint":
            return 2.0
        if kind == "gap":
            return leaf[0].derivative(x)
        return leaf[1]

    def base_invert(self, v: float) -> float:
        """Inverse of the base map, descending the shifted address tree."""
        self._check_target(v)
        kind, leaf, *_ = self._walk(v, forward=False)
        return leaf.invert(v) if kind == "gap" else leaf

    def base_inverts(self, vs: np.ndarray) -> np.ndarray:
        """The inverse base map on an array of points in [-a, a], bit-equal
        to base_invert: the inverse walk of _walks, then one Newton-bisection
        over the gap hits of every level."""
        vs = np.asarray(vs, dtype=float)
        if vs.size:
            self._check_target(float(vs.min()))
            self._check_target(float(vs.max()))
        out, gap, diffeo = self._walks(vs, forward=False)
        out[gap] = diffeo.invert(vs[gap])
        return out

    def _check_core(self, x: float) -> None:
        if not self.m.b <= x <= self.m.a:
            raise DomainError(f"x = {x} outside the core interval [b, a]")

    def _check_target(self, v: float) -> None:
        a = self.cc.half_width
        if not -a <= v <= a:
            raise DomainError(f"v = {v} outside [-a, a]")

    # -- spliced map ----------------------------------------------------------

    def _in_left_surgery(self, x):
        """Whether x (a float or an array) lies in the closed zone [f(b), -a]."""
        return (self.fb - _SNAP <= x) & (x <= -self.m.a + _SNAP)

    def _core_preimage(self, x: float) -> float:
        """Analytic right-branch preimage in [b, a] of x clamped to [f(b), -a]."""
        u = self.m.invert_right(min(max(x, self.fb), -self.m.a))
        return min(max(u, self.m.b), self.m.a)

    def _surgery(self, x: float) -> float:
        """h(x) = B applied to the analytic right-branch preimage of x."""
        return self.base_value(self._core_preimage(x))

    def modified_value(self, x: float) -> float:
        """The spliced map: analytic outside [f(b), -a] u [a, -f(b)],
        h on the left zone, odd reflection -h(-x) on the right zone."""
        if x == 0.0:
            raise SingularityError("spliced map is undefined at x = 0")
        if abs(x) > 1.0:
            raise DomainError(f"x = {x} outside [-1, 1]")
        if self._in_left_surgery(x):
            return self._surgery(x)
        if self._in_left_surgery(-x):
            return -self._surgery(-x)
        return self.m.value(x)

    def modified_values(self, xs: np.ndarray) -> np.ndarray:
        """The spliced map on an array of points, bit-equal to modified_value."""
        xs = np.asarray(xs, dtype=float)
        if (xs == 0.0).any():
            raise SingularityError("spliced map is undefined at x = 0")
        if (np.abs(xs) > 1.0).any():
            raise DomainError(f"x = {xs[np.abs(xs) > 1.0][0]} outside [-1, 1]")
        c, root = self.m.c, np.sqrt(np.abs(xs))
        out = np.where(xs > 0.0, c * root - 1.0, -c * root + 1.0)
        left = self._in_left_surgery(xs)
        right = ~left & self._in_left_surgery(-xs)
        out[left] = self._surgery_values(xs[left])
        out[right] = -self._surgery_values(-xs[right])
        return out

    def _surgery_values(self, xs: np.ndarray) -> np.ndarray:
        """h on an array: _core_preimage then B, as in _surgery."""
        c, a = self.m.c, self.m.a
        t = (np.minimum(np.clip(xs, self.fb, -a), c - 1.0) + 1.0) / c
        return self.base_values(np.clip(t * t, self.m.b, a))

    def second_iterates(self, xs: np.ndarray) -> np.ndarray:
        return self.modified_values(self.modified_values(xs))

    def invert_right(self, y: float) -> float:
        """Inverse of the spliced map's right branch on (-1, f(1)].

        Analytic for |y| > a; for y in [-a, a] the branch runs through the
        reflected surgery, so x = -f(B^{-1}(-y)).  The three preimages that
        are derived constants (of -a, a and f(b)) are returned exactly, so
        corner identities survive repeated composition.
        """
        if y <= -1.0 or y > (self.m.c - 1.0) + 1e-12:
            raise DomainError(f"y = {y} outside the right-branch range")
        a = self.m.a
        if abs(y + a) <= _SNAP:
            return a
        if abs(y - a) <= _SNAP:
            return -self.fb
        if abs(y - self.fb) <= _SNAP:
            return self.m.b
        if -a < y < a:
            return -self.m.value(self.base_invert(-y))
        return self.m.invert_right(y)

    def invert_rights(self, ys: np.ndarray) -> np.ndarray:
        """invert_right on an array, bit-equal to it: the analytic branch,
        the reflected surgery through base_inverts on (-a, a), and the
        three snapped constants."""
        ys = np.asarray(ys, dtype=float)
        c, a, fb = self.m.c, self.m.a, self.fb
        bad = (ys <= -1.0) | (ys > (c - 1.0) + 1e-12)
        if bad.any():
            raise DomainError(f"y = {ys[bad][0]} outside the right-branch range")
        t = (np.minimum(ys, c - 1.0) + 1.0) / c
        out = t * t
        core = (-a < ys) & (ys < a)
        out[core] = -(c * np.sqrt(self.base_inverts(-ys[core])) - 1.0)
        snaps = [np.abs(ys + a) <= _SNAP, np.abs(ys - a) <= _SNAP, np.abs(ys - fb) <= _SNAP]
        return np.select(snaps, [a, -fb, self.m.b], out)

    def second_iterate(self, x: float) -> float:
        return self.modified_value(self.modified_value(x))

    def core_second_derivative(self, x: float) -> float:
        """(f^2)'(x) for x in [b, a]: the chain f'(x) h'(f(x)).

        One-sided at the endpoints: on [b, a] the spliced map is the
        analytic branch (the right surgery zone only touches at a), and
        its image [f(b), -a] lies in the left surgery zone, so the
        second factor is always the h-branch derivative.
        """
        self._check_core(x)
        u = self._core_preimage(self.m.value(x))
        return self.m.derivative(x) * self.base_derivative(u) / self.m.derivative(u)


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
    monotone_ok: bool
    max_grid_jump: float
    grid_size: int

    @property
    def sup_strictly_decreasing(self) -> bool:
        devs = [lv.sup_dev for lv in self.levels]
        return all(d2 < d1 for d1, d2 in zip(devs[1:], devs[2:]))

    @property
    def checks(self) -> tuple[tuple[str, float, float, bool], ...]:
        """One (id, value, bound, pass) record per surgery condition."""
        formula_err = max(lv.formula_err for lv in self.levels)
        splice = max(self.splice_margins.values())
        endpoint = self.endpoint_max_dev
        decreasing = self.sup_strictly_decreasing
        return (
            ("surgery_sup_formula", formula_err, 1e-9, formula_err <= 1e-9),
            ("surgery_endpoint_slope", endpoint, 1e-9, endpoint <= 1e-9),
            ("surgery_splice_continuity", splice, 1e-10, splice <= 1e-10),
            ("surgery_monotone", float(self.monotone_ok), 1.0, self.monotone_ok),
            ("surgery_sup_decreasing", float(decreasing), 1.0, decreasing),
        )

    @property
    def all_pass(self) -> bool:
        return all(ok for *_, ok in self.checks)


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
    """Check the three surgery conditions plus splice continuity.

    Per gap level n: the sampled sup of |2 - (f^2)'| over source gaps,
    compared against the exact profile deviation 2(s_n - 2).  Tree
    endpoints down to max_level must have (f^2)' = 2.  The spliced map is
    checked for continuity at the four splice abscissas and monotonicity
    per branch on a dense grid.

    Gap lengths shrink like 2^-n, so the slope ratio taken from endpoint
    differences loses about one digit per two levels; the formula
    comparison is reliable to 1e-9 through level 11 or so and degrades
    gently beyond (the deviation values themselves stay fine).
    """
    if max_level > LEVEL_ARRAY_CAP:
        raise SizeGuardError(f"surgery verification capped at level {LEVEL_ARRAY_CAP}")
    gaps = sys.cc.gaps
    ts = [i / 20.0 for i in range(21)]

    levels = []
    for n in range(max_level + 1):
        s_n = 2.0 * gaps.length(n) / gaps.length(n + 1)
        expected = 2.0 * (s_n - 2.0)
        sup_dev = 0.0
        words = _sample_words(n)
        for w in words:
            glo, ghi = sys.cc.gap("0" + w)
            for t in ts:
                x = glo + t * (ghi - glo)
                dev = abs(2.0 - sys.core_second_derivative(x))
                sup_dev = max(sup_dev, dev)
        levels.append(
            SurgeryLevel(
                n=n,
                sup_dev=sup_dev,
                expected_dev=expected,
                formula_err=abs(sup_dev - expected),
                words_sampled=len(words),
            )
        )

    endpoints = {sys.m.b, sys.m.a}
    for n in range(1, max_level + 1):  # source gaps: the right half of each level
        lo, hi = sys.cc.level(n)
        glo, ghi = sys.cc._gap_from(lo[2 ** (n - 1):], hi[2 ** (n - 1):], n)
        endpoints.update(glo.tolist() + ghi.tolist())
    endpoint_max = max(abs(2.0 - sys.core_second_derivative(x)) for x in endpoints)

    a, fb = sys.m.a, sys.fb
    margins = {
        "f(b)": abs(sys.m.value(fb) - sys._surgery(fb)),
        "-a": abs(sys.m.value(-a) - sys._surgery(-a)),
        "a": abs(sys.m.value(a) - (-sys._surgery(-a))),
        "-f(b)": abs(sys.m.value(-fb) - (-sys._surgery(fb))),
    }

    xs = np.linspace(1.0 / monotone_grid, 1.0, monotone_grid)
    pos = sys.modified_values(xs)
    neg = sys.modified_values(-xs[::-1])
    dpos, dneg = np.diff(pos), np.diff(neg)
    monotone_ok = bool(np.all(dpos > 0.0) and np.all(dneg > 0.0))
    max_jump = float(max(np.max(np.abs(dpos)), np.max(np.abs(dneg))))

    return SurgeryReport(
        levels=tuple(levels),
        endpoint_count=len(endpoints),
        endpoint_max_dev=endpoint_max,
        splice_margins=margins,
        monotone_ok=monotone_ok,
        max_grid_jump=max_jump,
        grid_size=monotone_grid,
    )
