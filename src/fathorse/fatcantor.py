"""Fat Cantor set built by removing centered gaps from [-a, a].

Level-n intervals are indexed by binary words.  Word w keeps the interval
I_w; the closed gap removed from its middle has length gap(n)/2^n where
n is the word length, and the right and left remainders become I_{w0}
and I_{w1}.  The tree is kept as (lo, hi) arrays per level, I_w at cell
word_cell(w); the word descent from [-a, a] in tests/oracles.py is their
oracle.  With gap lengths gap(n) = 2b/(n+1)^p, p > 1, the removed
total 2b*zeta(p) stays below 2a exactly when zeta(p) < a/b, and the
limit set keeps measure 2a - 2b*zeta(p) > 0.  Consecutive gap ratios
((n+1)/(n+2))^p increase to 1, which is what lets the downstream surgery
approach slope 2 uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError, InvalidParameterError, check_depth
from .lorenz import LorenzBranchMap

__all__ = [
    "GapLengthSequence",
    "CantorConstruction",
    "word_cell",
    "zeta_value",
    "make_construction",
]

LEVEL_MEASURE_CAP = 30
LEVEL_ARRAY_CAP = 15  # deepest level array; verify_surgery samples one level below its max_level
ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)  # B_2j/(2j)!, j = 1..5


def zeta_value(p: float) -> float:
    """zeta(p) for p > 1 by Euler-Maclaurin at M = 16, in one math.fsum.

    The sum holds k^-p for k = 1..15, the tail M^(1-p)/(p-1) + M^-p/2 and
    the corrections B_2j/(2j)! p(p+1)...(p+2j-2) M^(-p-2j+1), j = 1..5,
    each built from the one before.  The first omitted correction bounds
    the truncation: at most 7.7e-17 for every p > 1 (largest near p = 1.18),
    and zeta(p) > 1.  Near p = 1 the tail is almost all of zeta(p), so the
    rounding error of its quotient, exact from the operands' integer
    ratios, is a term of its own.  Where M^-p underflows the corrections
    stop at 0.0, before a rising factor overflows, and the sum is 1.0.
    """
    if not 1.0 < p < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"gap exponent must be finite and exceed 1, got {p}")
    m, q = 16.0, p - 1.0
    power = m ** -p
    head = m * power
    tail = head / q
    (hn, hd), (tn, td), (qn, qd) = (x.as_integer_ratio() for x in (head, tail, q))
    slip = (hn * td * qd - tn * qn * hd) / (hd * td * qd) / q  # (head - tail * q) / q
    terms = [k ** -p for k in range(1, 16)] + [tail, slip, 0.5 * power]
    term = power / m
    for j, coefficient in enumerate(ZETA_BERNOULLI):
        term *= p if j == 0 else (p + 2 * j - 1) * (p + 2 * j) / (m * m)
        if term == 0.0:
            break
        terms.append(coefficient * term)
    return math.fsum(terms)


@dataclass(frozen=True)
class GapLengthSequence:
    """Removed-gap lengths gap(n) = first_length / (n+1)^p."""

    first_length: float
    exponent: float

    def __post_init__(self):
        if not 1.0 < self.exponent < math.inf:  # also rejects NaN
            raise InvalidParameterError(
                f"gap exponent must be finite and exceed 1, got {self.exponent}"
            )
        if not 0.0 < self.first_length < math.inf:  # also rejects NaN
            raise InvalidParameterError(
                f"first gap length must be finite and positive, got {self.first_length}")

    def length(self, n: int) -> float:
        try:
            return self.first_length / (n + 1.0) ** self.exponent
        except OverflowError:  # (n+1)^p past the doubles: shorter than any gap a run resolves
            return 0.0

    def partial_sum(self, count: int) -> float:
        return math.fsum(self.length(n) for n in range(count))

    def total(self) -> float:
        return self.first_length * zeta_value(self.exponent)


def word_cell(word: str) -> int:
    """Position of I_word in level(len(word)), where letter 0 is the right child."""
    return 2 ** len(word) - 1 - int("0" + word, 2)


@dataclass
class CantorConstruction:
    """Word-indexed interval tree on [-a, a] with centered gaps removed.

    The level arrays are the tree's only store and its only read path:
    they grow to the deepest level asked for, and I_w is cell
    word_cell(w) of level(len(w)).
    """

    half_width: float
    gaps: GapLengthSequence
    source_map: LorenzBranchMap
    _levels: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, repr=False)

    def level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The 2^n level-n intervals as read-only (lo, hi) arrays, left to right.

        The children of (lo, hi) are (lo, gap_lo), the word + "1", and
        (gap_hi, hi), the word + "0".
        """
        check_depth(n, LEVEL_ARRAY_CAP)
        levels = self._levels
        while len(levels) <= n:
            if levels:
                lo, hi = levels[-1]
                glo, ghi = self._gap_from(lo, hi, len(levels) - 1)
                lo, hi = np.column_stack((lo, ghi)).ravel(), np.column_stack((glo, hi)).ravel()
            else:
                lo, hi = np.array([-self.half_width]), np.array([self.half_width])
            lo.flags.writeable = hi.flags.writeable = False
            levels.append((lo, hi))
        return levels[n]

    def half_gap(self, level: int) -> float:
        """Half the length of every gap removed at this level, gap(n)/2^(n+1)."""
        return 0.5 * self.gaps.length(level) / 2.0 ** level

    def _gap_from(self, lo, hi, level: int):  # floats or arrays
        center = 0.5 * (lo + hi)
        half = self.half_gap(level)
        return center - half, center + half

    def level_measure(self, n: int) -> float:
        """Total length of the 2^n level-n intervals.

        All intervals at one level share one length, so the sum reduces to
        the per-level length recursion.
        """
        check_depth(n, LEVEL_MEASURE_CAP)
        length = 2.0 * self.half_width
        for j in range(n):
            length = (length - self.gaps.length(j) / 2.0 ** j) / 2.0
        return 2.0 ** n * length

    def limit_measure(self) -> float:
        return 2.0 * self.half_width - self.gaps.total()


def make_construction(m: LorenzBranchMap, p: float) -> CantorConstruction:
    """Build the construction for a branch map: a is the half-width and
    the first removed gap is exactly [-b, b].

    Raises FeasibilityError when the gap series would exceed the ambient
    length, i.e. unless zeta(p) < a/b.
    """
    gaps = GapLengthSequence(first_length=2.0 * m.b, exponent=p)
    z = zeta_value(p)
    ratio = m.a / m.b
    if z >= ratio:
        raise FeasibilityError(
            f"gap series too long: zeta({p}) = {z:.6f} >= a/b = {ratio:.6f}; "
            f"the construction needs zeta(p) < a/b"
        )
    return CantorConstruction(half_width=m.a, gaps=gaps, source_map=m)
