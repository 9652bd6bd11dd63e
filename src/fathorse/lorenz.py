"""Odd square-root interval maps with a single singularity at the origin.

The family is f(x) = c*sqrt(x) - 1 for x > 0, extended oddly to x < 0,
with branch coefficient c in (1, 2].  Both branches are increasing, the
one-sided limits at 0 are -1 and +1, and the derivative is bounded below
by alpha = c/2 while blowing up at the origin.  Two derived constants
drive everything downstream: the positive fixed point a of the second
iterate (f(a) = -a) and the point b in (0, a) with f(f(b)) = -a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError, SingularityError

__all__ = ["LorenzBranchMap", "branch_value"]


def branch_value(c: float, x: float) -> float:
    """Evaluate the map at x in [-1, 1] \\ {0}."""
    if x == 0.0:
        raise SingularityError("map is undefined at x = 0")
    if not abs(x) <= 1.0:  # also rejects NaN
        raise DomainError(f"x = {x} outside [-1, 1]")
    if x > 0.0:
        return c * math.sqrt(x) - 1.0
    return -c * math.sqrt(-x) + 1.0


@dataclass(frozen=True)
class LorenzBranchMap:
    """One member of the family, with its derived constants attached.

    c      branch coefficient in (1, 2]
    a      positive fixed point of the second iterate, f(a) = -a
    b      preimage constant, f(f(b)) = -a, 0 < b < a
    alpha  derivative lower bound c/2 on [-1, 1] away from 0
    """

    c: float
    a: float
    b: float
    alpha: float

    @classmethod
    def from_coefficient(cls, c: float) -> "LorenzBranchMap":
        """The map with coefficient c, with a = t^2 for t = (-c + sqrt(c^2 + 4))/2
        the positive root of t^2 + c t - 1 = 0, and b = s^2 for
        s = (1 - ((1+a)/c)^2)/c, so f(b) = -((1+a)/c)^2 maps to -a.

        InvalidParameterError for c outside (1, 2], for no such b in (0, a)
        (small coefficients push f(b) below -1), and unless f(1) > -f(b).
        """
        if not 1.0 < c <= 2.0:  # also rejects NaN
            raise InvalidParameterError(f"branch coefficient must lie in (1, 2], got {c}")
        t = (-c + math.sqrt(c * c + 4.0)) / 2.0
        a = t * t
        s = (1.0 - ((1.0 + a) / c) ** 2) / c
        if s <= 0.0:
            raise InvalidParameterError(f"no preimage constant for c = {c}: f(b) would fall below -1")
        b = s * s
        if c - 1.0 <= ((1.0 + a) / c) ** 2:
            raise InvalidParameterError(
                f"c = {c} rejected: requires f(1) > -f(b), "
                f"but {c - 1.0} <= {((1.0 + a) / c) ** 2}"
            )
        return cls(c=c, a=a, b=b, alpha=c / 2.0)
