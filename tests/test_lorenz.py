import math
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import branch_derivative, right_branch_inverse

from fathorse import lorenz
from fathorse.errors import DomainError, InvalidParameterError, SingularityError
from fathorse.lorenz import LorenzBranchMap, branch_value


class TestBranchValue:
    def test_right_endpoint_c2(self):
        assert branch_value(2.0, 1.0) == 1.0

    def test_quarter_c2(self):
        assert branch_value(2.0, 0.25) == 0.0

    def test_left_endpoint(self):
        assert branch_value(1.8, -1.0) == pytest.approx(-0.8, abs=1e-15)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            branch_value(1.8, 0.0)

    def test_outside_interval(self):
        with pytest.raises(DomainError):
            branch_value(1.8, 1.5)

    def test_odd_symmetry_sampled(self):
        for i in range(1, 10_001):
            x = i / 10_000
            assert abs(branch_value(1.8, x) + branch_value(1.8, -x)) <= 1e-14


class TestDerivative:
    def test_values(self):
        assert branch_derivative(2.0, 0.25) == pytest.approx(2.0, abs=1e-15)
        assert branch_derivative(1.8, 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_blowup_near_zero(self):
        assert branch_derivative(2.0, 1e-12) > 1e5

    def test_singularity(self):
        with pytest.raises(SingularityError):
            branch_derivative(2.0, 0.0)


class TestRightBranchInverse:
    def test_values(self):
        assert right_branch_inverse(2.0, 0.0) == pytest.approx(0.25, abs=1e-15)
        assert right_branch_inverse(2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert right_branch_inverse(1.8, -0.8) == pytest.approx((0.2 / 1.8) ** 2, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            right_branch_inverse(1.8, 0.9)
        with pytest.raises(DomainError):
            right_branch_inverse(1.8, -1.0)

    @pytest.mark.parametrize("c", [1.7, 1.8, 2.0])
    def test_round_trip(self, c):
        worst = 0.0
        for i in range(10_000):
            y = -0.999 + (c - 1.0 + 0.999) * i / 9_999
            x = right_branch_inverse(c, y)
            worst = max(worst, abs(branch_value(c, x) - y))
        assert worst < 1e-12


# (a.hex(), b.hex()) per coefficient, so that any reordering of the
# derivation's floating-point operations shows
CONSTANT_BITS = {
    1.6: ("0x1.d916a7eb85c28p-3", "0x1.0a6c562976a3ep-4"),
    1.7: ("0x1.b5f79d394aa59p-3", "0x1.548483a6028ecp-4"),
    1.8: ("0x1.96374dd38f7e5p-3", "0x1.87e7847553900p-4"),
    1.95: ("0x1.6c1b824285d87p-3", "0x1.b29c7b41e9729p-4"),
    2.0: ("0x1.5f619980c433ap-3", "0x1.b9cfff07aa024p-4"),
}
C_MIN = 1.595796005804997  # the smallest double coefficient with f(1) > -f(b)


class TestDerivedConstants:
    def test_c2_closed_form(self):
        m = LorenzBranchMap.from_coefficient(2.0)
        assert m.a == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)
        assert (m.c, m.alpha) == (2.0, 1.0)

    @pytest.mark.parametrize("c", [1.8, 2.0])
    def test_fixed_point_residual(self, c):
        a = LorenzBranchMap.from_coefficient(c).a
        assert abs(branch_value(c, a) + a) < 1e-12
        assert abs(branch_value(c, branch_value(c, a)) - a) < 1e-12

    @pytest.mark.parametrize("c", [1.8, 2.0])
    def test_preimage_residual(self, c):
        m = LorenzBranchMap.from_coefficient(c)
        assert 0.0 < m.b < m.a
        assert abs(branch_value(c, branch_value(c, m.b)) + m.a) < 1e-12

    def test_c18_values(self):
        m = LorenzBranchMap.from_coefficient(1.8)
        assert m.a == pytest.approx(0.1983476715267322, abs=1e-12)
        assert m.b == pytest.approx(0.0956797765877333, abs=1e-12)
        # endpoint condition f(1) > -f(b), with -f(b) = ((1+a)/c)^2
        assert 0.8 > ((1.0 + m.a) / 1.8) ** 2

    @pytest.mark.parametrize("c", sorted(CONSTANT_BITS))
    def test_constant_bits(self, c):
        m = LorenzBranchMap.from_coefficient(c)
        assert (m.a.hex(), m.b.hex()) == CONSTANT_BITS[c]

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(C_MIN, 2.0))
    @example(c=C_MIN)
    def test_constants_solve_their_equations(self, c):
        m = LorenzBranchMap.from_coefficient(c)
        assert 0.0 < m.b < m.a
        assert abs(branch_value(c, m.a) + m.a) <= 1e-12
        assert abs(branch_value(c, branch_value(c, m.b)) + m.a) <= 1e-12

    def test_no_preimage_point_at_small_c(self):
        # at c = 1.2 the required f(b) would fall below -1
        with pytest.raises(InvalidParameterError) as raised:
            LorenzBranchMap.from_coefficient(1.2)
        assert str(raised.value) == "no preimage constant for c = 1.2: f(b) would fall below -1"

    def test_endpoint_constraint_rejects_c15(self):
        # b exists at c = 1.5 but f(1) = 0.5 < -f(b); the same holds just below C_MIN
        with pytest.raises(InvalidParameterError) as raised:
            LorenzBranchMap.from_coefficient(1.5)
        assert str(raised.value) == (
            "c = 1.5 rejected: requires f(1) > -f(b), but 0.5 <= 0.6944444444444445")
        with pytest.raises(InvalidParameterError, match="rejected: requires f"):
            LorenzBranchMap.from_coefficient(math.nextafter(C_MIN, 0.0))

    def test_preimage_range_refusal(self, monkeypatch):
        # no double c in (1, 2] reaches it (there 0 < b < a whenever s > 0); a
        # square root that puts a at 1e-6 leaves b near 0.14, past a
        monkeypatch.setattr(lorenz, "math", SimpleNamespace(sqrt=lambda v: 2.002))
        with pytest.raises(InvalidParameterError) as raised:
            LorenzBranchMap.from_coefficient(2.0)
        message = str(raised.value)
        b = float(message.removeprefix("preimage constant b = ").removesuffix(" not in (0, a)"))
        assert b == pytest.approx(0.1406, abs=1e-4)
        assert message == f"preimage constant b = {b} not in (0, a)"

    def test_coefficient_range(self):
        for c in (1.0, 2.1, math.nan):
            with pytest.raises(InvalidParameterError) as raised:
                LorenzBranchMap.from_coefficient(c)
            assert str(raised.value) == f"branch coefficient must lie in (1, 2], got {c}"


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class AxiomReport:
    c: float
    grid_size: int
    checks: tuple[AxiomCheck, ...]
    boundary_case: bool

    @property
    def strict_pass(self) -> bool:
        return all(ch.passed for ch in self.checks)

    @property
    def passes(self) -> bool:
        """Strict pass, except that c = 2 excuses the two endpoint axioms
        (f(1) = 1 and, by odd symmetry, f(-1) = -1 sit on the boundary)."""
        excused = {"f(1)<1", "f(-1)>-1"} if self.boundary_case else set()
        return all(ch.passed for ch in self.checks if ch.name not in excused)


def validate_axioms(map_or_c, grid_size: int = 10_000) -> AxiomReport:
    """Check the interval-map axioms on a grid and report margins.

    Accepts either a LorenzBranchMap or a bare coefficient, so family
    members whose derived constants do not exist (small c) can still be
    probed.  Report-only: nothing is raised on failure.
    """
    c = float(getattr(map_or_c, "c", map_or_c))
    if grid_size < 2:
        raise InvalidParameterError("grid_size must be at least 2")
    alpha = c / 2.0
    xs = [i / grid_size for i in range(1, grid_size + 1)]

    checks = []
    m_right = 1.0 - branch_value(c, 1.0)
    checks.append(AxiomCheck("f(1)<1", m_right > 0.0, m_right))
    m_left = branch_value(c, -1.0) + 1.0
    checks.append(AxiomCheck("f(-1)>-1", m_left > 0.0, m_left))

    delta = 1e-14
    lim = max(abs(branch_value(c, delta) + 1.0), abs(branch_value(c, -delta) - 1.0))
    checks.append(AxiomCheck("one_sided_limits", lim < 1e-6, lim))

    dmin = min(branch_derivative(c, x) for x in xs)
    checks.append(AxiomCheck("derivative_floor", dmin >= alpha - 1e-12, dmin - alpha))
    dnear = branch_derivative(c, 1e-12)
    checks.append(AxiomCheck("derivative_blowup", dnear > 1e5, dnear))

    odd = max(abs(branch_value(c, x) + branch_value(c, -x)) for x in xs)
    checks.append(AxiomCheck("odd_symmetry", odd <= 1e-14, odd))

    vals = [branch_value(c, x) for x in xs]
    mono = min(v2 - v1 for v1, v2 in zip(vals, vals[1:]))
    checks.append(AxiomCheck("branch_monotone", mono > 0.0, mono))

    return AxiomReport(
        c=c, grid_size=grid_size, checks=tuple(checks), boundary_case=(c == 2.0)
    )


class TestAxiomReport:
    def test_c18_all_pass(self):
        report = validate_axioms(1.8, grid_size=10_000)
        assert report.strict_pass
        assert report.passes

    def test_c2_boundary(self):
        report = validate_axioms(2.0, grid_size=1_000)
        failed = {ch.name: ch for ch in report.checks if not ch.passed}
        # both endpoint axioms sit exactly on the boundary at c = 2
        assert set(failed) == {"f(1)<1", "f(-1)>-1"}
        assert failed["f(1)<1"].margin == 0.0
        assert report.boundary_case
        assert not report.strict_pass
        assert report.passes

    def test_small_coefficient_passes(self):
        report = validate_axioms(1.0001, grid_size=1_000)
        assert report.strict_pass
        floor = {ch.name: ch for ch in report.checks}["derivative_floor"]
        assert floor.margin + 1.0001 / 2.0 == pytest.approx(0.50005, abs=1e-6)

    def test_accepts_map_instance(self, lorenz18):
        assert validate_axioms(lorenz18, grid_size=500).passes

    def test_grid_size_guard(self):
        with pytest.raises(InvalidParameterError):
            validate_axioms(1.8, grid_size=1)


def test_map_methods_match_functions(lorenz18):
    assert lorenz18.alpha == 0.9


def test_branch_monotonicity():
    for c in (1.8, 2.0):
        xs = [i / 5_000 for i in range(1, 5_001)]
        vals = [branch_value(c, x) for x in xs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        neg = [branch_value(c, -x) for x in reversed(xs)]
        assert all(v2 > v1 for v1, v2 in zip(neg, neg[1:]))
