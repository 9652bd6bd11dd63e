"""Each repeated rule of the package has one owner.

Every depth or level argument passes through errors.check_depth, so each
entry point below rejects one step past either end of its range, a
non-integral depth and a bool, with check_depth's wording; a guard that
bypasses the owner fails here.  Sample counts and the surgery's monotone grid pass
through the same guard with no cap.
The scalar and array domain tests are written so that NaN fails them too, and the
entry points that read a point of the section reject unequal x and y sizes
and, through bowen._points, arrays of more than one dimension; fiber_map
rejects a sign other than +1 or -1 and a sign array of the wrong size.
"""

import math

import numpy as np
import oracles
import pytest

from fathorse import bowen, cones, horseshoe, lorenz
from fathorse.bowen import verify_surgery
from fathorse.errors import DomainError, SizeGuardError, check_depth
from fathorse.fatcantor import LEVEL_ARRAY_CAP, LEVEL_MEASURE_CAP, make_construction
from fathorse.horseshoe import FIBER_DEPTH_CAP, MEASURE_DEPTH_CAP, WITNESS_SEARCH_LEVEL
from fathorse.lorenz import LorenzBranchMap

K3 = cones.ConeSystem(3)
PS18 = horseshoe.make_poincare_system(
    bowen.build_base_map(make_construction(LorenzBranchMap.from_coefficient(1.8), 2.0)))

# (id, call taking the depth, cap, what the message names)
SITES = [
    ("level", lambda ps, n: ps.bowen.cc.level(n), LEVEL_ARRAY_CAP, "level"),
    ("level_measure", lambda ps, n: ps.bowen.cc.level_measure(n), LEVEL_MEASURE_CAP, "level"),
    ("fiber_intervals", lambda ps, n: ps.fiber_intervals(n), FIBER_DEPTH_CAP, "fiber depth"),
    ("exit_times", lambda ps, n: ps.exit_times(n, 1e-3), MEASURE_DEPTH_CAP, "measure depth"),
    ("slice_measure", lambda ps, n: cones.slice_measure(K3, 0.3, n), cones.LEVEL_HARD_CAP,
     "level"),
    ("slice_intervals", lambda ps, n: cones.slice_intervals(K3, 0.3, n), cones.LEVEL_HARD_CAP,
     "level"),
    ("preimage_level", lambda ps, n: cones.preimage_level(0.3, n), cones.LEVEL_HARD_CAP, "level"),
    ("verify_cone_bound", lambda ps, n: cones.verify_cone_bound(K3, 0.3, n),
     cones.LEVEL_HARD_CAP, "level"),
    ("brute_force_slice", lambda ps, n: cones.brute_force_slice(K3, 0.3, n, 1e-3),
     cones.BRUTE_FORCE_LEVEL_CAP, "level"),
    ("exact_preimage_table", lambda ps, n: cones.exact_preimage_table(n),
     cones.EXACT_TABLE_CAP, "level"),
    ("verify_surgery", lambda ps, n: verify_surgery(ps.bowen, n), LEVEL_ARRAY_CAP - 1,
     "surgery level"),
    ("vertical_gap_witness", lambda ps, n: ps.vertical_gap_witness(5, 1e-3, seed=1, depth=n),
     FIBER_DEPTH_CAP, "witness depth"),
    ("membership", lambda ps, n: ps.membership((ps.bowen.m.a, ps.bowen.m.a), n),
     WITNESS_SEARCH_LEVEL + 1, "membership depth"),
]


@pytest.mark.parametrize("call, cap, what", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_depth_guard_owner(poincare18, call, cap, what):
    _raises_as_owner(poincare18, call, cap, what, -1, cap + 1, 2.5, True, False)


# (id, call taking the count, what the message names); a count has no cap
COUNT_SITES = [
    ("vertical_gap_witness", lambda ps, n: ps.vertical_gap_witness(n, 1e-3, seed=1, depth=2),
     "sample count"),
    ("fiber_contraction_report", lambda ps, n: ps.fiber_contraction_report(n), "sample count"),
    ("verify_surgery_grid", lambda ps, n: verify_surgery(ps.bowen, 2, monotone_grid=n),
     "monotone grid"),
]


@pytest.mark.parametrize("call, what", [s[1:] for s in COUNT_SITES], ids=[s[0] for s in COUNT_SITES])
def test_sample_count_guard_owner(poincare18, call, what):
    _raises_as_owner(poincare18, call, math.inf, what, -1, 2.5, True, False)
    call(poincare18, np.int64(3))


def _raises_as_owner(ps, call, cap, what, *bad):
    """call(ps, n) raises check_depth's error and wording for each bad n."""
    for n in bad:
        with pytest.raises(Exception) as raised:
            call(ps, n)
        with pytest.raises(type(raised.value)) as owner:
            check_depth(n, cap, what)
        assert type(raised.value) is type(owner.value)
        assert str(raised.value) == str(owner.value)


def test_check_depth_range():
    for n in (0, 3, 7, np.int64(7), np.uint8(0)):
        check_depth(n, 7)
    with pytest.raises(DomainError, match="^level must be nonnegative, got -1$"):
        check_depth(-1, 7)
    with pytest.raises(SizeGuardError, match="^witness depth 8 exceeds the cap 7$"):
        check_depth(8, 7, "witness depth")
    for n in (2.5, 2.0, math.nan, np.float64(3.0), "3", True, False):
        with pytest.raises(DomainError, match="^level must be an integer, got "):
            check_depth(n, 7)


def test_one_float_or_array_adapter():
    assert horseshoe._like is bowen._like
    assert horseshoe._points is bowen._points


nan = math.nan
# (id, call on a NaN argument, the same call on an out-of-range argument)
NAN_SITES = [
    ("branch_value", lambda: lorenz.branch_value(1.8, nan), lambda: lorenz.branch_value(1.8, 1.5)),
    ("branch_derivative", lambda: oracles.branch_derivative(1.8, nan),
     lambda: oracles.branch_derivative(1.8, -1.5)),
    ("right_branch_inverse", lambda: oracles.right_branch_inverse(1.8, nan),
     lambda: oracles.right_branch_inverse(1.8, 0.9)),
    ("cone_map_x", lambda: cones.cone_map(K3, nan, 0.0), lambda: cones.cone_map(K3, 1.5, 0.0)),
    ("cone_map_fiber", lambda: cones.cone_map(K3, 0.5, np.array([nan, 0.0])),
     lambda: cones.cone_map(K3, 0.5, np.array([1.5, 0.0]))),
    ("suspension_area", lambda: horseshoe.suspension_volume(nan, 0.1),
     lambda: horseshoe.suspension_volume(-1.0, 0.1)),
    ("suspension_delta", lambda: horseshoe.suspension_volume(1.0, nan),
     lambda: horseshoe.suspension_volume(1.0, -0.1)),
    ("modified_value", lambda: PS18.bowen.modified_value(nan),
     lambda: PS18.bowen.modified_value(1.5)),
    ("second_iterate", lambda: PS18.bowen.second_iterate(nan),
     lambda: PS18.bowen.second_iterate(1.5)),
    ("invert_right", lambda: PS18.bowen.invert_right(nan), lambda: PS18.bowen.invert_right(0.9)),
    ("fiber_map", lambda: PS18.fiber_map(1.0, nan), lambda: PS18.fiber_map(1.0, 0.9)),
]


@pytest.mark.parametrize("at_nan, out_of_range", [s[1:] for s in NAN_SITES],
                         ids=[s[0] for s in NAN_SITES])
def test_nan_fails_the_domain_test(at_nan, out_of_range):
    with pytest.raises(DomainError) as outside:
        out_of_range()
    with pytest.raises(DomainError) as raised:
        at_nan()
    assert type(raised.value) is type(outside.value)


# (id, call on a point); the three entry points that read a point of the section
POINT_SITES = [
    ("membership", lambda ps, point: ps.membership(point, 2)),
    ("second_return", lambda ps, point: ps.second_return(point)),
    ("section_map", lambda ps, point: ps.section_map(point)),
]


@pytest.mark.parametrize("call", [s[1] for s in POINT_SITES], ids=[s[0] for s in POINT_SITES])
@pytest.mark.parametrize("sizes", [(1, 3), (3, 1), (3, 2)])
def test_coordinate_sizes_must_match(poincare18, call, sizes):
    # one core point repeated: only the sizes are wrong
    m = poincare18.bowen.m
    point = np.full(sizes[0], 0.5 * (m.a + m.b)), np.full(sizes[1], 0.1)
    with pytest.raises(DomainError, match=f"^{sizes[0]} x coordinates but {sizes[1]} y "):
        call(poincare18, point)


@pytest.mark.parametrize(
    "call", [s[1] for s in POINT_SITES] + [lambda ps, point: ps.bowen.base_value(point[0])],
    ids=[s[0] for s in POINT_SITES] + ["base_value"])
def test_points_are_floats_or_1d_arrays(poincare18, call):
    m = poincare18.bowen.m
    xs, ys = np.linspace(m.b, m.a, 4), np.linspace(-m.a, m.a, 4)
    # a float gives a float (or a pair of them), a 1-D array its elements
    batch = call(poincare18, (xs, ys))
    for i in range(xs.size):
        single = call(poincare18, (float(xs[i]), float(ys[i])))
        assert not isinstance(single, np.ndarray)
        assert np.array_equal(np.asarray(batch)[..., i], np.asarray(single))
    # a 2-D array is refused before any work, not flattened or indexed past
    with pytest.raises(DomainError, match=r"^points must be .* 1-D array, got shape \(4, 4\)$"):
        call(poincare18, np.meshgrid(xs, ys))


@pytest.mark.parametrize("sign, y", [
    (0, 0.1), (2, 0.1), (-2, 0.1), (0.5, 0.1), (nan, 0.1), (0, np.full(3, 0.1)),
    (np.array([1.0, 0.0, -1.0]), np.full(3, 0.1)), (np.array([-1.0, 1.0, nan]), np.full(3, 0.1)),
    (np.ones(2), np.full(3, 0.1)), (np.ones(4), np.full(3, 0.1)), (np.ones(2), np.empty(0)),
    (np.ones(0), np.full(2, 0.1)), (np.ones(2), 0.1),
], ids=["0", "2", "-2", "0.5", "nan", "0-on-array", "array-0", "array-nan", "2-for-3",
        "4-for-3", "2-for-none", "none-for-2", "2-for-a-float"])
def test_fiber_sign_is_plus_or_minus_one_per_point(poincare18, sign, y):
    # no sign value falls back to a branch: only +1 and -1, one or one per point
    message = rf"^sign must be \+1 or -1, once or per point; got .* for {np.size(y)} points$"
    with pytest.raises(DomainError, match=message):
        poincare18.fiber_map(sign, y)
