"""Each repeated rule of the package has one owner.

Every depth or level argument passes through errors.check_depth, so each
entry point below rejects one step past either end of its range with
check_depth's wording; a guard that bypasses the owner fails here.  The
scalar domain tests are written so that NaN fails them too.
"""

import math

import numpy as np
import pytest

from fathorse import bowen, cones, horseshoe, lorenz
from fathorse.bowen import verify_surgery
from fathorse.errors import DomainError, SizeGuardError, check_depth
from fathorse.fatcantor import LEVEL_ARRAY_CAP, LEVEL_MEASURE_CAP, TREE_JSON_CAP
from fathorse.horseshoe import FIBER_DEPTH_CAP, MEASURE_DEPTH_CAP

K3 = cones.make_cone_system(3)

# (id, call taking the depth, cap, what the message names)
SITES = [
    ("level", lambda ps, n: ps.bowen.cc.level(n), LEVEL_ARRAY_CAP, "level"),
    ("level_measure", lambda ps, n: ps.bowen.cc.level_measure(n), LEVEL_MEASURE_CAP, "level"),
    ("to_tree_json", lambda ps, n: ps.bowen.cc.to_tree_json(n), TREE_JSON_CAP, "tree depth"),
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
]


@pytest.mark.parametrize("call, cap, what", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_depth_guard_owner(poincare18, call, cap, what):
    with pytest.raises(DomainError) as below:
        call(poincare18, -1)
    with pytest.raises(SizeGuardError) as above:
        call(poincare18, cap + 1)
    for raised, n in ((below, -1), (above, cap + 1)):
        with pytest.raises(type(raised.value)) as owner:
            check_depth(n, cap, what)
        assert str(raised.value) == str(owner.value)


def test_check_depth_range():
    for n in (0, 3, 7):
        check_depth(n, 7)
    with pytest.raises(DomainError, match="^level must be nonnegative, got -1$"):
        check_depth(-1, 7)
    with pytest.raises(SizeGuardError, match="^witness depth 8 exceeds the cap 7$"):
        check_depth(8, 7, "witness depth")


def test_one_float_or_array_adapter():
    assert horseshoe._like is bowen._like
    assert horseshoe._points is bowen._points


nan = math.nan
# (id, call on a NaN argument, the same call on an out-of-range argument)
NAN_SITES = [
    ("branch_value", lambda: lorenz.branch_value(1.8, nan), lambda: lorenz.branch_value(1.8, 1.5)),
    ("branch_derivative", lambda: lorenz.branch_derivative(1.8, nan),
     lambda: lorenz.branch_derivative(1.8, -1.5)),
    ("right_branch_inverse", lambda: lorenz.right_branch_inverse(1.8, nan),
     lambda: lorenz.right_branch_inverse(1.8, 0.9)),
    ("cone_map_x", lambda: cones.cone_map(K3, nan, 0.0), lambda: cones.cone_map(K3, 1.5, 0.0)),
    ("cone_map_fiber", lambda: cones.cone_map(K3, 0.5, np.array([nan, 0.0])),
     lambda: cones.cone_map(K3, 0.5, np.array([1.5, 0.0]))),
    ("suspension_area", lambda: horseshoe.suspension_volume(nan, 0.1),
     lambda: horseshoe.suspension_volume(-1.0, 0.1)),
    ("suspension_delta", lambda: horseshoe.suspension_volume(1.0, nan),
     lambda: horseshoe.suspension_volume(1.0, -0.1)),
]


@pytest.mark.parametrize("at_nan, out_of_range", [s[1:] for s in NAN_SITES],
                         ids=[s[0] for s in NAN_SITES])
def test_nan_fails_the_domain_test(at_nan, out_of_range):
    with pytest.raises(DomainError) as outside:
        out_of_range()
    with pytest.raises(DomainError) as raised:
        at_nan()
    assert type(raised.value) is type(outside.value)
