"""The scalar oracles stand apart from the array kernels they check.

Every function of tests/oracles.py runs here with the level arrays of
the interval tree, the array walk of the paired trees, the array
Newton-bisection, the short zeta sum, the array splitmix64 draw, the
preimage and width steps of the cone recursion and the templates of the
cones and horseshoe figures patched to raise, so no
oracle can reach the code that its parity tests compare it with.
"""

import inspect

import oracles
import pytest

from fathorse import bowen, cones, fatcantor, horseshoe, svgfig
from fathorse.bowen import BowenSystem, build_base_map
from fathorse.cones import ConeSystem
from fathorse.fatcantor import CantorConstruction, GapLengthSequence, make_construction
from fathorse.horseshoe import make_poincare_system
from fathorse.lorenz import LorenzBranchMap
from oracles import SplitMix64


def _refuse(*args, **kwargs):
    raise AssertionError("an oracle reached an array kernel")


def test_oracles_reach_no_array_kernel(monkeypatch):
    # a fresh system, so no fiber cover of the oracles is cached yet
    ps = make_poincare_system(build_base_map(
        make_construction(LorenzBranchMap.from_coefficient(1.8), 2.0)))
    monkeypatch.setattr(CantorConstruction, "level", _refuse)
    monkeypatch.setattr(BowenSystem, "_walks", _refuse)
    monkeypatch.setattr(bowen, "_invert_profile", _refuse)
    monkeypatch.setattr(fatcantor, "zeta_value", _refuse)
    monkeypatch.setattr(horseshoe, "splitmix64", _refuse)
    monkeypatch.setattr(cones, "_children", _refuse)
    monkeypatch.setattr(cones, "_widths", _refuse)
    monkeypatch.setitem(svgfig._RENDERERS, "cones", _refuse)
    monkeypatch.setitem(svgfig._RENDERERS, "horseshoe", _refuse)
    system = ps.bowen
    cc = system.cc
    b, a, fb = system.m.b, system.m.a, system.fb
    core = [b, a, 0.5 * (a + b), b + 0.3 * (a - b), oracles.interval(cc, "0" + "01" * 12)[0]]
    target = [-a, a, 0.0, 0.3 * a, -0.77 * a]
    line = [-0.9, -0.3, 0.2, 0.7, system.m.c - 1.0]
    source = oracles.gap_diffeo(system, "01")
    words = ["", "0", "1", "01", "110"]
    runs = {
        "zeta_long_sum": [oracles.zeta_long_sum(p) for p in (1.5, 2.0)],
        "bits": [oracles.bits(SplitMix64(5), n) for n in (1, 8, 64)],
        "branch_derivative": [oracles.branch_derivative(system.m.c, x) for x in line],
        "right_branch_inverse": [oracles.right_branch_inverse(system.m.c, y) for y in line],
        "interval": [oracles.interval(cc, w) for w in words],
        "gap": [oracles.gap(cc, w) for w in words],
        "level_interval_length": [oracles.level_interval_length(cc, n) for n in range(6)],
        "locate": [oracles.locate(cc, x, 7) for x in core + target],
        "subtree_cover_length": [oracles.subtree_cover_length(cc, w, 6) for w in words],
        "gap_diffeo": [oracles.gap_diffeo(system, w) for w in words],
        "gap_value": [oracles.gap_value(source, x) for x in source.source],
        "gap_derivative": [oracles.gap_derivative(source, x) for x in source.source],
        "gap_invert": [oracles.gap_invert(source, y) for y in source.target],
        "walk": [oracles.walk(system, x, forward) for x in core for forward in (True, False)],
        "base_value": [oracles.base_value(system, x) for x in core],
        "base_derivative": [oracles.base_derivative(system, x) for x in core],
        "base_invert": [oracles.base_invert(system, v) for v in target],
        "core_preimage": [oracles.core_preimage(system, x) for x in (fb, -a, 0.5 * (fb - a))],
        "surgery": [oracles.surgery(system, x) for x in (fb, -a, 0.5 * (fb - a))],
        "modified_value": [oracles.modified_value(system, x) for x in line],
        "second_iterate": [oracles.second_iterate(system, x) for x in core],
        "invert_right": [oracles.invert_right(system, y) for y in line + target],
        "core_second_derivative": [oracles.core_second_derivative(system, x) for x in core],
        "fiber_map": [oracles.fiber_map(ps, s, y) for y in target for s in (1, -1)],
        "fiber_cover": [oracles.fiber_cover(ps, 4)],
        "y_condition": [oracles.y_condition(ps, y, 4) for y in target],
        "x_condition": [oracles.x_condition(ps, x, 4) for x in core],
        "membership": [oracles.membership(ps, (x, y), 4) for x in core for y in target],
        "slice_intervals_1d": [oracles.slice_intervals_1d(ConeSystem(k), x, 4)
                               for k in (2, 3) for x in (-0.9, -0.0, 0.42)],
        "cones_svg": [oracles.cones_svg({"slices": [{"a": x, "intervals": [[-a, a]]}]})
                      for x in line],
        "horseshoe_svg": [oracles.horseshoe_svg({"half_width": a, "points": [[x, x]]})
                          for x in core],
    }
    public = {name for name, f in vars(oracles).items()
              if inspect.isfunction(f) and f.__module__ == oracles.__name__
              and not name.startswith("_")}
    assert set(runs) == public
    assert all(runs.values())
    with pytest.raises(AssertionError, match="array kernel"):
        system.base_value(a)
    with pytest.raises(AssertionError, match="array kernel"):
        cc.to_tree_json(2)
    with pytest.raises(AssertionError, match="array kernel"):
        GapLengthSequence(first_length=1.0, exponent=2.0).total()
    with pytest.raises(AssertionError, match="array kernel"):
        ps.vertical_gap_witness(1, 1e-3, seed=5, depth=0)
    with pytest.raises(AssertionError, match="array kernel"):
        cones.slice_intervals(ConeSystem(3), 0.42, 2)
    for kind in ("cones", "horseshoe"):
        with pytest.raises(AssertionError, match="array kernel"):
            svgfig.render_section_svg({}, kind)
