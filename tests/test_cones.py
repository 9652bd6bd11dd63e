import contextlib
import dataclasses
import io
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fathorse import cones
from fathorse.cones import (
    ConeSystem,
    brute_force_slice,
    cone_map,
    exact_preimage_table,
    preimage_level,
    slice_intervals,
    slice_measure,
    verify_cone_bound,
)
from fathorse.config import ExperimentConfig
from fathorse.errors import DomainError, InvalidParameterError, SingularityError, SizeGuardError
from fathorse.lorenz import branch_value
from fathorse.runner import run


@pytest.fixture(scope="module")
def k2():
    return ConeSystem(2)


@pytest.fixture(scope="module")
def k3():
    return ConeSystem(3)


class TestConeMap:
    def test_positive_branch(self, k2):
        assert cone_map(k2, 9.0 / 16.0, 0.0) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_mirrored_branch(self, k2):
        assert cone_map(k2, -9.0 / 16.0, 0.0) == pytest.approx((-0.5, -0.5), abs=1e-15)

    def test_corner_fixed_point(self, k3):
        assert cone_map(k3, 1.0, 1.0) == (1.0, 1.0)

    def test_undefined_on_gamma(self, k2):
        with pytest.raises(SingularityError):
            cone_map(k2, 0.0, 0.3)

    def test_outside_square(self, k2):
        with pytest.raises(DomainError):
            cone_map(k2, 0.5, 1.2)

    def test_image_stays_in_square(self, k3):
        for i in range(-50, 51):
            for j in (-1.0, -0.3, 0.7, 1.0):
                x = i / 50
                if x == 0.0:
                    continue
                xe, ye = cone_map(k3, x, j)
                assert abs(xe) <= 1.0 and abs(ye) <= 1.0

    def test_k_validation(self):
        # the check sees k as given: 2.5 is not truncated to 2, nor "3" parsed
        for k in (1, 2.5, "3", math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                ConeSystem(k)
        assert type(ConeSystem(3.0).k) is int
        assert ConeSystem(3.0) == ConeSystem(3)


class TestPreimageLevel:
    def test_level_one(self):
        assert preimage_level(0.0, 1).tolist() == [-0.25, 0.25]

    def test_level_two(self):
        assert preimage_level(0.0, 2).tolist() == [
            -25.0 / 64.0,
            9.0 / 64.0,
            -9.0 / 64.0,
            25.0 / 64.0,
        ]

    def test_denominators(self):
        _, denoms = exact_preimage_table(4)
        assert denoms == [1, 4, 64, 16384, 1073741824]

    def test_integer_table_matches_floats_exactly(self):
        # from abscissa 0 every entry is an exact dyadic rational, so the
        # float recursion reproduces the rational table with no rounding
        levels, denoms = exact_preimage_table(4)
        for n in range(5):
            floats = preimage_level(0.0, n)
            assert all(
                Fraction(float(r)) == Fraction(v, denoms[n])
                for r, v in zip(floats, levels[n])
            )

    def test_rational_table_close_for_generic_abscissa(self):
        levels, denoms = exact_preimage_table(4, Fraction(21, 50))
        floats = preimage_level(0.42, 4)
        worst = max(
            abs(float(r) - v / denoms[4]) for r, v in zip(floats, levels[4])
        )
        assert worst < 1e-14

    def test_branch_consistency(self):
        # every leaf maps back onto its parent under the c = 2 map
        for a in (0.0, 0.42, -0.9):
            prev = preimage_level(a, 13)
            cur = preimage_level(a, 14)
            for j, parent in enumerate(prev):
                for child in (cur[2 * j], cur[2 * j + 1]):
                    fx = 2.0 * math.sqrt(abs(child)) * math.copysign(1.0, child) - math.copysign(
                        1.0, child
                    )
                    assert abs(fx - parent) < 1e-12

    def test_sign_interleave(self):
        level = preimage_level(0.42, 6)
        assert all(r < 0 for r in level[0::2])
        assert all(r > 0 for r in level[1::2])
        assert np.all(np.abs(level) < 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            preimage_level(1.0, 2)
        with pytest.raises(DomainError):
            preimage_level(0.0, -1)
        with pytest.raises(SizeGuardError):
            preimage_level(0.0, 25)


def _allocating_levels(k, a, n):
    """Oracle of the width recursion: every level whole, in fresh arrays."""
    r = np.array([a], dtype=float)
    widths = np.array([2.0], dtype=float)
    yield r, widths
    for _ in range(n):
        child = np.empty(2 * r.size, dtype=float)
        child[0::2] = -(((r - 1.0) / 2.0) ** 2)
        child[1::2] = ((r + 1.0) / 2.0) ** 2
        r = child
        child_w = np.abs(r)
        child_w **= 1.0 / k
        child_w *= 0.5
        pairs = child_w.reshape(-1, 2)
        pairs *= widths[:, None]
        widths = child_w
        yield r, widths


def _last_level(system, a, n):
    """(r, widths) of the deepest level of the oracle recursion."""
    *_, last = _allocating_levels(system.k, a, n)
    return last


class TestSliceMeasure:
    def test_level_zero_is_full_fiber(self, k3):
        assert slice_measure(k3, 0.7, 0) == 2.0

    def test_k2_level_one(self, k2):
        assert slice_measure(k2, 0.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_k2_level_two_widths(self, k2):
        _, widths = _last_level(k2, 0.0, 2)
        assert slice_measure(k2, 0.0, 2) == pytest.approx(0.5, abs=1e-15)
        assert (32.0 * widths).tolist() == pytest.approx([5.0, 3.0, 3.0, 5.0], abs=1e-12)

    def test_k2_exact_halving(self, k2):
        for n in range(15):
            for a in (-0.9, -0.3, 0.0, 0.42, 0.9):
                assert abs(slice_measure(k2, a, n) - 2.0 ** (1 - n)) <= 1e-12

    @pytest.mark.parametrize("k,a", [(2, 0.0), (3, 0.42), (5, -0.9)])
    def test_monotone_decay(self, k, a):
        system = ConeSystem(k)
        totals = [slice_measure(system, a, n) for n in range(13)]
        assert all(t2 < t1 for t1, t2 in zip(totals, totals[1:]))

    def test_widths_positive_and_sum(self, k3):
        r, widths = _last_level(k3, 0.3, 10)
        assert np.all(widths > 0.0)
        assert slice_measure(k3, 0.3, 10).hex() == float(np.sum(widths)).hex()
        assert r.size == 2 ** 10

    def test_leaves_are_preimage_level(self, k3):
        for a in (-0.9, 0.0, 0.42):
            for n in (0, 1, 9):
                assert np.array_equal(_last_level(k3, a, n)[0], preimage_level(a, n))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_intervals_match_scalar_composite(self, k):
        # scalar reference: carry each leaf's affine composite of fiber maps
        # (slope, offset) back to the slice; numpy and Python powers may
        # differ by an ulp per level, hence a tolerance of a few ulps per level
        system = ConeSystem(k)
        n = 7
        for a in (-0.9, 0.0, 0.42):
            level = [(a, 1.0, 0.0)]
            for _ in range(n):
                nxt = []
                for r, slope, offset in level:
                    for child in (-(((r - 1.0) / 2.0) ** 2), ((r + 1.0) / 2.0) ** 2):
                        f_slope = 0.5 * abs(child) ** (1.0 / k)
                        f_offset = 0.5 if child > 0 else -0.5
                        nxt.append((child, slope * f_slope, slope * f_offset + offset))
                level = nxt
            expected = [[offset - slope, offset + slope] for _, slope, offset in level]
            got = slice_intervals(system, a, n)
            assert np.allclose(got, expected, rtol=0.0, atol=4 * n * np.finfo(float).eps)


TABLE_MEMORY_BOUND = 8 * 2**20  # bytes


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_bound_and_decay(rows, k):
    for row in rows:
        assert row.total <= row.bound + 1e-12
        if row.n > 0:
            assert row.ratio <= 2.0 ** (-2.0 / k) * (1.0 + 1e-12)


class TestConeBound:
    def test_k2_equality_case(self, k2):
        rows = verify_cone_bound(k2, 0.0, 14)
        _assert_bound_and_decay(rows, 2)
        for row in rows:
            assert row.total == pytest.approx(row.bound, abs=1e-12)

    def test_k3_strict(self, k3):
        rows = verify_cone_bound(k3, 0.3, 12)
        _assert_bound_and_decay(rows, 3)
        assert all(row.total < row.bound for row in rows if row.n > 0)

    def test_base_case_row(self):
        rows = verify_cone_bound(ConeSystem(5), 0.0, 1)
        assert rows[0].total == 2.0
        assert rows[0].bound == 2.0

    def test_nmax_precondition(self, k2):
        with pytest.raises(DomainError):
            verify_cone_bound(k2, 0.0, -1)

    def test_cap_fails_before_the_first_level(self, k2, monkeypatch):
        calls = []
        monkeypatch.setattr(cones, "slice_measure", lambda *args: calls.append(args))
        with pytest.raises(SizeGuardError):
            verify_cone_bound(k2, 0.0, cones.LEVEL_HARD_CAP + 1)
        assert calls == []

    def test_peak_memory_is_one_level(self):
        # the table walks its levels once, in the same blocks as a single
        # measure, so it peaks no higher than the measure of its deepest
        # level alone; each side gets a fresh system
        single = _traced_peak(lambda: slice_measure(ConeSystem(3), 0.42, 16))
        table = _traced_peak(lambda: verify_cone_bound(ConeSystem(3), 0.42, 16))
        assert table <= 1.05 * single

    def test_warm_system_allocates_no_levels(self):
        # a second table on the same system reads its stored totals
        system = ConeSystem(3)
        cold = _traced_peak(lambda: verify_cone_bound(system, 0.42, 16))
        warm = _traced_peak(lambda: verify_cone_bound(system, 0.42, 16))
        assert warm < 0.05 * cold

    def test_table_memory_is_blocks_not_levels(self, tmp_path):
        # the deep levels are walked in blocks of 2^17 leaves, so a table
        # holds a few MB at any depth: a whole level 20 is 8 MB, level 22
        # 32 MB.  Covers a cones-only run shaped like the wide_cones
        # workload (six exponents, nine abscissas) and one deeper table.
        cfg = ExperimentConfig(k_list=list(WIDE_K), a_list=list(WIDE_A), n_max=20,
                               output_dir=str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert _traced_peak(lambda: run(cfg, only="cones")) < TABLE_MEMORY_BOUND
        table = _traced_peak(lambda: verify_cone_bound(ConeSystem(3), 0.42, 22))
        assert table < TABLE_MEMORY_BOUND

    def test_nmax_zero_single_row(self, k3):
        rows = verify_cone_bound(k3, 0.42, 0)
        assert len(rows) == 1
        _assert_bound_and_decay(rows, 3)
        row = rows[0]
        assert (row.n, row.total, row.bound) == (0, 2.0, 2.0)
        assert math.isnan(row.ratio)


class TestBruteForce:
    def test_k2_small_levels(self, k2):
        for n, expected in ((1, 1.0), (2, 0.5)):
            assert abs(brute_force_slice(k2, 0.0, n, 1e-5) - expected) < 1e-3

    def test_level_zero(self, k3):
        assert brute_force_slice(k3, 0.0, 0, 1e-2) == 2.0

    def test_oracle_matches_recursion(self, k3):
        for a in (0.0, 0.42):
            for n in (3, 5):
                est = brute_force_slice(k3, a, n, 1e-5)
                exact = slice_measure(k3, a, n)
                assert abs(est - exact) <= max(10 * 1e-5, 1e-6)

    @pytest.mark.parametrize("a", [0.99999999, -0.99999999])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_near_unit_abscissa_names_the_slice(self, k3, a, n):
        # bisection puts level-2 preimages at +-0.25, which the map sends to
        # exactly 0.0; the error names the slice the caller asked for
        with pytest.raises(DomainError, match=rf"^cannot resolve the level-{n} brute-force "
                           rf"slice at a = {a}: .* meets the line x = 0$"):
            brute_force_slice(k3, a, n, 1e-3)

    @pytest.mark.parametrize("a", [1 - 1e-7, -(1 - 1e-7)])
    def test_abscissa_just_farther_from_one_resolves(self, k3, a):
        for n in (2, 4):
            assert abs(brute_force_slice(k3, a, n, 1e-3) - slice_measure(k3, a, n)) <= 1e-2

    def test_cost_guard(self, k2):
        with pytest.raises(SizeGuardError):
            brute_force_slice(k2, 0.0, 9, 1e-4)
        for resolution in (0.0, -1e-3, math.nan):
            with pytest.raises(DomainError, match="resolution"):
                brute_force_slice(k2, 0.0, 1, resolution)


@pytest.mark.parametrize(
    "entry",
    [
        lambda a: preimage_level(a, 3),
        lambda a: slice_measure(ConeSystem(3), a, 3),
        lambda a: slice_intervals(ConeSystem(3), a, 3),
        lambda a: verify_cone_bound(ConeSystem(3), a, 3),
        lambda a: brute_force_slice(ConeSystem(3), a, 3, 1e-3),
    ],
    ids=["preimage_level", "slice_measure", "slice_intervals", "verify_cone_bound", "brute_force_slice"],
)
def test_nan_abscissa_is_a_domain_error(entry):
    # match the message: SingularityError, which brute_force_slice raised, is a DomainError
    with pytest.raises(DomainError, match="abscissa"):
        entry(math.nan)


WIDE_K = (2, 3, 4, 5, 6, 7)
WIDE_A = (-0.9, -0.6, -0.3, 0.0, 0.2, 0.42, 0.6, 0.75, 0.9)
STORED_A = WIDE_A + (-0.0,)  # WIDE_A is the wide_cones a_list and holds 0.0
PARITY_N = 20


def _oracle_totals(k, a, n):
    return [float(np.sum(widths)).hex() for _, widths in _allocating_levels(k, a, n)]


@pytest.fixture(scope="module")
def shared_walks():
    # one walk for all six exponents per (a, n), as the cones suite walks
    return {(a, n): cones._walk_totals(a, n, list(WIDE_K))
            for a in STORED_A for n in range(PARITY_N + 1)}


class TestScratchParity:
    """The blocked walk reuses its two block buffers across blocks and
    exponents, and adds block sums pairwise; every level total must be
    float.hex-equal to one np.sum over the oracle's whole level."""

    @pytest.mark.parametrize("k", WIDE_K)
    def test_levels_match_allocating_recursion(self, shared_walks, k):
        # every depth 0..20 is walked, so each level is met at every block split
        for a in STORED_A:
            oracle = _oracle_totals(k, a, PARITY_N)
            for n in range(PARITY_N + 1):
                got = shared_walks[a, n][WIDE_K.index(k)]
                assert [t.hex() for t in got] == oracle[: n + 1], (a, n)
            # the whole levels of slice_intervals and preimage_level, element
            # by element; tobytes() equality, so a zero of the wrong sign counts
            levels = cones._preimages(a, 16)
            r, widths = next(levels), np.full(1, 2.0)
            for r0, w0 in itertools.islice(_allocating_levels(k, a, 16), 1, None):
                r = next(levels)
                widths = cones._widths(r, widths, 1.0 / k, np.empty(r.size))
                assert r.tobytes() == r0.tobytes() and widths.tobytes() == w0.tobytes()

    @pytest.mark.parametrize("k", (2, 3, 7))
    def test_intervals_on_warm_system_match_fresh(self, k):
        warm = ConeSystem(k)
        verify_cone_bound(warm, -0.6, 12)
        for a in (-0.9, 0.0, 0.42):
            got = slice_intervals(warm, a, 7)
            assert got.tobytes() == slice_intervals(ConeSystem(k), a, 7).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(2, 7),
        st.integers(0, 16),
        st.integers(1, cones.BLOCK_DEPTH),
    )
    def test_levels_property(self, a, k, n, depth):
        # a shallower block depth splits a level 16 into up to 2^8 blocks
        with mock.patch.object(cones, "BLOCK_DEPTH", depth):
            got = cones._walk_totals(a, n, [k])[0]
        assert [t.hex() for t in got] == _oracle_totals(k, a, n)


def _fresh_total(k, a, n):
    """The oracle of a stored total: the oracle's level n, summed with np.sum."""
    _, widths = _last_level(ConeSystem(k), a, n)
    return float(np.sum(widths)).hex()


STORED_N = 16


def _assert_totals(system, a, n_top):
    for n in range(n_top + 1):
        assert slice_measure(system, a, n).hex() == _fresh_total(system.k, a, n), (a, n)


class TestStoredTotals:
    @pytest.mark.parametrize("k", WIDE_K)
    def test_deep_then_shallow(self, k):
        system = ConeSystem(k)
        for a in STORED_A:
            assert slice_measure(system, a, STORED_N).hex() == _fresh_total(k, a, STORED_N)
            _assert_totals(system, a, STORED_N)
        slice_measure(system, 0.0, STORED_N)
        _assert_totals(system, -0.0, STORED_N)  # read from the totals of 0.0

    @pytest.mark.parametrize("k", WIDE_K)
    def test_shallow_then_deep(self, k):
        system = ConeSystem(k)
        for a in STORED_A:
            assert slice_measure(system, a, 5).hex() == _fresh_total(k, a, 5)
            assert slice_measure(system, a, STORED_N).hex() == _fresh_total(k, a, STORED_N)
            _assert_totals(system, a, STORED_N)

    @pytest.mark.parametrize("k", WIDE_K)
    def test_interleaved_abscissas(self, k):
        # a2 replaces the totals of a1, so a1 must walk again, not read a2's
        system = ConeSystem(k)
        for a1, a2 in zip(STORED_A, STORED_A[1:] + STORED_A[:1]):
            slice_measure(system, a1, STORED_N)
            assert slice_measure(system, a2, 4).hex() == _fresh_total(k, a2, 4)
            _assert_totals(system, a1, STORED_N)

    @pytest.mark.parametrize("k", WIDE_K)
    def test_below_an_earlier_walk(self, k):
        # slice_intervals walks without keeping totals, and
        # verify_cone_bound keeps them through slice_measure
        system = ConeSystem(k)
        for a in STORED_A:
            slice_intervals(system, a, 10)
            _assert_totals(system, a, 10)
            rows = verify_cone_bound(system, a, 12)
            assert [row.total.hex() for row in rows] == [
                _fresh_total(k, a, n) for n in range(13)
            ]
            _assert_totals(system, a, 12)

    def test_bad_arguments_raise_before_the_lookup(self, k3):
        slice_measure(k3, 0.42, 6)
        with pytest.raises(SizeGuardError):
            slice_measure(k3, 0.42, cones.LEVEL_HARD_CAP + 1)
        with pytest.raises(DomainError):
            slice_measure(k3, 0.42, -1)
        with pytest.raises(DomainError, match="abscissa"):
            slice_measure(k3, 1.0, 0)

    def test_one_walk_per_table(self, monkeypatch):
        walks, calls = [], []
        walk, measure = cones._walk_totals, cones.slice_measure

        def counted_walk(a, n, ks):
            walks.append(n)
            return walk(a, n, ks)

        def counted_measure(system, a, n):
            calls.append(n)
            return measure(system, a, n)

        monkeypatch.setattr(cones, "_walk_totals", counted_walk)
        monkeypatch.setattr(cones, "slice_measure", counted_measure)
        system = ConeSystem(3)
        verify_cone_bound(system, 0.42, 12)
        assert walks == [12]
        assert calls == list(range(12, -1, -1))
        verify_cone_bound(system, 0.42, 12)  # warm: every total is kept
        assert walks == [12]
        verify_cone_bound(system, -0.6, 12)
        assert walks == [12, 12]

    def test_one_walk_per_abscissa_for_every_k(self, monkeypatch, tmp_path):
        # the oracle sample and the figure sweep walk the first system alone;
        # then each abscissa is one walk for every distinct k of the tables
        walks, walk = [], cones._walk_totals
        monkeypatch.setattr(cones, "_walk_totals",
                            lambda a, n, ks: walks.append((a, n, tuple(ks))) or walk(a, n, ks))
        k_list, a_list, n_max = [3, 2, 3], [-0.6, 0.0, 0.42, 0.0], 8
        cfg = ExperimentConfig(k_list=k_list, a_list=a_list, n_max=n_max, output_dir=str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(cfg, only="cones") == 0
        sweep = [(-0.98 + i * (1.96 / 160), 6, (3,)) for i in range(161)]
        tables = [(a, n_max, (3, 2)) for a in a_list]
        assert walks == [(a_list[2], 4, (3,))] + sweep + tables


SWEEP_A = [-0.98 + i * (1.96 / 160) for i in range(161)]  # the cone figure's abscissas


def _assert_rows_match_oracle(system, abscissas, n):
    got = slice_intervals(system, np.array(abscissas, dtype=float), n)
    assert got.shape == (len(abscissas), 2**n, 2)
    for a, row in zip(abscissas, got):
        want = oracles.slice_intervals_1d(system, a, n).tobytes()
        assert row.tobytes() == want, (system.k, a, n)
        assert slice_intervals(system, a, n).tobytes() == want, (system.k, a, n)


class TestBatchedIntervals:
    """slice_intervals over an array of abscissas against the per-abscissa
    oracle, tobytes()-equal, so a zero of the wrong sign counts."""

    @pytest.mark.parametrize("k", (2, 3, 5, 7))
    def test_sweep_abscissas_match_oracle(self, k):
        for n in range(7):
            _assert_rows_match_oracle(ConeSystem(k), SWEEP_A, n)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
                 | st.sampled_from([-0.0, 0.98, -0.98]), max_size=20),
        st.integers(2, 8),
        st.integers(0, 8),
    )
    def test_batch_property(self, abscissas, k, n):
        _assert_rows_match_oracle(ConeSystem(k), abscissas, n)

    @pytest.mark.parametrize("a", [[0.1, 1.0], [-1.0], [0.3, -2.5, 0.0], [0.2, math.nan]],
                             ids=["one", "minus-one", "past-minus-one", "nan"])
    def test_abscissa_outside_raises(self, k3, a):
        with pytest.raises(DomainError, match="abscissa"):
            slice_intervals(k3, np.array(a), 3)

    def test_two_dimensional_array_raises(self, k3):
        with pytest.raises(DomainError, match="1-D"):
            slice_intervals(k3, np.zeros((2, 2)), 3)

    @pytest.mark.parametrize("n", (0, 3))
    def test_empty_array(self, k3, n):
        assert slice_intervals(k3, np.array([]), n).shape == (0, 2**n, 2)

    def test_depth_guard_holds_for_arrays(self, k3):
        with pytest.raises(SizeGuardError):
            slice_intervals(k3, np.array([0.1]), cones.LEVEL_HARD_CAP + 1)

    def test_figure_takes_leaves_from_one_call(self, monkeypatch, tmp_path):
        # the 161 figure slices are one batched call; the totals stay one
        # slice_measure call per abscissa
        calls, leaves = [], cones.slice_intervals
        monkeypatch.setattr(cones, "slice_intervals",
                            lambda system, a, n: calls.append((system.k, a, n)) or leaves(system, a, n))
        cfg = ExperimentConfig(k_list=[3, 2], n_max=8, output_dir=str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(cfg, only="cones") == 0
        assert len(calls) == 1
        k, a, n = calls[0]
        assert (k, n) == (3, 6)
        assert np.asarray(a).tobytes() == np.array(SWEEP_A).tobytes()


def _inline_brute_force_total(k, a, n, resolution):
    """brute_force_slice's total with its own copy of the fiber step, as
    it was before the y-grids went through cone_map."""
    level = [a]
    for _ in range(n):
        level = [x for v in level
                 for x in (cones._branch_preimage(v, -1), cones._branch_preimage(v, +1))]
    ygrid = np.linspace(-1.0, 1.0, int(math.ceil(2.0 / resolution)) + 1)
    inv_k = 1.0 / k
    intervals = []
    for x0 in level:
        x, y = x0, ygrid.copy()
        for _ in range(n):
            factor = abs(x) ** inv_k
            if x > 0.0:
                y = 0.5 * (y * factor + 1.0)
            else:
                y = 0.5 * (y * factor - 1.0)
            x = branch_value(2.0, x)
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
    return math.fsum(pieces)


class TestOneSkewProduct:
    def test_k_is_the_only_parameter(self):
        assert [f.name for f in dataclasses.fields(cones.ConeSystem)] == ["k", "_totals"]
        assert [f.name for f in dataclasses.fields(cones.ConeSystem) if f.init] == ["k"]

    @pytest.mark.parametrize("k", WIDE_K)
    def test_brute_force_matches_inline_fiber_step(self, k):
        system = ConeSystem(k)
        for a in WIDE_A:
            for n in range(5):
                got = brute_force_slice(system, a, n, 1e-3)
                assert got.hex() == _inline_brute_force_total(k, a, n, 1e-3).hex()

    @pytest.mark.parametrize("k", WIDE_K)
    def test_array_fiber_matches_scalar(self, k):
        system = ConeSystem(k)
        ys = np.concatenate([np.linspace(-1.0, 1.0, 201), [-0.0, 1e-300, -0.3333333333333333]])
        for x in (-1.0, -0.6, -1e-9, 2.0 ** -40, 0.42, 0.75, 1.0):
            xa, ya = cone_map(system, x, ys)
            assert ya.shape == ys.shape
            for y, got in zip(ys.tolist(), ya.tolist()):
                xs, want = cone_map(system, x, y)
                assert (xa.hex(), got.hex()) == (xs.hex(), want.hex())

    def test_array_outside_square(self, k2):
        with pytest.raises(DomainError):
            cone_map(k2, 0.5, np.array([0.0, 1.2]))
