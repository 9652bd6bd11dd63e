import math

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from fathorse import fatcantor
from fathorse.errors import DomainError, FeasibilityError, InvalidParameterError, SizeGuardError
from fathorse.fatcantor import GapLengthSequence, make_construction, zeta_value
from fathorse.lorenz import LorenzBranchMap

FLIP = str.maketrans("01", "10")
SAMPLE_WORDS = ["", "0", "1", "01", "10", "0011", "101010", "000000000001", "011011011011"]
A18 = LorenzBranchMap.from_coefficient(1.8).a


class TestZeta:
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_matches_scipy(self, p):
        assert zeta_value(p) == pytest.approx(float(scipy_zeta(p, 1)), abs=1e-13)

    def test_basel_value(self):
        assert zeta_value(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 5.0])
    def test_matches_long_sum(self, p):
        # the 200,000-term sum it replaced, to 2 ulp
        assert abs(zeta_value(p) - oracles.zeta_long_sum(p)) <= 2.0 * math.ulp(zeta_value(p))

    def test_report_bits_at_two(self):
        # the zeta(2) behind report.json, and the long sum's
        assert zeta_value(2.0).hex() == "0x1.a51a6625307d3p+0"
        assert oracles.zeta_long_sum(2.0).hex() == "0x1.a51a6625307d3p+0"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1.0, max_value=64.0, exclude_min=True))
    @example(1.0 + 2.0 ** -40)
    @example(1.0001)
    @example(1.0009546318276221)  # 2.66e-16 off without the tail's rounding-error term
    @example(250.0)
    @example(300.0)
    @example(1000.0)
    @example(1e300)
    def test_matches_mpmath(self, p):
        # to 50 digits; from p = 300 on M^-p is 0.0, and the sum must be 1.0, not NaN
        value = zeta_value(p)
        assert math.isfinite(value)
        with mpmath.workdps(50):
            exact = mpmath.zeta(mpmath.mpf(p))
            assert abs((mpmath.mpf(value) - exact) / exact) <= 2.2e-16
        if p >= 300.0:
            assert value == 1.0

    def test_divergent_exponent(self):
        with pytest.raises(InvalidParameterError):
            zeta_value(1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_nonfinite_exponent(self, lorenz18, p):
        # NaN passed a p <= 1 test, and zeta(inf) summed to NaN
        with pytest.raises(InvalidParameterError):
            zeta_value(p)
        with pytest.raises(InvalidParameterError):
            GapLengthSequence(first_length=0.1, exponent=p)
        with pytest.raises(InvalidParameterError):
            make_construction(lorenz18, p)


class TestGapLengthSequence:
    def test_first_length(self, construction18):
        gaps = construction18.gaps
        assert gaps.length(0) == gaps.first_length

    def test_ratio_increases_to_one(self):
        # gap(n+1)/gap(n) = ((n+1)/(n+2))^p
        gaps = GapLengthSequence(first_length=0.1, exponent=2.0)
        ratios = [((n + 1.0) / (n + 2.0)) ** gaps.exponent for n in range(50)]
        for n, r in enumerate(ratios):
            assert r == pytest.approx(gaps.length(n + 1) / gaps.length(n), rel=1e-15)
        assert all(r1 < r2 < 1.0 for r1, r2 in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("p", [250.0, 300.0, 1000.0, 1e300])
    def test_length_is_total_for_a_large_exponent(self, p):
        # where (n+1)^p is past the doubles the length is 0.0; elsewhere the
        # quotient is unchanged, bit for bit
        gaps = GapLengthSequence(first_length=0.4, exponent=p)
        for n in range(40):
            try:
                expected = 0.4 / (n + 1.0) ** p
            except OverflowError:
                expected = 0.0
            assert gaps.length(n).hex() == expected.hex()
        assert gaps.length(0) == 0.4 and gaps.length(39) == 0.0
        assert gaps.partial_sum(40) == math.fsum(gaps.length(n) for n in range(40))

    def test_divergent_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            GapLengthSequence(first_length=0.1, exponent=1.0)

    @pytest.mark.parametrize("first", [math.nan, math.inf, 0.0, -0.1])
    def test_first_length_must_be_finite_and_positive(self, first):
        # a NaN first length passed a <= 0 test, and every length was NaN
        with pytest.raises(InvalidParameterError, match="first gap length must be finite"):
            GapLengthSequence(first_length=first, exponent=2.0)

    def test_half_gap_table_matches_formula(self, lorenz18):
        # a fresh construction, read deepest level first
        cc = make_construction(lorenz18, 2.0)
        assert cc.half_gap(60) == 0.5 * cc.gaps.length(60) / 2.0 ** 60
        for n in range(61):
            assert cc.half_gap(n) == 0.5 * cc.gaps.length(n) / 2.0 ** n


class TestFeasibility:
    def test_c18_p2_feasible(self, lorenz18, construction18):
        limit = construction18.limit_measure()
        expected = 2.0 * lorenz18.a - 2.0 * lorenz18.b * (math.pi ** 2 / 6.0)
        assert limit == pytest.approx(expected, abs=1e-12)
        assert limit == pytest.approx(0.0819, abs=5e-4)

    def test_c2_p2_infeasible(self):
        boundary = LorenzBranchMap.from_coefficient(2.0)
        with pytest.raises(FeasibilityError) as err:
            make_construction(boundary, 2.0)
        assert "zeta" in str(err.value)

    def test_p1_divergent(self, lorenz18):
        with pytest.raises(InvalidParameterError):
            make_construction(lorenz18, 1.0)


class TestIntervals:
    def test_root(self, construction18, lorenz18):
        assert oracles.interval(construction18, "") == (-lorenz18.a, lorenz18.a)

    def test_first_children(self, construction18, lorenz18):
        a, b = lorenz18.a, lorenz18.b
        assert oracles.interval(construction18, "0") == pytest.approx((b, a), abs=1e-15)
        assert oracles.interval(construction18, "1") == pytest.approx((-a, -b), abs=1e-15)

    def test_root_gap(self, construction18, lorenz18):
        b = lorenz18.b
        assert oracles.gap(construction18, "") == pytest.approx((-b, b), abs=1e-15)

    @pytest.mark.parametrize("word", SAMPLE_WORDS)
    def test_gap_lengths(self, construction18, word):
        lo, hi = oracles.gap(construction18, word)
        n = len(word)
        expected = construction18.gaps.length(n) / 2.0 ** n
        assert hi - lo == pytest.approx(expected, abs=1e-15 * (n + 1))

    @pytest.mark.parametrize("word", SAMPLE_WORDS)
    def test_closed_form_length(self, construction18, word):
        lo, hi = oracles.interval(construction18, word)
        expected = oracles.level_interval_length(construction18, len(word))
        assert abs((hi - lo) - expected) <= 1e-14 * (len(word) + 1)

    @pytest.mark.parametrize("word", SAMPLE_WORDS)
    def test_children_partition_parent(self, construction18, word):
        lo, hi = oracles.interval(construction18, word)
        glo, ghi = oracles.gap(construction18, word)
        assert oracles.interval(construction18, word + "1") == (lo, glo)
        assert oracles.interval(construction18, word + "0") == (ghi, hi)
        assert lo < glo < ghi < hi

    @pytest.mark.parametrize("word", SAMPLE_WORDS)
    def test_mirror_symmetry(self, construction18, word):
        flipped = "".join("1" if ch == "0" else "0" for ch in word)
        lo, hi = oracles.interval(construction18, word)
        flo, fhi = oracles.interval(construction18, flipped)
        assert flo == pytest.approx(-hi, abs=1e-15)
        assert fhi == pytest.approx(-lo, abs=1e-15)

    def test_bad_word(self, construction18):
        with pytest.raises(DomainError):
            oracles.interval(construction18, "02")


class TestLevelMeasure:
    def test_level_zero(self, construction18, lorenz18):
        assert construction18.level_measure(0) == 2.0 * lorenz18.a

    def test_level_one(self, construction18, lorenz18):
        assert construction18.level_measure(1) == pytest.approx(
            2.0 * lorenz18.a - 2.0 * lorenz18.b, abs=1e-15
        )

    def test_telescoping(self, construction18):
        for n in range(20):
            step = construction18.level_measure(n) - construction18.level_measure(n + 1)
            assert abs(step - construction18.gaps.length(n)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_matches_enumerated_sum(self, construction18, n):
        words = [""]
        for _ in range(n):
            words = [w + ch for w in words for ch in "01"]
        total = math.fsum(
            hi - lo for lo, hi in (oracles.interval(construction18, w) for w in words)
        )
        assert abs(total - construction18.level_measure(n)) <= 1e-12

    def test_decreasing_with_positive_limit(self, construction18):
        values = [construction18.level_measure(n) for n in range(25)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] > construction18.limit_measure() > 0.0

    def test_size_guard(self, construction18):
        with pytest.raises(SizeGuardError):
            construction18.level_measure(31)


class TestLocate:
    def test_center_is_root_gap(self, construction18):
        assert oracles.locate(construction18, 0.0, 5) == ("gap", "")

    def test_right_endpoint(self, construction18, lorenz18):
        assert oracles.locate(construction18, lorenz18.a, 7) == ("interval", "0" * 7)

    def test_shared_endpoint_goes_to_gap(self, construction18, lorenz18):
        assert oracles.locate(construction18, lorenz18.b, 7) == ("gap", "")

    @pytest.mark.parametrize("word", [w for w in SAMPLE_WORDS if w])
    def test_interval_midpoint_round_trip(self, construction18, word):
        lo, hi = oracles.interval(construction18, word)
        kind, found = oracles.locate(construction18, 0.5 * (lo + hi), len(word))
        # the midpoint of an interval is the center of its own gap
        assert (kind, found) in {("interval", word), ("gap", word)}
        kind2, found2 = oracles.locate(construction18, lo + 0.1 * (hi - lo), len(word))
        assert found2[: len(word)] == word or kind2 == "gap"

    def test_domain_checks(self, construction18):
        with pytest.raises(DomainError):
            oracles.locate(construction18, 0.5, 3)
        with pytest.raises(DomainError):
            oracles.locate(construction18, 0.0, 0)


class TestCoverDoubling:
    @pytest.mark.parametrize("word", ["", "0", "1", "01", "110"])
    def test_shift_halves_cover(self, construction18, word):
        # the level-L cover inside I_{0w} is half the level-L cover in I_w
        for extra in (1, 3, 5):
            level = len(word) + extra
            half = oracles.subtree_cover_length(construction18, "0" + word, level)
            full = oracles.subtree_cover_length(construction18, word, level)
            assert abs(2.0 * half - full) <= 1e-12

    def test_cover_against_enumeration(self, construction18):
        word, level = "0", 6
        words = [word]
        for _ in range(level - len(word)):
            words = [w + ch for w in words for ch in "01"]
        total = math.fsum(
            hi - lo for lo, hi in (oracles.interval(construction18, w) for w in words)
        )
        assert abs(total - oracles.subtree_cover_length(construction18, word, level)) <= 1e-12


class TestLevelArrays:
    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    def test_bit_equal_to_word_intervals(self, c):
        cc = make_construction(LorenzBranchMap.from_coefficient(c), 2.0)
        for n in range(fatcantor.LEVEL_ARRAY_CAP + 1):
            # left to right: letter 1 is the left child, the first letter the top split
            words = [format(i, f"0{n}b").translate(FLIP) if n else "" for i in range(2 ** n)]
            assert [fatcantor.word_cell(w) for w in words] == list(range(2 ** n))
            expected = np.array([oracles.interval(cc, w) for w in words]).T
            got = np.array(cc.level(n))
            assert got.shape == (2, 2 ** n)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_sorted_and_read_only(self, construction18):
        lo, hi = construction18.level(8)
        assert np.all(lo < hi) and np.all(hi[:-1] < lo[1:])
        with pytest.raises(ValueError):
            lo[0] = 0.0

    def test_guards(self, construction18):
        with pytest.raises(DomainError):
            construction18.level(-1)
        with pytest.raises(SizeGuardError):
            construction18.level(fatcantor.LEVEL_ARRAY_CAP + 1)


def _memo_interval(cc, word, cache):
    """The word-keyed memoized recursion that once backed interval(): the
    oracle of the descent from the root."""
    cached = cache.get(word)
    if cached is not None:
        return cached
    if word == "":
        result = (-cc.half_width, cc.half_width)
    else:
        parent_lo, parent_hi = _memo_interval(cc, word[:-1], cache)
        gap_lo, gap_hi = _memo_gap_from(cc, parent_lo, parent_hi, len(word) - 1)
        result = (gap_hi, parent_hi) if word[-1] == "0" else (parent_lo, gap_lo)
    cache[word] = result
    return result


def _memo_gap_from(cc, lo, hi, level):
    center = 0.5 * (lo + hi)
    half = 0.5 * cc.gaps.length(level) / 2.0 ** level
    return center - half, center + half


def _memo_gap(cc, word, cache):
    return _memo_gap_from(cc, *_memo_interval(cc, word, cache), len(word))


def _per_letter_locate(cc, x, depth, cache):
    """locate as the per-letter gap(word) loop over the memoized tree."""
    word = ""
    while len(word) < depth:
        gap_lo, gap_hi = _memo_gap(cc, word, cache)
        if gap_lo <= x <= gap_hi:
            return ("gap", word)
        word += "0" if x > gap_hi else "1"
    return ("interval", word)


def _hex(pair):
    return tuple(v.hex() for v in pair)


@pytest.fixture(scope="module")
def memo_cache():
    # shared by every example, as the construction's own cache once was
    return {}


class TestTreeParity:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01", max_size=40))
    def test_word_reads_match_memoized_recursion(self, construction18, memo_cache, word):
        cc = construction18
        assert _hex(oracles.interval(cc, word)) == _hex(_memo_interval(cc, word, memo_cache))
        assert _hex(oracles.gap(cc, word)) == _hex(_memo_gap(cc, word, memo_cache))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-A18, A18), st.integers(1, 20))
    def test_locate_matches_per_letter_loop(self, construction18, memo_cache, x, depth):
        cc = construction18
        assert oracles.locate(cc, x, depth) == _per_letter_locate(cc, x, depth, memo_cache)

    @pytest.mark.parametrize("depth", [1, 2, 5, 8, 20])
    def test_locate_at_interval_ends_and_gap_edges(self, construction18, memo_cache, depth):
        cc = construction18
        for n in range(8):
            los, his = cc.level(n)
            glos, ghis = cc._gap_from(los, his, n)
            for x in np.concatenate([los, his, glos, ghis]).tolist():
                assert oracles.locate(cc, x, depth) == _per_letter_locate(cc, x, depth, memo_cache)
            if n < depth:
                # a gap edge is also the end of its neighbor interval: the tie goes to the gap
                words = [format(i, f"0{n}b").translate(FLIP) if n else "" for i in range(2 ** n)]
                for word, glo, ghi in zip(words, glos.tolist(), ghis.tolist()):
                    assert oracles.locate(cc, glo, depth) == ("gap", word)
                    assert oracles.locate(cc, ghi, depth) == ("gap", word)
