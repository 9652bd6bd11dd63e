import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fathorse import runner
from fathorse.bowen import build_base_map
from fathorse.cli import main
from fathorse.config import ExperimentConfig, load_config, validate
from fathorse.cones import LEVEL_HARD_CAP
from fathorse.errors import ConfigError, DomainError
from fathorse.fatcantor import LEVEL_MEASURE_CAP, make_construction
from fathorse.horseshoe import (
    MEASURE_DEPTH_CAP,
    MEASURE_RESOLUTION_FLOOR,
    make_poincare_system,
    splitmix64,
)
from fathorse.lorenz import LorenzBranchMap
from fathorse.runner import SUITES, run
from fathorse.svgfig import FIGURE_KINDS, PIXEL, render_section_svg
from oracles import SplitMix64
from test_writers import _first_difference


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _strict_json(path: Path):
    """Read a JSON file, refusing the non-standard Infinity, -Infinity and NaN tokens."""

    def refuse(token):
        raise ValueError(f"{path.name}: non-finite token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _merge_at_pixel(rows):
    """Reference for runner._pixel_merge: join each [lo, hi] to the run before
    it while the gap between them is under one canvas pixel."""
    merged = []
    for lo, hi in rows:
        if merged and lo - merged[-1][1] < PIXEL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


SMALL = {
    "c": 1.8,
    "p": 2,
    "k_list": [2, 3],
    "a_list": [0.0, 0.42],
    "n_max": 6,
    "level_max": 8,
    "N": 3,
    "resolution": 2e-3,
    "delta": 0.1,
    "seed": 7,
}
IMAGE_HALF = {"x_range": [0.1, 0.5], "strip_y": [-0.2, 0.2], "hook_y": [-0.6, 0.6]}
# any JSON value under the figures' key names, as `render` and `run` hand it over
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(
        ["b", "strip_halfheight", "epsilon", "upper", "lower", "x_range", "strip_y", "hook_y",
         "cap", "k", "n", "slices", "a", "ends", "total", "half_width", "depth", "point_size",
         "xs", "ys", "points"]), inner, max_size=4),
    max_leaves=25,
)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.c == 1.8
        assert cfg.p == 2.0
        assert cfg.k_list == [2, 3, 5]
        assert cfg.a_list == [-0.9, -0.3, 0.0, 0.42, 0.9]
        assert cfg.n_max == 14
        assert cfg.level_max == 12
        assert cfg.N == 6
        assert cfg.resolution == 1e-3
        assert cfg.delta == 0.1

    def test_round_trip(self, tmp_path):
        cfg = load_config(_write(tmp_path / "c.json", SMALL))
        assert cfg.k_list == [2, 3]
        assert cfg.seed == 7
        assert cfg.resolution == 2e-3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(_write(tmp_path / "c.json", {"c": 1.8, "extra": 1}))

    def test_bad_types_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path / "c.json", {"c": "fast"}))
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path / "c.json", {"k_list": [2.5]}))
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path / "c.json", [1, 2]))

    @pytest.mark.parametrize(
        "override",
        [
            pytest.param({"k_list": []}, id="k_list-empty"),
            pytest.param({"a_list": []}, id="a_list-empty"),
            pytest.param({"level_max": -1}, id="level_max-negative"),
            pytest.param({"N": -1}, id="N-negative"),
            pytest.param({"seed": 1.5}, id="seed-fractional"),
            pytest.param({"n_max": 2.5}, id="n_max-fractional"),
            pytest.param({"N": True}, id="N-bool"),
            pytest.param({"seed": False}, id="seed-bool"),
            pytest.param({"k_list": [True, 3]}, id="k_list-bool"),
            pytest.param({"a_list": [0.0, True]}, id="a_list-bool"),
            pytest.param({"resolution": float("nan")}, id="resolution-nan"),
            pytest.param({"delta": float("inf")}, id="delta-inf"),
            pytest.param({"c": "1.8"}, id="c-string"),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, override):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path / "c.json", {**SMALL, **override}))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("N", MEASURE_DEPTH_CAP + 3),
            ("level_max", LEVEL_MEASURE_CAP + 10),
            ("n_max", LEVEL_HARD_CAP + 1),
            ("resolution", MEASURE_RESOLUTION_FLOOR / 2),
            ("delta", -0.1),
            ("delta", 0.0),
        ],
    )
    def test_kernel_bound_refused_naming_key_and_value(self, tmp_path, key, value):
        # refused by the loader under the config's name for it, before any suite runs
        with pytest.raises(ConfigError) as info:
            load_config(_write(tmp_path / "c.json", {**SMALL, key: value}))
        assert f"config key {key!r} " in str(info.value)
        assert str(info.value).endswith(f"got {value}")

    def test_kernel_bounds_admit_their_limits(self):
        validate(ExperimentConfig(N=MEASURE_DEPTH_CAP, level_max=LEVEL_MEASURE_CAP,
                                  n_max=LEVEL_HARD_CAP, resolution=MEASURE_RESOLUTION_FLOOR,
                                  delta=math.ulp(0.0)))

    def test_validate_normalizes_python_config(self):
        cfg = validate(ExperimentConfig(c=2, N=3.0, k_list=(2.0, 3)))
        assert cfg.c == 2.0 and isinstance(cfg.c, float)
        assert cfg.N == 3 and isinstance(cfg.N, int)
        assert cfg.k_list == [2, 3]
        with pytest.raises(ConfigError):
            validate(ExperimentConfig(resolution=None))

    def test_integral_floats_accepted(self, tmp_path):
        cfg = load_config(_write(tmp_path / "c.json", {"n_max": 6.0, "k_list": [2.0]}))
        assert cfg.n_max == 6 and isinstance(cfg.n_max, int)
        assert cfg.k_list == [2] and isinstance(cfg.k_list[0], int)


class TestSplitMix:
    def test_reference_stream(self):
        # independent transcription of the mixer, checked word by word
        def reference(seed, count):
            mask = (1 << 64) - 1
            state = seed
            out = []
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                out.append(z ^ (z >> 31))
            return out

        rng = SplitMix64(1234)
        assert [rng.next_uint64() for _ in range(5)] == reference(1234, 5)

    def test_doubles_in_unit_interval(self):
        rng = SplitMix64(9)
        vals = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) == 1000

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-2 ** 70, 2 ** 70), st.integers(0, 64))
    def test_array_draw_is_the_stream(self, seed, count):
        rng = SplitMix64(seed)
        assert splitmix64(seed, count).tolist() == [rng.next_uint64() for _ in range(count)]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, 2 ** 64 - 1])
    def test_array_draw_over_a_witness_run(self, seed):
        # the 4,000 outputs of the default run's 1,000 witness samples
        rng = SplitMix64(seed)
        assert splitmix64(seed, 4000).tolist() == [rng.next_uint64() for _ in range(4000)]

    def test_bits(self):
        assert oracles.bits(SplitMix64(5), 8) == oracles.bits(SplitMix64(5), 8)
        assert set(oracles.bits(SplitMix64(5), 64)) <= {"0", "1"}


class TestSvg:
    def test_empty_dataset_gives_axes_only(self):
        svg = render_section_svg({}, "cones")
        assert svg.startswith("<svg")
        assert "polygon" not in svg
        assert svg.count("<line") >= 2

    @pytest.mark.parametrize("kind", ["image", "horseshoe"])
    def test_empty_dataset_renders_bare_canvas(self, kind):
        svg = render_section_svg({}, kind)
        assert svg.count("<rect") == 1 and "<polygon" not in svg  # the frame only
        assert svg.count("<line") >= 2  # the axes

    def test_empty_partition_is_malformed(self):
        with pytest.raises(DomainError, match="malformed partition dataset"):
            render_section_svg({}, "partition")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            render_section_svg({}, "sections")

    @pytest.mark.parametrize(
        "kind, dataset",
        [
            pytest.param("horseshoe", {"half_width": 10**400}, id="half-width"),
            pytest.param("horseshoe", {"xs": [0.1], "ys": [10**400]}, id="horseshoe-point"),
            pytest.param("cones", {"slices": [{"a": 10**400, "ends": [0.0, 0.1]}]}, id="cones-a"),
        ],
    )
    def test_int_past_the_doubles_is_malformed(self, kind, dataset):
        with pytest.raises(DomainError, match=f"^malformed {kind} dataset: OverflowError"):
            render_section_svg(dataset, kind)

    def test_deterministic(self):
        dataset = {"b": 0.25, "strip_halfheight": 0.9}
        assert render_section_svg(dataset, "partition") == render_section_svg(
            dataset, "partition"
        )

    def test_partition_has_four_regions(self):
        svg = render_section_svg({"b": 0.25, "strip_halfheight": 0.9}, "partition")
        assert svg.count("<polygon") == 2
        assert svg.count("<rect") >= 3  # frame plus the two strips

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FIGURE_KINDS), JSON_VALUES)
    # NaNs the `%`-templates would draw on the in-process path unless the check refuses them
    @example("cones", {"slices": [{"a": math.nan, "ends": [0.0, 0.1]}]})
    @example("horseshoe", {"xs": [0.1, math.nan], "ys": [0.2]})
    def test_any_json_draws_finite_numbers_or_is_malformed(self, kind, dataset):
        try:
            svg = render_section_svg(dataset, kind)
        except DomainError:
            return
        assert "nan" not in svg and "inf" not in svg


class TestPixelMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-0.98, 0.98, allow_nan=False),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 7),
    )
    @example(0.0, 2, 0)
    def test_merge_of_cone_leaves(self, a, k, n):
        import numpy as np

        from fathorse.cones import ConeSystem, slice_intervals

        leaves = slice_intervals(ConeSystem(k), a, n)
        ends = runner._pixel_merge(leaves)
        assert ends.ndim == 1 and ends.size % 2 == 0  # lo0, hi0, lo1, hi1, ...
        merged = ends.reshape(-1, 2)
        assert merged.tolist() == _merge_at_pixel(leaves.tolist())
        assert np.all(np.diff(ends) >= 0)  # sorted, each lo <= hi
        assert np.all(merged[1:, 0] - merged[:-1, 1] >= PIXEL)
        inside = (merged[:, 0] <= leaves[:, :1]) & (leaves[:, 1:] <= merged[:, 1])
        assert np.all(inside.sum(axis=1) == 1)
        assert set(merged[:, 0]) <= set(leaves[:, 0]) and set(merged[:, 1]) <= set(leaves[:, 1])
        assert runner._pixel_merge(merged).tobytes() == ends.tobytes()
        if n == 0:
            assert ends.tolist() == [-1.0, 1.0] and leaves.tolist() == [[-1.0, 1.0]]


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig(**{**SMALL, "output_dir": str(out)})
    code = run(cfg)
    return code, out


class TestRunner:
    def test_exit_zero(self, outcome):
        assert outcome[0] == 0

    def test_artifacts_present(self, outcome):
        _, out = outcome
        for name in ("cones.csv", "fatcantor.csv", "surgery.json", "horseshoe.csv", "report.json"):
            assert (out / name).is_file()
        for kind in ("partition", "image", "cones", "horseshoe"):
            assert (out / "figures" / f"{kind}.svg").is_file()
            assert (out / "figures" / f"{kind}.json").is_file()

    def test_report_schema(self, outcome):
        _, out = outcome
        report = json.loads((out / "report.json").read_text())
        assert report["criteria"]
        for rec in report["criteria"]:
            assert set(rec) == {"id", "value", "bound", "rule", "pass"}
            assert rec["pass"] is True

    def test_records_hold_the_pass_rule(self, outcome):
        _, out = outcome
        records = json.loads((out / "report.json").read_text())["criteria"]
        assert len({rec["id"] for rec in records}) == len(records) == 22
        ids = [rec["id"] for rec in records]
        composition = ids.index("horseshoe_second_return_composition")
        assert ids[composition - 1] == "horseshoe_f2_identities"
        for rec in records:
            assert set(rec) == {"id", "value", "bound", "rule", "pass"}
            assert rec["rule"] in ("<=", ">")
            holds = rec["value"] > rec["bound"] if rec["rule"] == ">" else rec["value"] <= rec["bound"]
            assert rec["pass"] is holds

    def test_image_figure_is_the_section_maps_image(self, outcome):
        # cap rows are the images of (x, -1) and (x, 1) on the figure's 49
        # abscissas from b + 1e-9 down to 1e-9, strip_y and hook_y those of
        # (b, -+y_cap) and (b, -+1), x_range those of x = b and x = 1; the
        # lower half is the same on -x, which is the odd mirror
        _, out = outcome
        image = json.loads((out / "figures" / "image.json").read_text())
        cc = make_construction(LorenzBranchMap.from_coefficient(SMALL["c"]), SMALL["p"])
        ps = make_poincare_system(build_base_map(cc))
        b, y_cap = ps.bowen.m.b, ps.strip_halfheight
        xs = [b * (1.0 - i / 48) ** 2 + 1e-9 for i in range(49)]
        for sign, half in ((1.0, image["upper"]), (-1.0, image["lower"])):
            def at(x, y, sign=sign):
                return list(ps.section_map((sign * x, y)))

            assert half["cap"] == [at(x, -1.0) + at(x, 1.0)[1:] for x in xs]
            assert half["strip_y"] == [at(b, -y_cap)[1], at(b, y_cap)[1]]
            assert half["hook_y"] == [at(b, -1.0)[1], at(b, 1.0)[1]]
            assert half["x_range"] == sorted([at(b, 0.0)[0], at(1.0, 0.0)[0]])
        upper, lower = image["upper"], image["lower"]
        assert lower["cap"] == [[-x, -hi, -lo] for x, lo, hi in upper["cap"]]
        for key in ("x_range", "strip_y", "hook_y"):
            assert lower[key] == [-v for v in reversed(upper[key])]

    def test_one_failed_number_fails_its_record_alone(self, tmp_path, monkeypatch, capsys):
        verify = runner.verify_surgery
        monkeypatch.setattr(
            runner, "verify_surgery",
            lambda *args, **kw: dataclasses.replace(verify(*args, **kw), min_increment=0.0),
        )
        cfg = ExperimentConfig(**{**SMALL, "output_dir": str(tmp_path)})
        assert run(cfg) == 1
        records = json.loads((tmp_path / "report.json").read_text())["criteria"]
        assert [rec["id"] for rec in records if not rec["pass"]] == ["surgery_monotone"]
        assert "FAIL  surgery_monotone: value=0 > bound=0\n" in capsys.readouterr().out

    def test_no_sup_pair_passes_vacuously(self, tmp_path, capsys):
        # strict JSON: the vacuous extrema are written null, never Infinity
        cfg = ExperimentConfig(**{**SMALL, "level_max": 1, "n_max": 0, "output_dir": str(tmp_path)})
        assert run(cfg) == 0
        records = _strict_json(tmp_path / "report.json")["criteria"]
        vacuous = {rec["id"]: rec for rec in records if rec["value"] is None}
        assert sorted(vacuous) == ["cone_level_decay", "surgery_sup_decreasing"]
        assert all(rec["pass"] is True for rec in vacuous.values())
        lines = capsys.readouterr().out.splitlines()
        assert "pass  surgery_sup_decreasing: value=inf > bound=0" in lines
        for path in tmp_path.rglob("*.json"):
            _strict_json(path)

    def test_nonfinite_json_raises(self, tmp_path):
        with pytest.raises(ValueError):
            runner._write_json(tmp_path / "bad.json", {"x": math.nan})
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize(
        "obj",
        [
            pytest.param({"x": [0.5, math.inf]}, id="float-list-inf"),
            pytest.param({"x": [-math.inf, 0.5]}, id="float-list-minus-inf"),
            pytest.param({"x": [0.1, math.nan, 0.2]}, id="float-list-nan"),
            pytest.param({"x": [[0.1, math.inf]]}, id="row-inf"),
            pytest.param({"x": [[0.1, 0.2], [-math.inf, 0.3]]}, id="row-minus-inf"),
            pytest.param({"x": [[math.nan, 0.2]]}, id="row-nan"),
        ],
    )
    def test_nonfinite_in_float_lists_raises(self, tmp_path, obj):
        # an all-float list, a [float, float] row among them, is written
        # without a per-element check; it must still refuse inf and nan
        with pytest.raises(ValueError):
            runner._write_json(tmp_path / "bad.json", obj)
        assert not (tmp_path / "bad.json").exists()

    def test_console_line_names_the_rule(self, tmp_path, capsys):
        cfg = ExperimentConfig(**{**SMALL, "output_dir": str(tmp_path)})
        assert run(cfg, only="fatcantor") == 0
        lines = capsys.readouterr().out.splitlines()
        records = json.loads((tmp_path / "report.json").read_text())["criteria"]
        assert len(lines) == len(records)
        tele = records[0]
        assert tele["id"] == "fatcantor_telescoping"
        assert lines[0] == f"pass  fatcantor_telescoping: value={tele['value']:.17g} <= bound={1e-12:.17g}"
        limit = next(rec for rec in records if rec["id"] == "fatcantor_limit_positive")
        assert f"pass  fatcantor_limit_positive: value={limit['value']:.17g} > bound=0" in lines

    def test_csv_shapes(self, outcome):
        _, out = outcome
        header, *rows = (out / "cones.csv").read_text().strip().split("\n")
        assert header == "k,a,n,total,bound,ratio"
        assert len(rows) == 2 * 2 * 7  # k_list x a_list x (n_max + 1)
        header2, *rows2 = (out / "horseshoe.csv").read_text().strip().split("\n")
        assert header2 == "N,estimate,exact_product,envelope"
        assert len(rows2) == SMALL["N"] + 1

    def test_single_suite(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL, "output_dir": str(tmp_path)})
        assert run(cfg, only="cones") == 0
        assert (tmp_path / "cones.csv").is_file()
        assert not (tmp_path / "horseshoe.csv").exists()

    def test_infeasible_exit_two(self, tmp_path):
        cfg = ExperimentConfig(c=2.0, output_dir=str(tmp_path))
        assert run(cfg) == 2

    def test_unvalidated_negative_depth_exits_two(self, tmp_path, capsys):
        # a config built in Python skips load_config; run validates it itself
        cfg = ExperimentConfig(N=-1, output_dir=str(tmp_path / "out"))
        assert run(cfg, only="horseshoe") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "'N'" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_suite_exits_two(self, tmp_path, capsys):
        cfg = ExperimentConfig(output_dir=str(tmp_path / "out"))
        assert run(cfg, only="bogus") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "unknown suite 'bogus'" in err
        assert not (tmp_path / "out").exists()

    def test_unvalidated_empty_k_list_exits_two(self, tmp_path, capsys):
        cfg = ExperimentConfig(k_list=[], output_dir=str(tmp_path / "out"))
        assert run(cfg, only="cones") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "k_list" in err

    def test_horseshoe_axes_are_the_member_centers(self, outcome):
        # the figure stores the product's two axes; its SVG draws every pair
        _, out = outcome
        dataset = json.loads((out / "figures" / "horseshoe.json").read_text())
        cc = make_construction(LorenzBranchMap.from_coefficient(SMALL["c"]), SMALL["p"])
        ps = make_poincare_system(build_base_map(cc))
        coarse = max(SMALL["resolution"], 2.0 * ps.bowen.m.a / 160)
        xs, ys = ps.member_centers(SMALL["N"], coarse)
        assert dataset["xs"] == xs.tolist() and dataset["ys"] == ys.tolist()
        assert sorted(dataset) == ["depth", "half_width", "point_size", "xs", "ys"]
        svg = (out / "figures" / "horseshoe.svg").read_text()
        assert svg.count('fill="#202020"') == len(xs) * len(ys) > 0

    def test_repeated_k_gets_its_own_block(self, tmp_path, monkeypatch):
        # one system per k_list entry, in config order; the first one also
        # serves the oracle sample and the figure sweep, and every figure
        # slice equals the pixel merge of the leaves a fresh system gives
        from fathorse import cones

        make, built = cones.ConeSystem, []
        monkeypatch.setattr(cones, "ConeSystem", lambda k: built.append(k) or make(k))
        k_list, a_list, n_max = [3, 2, 3], [-0.6, 0.0, 0.42], 5
        cfg = ExperimentConfig(**{**SMALL, "k_list": k_list, "a_list": a_list,
                                  "n_max": n_max, "output_dir": str(tmp_path)})
        assert run(cfg, only="cones") == 0
        assert built == k_list
        _, *rows = (tmp_path / "cones.csv").read_text().strip().split("\n")
        expected = [
            (str(k), a.hex(), str(row.n), row.total.hex(), row.bound.hex(), row.ratio.hex())
            for k in k_list for a in a_list
            for row in cones.verify_cone_bound(make(k), a, n_max)
        ]
        got = [line.split(",") for line in rows]
        assert [(r[0], float(r[1]).hex(), r[2], *(float(v).hex() for v in r[3:])) for r in got] == expected

        report = {rec["id"]: rec for rec in json.loads((tmp_path / "report.json").read_text())["criteria"]}
        a, n = a_list[1], min(4, n_max)
        oracle = abs(cones.brute_force_slice(make(3), a, n, 1e-3) - cones.slice_measure(make(3), a, n))
        assert report["cone_oracle_sample"]["value"].hex() == oracle.hex()
        sweep = json.loads((tmp_path / "figures" / "cones.json").read_text())
        assert (sweep["k"], sweep["n"], len(sweep["slices"])) == (3, 5, 161)
        for entry in sweep["slices"]:
            assert entry["total"].hex() == cones.slice_measure(make(3), entry["a"], 5).hex()
            leaves = cones.slice_intervals(make(3), entry["a"], 5).tolist()
            assert entry["ends"] == [v for row in _merge_at_pixel(leaves) for v in row]

    def test_cones_suite_holds_one_scratch(self, tmp_path):
        # the tables share one blocked walk per abscissa, so the suite's
        # traced peak stays near one n_max table, not one per k_list entry
        import tracemalloc

        from fathorse import cones

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cfg = ExperimentConfig(**{**SMALL, "k_list": [3, 3, 3, 3], "a_list": [0.42],
                                  "n_max": 18, "output_dir": str(tmp_path)})
        single = peak(lambda: cones.verify_cone_bound(cones.ConeSystem(3), 0.42, 18))
        assert peak(lambda: run(cfg, only="cones")) < 1.5 * single

    def test_n_zero_single_row(self, tmp_path):
        cfg = ExperimentConfig(
            **{**SMALL, "k_list": [2], "a_list": [0.0], "n_max": 0, "output_dir": str(tmp_path)}
        )
        assert run(cfg, only="cones") == 0
        rows = (tmp_path / "cones.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 1
        first = rows[0].split(",")
        assert first[2] == "0" and float(first[3]) == 2.0


def test_slice_interval_positions_match_forward_push():
    # the figure intervals come from the width recursion plus per-leaf
    # centers; check positions (not just lengths) against pushing a dense
    # grid along each orbit
    import numpy as np

    from fathorse.cones import ConeSystem, _branch_preimage, slice_intervals
    from fathorse.lorenz import branch_value

    a, n = 0.42, 4
    level = [a]
    for _ in range(n):
        level = [x for v in level for x in (_branch_preimage(v, -1), _branch_preimage(v, +1))]
    grid = np.linspace(-1.0, 1.0, 10_001)
    for k in (2, 3):
        system = ConeSystem(k)
        intervals = slice_intervals(system, a, n)
        assert intervals.shape == (2**n, 2)
        for (lo, hi), x0 in zip(intervals, level):
            x, y = x0, grid.copy()
            for _ in range(n):
                t = abs(x) ** (1.0 / system.k)
                y = 0.5 * (y * t + 1.0) if x > 0 else 0.5 * (y * t - 1.0)
                x = branch_value(2.0, x)
            assert lo == pytest.approx(float(y.min()), abs=1e-12)
            assert hi == pytest.approx(float(y.max()), abs=1e-12)


class TestCli:
    def test_run_and_render(self, tmp_path, capsys):
        # each figure the run writes is what `fathorse render` makes of its dataset
        conf = _write(tmp_path / "conf.json", {**SMALL, "output_dir": str(tmp_path / "out")})
        assert main(["run", "--config", str(conf)]) == 0
        figures = tmp_path / "out" / "figures"
        for kind in FIGURE_KINDS:
            target = tmp_path / f"{kind}.svg"
            assert main(["render", "--input", str(figures / f"{kind}.json"), "--kind", kind,
                         "--out", str(target)]) == 0
            got, want = target.read_bytes(), (figures / f"{kind}.svg").read_bytes()
            # byte equality, reported as the first differing line: a failing ==
            # on the 300 KB cones.svg would make pytest diff it for minutes
            assert _first_difference(got.decode("utf-8"), want.decode("utf-8")) is None, kind
        capsys.readouterr()

    def test_render_to_stdout(self, tmp_path, capsys):
        dataset = _write(tmp_path / "d.json", {"b": 0.2, "strip_halfheight": 0.8})
        assert main(["render", "--input", str(dataset), "--kind", "partition"]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    @pytest.mark.parametrize(
        "kind, dataset",
        [
            pytest.param("cones", {"slices": "x"}, id="cones-slices-string"),
            pytest.param("partition", {"b": "x"}, id="partition-missing-key"),
            pytest.param("partition", {}, id="partition-empty"),
            pytest.param("horseshoe", [[0.1, 0.2]], id="top-level-list"),
            # the NaN, Infinity and -Infinity tokens json.loads admits
            pytest.param("horseshoe", {"half_width": math.nan, "xs": [math.inf], "ys": [0.1]},
                         id="horseshoe-non-finite"),
            pytest.param("cones", {"slices": [{"a": -math.inf, "ends": [0.0, 0.1]}]},
                         id="cones-minus-infinity"),
            pytest.param("partition", {"b": 0.2, "strip_halfheight": 0.8, "note": math.nan},
                         id="partition-unread-nan"),
            # a JSON true or false is not a number, though a bool is an int
            pytest.param("horseshoe", {"xs": [True], "ys": [False], "point_size": True,
                                       "half_width": True}, id="horseshoe-booleans"),
            pytest.param("horseshoe", {"xs": [0.1], "ys": [False]}, id="horseshoe-point-boolean"),
            pytest.param("horseshoe", {"point_size": True}, id="horseshoe-size-boolean"),
            pytest.param("cones", {"slices": [{"a": True, "ends": [0.0, 0.1]}]},
                         id="cones-abscissa-boolean"),
            pytest.param("cones", {"slices": [{"a": 0.5, "ends": [False, 0.1]}]},
                         id="cones-interval-boolean"),
            # a slice's endpoints come in pairs, and a slice of [lo, hi] rows has no ends
            pytest.param("cones", {"slices": [{"a": 0.5, "ends": [0.0, 0.1, 0.2]}]},
                         id="cones-odd-ends"),
            pytest.param("cones", {"slices": [{"a": 0.5, "intervals": [[0.0, 0.1]]}]},
                         id="cones-intervals-rows"),
            pytest.param("partition", {"b": True, "strip_halfheight": 0.8}, id="partition-b-boolean"),
            pytest.param("partition", {"b": 0.2, "strip_halfheight": False},
                         id="partition-height-boolean"),
            # a side below zero, or a number that overflows to inf, cannot be drawn
            pytest.param("horseshoe", {"half_width": -0.5, "point_size": -0.01, "xs": [0.1],
                                       "ys": [0.2]}, id="horseshoe-negative-side"),
            pytest.param("horseshoe", {"point_size": 1e308}, id="horseshoe-side-overflow"),
            pytest.param("horseshoe", {"point_size": 1e307, "xs": [-1.7e308], "ys": [0.2]},
                         id="horseshoe-corner-overflow"),
            pytest.param("partition", {"b": 2.5, "strip_halfheight": -3},
                         id="partition-negative-side"),
            pytest.param("partition", {"b": 0.2, "strip_halfheight": 1e308},
                         id="partition-side-overflow"),
            pytest.param("image", {"upper": {**IMAGE_HALF, "x_range": [0.5, 0.1]}},
                         id="image-negative-side"),
            pytest.param("image", {"upper": {**IMAGE_HALF, "x_range": [-1e308, 1e308]}},
                         id="image-side-overflow"),
            # falsy non-objects are not the empty dataset
            *(pytest.param(kind, value, id=f"{kind}-{value!r}")
              for kind in ("cones", "image", "horseshoe") for value in ([], 0, None, False, "")),
            # every value has its kind's shape, also where an empty neighbour leaves it undrawn
            pytest.param("horseshoe", {"xs": "abc", "ys": []}, id="horseshoe-xs-string"),
            pytest.param("horseshoe", {"xs": {"q": 1}}, id="horseshoe-xs-object"),
            pytest.param("horseshoe", {"ys": None}, id="horseshoe-ys-null"),
            pytest.param("horseshoe", {"ys": "abc"}, id="horseshoe-ys-string"),
            pytest.param("horseshoe", {"half_width": []}, id="horseshoe-half-width-list"),
            pytest.param("horseshoe", {"half_width": ""}, id="horseshoe-half-width-string"),
            pytest.param("cones", {"slices": [{"a": "q", "ends": []}]}, id="cones-abscissa-string"),
            pytest.param("cones", {"slices": ""}, id="cones-slices-empty-string"),
            pytest.param("cones", {"slices": [{"a": 0.5, "ends": [], "total": "x"}]},
                         id="cones-total-string"),
            *(pytest.param("image", {half: value}, id=f"image-{half}-{value!r}")
              for half in ("upper", "lower") for value in ([], "", 0, {})),
            *(pytest.param("image", {half: {**IMAGE_HALF, "cap": cap}}, id=f"image-{half}-cap-{cap!r}")
              for half in ("upper", "lower") for cap in ("", {})),
            pytest.param("partition", {"b": 0.2, "strip_halfheight": 0.8, "epsilon": "x"},
                         id="partition-epsilon-string"),
            # the formats before the two axes and the tree-free dataset
            pytest.param("horseshoe", {"half_width": 0.5, "points": [[0.1, 0.2]]},
                         id="horseshoe-points-list"),
            pytest.param("horseshoe", {"half_width": 0.5, "xs": [0.1], "ys": [0.2],
                                       "tree": {"": [-0.5, 0.5]}}, id="horseshoe-tree-key"),
        ],
    )
    def test_render_malformed_dataset_exits_two(self, tmp_path, capsys, kind, dataset):
        path = _write(tmp_path / "d.json", dataset)
        assert main(["render", "--input", str(path), "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text, code",
        [
            # number literals past the doubles parse to inf, or crashed the renderer
            pytest.param(b'{"half_width": 1e400}', 2, id="float-past-the-doubles"),
            pytest.param(b'{"xs": [-1e400, 0.1]}', 2, id="negative-float-past-the-doubles"),
            pytest.param(b'{"half_width": ' + b"9" * 400 + b"}", 2, id="int-past-the-doubles"),
            pytest.param(b"\xff\xfe{}", 3, id="not-utf-8"),
            pytest.param(b'{"half_width": ', 3, id="truncated-json"),
            # json.loads raises RecursionError past the interpreter's limit
            pytest.param(b'{"xs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", 3,
                         id="nested-past-the-recursion-limit"),
        ],
    )
    def test_render_dataset_text(self, tmp_path, capsys, text, code):
        path = tmp_path / "d.json"
        path.write_bytes(text)
        assert main(["render", "--input", str(path), "--kind", "horseshoe",
                     "--out", str(tmp_path / "d.svg")]) == code
        captured = capsys.readouterr()
        assert not (tmp_path / "d.svg").exists()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("c", [1.7, 1.8, 1.95])
    @pytest.mark.parametrize("p", [2, 2.5, 3, 3.5, 4, 4.5, 5, 8, 20, 50, 250, 300, 1000, 1e300])
    def test_gap_exponent_runs_or_exits_two(self, tmp_path, capsys, c, p):
        # a large p makes gaps that round to a point before the base-map
        # walks reach their depth, where the gap diffeomorphism would divide
        # by their length; such a construction is refused with one line,
        # also where (n+1)^p itself is past the doubles
        conf = _write(tmp_path / "conf.json", {**SMALL, "c": c, "p": p})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(conf), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code in ((0,) if p in (2, 2.5) else (0, 1, 2))
        if code == 2:
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("invalid parameters: gap exponent")
        else:
            for path in (tmp_path / "out").rglob("*.json"):
                _strict_json(path)

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3
        capsys.readouterr()

    def test_bad_config_key(self, tmp_path, capsys):
        conf = _write(tmp_path / "conf.json", {"nope": 1})
        assert main(["run", "--config", str(conf)]) == 2
        capsys.readouterr()

    def test_deeply_nested_config_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text('{"k_list": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["run", "--config", str(conf), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: invalid JSON in ")
        assert "recursion" in err and not (tmp_path / "out").exists()

    def test_abscissa_near_one_names_the_oracle_slice(self, tmp_path, capsys):
        # the middle a_list entry goes to the bisecting oracle at level
        # min(4, n_max); near |a| = 1 its preimages reach x = 0 by rounding
        conf = _write(tmp_path / "conf.json", {**SMALL, "a_list": [0.99999999]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(conf), "--out", str(out), "--only", "cones"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid parameters: cannot resolve the level-4 brute-force slice at "
            "a = 0.99999999: an orbit of its bisected preimages meets the line x = 0"]
        assert not out.exists()

    def test_invalid_config_value_exits_two(self, tmp_path, capsys):
        conf = _write(tmp_path / "conf.json", {"N": -1})
        assert main(["run", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("blocked", ["out", "figures"])
    def test_unwritable_output_exits_three(self, tmp_path, capsys, blocked):
        # --out names a regular file, or figures/ inside it is one
        out = tmp_path / "out"
        if blocked == "out":
            out.write_text("")
        else:
            out.mkdir()
            (out / "figures").write_text("")
        conf = _write(tmp_path / "conf.json", SMALL)
        assert main(["run", "--config", str(conf), "--out", str(out), "--only", "cones"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("I/O failure:")
        assert "Traceback" not in captured.err

    def test_out_override(self, tmp_path, capsys):
        conf = _write(tmp_path / "conf.json", {**SMALL, "output_dir": str(tmp_path / "ignored")})
        override = tmp_path / "actual"
        assert main(["run", "--config", str(conf), "--out", str(override), "--only", "fatcantor"]) == 0
        assert (override / "fatcantor.csv").is_file()
        assert not (tmp_path / "ignored").exists()
        capsys.readouterr()


# -- property tests of the run() contract -------------------------------------

_NON_INTEGRAL = st.floats(-50.0, 50.0).filter(lambda v: v != int(v))
_NOT_A_NUMBER = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.sampled_from([math.nan, math.inf, -math.inf])
)

# (key, value) pairs that config.validate rejects
_REJECTED = st.one_of(
    st.tuples(st.sampled_from(("c", "p", "resolution", "delta")), _NOT_A_NUMBER),
    st.tuples(
        st.sampled_from(("n_max", "level_max", "N")),
        st.one_of(st.integers(max_value=-1), _NON_INTEGRAL, _NOT_A_NUMBER),
    ),
    st.tuples(st.just("seed"), st.one_of(_NON_INTEGRAL, _NOT_A_NUMBER)),
    st.tuples(
        st.sampled_from(("k_list", "a_list")),
        st.one_of(st.just([]), _NOT_A_NUMBER, st.lists(_NOT_A_NUMBER, min_size=1, max_size=3)),
    ),
    st.tuples(st.just("k_list"), st.lists(_NON_INTEGRAL, min_size=1, max_size=3)),
    st.tuples(st.just("output_dir"), st.one_of(st.integers(), st.none())),
    # past the bound the kernel reading the key applies
    st.tuples(st.just("N"), st.integers(min_value=MEASURE_DEPTH_CAP + 1)),
    st.tuples(st.just("level_max"), st.integers(min_value=LEVEL_MEASURE_CAP + 1)),
    st.tuples(st.just("n_max"), st.integers(min_value=LEVEL_HARD_CAP + 1)),
    st.tuples(st.just("resolution"), st.floats(max_value=MEASURE_RESOLUTION_FLOOR, exclude_max=True)),
    # bounded below zero, not filtered: a `v < 0.0` filter on
    # floats(max_value=0.0) still drew delta = 0.0, which validate admits
    st.tuples(st.just("delta"), st.floats(max_value=-math.ulp(0.0))),
)

# (suite, key, value) triples that validate accepts but the suite rejects
_INFEASIBLE = st.one_of(
    st.tuples(st.just("cones"), st.just("k_list"), st.lists(st.integers(-3, 1), min_size=1, max_size=2)),
    st.tuples(
        st.just("cones"),
        st.just("a_list"),
        st.lists(st.floats(1.0, 5.0) | st.floats(-5.0, -1.0), min_size=1, max_size=2),
    ),
    st.tuples(st.just("fatcantor"), st.just("c"), st.floats(-5.0, 1.5) | st.floats(2.0, 5.0)),
    st.tuples(st.just("fatcantor"), st.just("p"), st.floats(-5.0, 1.5)),
)

_SMALL_VALID = st.fixed_dictionaries(
    {
        "c": st.floats(1.6, 1.95),
        "p": st.floats(2.0, 4.0),
        "k_list": st.lists(st.integers(2, 6), min_size=1, max_size=2),
        "a_list": st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=2),
        "n_max": st.integers(0, 6),
        "level_max": st.integers(0, 20),
    }
)


def _run_quietly(cfg: ExperimentConfig, only: str | None, out: Path) -> tuple[int, str, str]:
    """run's exit code, then what it printed to stdout and to stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(cfg, only=only, out_dir=str(out))
    return code, stdout.getvalue(), stderr.getvalue()


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestRunProperties:
    @settings(max_examples=40, deadline=None)
    @given(_REJECTED, st.sampled_from(SUITES))
    @example(("delta", -math.ulp(0.0)), "cones")
    def test_rejected_config_exits_two_with_one_line(self, override, only):
        key, value = override
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, printed, err = _run_quietly(ExperimentConfig(**{**SMALL, key: value}), only, out)
            assert code == 2 and printed == ""
            assert err.count("\n") == 1 and err.startswith("config error:")
            assert not out.exists()

    @settings(max_examples=15, deadline=None)
    @given(_INFEASIBLE)
    def test_infeasible_parameters_exit_two_with_one_line(self, case):
        # nothing is written: a new output path is not created, an existing
        # one stays empty
        only, key, value = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = ExperimentConfig(**{**SMALL, key: value})
            for out in (Path(tmp) / "out", Path(tmp)):
                code, printed, err = _run_quietly(cfg, only, out)
                assert code == 2 and printed == ""
                assert err.count("\n") == 1
                assert list(Path(tmp).iterdir()) == []

    def test_refused_run_leaves_earlier_artifacts_as_they_were(self, tmp_path):
        # a parameter refused late in the run (the base-map guard at p = 4)
        # or early (c = 1.5) leaves no fresh file beside a default run's
        assert _run_quietly(ExperimentConfig(), None, tmp_path)[0] == 0
        before = _artifacts(tmp_path)
        for override in ({"c": 1.95, "p": 4}, {"c": 1.5}):
            code, printed, err = _run_quietly(ExperimentConfig(**override), None, tmp_path)
            assert code == 2 and printed == "" and err.count("\n") == 1
            assert _artifacts(tmp_path) == before

    @settings(max_examples=10, deadline=None)
    @given(_SMALL_VALID, st.sampled_from(("cones", "fatcantor")))
    def test_valid_config_reruns_byte_identical(self, values, only):
        with tempfile.TemporaryDirectory() as tmp:
            outs = [Path(tmp) / "first", Path(tmp) / "second"]
            cfg = ExperimentConfig(**{**SMALL, **values})
            codes = [_run_quietly(cfg, only, out)[0] for out in outs]
            assert codes[0] in (0, 1) and codes[1] == codes[0]
            first = _artifacts(outs[0])
            assert first and first == _artifacts(outs[1])
