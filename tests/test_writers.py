"""The artifact writers against their oracles.

`runner._json` must write what `json.dumps(obj, indent=2, sort_keys=True,
allow_nan=False)` writes, byte for byte, with the trailing newline; the
templates of `svgfig`'s cones and horseshoe figures must write what the
per-coordinate renderers in tests/oracles.py write.
"""

import json

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fathorse import runner, svgfig
from fathorse.config import ExperimentConfig

RUNS = {
    "default": {},
    # the wide_cones shape, smaller: six exponents, nine slices, n_max 8
    "wide-cones-small": {
        "k_list": [2, 3, 4, 5, 6, 7],
        "a_list": [-0.9, -0.6, -0.3, 0.0, 0.2, 0.42, 0.6, 0.75, 0.9],
        "n_max": 8,
        "level_max": 8,
        "N": 3,
        "resolution": 2e-3,
    },
}

SVG_ORACLES = {"cones": oracles.cones_svg, "horseshoe": oracles.horseshoe_svg}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _first_difference(got: str, want: str):
    """None when the texts are equal, else their first differing lines; a
    failing == on a 300 KB artifact would make pytest diff it for minutes."""
    if got == want:
        return None
    pairs = enumerate(zip(got.splitlines(), want.splitlines()), 1)
    return next(((n, g, w) for n, (g, w) in pairs if g != w), ("lengths", len(got), len(want)))


def _oracle_svg(dataset: dict, kind: str) -> str:
    body = "".join(SVG_ORACLES[kind](dataset))
    return svgfig._HEADER + svgfig._FRAME + svgfig._axes() + body + svgfig._FOOTER


@pytest.fixture(scope="module", params=sorted(RUNS))
def written(request, tmp_path_factory):
    """One run's output directory and every object it wrote as JSON, by path."""
    out = tmp_path_factory.mktemp(request.param)
    objects = {}
    write = runner._write_json

    def capture(path, obj):
        objects[path.relative_to(out).as_posix()] = obj
        write(path, obj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_write_json", capture)
        cfg = ExperimentConfig(**{**RUNS[request.param], "output_dir": str(out)})
        assert runner.run(cfg) == 0
    return out, objects


def test_every_json_artifact_equals_json_dumps(written):
    out, objects = written
    assert len(objects) == 6
    for name, obj in objects.items():
        text = (out / name).read_bytes().decode("ascii")
        assert _first_difference(text, _dumps(obj)) is None, name


@pytest.mark.parametrize("kind", sorted(SVG_ORACLES))
def test_figure_svg_equals_oracle(written, kind):
    out, objects = written
    svg = (out / "figures" / f"{kind}.svg").read_text(encoding="utf-8")
    assert _first_difference(svg, _oracle_svg(objects[f"figures/{kind}.json"], kind)) is None


# -- the JSON emitter ---------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e22, 0.1, 1.7976931348623157e308]
)
TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "é \U0001f600"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**400).map(lambda n: n * (-1) ** (n % 2))
    | FLOATS
    | FLOATS.map(np.float64)
    | TEXT
)
ROW = st.lists(FLOATS, min_size=2, max_size=2)
LEAVES = (
    SCALARS
    | st.lists(FLOATS)  # an all-float list, one join
    | st.lists(ROW)  # [float, float] rows, each one join
    | st.lists(st.lists(FLOATS | FLOATS.map(np.float64), min_size=2, max_size=2))
    | st.lists(st.tuples(FLOATS, FLOATS))
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({"": [], "a": {}, "b": [[]], "c": (), "d": [{}]})
@example([-0.0, 5e-324, 1e16, 2.0**53 + 2])
@example({"rows": [[0.1, -0.0], [1e16, 5e-324]], "mixed": [[np.float64(0.1), 0.2], [1, 2.0]]})
@example({"\x00é ": 10**30, "big": -(10**300), "flags": [True, False, None]})
def test_emitter_equals_json_dumps(obj):
    assert runner._json(obj, end="\n") == _dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param({1: 0.5}, id="int-key"),
        pytest.param({None: 1}, id="none-key"),
        pytest.param({"a": {2.5: [0.1]}}, id="nested-float-key"),
        pytest.param({"a": 1, 1: 2}, id="mixed-keys"),
        pytest.param({(1, 2): 3}, id="tuple-key"),
    ],
)
def test_non_str_key_raises(tmp_path, obj):
    # json.dumps would write an int, float or None key as a string; no
    # artifact has such a key, and the emitter refuses it
    with pytest.raises(TypeError):
        runner._write_json(tmp_path / "k.json", obj)
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize(
    "obj", [{"x": np.int64(1)}, [object()], {"x": {1.5, 2.5}}], ids=["np-int64", "object", "set"]
)
def test_unserializable_value_raises_like_json_dumps(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        runner._json(obj)


# -- the SVG templates --------------------------------------------------------

# finite values, with the ones whose sixth decimal rounds or whose sign survives it
COORDS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(-2.0, 2.0)
    | st.sampled_from([-0.0, 4e-7, -4e-7, 5e-7, -5e-7, 0.0000005, 1.0000005, -2.5e-6, 0.9999995])
    | st.integers(-3, 3)
)
PAIRS = st.lists(st.lists(COORDS, min_size=2, max_size=2), max_size=8)
ENDS = PAIRS.map(lambda pairs: [v for pair in pairs for v in pair])  # lo0, hi0, lo1, hi1, ...
AXIS = st.lists(COORDS, max_size=8)
# the half sides render accepts: not negative, and small enough that no side or corner overflows
HALF_SIDES = (
    st.floats(0.0, 1e200)
    | st.sampled_from([-0.0, 4e-7, 5e-7, 0.0000005, 1.0000005, 0.9999995])
    | st.integers(0, 3)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fixed_dictionaries({"a": COORDS, "ends": ENDS}), max_size=5))
@example([{"a": -0.0, "ends": [4e-7, -4e-7, 0.0000005, -0.0]}])
def test_cones_template_equals_oracle(slices):
    dataset = {"slices": slices}
    assert svgfig.render_section_svg(dataset, "cones") == _oracle_svg(dataset, "cones")


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(
        {"xs": AXIS, "ys": AXIS}, optional={"point_size": HALF_SIDES, "half_width": HALF_SIDES}
    )
)
@example({"xs": [4e-7], "ys": [-4e-7], "point_size": 0.0000005, "half_width": -0.0})
@example({"xs": [0.5, -0.0, 1], "ys": [0.25, -0.75], "point_size": 0.25})
def test_horseshoe_template_equals_oracle(dataset):
    svg = svgfig.render_section_svg(dataset, "horseshoe")
    assert svg == _oracle_svg(dataset, "horseshoe")
