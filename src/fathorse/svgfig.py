"""Deterministic SVG figures of the section square.

All figures share one canvas: 800 x 800 pixels, viewBox spanning
[-1, 1]^2, with a scale(1,-1) group so the y axis points up.  Coordinates
are written with a fixed six-decimal format and elements in a fixed
order, so identical datasets produce byte-identical documents.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["render_section_svg", "FIGURE_KINDS", "CANVAS_PX", "PIXEL"]

FIGURE_KINDS = ("partition", "image", "cones", "horseshoe")

CANVAS_PX = 800
PIXEL = 2 / CANVAS_PX  # one canvas pixel in section coordinates

_HEADER = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_PX}" height="{CANVAS_PX}" '
    'viewBox="-1 -1 2 2">\n<g transform="scale(1,-1)">\n'
)
_FOOTER = "</g>\n</svg>\n"
_FRAME = '<rect x="-1" y="-1" width="2" height="2" fill="white" stroke="black" stroke-width="0.004"/>\n'

_GRAY_DARK = "#9a9a9a"
_GRAY_LIGHT = "#c8c8c8"
_GRAY_DARK2 = "#b4b4b4"
_GRAY_LIGHT2 = "#dcdcdc"


def _f(v: float) -> str:
    if not math.isfinite(v):  # finite dataset numbers can overflow in a sum
        raise ValueError(f"drawn number {v} is not finite")
    return f"{v:.6f}"


def _side(length: float) -> str:
    if length < 0:
        raise ValueError(f"negative side {length}")
    return _f(length)


def _polygon(points, fill, stroke="none") -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" stroke-width="0.003"/>\n'


def _rect(lo_x, lo_y, hi_x, hi_y, fill, stroke="none") -> str:
    return (
        f'<rect x="{_f(lo_x)}" y="{_f(lo_y)}" width="{_side(hi_x - lo_x)}" '
        f'height="{_side(hi_y - lo_y)}" fill="{fill}" stroke="{stroke}" stroke-width="0.003"/>\n'
    )


def _line(x1, y1, x2, y2, stroke="black", width=0.004) -> str:
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>\n'
    )


def _axes() -> str:
    return _line(-1, 0, 1, 0, "#666666", 0.002) + _line(0, -1, 0, 1, "#666666", 0.002)


def _partition(dataset: dict) -> list[str]:
    b = dataset["b"]
    y_cap = dataset["strip_halfheight"]
    parts = []
    # outer frame regions (right region minus its strip, mirrored on the left)
    parts.append(
        _polygon(
            [(0, -1), (0, 1), (1, 1), (1, y_cap), (b, y_cap), (b, -y_cap), (1, -y_cap), (1, -1)],
            _GRAY_DARK,
        )
    )
    parts.append(
        _polygon(
            [(0, 1), (0, -1), (-1, -1), (-1, -y_cap), (-b, -y_cap), (-b, y_cap), (-1, y_cap), (-1, 1)],
            _GRAY_DARK2,
        )
    )
    parts.append(_rect(b, -y_cap, 1, y_cap, _GRAY_LIGHT))
    parts.append(_rect(-1, -y_cap, -b, y_cap, _GRAY_LIGHT2))
    parts.append(_line(0, -1, 0, 1, "black", 0.006))  # the excluded line
    for tick in (b, -b):
        parts.append(_line(tick, -0.02, tick, 0.02, "black", 0.003))
    return parts


def _image(dataset: dict) -> list[str]:
    parts = []
    for half, rect_fill, band_fill in (
        ("upper", _GRAY_LIGHT, _GRAY_DARK),
        ("lower", _GRAY_LIGHT2, _GRAY_DARK2),
    ):
        data = dataset.get(half)
        if data is None:
            continue
        x_lo, x_hi = data["x_range"]
        s_lo, s_hi = data["strip_y"]
        h_lo, h_hi = data["hook_y"]
        parts.append(_rect(x_lo, h_lo, x_hi, s_lo, band_fill))
        parts.append(_rect(x_lo, s_hi, x_hi, h_hi, band_fill))
        parts.append(_rect(x_lo, s_lo, x_hi, s_hi, rect_fill))
        cap = data.get("cap", [])
        if cap:
            upper = [(x, hi) for x, _, hi in cap]
            lower = [(x, lo) for x, lo, _ in reversed(cap)]
            parts.append(_polygon(upper + lower, band_fill))
    return parts


def _cones(dataset: dict) -> list[str]:
    parts = []
    for entry in dataset.get("slices", []):
        x, ends = _f(entry["a"]), entry["ends"]  # one slice's lines format only lo and hi
        line = f'<line x1="{x}" y1="%.6f" x2="{x}" y2="%.6f" stroke="#303030" stroke-width="0.004"/>\n'
        parts.extend([line % pair for pair in zip(ends[0::2], ends[1::2], strict=True)])
    parts.append(_line(0, -1, 0, 1, "black", 0.006))
    return parts


def _horseshoe(dataset: dict) -> list[str]:
    parts = []
    a = dataset.get("half_width")
    if a:
        parts.append(_rect(-a, -a, a, a, "none", stroke="black"))
    r = dataset.get("point_size", 0.002)
    side = _side(2 * r)
    rect = f'<rect x="%.6f" y="%.6f" width="{side}" height="{side}" fill="#202020"/>\n'
    xs, ys = dataset.get("xs", []), dataset.get("ys", [])
    if xs and ys:
        _f(min(min(xs), min(ys)) - r)  # the template skips _f; the lowest corner overflows first
    parts.extend([rect % (x - r, y - r) for x in xs for y in ys])
    return parts


_HALF = {"x_range": [float], "strip_y": [float], "hook_y": [float], "cap": [[float]]}
# each kind's drawer and its dataset's shape: float is a finite int or float, [shape] a list
# of such items, a dict the keys an object may hold; drawers check lengths and required keys
_KINDS = {
    "partition": (_partition, {"b": float, "strip_halfheight": float, "epsilon": float}),
    "image": (_image, {"upper": _HALF, "lower": _HALF}),
    "cones": (_cones, {"k": float, "n": float,
                       "slices": [{"a": float, "ends": [float], "total": float}]}),
    "horseshoe": (_horseshoe, {"half_width": float, "depth": float, "point_size": float,
                               "xs": [float], "ys": [float]}),
}


def _check(value, shape, where: str) -> None:
    """Raise ValueError unless value has the shape.  A bool is refused as a
    number, since true would draw as 1, and so is a key the shape lacks."""
    if shape is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where} must be a number, not {type(value).__name__}")
        if not math.isfinite(value):
            raise ValueError(f"{where} must be finite, got {value}")
    elif not isinstance(value, type(shape)):
        raise ValueError(f"{where} must be a {type(shape).__name__}, not {type(value).__name__}")
    elif isinstance(shape, list):
        for item in value:
            _check(item, shape[0], where + "[]")
    else:
        unknown = ", ".join(sorted(map(str, set(value) - set(shape))))
        if unknown:
            raise ValueError(f"{where} holds unknown keys {unknown}")
        for key, item in value.items():
            _check(item, shape[key], f"{where}.{key}")


def render_section_svg(dataset: dict, kind: str) -> str:
    """Render one figure kind from its dataset, or raise DomainError if the dataset
    lacks its kind's shape in _KINDS or a key or length its drawer needs, or draws a
    negative side or a number that overflows to inf.  {} draws the bare canvas for
    image, cones and horseshoe; a partition needs `b` and `strip_halfheight`."""
    if kind not in _KINDS:
        raise DomainError(f"unknown figure kind {kind!r}; expected one of {FIGURE_KINDS}")
    draw, shape = _KINDS[kind]
    try:
        _check(dataset, shape, "dataset")
        body = draw(dataset)
    except (KeyError, OverflowError, ValueError) as exc:
        raise DomainError(f"malformed {kind} dataset: {type(exc).__name__}: {exc}") from exc
    return _HEADER + _FRAME + _axes() + "".join(body) + _FOOTER
