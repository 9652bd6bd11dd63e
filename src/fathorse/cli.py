"""Command line interface: `fathorse run` and `fathorse render`."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, FathorseError
from .runner import SUITES, run
from .svgfig import FIGURE_KINDS, render_section_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fathorse",
        description="Cantor-cone sections and fat product horseshoes: "
        "experiment runner and figure renderer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment suites")
    p_run.add_argument("--config", required=True, help="path to a JSON config file")
    p_run.add_argument("--only", choices=SUITES, help="run a single suite")
    p_run.add_argument("--out", help="output directory (overrides the config)")

    p_render = sub.add_parser("render", help="render one SVG figure from a dataset")
    p_render.add_argument("--input", required=True, help="dataset JSON file")
    p_render.add_argument("--kind", required=True, choices=FIGURE_KINDS)
    p_render.add_argument("--out", help="output SVG path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 3
        return run(cfg, only=args.only, out_dir=args.out)

    try:
        text = Path(args.input).read_text(encoding="utf-8")
        dataset = json.loads(text, parse_int=float)  # an int of 4,300+ digits raises otherwise
        svg = render_section_svg(dataset, args.kind)
    except (OSError, RecursionError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot read dataset: {exc}", file=sys.stderr)
        return 3
    except FathorseError as exc:
        print(f"render error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            Path(args.out).write_text(svg, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"cannot write SVG: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(svg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
