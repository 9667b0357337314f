"""Command line front end: classify images, generate test shapes, benchmark.

``classify`` runs the full pipeline on a PGM file and prints the label (or
a JSON report with ``--json``).  ``generate`` writes deterministic PGM
renders of the reference shapes.  ``bench`` times the pipeline over the
in-memory corpus and emits a CSV table.  Reported timings cover
segmentation through classification; file loading and rendering are
excluded so the numbers reflect the algorithm, not I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import statistics
import sys
import time
from pathlib import Path

from .classifier import Tolerances
from .pgm import SIDE_LIMIT, PgmParseError, load_pgm, write_pgm
from .pipeline import StageError, classify_raster
from .segment import _fixed_threshold
from .synth import corpus, render

__all__ = ["main"]


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        width, height = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    if width < 16 or height < 16:
        raise argparse.ArgumentTypeError(f"size must be at least 16x16, got {text}")
    if max(width, height) >= SIDE_LIMIT:
        raise argparse.ArgumentTypeError(f"image sides must be below {SIDE_LIMIT} px, got {text}")
    return width, height


def _parse_repeat(text: str) -> int:
    try:
        repeat = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if repeat < 1:
        raise argparse.ArgumentTypeError(f"repeat must be at least 1, got {repeat}")
    return repeat


def _parse_threshold(text: str):
    if text == "otsu":
        return "otsu"
    if not text.startswith("fixed:"):
        raise argparse.ArgumentTypeError(f"expected 'otsu' or 'fixed:N', got {text!r}")
    try:
        n = int(text.split(":", 1)[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected fixed:N with integer N, got {text!r}")
    try:
        return _fixed_threshold(n)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _features_summary(features, evidence) -> dict:
    return {
        "sides": evidence["sides"],
        "diagonals": evidence["diagonals"],
        "sd": features.sd,
        "area_px": features.area_px,
        "poly_area": features.poly_area,
        "bulge_ratio": evidence["bulge_ratio"],
        "hemisphere": evidence["hemisphere"],
    }


def cmd_classify(args) -> int:
    try:
        image = load_pgm(Path(args.path).read_bytes())
    except OSError as err:
        print(f"error: cannot read {args.path}: {err}", file=sys.stderr)
        return 2
    except PgmParseError as err:
        print(f"error: PGM parse failed for {args.path}: {err}", file=sys.stderr)
        return 2
    try:
        tol = Tolerances(
            rel_eps=args.rel_eps, area_eps=args.area_eps, degen_eps=args.degen_eps
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        verdict, features = classify_raster(image, tol, args.threshold)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    if args.json:
        report = {
            "file": str(args.path),
            "label": verdict.label.value,
            "elapsed_ms": elapsed_ms,
            "features": _features_summary(features, verdict.evidence),
            "evidence": verdict.evidence["rules"],
        }
        print(json.dumps(report, indent=2))
    else:
        print(verdict.label.value)
    return 0


def cmd_generate(args) -> int:
    size = args.size
    out = Path(args.output)
    try:
        specs = dict(corpus(*size))
        if args.shape == "corpus":
            targets = [(out / f"{name}.pgm", spec) for name, spec in specs.items()]
        elif args.shape in specs:
            spec = specs[args.shape]
            if args.bulge is not None:
                spec = dataclasses.replace(spec, bulge=args.bulge)
            if args.rotate is not None:
                spec = dataclasses.replace(spec, rotation=args.rotate)
            targets = [(out, spec)]
        else:
            raise ValueError(
                f"unknown shape {args.shape!r}; choose from {', '.join(specs)} or 'corpus'"
            )
        for path, spec in targets:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(write_pgm(render(spec, *size)))
            print(f"wrote {path}")
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def cmd_bench(args) -> int:
    width, height = args.size
    try:
        images = [(name, render(spec, width, height)) for name, spec in corpus(width, height)]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    rows = []
    for name, image in images:
        timings = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            verdict, _ = classify_raster(image)
            timings.append((time.perf_counter() - start) * 1000.0)
            if verdict.label.value.lower() != name:
                print(
                    f"error: bench self-check failed: {name} classified as"
                    f" {verdict.label.value}",
                    file=sys.stderr,
                )
                return 4
        rows.append((name, statistics.fmean(timings), min(timings), max(timings)))

    _, *columns = zip(*rows)
    rows.append(("average", *map(statistics.fmean, columns)))
    print("shape,size,mean_ms,min_ms,max_ms")
    for name, mean, lo, hi in rows:
        print(f"{name},{width}x{height},{mean:.3f},{lo:.3f},{hi:.3f}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="shapeid",
        description="Identify regular shapes in grayscale PGM images from corner geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify",
        help="classify one PGM image",
        description="Classify a PGM image. Timing covers segmentation through"
        " classification; file loading is excluded.",
    )
    p_classify.add_argument("path", help="PGM file (P2 or P5)")
    p_classify.add_argument("--json", action="store_true", help="emit a JSON report")
    p_classify.add_argument(
        "--threshold", type=_parse_threshold, default="otsu",
        help="binarization: 'otsu' (default) or 'fixed:N'",
    )
    p_classify.add_argument("--rel-eps", type=float, default=Tolerances.rel_eps,
                            help="relative length tolerance (default %(default)s)")
    p_classify.add_argument("--area-eps", type=float, default=Tolerances.area_eps,
                            help="relative area tolerance (default %(default)s)")
    p_classify.add_argument("--degen-eps", type=float, default=None,
                            help="degenerate-corner threshold in px (default auto)")
    p_classify.set_defaults(func=cmd_classify)

    p_generate = sub.add_parser(
        "generate",
        help="render reference shapes to PGM",
        description="Render a reference shape (or all eight with 'corpus')"
        " deterministically: identical flags give bit-identical files.",
    )
    p_generate.add_argument("shape", help="shape name or 'corpus'")
    p_generate.add_argument("--size", type=_parse_size, default=(256, 256),
                            help="raster size WxH (default 256x256)")
    p_generate.add_argument("--bulge", type=float, default=None,
                            help="cap half-height override (cylinder, cone)")
    p_generate.add_argument("--rotate", type=float, default=None,
                            help="rotation in degrees (quadrilaterals, triangle)")
    p_generate.add_argument("-o", "--output", required=True,
                            help="output file, or directory for 'corpus'")
    p_generate.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser(
        "bench",
        help="time the pipeline over the reference shapes",
        description="CSV timing table over the eight reference shapes plus a"
        " trailing row of column averages. Timing covers segmentation through"
        " classification; rendering is excluded. Labels are re-checked and a"
        " misclassification aborts with a nonzero exit.",
    )
    p_bench.add_argument("--size", type=_parse_size, default=(256, 256),
                         help="raster size WxH (default 256x256)")
    p_bench.add_argument("--repeat", type=_parse_repeat, default=10,
                         help="pipeline runs per shape (default 10)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
