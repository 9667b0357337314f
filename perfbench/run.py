"""Benchmark of the shapeid pipeline: one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rotated_256 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The program is imported from ``src/``
of the checkout this file sits in, never from an installed copy, and the
command fails when that source is missing.  Each metric is printed on its
own line with its unit; the last line of standard output is the result as
one JSON object.  Result and trace files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _import_bench():
    """Import the benchmark with shapeid taken from this checkout's source."""
    if not (SRC / "shapeid" / "__init__.py").is_file():
        raise ImportError(f"no shapeid source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import shapeid

    if not Path(shapeid.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"shapeid was imported from {shapeid.__file__}, not from {SRC}")
    import bench

    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="rotated_256, large_1024, speckle_512 or cli_ascii_256")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        bench = _import_bench()
        OUT_DIR.mkdir(exist_ok=True)
        result, problems, raw = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    except (ImportError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" {result['attempted']} attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in raw.items():
        print(f"  ({name} = {value:.6g})")
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
