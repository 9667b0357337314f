"""Time both corner searches on regular hulls of 4 to 200 vertices.

``_best_triangle_and_quad`` takes every triangle area in blocks
(``_blocked_rows``) for hulls of at most ``_LOOKUP_ABOVE`` vertices and
finds the extremes by support lookups (``_support_rows``) above that.
For each hull size this prints, as a Markdown table, the best-of-N time
and the traced memory peak of each search, forced by patching
``_LOOKUP_ABOVE``, and the search the unpatched code takes.  A crossover
chosen well keeps the faster search on each side of it:

    PYTHONPATH=src python tests/corner_crossover.py [REPEATS]

It only reports; nothing here fails on a slow time.  pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from unittest import mock

from shapeid import geometry
from test_geometry_fast import FORCE_PATH, regular_hull

SIZES = range(4, 201)


def _measure(hull, repeats: int) -> tuple[float, float]:
    """Best time in µs and traced peak in KiB of one corner search."""
    geometry._best_triangle_and_quad(hull)  # let numpy set up its caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        geometry._best_triangle_and_quad(hull)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        geometry._best_triangle_and_quad(hull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best * 1e6, peak / 1024


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 5
    print(f"Corner search on `regular_hull(h, 10000, 0.1)`, best of {repeats};"
          f" the code takes the lookup above h = {geometry._LOOKUP_ABOVE}.\n")
    print("| h | blocked, µs | lookup, µs | blocked peak, KiB | lookup peak, KiB | taken |")
    print("| --- | --- | --- | --- | --- | --- |")
    for count in SIZES:
        hull = regular_hull(count, 10_000.0, 0.1)
        results = {}
        for name, above in FORCE_PATH.items():
            with mock.patch.object(geometry, "_LOOKUP_ABOVE", above):
                results[name] = _measure(hull, repeats)
        with mock.patch.object(geometry, "_support_rows", wraps=geometry._support_rows) as lookup:
            geometry._best_triangle_and_quad(hull)
        taken = "lookup" if lookup.called else "blocked"
        (t_b, m_b), (t_l, m_l) = results["blocked"], results["lookup"]
        print(f"| {len(hull)} | {t_b:.0f} | {t_l:.0f} | {m_b:.1f} | {m_l:.1f} | {taken} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
