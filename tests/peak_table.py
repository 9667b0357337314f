"""Traced allocation peak of ``classify_raster`` per corpus shape.

For each of the eight reference shapes at 256x256, 512x512 (the size of
the benchmark's speckled workload) and 1024x1024, clean under Otsu and
under a fixed threshold of 128, and speckled (Gaussian noise plus salt
and pepper, as in the sweep), this prints as a Markdown table the
least ``tracemalloc`` peak of ``CALLS`` calls, taken after a first call has
let numpy set up its caches.  One call's peak can fall in steps of 59 B
over a process's first calls (the 256² hemisphere under fixed 128 traces
46,777, 46,718, then 46,659 B), enough to cross a 0.001 MiB rounding edge;
the least of 20 calls was the same in every run tried.  Under every
threshold only the foreground's bounding box is thresholded; a clean
render's box is its object's, while a speckled image has foreground
speckle near every edge, so its box spans the whole image, and the
labeller thresholds it in bands.  A second table gives the peak of
``foreground_spans`` on two masks of many runs, read as ``uint8`` under
a fixed threshold of 1, where the labeller's arrays, which grow with the
number of runs, set the peak: the 44%-foreground 512x512 mask of
``test_isolate_peak_with_a_large_foreground_share`` and noise at 30%
fill at 1024x1024:

    PYTHONPATH=src python tests/peak_table.py

It only reports; nothing here fails on a large peak.  pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from shapeid import classify_raster, corpus, render
from shapeid.segment import foreground_spans
from sweep import _speckled

SIZES = (256, 512, 1024)
#: Traced calls per cell, of which the least peak is printed.
CALLS = 20


def _peak_mib(image: np.ndarray, threshold="otsu", fn=classify_raster) -> float:
    fn(image, threshold=threshold)
    peaks = []
    for _ in range(CALLS):
        tracemalloc.start()
        try:
            fn(image, threshold=threshold)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks) / 2**20


def main() -> None:
    print("Traced peak of `classify_raster`, MiB.\n")
    columns = [f"{size}² {kind}" for size in SIZES for kind in ("clean", "clean, fixed 128", "speckled")]
    print("| shape | " + " | ".join(columns) + " |")
    print("| --- |" + " --- |" * len(columns))
    renders = {size: corpus(size, size) for size in SIZES}
    for index, (name, _) in enumerate(renders[SIZES[0]]):
        cells = []
        for size in SIZES:
            image = render(renders[size][index][1], size, size)
            speckled = _speckled(image, np.random.default_rng(size))
            cells += [f"{_peak_mib(image):.3f}", f"{_peak_mib(image, 128):.3f}", f"{_peak_mib(speckled):.3f}"]
        print(f"| {name} | " + " | ".join(cells) + " |")
    print("\nTraced peak of `foreground_spans` on masks of many runs, MiB.\n")
    print("| mask | peak |\n| --- | --- |")
    for name, mask in _many_run_masks():
        print(f"| {name} | {_peak_mib(mask.view(np.uint8), 1, foreground_spans):.3f} |")


def _many_run_masks():
    """(name, mask) for the masks of the second table."""
    rng = np.random.default_rng(44)
    share = rng.random((512, 512)) < 0.15
    share[106:406, 106:406] = True
    yield "44% foreground, 512²", share
    yield "noise at 30% fill, 1024²", np.random.default_rng(30).random((1024, 1024)) < 0.3


if __name__ == "__main__":
    main()
