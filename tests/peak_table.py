"""Traced allocation peak of ``classify_raster`` per corpus shape.

For each of the eight reference shapes at 256x256 and 1024x1024, clean
and speckled (Gaussian noise plus salt and pepper, as in the sweep), this
prints as a Markdown table the ``tracemalloc`` peak of one call, taken
after a first call has let numpy set up its caches.  A clean render has
two grey levels, so only its object's bounding box is thresholded; a
speckled one has more and takes the full-size mask:

    PYTHONPATH=src python tests/peak_table.py

It only reports; nothing here fails on a large peak.  pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from shapeid import classify_raster, corpus, render
from sweep import _speckled

SIZES = (256, 1024)


def _peak_mib(image: np.ndarray) -> float:
    classify_raster(image)
    tracemalloc.start()
    try:
        classify_raster(image)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    print("Traced peak of `classify_raster`, MiB.\n")
    columns = [f"{size}² {kind}" for size in SIZES for kind in ("clean", "speckled")]
    print("| shape | " + " | ".join(columns) + " |")
    print("| --- |" + " --- |" * len(columns))
    renders = {size: corpus(size, size) for size in SIZES}
    for index, (name, _) in enumerate(renders[SIZES[0]]):
        cells = []
        for size in SIZES:
            image = render(renders[size][index][1], size, size)
            speckled = _speckled(image, np.random.default_rng(size))
            cells += [f"{_peak_mib(image):.3f}", f"{_peak_mib(speckled):.3f}"]
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
