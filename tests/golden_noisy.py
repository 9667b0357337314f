"""Snapshot of ``classify_raster`` output on seeded salt-and-pepper renders.

``tests/golden_features.py`` pins clean renders, whose hulls have 4 to 32
vertices.  Noise roughens the outline, so these hulls are larger: the
curved shapes reach 29-53 vertices.  ``tests/test_golden_noisy.py``
compares the program against ``tests/data/golden_noisy.json`` exactly.
The cases are the eight reference shapes at 384, 512, 640 and 768 px,
each with 3% and 10% of the pixels set to 255 (salt) and as many to 0
(pepper), from a generator seeded by the case.

Regenerate the file only when a change of output is intended:

    PYTHONPATH=src python tests/golden_noisy.py

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from golden_features import snapshot
from shapeid import corpus, render

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_noisy.json"

SIZES = (384, 512, 640, 768)
LEVELS = (3, 10)  # percent of pixels set to 255, and again to 0


def cases() -> list[tuple[str, np.ndarray]]:
    """(case name, image) for every snapshot case, in file order."""
    out = []
    for size in SIZES:
        for index, (name, spec) in enumerate(corpus(size, size)):
            for level in LEVELS:
                image = render(spec, size, size)
                u = np.random.default_rng([size, index, level]).random(image.shape)
                image[u < level / 100] = 255
                image[(u >= level / 100) & (u < 2 * level / 100)] = 0
                out.append((f"{name}/{size}/{level}%", image))
    return out


def main() -> None:
    table = {name: snapshot(image) for name, image in cases()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in table.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
