"""Label sweep: one JSON line per case, for before/after comparisons.

Cases: the eight reference shapes at 48-512 px, with the five polygon
kinds rotated 0-85 degrees in 5 degree steps, each in both polarities
(bright object on dark, and inverted).  Each line holds the case name and
either the label, corners and evidence ``classify_raster`` returns, or the
stage and message of the ``StageError`` it raises.

Run it on two checkouts and compare the outputs with ``diff``:

    PYTHONPATH=src python tests/sweep.py > before.jsonl
    # ... change the code ...
    PYTHONPATH=src python tests/sweep.py > after.jsonl
    diff before.jsonl after.jsonl

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from golden_features import _plain
from shapeid import StageError, classify_raster, corpus, render

SIZES = (48, 64, 96, 128, 192, 256, 384, 512)
ANGLES = range(0, 90, 5)
_POLYGONS = ("rectangle", "square", "rhombus", "kite", "triangle")


def cases():
    """(case name, image) for every sweep case, in output order."""
    for size in SIZES:
        base = dict(corpus(size, size))
        specs = [(name, spec) for name, spec in base.items() if name not in _POLYGONS]
        for name in _POLYGONS:
            for angle in ANGLES:
                specs.append((f"{name}@{angle}", dataclasses.replace(base[name], rotation=float(angle))))
        for name, spec in specs:
            image = render(spec, size, size)
            yield f"{name}/{size}", image
            yield f"{name}/{size}/inverted", 255 - image


def outcome(image: np.ndarray) -> dict:
    """What ``classify_raster`` makes of one image, as JSON types."""
    try:
        verdict, features = classify_raster(image)
    except StageError as err:
        return {"stage": err.stage, "error": str(err)}
    return {
        "label": verdict.label.value,
        "corners": features.corners.tolist(),
        "evidence": _plain(verdict.evidence),
    }


def main() -> None:
    for name, image in cases():
        sys.stdout.write(json.dumps({"case": name, **outcome(image)}) + "\n")


if __name__ == "__main__":
    main()
