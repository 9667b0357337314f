"""Snapshot of ``classify_raster`` output over a fixed set of renders.

``tests/test_golden.py`` compares the program against
``tests/data/golden_features.json`` exactly, so a speed change to the
pipeline that moves any label, corner, distance, area or evidence value
fails there.  The cases are the eight reference shapes and the five
polygon kinds rotated 5-85 degrees in 5 degree steps at 256x256, plus the
eight reference shapes at 1024x1024.

Regenerate the file only when a change of output is intended:

    PYTHONPATH=src python tests/golden_features.py

Floats are written by ``json``, which uses ``repr`` and so reads back
bit for bit.  pytest does not collect this file (its name does not start
with ``test_``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from shapeid import classify_raster, corpus, render

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_features.json"

_POLYGONS = ("rectangle", "square", "rhombus", "kite", "triangle")


def cases() -> list[tuple[str, np.ndarray]]:
    """(case name, image) for every snapshot case, in file order."""
    out = []
    base = dict(corpus(256, 256))
    for name, spec in base.items():
        out.append((f"{name}/256", render(spec, 256, 256)))
    for name in _POLYGONS:
        for angle in range(5, 90, 5):
            spec = dataclasses.replace(base[name], rotation=float(angle))
            out.append((f"{name}@{angle}/256", render(spec, 256, 256)))
    for name, spec in corpus(1024, 1024):
        out.append((f"{name}/1024", render(spec, 1024, 1024)))
    return out


def _plain(value):
    """Evidence as JSON types: numpy scalars to Python, tuples to lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def snapshot(image: np.ndarray) -> dict:
    """Everything ``classify_raster`` returns for one image, as JSON types."""
    verdict, features = classify_raster(image)
    return {
        "label": verdict.label.value,
        "corners": features.corners.tolist(),
        "corners_dtype": str(features.corners.dtype),
        "distances": list(features.distances),
        "sd": features.sd,
        "area_px": features.area_px,
        "poly_area": features.poly_area,
        "evidence": _plain(verdict.evidence),
    }


def main() -> None:
    table = {name: snapshot(image) for name, image in cases()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in table.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
