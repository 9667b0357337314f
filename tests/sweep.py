"""Label sweep: one JSON line per case, for before/after comparisons.

Cases: the eight reference shapes at 48-512 px, with the five polygon
kinds rotated 0-85 degrees in 5 degree steps, each in both polarities
(bright object on dark, and inverted); the eight shapes at 128-512 px
with seeded Gaussian noise plus salt and pepper, whose third and further
grey levels send Otsu's histogram through the pixel-pair count; and two
images each stage must reject, a constant one (no threshold) and a
two-pixel object (too few points for corners).  Each line holds the case name and
either the label, corners and evidence ``classify_raster`` returns with the
``explain`` text of its verdict, or the stage and message of the
``StageError`` it raises.  Under ``"fixed_128"`` it holds the same for a
fixed threshold of 128, and under ``"cli"`` it
also holds what ``shapeid classify --json`` makes of the case written as a
P5 file: the exit code, then the JSON report without its run-dependent
``file`` and ``elapsed_ms`` fields, or the error text on stderr.  Each
case is also written as a P2 file and classified the same way; the sweep
raises if that run's exit code or report differs from the P5 run's, or
if ``load_pgm`` of either file's bytes differs from the image, so the P2
and P5 writers and readers are checked, pixel for pixel, on every case
without adding to the output.

Run it on two checkouts and compare the outputs with ``diff``:

    PYTHONPATH=src python tests/sweep.py > before.jsonl
    # ... change the code ...
    PYTHONPATH=src python tests/sweep.py > after.jsonl
    diff before.jsonl after.jsonl

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from golden_features import _plain
from shapeid import StageError, classify_raster, corpus, explain, load_pgm, render, write_pgm
from shapeid.cli import main as cli_main

SIZES = (48, 64, 96, 128, 192, 256, 384, 512)
ANGLES = range(0, 90, 5)
_POLYGONS = ("rectangle", "square", "rhombus", "kite", "triangle")
SPECKLE_SIZES = (128, 256, 512)


def _speckled(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``image`` plus Gaussian noise (sigma 20), then 0.5% each of salt and pepper."""
    noisy = np.clip(np.rint(image + rng.normal(0.0, 20.0, image.shape)), 0, 255).astype(np.uint8)
    u = rng.random(image.shape)
    noisy[u < 0.005] = 255
    noisy[(u >= 0.005) & (u < 0.01)] = 0
    return noisy


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
    for size in SPECKLE_SIZES:
        rng = np.random.default_rng(size)
        for name, spec in corpus(size, size):
            yield f"{name}/{size}/speckled", _speckled(render(spec, size, size), rng)
    constant = np.full((64, 64), 40, dtype=np.uint8)
    yield "constant/64", constant
    two_pixels = constant.copy()
    two_pixels[30, 30:32] = 200
    yield "two-pixel/64", two_pixels


def outcome(image: np.ndarray, threshold="otsu") -> dict:
    """What ``classify_raster`` makes of one image under ``threshold``, as
    JSON types."""
    try:
        verdict, features = classify_raster(image, threshold=threshold)
    except StageError as err:
        return {"stage": err.stage, "error": str(err)}
    return {
        "label": verdict.label.value,
        "corners": features.corners.tolist(),
        "evidence": _plain(verdict.evidence),
        "explain": explain(verdict),
    }


def _classify_file(path: Path) -> dict:
    """Exit code and output of ``shapeid classify --json`` on ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["classify", "--json", str(path)])
    if code != 0:
        return {"exit": code, "stderr": err.getvalue()}
    report = json.loads(out.getvalue())
    del report["file"], report["elapsed_ms"]
    return {"exit": code, "report": report}


def cli_outcome(image: np.ndarray, path: Path) -> dict:
    """``_classify_file`` of ``image`` written as P5, once checked against
    the same image written as P2.  Both encodings must also read back as
    the image, pixel for pixel."""
    runs = []
    for kind, binary in (("P5", True), ("P2", False)):
        data = write_pgm(image, binary=binary)
        if not np.array_equal(load_pgm(data), image):
            raise AssertionError(f"load_pgm of the {kind} bytes differs from the image")
        path.write_bytes(data)
        runs.append(_classify_file(path))
    p5, p2 = runs
    if p2 != p5:
        raise AssertionError(f"the P2 run (exit {p2['exit']}) differs from the P5 run (exit {p5['exit']})")
    return p5


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.pgm"
        for name, image in cases():
            line = {"case": name, **outcome(image), "fixed_128": outcome(image, 128)}
            line["cli"] = cli_outcome(image, path)
            sys.stdout.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
