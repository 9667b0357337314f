"""Seeded inputs and independent oracles for the four benchmark workloads.

Every input is a ``(height, width)`` uint8 array rendered from a
``ShapeSpec`` whose parameters are fixed here (not read from
``shapeid.corpus``), so that a change to the program's corpus cannot
change what the benchmark measures.  The seed picks each image's grey
levels, the speckle noise and the order of the timed loop; shape
geometry does not depend on it, so every seed keeps the same input
population.  The program sees only the arrays (or the PGM files
written from them).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from shapeid import ShapeClass, ShapeSpec, render

__all__ = ["NAMES", "Sample", "check", "make_samples", "shuffled_order", "specs"]

#: Workload names in the order the README describes them.
NAMES = ("rotated_256", "large_1024", "speckle_512", "cli_ascii_256")

_POLYGONS = ("rectangle", "square", "rhombus", "kite", "triangle")

#: Rotations (degrees) added for the five polygon kinds, per workload.
_ROTATIONS = {
    "rotated_256": tuple(range(5, 90, 5)),
    "large_1024": (20, 45, 70),
    "speckle_512": (15, 30, 45, 60, 75),
    "cli_ascii_256": tuple(range(5, 90, 5)),
}
_SIZES = {"rotated_256": 256, "large_1024": 1024, "speckle_512": 512, "cli_ascii_256": 256}

# Speckle model: Gaussian noise on seeded grey levels plus salt and pepper.
# Grey levels keep at least 105 levels of contrast, so Gaussian noise alone
# flips about 0.5% of pixels across the midpoint.
_NOISE_SIGMA = 20.0
_SALT = 0.005
_PEPPER = 0.005
#: Corners on speckled images may sit on salt attached to the object; they
#: must lie within this many pixels (chessboard) of the clean render.
_SPECKLE_CORNER_SLACK = 2


@dataclass(frozen=True, eq=False)
class Sample:
    """One benchmark input and what a right answer looks like.

    ``corner_ok`` marks the pixels a corner may sit on; ``area_px`` is the
    benchmark's own count of ``image == fg`` (less lone diagonal tips) on
    clean images and ``None`` on speckled ones, whose pixel area no oracle
    predicts exactly.
    """

    name: str
    kind: ShapeClass
    image: np.ndarray
    corner_ok: np.ndarray
    area_px: int | None


def _base_specs(size: int) -> list[tuple[str, ShapeSpec]]:
    """The eight reference shapes, with the 256x256 parameters scaled to ``size``."""
    s = size / 256.0
    c = (size / 2.0 - 0.5, size / 2.0 - 0.5)
    return [
        ("rectangle", ShapeSpec.rectangle(c, 120 * s, 80 * s)),
        ("cylinder", ShapeSpec.cylinder(c, 100 * s, 120 * s, 15 * s)),
        ("kite", ShapeSpec.kite(c, 160 * s, 80 * s, 0.375)),
        ("square", ShapeSpec.square(c, 100 * s)),
        ("rhombus", ShapeSpec.rhombus(c, 100 * s, 0.75)),
        ("hemisphere", ShapeSpec.hemisphere((c[0], c[1] - 25 * s), 50 * s)),
        ("triangle", ShapeSpec.triangle(c, 100 * s, 100 * s)),
        ("cone", ShapeSpec.cone(c, 110 * s, 100 * s, 12 * s)),
    ]


def specs(workload: str) -> list[tuple[str, ShapeSpec]]:
    """The workload's shapes: all eight unrotated, then the rotated polygons."""
    base = _base_specs(_SIZES[workload])
    out = list(base)
    by_name = dict(base)
    for name in _POLYGONS:
        for angle in _ROTATIONS[workload]:
            out.append((f"{name}@{angle}", dataclasses.replace(by_name[name], rotation=float(angle))))
    return out


def make_samples(workload: str, seed: int) -> list[Sample]:
    """Render the workload's inputs; the same seed gives bit-identical arrays."""
    size = _SIZES[workload]
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    speckle = workload == "speckle_512"
    samples = []
    for name, spec in specs(workload):
        if speckle:
            fg, bg = int(rng.integers(180, 236)), int(rng.integers(20, 76))
        else:
            # One-digit background and three-digit foreground levels keep the
            # P2 byte count the same for every seed.
            fg, bg = int(rng.integers(150, 256)), int(rng.integers(0, 10))
        image = render(dataclasses.replace(spec, fg=fg, bg=bg), size, size)
        shape = image == fg
        if speckle:
            noisy = image + rng.normal(0.0, _NOISE_SIGMA, image.shape)
            image = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
            u = rng.random(image.shape)
            image[u < _SALT] = 255
            image[(u >= _SALT) & (u < _SALT + _PEPPER)] = 0
            grow = 2 * _SPECKLE_CORNER_SLACK + 1
            corner_ok = ndimage.maximum_filter(shape.view(np.uint8), size=grow) > 0
            area = None
        else:
            corner_ok = shape
            # A vertex tip that touches the shape only diagonally is its own
            # 4-connected component, which the program drops by design.
            padded = np.pad(shape, 1)
            lone = shape & ~(padded[:-2, 1:-1] | padded[2:, 1:-1] | padded[1:-1, :-2] | padded[1:-1, 2:])
            area = int(np.count_nonzero(shape)) - int(np.count_nonzero(lone))
        samples.append(Sample(name, spec.kind, image, corner_ok, area))
    return samples


def shuffled_order(count: int, seed: int) -> list[int]:
    """The seeded order in which the timed loop visits the inputs."""
    return [int(i) for i in np.random.default_rng([seed, 99]).permutation(count)]


def check(sample: Sample, label: str, corners, area_px: int) -> list[str]:
    """Mismatches between one result and the sample's oracles (empty if right)."""
    problems = []
    if label != sample.kind.value:
        problems.append(f"{sample.name}: label {label}, expected {sample.kind.value}")
    if sample.area_px is not None and area_px != sample.area_px:
        problems.append(f"{sample.name}: area_px {area_px}, expected {sample.area_px}")
    h, w = sample.corner_ok.shape
    for x, y in np.asarray(corners).tolist():
        xi, yi = int(round(x)), int(round(y))
        if (xi, yi) != (x, y) or not (0 <= xi < w and 0 <= yi < h) or not sample.corner_ok[yi, xi]:
            problems.append(f"{sample.name}: corner ({x}, {y}) is not on the object")
    return problems
