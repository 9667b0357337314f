"""shapeid: identify regular shapes in grayscale rasters via corner geometry.

The pipeline segments one bright object from a dark background, extracts
its four corner points from the object's convex hull, measures the six
pairwise corner distances plus the pixel and corner-polygon areas, and
classifies among eight shape classes with tolerance rules.
"""

from .classifier import (
    ShapeClass,
    Tolerances,
    Verdict,
    classify,
    explain,
)
from .geometry import (
    FeatureVector,
    HemisphereFit,
    convex_hull,
    extract_corners,
    fit_hemisphere,
    pairwise_distances,
    polygon_area,
)
from .pgm import PgmParseError, load_pgm, write_pgm
from .pipeline import StageError, classify_raster
from .segment import area, binarize, boundary, isolate_object, otsu_threshold
from .synth import ShapeSpec, analytic_area, corpus, polygon_vertices, render

__version__ = "0.1.0"

__all__ = [
    "FeatureVector",
    "HemisphereFit",
    "PgmParseError",
    "ShapeClass",
    "ShapeSpec",
    "StageError",
    "Tolerances",
    "Verdict",
    "analytic_area",
    "area",
    "binarize",
    "boundary",
    "classify",
    "classify_raster",
    "convex_hull",
    "corpus",
    "explain",
    "extract_corners",
    "fit_hemisphere",
    "isolate_object",
    "load_pgm",
    "otsu_threshold",
    "pairwise_distances",
    "polygon_area",
    "polygon_vertices",
    "render",
    "write_pgm",
]
