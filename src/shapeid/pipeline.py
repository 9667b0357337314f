"""End-to-end composition: grayscale image -> verdict.

This is the one place the stages are chained; the library, the CLI and
the benchmark all call ``classify_raster``.  A stage that rejects its
input raises ``StageError`` naming that stage.
"""

from __future__ import annotations

import numpy as np

from .classifier import Tolerances, Verdict, classify
from .geometry import FeatureVector, features_of_spans
from .pgm import check_image
from .segment import _foreground_spans

__all__ = ["StageError", "classify_raster"]


class StageError(ValueError):
    """A pipeline stage failed; ``stage`` is ``"input"``, ``"segmentation"``
    or ``"feature extraction"``."""

    def __init__(self, stage: str, msg: str):
        super().__init__(f"{stage}: {msg}")
        self.stage = stage


def classify_raster(
    image: np.ndarray,
    tol: Tolerances | None = None,
    threshold="otsu",
) -> tuple[Verdict, FeatureVector]:
    """Check the input, take the largest object's row spans under the
    threshold, extract features, classify."""
    stage = "input"
    try:
        image = check_image(image)
        stage = "segmentation"
        spans = _foreground_spans(image, threshold)
        stage = "feature extraction"
        features = features_of_spans(spans)
    except ValueError as err:
        raise StageError(stage, str(err)) from err
    return classify(features, tol), features
