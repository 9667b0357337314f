"""``classify_raster`` on arbitrary ``uint8`` images.

Whatever the image holds, the pipeline returns a ``Verdict`` or raises
``StageError``; no other exception may escape a stage.  The images are
one-row and one-column arrays, constant, two-level and four-level images
(flat, or painted with rectangles), and uniform noise, each also as a
strided or reversed view.  A view must give what its contiguous copy
gives.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from shapeid import StageError, Verdict, classify_raster


@st.composite
def _images(draw):
    # Blocks twice as often as rows or columns: most verdicts come from them.
    shape = draw(st.sampled_from(["block", "block", "row", "column"]))
    n = draw(st.integers(1, 80))
    h, w = {"row": (1, n), "column": (n, 1), "block": (draw(st.integers(1, 48)), n)}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["noise", "levels", "rectangles"]))
    if fill == "noise":
        image = rng.integers(0, 256, (h, w), dtype=np.uint8)
    else:
        count = draw(st.sampled_from([1, 2, 4]))
        levels = np.array(draw(st.lists(st.integers(0, 255), min_size=count, max_size=count, unique=True)), np.uint8)
        if fill == "levels":
            image = levels[rng.integers(0, count, (h, w))]
        else:
            image = np.full((h, w), levels[0], dtype=np.uint8)
            for _ in range(draw(st.integers(1, 4))):
                y0, x0 = rng.integers(0, h), rng.integers(0, w)
                y1, x1 = rng.integers(y0, h) + 1, rng.integers(x0, w) + 1
                image[y0:y1, x0:x1] = levels[rng.integers(0, count)]
    step_y, step_x = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sign_y, sign_x = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    return image[:: sign_y * step_y, :: sign_x * step_x]


def _outcome(image):
    """Label and corners, or the stage and message of the ``StageError``."""
    try:
        verdict, features = classify_raster(image)
    except StageError as err:
        return err.stage, str(err)
    assert isinstance(verdict, Verdict)
    return verdict.label, features.corners.tolist()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(image=_images())
def test_any_uint8_image_gives_a_verdict_or_a_stage_error(image):
    assert _outcome(image) == _outcome(np.ascontiguousarray(image))
