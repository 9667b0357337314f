"""Labels do not depend on the image's orientation.

Every corpus shape at 64, 128 and 256 px, with the polygons also at a few
rotations, gets the same label under all eight flips and quarter-turns of
the image.  Each transform reverses or rotates the hull's vertex order and
moves its start vertex, and the corner order is taken about the corners'
centroid, so this guards both against a tie broken by position.  The
pixel area and the corner polygon's area (the largest inscribed
quadrilateral's or triangle's, whichever vertices win a tie) must not
move either.
"""

import dataclasses

import numpy as np
import pytest

from shapeid import classify_raster, corpus, render

_POLYGONS = ("rectangle", "square", "rhombus", "kite", "triangle")
_ANGLES = (20.0, 45.0, 70.0)


def _dihedral(image: np.ndarray) -> list[np.ndarray]:
    """The eight images the square's symmetries make of ``image``."""
    turns = [np.rot90(image, k) for k in range(4)]
    return turns + [turn[:, ::-1] for turn in turns]


def _cases(size: int):
    base = corpus(size, size)
    yield from base
    by_name = dict(base)
    for name in _POLYGONS:
        for angle in _ANGLES:
            yield f"{name}@{angle:g}", dataclasses.replace(by_name[name], rotation=angle)


@pytest.mark.parametrize("size", [64, 128, 256])
def test_label_is_the_same_under_all_flips_and_quarter_turns(size):
    for name, spec in _cases(size):
        outcomes = set()
        for view in _dihedral(render(spec, size, size)):
            verdict, features = classify_raster(view)
            outcomes.add((verdict.label, features.area_px, features.poly_area))
        assert len(outcomes) == 1, (name, size, outcomes)
