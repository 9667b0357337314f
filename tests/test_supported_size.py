"""The smallest supported raster size.

On the sweep's 93 upright clean cases (``sweep.upright``), no raster of
``SMALLEST_SIZE`` px or more, up to the sweep's largest, gets a confident
wrong label: a concrete class other than the rendered shape.  ``Unknown``
and a ``StageError`` are refusals, not wrong.  Below it, 126 px gives two
and 96 px three confident wrong labels, each a triangle read as Cone.
"""

from shapeid import StageError, classify_raster
from sweep import upright

SMALLEST_SIZE = 127


def _outcomes(size: int) -> tuple[list[str], list[str], list[str]]:
    """The names of the right, refused and confident wrong cases at ``size`` px."""
    right, refused, wrong = [], [], []
    for name, image in upright(size):
        try:
            label = classify_raster(image)[0].label.value.lower()
        except StageError:
            label = "unknown"
        shape = name.split("@")[0]
        (right if label == shape else refused if label == "unknown" else wrong).append(name)
    return right, refused, wrong


def test_no_clean_case_is_confidently_wrong_at_the_smallest_supported_size():
    right, refused, wrong = _outcomes(SMALLEST_SIZE)
    assert len(right) + len(refused) + len(wrong) == 93
    assert wrong == []
    assert len(right) >= 92, refused
