"""On salt-and-pepper renders the pipeline's output equals the committed
snapshot, bit for bit."""

import json

import pytest

from golden_noisy import GOLDEN_PATH, cases
from golden_features import snapshot
from shapeid import binarize, boundary, convex_hull, isolate_object

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = cases()


def test_snapshot_covers_every_case():
    assert [name for name, _ in CASES] == list(GOLDEN)


def test_noisy_hulls_are_large():
    # Hull of the kept object's boundary: the same polygon as the hull
    # build_features takes from the mask's row extremes.
    sizes = [len(convex_hull(boundary(isolate_object(binarize(image))))) for _, image in CASES]
    assert max(sizes) >= 50
    assert sum(30 <= s <= 55 for s in sizes) >= 12


@pytest.mark.parametrize("name, image", CASES, ids=[name for name, _ in CASES])
def test_features_match_snapshot(name, image):
    # A json round trip turns the fresh snapshot into the file's types.
    assert json.loads(json.dumps(snapshot(image))) == GOLDEN[name]
