"""The pipeline's output equals the committed snapshot, bit for bit."""

import json

import pytest

from golden_features import GOLDEN_PATH, cases, snapshot

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = cases()


def test_snapshot_covers_every_case():
    assert [name for name, _ in CASES] == list(GOLDEN)


@pytest.mark.parametrize("name, image", CASES, ids=[name for name, _ in CASES])
def test_features_match_snapshot(name, image):
    # A json round trip turns the fresh snapshot into the file's types.
    assert json.loads(json.dumps(snapshot(image))) == GOLDEN[name]
