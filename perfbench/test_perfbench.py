"""Tests of the benchmark itself: seeded inputs, oracles and short runs.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import numpy as np
import pytest

import bench
import workloads
from shapeid import classify_raster


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_inputs_are_bit_identical_for_a_seed(workload):
    first = workloads.make_samples(workload, 7)
    again = workloads.make_samples(workload, 7)
    other = workloads.make_samples(workload, 8)
    assert [s.name for s in first] == [s.name for s in again]
    for a, b in zip(first, again):
        assert a.image.dtype == np.uint8
        assert a.image.tobytes() == b.image.tobytes()
        assert np.array_equal(a.corner_ok, b.corner_ok)
        assert a.area_px == b.area_px
    assert any(a.image.tobytes() != c.image.tobytes() for a, c in zip(first, other))
    assert workloads.shuffled_order(len(first), 7) == workloads.shuffled_order(len(first), 7)


def test_oracles_reject_wrong_results():
    kite = next(s for s in workloads.make_samples("rotated_256", 3) if s.name == "kite@30")
    verdict, features = classify_raster(kite.image)
    assert workloads.check(kite, verdict.label.value, features.corners, features.area_px) == []

    wrong_label = workloads.check(kite, "Rhombus", features.corners, features.area_px)
    assert wrong_label and "label Rhombus" in wrong_label[0]
    assert workloads.check(kite, verdict.label.value, features.corners, features.area_px + 1)
    off_object = np.array(features.corners)
    off_object[0] = (0, 0)
    assert workloads.check(kite, verdict.label.value, off_object, features.area_px)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_short_run_has_no_failures(workload, trace, tmp_path, monkeypatch):
    # One set-up and two allocation-traced CLI calls keep the test short;
    # the timed loop still covers every input of the workload once.
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "CLI_PEAK_CALLS", 2)
    result, problems, _ = bench.run(workload, seed=5, seconds=0.01, trace=trace, out_dir=tmp_path)
    assert problems == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.specs(workload))
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
