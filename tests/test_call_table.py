"""The numpy calls of one ``classify_raster`` call stay within a budget.

At 256x256 the pipeline is bound by the fixed cost of each numpy call,
so the count per corpus shape, as ``call_table.py`` counts it, is pinned
as an upper bound, the way the allocation peaks are pinned.  Counts are
deterministic, so a change that adds calls fails here whatever the
machine's speed.
"""

import numpy as np
import pytest

from call_table import corpus_calls, numpy_calls, raster_calls
from shapeid import corpus, render

#: Most numpy calls of one call on each clean 256x256 corpus render.
BUDGET_256 = {
    "rectangle": 43,
    "cylinder": 43,
    "kite": 44,
    "square": 43,
    "rhombus": 44,
    "hemisphere": 44,
    "triangle": 44,
    "cone": 46,
}


def test_each_corpus_shape_stays_within_its_256_budget():
    totals = {name: sum(counts.values()) for name, counts in corpus_calls(256).items()}
    over = {name: (total, BUDGET_256[name]) for name, total in totals.items() if total > BUDGET_256[name]}
    assert not over, over


def test_count_is_deterministic_and_charged_to_stages():
    image = render(dict(corpus(256, 256))["cone"], 256, 256)
    first, second = raster_calls(image), raster_calls(image)
    assert first == second
    assert all(first[stage] > 0 for stage in ("foreground_spans", "_span_hull", "_corners_of_hull", "classify"))


def _calls(a):
    np.flatnonzero(a)  # a Python function of numpy: one call, however many it makes
    a.max()  # an ndarray method entering numpy's Python: one call
    np.empty(3)  # a built-in function
    np.minimum.reduceat(a, [0, 2])  # a ufunc method
    np.maximum(a, 1)  # a ufunc called directly: no profiler event
    a - 1  # an operator: no call
    return a.tolist()


@pytest.mark.parametrize("fn, expected", [(_calls, 5), (lambda a: sorted(a.tolist()), 1)])
def test_count_follows_its_definition(fn, expected):
    assert sum(numpy_calls(fn, np.arange(6)).values()) == expected
