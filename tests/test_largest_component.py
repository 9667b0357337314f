"""The run labeller's union-find against the one it replaced.

``segment._largest_component`` hooks each run straight to the least run
it touches one row up in its first round, and jumps pointers twice to
each check; ``helpers.old_largest_component``, the previous union-find
kept verbatim, gathered both ends of every edge in each round and
checked after every jump.  Both must keep the same runs, on random masks
and on masks crafted to need many hook rounds, none, or to break a size
tie, and both must hook the same number of rounds.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import helpers
from helpers import old_largest_component
from shapeid import segment


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The starts and ends of ``mask``'s row runs in flattened rows of
    ``width`` slots, each row ending in a ``False`` slot, as
    ``_largest_runs`` hands them to ``_largest_component``."""
    h, w = mask.shape
    width = w + 1
    slots = np.zeros(1 + h * width, dtype=bool)
    slots[1:].reshape(h, width)[:, :w] = mask
    ends = np.flatnonzero(slots[1:] != slots[:-1])
    return ends[0::2], ends[1::2], width


class _CountingNumpy:
    """numpy, with each ``np.minimum.at`` call over at least one edge, one
    hook round, counted."""

    def __init__(self):
        self.hooks = 0
        counter = self

        class _Minimum:
            def __call__(self, *args, **kwargs):
                return np.minimum(*args, **kwargs)

            def at(self, target, indices, values):
                counter.hooks += len(indices) > 0
                np.minimum.at(target, indices, values)

        self.minimum = _Minimum()

    def __getattr__(self, name):
        return getattr(np, name)


def _joined(fn, module, mask) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """``fn``'s kept runs of ``mask`` and the hook rounds it took."""
    numpy = _CountingNumpy()
    counted = types.FunctionType(fn.__code__, {**vars(module), "np": numpy})
    return counted(*_runs(mask)), numpy.hooks


def _check(mask: np.ndarray) -> int:
    """Assert that both union-finds keep the same runs of ``mask`` in the
    same number of hook rounds; return that number."""
    (start, end), hooks = _joined(segment._largest_component, segment, mask)
    (old_start, old_end), old_hooks = _joined(old_largest_component, helpers, mask)
    assert np.array_equal(start, old_start) and np.array_equal(end, old_end)
    assert hooks == old_hooks
    return hooks


def _views(mask: np.ndarray):
    """The eight rotations and reflections of ``mask``."""
    for m in (mask, mask.T):
        yield from (m, m[::-1], m[:, ::-1], m[::-1, ::-1])


@st.composite
def _masks(draw):
    shape = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    fill = draw(st.sampled_from([0.1, 0.3, 0.5, 0.6, 0.8]))
    seed = draw(st.integers(0, 2**32 - 1))
    mask = np.random.default_rng(seed).random(shape) < fill
    mask |= draw(arrays(np.bool_, shape))
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return mask


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mask=_masks())
def test_union_find_matches_the_old_one(mask):
    for view in _views(mask):
        _check(view)


def _comb() -> np.ndarray:
    """Twelve one-pixel teeth, 20 rows tall, joined along the last row."""
    mask = np.zeros((20, 23), dtype=bool)
    mask[:, ::2] = True
    mask[-1] = True
    return mask


def _serpentine() -> np.ndarray:
    """Full rows joined at alternate ends."""
    mask = np.zeros((23, 16), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _spiral(n: int = 31) -> np.ndarray:
    """One path winding inward from the top-left corner."""
    mask = np.zeros((n, n), dtype=bool)
    top, left, bottom, right = 0, 0, n - 1, n - 1
    while top <= bottom and left <= right:
        mask[top, left:right + 1] = True
        mask[top:bottom + 1, right] = True
        if top + 2 <= bottom:
            mask[bottom, left:right + 1] = True
            mask[top + 2:bottom + 1, left] = True
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
        if top <= bottom and left <= right:
            mask[top, left - 2:left] = True
    return mask


def _bridge() -> np.ndarray:
    """Two bars from the top row, joined by a bar that starts lower: the
    one crafted mask that takes three hook rounds.

    The first round hooks the lower bar's tree to neither top bar, the
    second hooks it to the first bar only, since a root takes the least
    root it touches, and the third hooks the second bar: three rounds.
    """
    mask = np.zeros((8, 5), dtype=bool)
    mask[:, 0] = True
    mask[:5, 4] = True
    mask[3:, 2] = True
    mask[4, 2:] = True
    mask[7, :3] = True
    return mask


def _no_edges() -> np.ndarray:
    """Runs in every other row, and a checkerboard: no run touches one
    in the row above."""
    mask = np.zeros((21, 30), dtype=bool)
    mask[:9:2, 1::3] = True
    mask[:9:2, 2::3] = True
    mask[10:] = np.indices((11, 30)).sum(axis=0) % 2 == 1
    return mask


def _ties() -> np.ndarray:
    """Four components of nine pixels, three blocks and an L, and single
    pixels: the one whose first pixel comes first in row-major order, the
    L, must win."""
    mask = np.zeros((24, 24), dtype=bool)
    mask[2:5, 10:13] = True
    mask[12:15, 0:3] = True
    mask[0:2, 20:24] = True
    mask[2, 20] = True
    mask[18:21, 18:21] = True
    mask[22::2, ::2] = True
    return mask


#: Each crafted mask, with the hook rounds each of its views takes
#: (``_views``' order: upright, then transposed).
CRAFTED = {
    "comb": (_comb, [2, 1, 2, 1, 1, 1, 1, 1]),
    "serpentine": (_serpentine, [1, 1, 1, 1, 2, 2, 2, 2]),
    "spiral": (_spiral, [2] * 8),
    "bridge": (_bridge, [3, 1, 2, 1, 1, 1, 1, 1]),
    # Transposed, the runs of every other row become columns.
    "no-edges": (_no_edges, [0, 0, 0, 0, 1, 1, 1, 1]),
    "ties": (_ties, [1] * 8),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_union_find_on_crafted_masks(name):
    build, rounds = CRAFTED[name]
    assert [_check(view) for view in _views(build())] == rounds


def test_ties_resolve_to_the_earliest_component():
    start, end = segment._largest_component(*_runs(_ties()))
    width = _ties().shape[1] + 1
    assert (start[0] // width, start[0] % width) == (0, 20)
    assert len(start) == 3 and (end - start).sum() == 9
