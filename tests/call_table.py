"""Numpy calls of ``classify_raster`` per stage and per corpus shape.

At the typical image size the pipeline is bound by the fixed cost of
each numpy call, not by arithmetic, and unlike time a call count does
not swing with the machine's load.  A numpy call is, under
``sys.setprofile``:

- a ``c_call`` into a built-in function of a numpy module (``np.empty``),
  or into a method of an ``ndarray``, a numpy scalar or a ufunc
  (``a.max()``, ``np.minimum.reduceat``);
- an entry into one of numpy's Python functions (``np.flatnonzero``, and
  the stub through which a dispatched C function such as
  ``np.concatenate`` is entered), not counting the ``*_dispatcher``
  functions that only name the arguments.

A call counts only when its caller is outside numpy: whatever a counted
call runs inside numpy is not counted, so numpy's internals do not move
the count.  A ufunc called directly (``np.maximum(a, b)``) and an
operator (``a - b``, ``a[keep]``) make no profiler event and are not
counted.  Each call is charged to the innermost stage running:
``foreground_spans`` (its body ``segment._foreground_spans``, which
``classify_raster`` calls on the image it has checked),
``_span_hull``, ``_corners_of_hull`` and ``classify``, and the rest of
the call (the input check, the distances and the feature vector) as
``rest``.

For each of the eight reference shapes at 256x256 and 1024x1024, clean
under Otsu, this prints a Markdown table of the counts of one call,
taken after a first call has let numpy set up its caches, and then a
second table for the eight speckled 256x256 renders of the label sweep,
the only ones of these that reach the run labeller:

    PYTHONPATH=src python tests/call_table.py

It only reports; ``test_call_table.py`` pins the totals of the clean
renders at both sizes and of the speckled ones.  pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import os
import sys

import numpy as np

from shapeid import classify_raster, corpus, render
from shapeid import classifier, geometry, segment
from sweep import _speckled

SIZES = (256, 1024)

#: The stages, each by the code of the function that runs it.
STAGES = {
    segment._foreground_spans.__code__: "foreground_spans",
    geometry._span_hull.__code__: "_span_hull",
    geometry._corners_of_hull.__code__: "_corners_of_hull",
    classifier.classify.__code__: "classify",
}
COLUMNS = (*STAGES.values(), "rest")

_NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def _is_numpy_builtin(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, (np.ndarray, np.generic, np.ufunc)):
        return True
    return (getattr(fn, "__module__", None) or "").split(".")[0] == "numpy"


def numpy_calls(fn, *args, **kwargs) -> dict[str, int]:
    """Numpy calls made by ``fn(*args, **kwargs)``, per stage (see the
    module docstring); ``fn``'s own result is dropped."""
    counts = dict.fromkeys(COLUMNS, 0)
    stages = ["rest"]
    depth = 0  # numpy calls open, counted or not

    def profile(frame, event, arg):
        nonlocal depth
        if event in ("c_call", "c_return", "c_exception"):
            if not _is_numpy_builtin(arg):
                return
            entered = event == "c_call"
            counted = entered
        else:  # "call" or "return" of a Python frame
            code = frame.f_code
            if code in STAGES:
                if event == "call":
                    stages.append(STAGES[code])
                else:
                    stages.pop()
                return
            if not code.co_filename.startswith(_NUMPY_DIR):
                return
            entered = event == "call"
            counted = entered and not code.co_name.endswith("_dispatcher")
        if entered:
            if counted and depth == 0:
                counts[stages[-1]] += 1
            depth += 1
        else:
            depth -= 1

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return counts


def raster_calls(image: np.ndarray, threshold="otsu") -> dict[str, int]:
    """``numpy_calls`` of ``classify_raster(image, threshold=threshold)``,
    after a first call."""
    classify_raster(image, threshold=threshold)
    return numpy_calls(classify_raster, image, threshold=threshold)


def corpus_calls(size: int) -> dict[str, dict[str, int]]:
    """``raster_calls`` of each clean corpus render at ``size`` x ``size``,
    by shape name, in report order."""
    return {name: raster_calls(render(spec, size, size)) for name, spec in corpus(size, size)}


def speckled_calls(size: int) -> dict[str, dict[str, int]]:
    """``raster_calls`` of each speckled corpus render at ``size`` x
    ``size``, as the label sweep makes them (``sweep._speckled``, one
    generator seeded with ``size`` for the eight shapes in report order),
    by shape name, in report order."""
    rng = np.random.default_rng(size)
    return {name: raster_calls(_speckled(render(spec, size, size), rng)) for name, spec in corpus(size, size)}


def _print_table(tables: dict[str, dict[str, dict[str, int]]]) -> None:
    """One Markdown row per shape of the counts in ``tables``, one group of
    columns per table, each headed by its key."""
    columns = [f"{key} {column}" for key in tables for column in (*COLUMNS, "total")]
    print("| shape | " + " | ".join(columns) + " |")
    print("| --- |" + " --- |" * len(columns))
    for name in next(iter(tables.values())):
        cells = []
        for counts in (table[name] for table in tables.values()):
            cells += [str(counts[column]) for column in COLUMNS] + [str(sum(counts.values()))]
        print(f"| {name} | " + " | ".join(cells) + " |")


def main() -> None:
    print("Numpy calls per `classify_raster` call, clean renders under Otsu.\n")
    _print_table({f"{size}²": corpus_calls(size) for size in SIZES})
    print("\nThe same, speckled 256² renders of the label sweep under Otsu.\n")
    _print_table({"256² speckled": speckled_calls(256)})


if __name__ == "__main__":
    main()
