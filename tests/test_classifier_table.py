"""The table-driven classifier against the if-tree it replaced.

``classify`` decides each label from one ordered table of the four rules,
``(name, holds, outcomes)``, and builds ``evidence["rules"]`` from that
table.  The if-tree it replaced is kept here verbatim as ``old_classify``,
and the two must agree on the label, on the evidence (its key order and
NaNs included) and on the ``explain`` text: on random feature vectors,
also ones with a zero, NaN or infinite area, and on the corpus.  Swapping
any two adjacent rows of the table must change some label or note.
"""

import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import source_mutant
from shapeid import (
    FeatureVector,
    ShapeClass,
    Tolerances,
    classify,
    classify_raster,
    corpus,
    explain,
    polygon_area,
    render,
)
from shapeid import classifier
from shapeid.classifier import Verdict
from shapeid.geometry import fit_hemisphere, order_counterclockwise
from test_classifier import make_features


def _eq(a: float, b: float, eps: float) -> bool:
    # The tolerance test of classifier._eq, which an infinite side no
    # longer passes.
    diff = abs(a - b)
    return math.isfinite(diff) and diff <= eps * max(a, b)


def old_classify(features: FeatureVector, tol: Tolerances | None = None) -> Verdict:
    """Label a feature vector with the first matching rule."""
    if tol is None:
        tol = Tolerances()
    d = [float(x) for x in features.distances]
    sd = float(features.sd)
    area_px = float(features.area_px)
    poly_area = float(features.poly_area)

    degen_eps = tol.degen_eps
    if degen_eps is None:
        degen_eps = max(3.0, 0.05 * max(d))
    bulge = area_px / poly_area if poly_area > 0 else math.inf

    # Corner order is counterclockwise, so in the canonical pair order
    # (01, 02, 03, 12, 13, 23) the diagonals are pairs 02 and 13.
    sides = [d[0], d[3], d[5], d[2]]
    diagonals = [d[1], d[4]]

    min_index = d.index(min(d))
    sd_unique = not any(
        _eq(x, sd, tol.rel_eps) for i, x in enumerate(d) if i != min_index
    )
    degenerate = sd <= degen_eps and sd_unique

    lo = sorted(sides)
    paired = (
        _eq(lo[0], lo[1], tol.rel_eps)
        and _eq(lo[2], lo[3], tol.rel_eps)
        and not _eq((lo[0] + lo[1]) / 2, (lo[2] + lo[3]) / 2, tol.rel_eps)
    )
    all_sides_eq = _eq(min(sides), max(sides), tol.rel_eps)
    diagonals_eq = _eq(diagonals[0], diagonals[1], tol.rel_eps)
    bulge_ok = bulge <= 1 + tol.area_eps

    fit = fit_hemisphere(features.corners)
    half_disk_area = 0.5 * math.pi * fit.radius**2 if fit is not None else None
    hemisphere_match = fit is not None and _eq(
        area_px, half_disk_area, tol.area_eps
    )

    rules = {
        "degenerate_corners": degenerate,
        "equal_sides": all_sides_eq and bulge_ok,
        "half_disk_area": hemisphere_match,
        "paired_sides": paired,
    }
    evidence = {
        "sides": sides,
        "diagonals": diagonals,
        "sd": sd,
        "degen_eps": degen_eps,
        "area_px": area_px,
        "poly_area": poly_area,
        "bulge_ratio": bulge if math.isfinite(bulge) else None,
        "hemisphere": None
        if fit is None
        else {
            "center": [fit.center[0], fit.center[1]],
            "radius": fit.radius,
            "axis": fit.axis,
            "half_disk_area": half_disk_area,
        },
        "rules": rules,
        "notes": [],
    }
    notes = evidence["notes"]

    if degenerate:
        if bulge > 1 + tol.area_eps:
            notes.append("area exceeds corner triangle: curved cap present")
            return Verdict(ShapeClass.CONE, evidence)
        notes.append("area matches corner triangle: no cap")
        return Verdict(ShapeClass.TRIANGLE, evidence)

    if rules["equal_sides"]:
        if diagonals_eq:
            notes.append("diagonals equal")
            return Verdict(ShapeClass.SQUARE, evidence)
        notes.append("diagonals differ")
        return Verdict(ShapeClass.RHOMBUS, evidence)

    if hemisphere_match:
        return Verdict(ShapeClass.HEMISPHERE, evidence)

    if paired:
        a = (lo[0] + lo[1]) / 2
        b = (lo[2] + lo[3]) / 2
        if diagonals_eq:
            if bulge_ok and _eq(area_px, a * b, tol.area_eps):
                notes.append("area matches side product")
                return Verdict(ShapeClass.RECTANGLE, evidence)
            if bulge > 1 + tol.area_eps:
                notes.append("area exceeds corner rectangle: curved caps present")
                return Verdict(ShapeClass.CYLINDER, evidence)
            notes.append("equal diagonals but area matches neither rectangle nor capped rectangle")
        elif bulge_ok:
            notes.append("unequal diagonals with flat silhouette")
            return Verdict(ShapeClass.KITE, evidence)
        else:
            notes.append("unequal diagonals but area exceeds corner polygon")

    return Verdict(ShapeClass.UNKNOWN, evidence)


def _same(a, b) -> bool:
    """Equal in type, value and dict key order, with NaN equal to NaN."""
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def _assert_same_verdict(features, tol=None):
    new, old = classify(features, tol), old_classify(features, tol)
    assert new.label is old.label
    assert _same(new.evidence, old.evidence)
    assert explain(new) == explain(old)


_SPECIAL_AREAS = (0.0, -1.0, math.nan, math.inf, -math.inf)


@st.composite
def feature_vectors(draw):
    """Corners on a coarse grid, so that sides, diagonals and axis-aligned
    pairs often tie, with pixel and polygon areas near every threshold or
    zero, negative, NaN or infinite."""
    pts = draw(st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=4, max_size=4, unique=True
    ))
    corners = order_counterclockwise(np.array(pts, dtype=float) * draw(st.sampled_from([1.0, 9.0])))
    poly = polygon_area(corners)
    fit = fit_hemisphere(corners)
    bases = [poly] + ([0.5 * math.pi * fit.radius**2] if fit is not None else [])
    area_px = draw(st.one_of(
        st.builds(lambda base, f: base * f, st.sampled_from(bases), st.floats(0.7, 1.4)),
        st.sampled_from(_SPECIAL_AREAS),
    ))
    poly_area = draw(st.one_of(st.just(poly), st.sampled_from(_SPECIAL_AREAS)))
    return make_features(corners, area_px=area_px, poly=poly_area)


_TOLERANCES = st.one_of(
    st.none(),
    st.builds(Tolerances, st.floats(0.01, 0.2), st.floats(0.02, 0.3),
              st.one_of(st.none(), st.floats(0.5, 30.0))),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(features=feature_vectors(), tol=_TOLERANCES)
def test_table_matches_the_if_tree(features, tol):
    _assert_same_verdict(features, tol)


def test_table_matches_the_if_tree_on_the_hand_built_cases():
    for features in _CASES.values():
        _assert_same_verdict(features)
        for special in _SPECIAL_AREAS:
            _assert_same_verdict(dataclasses.replace(features, area_px=special))
            _assert_same_verdict(dataclasses.replace(features, poly_area=special))
            _assert_same_verdict(dataclasses.replace(features, area_px=special, poly_area=special))
    # A NaN pixel area is neither flat nor capped, so no cap is seen.
    nan_cone = dataclasses.replace(_CASES["cone"], area_px=math.nan)
    assert classify(nan_cone).label is ShapeClass.TRIANGLE


_ROTATABLE = (
    ShapeClass.RECTANGLE,
    ShapeClass.SQUARE,
    ShapeClass.RHOMBUS,
    ShapeClass.KITE,
    ShapeClass.TRIANGLE,
)


@pytest.mark.parametrize("size", [64, 256])
def test_table_matches_the_if_tree_on_the_corpus(size):
    for _, spec in corpus(size, size):
        angles = range(0, 90, 15) if spec.kind in _ROTATABLE else [0]
        for angle in angles:
            image = render(dataclasses.replace(spec, rotation=float(angle)), size, size)
            for polarity in (image, 255 - image):
                verdict, features = classify_raster(polarity)
                _assert_same_verdict(features)
                assert verdict.label is old_classify(features).label


# One vector in each region of the table, and, for each pair of adjacent
# rows, one that both rows would take.
_RECT = [(0, 0), (100, 0), (100, 50), (0, 50)]
_KITE = [(-60, 0), (0, -40), (100, 0), (0, 40)]
_CASES = {
    # a flat rhombus whose short diagonal is tiny: degenerate and equal sides
    "needle": make_features([(-100, 0), (0, -1), (100, 0), (0, 1)], 200.0),
    "cone": make_features([(0, 0), (0.5, 0.87), (100, 0), (50, 86.6)], 5600.0),
    "square": make_features([(0, 0), (100, 0), (100, 100), (0, 100)], 10000.0),
    # a square whose pixel area is its half-disk's: equal sides and half disk
    "square half disk": make_features([(0, 0), (100, 0), (100, 100), (0, 100)], 3927.0),
    # a rectangle whose pixel area is its half-disk's: half disk and paired sides
    "rectangle half disk": make_features(_RECT, 3927.0),
    "rectangle": make_features(_RECT, 5000.0),
    "rectangle short of its area": make_features(_RECT, 3000.0),
    "rectangle with caps": make_features(_RECT, 6000.0),
    "kite": make_features(_KITE, 6400.0),
    "kite with caps": make_features(_KITE, 8000.0),
}


def _adjacent_row_swaps():
    """(old, new) pairs: the source of two adjacent rules of the table, or of
    two adjacent outcomes of one rule, and that text with the two swapped."""
    source = inspect.getsource(classifier)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    (table,) = [
        node.value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        and getattr(node.targets[0], "id", None) == "rules"
    ]
    groups = [("rules", table.elts)]
    groups += [(ast.literal_eval(rule.elts[0]), rule.elts[2].elts) for rule in table.elts]
    swaps = []
    for group, rows in groups:
        for index, (first, second) in enumerate(zip(rows, rows[1:])):
            (a0, a1), (b0, b1) = span(first), span(second)
            new = source[b0:b1] + source[a1:b0] + source[a0:a1]
            swaps.append(pytest.param(source[a0:b1], new, id=f"{group} {index}-{index + 1}"))
    return swaps


_SWAPS = _adjacent_row_swaps()


def test_every_adjacent_pair_of_rows_is_swapped():
    # Four rules, and 2, 2, 1 and 5 outcomes.
    assert len(_SWAPS) == 3 + (1 + 1 + 0 + 4)


@pytest.mark.parametrize("old, new", _SWAPS)
def test_adjacent_row_swaps_are_caught(old, new):
    mutant = source_mutant(classifier, old, new)
    changed = []
    for name, features in _CASES.items():
        verdict = mutant["classify"](features)
        reference = old_classify(features)
        if (verdict.label.value, verdict.evidence["notes"]) != (
            reference.label.value, reference.evidence["notes"]
        ):
            changed.append(name)
    assert changed
