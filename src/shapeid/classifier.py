"""Tolerance-rule classifier mapping corner features to a shape label.

The rules are one ordered table in ``classify``.  The first rule that
holds decides the label, by the first of its outcomes that holds:

1. degenerate corners -- the smallest pairwise corner distance is tiny and
   unique, so only three real corners exist: ``Cone`` when the pixel area
   exceeds the corner polygon (curved cap), else ``Triangle``.
2. four equal sides, with a pixel area that does not exceed the corner
   polygon -- ``Square`` when the diagonals also match, else ``Rhombus``.
3. half-disk area -- an axis-aligned corner pair defines a center and
   radius whose half-disk area matches the pixel count: ``Hemisphere``.
4. two equal side pairs -- with equal diagonals, ``Rectangle`` when the
   pixel area matches the side product and does not exceed the corner
   polygon, else ``Unknown`` unless it exceeds the polygon, which makes
   it a ``Cylinder`` (area excess from elliptical caps); with unequal
   diagonals, ``Unknown`` when the pixel area exceeds the corner polygon,
   else ``Kite``.

If no rule holds the label is ``Unknown``.  ``evidence["rules"]`` records
whether each rule holds, in table order.  Sides and diagonals are read
off the counterclockwise corner order: opposite corners are diagonal
pairs, adjacent corners are sides.  All comparisons are relative, so
labels are invariant under translation and uniform scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import FeatureVector, fit_hemisphere

__all__ = [
    "ShapeClass",
    "TABLE_ORDER",
    "Tolerances",
    "Verdict",
    "classify",
    "explain",
]


class ShapeClass(Enum):
    RECTANGLE = "Rectangle"
    CYLINDER = "Cylinder"
    KITE = "Kite"
    SQUARE = "Square"
    RHOMBUS = "Rhombus"
    HEMISPHERE = "Hemisphere"
    TRIANGLE = "Triangle"
    CONE = "Cone"
    UNKNOWN = "Unknown"


#: The eight concrete classes in report order.
TABLE_ORDER = tuple(cls for cls in ShapeClass if cls is not ShapeClass.UNKNOWN)


@dataclass(frozen=True)
class Tolerances:
    """Comparison tolerances for the classification rules.

    ``rel_eps`` bounds relative length differences, ``area_eps`` relative
    area differences.  ``degen_eps`` is the pixel threshold below which the
    smallest corner distance marks a degenerate (three-corner) shape;
    ``None`` selects ``max(3, 0.05 * largest distance)`` per feature
    vector; a set ``degen_eps`` must be finite and positive, because a NaN
    would fail every comparison and silently switch its rule off.  The
    hemisphere fit's alignment tolerance is the fixed
    ``geometry.ALIGN_EPS``.
    """

    rel_eps: float = 0.05
    area_eps: float = 0.10
    degen_eps: float | None = None

    def __post_init__(self):
        if not 0 < self.rel_eps < 0.5:
            raise ValueError(f"rel_eps must be in (0, 0.5), got {self.rel_eps}")
        if not 0 < self.area_eps < 0.5:
            raise ValueError(f"area_eps must be in (0, 0.5), got {self.area_eps}")
        if self.degen_eps is not None and not (math.isfinite(self.degen_eps) and self.degen_eps > 0):
            raise ValueError(f"degen_eps must be finite and positive, got {self.degen_eps}")


@dataclass(frozen=True)
class Verdict:
    label: ShapeClass
    evidence: dict


def _eq(a: float, b: float, eps: float) -> bool:
    # An infinite a against a finite b would pass as inf <= eps * inf.
    diff = abs(a - b)
    return math.isfinite(diff) and diff <= eps * max(a, b)


def classify(features: FeatureVector, tol: Tolerances | None = None) -> Verdict:
    """Label a feature vector by the first rule of the table that holds."""
    if tol is None:
        tol = Tolerances()
    eps, area_eps = tol.rel_eps, tol.area_eps
    d = [float(x) for x in features.distances]
    sd = float(features.sd)
    area_px = float(features.area_px)
    poly_area = float(features.poly_area)

    degen_eps = tol.degen_eps
    if degen_eps is None:
        degen_eps = max(3.0, 0.05 * max(d))
    bulge = area_px / poly_area if poly_area > 0 else math.inf
    # Not each other's negation: a NaN bulge is neither flat nor capped.
    flat = bulge <= 1 + area_eps
    capped = bulge > 1 + area_eps

    # Corner order is counterclockwise, so in the canonical pair order
    # (01, 02, 03, 12, 13, 23) the diagonals are pairs 02 and 13.
    sides = [d[0], d[3], d[5], d[2]]
    diagonals = [d[1], d[4]]
    diagonals_eq = _eq(diagonals[0], diagonals[1], eps)
    lo = sorted(sides)
    a, b = (lo[0] + lo[1]) / 2, (lo[2] + lo[3]) / 2

    min_index = d.index(min(d))
    sd_unique = not any(_eq(x, sd, eps) for i, x in enumerate(d) if i != min_index)

    fit = fit_hemisphere(features.corners)
    half_disk_area = 0.5 * math.pi * fit.radius**2 if fit is not None else None

    # (name, holds, outcomes), in firing order.  Under the first rule that
    # holds, the first (condition, label, note) whose condition holds wins.
    # A condition states only what sets its outcome apart from those after
    # it, and each rule's last condition is True.
    rules = (
        ("degenerate_corners", sd <= degen_eps and sd_unique, (
            (capped, ShapeClass.CONE, "area exceeds corner triangle: curved cap present"),
            (True, ShapeClass.TRIANGLE, "area matches corner triangle: no cap"),
        )),
        ("equal_sides", _eq(min(sides), max(sides), eps) and flat, (
            (diagonals_eq, ShapeClass.SQUARE, "diagonals equal"),
            (True, ShapeClass.RHOMBUS, "diagonals differ"),
        )),
        ("half_disk_area", fit is not None and _eq(area_px, half_disk_area, area_eps), (
            (True, ShapeClass.HEMISPHERE, None),
        )),
        ("paired_sides",
         _eq(lo[0], lo[1], eps) and _eq(lo[2], lo[3], eps) and not _eq(a, b, eps), (
            (diagonals_eq and flat and _eq(area_px, a * b, area_eps), ShapeClass.RECTANGLE,
             "area matches side product"),
            (diagonals_eq and not capped, ShapeClass.UNKNOWN,
             "equal diagonals but area matches neither rectangle nor capped rectangle"),
            (diagonals_eq, ShapeClass.CYLINDER, "area exceeds corner rectangle: curved caps present"),
            (not flat, ShapeClass.UNKNOWN, "unequal diagonals but area exceeds corner polygon"),
            (True, ShapeClass.KITE, "unequal diagonals with flat silhouette"),
        )),
    )
    label, note = ShapeClass.UNKNOWN, None
    for _, holds, outcomes in rules:
        if holds:
            for condition, label, note in outcomes:
                if condition:
                    break
            break

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
        "rules": {name: holds for name, holds, _ in rules},
        "notes": [] if note is None else [note],
    }
    return Verdict(label, evidence)


def explain(verdict: Verdict) -> str:
    """Render a verdict's evidence as deterministic human-readable text."""
    ev = verdict.evidence
    rules = ev["rules"]
    sides = ", ".join(f"{s:.2f}" for s in ev["sides"])
    diagonals = ", ".join(f"{s:.2f}" for s in ev["diagonals"])
    bulge = ev["bulge_ratio"]
    lines = [
        f"label: {verdict.label.value}",
        f"sides: {sides}",
        f"diagonals: {diagonals}",
        f"smallest corner distance: {ev['sd']:.2f} (degenerate below {ev['degen_eps']:.2f})",
        f"pixel area {ev['area_px']:.0f} vs corner polygon {ev['poly_area']:.1f}"
        + (f" (bulge ratio {bulge:.3f})" if bulge is not None else " (degenerate polygon)"),
    ]

    def mark(ok):
        return "pass" if ok else "fail"

    lines.append(
        f"rule degenerate corners: {mark(rules['degenerate_corners'])}"
        " (smallest distance tiny and unique)"
    )
    lines.append(f"rule four sides equal: {mark(rules['equal_sides'])}")
    if ev["hemisphere"] is None:
        lines.append("rule half-disk area: fail (no axis-aligned corner pair)")
    else:
        h = ev["hemisphere"]
        lines.append(
            f"rule half-disk area: {mark(rules['half_disk_area'])}"
            f" (r={h['radius']:.2f}, half-disk area {h['half_disk_area']:.1f}"
            f" vs pixel area {ev['area_px']:.0f})"
        )
    lines.append(f"rule paired sides: {mark(rules['paired_sides'])}")
    if verdict.label is ShapeClass.SQUARE:
        lines.append("matched: sides equal and diagonals equal")
    elif verdict.label is ShapeClass.RHOMBUS:
        lines.append("matched: sides equal, diagonals differ")
    for note in ev["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)
