"""Tolerance-rule classifier mapping corner features to a shape label.

The rules fire in a fixed order and the first match wins:

1. degenerate corners -- the smallest pairwise corner distance is tiny and
   unique, so only three real corners exist: ``Cone`` when the pixel area
   exceeds the corner polygon (curved cap), else ``Triangle``.
2. four equal sides -- ``Square`` when the diagonals also match, else
   ``Rhombus``.
3. half-disk area -- an axis-aligned corner pair defines a center and
   radius whose half-disk area matches the pixel count: ``Hemisphere``.
4. two equal side pairs -- equal diagonals give ``Rectangle`` (pixel area
   matches the side product) or ``Cylinder`` (area excess from elliptical
   caps); unequal diagonals give ``Kite``.

Anything else is ``Unknown``.  Sides and diagonals are read off the
counterclockwise corner order: opposite corners are diagonal pairs,
adjacent corners are sides.  All comparisons are relative, so labels are
invariant under translation and uniform scaling.
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
    return abs(a - b) <= eps * max(a, b)


def classify(features: FeatureVector, tol: Tolerances | None = None) -> Verdict:
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
