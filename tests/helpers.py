"""Shared oracles, generators and the source-mutant helper for the test suite.

Everything here is deliberately independent of the library internals:
flood fill by explicit BFS, polygon area by centroid fan, point-in-region
by scalar math, so the tests cross-check rather than mirror the
implementation.
"""

import inspect
import itertools
import math
import sys
import types
from collections import deque

import numpy as np


def add_salt(image, fraction, rng, fg=255):
    """Return a copy with ``fraction`` of background pixels set to ``fg``."""
    img = np.asarray(image).copy()
    background = np.argwhere(img != fg)
    count = int(round(fraction * len(background)))
    picks = background[rng.choice(len(background), size=count, replace=False)]
    img[picks[:, 0], picks[:, 1]] = fg
    return img


def flood_components(mask):
    """All 4-connected components via BFS, in row-major discovery order."""
    m = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(m)
    h, w = m.shape
    components = []
    for y in range(h):
        for x in range(w):
            if not m[y, x] or seen[y, x]:
                continue
            queue = deque([(y, x)])
            seen[y, x] = True
            component = []
            while queue:
                cy, cx = queue.popleft()
                component.append((cy, cx))
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < h and 0 <= nx < w and m[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            components.append(component)
    return components


def largest_component_mask(mask):
    """Flood-fill reference for isolate_object.

    Discovery order is row-major by first pixel, so ``max`` with ``key=len``
    realizes the earliest-first-pixel tie rule.
    """
    components = flood_components(mask)
    best = max(components, key=len)
    out = np.zeros(np.asarray(mask).shape, dtype=bool)
    for y, x in best:
        out[y, x] = True
    return out


def centroid_fan_area(points):
    """Polygon area as a fan of triangles around the vertex centroid."""
    pts = np.asarray(points, dtype=float)
    g = pts.mean(axis=0)
    total = 0.0
    for i in range(len(pts)):
        a = pts[i] - g
        b = pts[(i + 1) % len(pts)] - g
        total += abs(a[0] * b[1] - a[1] * b[0]) / 2.0
    return total


def random_convex_quad(rng, span=1000.0):
    """Rejection-sample a strictly convex quadrilateral, vertices CCW."""
    while True:
        pts = rng.uniform(0.0, span, size=(4, 2))
        g = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - g[1], pts[:, 0] - g[0]))
        pts = pts[order]
        crosses = []
        for i in range(4):
            a = pts[(i + 1) % 4] - pts[i]
            b = pts[(i + 2) % 4] - pts[(i + 1) % 4]
            crosses.append(a[0] * b[1] - a[1] * b[0])
        if all(c > 1.0 for c in crosses) or all(c < -1.0 for c in crosses):
            return pts


def worst_corner_error(corners, true_vertices):
    """Max corner-to-vertex distance under the best one-to-one assignment."""
    return min(
        max(math.dist(corners[i], true_vertices[p[i]]) for i in range(len(corners)))
        for p in itertools.permutations(range(len(true_vertices)))
    )


def source_mutant(module, old: str, new: str) -> dict:
    """``module`` of the package with one source fragment replaced, as a
    module namespace, for mutation checks."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__package__ = module.__package__
    # dataclass() looks its class's module up in sys.modules.
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant.__dict__
