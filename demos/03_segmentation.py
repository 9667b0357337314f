"""Segmentation stage: threshold, then keep the largest object's row spans.

Adds salt noise to a render, shows Otsu's threshold, and shows that
``foreground_spans``, the route ``classify_raster`` takes, keeps only the
largest 4-connected component of the foreground: each of its rows as a
first and last column, and their pixel total.
"""

import numpy as np

from shapeid import ShapeSpec, otsu_threshold, render
from shapeid.segment import foreground_spans

rng = np.random.default_rng(42)

spec = ShapeSpec.rhombus((127.5, 127.5), 100, 0.75, fg=210, bg=35)
clean = render(spec, 256, 256)
img = clean.copy()

# Sprinkle 0.5% of the background with bright salt pixels.
bg_px = np.argwhere(img == 35)
picks = bg_px[rng.choice(len(bg_px), size=int(0.005 * len(bg_px)), replace=False)]
img[picks[:, 0], picks[:, 1]] = 210

t = otsu_threshold(img)
print(f"otsu threshold: {t} (intensities are {{35, 210}})")
raw = int(np.count_nonzero(img >= t))
spans = foreground_spans(img)
print(f"foreground:     {raw} pixels incl. {len(picks)} salt")
print(f"spans:          {spans.area} pixels in the largest 4-connected component"
      f" ({raw - spans.area} salt dropped)")
print(f"rows:           {len(spans.ys)}, y {spans.ys[0]}..{spans.ys[-1]}")
print(f"columns:        x {spans.first.min()}..{spans.last.max()}")

# The rhombus is kept whole; a salt pixel 4-adjacent to it joins its
# component, any other is dropped.
object_px = int(np.count_nonzero(clean == 210))
assert object_px <= spans.area <= object_px + len(picks)
print(f"the spans hold the {object_px} rhombus pixels and"
      f" {spans.area - object_px} adjacent salt")
