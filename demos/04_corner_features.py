"""Corner extraction and the distance/area feature vector.

For each reference shape: the four corner picks, the six pairwise
distances split into sides and diagonals, the smallest distance sd (zero
marks a degenerate three-corner shape), the bulge ratio of pixel area
over corner-polygon area (above one means curved caps), and the
hemisphere fit from an axis-aligned corner pair, all as
``classify_raster`` reports them.
"""

from shapeid import classify_raster, corpus, render

for name, spec in corpus():
    verdict, fv = classify_raster(render(spec, 256, 256))
    ev = verdict.evidence
    print(f"{name}: {verdict.label.value}")
    print(f"  corners   {[(int(x), int(y)) for x, y in fv.corners]}")
    print(f"  sides     {['%.1f' % s for s in sorted(ev['sides'])]}")
    print(f"  diagonals {['%.1f' % s for s in sorted(ev['diagonals'])]}  sd={ev['sd']:.2f}")
    print(f"  area_px={fv.area_px}  poly={fv.poly_area:.1f}"
          f"  bulge={ev['bulge_ratio']:.3f}")
    fit = ev["hemisphere"]
    if fit is not None:
        cx, cy = fit["center"]
        print(f"  aligned pair: {fit['axis']}, center=({cx:.1f}, {cy:.1f}), r={fit['radius']:.1f}")
