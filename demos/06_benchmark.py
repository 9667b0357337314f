"""Wall-clock timing of the pipeline over the reference shapes.

Runs ``shapeid bench`` at two raster sizes: a CSV row per shape (mean,
min and max ms over 10 runs, segmentation through classification,
rendering excluded) plus the column averages.
"""

import sys

from shapeid.cli import main

for size in ("256x256", "512x512"):
    print(f"--- {size} ---")
    if main(["bench", "--size", size]) != 0:
        sys.exit(1)
    print()
