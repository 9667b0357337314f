"""Set-up, timed, allocation and traced passes of one benchmark workload.

Load is a closed loop from one thread: the next image is sent only after
the previous verdict has returned.  A run attempts whole rounds of the
workload's inputs in a seeded order, so every run makes the same mix of
calls.  Results are checked against the oracles in ``workloads`` after
the timed loop, outside the timed region.

End-to-end times are speed-normalised.  A shared 2-core virtual machine
can change speed by up to 2.3x over periods of 1 to 20 seconds, and the
process's CPU time swings with its wall time, so the raw times of one run
there say more about the machine's phase than about the program.  A fixed
calibration kernel, which does not use ``shapeid``, is therefore timed
before and after every block of at least ``CAL_EVERY_S`` of calls.  Each
call's time is scaled by ``CAL_REFERENCE_S`` over the mean of its block's
two calibration samples: the time the call would take on a machine where
the kernel takes ``CAL_REFERENCE_S``.  Set-up time is scaled the same way.
The raw figures are returned alongside, for the record.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import ndimage

import shapeid
from shapeid import (
    FeatureVector,
    area,
    binarize,
    boundary,
    classify,
    classify_raster,
    cli,
    convex_hull,
    extract_corners,
    isolate_object,
    load_pgm,
    pairwise_distances,
    polygon_area,
    write_pgm,
)

import workloads

__all__ = ["END_TO_END", "PER_LAYER", "run"]

#: End-to-end metric names and units (reported with ``trace=False``).
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "images_per_s": "1/s",
    "peak_alloc_mb": "MiB",
    "setup_s": "s",
}
#: Per-layer metric names and units (reported with ``trace=True``).
PER_LAYER = {
    "pgm.load_ms": "ms",
    "pgm.bytes_per_s": "B/s",
    "cli.self_ms": "ms",
    "segment.threshold_ms": "ms",
    "segment.isolate_ms": "ms",
    "segment.boundary_ms": "ms",
    "segment.components": "count",
    "segment.boundary_points": "count",
    "geometry.hull_ms": "ms",
    "geometry.hull_vertices": "count",
    "geometry.corners_ms": "ms",
    "geometry.measure_ms": "ms",
    "classifier.classify_ms": "ms",
    "trace.overhead_ms": "ms",
}

SETUP_REPEATS = 3
#: Untimed calls before timing starts; the first call loads scipy's lazy
#: modules and fills numpy's allocation caches.
WARMUP_CALLS = 3
#: Traced P2 parsing costs about 0.5 s per 256x256 file, so the allocation
#: pass of the CLI workload covers one input of each kind only.
CLI_PEAK_CALLS = 8
#: Longest stretch of timed calls between two calibration samples.
CAL_EVERY_S = 0.05
#: Calibration kernel times that normalised times refer to: about their
#: medians on a 2-core 2.1 GHz Xeon virtual machine.  The CLI workload,
#: which is nearly all Python token parsing, uses the Python part of the
#: kernel alone; the others, which mix Python geometry with numpy and
#: scipy raster passes, use both parts.
CAL_REFERENCE_S = {"python": 0.0015, "python+raster": 0.0023}

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_CLI = "cli_ascii_256"


class Inputs:
    """A workload's samples, their timed-loop order and the PGM files
    written for them: P2 for the CLI workload, P5 for the others."""

    def __init__(self, workload: str, seed: int, work_dir: Path, files: bool):
        self.samples = workloads.make_samples(workload, seed)
        self.order = workloads.shuffled_order(len(self.samples), seed)
        self.blobs: list[bytes] = []
        self.paths: list[str] = []
        if files:
            work_dir.mkdir(parents=True, exist_ok=True)
            for i, sample in enumerate(self.samples):
                data = write_pgm(sample.image, binary=workload != _CLI)
                path = work_dir / f"{i:03d}.pgm"
                path.write_bytes(data)
                self.blobs.append(data)
                self.paths.append(str(path))


_CAL_RNG = np.random.default_rng(20160406)
_CAL_TEXT = b" ".join(b"%d" % v for v in _CAL_RNG.integers(0, 256, 6000))
_CAL_MASK = _CAL_RNG.random((192, 192)) > 0.45


def _calibration_seconds(kernel: str) -> float:
    """Time of one run of a fixed kernel: a Python token loop, followed
    for ``"python+raster"`` by numpy and scipy raster work."""
    start = time.perf_counter()
    total = 0
    for token in _CAL_TEXT.split():
        total += int(token)
    if kernel == "python+raster":
        labels, count = ndimage.label(_CAL_MASK)
        total += count + int(np.bincount(labels.ravel()).max())
    return time.perf_counter() - start


def _calibration_kernel(workload: str) -> str:
    return "python" if workload == _CLI else "python+raster"


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing shapeid with numpy and scipy."""
    src = str(Path(shapeid.__file__).resolve().parent.parent)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import shapeid", src],
        check=True,
    )
    return time.perf_counter() - start


def _run_cli(path: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", "--json", path])
    return code, out.getvalue()


def _cli_problems(sample: workloads.Sample, result: tuple[int, str]) -> list[str]:
    """Check the exit code and the JSON report of one ``shapeid classify --json``."""
    code, text = result
    if code != 0:
        return [f"{sample.name}: shapeid classify exit code {code}"]
    try:
        report = json.loads(text)
        label, area_px = report["label"], report["features"]["area_px"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"{sample.name}: unreadable JSON report: {err}"]
    return workloads.check(sample, label, [], area_px)


def _operation(workload: str, inputs: Inputs):
    """The timed call of one input and the check of its result."""
    samples = inputs.samples
    if workload == _CLI:

        def call(i):
            return _run_cli(inputs.paths[i])

        def verify(i, result):
            return _cli_problems(samples[i], result)

    else:

        def call(i):
            return classify_raster(samples[i].image)

        def verify(i, result):
            verdict, features = result
            return workloads.check(samples[i], verdict.label.value, features.corners, features.area_px)

    return call, verify


class Tally:
    """Attempted and failed operations, and the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def add(self, problems: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            if len(self.problems) < 10:
                self.problems.extend(problems)


def _timed_loop(call, order, seconds: float, kernel: str):
    """Whole rounds over ``order`` until ``seconds`` have passed.

    Returns the raw call times, the same times normalised by the
    calibration samples that bracket each block of calls, the results,
    the calibration samples and the loop's wall time.
    """
    times, results = [], []
    cals, ends = [_calibration_seconds(kernel)], [0]
    start = block_start = time.perf_counter()
    while True:
        for i in order:
            t0 = time.perf_counter()
            try:
                result = call(i)
            except Exception as err:  # a failed call is counted, not fatal
                result = err
            t1 = time.perf_counter()
            times.append(t1 - t0)
            results.append((i, result))
            if t1 - block_start >= CAL_EVERY_S:
                cals.append(_calibration_seconds(kernel))
                ends.append(len(times))
                block_start = time.perf_counter()
        if time.perf_counter() - start >= seconds:
            wall = time.perf_counter() - start
            break
    if ends[-1] < len(times):
        cals.append(_calibration_seconds(kernel))
        ends.append(len(times))
    scaled = []
    for k in range(1, len(ends)):
        factor = CAL_REFERENCE_S[kernel] / ((cals[k - 1] + cals[k]) / 2.0)
        scaled.extend(t * factor for t in times[ends[k - 1]:ends[k]])
    return times, scaled, results, cals, wall


def _peak_alloc_mb(call, indices) -> float:
    """Largest traced allocation peak of one call, in MiB."""
    peak = 0
    tracemalloc.start()
    try:
        for i in indices:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call(i)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del result
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _end_to_end(workload: str, seed: int, seconds: float, work_dir: Path, tally: Tally) -> tuple[dict, dict]:
    kernel = _calibration_kernel(workload)
    for _ in range(WARMUP_CALLS):
        _calibration_seconds(kernel)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        cals = [_calibration_seconds(kernel)]
        t_import = _import_seconds()
        cals.append(_calibration_seconds(kernel))
        start = time.perf_counter()
        inputs = Inputs(workload, seed, work_dir, files=workload == _CLI)
        call, verify = _operation(workload, inputs)
        for i in range(WARMUP_CALLS):
            call(i)
        raw = t_import + time.perf_counter() - start
        cals.append(_calibration_seconds(kernel))
        raw_setups.append(raw)
        setups.append(raw * CAL_REFERENCE_S[kernel] / statistics.fmean(cals))

    times, scaled, results, cals, wall = _timed_loop(call, inputs.order, seconds, kernel)
    for i, result in results:
        if isinstance(result, Exception):
            tally.add([f"{inputs.samples[i].name}: {type(result).__name__}: {result}"], raised=True)
        else:
            tally.add(verify(i, result))
    del results

    peak_inputs = range(CLI_PEAK_CALLS) if workload == _CLI else range(len(inputs.samples))
    metrics = {
        "latency_p50_ms": 1000.0 * statistics.median(scaled),
        "latency_p90_ms": 1000.0 * statistics.quantiles(scaled, n=10, method="inclusive")[8],
        "images_per_s": len(scaled) / math.fsum(scaled),
        "peak_alloc_mb": _peak_alloc_mb(call, peak_inputs),
        "setup_s": statistics.median(setups),
    }
    raw = {
        "raw.latency_p50_ms": 1000.0 * statistics.median(times),
        "raw.latency_p90_ms": 1000.0 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "raw.images_per_s": len(times) / wall,
        "raw.setup_s": statistics.median(raw_setups),
        "calibration_p50_ms": 1000.0 * statistics.median(cals),
        "calibration_samples": len(cals),
    }
    return metrics, raw


def _boundary_count(mask: np.ndarray) -> int:
    """Foreground pixels with a background or out-of-bounds 4-neighbour."""
    p = np.pad(mask, 1)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return int(np.count_nonzero(mask & ~interior))


def _traced_op(op: int, data: bytes, path: str, spans: list) -> dict:
    """One input through the CLI, the loader and the pipeline stage by stage.

    Each public call is timed from outside and kept as a span
    ``(op, name, start, end)``.  Returns the verdicts and the counts.
    """

    def span(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        spans.append((op, name, t0, time.perf_counter()))
        return out

    cli_result = span("cli.main", _run_cli, path)
    image = span("pgm.load", load_pgm, data)
    reference = span("pipeline", classify_raster, image)
    mask = span("segment.threshold", binarize, image, "otsu")
    obj = span("segment.isolate", isolate_object, mask)
    points = span("segment.boundary", boundary, obj)
    hull = span("geometry.hull", convex_hull, points)
    corners = span("geometry.corners", extract_corners, hull)

    def measure():
        d, sd = pairwise_distances(corners)
        return FeatureVector(
            corners=corners,
            distances=tuple(float(x) for x in d),
            sd=sd,
            area_px=area(obj),
            poly_area=polygon_area(corners),
        )

    features = span("geometry.measure", measure)
    verdict = span("classifier.classify", classify, features)
    return {
        "cli": cli_result,
        "image": image,
        "boundary": points,
        "reference": reference,
        "staged": (verdict, features),
        "counts": {
            "segment.components": ndimage.label(mask, structure=_FOUR_CONNECTED)[1],
            "segment.boundary_points": _boundary_count(obj),
            "geometry.hull_vertices": len(hull),
        },
    }


def _same_result(a, b) -> bool:
    (va, fa), (vb, fb) = a, b
    return (
        va.label is vb.label
        and np.array_equal(fa.corners, fb.corners)
        and fa.distances == fb.distances
        and fa.area_px == fb.area_px
        and fa.poly_area == fb.poly_area
    )


_STAGES = (
    "segment.threshold",
    "segment.isolate",
    "segment.boundary",
    "geometry.hull",
    "geometry.corners",
    "geometry.measure",
    "classifier.classify",
)


def _per_layer(workload: str, seed: int, seconds: float, work_dir: Path, tally: Tally) -> tuple[dict, list]:
    inputs = Inputs(workload, seed, work_dir, files=True)
    samples = inputs.samples
    spans: list = []
    for i in range(WARMUP_CALLS):
        _traced_op(-1, inputs.blobs[i], inputs.paths[i], [])

    per_op: dict[str, list[float]] = {name: [] for name in PER_LAYER if name != "trace.overhead_ms"}
    stage_sums, pipeline_times = [], []
    start = time.perf_counter()
    op = 0
    while True:
        for i in inputs.order:
            first = len(spans)
            try:
                out = _traced_op(op, inputs.blobs[i], inputs.paths[i], spans)
            except Exception as err:  # a failed call is counted, not fatal
                tally.add([f"{samples[i].name}: {type(err).__name__}: {err}"], raised=True)
                op += 1
                continue
            ms = {name: 1000.0 * (t1 - t0) for _, name, t0, t1 in spans[first:]}
            problems = _cli_problems(samples[i], out["cli"])
            if not np.array_equal(out["image"], samples[i].image):
                problems.append(f"{samples[i].name}: load_pgm of the written file differs from the render")
            if len(out["boundary"]) != out["counts"]["segment.boundary_points"]:
                problems.append(f"{samples[i].name}: boundary() point count differs from the mask's")
            if not _same_result(out["staged"], out["reference"]):
                problems.append(f"{samples[i].name}: staged verdict differs from classify_raster")
            verdict, features = out["staged"]
            problems += workloads.check(samples[i], verdict.label.value, features.corners, features.area_px)
            tally.add(problems)

            stage_sum = sum(ms[name] for name in _STAGES)
            stage_sums.append(stage_sum)
            pipeline_times.append(ms["pipeline"])
            per_op["pgm.load_ms"].append(ms["pgm.load"])
            per_op["pgm.bytes_per_s"].append(len(inputs.blobs[i]) / (ms["pgm.load"] / 1000.0))
            per_op["cli.self_ms"].append(ms["cli.main"] - ms["pgm.load"] - ms["pipeline"])
            for name in _STAGES:
                per_op[name + "_ms"].append(ms[name])
            for name, value in out["counts"].items():
                per_op[name].append(value)
            op += 1
        if time.perf_counter() - start >= seconds:
            break

    metrics = {name: float(statistics.median(values)) for name, values in per_op.items()}
    metrics["trace.overhead_ms"] = statistics.median(stage_sums) - statistics.median(pipeline_times)
    return metrics, spans


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, list[str], dict]:
    """Run one workload; return the result object the command prints, the
    first few problems found by the checks, and the raw (not normalised)
    end-to-end figures, which are empty for a traced run."""
    if workload not in workloads.NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(workloads.NAMES)}")
    tally = Tally()
    raw = {}
    work_dir = out_dir / f"{workload}-inputs"
    if trace:
        values, spans = _per_layer(workload, seed, seconds, work_dir, tally)
        units = PER_LAYER
        origin = spans[0][2] if spans else 0.0
        trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "fields": ["op", "name", "start_ms", "end_ms"],
            "spans": [[op, name, round(1000.0 * (t0 - origin), 4), round(1000.0 * (t1 - origin), 4)]
                      for op, name, t0, t1 in spans],
        }))
    else:
        values, raw = _end_to_end(workload, seed, seconds, work_dir, tally)
        units = END_TO_END
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }, tally.problems, raw
