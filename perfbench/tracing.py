"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's side only. For the length of a traced
run, each layer function listed in BOUNDARIES is replaced, in every package
module that binds it from another module, by a wrapper that times the call and
notes its sizes. Calls from `cuboidpose.bench` are caught that way, and so are
calls one layer makes into another, such as the coarse search's own
`voxel_downsample`. Inside `cuboidpose.registration`, `pairs_in_range` and
`kabsch` are wrapped as counters charged to the innermost open span. Nothing
under the package is edited; every binding is restored when the run ends.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import cuboidpose.registration as registration_module


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    frame: int | None
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.frame: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), math.nan, parent, self.frame)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def count(self, key: str) -> None:
        if self._open:
            counts = self.spans[self._open[-1]].counts
            counts[key] = counts.get(key, 0) + 1


def _points_in_out(args, out):
    return {"points_in": len(args[0]), "points_out": len(out)}


# layer function -> (span name, sizes of one call)
BOUNDARIES = {
    "render_scene": ("synth.render_scene", lambda a, out: {"points_out": len(out[3])}),
    "inject_pose_error": ("synth.inject_pose_error", None),
    "load_ppm": ("io.load", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    "load_pgm16": ("io.load", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    "load_intrinsics": ("io.load", lambda a, out: {"bytes": os.path.getsize(a[0])}),
    "hsv_threshold": (
        "segmentation.hsv_threshold",
        lambda a, out: {"mask_px": out.count()},
    ),
    "fit_quadrilateral": ("segmentation.fit_quadrilateral", None),
    "target_axis_points": ("segmentation.target_axis_points", None),
    "roi_filter": ("segmentation.roi_filter", lambda a, out: {"segments_in": len(a[0])}),
    "region_growing": (
        "segmentation.region_growing",
        lambda a, out: {"clusters": len(out)},
    ),
    "axis_points_from_cloud": ("segmentation.axis_points_from_cloud", None),
    "deproject_mask": ("camera.deproject_mask", lambda a, out: {"points_out": len(out)}),
    "deproject_all": ("camera.deproject_all", lambda a, out: {"points_out": len(out)}),
    "passthrough": ("filters.passthrough", _points_in_out),
    "voxel_downsample": ("filters.voxel_downsample", _points_in_out),
    "statistical_outlier_removal": (
        "filters.statistical_outlier_removal",
        _points_in_out,
    ),
    "estimate_normals": ("filters.estimate_normals", lambda a, out: {"points_in": len(a[0])}),
    "coarse_register": (
        "registration.coarse_register",
        lambda a, out: {"score": out.score},
    ),
    "icp_refine": ("registration.icp_refine", None),
    "make_reference_face": ("correction.make_reference_face", None),
    "correct_pose": (
        "correction.correct_pose",
        lambda a, out: {
            "t_estimate_us": 1e6 * out[1].t_estimate,
            "t_correct_us": 1e6 * out[1].t_correct,
        },
    ),
}

# binding in cuboidpose.registration -> counter charged to the open span
COUNTERS = {"pairs_in_range": "pair_searches", "kabsch": "kabsch_calls"}


def _timed(tracer: Tracer, fn, name: str, sizes):
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
        if sizes is not None:
            sp.counts.update(sizes(args, out))
        return out

    return traced


def _counted(tracer: Tracer, fn, key: str):
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return counted


def _callers(attr: str):
    """Package modules that bind `attr` from another module."""
    for name, module in sorted(sys.modules.items()):
        if name.startswith("cuboidpose.") and module is not None:
            fn = vars(module).get(attr)
            if callable(fn) and getattr(fn, "__module__", name) != name:
                yield module


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the wrappers in for the duration of the block."""
    saved = []

    def swap(module, attr, wrapper):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    try:
        for attr, (name, sizes) in BOUNDARIES.items():
            for module in _callers(attr):
                swap(module, attr, lambda fn: _timed(tracer, fn, name, sizes))
        for attr, key in COUNTERS.items():
            swap(registration_module, attr, lambda fn: _counted(tracer, fn, key))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _self_ms(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval that children cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return 1000.0 * (span.end - span.start - covered)


def frame_table(tracer: Tracer, frame_spans: list[int]) -> list[dict]:
    """Per frame: self ms and summed counts of every span name and layer.

    Keys are "frame_ms", "bench.self_ms", "<layer>.ms", "<span name>.ms" and
    "<span name>.<count>".
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for idx, sp in enumerate(spans):
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(idx)

    def self_ms(idx: int) -> float:
        return _self_ms(spans[idx], [spans[k] for k in children.get(idx, [])])

    def visit(idx: int, row: dict) -> None:
        sp = spans[idx]
        own = self_ms(idx)
        for key in (f"{sp.name}.ms", f"{sp.layer}.ms"):
            row[key] = row.get(key, 0.0) + own
        for key, value in sp.counts.items():
            row[f"{sp.name}.{key}"] = row.get(f"{sp.name}.{key}", 0) + value
        for k in children.get(idx, []):
            visit(k, row)

    rows = []
    for idx in frame_spans:
        row = {"frame_ms": spans[idx].ms, "bench.self_ms": self_ms(idx)}
        for k in children.get(idx, []):
            visit(k, row)
        rows.append(row)
    return rows


def median_of(rows: list[dict], key: str, default=0.0) -> float:
    return statistics.median(r.get(key, default) for r in rows)
