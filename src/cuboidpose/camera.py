"""Pinhole camera model: projection, inverse projection, depth image handling.

Depth images store meters as float64 with 0 marking invalid pixels; they are
quantized to whole millimeters when written to disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DimensionMismatch, InvalidDepth, OutOfBounds
from .geometry import PointCloud


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths and principal point in pixels, plus image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


@dataclass
class DepthImage:
    """Per-pixel depth in meters, shape (height, width); 0 means no return."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("depth data must be 2D")
        if np.any(~np.isfinite(self.data)) or np.any(self.data < 0):
            raise ValueError("depth values must be finite and non-negative")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass
class MaskImage:
    """Binary image, nonzero marks region of interest."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2:
            raise ValueError("mask data must be 2D")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def count(self) -> int:
        return int(np.count_nonzero(self.data))


def _check_dims(intr: CameraIntrinsics, img) -> None:
    if img.width != intr.width or img.height != intr.height:
        raise DimensionMismatch(
            f"image {img.width}x{img.height} does not match intrinsics "
            f"{intr.width}x{intr.height}"
        )


def back_project(intr: CameraIntrinsics, x, y, z) -> np.ndarray:
    """Camera-frame points for pixel coordinates and depths, shape
    `np.shape(z) + (3,)`; scalars give one point, arrays one per element."""
    pts = np.empty(np.shape(z) + (3,))
    pts[..., 0] = (x - intr.cx) * z / intr.fx
    pts[..., 1] = (y - intr.cy) * z / intr.fy
    pts[..., 2] = z
    return pts


def inverse_project(intr: CameraIntrinsics, depth: DepthImage, pixel) -> np.ndarray:
    """3D point (meters, camera frame) for an integer pixel (x, y).

    Raises OutOfBounds outside the image and InvalidDepth on a zero depth.
    """
    _check_dims(intr, depth)
    x, y = int(pixel[0]), int(pixel[1])
    if not (0 <= x < intr.width and 0 <= y < intr.height):
        raise OutOfBounds(f"pixel ({x}, {y}) outside {intr.width}x{intr.height}")
    z = float(depth.data[y, x])
    if z <= 0.0:
        raise InvalidDepth(f"no depth at pixel ({x}, {y})")
    return back_project(intr, x, y, z)


def project(intr: CameraIntrinsics, point) -> tuple[tuple[float, float], float]:
    """Continuous pixel coordinates and depth for a camera-frame 3D point.

    The pixel may fall outside the image; only Z <= 0 is an error.
    """
    p = np.asarray(point, dtype=np.float64).reshape(3)
    if p[2] <= 0.0:
        raise BehindCamera(f"point depth {p[2]!r} is not positive")
    x = intr.fx * p[0] / p[2] + intr.cx
    y = intr.fy * p[1] / p[2] + intr.cy
    return (float(x), float(y)), float(p[2])


def deproject_mask(intr: CameraIntrinsics, depth: DepthImage, mask: MaskImage) -> PointCloud:
    """Point cloud of every masked pixel with valid depth, row-major pixel order."""
    _check_dims(intr, depth)
    _check_dims(intr, mask)
    ys, xs = np.nonzero((mask.data != 0) & (depth.data > 0))
    return PointCloud(back_project(intr, xs, ys, depth.data[ys, xs]))


def sample_depth_window(depth: DepthImage, pixel, window: int = 5) -> float:
    """Depth estimate around a pixel, robust to holes and sensor noise.

    Collects valid depths inside a `window` x `window` box clipped to the
    image. The value nearest the box center anchors a consensus band of
    +-25 mm; the mean of in-band values is returned. Raises InvalidDepth when
    the box holds no valid depth.
    """
    x, y = int(round(pixel[0])), int(round(pixel[1]))
    h, w = depth.data.shape
    half = window // 2
    x0, x1 = max(0, x - half), min(w, x + half + 1)
    y0, y1 = max(0, y - half), min(h, y + half + 1)
    if x0 >= x1 or y0 >= y1:
        raise InvalidDepth(f"window around ({x}, {y}) is outside the image")
    block = depth.data[y0:y1, x0:x1]
    yy, xx = np.nonzero(block > 0)
    if len(yy) == 0:
        raise InvalidDepth(f"no valid depth near pixel ({x}, {y})")
    # anchor on the valid value closest to the center, ties by row then column
    d2 = (yy + y0 - y) ** 2 + (xx + x0 - x) ** 2
    order = np.lexsort((xx, yy, d2))
    anchor = block[yy[order[0]], xx[order[0]]]
    vals = block[yy, xx]
    vals = vals[np.abs(vals - anchor) <= 0.025]
    return float(vals.mean())
