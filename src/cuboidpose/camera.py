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

