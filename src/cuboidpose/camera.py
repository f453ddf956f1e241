"""Pinhole camera model: projection, inverse projection, depth image handling.

Depth images give meters as float64 with 0 marking invalid pixels; they are
quantized to whole millimeters when written to disk. Loaded and rendered
depth images defer their meters (`_DeferredDepth`): each holds one function
`meters(box)`, and builds only what is read, the box `deproject_mask` reads
through `DepthImage.block` or, on the first read of `data`, the box over the
whole image. For an image loaded from disk (`io.load_pgm16`) that function
converts the file's millimeters; for a rendered one (`synth.render_scene`)
it pastes the face's box of noiseless depth, draws the noise and quantizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass
class DepthImage:
    """Per-pixel depth in meters, shape (height, width); 0 means no return.

    Values must be finite and non-negative, checked with one min and one max
    reduction: NaN propagates through the min, and an infinite value makes
    the max infinite. `io.load_pgm16` and `synth.render_scene` return a
    `_DeferredDepth`, which builds `data` on its first read.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("depth data must be 2D")
        d = self.data
        if not (d.min(initial=0.0) >= 0.0 and np.isfinite(d.max(initial=0.0))):
            raise ValueError("depth values must be finite and non-negative")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def block(self, box: tuple[slice, slice]) -> np.ndarray:
        """Depth in meters over a (rows, cols) slice pair, such as `pixel_box`
        gives."""
        return self.data[box]


class _DeferredDepth(DepthImage):
    """A depth image that builds float64 meters only where they are read.
    `meters(box)` gives the meters of a (rows, cols) box of unit-step slices;
    `block` calls it, and the first read of `data` calls it on the whole image
    and keeps the frame, after which `meters` is dropped. So every box agrees
    with the frame by construction. A built frame, or a box with a step other
    than 1, is read by slicing `data`, so writes to the frame reach later
    reads. Width and height come from the stored shape, so reading them builds
    nothing, and no `DepthImage` check runs: `meters` must give finite,
    non-negative values."""

    def __init__(self, shape: tuple[int, int], meters):
        self._shape, self._meters = shape, meters

    @cached_property
    def data(self) -> np.ndarray:
        frame = self._meters((slice(0, self._shape[0]), slice(0, self._shape[1])))
        self._meters = None
        return frame

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]

    def block(self, box: tuple[slice, slice]) -> np.ndarray:
        # a built frame may have been written to
        if "data" in self.__dict__ or any(s.step not in (None, 1) for s in box):
            return self.data[box]
        return self._meters(box)


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


class _Component(MaskImage):
    """A mask holding one 8-connected component, as
    `segmentation.largest_component` returns it, with that component's own
    bounding box (`box`, row and column slices) and pixel count (returned by
    `count`), so neither `fit_quadrilateral` nor `deproject_mask` labels or
    scans the full frame again. Its array is read-only, so the carried box and
    count cannot go stale."""

    def __init__(self, data: np.ndarray, box: tuple[slice, slice], count: int):
        super().__init__(data)
        self.data.flags.writeable = False
        self.box = box
        self._count = count

    def count(self) -> int:
        return self._count


def _check_dims(intr: CameraIntrinsics, img) -> None:
    if img.width != intr.width or img.height != intr.height:
        raise DimensionMismatch(
            f"image {img.width}x{img.height} does not match intrinsics "
            f"{intr.width}x{intr.height}"
        )


def pixel_box(image: np.ndarray) -> tuple[slice, slice] | None:
    """Row and column slices of the bounding box of an image's nonzero
    pixels, or None when there are none."""
    rows = np.flatnonzero(image.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(image.any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


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
    """Point cloud of every masked pixel with valid depth, row-major pixel order.

    The pixel test, the scan and the depth gather run on the mask's bounding
    box only, with the box's offset added back to the pixel coordinates; the
    box's row-major order is the full frame's, so the points are those of a
    full-frame scan, bit for bit. The box's depth is read with
    `DepthImage.block`, so an image loaded from disk converts only that box
    to meters. A component from `segmentation.largest_component` carries its
    box, which is read instead of scanning the full mask for it. An empty
    mask gives a (0, 3) cloud.
    """
    _check_dims(intr, depth)
    _check_dims(intr, mask)
    box = mask.box if isinstance(mask, _Component) else pixel_box(mask.data)
    if box is None:
        return PointCloud(np.empty((0, 3)))
    rows, cols = box
    block = depth.block(box)
    ys, xs = np.nonzero((mask.data[box] != 0) & (block > 0))
    return PointCloud(back_project(intr, xs + cols.start, ys + rows.start, block[ys, xs]))

