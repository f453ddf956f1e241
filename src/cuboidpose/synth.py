"""Synthetic RGB-D scene rendering for a single posed cuboid face.

Rendering is analytic ray casting: each pixel ray is intersected with the
face plane and with any constant-depth background planes, with a z-buffer
deciding visibility. Depth noise is applied along the viewing ray, then
quantized to whole millimeters exactly as a 16-bit sensor would report it.

Only the face is ray cast, over its pixel box; the nearest background plane
is one depth and one colour for the whole frame. The RGB image is painted one
channel at a time, so no step broadcasts, masks or gathers over the 3-wide
colour axis. The depth image holds the face's box of noiseless depth and
builds meters only where read (`_RenderedDepth`): `deproject_mask` reads the
mask's box, and the frame is built only when `data` is first read. The
seeded noise stream is still drawn row-major through the last row read, since
its normals take a varying number of raw draws. So a 1280x720 bench render
peaks about 4 MB above the 3.7 MB of RGB and mask it returns. Its
full-frame cloud is back-projected only when its points are first read, which
only the tests do; the pipeline reads the images, and the benchmark tracer
the cloud's length, which builds the depth's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .camera import (
    CameraIntrinsics,
    DepthImage,
    MaskImage,
    _DeferredDepth,
    deproject_mask,
)
from .correction import CuboidSpec
from .errors import FaceOutOfView, InvalidSpec
from .geometry import PointCloud, Pose, rotation_z
from .segmentation import _shoelace

# Rows per block of the noise and quantization passes: a 1280-wide block of
# noise is 0.6 MB, about the size of a bench face's box of depth.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class BackgroundPlane:
    """Camera-facing plane at constant depth, filling the whole frame."""

    depth: float
    color: tuple[int, int, int] = (120, 120, 120)


@dataclass
class SceneSpec:
    """Everything needed to render one face observation."""

    cuboid: CuboidSpec
    gt_pose: Pose
    intrinsics: CameraIntrinsics
    noise_sigma: float = 0.0
    dropout: list[tuple[int, float]] = field(default_factory=list)
    background: list[BackgroundPlane] = field(default_factory=list)
    face_color: tuple[int, int, int] = (200, 40, 40)
    void_color: tuple[int, int, int] = (8, 8, 8)
    seed: int = 0


@dataclass
class GroundTruth:
    """Oracle outputs accompanying a rendered scene."""

    pose: Pose
    face_mask: MaskImage


def _validate(spec: SceneSpec) -> None:
    if not spec.noise_sigma >= 0:
        raise InvalidSpec("noise sigma must be non-negative")
    for corner, frac in spec.dropout:
        if corner not in (0, 1, 2, 3):
            raise InvalidSpec(f"dropout corner {corner} not in 0..3")
        if not (0.0 <= frac < 0.3):
            raise InvalidSpec("dropout radius fraction must lie in [0, 0.3)")
    for bp in spec.background:
        if not bp.depth > 0:
            raise InvalidSpec("background plane depth must be positive")
    if spec.gt_pose.t[2] <= 0.3:
        raise InvalidSpec("face must sit at Z > 0.3 m")
    spec.gt_pose.validate()


def _local_corners(cub: CuboidSpec) -> np.ndarray:
    w2, h2 = cub.width / 2.0, cub.height / 2.0
    return np.array(
        [[-w2, -h2, 0.0], [w2, -h2, 0.0], [w2, h2, 0.0], [-w2, h2, 0.0]]
    )


def _paint(rgb: np.ndarray, color, where: np.ndarray | None = None) -> None:
    """Write `color` into the (h, w, 3) image, everywhere or where `where`
    holds.

    Everywhere, the colour goes into row 0 and that row is then copied over
    the others (`rgb[1:] = rgb[0]`), whole rows of contiguous bytes: the
    same bytes as a per-channel fill, at about a seventh of its time on a
    1280x720 frame. Where `where` holds, it is written one channel at a time,
    which avoids broadcasting a colour tuple over the 3-wide channel axis.
    """
    color = np.asarray(color, dtype=np.uint8).reshape(3)
    if where is None:
        rgb[0] = color
        rgb[1:] = rgb[0]
        return
    for c in range(3):
        np.copyto(rgb[..., c], color[c], where=where)


def _draw_face(
    spec: SceneSpec, depth: np.ndarray, mask: np.ndarray, rgb: np.ndarray, box
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-cast the face over its pixel `box` (a pair of row and column
    slices) and z-buffer it into `depth`, the box's background depth, marking
    the pixels it wins with 255 in `mask` and painting them in `rgb`.

    Returns the face-frame coordinates `lx`, `ly` of every box pixel's ray hit
    and the pixels the face won; the other box-sized intermediates die here.

    The ray directions are a row vector of columns and a column vector of rows
    that broadcast over the box. Each hit coordinate is summed term by term
    into its own buffer, with one scratch buffer for the terms, which are
    recomputed rather than kept: every pixel's hit (x, y, z) = z (dir_x,
    dir_y, 1) gets the arithmetic of `lx = (x - tx) r00 + (y - ty) r10 +
    (z - tz) r20` (and `ly` alike), while only four box-sized float arrays
    live at once.
    """
    intr, pose = spec.intrinsics, spec.gt_pose
    rows, cols = box
    dir_x = ((np.arange(cols.start, cols.stop) - intr.cx) / intr.fx)[None, :]
    dir_y = ((np.arange(rows.start, rows.stop) - intr.cy) / intr.fy)[:, None]
    normal = pose.r[:, 2]
    offset = float(pose.t @ normal)
    z = dir_x * normal[0] + dir_y * normal[1]
    z += normal[2]
    safe = (z > 1e-9) | (z < -1e-9)
    z[~safe] = 1.0
    np.divide(offset, z, out=z)
    z[~safe] = -1.0

    term = np.empty_like(z)
    lx, ly = dir_x * z, dir_x * z
    for col, out in enumerate((lx, ly)):
        out -= pose.t[0]
        out *= pose.r[0, col]
        np.multiply(dir_y, z, out=term)
        term -= pose.t[1]
        term *= pose.r[1, col]
        out += term
        np.subtract(z, pose.t[2], out=term)
        term *= pose.r[2, col]
        out += term
    inside = safe & (z > 1e-6)
    inside &= np.abs(lx, out=term) <= spec.cuboid.width / 2.0
    inside &= np.abs(ly, out=term) <= spec.cuboid.height / 2.0
    wins = inside & ((depth == 0) | (z < depth))
    np.copyto(depth, z, where=wins)
    np.copyto(mask[box], 255, where=wins)
    _paint(rgb[box], spec.face_color, wins)
    return lx, ly, wins


def _cut_dropout(spec: SceneSpec, block: np.ndarray, lx, ly, wins) -> None:
    """Zero the face's depth inside each dropout disk around a corner; the
    paint stays, as on a sensor that loses the return but not the colour."""
    corners_local = _local_corners(spec.cuboid)
    diag = spec.cuboid.diagonal
    for corner, frac in spec.dropout:
        radius = frac * diag
        cx_l, cy_l = corners_local[corner, 0], corners_local[corner, 1]
        hole = wins & ((lx - cx_l) ** 2 + (ly - cy_l) ** 2 <= radius * radius)
        block[hole] = 0.0


def _quantize(rows: np.ndarray) -> None:
    """Whole millimeters, then meters again, in place; a value that rounds
    below 1 mm (a negative sum of depth and noise included) or above the
    16-bit range reads 0."""
    rows *= 1000.0
    np.rint(rows, out=rows)
    rows[(rows < 1) | (rows > 65535)] = 0
    rows /= 1000.0


class _RenderedDepth(_DeferredDepth):
    """The rendered depth image. It holds the nearest background plane's
    depth `far` (0.0 without a plane), the face's `box` of noiseless depth
    (`face`: the face z-buffered against `far`, dropout holes cut) and the
    spec's noise seed and sigma.

    A box is built from `far` with the face box pasted where they overlap.
    The noise generator fills row-major, so the stream is drawn in blocks of
    `_BLOCK_ROWS` rows from the frame's first row through the box's last, and
    each block's values are those of one (h, w) draw. Only the box's part of
    each block is scaled and added, where the depth is positive (depth is
    never negative before the noise, so this matches np.where(depth > 0,
    depth + noise, 0.0) bit for bit), and only the box is quantized. Each
    element gets the arithmetic a full-frame pass gives it, so every box is
    bit-identical to that frame's. The full frame is the box over the whole
    image, after which the face box is dropped. `_validate` rejects a NaN
    plane depth or noise sigma, so the values are finite and non-negative.
    """

    def __init__(self, shape, far: float, box, face: np.ndarray, seed, sigma: float):
        super().__init__(shape)
        self._far, self._box, self._face = far, box, face
        self._seed, self._sigma = seed, sigma

    def _block(self, box: tuple[slice, slice]) -> np.ndarray:
        (r0, r1, r_step), (c0, c1, c_step) = (
            s.indices(n) for s, n in zip(box, self._shape)
        )
        if r_step != 1 or c_step != 1:
            return self.data[box]
        r1, c1 = max(r0, r1), max(c0, c1)
        out = np.full((r1 - r0, c1 - c0), self._far)
        face_rows, face_cols = self._box
        lo_r, hi_r = max(r0, face_rows.start), min(r1, face_rows.stop)
        lo_c, hi_c = max(c0, face_cols.start), min(c1, face_cols.stop)
        if lo_r < hi_r and lo_c < hi_c:
            out[lo_r - r0 : hi_r - r0, lo_c - c0 : hi_c - c0] = self._face[
                lo_r - face_rows.start : hi_r - face_rows.start,
                lo_c - face_cols.start : hi_c - face_cols.start,
            ]
        if self._sigma > 0:
            rng = np.random.default_rng(self._seed)
            noise = np.empty((min(_BLOCK_ROWS, r1), self._shape[1]))
            for b0 in range(0, r1, _BLOCK_ROWS):
                b1 = min(b0 + _BLOCK_ROWS, r1)
                drawn = noise[: b1 - b0]
                rng.standard_normal(out=drawn)
                lo = max(b0, r0)
                if lo < b1:
                    part = drawn[lo - b0 :, c0:c1]
                    part *= self._sigma
                    rows = out[lo - r0 : b1 - r0]
                    np.add(rows, part, out=rows, where=rows > 0)
        for b0 in range(0, len(out), _BLOCK_ROWS):
            _quantize(out[b0 : b0 + _BLOCK_ROWS])
        return out

    def _frame(self) -> np.ndarray:
        frame = self._block((slice(None), slice(None)))
        self._face = None
        return frame


class _DeferredCloud(PointCloud):
    """Every pixel with depth, back-projected in row-major order by
    `deproject_mask` on the first read of `points`, from the depth image as it
    stands then; its length is counted without back-projecting anything."""

    def __init__(self, intr: CameraIntrinsics, depth: DepthImage):
        self._intr, self._depth = intr, depth

    @cached_property
    def points(self) -> np.ndarray:
        valid = MaskImage(self._depth.data > 0)
        return deproject_mask(self._intr, self._depth, valid).points

    def __len__(self) -> int:
        return int(np.count_nonzero(self._depth.data))


def render_scene(
    spec: SceneSpec,
) -> tuple[np.ndarray, DepthImage, MaskImage, PointCloud, GroundTruth]:
    """Render RGB, depth and face mask, with a cloud of every pixel with depth
    whose points are back-projected from the returned depth image, as it then
    stands, when they are first read.

    The nearest background plane (the first of the nearest, when several lie
    at one depth) fills the frame with one depth and colour, or the void
    colour shows when there is none; the face is z-buffered over it in its
    pixel box. The depth image keeps no full frame: it adds the noise and
    quantizes only the box that is read (`_RenderedDepth`), and builds the
    frame when `data` is first read. Only the benchmark tracer (the cloud's
    length) and the tests read the cloud or `data`; no pipeline stage does.

    Raises FaceOutOfView when less than half of the face projects into frame.
    """
    _validate(spec)
    intr = spec.intrinsics
    h, w = intr.height, intr.width
    mask = np.zeros((h, w), dtype=np.uint8)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    nearest = min(spec.background, key=lambda bp: bp.depth, default=None)
    if nearest is None:
        far = 0.0
        _paint(rgb, spec.void_color)
    else:
        far = float(nearest.depth)
        _paint(rgb, nearest.color)

    pose = spec.gt_pose
    corners_cam = pose.transform(_local_corners(spec.cuboid))
    if np.any(corners_cam[:, 2] <= 1e-6):
        raise FaceOutOfView("a face corner is behind the camera")
    px = np.column_stack(
        [
            intr.fx * corners_cam[:, 0] / corners_cam[:, 2] + intr.cx,
            intr.fy * corners_cam[:, 1] / corners_cam[:, 2] + intr.cy,
        ]
    )
    analytic_area = abs(_shoelace(px))

    x0 = max(0, int(np.floor(px[:, 0].min())))
    x1 = min(w - 1, int(np.ceil(px[:, 0].max())))
    y0 = max(0, int(np.floor(px[:, 1].min())))
    y1 = min(h - 1, int(np.ceil(px[:, 1].max())))
    box = (slice(y0, y1 + 1), slice(x0, x1 + 1))
    face = np.full((max(y1 + 1 - y0, 0), max(x1 + 1 - x0, 0)), far)
    if face.size:
        # Holes are cut before the noise: the noise skips zero depth and its
        # draw still covers every pixel, so this matches cutting them after.
        # The box-sized hits die with this statement.
        _cut_dropout(spec, face, *_draw_face(spec, face, mask, rgb, box))

    mask_img = MaskImage(mask)
    face_px = mask_img.count()
    if face_px / max(analytic_area, 1.0) < 0.5:
        raise FaceOutOfView(
            f"only {face_px} of ~{analytic_area:.0f} face pixels in frame"
        )

    depth_img = _RenderedDepth((h, w), far, box, face, spec.seed, spec.noise_sigma)
    gt = GroundTruth(pose=pose, face_mask=mask_img)
    return rgb, depth_img, mask_img, _DeferredCloud(intr, depth_img), gt


def inject_pose_error(gt_pose: Pose, yaw_deg: float, dt_cam) -> Pose:
    """Pose that differs from `gt_pose` by exactly `yaw_deg` about the face
    normal and `dt_cam` (meters, camera frame) in translation."""
    dt = np.asarray(dt_cam, dtype=np.float64).reshape(3)
    local_shift = gt_pose.r.T @ dt
    return gt_pose.compose(Pose(rotation_z(np.radians(yaw_deg)), local_shift))
