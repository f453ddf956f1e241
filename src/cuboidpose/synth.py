"""Synthetic RGB-D scene rendering for a single posed cuboid face.

Rendering is analytic ray casting: each pixel ray is intersected with the
face plane and with any constant-depth background planes, with a z-buffer
deciding visibility. Depth noise is applied along the viewing ray, then
quantized to whole millimeters exactly as a 16-bit sensor would report it.

Full-frame work runs on the pixel axis: colours are painted one channel at a
time, so no step broadcasts, masks or gathers over the 3-wide colour axis.
The noise and the quantization go one block of rows at a time, in place, and
the face's ray casting keeps four float arrays the size of the face's pixel
box; so a 1280x720 bench render peaks about 3 MB above the 11 MB it returns.
Its full-frame cloud is back-projected only when its points are first read,
which only the tests do; the pipeline reads the images, and the benchmark
tracer the cloud's length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .camera import CameraIntrinsics, DepthImage, MaskImage, deproject_mask
from .correction import CuboidSpec
from .errors import FaceOutOfView, InvalidSpec
from .geometry import PointCloud, Pose, rotation_z

# Rows per block of the noise and quantization passes: a 1280-wide block of
# noise is 0.6 MB, small next to the 11 MB a scene returns.
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
    if spec.noise_sigma < 0:
        raise InvalidSpec("noise sigma must be non-negative")
    for corner, frac in spec.dropout:
        if corner not in (0, 1, 2, 3):
            raise InvalidSpec(f"dropout corner {corner} not in 0..3")
        if not (0.0 <= frac < 0.3):
            raise InvalidSpec("dropout radius fraction must lie in [0, 0.3)")
    for bp in spec.background:
        if bp.depth <= 0:
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
    holds, one channel at a time: per-channel writes avoid broadcasting a
    colour tuple over the 3-wide channel axis."""
    color = np.asarray(color, dtype=np.uint8).reshape(3)
    for c in range(3):
        if where is None:
            rgb[..., c] = color[c]
        else:
            np.copyto(rgb[..., c], color[c], where=where)


def _draw_background(spec: SceneSpec, depth: np.ndarray, rgb: np.ndarray) -> None:
    """Z-buffer every background plane into the frame; the nearest one wins
    whatever the drawing order."""
    for bp in spec.background:
        closer = (depth == 0) | (bp.depth < depth)
        np.copyto(depth, bp.depth, where=closer)
        _paint(rgb, bp.color, closer)


def _draw_face(
    spec: SceneSpec, depth: np.ndarray, mask: np.ndarray, rgb: np.ndarray, box
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-cast the face over its pixel `box` (a pair of row and column
    slices) and z-buffer it into `depth` and `rgb`, marking the pixels it
    wins with 255 in `mask`. It is drawn after every background plane.

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
    block = depth[box]
    wins = inside & ((block == 0) | (z < block))
    np.copyto(block, z, where=wins)
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


def _noise_and_quantize(spec: SceneSpec, depth: np.ndarray) -> None:
    """Add the seeded depth noise and quantize to whole millimeters, in place,
    one block of rows at a time.

    The generator fills row-major, so the blocks hold exactly the values of
    one (h, w) draw. Depth is never negative before the noise, so adding only
    where it is positive matches np.where(depth > 0, depth + noise, 0.0) bit
    for bit. A sum below zero rounds to at most -0.0 millimeters and is zeroed
    with the other out-of-range values.
    """
    rng = np.random.default_rng(spec.seed)
    noise = np.empty((min(_BLOCK_ROWS, len(depth)), depth.shape[1]))
    for r0 in range(0, len(depth), _BLOCK_ROWS):
        rows = depth[r0 : r0 + _BLOCK_ROWS]
        if spec.noise_sigma > 0:
            block_noise = noise[: len(rows)]
            rng.standard_normal(out=block_noise)
            block_noise *= spec.noise_sigma
            np.add(rows, block_noise, out=rows, where=rows > 0)
        # whole millimeters, then meters again
        rows *= 1000.0
        np.rint(rows, out=rows)
        rows[(rows < 1) | (rows > 65535)] = 0
        rows /= 1000.0


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

    Colours are painted per channel, and the noise and the quantization run
    in place over blocks of `_BLOCK_ROWS` rows, so no frame-sized float
    temporary is held. Only the benchmark tracer (the cloud's length) and the
    tests read the cloud; no pipeline stage does.

    Raises FaceOutOfView when less than half of the face projects into frame.
    """
    _validate(spec)
    intr = spec.intrinsics
    h, w = intr.height, intr.width
    depth = np.zeros((h, w))
    mask = np.zeros((h, w), dtype=np.uint8)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    _paint(rgb, spec.void_color)
    _draw_background(spec, depth, rgb)

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
    analytic_area = 0.5 * abs(
        float(
            np.sum(px[:, 0] * np.roll(px[:, 1], -1) - np.roll(px[:, 0], -1) * px[:, 1])
        )
    )

    x0 = max(0, int(np.floor(px[:, 0].min())))
    x1 = min(w - 1, int(np.ceil(px[:, 0].max())))
    y0 = max(0, int(np.floor(px[:, 1].min())))
    y1 = min(h - 1, int(np.ceil(px[:, 1].max())))
    if x0 <= x1 and y0 <= y1:
        box = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        # Holes are cut before the noise: the noise skips zero depth and its
        # draw still covers every pixel, so this matches cutting them after.
        # The box-sized hits die with this statement.
        _cut_dropout(spec, depth[box], *_draw_face(spec, depth, mask, rgb, box))

    mask_img = MaskImage(mask)
    face_px = mask_img.count()
    if face_px / max(analytic_area, 1.0) < 0.5:
        raise FaceOutOfView(
            f"only {face_px} of ~{analytic_area:.0f} face pixels in frame"
        )

    _noise_and_quantize(spec, depth)
    depth_img = DepthImage(depth)
    gt = GroundTruth(pose=pose, face_mask=mask_img)
    return rgb, depth_img, mask_img, _DeferredCloud(intr, depth_img), gt


def inject_pose_error(gt_pose: Pose, yaw_deg: float, dt_cam) -> Pose:
    """Pose that differs from `gt_pose` by exactly `yaw_deg` about the face
    normal and `dt_cam` (meters, camera frame) in translation."""
    dt = np.asarray(dt_cam, dtype=np.float64).reshape(3)
    local_shift = gt_pose.r.T @ dt
    return gt_pose.compose(Pose(rotation_z(np.radians(yaw_deg)), local_shift))
