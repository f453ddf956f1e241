"""Synthetic RGB-D scene rendering for a single posed cuboid face.

Rendering is analytic ray casting: each pixel ray is intersected with the
face plane and with any constant-depth background planes, with a z-buffer
deciding visibility. Depth noise is applied along the viewing ray, then
quantized to whole millimeters exactly as a 16-bit sensor would report it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics, DepthImage, MaskImage, back_project
from .correction import CuboidSpec
from .errors import FaceOutOfView, InvalidSpec
from .geometry import PointCloud, Pose, rotation_z

LABEL_FACE = 0
LABEL_BACKGROUND = 1


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
    labels: np.ndarray  # per point of the rendered cloud

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8).reshape(-1)


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


def render_scene(
    spec: SceneSpec,
) -> tuple[np.ndarray, DepthImage, MaskImage, PointCloud, GroundTruth]:
    """Render RGB, depth and face mask; deproject the full depth image into a
    labeled point cloud.

    Raises FaceOutOfView when less than half of the face projects into frame.
    """
    _validate(spec)
    intr = spec.intrinsics
    h, w = intr.height, intr.width
    depth = np.zeros((h, w))
    surface = np.full((h, w), -1, dtype=np.int8)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:] = spec.void_color

    for bp in spec.background:
        closer = (depth == 0) | (bp.depth < depth)
        depth[closer] = bp.depth
        surface[closer] = LABEL_BACKGROUND
        np.copyto(rgb, np.array(bp.color, dtype=np.uint8), where=closer[..., None])

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
    face_lx = face_ly = None
    if x0 <= x1 and y0 <= y1:
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        gx, gy = np.meshgrid(xs, ys)
        dir_x = (gx - intr.cx) / intr.fx
        dir_y = (gy - intr.cy) / intr.fy
        normal = pose.r[:, 2]
        offset = float(pose.t @ normal)
        denom = dir_x * normal[0] + dir_y * normal[1] + normal[2]
        safe = np.abs(denom) > 1e-9
        z = np.where(safe, offset / np.where(safe, denom, 1.0), -1.0)
        p_x = dir_x * z
        p_y = dir_y * z
        rel_x = p_x - pose.t[0]
        rel_y = p_y - pose.t[1]
        rel_z = z - pose.t[2]
        lx = rel_x * pose.r[0, 0] + rel_y * pose.r[1, 0] + rel_z * pose.r[2, 0]
        ly = rel_x * pose.r[0, 1] + rel_y * pose.r[1, 1] + rel_z * pose.r[2, 1]
        inside = (
            safe
            & (z > 1e-6)
            & (np.abs(lx) <= spec.cuboid.width / 2.0)
            & (np.abs(ly) <= spec.cuboid.height / 2.0)
        )
        block = depth[y0 : y1 + 1, x0 : x1 + 1]
        wins = inside & ((block == 0) | (z < block))
        block[wins] = z[wins]
        surface[y0 : y1 + 1, x0 : x1 + 1][wins] = LABEL_FACE
        rgb[y0 : y1 + 1, x0 : x1 + 1][wins] = spec.face_color
        face_lx, face_ly, face_wins = lx, ly, wins

    face_mask = surface == LABEL_FACE
    coverage_base = max(analytic_area, 1.0)
    if face_mask.sum() / coverage_base < 0.5:
        raise FaceOutOfView(
            f"only {face_mask.sum()} of ~{analytic_area:.0f} face pixels in frame"
        )

    rng = np.random.default_rng(spec.seed)
    if spec.noise_sigma > 0:
        noise = rng.standard_normal((h, w)) * spec.noise_sigma
        depth = np.where(depth > 0, depth + noise, 0.0)
        depth[depth < 0] = 0.0

    if spec.dropout and face_lx is not None:
        corners_local = _local_corners(spec.cuboid)
        diag = spec.cuboid.diagonal
        block = depth[y0 : y1 + 1, x0 : x1 + 1]
        for corner, frac in spec.dropout:
            radius = frac * diag
            cx_l, cy_l = corners_local[corner, 0], corners_local[corner, 1]
            hole = (
                face_wins
                & ((face_lx - cx_l) ** 2 + (face_ly - cy_l) ** 2 <= radius * radius)
            )
            block[hole] = 0.0

    mm = np.rint(depth * 1000.0)
    mm[(mm < 1) | (mm > 65535)] = 0
    depth_q = mm / 1000.0

    depth_img = DepthImage(depth_q)
    mask_img = MaskImage(np.where(face_mask, 255, 0).astype(np.uint8))

    vy, vx = np.nonzero(depth_q > 0)
    pts = back_project(intr, vx, vy, depth_q[vy, vx])
    cloud = PointCloud(pts, colors=rgb[vy, vx])
    labels = surface[vy, vx]
    gt = GroundTruth(pose=pose, face_mask=mask_img, labels=labels)
    return rgb, depth_img, mask_img, cloud, gt


def inject_pose_error(gt_pose: Pose, yaw_deg: float, dt_cam) -> Pose:
    """Pose that differs from `gt_pose` by exactly `yaw_deg` about the face
    normal and `dt_cam` (meters, camera frame) in translation."""
    dt = np.asarray(dt_cam, dtype=np.float64).reshape(3)
    local_shift = gt_pose.r.T @ dt
    return gt_pose.compose(Pose(rotation_z(np.radians(yaw_deg)), local_shift))
