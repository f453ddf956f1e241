"""Constant-time pose error estimation and linear-time pose correction.

Once a start pose places a synthetic reference grid roughly on the measured
face, the remaining error is dominated by an in-plane rotation (yaw about the
face normal) and a translation. The start pose is the paper's coarse
registration (`registration.coarse_register`) or, in `bench.run_pipeline`, the
pose measured from the face plane, with the coarse registration as its
fallback. The correction keeps the start pose's face normal, face side and 90
degree yaw fold, and recovers the yaw and translation from two point pairs:

* two measured points spanning the face along its long direction, the 3D
  midpoints of the outline's short edges where their corners' pixel rays meet
  the measured face plane (`segmentation.target_axis_points`), and
* the matching pair on the posed reference grid (`reference_axis_points`).

The yaw error is the signed in-plane angle between the two segments; the
translation error is the offset between the measured segment midpoint and the
corrected grid center. Applying both corrections touches a fixed number of
values, so the estimate is O(1); re-transforming the reference cloud with the
final pose is the only O(n) step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, DegenerateSegment, InvalidSpec
from .geometry import (
    PointCloud,
    Pose,
    apply_transform,
    rotation_z,
    signed_angle_in_plane,
)


@dataclass(frozen=True)
class CuboidSpec:
    """Face dimensions in meters; width >= height >= depth > 0."""

    width: float
    height: float
    depth: float

    def __post_init__(self):
        if not (self.width >= self.height >= self.depth > 0):
            raise ValueError("dimensions must satisfy width >= height >= depth > 0")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)


@dataclass
class ReferenceFace:
    """Planar rectangle grid standing in for the expected face.

    The grid lies in its local xy plane (z = 0), centered on the origin, with
    the long side along local x.
    """

    cloud: PointCloud
    spec: CuboidSpec
    pitch: float


@dataclass
class CorrectionReport:
    """What the correction did and how long each phase took (seconds)."""

    yaw_error_deg: float
    translation_error_mm: np.ndarray
    t_estimate: float
    t_correct: float

    def __post_init__(self):
        self.translation_error_mm = np.asarray(
            self.translation_error_mm, dtype=np.float64
        ).reshape(3)


def make_reference_face(spec: CuboidSpec, pitch: float) -> ReferenceFace:
    """Uniform grid covering the face rectangle.

    Point count is (floor(width/pitch) + 1) * (floor(height/pitch) + 1); the
    grid spans the full rectangle symmetrically so its centroid is the origin.
    """
    if not pitch > 0:
        raise InvalidSpec("grid pitch must be positive")
    if pitch >= min(spec.width, spec.height) / 4.0:
        raise InvalidSpec(
            f"pitch {pitch} too coarse for a {spec.width}x{spec.height} face"
        )
    nx = int(math.floor(spec.width / pitch)) + 1
    ny = int(math.floor(spec.height / pitch)) + 1
    xs = np.linspace(-spec.width / 2.0, spec.width / 2.0, nx)
    ys = np.linspace(-spec.height / 2.0, spec.height / 2.0, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    return ReferenceFace(PointCloud(pts), spec, pitch)


def reference_axis_points(ref: ReferenceFace, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Grid center and a point a quarter width along the grid's long axis,
    both mapped through `pose` into the camera frame."""
    origin = pose.transform(np.zeros(3))
    along = pose.transform(np.array([ref.spec.width / 4.0, 0.0, 0.0]))
    return origin, along


def estimate_yaw_error(
    target_a: np.ndarray,
    target_b: np.ndarray,
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    face_normal: np.ndarray,
) -> float:
    """Signed in-plane angle (radians) rotating the reference segment onto the
    target segment about `face_normal`, normalized into (-90, 90] degrees.

    The normalization folds out the 180 degree ambiguity of a rectangle's long
    axis. Raises DegenerateSegment when either segment is too short or lies
    along the normal.
    """
    ref_d = np.asarray(ref_b, dtype=np.float64) - np.asarray(ref_a, dtype=np.float64)
    tgt_d = np.asarray(target_b, dtype=np.float64) - np.asarray(target_a, dtype=np.float64)
    if np.linalg.norm(ref_d) <= 1e-9 or np.linalg.norm(tgt_d) <= 1e-9:
        raise DegenerateSegment("axis segment has near-zero length")
    try:
        ang = signed_angle_in_plane(ref_d, tgt_d, face_normal)
    except DegenerateDirection as exc:
        raise DegenerateSegment(str(exc)) from exc
    while ang > math.pi / 2.0:
        ang -= math.pi
    while ang <= -math.pi / 2.0:
        ang += math.pi
    return ang


def estimate_translation_error(
    target_a: np.ndarray,
    target_b: np.ndarray,
    ref: ReferenceFace,
    pose: Pose,
) -> np.ndarray:
    """Camera-frame offset from the posed grid center to the measured segment
    midpoint. Applying it as a translation makes the centers coincide."""
    measured_center = (
        np.asarray(target_a, dtype=np.float64) + np.asarray(target_b, dtype=np.float64)
    ) / 2.0
    grid_center = pose.transform(np.zeros(3))
    return measured_center - grid_center


def correct_pose(
    pose: Pose,
    ref: ReferenceFace,
    target_a: np.ndarray,
    target_b: np.ndarray,
) -> tuple[Pose, CorrectionReport]:
    """Two-step pose correction: yaw about the face normal, then translation.

    The yaw is measured about the pose's local z axis (the grid's normal) and
    composed on that axis, after which the translation offset is converted
    into the corrected local frame
    and composed as well, yielding a single final pose. The reference cloud is
    re-transformed with that pose, which is the linear-time portion reported
    in `t_correct`.
    """
    t0 = time.perf_counter()
    ref_a, ref_b = reference_axis_points(ref, pose)
    yaw = estimate_yaw_error(target_a, target_b, ref_a, ref_b, pose.r[:, 2])
    pose_rot = pose.compose(Pose(rotation_z(yaw), np.zeros(3)))
    dt_cam = estimate_translation_error(target_a, target_b, ref, pose_rot)
    t_estimate = time.perf_counter() - t0

    t1 = time.perf_counter()
    dt_local = pose_rot.r.T @ dt_cam
    final = pose_rot.compose(Pose(np.eye(3), dt_local))
    apply_transform(final, ref.cloud)  # align the reference cloud, O(n)
    t_correct = time.perf_counter() - t1

    report = CorrectionReport(
        yaw_error_deg=math.degrees(yaw),
        translation_error_mm=dt_cam * 1000.0,
        t_estimate=t_estimate,
        t_correct=t_correct,
    )
    return final, report
