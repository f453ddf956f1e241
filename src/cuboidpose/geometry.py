"""Core 3D types and math: point clouds, rigid transforms, PCA bounding boxes,
signed in-plane angles.

Conventions
-----------
* Points are float64 meters, shape (n, 3).
* A Pose maps object-local coordinates into the camera frame: p_cam = r @ p + t.
* Rotations are proper (det +1) and orthonormal within 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud, DegenerateDirection

ORTHONORMAL_TOL = 1e-9


@dataclass
class PointCloud:
    """Ordered points, coerced to an (n, 3) float64 array."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Pose:
    """Rigid transform with rotation `r` (3x3) and translation `t` (meters)."""

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(m) -> "Pose":
        m = np.asarray(m, dtype=np.float64).reshape(4, 4)
        return Pose(m[:3, :3], m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.r
        m[:3, 3] = self.t
        return m

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        return Pose(self.r @ other.r, self.r @ other.t + self.t)

    def inverse(self) -> "Pose":
        return Pose(self.r.T, -self.r.T @ self.t)

    def transform(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.r.T + self.t

    def validate(self, tol: float = ORTHONORMAL_TOL) -> None:
        """Raise ValueError unless the rotation block is orthonormal with det +1."""
        err = np.abs(self.r.T @ self.r - np.eye(3)).max()
        if err > tol:
            raise ValueError(f"rotation not orthonormal (max deviation {err:.3e})")
        det = np.linalg.det(self.r)
        if abs(det - 1.0) > max(tol, 1e-9):
            raise ValueError(f"rotation determinant {det!r} != +1")


@dataclass
class Obb:
    """Oriented bounding box.

    `axes` rows are unit directions ordered major to minor; `half_extents`
    are the matching half sizes, non-negative and sorted descending for any
    non-degenerate input. `mean` is the centroid of the points the box was
    fitted to (`pts.mean(axis=0)`, the origin of the PCA), kept so callers
    need not reduce the cloud again; `center` is the box's own midpoint.
    """

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.axes = np.asarray(self.axes, dtype=np.float64).reshape(3, 3)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64).reshape(3)
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(3)


def apply_transform(pose: Pose, cloud: PointCloud) -> PointCloud:
    """Transform every point into the pose's target frame.

    The product runs in `np.einsum`, not in BLAS as `Pose.transform` does: on
    a large cloud BLAS starts worker threads for a 3-wide product, and they
    keep spinning after the call returns and slow the caller's next few
    hundred microseconds (such as `correct_pose`'s timed estimate) by up to
    5x on a 2-core host. The results agree with `Pose.transform` to rounding.
    """
    points = np.einsum("ij,kj->ik", cloud.points, pose.r)
    points += pose.t
    return PointCloud(points)


def fit_obb(cloud: PointCloud) -> Obb:
    """PCA-based oriented bounding box.

    Axes are covariance eigenvectors ordered by descending eigenvalue, each
    flipped so its largest-magnitude component is positive. The center is the
    midpoint of the min/max corners expressed in the eigenbasis, which for a
    skewed point distribution differs from the centroid.

    The centroid is the last row of the running sums down each column, over
    n: on a row-major cloud, such as every stage of the pipeline makes, these
    are the same additions in the same row order as `pts.mean(axis=0)`
    makes, so the same bits, but one pass per column instead of a reduction
    that steps row by row. The sums' buffer then holds the centred points, so
    no second (n, 3) array is allocated.
    """
    pts = cloud.points
    if len(pts) < 3:
        raise DegenerateCloud("need at least 3 points for a bounding box")
    centered = np.cumsum(pts, axis=0)
    mean = centered[-1] / len(pts)
    np.subtract(pts, mean, out=centered)
    cov = centered.T @ centered / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    axes = evecs[:, order].T
    if evals[1] <= evals[0] * 1e-12 + 1e-24:
        raise DegenerateCloud("points are collinear within tolerance")
    for i in range(3):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    # one contiguous row per axis: reducing rows is several times faster than
    # reducing the columns of the (n, 3) product, and min/max are exact
    proj = axes @ centered.T
    lo = proj.min(axis=1)
    hi = proj.max(axis=1)
    center = mean + axes.T @ ((lo + hi) / 2.0)
    return Obb(center, axes, (hi - lo) / 2.0, mean)


def signed_angle_in_plane(u, v, normal) -> float:
    """Signed angle from u to v measured in the plane orthogonal to `normal`.

    Both vectors are projected into the plane first. The result lies in
    (-pi, pi], positive in the right-handed sense about `normal`.
    """
    u = np.asarray(u, dtype=np.float64).reshape(3)
    v = np.asarray(v, dtype=np.float64).reshape(3)
    n = np.asarray(normal, dtype=np.float64).reshape(3)
    nn = np.linalg.norm(n)
    if nn <= 1e-12:
        raise DegenerateDirection("plane normal has zero length")
    n = n / nn
    if np.linalg.norm(u) <= 1e-12 or np.linalg.norm(v) <= 1e-12:
        raise DegenerateDirection("input vector has zero length")
    up = u - (u @ n) * n
    vp = v - (v @ n) * n
    if np.linalg.norm(up) < 1e-9 or np.linalg.norm(vp) < 1e-9:
        raise DegenerateDirection("vector is parallel to the plane normal")
    ang = math.atan2(float(n @ np.cross(up, vp)), float(up @ vp))
    if ang <= -math.pi:
        ang = math.pi
    return ang


def rotation_z(angle: float) -> np.ndarray:
    """Rotation about the local z axis, radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about an arbitrary axis, radians."""
    a = np.asarray(axis, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(a)
    if norm <= 1e-12:
        raise DegenerateDirection("rotation axis has zero length")
    a = a / norm
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rotation_angle(r: np.ndarray) -> float:
    """Net rotation angle of a rotation matrix, radians in [0, pi]."""
    c = (float(np.trace(r)) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest proper rotation in the Frobenius sense (SVD projection)."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=np.float64))
    d = np.sign(np.linalg.det(u @ vt))
    fix = np.diag([1.0, 1.0, d])
    return u @ fix @ vt
