"""Point cloud conditioning: voxel downsample, outlier removal and normal
estimation."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientNeighbors, TooFewPoints
from .geometry import PointCloud


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """One point per occupied voxel: the centroid of that voxel's members.

    The grid is anchored at the coordinate origin (cell index floor(p / leaf)).
    Output order is lexicographic by voxel index.

    Voxels are grouped by a lexsort of the integer cell indices, so the cells
    come out in that order without a combined linear key (which would overflow
    int64 for wide clouds at fine leaves). The indices are built one axis at a
    time, each in its own contiguous array, and a voxel starts wherever any
    axis's sorted index differs from the one before it. `np.bincount` with
    weights adds each voxel's members in input order, the same additions a
    per-point accumulation makes, so the centroids are exact.
    """
    if leaf <= 0:
        raise ValueError("leaf size must be positive")
    n = len(cloud)
    if n == 0:
        return PointCloud(np.empty((0, 3)))
    keys = [np.floor(cloud.points[:, j] / leaf).astype(np.int64) for j in range(3)]
    order = np.lexsort(keys[::-1])
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    for key in keys:
        cells = key[order]
        starts[1:] |= cells[1:] != cells[:-1]
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.cumsum(starts) - 1
    counts = np.bincount(inv).astype(np.float64)
    sums = [np.bincount(inv, weights=cloud.points[:, j]) for j in range(3)]
    return PointCloud(np.column_stack(sums) / counts[:, None])


def statistical_outlier_removal(
    cloud: PointCloud, k: int = 50, stddev_mult: float = 1.0
) -> PointCloud:
    """Drop points whose mean distance to their k nearest neighbors exceeds
    the global mean by more than `stddev_mult` standard deviations."""
    n = len(cloud)
    if n <= k:
        raise TooFewPoints(f"need more than k={k} points, have {n}")
    tree = cKDTree(cloud.points)
    dists, _ = tree.query(cloud.points, k=k + 1)
    mean_d = dists[:, 1:].mean(axis=1)
    threshold = mean_d.mean() + stddev_mult * mean_d.std()
    return PointCloud(cloud.points[mean_d <= threshold])


def estimate_normals(
    cloud: PointCloud, radius: float = 0.015
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point plane normals from radius neighborhoods, oriented toward the
    camera origin, and surface-variation curvatures: an (n, 3) and an (n,)
    array, row i for point i.

    Points with fewer than 3 neighbors are flagged with NaN normal and
    curvature instead of raising; downstream steps skip them.
    """
    n = len(cloud)
    if n < 3:
        raise InsufficientNeighbors(f"cannot estimate normals for {n} points")
    pts = cloud.points
    tree = cKDTree(pts)
    hoods = tree.query_ball_point(pts, radius)
    normals = np.full((n, 3), np.nan)
    curvatures = np.full(n, np.nan)
    for i, hood in enumerate(hoods):
        if len(hood) < 3:
            continue
        local = pts[hood] - pts[hood].mean(axis=0)
        # ascending eigenvalues: the first axis is the plane normal
        evals, evecs = np.linalg.eigh(local.T @ local / len(hood))
        normal = evecs[:, 0]
        if normal @ pts[i] > 0:
            normal = -normal
        normals[i] = normal
        total = evals.sum()
        curvatures[i] = evals[0] / total if total > 0 else 0.0
    return normals, curvatures
