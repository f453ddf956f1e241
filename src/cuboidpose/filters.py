"""Point cloud conditioning: voxel downsample, outlier removal and normal
estimation."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientNeighbors, TooFewPoints
from .geometry import PointCloud


# The dense grouping sizes its counts and sums by the cloud's cell box, so it
# runs only while that box holds at most this many cells per point.
_DENSE_CELLS_PER_POINT = 2


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """One point per occupied voxel: the centroid of that voxel's members.

    The grid is anchored at the coordinate origin (cell index floor(p / leaf)).
    Output order is lexicographic by voxel index.

    The indices are built one axis at a time, each in its own contiguous
    array, and grouped in one of two ways, chosen by the cloud's cell box (the
    product of the three index ranges, taken in Python ints so that it cannot
    overflow):

    - Dense: when the box holds at most `_DENSE_CELLS_PER_POINT` cells per
      point, as a face's box does, each point gets one linear key, its cell's
      row-major place in the box, and `np.bincount` over the box gives every
      cell's count and coordinate sums with no sort. The occupied cells, in
      ascending key order, are the voxels in lexicographic order. The cap
      keeps the box's arrays within a small multiple of the cloud's size.
    - Sorted: otherwise, as for wide, sparse clouds whose box would be far
      larger than the cloud (or overflow int64 at fine leaves), a lexsort of
      the indices brings the cells into lexicographic order, and a voxel
      starts wherever any axis's sorted index differs from the one before it.

    Either way `np.bincount` with weights adds each voxel's members in input
    order, the same additions a per-point accumulation makes, so the
    centroids are exact and both paths give the same bits.
    """
    if not leaf > 0:
        raise ValueError("leaf size must be positive")
    n = len(cloud)
    if n == 0:
        return PointCloud(np.empty((0, 3)))
    pts = cloud.points
    keys = [np.floor(pts[:, j] / leaf).astype(np.int64) for j in range(3)]
    lo = [int(key.min()) for key in keys]
    span = [int(key.max()) - low + 1 for key, low in zip(keys, lo)]
    box = span[0] * span[1] * span[2]
    if box <= _DENSE_CELLS_PER_POINT * n:
        inv = keys[0] - lo[0]
        for key, low, size in zip(keys[1:], lo[1:], span[1:]):
            inv *= size
            inv += key
            inv -= low
        counts = np.bincount(inv, minlength=box)
        occupied = np.flatnonzero(counts)
        sums = [
            np.bincount(inv, weights=pts[:, j], minlength=box)[occupied] for j in range(3)
        ]
        return PointCloud(np.column_stack(sums) / counts[occupied, None])
    order = np.lexsort(keys[::-1])
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    for key in keys:
        cells = key[order]
        starts[1:] |= cells[1:] != cells[:-1]
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.cumsum(starts) - 1
    counts = np.bincount(inv).astype(np.float64)
    sums = [np.bincount(inv, weights=pts[:, j]) for j in range(3)]
    return PointCloud(np.column_stack(sums) / counts[:, None])


def statistical_outlier_removal(
    cloud: PointCloud, k: int = 50, stddev_mult: float = 1.0
) -> PointCloud:
    """Drop points whose mean distance to their k nearest neighbors exceeds
    the global mean by more than `stddev_mult` standard deviations. Needs
    k >= 1 and `stddev_mult` >= 0 (a ValueError otherwise) and more than k
    points (TooFewPoints)."""
    if k < 1:
        raise ValueError(f"need k >= 1 neighbors, got {k}")
    if not stddev_mult >= 0:
        raise ValueError(f"need stddev_mult >= 0, got {stddev_mult}")
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
