"""Point cloud conditioning: crop, voxel downsample, outlier removal, normal
estimation and moving-least-squares smoothing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientNeighbors, TooFewPoints
from .geometry import PointCloud

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass
class FilterParams:
    """Defaults for the standard conditioning chain."""

    voxel_leaf: float = 0.005
    sor_k: int = 50
    sor_stddev_mult: float = 1.0
    normal_radius: float = 0.015
    mls_radius: float = 0.02
    mls_order: int = 1


def passthrough(cloud: PointCloud, axis: str, lo: float, hi: float) -> PointCloud:
    """Keep points whose chosen coordinate lies in [lo, hi]; order preserved."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    c = cloud.points[:, _AXES[axis]]
    return cloud.subset((c >= lo) & (c <= hi))


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """One point per occupied voxel: the centroid of that voxel's members.

    The grid is anchored at the coordinate origin (cell index floor(p / leaf)).
    Output order is lexicographic by voxel index. Normals are averaged and
    renormalized, colors averaged, curvatures averaged.

    Voxels are grouped by a lexsort of the integer cell indices, so the cells
    come out in that order without a combined linear key (which would overflow
    int64 for wide clouds at fine leaves). `np.bincount` with weights adds
    each voxel's members in input order, the same additions a per-point
    accumulation makes, so the centroids are exact.
    """
    if leaf <= 0:
        raise ValueError("leaf size must be positive")
    n = len(cloud)
    if n == 0:
        return PointCloud(np.empty((0, 3)))
    idx = np.floor(cloud.points / leaf).astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    cells = idx[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(cells[1:] != cells[:-1], axis=1, out=starts[1:])
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.cumsum(starts) - 1
    counts = np.bincount(inv).astype(np.float64)

    def bucket_sum(values):
        return np.bincount(inv, weights=values, minlength=len(counts))

    def bucket_mean(values):
        sums = np.column_stack([bucket_sum(values[:, j]) for j in range(values.shape[1])])
        return sums / counts[:, None]

    pts = bucket_mean(cloud.points)
    normals = None
    if cloud.normals is not None:
        normals = bucket_mean(cloud.normals)
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normals = normals / norms
    colors = None
    if cloud.colors is not None:
        colors = np.clip(np.rint(bucket_mean(cloud.colors.astype(np.float64))), 0, 255)
    curvatures = None
    if cloud.curvatures is not None:
        curvatures = bucket_sum(cloud.curvatures) / counts
    return PointCloud(pts, normals, colors, curvatures)


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
    return cloud.subset(mean_d <= threshold)


def _neighborhood_frame(pts):
    """Centroid and ascending-eigenvalue principal frame of a small point set."""
    c = pts.mean(axis=0)
    d = pts - c
    cov = d.T @ d / len(pts)
    evals, evecs = np.linalg.eigh(cov)
    return c, evals, evecs


def estimate_normals(cloud: PointCloud, radius: float = 0.015) -> PointCloud:
    """Per-point plane normals from radius neighborhoods, oriented toward the
    camera origin, plus surface-variation curvature.

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
        _, evals, evecs = _neighborhood_frame(pts[hood])
        normal = evecs[:, 0]
        if normal @ pts[i] > 0:
            normal = -normal
        normals[i] = normal
        total = evals.sum()
        curvatures[i] = evals[0] / total if total > 0 else 0.0
    return PointCloud(pts.copy(), normals, cloud.colors, curvatures)


def mls_smooth(cloud: PointCloud, radius: float = 0.02, order: int = 1) -> PointCloud:
    """Project each point onto a polynomial surface fit to its radius
    neighborhood (order 1 = plane, order 2 = quadric over the local plane).

    Points whose neighborhood is too small for the fit pass through unchanged.
    An exactly planar cloud is a fixed point of the operation.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = len(cloud)
    if n < 3:
        raise InsufficientNeighbors(f"cannot smooth a cloud of {n} points")
    pts = cloud.points
    tree = cKDTree(pts)
    hoods = tree.query_ball_point(pts, radius)
    out = pts.copy()
    new_normals = None if cloud.normals is None else np.array(cloud.normals)
    for i, hood in enumerate(hoods):
        if len(hood) < 3:
            continue
        c, _, evecs = _neighborhood_frame(pts[hood])
        normal = evecs[:, 0]
        rel = pts[i] - c
        if order == 1 or len(hood) < 8:
            out[i] = pts[i] - (rel @ normal) * normal
        else:
            e1, e2 = evecs[:, 2], evecs[:, 1]
            local = pts[hood] - c
            u, v, w = local @ e1, local @ e2, local @ normal
            design = np.column_stack([np.ones_like(u), u, v, u * u, u * v, v * v])
            coef, *_ = np.linalg.lstsq(design, w, rcond=None)
            ui, vi = rel @ e1, rel @ e2
            height = coef @ np.array([1.0, ui, vi, ui * ui, ui * vi, vi * vi])
            out[i] = c + ui * e1 + vi * e2 + height * normal
        if new_normals is not None:
            if normal @ pts[i] > 0:
                normal = -normal
            new_normals[i] = normal
    return PointCloud(out, new_normals, cloud.colors, None)
