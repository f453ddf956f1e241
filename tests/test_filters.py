import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuboidpose import (
    PointCloud,
    estimate_normals,
    statistical_outlier_removal,
    voxel_downsample,
)
from cuboidpose.errors import InsufficientNeighbors, TooFewPoints


def plane_grid(w=0.2, h=0.15, step=0.004, z=1.0):
    gx, gy = np.meshgrid(np.arange(0, w, step), np.arange(0, h, step))
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])


# ---------------------------------------------------------------- voxel grid

def test_voxel_collapses_small_cube():
    corners = np.array(
        [[sx, sy, sz] for sx in (0.0, 0.005) for sy in (0.0, 0.005) for sz in (0.0, 0.005)]
    )
    out = voxel_downsample(PointCloud(corners), 0.1)
    assert len(out) == 1
    assert_allclose(out.points[0], [0.0025, 0.0025, 0.0025], atol=1e-12)


def test_voxel_keeps_sparse_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = voxel_downsample(PointCloud(pts), 0.05)
    assert len(out) == 3
    got = sorted(map(tuple, out.points))
    assert_allclose(got, sorted(map(tuple, pts)), atol=1e-12)


def test_voxel_matches_bucket_oracle():
    """One output point per occupied voxel, at that voxel's centroid."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 0.3, size=(2000, 3))
    leaf = 0.02
    out = voxel_downsample(PointCloud(pts), leaf)

    buckets = {}
    for p in pts:
        key = tuple(np.floor(p / leaf).astype(int))
        buckets.setdefault(key, []).append(p)
    assert len(out) == len(buckets)
    want = sorted(tuple(np.mean(v, axis=0)) for v in buckets.values())
    got = sorted(map(tuple, out.points))
    assert_allclose(got, want, atol=1e-9)


def voxel_oracle(cloud, leaf):
    """Per-voxel means from a dict, listed in ascending (ix, iy, iz) order."""
    buckets = {}
    for i, p in enumerate(cloud.points):
        buckets.setdefault(tuple(int(k) for k in np.floor(p / leaf)), []).append(i)
    keys = sorted(buckets)
    return keys, np.array([cloud.points[buckets[k]].mean(axis=0) for k in keys])


def attached_cloud(rng, pts):
    n = len(pts)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(pts, normals, rng.integers(0, 256, (n, 3)), rng.uniform(0, 0.1, n))


@pytest.mark.parametrize(
    "spread, leaf",
    [
        (0.3, 0.02),  # negative and positive coordinates around the origin
        (5e3, 0.001),  # ~1e4 m wide at 1 mm: a linear voxel key would overflow int64
    ],
)
def test_voxel_order_and_attachments(spread, leaf):
    """Output rows follow lexicographic voxel order; the input's normals,
    colors and curvatures are not carried over."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(-spread, spread, size=(300, 3))
    pts = np.repeat(centers, 4, axis=0) + rng.uniform(-2 * leaf, 2 * leaf, size=(1200, 3))
    cloud = attached_cloud(rng, pts[rng.permutation(len(pts))])
    out = voxel_downsample(cloud, leaf)
    keys, points = voxel_oracle(cloud, leaf)
    assert len(out) == len(keys)
    assert (np.asarray(keys) < 0).any()
    assert_allclose(out.points, points, rtol=1e-12, atol=1e-9 * leaf)
    assert out.normals is None and out.colors is None and out.curvatures is None


def test_voxel_bad_leaf():
    with pytest.raises(ValueError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)


# ---------------------------------------------------------------- outliers

def test_sor_removes_single_far_point():
    rng = np.random.default_rng(3)
    plane = np.column_stack(
        [rng.uniform(0, 0.2, 100), rng.uniform(0, 0.2, 100), np.zeros(100)]
    )
    plane[0] = [0.1, 0.1, 1.0]  # one meter off the plane
    out = statistical_outlier_removal(PointCloud(plane), k=10, stddev_mult=1.0)
    assert out.points[:, 2].max() < 0.5
    assert len(out) >= 90


def test_sor_keeps_uniform_grid():
    out = statistical_outlier_removal(PointCloud(plane_grid()), k=8, stddev_mult=10.0)
    assert len(out) == len(plane_grid())


def test_sor_bulk_separation():
    rng = np.random.default_rng(4)
    inliers = np.column_stack(
        [rng.uniform(0, 0.3, 5000), rng.uniform(0, 0.2, 5000), rng.normal(0, 0.001, 5000)]
    )
    outliers = np.column_stack(
        [
            rng.uniform(0, 0.3, 50),
            rng.uniform(0, 0.2, 50),
            rng.uniform(0.05, 0.3, 50) * rng.choice([-1.0, 1.0], 50),
        ]
    )
    cloud = PointCloud(np.vstack([inliers, outliers]))
    kept = statistical_outlier_removal(cloud, k=20, stddev_mult=2.0)
    kept_set = set(map(tuple, kept.points))
    outliers_kept = sum(tuple(p) in kept_set for p in outliers)
    inliers_kept = sum(tuple(p) in kept_set for p in inliers)
    assert outliers_kept <= 2        # at least 95 percent removed
    assert inliers_kept >= 4950      # at least 99 percent survive


def test_sor_output_is_ordered_subset():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(300, 3))
    kept = statistical_outlier_removal(PointCloud(pts), k=10, stddev_mult=1.0)
    pos = 0
    rows = {tuple(p): i for i, p in enumerate(pts)}
    for p in kept.points:
        i = rows[tuple(p)]
        assert i >= pos
        pos = i


def test_sor_needs_more_than_k():
    with pytest.raises(TooFewPoints):
        statistical_outlier_removal(PointCloud(np.zeros((5, 3))), k=10)


# ---------------------------------------------------------------- normals

def test_normals_flat_plane():
    cloud = estimate_normals(PointCloud(plane_grid(z=1.0)), radius=0.01)
    # camera sits at the origin, so normals face back down the z axis
    assert_allclose(cloud.normals, np.tile([0.0, 0.0, -1.0], (len(cloud), 1)), atol=1e-9)
    assert_allclose(cloud.curvatures, np.zeros(len(cloud)), atol=1e-12)


def test_normals_tilted_plane():
    a = np.radians(30.0)
    base = plane_grid(z=0.0)
    tilt = np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )
    pts = base @ tilt.T + np.array([0.0, 0.0, 1.0])
    cloud = estimate_normals(PointCloud(pts), radius=0.012)
    want = tilt @ np.array([0.0, 0.0, -1.0])
    dots = np.abs(cloud.normals @ want)
    assert np.degrees(np.arccos(np.clip(dots, -1, 1))).max() < 1.0


def test_normals_sphere_patch():
    rng = np.random.default_rng(6)
    theta = rng.uniform(0, 0.5, 3000)
    phi = rng.uniform(0, 2 * np.pi, 3000)
    radius = 0.5
    center = np.array([0.0, 0.0, 1.0 - radius])
    pts = center + radius * np.column_stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    cloud = estimate_normals(PointCloud(pts), radius=0.03)
    ok = ~np.isnan(cloud.normals[:, 0])
    radial = pts[ok] - center
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    dots = np.abs(np.sum(cloud.normals[ok] * radial, axis=1))
    assert np.degrees(np.arccos(np.clip(dots, -1, 1))).max() < 3.0


def test_normals_unit_length_and_camera_facing():
    rng = np.random.default_rng(7)
    pts = plane_grid(z=1.0) + rng.normal(0, 0.0005, (len(plane_grid()), 3))
    cloud = estimate_normals(PointCloud(pts), radius=0.012)
    ok = ~np.isnan(cloud.normals[:, 0])
    assert_allclose(np.linalg.norm(cloud.normals[ok], axis=1), 1.0, atol=1e-9)
    assert np.all(np.sum(cloud.normals[ok] * pts[ok], axis=1) <= 0.0)


def test_normals_isolated_point_flagged():
    pts = np.vstack([plane_grid(), [[5.0, 5.0, 5.0]]])
    cloud = estimate_normals(PointCloud(pts), radius=0.01)
    assert np.isnan(cloud.normals[-1]).all()
    assert np.isnan(cloud.curvatures[-1])


def test_normals_too_few_points():
    with pytest.raises(InsufficientNeighbors):
        estimate_normals(PointCloud(np.zeros((2, 3))))
