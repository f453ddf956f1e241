import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cuboidpose import (
    PointCloud,
    estimate_normals,
    statistical_outlier_removal,
    voxel_downsample,
)
from cuboidpose import filters
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


@pytest.mark.parametrize(
    "spread, leaf",
    [
        (0.3, 0.02),  # negative and positive coordinates around the origin
        (5e3, 0.001),  # ~1e4 m wide at 1 mm: a linear voxel key would overflow int64
    ],
)
def test_voxel_order_and_attachments(spread, leaf):
    """Output rows follow lexicographic voxel order."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(-spread, spread, size=(300, 3))
    pts = np.repeat(centers, 4, axis=0) + rng.uniform(-2 * leaf, 2 * leaf, size=(1200, 3))
    cloud = PointCloud(pts[rng.permutation(len(pts))])
    out = voxel_downsample(cloud, leaf)
    keys, points = voxel_oracle(cloud, leaf)
    assert len(out) == len(keys)
    assert (np.asarray(keys) < 0).any()
    assert_allclose(out.points, points, rtol=1e-12, atol=1e-9 * leaf)


def voxel_downsample_oracle(points, leaf):
    """The (n, 3) cell keys compared row against row; `voxel_downsample`,
    which keys and compares one axis at a time, must match it bit for bit."""
    n = len(points)
    idx = np.floor(points / leaf).astype(np.int64)
    order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
    cells = idx[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(cells[1:] != cells[:-1], axis=1, out=starts[1:])
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.cumsum(starts) - 1
    counts = np.bincount(inv).astype(np.float64)
    sums = [np.bincount(inv, weights=points[:, j]) for j in range(3)]
    return np.column_stack(sums) / counts[:, None]


@st.composite
def voxel_clouds(draw):
    """Clouds of up to 120 points picked, with repeats and in any order, from
    1 to 40 points: either in a few cells around the origin (negative indices,
    points exactly on cell boundaries) at leaves from 1e-4 to 1, or across
    1e6 m at 1e-3."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        leaf = 1e-3
        pts = draw(
            arrays(np.float64, (n, 3), elements=st.floats(-5e5, 5e5), fill=st.nothing())
        )
    else:
        leaf = draw(st.floats(1e-4, 1.0))
        cells = draw(
            arrays(np.int64, (n, 3), elements=st.integers(-3, 3), fill=st.nothing())
        )
        frac = draw(
            arrays(
                np.float64,
                (n, 3),
                elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
                fill=st.nothing(),
            )
        )
        pts = (cells + frac) * leaf
    pick = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
    return pts[pick], leaf


@settings(max_examples=300, deadline=None)
@given(voxel_clouds())
def test_voxel_matches_row_key_oracle(case):
    points, leaf = case
    got = voxel_downsample(PointCloud(points), leaf).points
    assert got.tobytes() == voxel_downsample_oracle(points, leaf).tobytes()


@st.composite
def voxel_box_clouds(draw):
    """Clouds whose cell box, spanned by two opposite corner points at
    negative and positive indices, holds from well under to well over
    `_DENSE_CELLS_PER_POINT` cells per point, so both groupings run."""
    lo = draw(arrays(np.int64, 3, elements=st.integers(-6, 2), fill=st.nothing()))
    span = draw(arrays(np.int64, 3, elements=st.integers(1, 6), fill=st.nothing()))
    n = draw(st.integers(0, 60))
    leaf = draw(st.sampled_from([1e-3, 0.003, 0.006, 0.25]))
    cells = draw(
        arrays(np.int64, (n, 3), elements=st.integers(0, 5), fill=st.nothing())
    ) % span
    frac = draw(
        arrays(np.float64, (n + 2, 3), elements=st.floats(0.0, 0.999), fill=st.nothing())
    )
    keys = np.vstack([np.zeros(3, np.int64), span - 1, cells]) + lo
    pts = (keys + frac) * leaf
    return pts[draw(st.permutations(range(n + 2)))], leaf


@settings(max_examples=300, deadline=None)
@given(voxel_box_clouds())
def test_voxel_dense_and_sorted_match_oracle(case):
    points, leaf = case
    got = voxel_downsample(PointCloud(points), leaf).points
    assert got.tobytes() == voxel_downsample_oracle(points, leaf).tobytes()


def _lexsort_calls(monkeypatch):
    calls = []
    real = np.lexsort

    def counted(keys, *args, **kwargs):
        calls.append(len(keys))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(filters.np, "lexsort", counted)
    return calls


@pytest.mark.parametrize(
    "span, n, sorted_path",
    [
        ((20, 1, 1), 10, False),  # 2 cells per point: dense
        ((21, 1, 1), 10, True),  # just over the cap: sorted
        ((4, 5, 1), 10, False),
        ((3, 3, 3), 13, True),  # 27 cells for 13 points
        ((3, 3, 3), 14, False),
        ((1, 1, 1), 1, False),  # n = 1
        ((1, 1, 1), 50, False),  # all points in one cell
        ((10**6, 10**6, 10**6), 50, True),  # a wide, sparse cloud
    ],
)
def test_voxel_grouping_at_the_cap(monkeypatch, span, n, sorted_path):
    """The cell box decides the grouping, and both give the oracle's bits."""
    rng = np.random.default_rng(n)
    leaf = 0.006
    keys = rng.integers(0, span, size=(n, 3))
    keys[0] = 0
    keys[-1] = np.array(span) - 1
    # cell centres +-1/4, clear of the cell faces, so floor gives back the keys
    points = (keys - np.array(span) // 2 + rng.uniform(0.25, 0.75, (n, 3))) * leaf
    calls = _lexsort_calls(monkeypatch)
    got = voxel_downsample(PointCloud(points), leaf).points
    assert calls == ([3] if sorted_path else [])
    assert got.tobytes() == voxel_downsample_oracle(points, leaf).tobytes()


def test_voxel_bad_leaf():
    with pytest.raises(ValueError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)
    with pytest.raises(ValueError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), float("nan"))


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


@pytest.mark.parametrize("k", [0, -1])
def test_sor_needs_a_neighbor(k):
    with pytest.raises(ValueError):
        statistical_outlier_removal(PointCloud(np.zeros((5, 3))), k=k)


@pytest.mark.parametrize("mult", [-5.0, -1e-9, float("nan")])
def test_sor_needs_a_nonnegative_multiplier(mult):
    """A negative multiplier puts the cut below the mean distance, so most of
    a clean cloud would go."""
    with pytest.raises(ValueError):
        statistical_outlier_removal(PointCloud(plane_grid()), k=8, stddev_mult=mult)


# ---------------------------------------------------------------- normals

def test_normals_flat_plane():
    pts = plane_grid(z=1.0)
    normals, curvatures = estimate_normals(PointCloud(pts), radius=0.01)
    # camera sits at the origin, so normals face back down the z axis
    assert_allclose(normals, np.tile([0.0, 0.0, -1.0], (len(pts), 1)), atol=1e-9)
    assert_allclose(curvatures, np.zeros(len(pts)), atol=1e-12)


def test_normals_tilted_plane():
    a = np.radians(30.0)
    base = plane_grid(z=0.0)
    tilt = np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )
    pts = base @ tilt.T + np.array([0.0, 0.0, 1.0])
    normals, _ = estimate_normals(PointCloud(pts), radius=0.012)
    want = tilt @ np.array([0.0, 0.0, -1.0])
    dots = np.abs(normals @ want)
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
    normals, _ = estimate_normals(PointCloud(pts), radius=0.03)
    ok = ~np.isnan(normals[:, 0])
    radial = pts[ok] - center
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    dots = np.abs(np.sum(normals[ok] * radial, axis=1))
    assert np.degrees(np.arccos(np.clip(dots, -1, 1))).max() < 3.0


def test_normals_unit_length_and_camera_facing():
    rng = np.random.default_rng(7)
    pts = plane_grid(z=1.0) + rng.normal(0, 0.0005, (len(plane_grid()), 3))
    normals, _ = estimate_normals(PointCloud(pts), radius=0.012)
    ok = ~np.isnan(normals[:, 0])
    assert_allclose(np.linalg.norm(normals[ok], axis=1), 1.0, atol=1e-9)
    assert np.all(np.sum(normals[ok] * pts[ok], axis=1) <= 0.0)


def test_normals_isolated_point_flagged():
    pts = np.vstack([plane_grid(), [[5.0, 5.0, 5.0]]])
    normals, curvatures = estimate_normals(PointCloud(pts), radius=0.01)
    assert np.isnan(normals[-1]).all()
    assert np.isnan(curvatures[-1])


def test_normals_too_few_points():
    with pytest.raises(InsufficientNeighbors):
        estimate_normals(PointCloud(np.zeros((2, 3))))
