import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuboidpose import PointCloud, Pose, apply_transform, fit_obb
from cuboidpose.errors import DegenerateCloud, DegenerateDirection
from cuboidpose.geometry import (
    orthonormalize,
    rotation_about,
    rotation_angle,
    rotation_z,
    signed_angle_in_plane,
)


def random_pose(rng):
    axis = rng.normal(size=3)
    r = rotation_about(axis, rng.uniform(-np.pi, np.pi))
    return Pose(r, rng.uniform(-1.0, 1.0, 3))


def test_transform_identity():
    pts = np.array([[0.1, 0.2, 0.3], [-1.0, 2.0, 0.5]])
    out = apply_transform(Pose.identity(), PointCloud(pts))
    assert_allclose(out.points, pts, atol=1e-9)


def test_transform_translation():
    pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
    out = apply_transform(pose, PointCloud(np.zeros((1, 3))))
    assert_allclose(out.points[0], [1.0, 2.0, 3.0], atol=1e-9)


def test_transform_rotation_z_90():
    pose = Pose(rotation_z(np.pi / 2.0), np.zeros(3))
    out = pose.transform(np.array([1.0, 0.0, 0.0]))
    assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-9)


def box_corners(w, h, d):
    return np.array(
        [[sx * w, sy * h, sz * d] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=np.float64,
    )


def test_obb_axis_aligned_box():
    obb = fit_obb(PointCloud(box_corners(0.15, 0.10, 0.01)))
    assert_allclose(obb.half_extents, [0.15, 0.10, 0.01], atol=1e-12)
    assert_allclose(obb.center, [0.0, 0.0, 0.0], atol=1e-12)


def test_obb_rotated_box_same_extents():
    """A rigid motion must not change the box, and the recovered axes must
    match the rotated frame up to sign."""
    corners = box_corners(0.15, 0.10, 0.01)
    r = rotation_about([1.0, 2.0, 3.0], 0.7)
    obb0 = fit_obb(PointCloud(corners))
    obb1 = fit_obb(PointCloud(corners @ r.T + np.array([0.3, -0.1, 1.2])))
    assert_allclose(obb1.half_extents, obb0.half_extents, atol=1e-6)
    for i in range(3):
        assert abs(obb1.axes[i] @ (r @ obb0.axes[i])) == pytest.approx(1.0, abs=1e-6)


def test_obb_planar_cloud():
    gx, gy = np.meshgrid(np.linspace(-0.15, 0.15, 21), np.linspace(-0.10, 0.10, 15))
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    obb = fit_obb(PointCloud(pts))
    assert_allclose(obb.half_extents[:2], [0.15, 0.10], atol=1e-9)
    assert obb.half_extents[2] < 1e-12


def test_obb_extents_rigid_invariant():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(500, 3)) * np.array([0.3, 0.2, 0.05])
    base = fit_obb(PointCloud(pts)).half_extents
    for _ in range(5):
        pose = random_pose(rng)
        moved = fit_obb(PointCloud(pose.transform(pts))).half_extents
        assert_allclose(moved, base, atol=1e-6)


def _obb_by_columns(pts):
    """fit_obb with its min/max taken over the columns of the (n, 3)
    projection, the plain formula kept here as the oracle."""
    mean = pts.mean(axis=0)
    centered = pts - mean
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(pts))
    order = np.argsort(-evals, kind="stable")
    axes = evecs[:, order].T
    for i in range(3):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    proj = centered @ axes.T
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    return mean + axes.T @ ((lo + hi) / 2.0), axes, (hi - lo) / 2.0


@pytest.mark.parametrize("n", [3, 17, 500, 52_000])
def test_obb_bitwise_equal_to_column_formula(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        pose = random_pose(rng)
        pts = pose.transform(
            rng.normal(size=(n, 3)) * np.array([0.3, 0.2, 0.01]) + rng.uniform(-2, 2, 3)
        )
        obb = fit_obb(PointCloud(pts))
        center, axes, half = _obb_by_columns(pts)
        assert np.array_equal(obb.center, center)
        assert np.array_equal(obb.axes, axes)
        assert np.array_equal(obb.half_extents, half)


def test_obb_collinear_raises():
    line = np.outer(np.linspace(0.0, 1.0, 10), [1.0, 2.0, 0.5])
    with pytest.raises(DegenerateCloud):
        fit_obb(PointCloud(line))


def test_obb_too_few_points_raises():
    with pytest.raises(DegenerateCloud):
        fit_obb(PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])))


def test_signed_angle_quarter_turn():
    ang = signed_angle_in_plane([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert ang == pytest.approx(np.pi / 2.0, abs=1e-9)


def test_signed_angle_same_vector_zero():
    u = np.array([0.3, -0.4, 0.0])
    assert signed_angle_in_plane(u, u, [0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_signed_angle_small_rotation():
    n = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.2, 0.0])
    v = rotation_z(np.radians(2.47)) @ u
    ang = signed_angle_in_plane(u, v, n)
    assert np.degrees(ang) == pytest.approx(2.47, abs=1e-9)


def test_signed_angle_antisymmetric():
    rng = np.random.default_rng(11)
    n = np.array([0.0, 0.0, 1.0])
    for _ in range(50):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        a = signed_angle_in_plane(u, v, n)
        b = signed_angle_in_plane(v, u, n)
        if abs(abs(a) - np.pi) < 1e-6:
            continue  # the half-turn maps to +pi from both sides
        assert a == pytest.approx(-b, abs=1e-9)


def test_signed_angle_degenerate_inputs():
    n = [0.0, 0.0, 1.0]
    with pytest.raises(DegenerateDirection):
        signed_angle_in_plane([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], n)
    with pytest.raises(DegenerateDirection):
        signed_angle_in_plane([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(DegenerateDirection):
        signed_angle_in_plane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], n)


def test_compose_associative():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(20, 3))
    for _ in range(10):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert_allclose(left.transform(pts), right.transform(pts), atol=1e-9)


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(6)
    a, b = random_pose(rng), random_pose(rng)
    assert_allclose(a.compose(b).matrix, a.matrix @ b.matrix, atol=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    pose = random_pose(rng)
    pts = rng.normal(size=(40, 3))
    assert_allclose(pose.inverse().transform(pose.transform(pts)), pts, atol=1e-9)


def test_rotation_angle():
    assert rotation_angle(np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert rotation_angle(rotation_z(0.3)) == pytest.approx(0.3, abs=1e-12)
    assert rotation_angle(rotation_about([1.0, 1.0, 0.0], -0.2)) == pytest.approx(
        0.2, abs=1e-12
    )


def test_orthonormalize_repairs_drift():
    rng = np.random.default_rng(9)
    r = rotation_about([0.2, 0.5, 1.0], 1.1) + rng.normal(scale=1e-4, size=(3, 3))
    fixed = orthonormalize(r)
    assert_allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
    assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)


def test_pose_validate_rejects_non_rotation():
    bad = Pose(np.eye(3), np.zeros(3))
    bad.r = np.eye(3) * 1.1
    with pytest.raises(ValueError):
        bad.validate()
