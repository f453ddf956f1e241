import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuboidpose import (
    CuboidSpec,
    Pose,
    correct_pose,
    estimate_translation_error,
    estimate_yaw_error,
    fit_obb,
    make_reference_face,
    reference_axis_points,
)
from cuboidpose.errors import DegenerateSegment, InvalidSpec
from cuboidpose.geometry import rotation_about, rotation_angle, rotation_z
from cuboidpose.synth import inject_pose_error

FACE = CuboidSpec(0.30, 0.20, 0.05)


def tilted_pose(yaw=0.3, t=(0.02, -0.01, 1.0)):
    r = rotation_about([0.1, -0.2, 1.0], yaw)
    return Pose(r, np.array(t))


def axis_targets(pose, w=FACE.width):
    return pose.transform([-w / 2.0, 0.0, 0.0]), pose.transform([w / 2.0, 0.0, 0.0])


# ---------------------------------------------------------------- reference

def test_reference_grid_counts():
    ref = make_reference_face(FACE, 0.01)
    assert len(ref.cloud) == 31 * 21
    assert_allclose(ref.cloud.points.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-12)


def test_reference_grid_extents():
    ref = make_reference_face(FACE, 0.01)
    obb = fit_obb(ref.cloud)
    assert_allclose(obb.half_extents, [0.15, 0.10, 0.0], atol=1e-12)


@pytest.mark.parametrize("pitch", [0.004, 0.0063, 0.011])
def test_reference_grid_count_formula(pitch):
    ref = make_reference_face(FACE, pitch)
    nx = int(np.floor(FACE.width / pitch)) + 1
    ny = int(np.floor(FACE.height / pitch)) + 1
    assert len(ref.cloud) == nx * ny


def test_reference_grid_pitch_limits():
    with pytest.raises(InvalidSpec):
        make_reference_face(FACE, 0.0)
    with pytest.raises(InvalidSpec):
        make_reference_face(FACE, 0.06)  # coarser than a quarter of the short side
    with pytest.raises(InvalidSpec):
        make_reference_face(FACE, float("nan"))


def test_reference_axis_points_identity():
    ref = make_reference_face(FACE, 0.01)
    a1, a2 = reference_axis_points(ref, Pose.identity())
    assert_allclose(a1, [0.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(a2, [FACE.width / 4.0, 0.0, 0.0], atol=1e-12)


def test_reference_axis_points_follow_rotation():
    ref = make_reference_face(FACE, 0.01)
    pose = Pose(rotation_z(np.pi / 2.0), np.zeros(3))
    a1, a2 = reference_axis_points(ref, pose)
    d = (a2 - a1) / np.linalg.norm(a2 - a1)
    assert_allclose(d, [0.0, 1.0, 0.0], atol=1e-9)


def test_reference_axis_direction_is_pose_x():
    ref = make_reference_face(FACE, 0.01)
    pose = tilted_pose()
    a1, a2 = reference_axis_points(ref, pose)
    assert_allclose((a2 - a1) / np.linalg.norm(a2 - a1), pose.r[:, 0], atol=1e-9)


# ---------------------------------------------------------------- estimation

def test_yaw_error_zero_when_registered():
    pose = tilted_pose()
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(pose)
    a1, a2 = reference_axis_points(ref, pose)
    yaw = estimate_yaw_error(t1, t2, a1, a2, pose.r[:, 2])
    assert abs(np.degrees(yaw)) < 1e-6


def test_yaw_error_recovers_injection():
    gt = tilted_pose()
    start = inject_pose_error(gt, -2.47, np.zeros(3))
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    a1, a2 = reference_axis_points(ref, start)
    yaw = estimate_yaw_error(t1, t2, a1, a2, start.r[:, 2])
    assert np.degrees(yaw) == pytest.approx(2.47, abs=1e-6)


def test_yaw_error_folds_swapped_targets():
    """Swapping the two measured points must not read as a half turn."""
    gt = tilted_pose()
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    a1, a2 = reference_axis_points(ref, gt)
    yaw = estimate_yaw_error(t2, t1, a1, a2, gt.r[:, 2])
    assert abs(np.degrees(yaw)) < 1e-6


def test_yaw_error_degenerate_segment():
    ref = make_reference_face(FACE, 0.01)
    a1, a2 = reference_axis_points(ref, Pose.identity())
    p = np.array([0.1, 0.1, 1.0])
    with pytest.raises(DegenerateSegment):
        estimate_yaw_error(p, p, a1, a2, [0.0, 0.0, 1.0])


def test_translation_error_zero_when_registered():
    pose = tilted_pose()
    t1, t2 = axis_targets(pose)
    err = estimate_translation_error(t1, t2, pose)
    assert_allclose(err, np.zeros(3), atol=1e-9)


def test_translation_error_pure_offset():
    gt = tilted_pose()
    dt = np.array([0.8, 3.1, -0.2]) / 1000.0
    start = inject_pose_error(gt, 0.0, -dt)
    t1, t2 = axis_targets(gt)
    err = estimate_translation_error(t1, t2, start)
    assert_allclose(err, dt, atol=1e-4)


def test_translation_error_after_yaw_fix():
    gt = tilted_pose()
    start = inject_pose_error(gt, 1.5, np.array([-0.005, 0.0, 0.0]))
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    yaw = estimate_yaw_error(
        t1, t2, *reference_axis_points(ref, start), start.r[:, 2]
    )
    rotated = start.compose(Pose(rotation_z(yaw), np.zeros(3)))
    err = estimate_translation_error(t1, t2, rotated)
    assert_allclose(err, [0.005, 0.0, 0.0], atol=2e-4)


# ---------------------------------------------------------------- correction

def test_correct_pose_noop_when_exact():
    pose = tilted_pose()
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(pose)
    fixed, report = correct_pose(pose, ref, t1, t2)
    assert_allclose(fixed.r, pose.r, atol=1e-9)
    assert_allclose(fixed.t, pose.t, atol=1e-9)
    assert abs(report.yaw_error_deg) < 1e-9


def test_correct_pose_closed_loop():
    gt = tilted_pose()
    start = inject_pose_error(gt, 2.47, np.array([0.8, 3.1, -0.2]) / 1000.0)
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    fixed, report = correct_pose(start, ref, t1, t2)
    rot_err = np.degrees(rotation_angle(fixed.r @ gt.r.T))
    trans_err = np.linalg.norm(fixed.t - gt.t) * 1000.0
    assert rot_err <= 0.23
    assert trans_err <= 0.3
    # analytic inputs leave nothing behind
    assert rot_err < 1e-3 and trans_err < 1e-3
    assert report.yaw_error_deg == pytest.approx(-2.47, abs=1e-6)


def test_correct_pose_random_injections():
    rng = np.random.default_rng(30)
    ref = make_reference_face(FACE, 0.01)
    for _ in range(20):
        gt = Pose(
            rotation_about(rng.normal(size=3), rng.uniform(-0.4, 0.4)),
            np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 1.0]),
        )
        yaw = rng.uniform(-5.0, 5.0)
        dt = rng.uniform(-0.01, 0.01, 3)
        start = inject_pose_error(gt, yaw, dt)
        t1, t2 = axis_targets(gt)
        fixed, _ = correct_pose(start, ref, t1, t2)
        assert np.degrees(rotation_angle(fixed.r @ gt.r.T)) < 1e-3
        assert np.linalg.norm(fixed.t - gt.t) * 1000.0 < 1e-3


def test_corrected_center_sits_on_measured_midpoint():
    gt = tilted_pose()
    start = inject_pose_error(gt, 3.0, np.array([0.004, -0.002, 0.007]))
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    fixed, _ = correct_pose(start, ref, t1, t2)
    assert_allclose(fixed.transform(np.zeros(3)), (t1 + t2) / 2.0, atol=1e-9)


def test_corrected_x_axis_parallel_to_segment():
    gt = tilted_pose()
    start = inject_pose_error(gt, -4.0, np.array([0.002, 0.006, -0.003]))
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    fixed, _ = correct_pose(start, ref, t1, t2)
    d = (t2 - t1) / np.linalg.norm(t2 - t1)
    cross = np.linalg.norm(np.cross(fixed.r[:, 0], d))
    assert cross < 1e-6  # parallel up to the 180 degree fold


def test_correct_pose_idempotent():
    gt = tilted_pose()
    start = inject_pose_error(gt, 2.0, np.array([0.003, 0.001, -0.002]))
    ref = make_reference_face(FACE, 0.01)
    t1, t2 = axis_targets(gt)
    once, _ = correct_pose(start, ref, t1, t2)
    twice, report = correct_pose(once, ref, t1, t2)
    assert_allclose(twice.r, once.r, atol=1e-9)
    assert_allclose(twice.t, once.t, atol=1e-9)
    assert abs(report.yaw_error_deg) < 1e-9


def test_estimation_time_independent_of_grid_size():
    """The error estimate touches two points, not the cloud; only the final
    re-transform scales with n."""
    gt = tilted_pose()
    t1, t2 = axis_targets(gt)
    medians = []
    for pitch in (0.00775, 0.000775):
        ref = make_reference_face(FACE, pitch)
        times = []
        for _ in range(9):
            _, report = correct_pose(gt, ref, t1, t2)
            times.append(report.t_estimate)
        medians.append(np.median(times))
    ratio = max(medians) / min(medians)
    assert ratio < 3.0, f"estimation time ratio {ratio:.2f}"


def test_cuboid_spec_validation():
    with pytest.raises(ValueError):
        CuboidSpec(0.20, 0.30, 0.05)
    with pytest.raises(ValueError):
        CuboidSpec(0.30, 0.20, 0.0)
    assert CuboidSpec(0.30, 0.20, 0.05).diagonal == pytest.approx(np.hypot(0.3, 0.2))
