import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cuboidpose import (
    CameraIntrinsics,
    CuboidSpec,
    Pose,
    SceneSpec,
    correct_pose,
    make_reference_face,
    render_scene,
)
from cuboidpose import synth
from cuboidpose.bench import BenchConfig, draw_trial, scene_spec_for
from cuboidpose.camera import (
    DepthImage,
    MaskImage,
    back_project,
    deproject_mask,
    pixel_box,
)
from cuboidpose.errors import FaceOutOfView, InvalidSpec
from cuboidpose.geometry import PointCloud, rotation_angle, rotation_about
from cuboidpose.synth import (
    _BLOCK_ROWS,
    BackgroundPlane,
    GroundTruth,
    _local_corners,
    _paint,
    _validate,
    inject_pose_error,
)

FACE = CuboidSpec(0.30, 0.20, 0.05)


def test_frontal_depth_is_exact(frontal):
    """A noiseless frontal face at one meter reads exactly 1.000 after the
    millimeter quantization."""
    vals = frontal.depth.data[frontal.gt.face_mask.data != 0]
    assert np.all(vals == 1.0)


def test_background_depth(frontal):
    off = frontal.depth.data[frontal.gt.face_mask.data == 0]
    assert np.all(off[off > 0] == 1.5)


def test_mask_count_matches_projected_area():
    # half-pixel principal point puts the face edges between pixel centers,
    # so the rasterized area equals the analytic one exactly
    intr = CameraIntrinsics(
        fx=920.0, fy=920.0, cx=639.5, cy=359.5, width=1280, height=720
    )
    spec = SceneSpec(FACE, Pose(np.eye(3), np.array([0.0, 0.0, 1.0])), intr)
    _, _, mask, _, _ = render_scene(spec)
    analytic = (920.0 * 0.30) * (920.0 * 0.20)
    assert abs(mask.count() - analytic) <= 0.01 * analytic


def test_corner_dropout_bites_locally():
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    gt_pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    whole = SceneSpec(FACE, gt_pose, intr)
    bitten = SceneSpec(FACE, gt_pose, intr, dropout=[(0, 0.1)])
    _, d0, m0, _, _ = render_scene(whole)
    _, d1, m1, _, _ = render_scene(bitten)
    # the paint is still visible where the depth sensor dropped out
    assert np.array_equal(m1.data, m0.data)
    lost = (m0.data != 0) & (d0.data > 0) & (d1.data == 0)
    frac = lost.sum() / m0.count()
    assert 0.005 <= frac <= 0.06

    # every removed pixel deprojects near the chosen corner
    ys, xs = np.nonzero(lost)
    pts = np.column_stack([(xs - 320.0) / 600.0, (ys - 240.0) / 600.0, np.ones(len(xs))])
    corner = np.array([-0.15, -0.10, 1.0])
    radius = 0.1 * np.hypot(0.30, 0.20)
    assert np.linalg.norm(pts - corner, axis=1).max() <= radius + 0.003


def test_noise_spreads_depth():
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    spec = SceneSpec(
        FACE, Pose(np.eye(3), np.array([0.0, 0.0, 1.0])), intr, noise_sigma=0.002
    )
    _, depth, _, _, gt = render_scene(spec)
    vals = depth.data[gt.face_mask.data != 0]
    assert 0.001 < vals.std() < 0.003
    assert abs(vals.mean() - 1.0) < 0.0005


def test_same_seed_bit_identical():
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    def build():
        return SceneSpec(
            FACE,
            Pose(rotation_about([0.1, 0.0, 1.0], 0.2), np.array([0.01, 0.0, 1.0])),
            intr,
            noise_sigma=0.001,
            dropout=[(2, 0.08)],
            seed=77,
        )
    rgb0, d0, m0, c0, _ = render_scene(build())
    rgb1, d1, m1, c1, _ = render_scene(build())
    assert np.array_equal(rgb0, rgb1)
    assert np.array_equal(d0.data, d1.data)
    assert np.array_equal(m0.data, m1.data)
    assert np.array_equal(c0.points, c1.points)


def test_different_seed_differs():
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    def build(seed):
        return SceneSpec(
            FACE, Pose(np.eye(3), np.array([0.0, 0.0, 1.0])), intr,
            noise_sigma=0.001, seed=seed,
        )
    _, d0, _, _, _ = render_scene(build(1))
    _, d1, _, _, _ = render_scene(build(2))
    assert not np.array_equal(d0.data, d1.data)


def test_inject_zero_is_identity():
    gt = Pose(rotation_about([0.2, 0.1, 1.0], 0.5), np.array([0.01, 0.02, 1.1]))
    out = inject_pose_error(gt, 0.0, np.zeros(3))
    assert_allclose(out.r, gt.r, atol=1e-15)
    assert_allclose(out.t, gt.t, atol=1e-15)


def test_inject_yaw_rotates_x_axis():
    gt = Pose(rotation_about([0.3, -0.2, 1.0], 0.4), np.array([0.0, 0.0, 1.0]))
    out = inject_pose_error(gt, 3.0, np.zeros(3))
    ang = np.degrees(np.arccos(np.clip(out.r[:, 0] @ gt.r[:, 0], -1.0, 1.0)))
    assert ang == pytest.approx(3.0, abs=1e-9)
    # the face normal is the rotation axis, so it stays put
    assert_allclose(out.r[:, 2], gt.r[:, 2], atol=1e-12)


def test_inject_translation_is_camera_frame():
    gt = Pose(rotation_about([0.1, 0.4, 1.0], -0.3), np.array([0.0, 0.0, 1.0]))
    dt = np.array([0.0008, 0.0031, -0.0002])
    out = inject_pose_error(gt, 0.0, dt)
    assert_allclose(out.t - gt.t, dt, atol=1e-12)


def test_inject_then_correct_closes_the_loop():
    gt = Pose(rotation_about([0.1, -0.3, 1.0], 0.35), np.array([0.02, -0.01, 1.0]))
    start = inject_pose_error(gt, 2.47, np.array([0.8, 3.1, -0.2]) / 1000.0)
    ref = make_reference_face(FACE, 0.01)
    t1 = gt.transform([-0.15, 0.0, 0.0])
    t2 = gt.transform([0.15, 0.0, 0.0])
    fixed, _ = correct_pose(start, ref, t1, t2)
    # the angle metric itself bottoms out near sqrt(eps) radians
    assert np.degrees(rotation_angle(fixed.r @ gt.r.T)) < 1e-4
    assert np.linalg.norm(fixed.t - gt.t) < 1e-9


def test_face_out_of_view():
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    spec = SceneSpec(FACE, Pose(np.eye(3), np.array([2.0, 0.0, 1.0])), intr)
    with pytest.raises(FaceOutOfView):
        render_scene(spec)


def test_scene_validation():
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidSpec):
        render_scene(SceneSpec(FACE, pose, intr, background=[BackgroundPlane(-1.0)]))
    with pytest.raises(InvalidSpec):
        render_scene(SceneSpec(FACE, pose, intr, dropout=[(4, 0.1)]))
    with pytest.raises(InvalidSpec):
        render_scene(SceneSpec(FACE, pose, intr, noise_sigma=-0.001))
    # the rendered depth runs no finite check, so NaN is refused up front
    with pytest.raises(InvalidSpec):
        render_scene(SceneSpec(FACE, pose, intr, noise_sigma=float("nan")))
    with pytest.raises(InvalidSpec):
        render_scene(SceneSpec(FACE, pose, intr, background=[BackgroundPlane(float("nan"))]))


# ---------------------------------------------------------------- render oracle

def render_scene_oracle(spec):
    """The renderer as it was before its per-channel kernels: colours are
    broadcast over the channel axis, the noise goes through `np.where` and the
    cloud is gathered at `np.nonzero` pixels. `render_scene` must match it bit
    for bit."""
    _validate(spec)
    intr = spec.intrinsics
    h, w = intr.height, intr.width
    depth = np.zeros((h, w))
    face_mask = np.zeros((h, w), dtype=bool)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[:] = spec.void_color

    for bp in spec.background:
        closer = (depth == 0) | (bp.depth < depth)
        depth[closer] = bp.depth
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
        face_mask[y0 : y1 + 1, x0 : x1 + 1][wins] = True
        rgb[y0 : y1 + 1, x0 : x1 + 1][wins] = spec.face_color
        face_lx, face_ly, face_wins = lx, ly, wins

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
    gt = GroundTruth(pose=pose, face_mask=mask_img)
    return rgb, depth_img, mask_img, PointCloud(pts), gt


TILT = rotation_about([0.2, -0.1, 1.0], 0.6)

RENDER_CASES = {
    # no background: most pixels have no depth, so the cloud is the face alone
    "no_background": dict(noise_sigma=0.001),
    # the nearest plane wins whether it is drawn after a farther one or before
    "stacked_planes": dict(
        background=[
            BackgroundPlane(2.0, (30, 60, 90)),
            BackgroundPlane(1.4, (90, 20, 5)),
            BackgroundPlane(3.0, (5, 5, 250)),
        ]
    ),
    # a plane nearer than part of the face (0.957-1.043 m): the z-buffer
    # rejects about a quarter of the face pixels
    "plane_in_front": dict(
        pose=Pose(rotation_about([1.0, 0.0, 0.0], 0.45), np.array([0.0, 0.0, 1.0])),
        background=[BackgroundPlane(1.02, (10, 200, 10)), BackgroundPlane(2.5)],
    ),
    "noise_and_dropout": dict(
        noise_sigma=0.002,
        dropout=[(0, 0.2), (2, 0.15)],
        background=[BackgroundPlane(1.6)],
        seed=9,
    ),
    # about a quarter of the face lies beyond the right image border
    "partly_out_of_frame": dict(
        pose=Pose(TILT, np.array([0.52, 0.05, 1.1])),
        noise_sigma=0.0005,
        dropout=[(1, 0.1)],
        background=[BackgroundPlane(1.8)],
    ),
    "noise_zero": dict(noise_sigma=0.0, background=[BackgroundPlane(1.5)]),
    # no plane, so the void shows; every colour has three distinct channels
    "custom_colors": dict(
        face_color=(17, 250, 3),
        void_color=(255, 0, 77),
        noise_sigma=0.001,
        seed=3,
    ),
    # noise drives many depths below zero, so the oracle's negative clip runs
    "noise_below_zero": dict(noise_sigma=0.6, background=[BackgroundPlane(1.6)]),
}


def assert_render_matches_oracle(spec):
    """Every output of `render_scene(spec)` equals the oracle's bit for bit;
    returns the oracle's depth and mask."""
    rgb, depth, mask, cloud, gt = render_scene(spec)
    o_rgb, o_depth, o_mask, o_cloud, o_gt = render_scene_oracle(spec)
    assert np.array_equal(rgb, o_rgb)
    assert depth.data.tobytes() == o_depth.data.tobytes()
    assert np.array_equal(mask.data, o_mask.data)
    assert np.array_equal(gt.face_mask.data, o_gt.face_mask.data)
    assert cloud.points.tobytes() == o_cloud.points.tobytes()
    return o_depth, o_mask


def render_case_spec(case, intr):
    kw = dict(RENDER_CASES[case])
    pose = kw.pop("pose", Pose(TILT, np.array([0.01, -0.02, 1.0])))
    return SceneSpec(FACE, pose, intr, **kw)


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_render_matches_oracle(case, intr640):
    assert_render_matches_oracle(render_case_spec(case, intr640))


def test_render_cloud_is_built_once_on_first_read(intr640, monkeypatch):
    """The cloud counts its points from the depth image, back-projects them
    only when `points` is first read, and keeps them for later reads."""
    calls = []

    def counting_deproject(*args):
        calls.append(args)
        return deproject_mask(*args)

    monkeypatch.setattr(synth, "deproject_mask", counting_deproject)
    spec = render_case_spec("noise_and_dropout", intr640)
    _, depth, _, cloud, _ = render_scene(spec)
    assert len(cloud) == np.count_nonzero(depth.data)
    assert calls == []
    points = cloud.points
    assert cloud.points is points
    assert len(calls) == 1
    assert points.tobytes() == render_scene_oracle(spec)[3].points.tobytes()


@pytest.mark.parametrize(
    "height", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
)
def test_render_row_blocks_match_oracle(height):
    """Images of one row, of one block give or take a row, and of a partial
    third block. fy grows with the height so the face always projects 1.2
    image heights tall: it overruns the top and bottom rows and so crosses
    every block edge."""
    intr = CameraIntrinsics(
        fx=600.0, fy=6.0 * height, cx=320.0, cy=height / 2.0, width=640, height=height
    )
    spec = SceneSpec(
        FACE,
        Pose(TILT, np.array([0.01, 0.0, 1.0])),
        intr,
        noise_sigma=0.001,
        dropout=[(0, 0.25), (3, 0.2)],
        background=[BackgroundPlane(1.6)],
        seed=4,
    )
    _, o_mask = assert_render_matches_oracle(spec)
    assert o_mask.count() > 0


def _spans_block_edge(rows_hit) -> bool:
    rows = np.flatnonzero(rows_hit)
    return len(rows) > 0 and rows[0] // _BLOCK_ROWS != rows[-1] // _BLOCK_ROWS


def test_render_face_and_hole_across_block_edge(intr640):
    spec = SceneSpec(
        FACE,
        Pose(TILT, np.array([0.0, -0.03, 1.0])),
        intr640,
        noise_sigma=0.002,
        dropout=[(1, 0.25)],
        background=[BackgroundPlane(1.5)],
        seed=12,
    )
    o_depth, o_mask = assert_render_matches_oracle(spec)
    face = o_mask.data != 0
    hole = face & (o_depth.data == 0)
    assert _spans_block_edge(face.any(axis=1))
    assert _spans_block_edge(hole.any(axis=1))


def test_render_face_out_of_the_bottom(intr640):
    """About a third of the face lies below the last, partial row block."""
    spec = SceneSpec(
        FACE,
        Pose(TILT, np.array([0.0, 0.34, 1.2])),
        intr640,
        noise_sigma=0.001,
        dropout=[(2, 0.2)],
        background=[BackgroundPlane(1.9)],
        seed=5,
    )
    _, o_mask = assert_render_matches_oracle(spec)
    assert o_mask.data[-1].any()
    assert _spans_block_edge(o_mask.data.any(axis=1))


def paint_oracle(rgb, color, where=None):
    """`_paint` as a per-channel fill, with or without `where`."""
    color = np.asarray(color, dtype=np.uint8).reshape(3)
    for c in range(3):
        if where is None:
            rgb[..., c] = color[c]
        else:
            np.copyto(rgb[..., c], color[c], where=where)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (4, 6), (720, 1280)])
@pytest.mark.parametrize("masked", [False, True])
def test_paint_matches_per_channel_fill(shape, masked):
    """The whole-image paint (row 0, then copied down) and the masked paint
    write the bytes of the per-channel fill, into a contiguous image and into
    a box view of a larger one, as the face paint writes it."""
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    big = rng.integers(0, 256, (shape[0] + 2, shape[1] + 3, 3), dtype=np.uint8)
    box = (slice(1, -1), slice(2, -1))
    where = rng.random(shape) < 0.5 if masked else None
    for color in [(0, 0, 0), (255, 255, 255), (200, 30, 41), [7, 250, 128]]:
        for image, part in [(big[box].copy(), ...), (big, box)]:
            got, want = image.copy(), image.copy()
            _paint(got[part], color, where)
            paint_oracle(want[part], color, where)
            assert got.tobytes() == want.tobytes()


def test_render_allocates_little_beyond_its_outputs():
    """One 1280x720 bench scene (noise, corner dropout, a background plane)
    may allocate at most 6 MB beyond its rgb and mask images: the depth keeps
    only the face's box and builds its frame when read, so a frame-sized
    float64 (7.4 MB) alone breaks the bound, and the cloud's points, built
    only when read, would be 22 MB."""
    config = BenchConfig(dropout_frac=0.1)
    scene_seed, gt_pose, corner, _, _ = draw_trial(config, 0)
    spec = scene_spec_for(config, scene_seed, gt_pose, corner)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rgb, depth, mask, cloud, gt = render_scene(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    returned = rgb.nbytes + mask.data.nbytes
    assert len(cloud) > 0.9 * 1280 * 720
    assert peak - returned <= 6e6, f"{(peak - returned) / 1e6:.1f} MB transient"


# ------------------------------------------------------- depth read by the box

_SIGMAS = st.sampled_from([0.0, 0.0005, 0.002, 0.6])
# few distinct depths, so two planes often lie at one depth
_PLANE = st.builds(
    BackgroundPlane,
    st.sampled_from([0.9, 1.05, 1.5, 2.0]),
    st.tuples(*[st.integers(0, 255)] * 3),
)
_DROPOUT = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.1, 0.29])), max_size=2)


@st.composite
def small_scenes(draw):
    """A small frame (up to three row blocks tall) with 0-2 background
    planes, noise, dropout and a tilted face that the border often cuts."""
    h = draw(st.integers(1, 3 * _BLOCK_ROWS + 5))
    w = draw(st.integers(2, 90))
    f = draw(st.floats(0.5, 3.0)) * max(h, w)
    intr = CameraIntrinsics(fx=f, fy=f, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    axis = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 2))
    pose = Pose(
        rotation_about([axis[0], axis[1], 1.0], draw(st.floats(-0.6, 0.6))),
        np.array([draw(st.floats(-0.25, 0.25)), draw(st.floats(-0.2, 0.2)), 1.0]),
    )
    return SceneSpec(
        FACE,
        pose,
        intr,
        noise_sigma=draw(_SIGMAS),
        dropout=draw(_DROPOUT),
        background=draw(st.lists(_PLANE, max_size=2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _boxes(draw, h, w, face_box):
    """Boxes inside, across and outside the face box, a single pixel, an
    empty box, the full frame and a few drawn at random."""
    fr, fc = face_box
    g = draw(st.integers(1, 20))
    boxes = [
        face_box,
        (slice(fr.start + 1, fr.stop - 1), slice(fc.start + 1, fc.stop - 1)),
        (slice(max(fr.start - g, 0), fr.stop + g), slice(max(fc.start - g, 0), fc.stop + g)),
        (slice(0, fr.start), slice(0, w)),
        (slice(fr.stop, h), slice(0, w)),
        (slice(0, h), slice(0, fc.start)),
        (slice(fr.start, fr.stop), slice(fc.stop, w)),
        (slice(0, h), slice(0, w)),
        (slice(None), slice(None)),
        (slice(h // 2, h // 2), slice(0, w)),
    ]
    r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    boxes.append((slice(r, r + 1), slice(c, c + 1)))
    for _ in range(3):
        r0, r1 = sorted(draw(st.tuples(st.integers(0, h), st.integers(0, h))))
        c0, c1 = sorted(draw(st.tuples(st.integers(0, w), st.integers(0, w))))
        boxes.append((slice(r0, r1), slice(c0, c1)))
    return boxes


def _assert_blocks(depth, want, boxes):
    for box in boxes:
        got = depth.block(box)
        assert got.shape == want[box].shape, box
        assert got.tobytes() == want[box].tobytes(), box


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rendered_depth_blocks_match_oracle(data):
    """Every box of the rendered depth equals the oracle's frame at that box
    bit for bit, before and after the full frame is built; so do the frame
    itself, the RGB image and the mask."""
    spec = data.draw(small_scenes())
    try:
        o_rgb, o_depth, o_mask, _, _ = render_scene_oracle(spec)
    except FaceOutOfView:
        with pytest.raises(FaceOutOfView):
            render_scene(spec)
        return
    rgb, depth, mask, _, _ = render_scene(spec)
    assert rgb.tobytes() == o_rgb.tobytes()
    assert mask.data.tobytes() == o_mask.data.tobytes()
    h, w = o_depth.data.shape
    boxes = _boxes(data.draw, h, w, pixel_box(o_mask.data))
    _assert_blocks(depth, o_depth.data, boxes)
    assert "data" not in depth.__dict__
    # a strided box reads the full frame
    _assert_blocks(depth, o_depth.data, [(slice(None, None, 2), slice(1, None, 3))])
    assert depth.data.tobytes() == o_depth.data.tobytes()
    _assert_blocks(depth, o_depth.data, boxes)
