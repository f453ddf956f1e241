import numpy as np
import pytest
from numpy.testing import assert_allclose

from cuboidpose import CameraIntrinsics, CuboidSpec, DepthImage, MaskImage, Pose
from cuboidpose.errors import ParseError
from cuboidpose.geometry import rotation_about
from cuboidpose.io import (
    load_ground_truth,
    load_intrinsics,
    load_pgm8,
    load_pgm16,
    load_ppm,
    load_scene,
    read_kv,
    save_ground_truth,
    save_intrinsics,
    save_pgm8,
    save_pgm16,
    save_ppm,
    save_scene,
    write_kv,
)


def test_depth_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    depth = DepthImage(rng.uniform(0.2, 3.0, size=(48, 64)))
    path = tmp_path / "depth.pgm"
    save_pgm16(path, depth)
    back = load_pgm16(path)
    assert back.data.shape == (48, 64)
    # sixteen-bit millimeters keep half a millimeter
    assert np.abs(back.data - depth.data).max() <= 0.0005 + 1e-12


def test_depth_round_trip_preserves_holes(tmp_path):
    depth = DepthImage(np.ones((8, 8)))
    depth.data[3, 4] = 0.0
    path = tmp_path / "depth.pgm"
    save_pgm16(path, depth)
    assert load_pgm16(path).data[3, 4] == 0.0


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mask = MaskImage((rng.uniform(size=(32, 40)) > 0.5).astype(np.uint8) * 255)
    path = tmp_path / "mask.pgm"
    save_pgm8(path, mask)
    assert np.array_equal(load_pgm8(path).data, mask.data)


def test_rgb_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, size=(30, 20, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    save_ppm(path, rgb)
    assert np.array_equal(load_ppm(path), rgb)


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(ParseError):
        load_pgm16(path)


def test_kv_round_trip(tmp_path):
    path = tmp_path / "conf.txt"
    pairs = {"alpha": "1.5", "name": "face", "count": "30"}
    write_kv(path, pairs)
    assert read_kv(path) == pairs


def test_kv_comments_and_blanks(tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("# heading\n\nalpha=2\n  beta = 3 \n")
    kv = read_kv(path)
    assert kv == {"alpha": "2", "beta": "3"}


def test_kv_bad_line(tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("alpha\n")
    with pytest.raises(ParseError):
        read_kv(path)


def test_intrinsics_round_trip(tmp_path):
    intr = CameraIntrinsics(fx=920.0, fy=915.5, cx=641.25, cy=359.75, width=1280, height=720)
    path = tmp_path / "intrinsics.txt"
    save_intrinsics(path, intr)
    back = load_intrinsics(path)
    assert back == intr


def test_ground_truth_round_trip(tmp_path):
    pose = Pose(rotation_about([0.3, 0.1, 1.0], 0.37), np.array([0.012, -0.004, 1.01]))
    cub = CuboidSpec(0.30, 0.20, 0.05)
    path = tmp_path / "gt.txt"
    save_ground_truth(path, pose, cub, extra={"note": "unit-test"})
    back_pose, back_cub, extra = load_ground_truth(path)
    assert_allclose(back_pose.matrix, pose.matrix, atol=1e-12)
    assert back_cub == cub
    assert extra["note"] == "unit-test"


def test_scene_round_trip(tmp_path, frontal):
    d = tmp_path / "scene"
    save_scene(
        d,
        frontal.rgb,
        frontal.depth,
        frontal.mask,
        frontal.intr,
        frontal.spec.gt_pose,
        frontal.spec.cuboid,
    )
    rgb, depth, mask, intr, pose, cub, extra = load_scene(d)
    assert np.array_equal(rgb, frontal.rgb)
    assert np.abs(depth.data - frontal.depth.data).max() <= 0.0005 + 1e-12
    assert np.array_equal(mask.data, frontal.mask.data)
    assert intr == frontal.intr
    assert_allclose(pose.matrix, frontal.spec.gt_pose.matrix, atol=1e-12)
    assert cub == frontal.spec.cuboid
