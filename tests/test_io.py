import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cuboidpose import CameraIntrinsics, CuboidSpec, DepthImage, MaskImage, Pose
from cuboidpose.camera import deproject_mask
from cuboidpose.errors import ParseError
from cuboidpose.geometry import rotation_about
from cuboidpose.io import (
    _read_pnm_header,
    load_intrinsics,
    load_pgm16,
    load_ppm,
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


def _pgm8_bytes(mask: MaskImage) -> bytes:
    """An 8-bit binary PGM of the mask: header, then one byte a pixel."""
    return f"P5\n{mask.width} {mask.height}\n255\n".encode() + mask.data.tobytes()


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mask = MaskImage((rng.uniform(size=(32, 40)) > 0.5).astype(np.uint8) * 255)
    path = tmp_path / "mask.pgm"
    save_pgm8(path, mask)
    assert path.read_bytes() == _pgm8_bytes(mask)


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


def _assert_ground_truth(kv, pose, cub):
    """The sidecar's pairs hold the row-major pose and the face sizes, each
    to the bit."""
    back = np.array([float(v) for v in kv["pose"].split()]).reshape(4, 4)
    assert back.tobytes() == pose.matrix.tobytes()
    dims = (float(kv["width"]), float(kv["height"]), float(kv["depth"]))
    assert CuboidSpec(*dims) == cub


def test_ground_truth_round_trip(tmp_path):
    pose = Pose(rotation_about([0.3, 0.1, 1.0], 0.37), np.array([0.012, -0.004, 1.01]))
    cub = CuboidSpec(0.30, 0.20, 0.05)
    path = tmp_path / "gt.txt"
    save_ground_truth(path, pose, cub, extra={"note": "unit-test"})
    kv = read_kv(path)
    _assert_ground_truth(kv, pose, cub)
    assert kv["note"] == "unit-test"


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
    assert np.array_equal(load_ppm(d / "rgb.ppm"), frontal.rgb)
    depth = load_pgm16(d / "depth.pgm")
    assert np.abs(depth.data - frontal.depth.data).max() <= 0.0005 + 1e-12
    assert (d / "mask.pgm").read_bytes() == _pgm8_bytes(frontal.mask)
    assert load_intrinsics(d / "intrinsics.txt") == frontal.intr
    kv = read_kv(d / "ground_truth.txt")
    _assert_ground_truth(kv, frontal.spec.gt_pose, frontal.spec.cuboid)


# ------------------------------------------------ loaders against the old bodies

def _old_load_pgm16(path) -> np.ndarray:
    """The full-frame conversion `load_pgm16` made at load, kept as the
    oracle: every pixel to float64 meters at once."""
    with open(path, "rb") as f:
        data = f.read()
    w, h, maxval, pos = _read_pnm_header(data, b"P5", path)
    assert maxval == 65535
    raw = np.frombuffer(data, dtype=">u2", offset=pos, count=w * h)
    meters = raw.reshape(h, w).astype(np.float64)
    meters /= 1000.0
    return meters


def _write_pgm16(path, mm: np.ndarray) -> None:
    h, w = mm.shape
    path.write_bytes(f"P5\n{w} {h}\n65535\n".encode() + mm.astype(">u2").tobytes())


_sizes = st.tuples(st.integers(1, 23), st.integers(1, 31))


@st.composite
def millimeters_and_mask(draw):
    """A uint16 depth image of odd or even size, often holding 0 and 65535,
    with a mask that is random, empty, one pixel or the image border."""
    h, w = draw(_sizes)
    edges = st.sampled_from([0, 1, 999, 65535])
    mm = draw(arrays(np.uint16, (h, w), elements=edges | st.integers(0, 65535)))
    kind = draw(st.sampled_from(["random", "empty", "pixel", "border"]))
    mask = np.zeros((h, w), dtype=np.uint8)
    if kind == "random":
        mask = draw(arrays(np.uint8, (h, w), elements=st.sampled_from([0, 255])))
    elif kind == "pixel":
        mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = 255
    elif kind == "border":
        mask[[0, -1], :] = 255
        mask[:, [0, -1]] = 255
    return mm, mask


_tmp_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_tmp_settings
@given(millimeters_and_mask())
def test_load_pgm16_matches_full_conversion(tmp_path, case):
    """The loaded image's full frame, and the cloud `deproject_mask` reads
    from its box alone, are bit for bit those of converting every pixel at
    load; so is a deprojection made after the full frame was read."""
    mm, mask_data = case
    h, w = mm.shape
    path = tmp_path / "depth.pgm"
    _write_pgm16(path, mm)
    want = _old_load_pgm16(path)
    intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=w / 2, cy=h / 2, width=w, height=h)
    mask = MaskImage(mask_data)
    want_cloud = deproject_mask(intr, DepthImage(want), mask).points

    boxed = load_pgm16(path)
    assert (boxed.width, boxed.height) == (w, h)
    assert deproject_mask(intr, boxed, mask).points.tobytes() == want_cloud.tobytes()
    full = load_pgm16(path)
    assert full.data.dtype == np.float64
    assert full.data.tobytes() == want.tobytes()
    assert deproject_mask(intr, full, mask).points.tobytes() == want_cloud.tobytes()


def test_loaded_depth_deprojects_what_was_written(tmp_path):
    """Once the full frame has been read, a write to it reaches the cloud."""
    path = tmp_path / "depth.pgm"
    _write_pgm16(path, np.full((6, 8), 1000, dtype=np.uint16))
    depth = load_pgm16(path)
    depth.data[2, 3] = 0.0
    intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=4.0, cy=3.0, width=8, height=6)
    cloud = deproject_mask(intr, depth, MaskImage(np.ones((6, 8))))
    assert len(cloud) == 6 * 8 - 1


@_tmp_settings
@given(_sizes.flatmap(lambda hw: arrays(np.uint8, hw + (3,))))
def test_load_ppm_returns_a_writable_image(tmp_path, rgb):
    path = tmp_path / "img.ppm"
    save_ppm(path, rgb)
    back = load_ppm(path)
    assert back.shape == rgb.shape and back.dtype == np.uint8
    assert back.tobytes() == rgb.tobytes()
    assert back.flags.writeable
    back[0, 0] = 7  # writable in fact, not only flagged so


def _pgm16_bytes():
    return b"P5\n3 2\n65535\n" + np.arange(6, dtype=">u2").tobytes()


def _ppm_bytes():
    return b"P6\n3 2\n255\n" + bytes(range(18))


@pytest.mark.parametrize(
    "load, data",
    [
        pytest.param(load_pgm16, _pgm16_bytes()[:-1], id="pgm16-odd-truncation"),
        pytest.param(load_pgm16, _pgm16_bytes()[:-2], id="pgm16-one-pixel-short"),
        pytest.param(load_pgm16, b"P5\n3 2\n65535", id="pgm16-header-only"),
        pytest.param(
            load_pgm16, _pgm16_bytes().replace(b"65535", b"255  "), id="pgm16-maxval"
        ),
        pytest.param(
            load_pgm16, b"P5\n-3 -2\n65535\n" + bytes(12), id="pgm16-negative-size"
        ),
        pytest.param(load_ppm, _ppm_bytes()[:-1], id="ppm-truncated"),
        pytest.param(load_ppm, b"P6\n3 2\n25", id="ppm-truncated-header"),
        pytest.param(load_ppm, _ppm_bytes().replace(b"255", b"65535"), id="ppm-maxval"),
        pytest.param(load_ppm, b"P5" + _ppm_bytes()[2:], id="ppm-magic"),
        pytest.param(load_ppm, b"P6\n3 x\n255\n" + bytes(18), id="ppm-non-numeric"),
    ],
)
def test_loaders_raise_parse_error_at_load(tmp_path, load, data):
    path = tmp_path / "bad.pnm"
    path.write_bytes(data)
    with pytest.raises(ParseError):
        load(path)
