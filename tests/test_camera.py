import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from cuboidpose import (
    CameraIntrinsics,
    DepthImage,
    MaskImage,
    deproject_mask,
    fit_obb,
    inverse_project,
    project,
)
from cuboidpose.camera import back_project
from cuboidpose.errors import (
    BehindCamera,
    DimensionMismatch,
    InvalidDepth,
    OutOfBounds,
)

WIDE = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=1280, height=720)


def flat_depth(intr, value):
    return DepthImage(np.full((intr.height, intr.width), value))


def test_inverse_project_principal_point():
    p = inverse_project(WIDE, flat_depth(WIDE, 1.0), (320, 240))
    assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-12)


def test_inverse_project_off_axis():
    p = inverse_project(WIDE, flat_depth(WIDE, 1.0), (920, 240))
    assert_allclose(p, [1.0, 0.0, 1.0], atol=1e-12)
    p = inverse_project(WIDE, flat_depth(WIDE, 2.0), (320, 540))
    assert_allclose(p, [0.0, 1.0, 2.0], atol=1e-12)


def test_project_principal_point():
    (x, y), d = project(WIDE, [0.0, 0.0, 1.0])
    assert (x, y) == pytest.approx((320.0, 240.0))
    assert d == pytest.approx(1.0)


def test_project_off_axis():
    (x, y), _ = project(WIDE, [1.0, 0.0, 1.0])
    assert x == pytest.approx(920.0)
    assert y == pytest.approx(240.0)


def test_project_inverse_round_trip():
    """Pixel -> point -> pixel is exact for every valid pixel/depth pair."""
    rng = np.random.default_rng(1)
    depth = DepthImage(rng.uniform(0.4, 3.0, size=(WIDE.height, WIDE.width)))
    xs = rng.integers(0, WIDE.width, 200)
    ys = rng.integers(0, WIDE.height, 200)
    for x, y in zip(xs, ys):
        p = inverse_project(WIDE, depth, (x, y))
        (px, py), d = project(WIDE, p)
        assert abs(px - x) < 1e-9 and abs(py - y) < 1e-9
        assert abs(d - depth.data[y, x]) < 1e-12


def test_point_scales_linearly_with_depth():
    p1 = inverse_project(WIDE, flat_depth(WIDE, 1.0), (500, 100))
    p2 = inverse_project(WIDE, flat_depth(WIDE, 2.0), (500, 100))
    assert_allclose(p2, 2.0 * p1, atol=1e-12)


def test_inverse_project_errors():
    depth = flat_depth(WIDE, 1.0)
    with pytest.raises(OutOfBounds):
        inverse_project(WIDE, depth, (-1, 0))
    with pytest.raises(OutOfBounds):
        inverse_project(WIDE, depth, (WIDE.width, 0))
    hole = flat_depth(WIDE, 1.0)
    hole.data[240, 320] = 0.0
    with pytest.raises(InvalidDepth):
        inverse_project(WIDE, hole, (320, 240))


def test_project_behind_camera():
    with pytest.raises(BehindCamera):
        project(WIDE, [0.0, 0.0, -1.0])
    with pytest.raises(BehindCamera):
        project(WIDE, [0.1, 0.1, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.001, -5e-324])
def test_depth_image_rejects_nonfinite_and_negative(bad):
    """One bad pixel, first, inside or last, among valid and zero depths."""
    for at in [(0, 0), (2, 3), (3, 4)]:
        data = np.ones((4, 5))
        data[1] = 0.0
        data[at] = bad
        with pytest.raises(ValueError):
            DepthImage(data)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0)])
def test_depth_image_accepts_empty(shape):
    assert DepthImage(np.zeros(shape)).data.shape == shape


def test_depth_image_accepts_negative_zero():
    depth = DepthImage(np.full((4, 5), -0.0))
    assert np.signbit(depth.data).all()


def test_depth_image_accepts_all_zero():
    depth = DepthImage(np.zeros((4, 5), dtype=np.float32))
    assert depth.data.dtype == np.float64
    assert not depth.data.any()


def test_dimension_mismatch():
    small = DepthImage(np.ones((10, 10)))
    with pytest.raises(DimensionMismatch):
        inverse_project(WIDE, small, (5, 5))
    with pytest.raises(DimensionMismatch):
        deproject_mask(WIDE, flat_depth(WIDE, 1.0), MaskImage(np.zeros((10, 10), np.uint8)))


def test_deproject_empty_mask(intr640):
    mask = MaskImage(np.zeros((intr640.height, intr640.width), np.uint8))
    cloud = deproject_mask(intr640, DepthImage(np.ones((480, 640))), mask)
    assert len(cloud) == 0


def test_deproject_single_pixel(intr640):
    mask = MaskImage(np.zeros((480, 640), np.uint8))
    mask.data[240, 320] = 255
    cloud = deproject_mask(intr640, DepthImage(np.full((480, 640), 1.5)), mask)
    assert len(cloud) == 1
    assert_allclose(cloud.points[0], [0.0, 0.0, 1.5], atol=1e-12)


def test_deproject_counts_valid_pixels(frontal):
    """Every masked pixel with depth produces exactly one point."""
    mask = frontal.gt.face_mask
    n_valid = int(np.count_nonzero((mask.data != 0) & (frontal.depth.data > 0)))
    cloud = deproject_mask(frontal.intr, frontal.depth, mask)
    assert len(cloud) == n_valid


def test_deproject_skips_depth_holes(frontal):
    depth = DepthImage(frontal.depth.data.copy())
    ys, xs = np.nonzero(frontal.gt.face_mask.data)
    depth.data[ys[:50], xs[:50]] = 0.0
    cloud = deproject_mask(frontal.intr, depth, frontal.gt.face_mask)
    assert len(cloud) == frontal.gt.face_mask.count() - 50


def test_deprojected_face_matches_dimensions(frontal):
    """The rendered face deprojects to a 0.30 x 0.20 planar patch."""
    cloud = deproject_mask(frontal.intr, frontal.depth, frontal.gt.face_mask)
    obb = fit_obb(cloud)
    # one pixel at 1 m with f = 600 is 1.67 mm; allow two
    px = 2.0 * 1.0 / 600.0
    assert abs(obb.half_extents[0] - 0.15) < px
    assert abs(obb.half_extents[1] - 0.10) < px
    assert obb.half_extents[2] < 1e-6


def deproject_mask_oracle(intr, depth, mask):
    """The full-frame scan: every pixel tested, gathered in row-major order;
    `deproject_mask` must match it bit for bit."""
    ys, xs = np.nonzero((mask.data != 0) & (depth.data > 0))
    return back_project(intr, xs, ys, depth.data[ys, xs])


@st.composite
def masked_depths(draw):
    """Small frames with zero-depth pixels scattered through them, and masks
    that are empty, one pixel in a corner, a band along one border, a
    rectangle anywhere (often touching borders) or arbitrary pixels."""
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    intr = CameraIntrinsics(
        fx=draw(st.floats(50.0, 1000.0)),
        fy=draw(st.floats(50.0, 1000.0)),
        cx=w / 2.0,
        cy=h / 2.0,
        width=w,
        height=h,
    )
    depth = draw(
        arrays(
            np.float64,
            (h, w),
            elements=st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
            fill=st.nothing(),
        )
    )
    mask = np.zeros((h, w), np.uint8)
    kind = draw(st.sampled_from(["empty", "corner", "border", "rect", "pixels"]))
    if kind == "corner":
        mask[draw(st.sampled_from([0, h - 1])), draw(st.sampled_from([0, w - 1]))] = 255
    elif kind == "border":
        every = slice(None)
        sides = [(0, every), (h - 1, every), (every, 0), (every, w - 1)]
        mask[draw(st.sampled_from(sides))] = 255
    elif kind == "rect":
        r0, r1 = sorted(draw(st.lists(st.integers(0, h), min_size=2, max_size=2)))
        c0, c1 = sorted(draw(st.lists(st.integers(0, w), min_size=2, max_size=2)))
        mask[r0:r1, c0:c1] = 255
    elif kind == "pixels":
        values = st.sampled_from([0, 1, 255])
        mask = draw(arrays(np.uint8, (h, w), elements=values, fill=st.nothing()))
    return intr, DepthImage(depth), MaskImage(mask)


@settings(max_examples=300, deadline=None)
@given(masked_depths())
def test_deproject_matches_full_frame_oracle(case):
    """Cropping to the mask's box keeps every point, its bits and its order."""
    intr, depth, mask = case
    got = deproject_mask(intr, depth, mask).points
    want = deproject_mask_oracle(intr, depth, mask)
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_deproject_matches_oracle_on_a_face_with_holes(frontal):
    depth = DepthImage(frontal.depth.data.copy())
    ys, xs = np.nonzero(frontal.gt.face_mask.data)
    depth.data[ys[::7], xs[::7]] = 0.0
    got = deproject_mask(frontal.intr, depth, frontal.gt.face_mask).points
    want = deproject_mask_oracle(frontal.intr, depth, frontal.gt.face_mask)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(479, 640), (480, 639), (481, 641)])
def test_deproject_size_mismatch(intr640, shape):
    """A depth or mask image of another size raises before any crop."""
    good_depth = DepthImage(np.ones((480, 640)))
    good_mask = MaskImage(np.full((480, 640), 255, np.uint8))
    with pytest.raises(DimensionMismatch):
        deproject_mask(intr640, good_depth, MaskImage(np.full(shape, 255, np.uint8)))
    with pytest.raises(DimensionMismatch):
        deproject_mask(intr640, DepthImage(np.ones(shape)), good_mask)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=600.0, fy=np.nan, cx=320.0, cy=240.0, width=640, height=480)
