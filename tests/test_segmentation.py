import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from cuboidpose import (
    CameraIntrinsics,
    DepthImage,
    HsvRange,
    MaskImage,
    PointCloud,
    RoiSpec,
    deproject_mask,
    estimate_normals,
    fit_obb,
    fit_quadrilateral,
    hsv_threshold,
    largest_component,
    region_growing,
    roi_filter,
    target_axis_points,
)
from cuboidpose.errors import (
    InvalidDepth,
    NoComponent,
    NoRoiMatch,
    NotQuadrilateralLike,
)
from cuboidpose import segmentation
from cuboidpose.bench import BenchConfig, draw_trial, scene_spec_for
from cuboidpose.camera import project
from cuboidpose.geometry import Pose, rotation_about, rotation_z
from cuboidpose.segmentation import (
    _HSV_BAND_ROWS,
    _reduce_hull,
    _refine_quad,
    _shoelace,
    rgb_to_hsv,
)
from cuboidpose.synth import BackgroundPlane, SceneSpec, render_scene
from conftest import FACE, count_labels, face_plane

RED = HsvRange(h_lo=340.0, h_hi=20.0, s_lo=0.4, s_hi=1.0, v_lo=0.2, v_hi=1.0)


def solid(color, shape=(48, 64)):
    img = np.empty(shape + (3,), dtype=np.uint8)
    img[:] = color
    return img


def rect_mask(w, h, angle_deg, shape=(480, 640), center=(320, 240)):
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    a = np.radians(angle_deg)
    dx, dy = xs - center[0], ys - center[1]
    u = dx * np.cos(a) + dy * np.sin(a)
    v = -dx * np.sin(a) + dy * np.cos(a)
    inside = (np.abs(u) <= w / 2.0) & (np.abs(v) <= h / 2.0)
    return MaskImage(np.where(inside, 255, 0).astype(np.uint8))


def ideal_corners(w, h, angle_deg, center=(320, 240)):
    a = np.radians(angle_deg)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    local = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    return local @ rot.T + np.asarray(center)


def max_corner_error(quad, ideal):
    return max(np.min(np.linalg.norm(ideal - c, axis=1)) for c in quad.corners)


# ---------------------------------------------------------------- color mask

def test_hsv_all_red():
    mask = hsv_threshold(solid((200, 40, 40)), RED)
    assert mask.count() == mask.width * mask.height


def test_hsv_all_blue():
    assert hsv_threshold(solid((40, 60, 200)), RED).count() == 0


def test_hsv_rejects_gray_and_dark():
    assert hsv_threshold(solid((120, 120, 120)), RED).count() == 0
    assert hsv_threshold(solid((30, 5, 5)), RED).count() == 0


def test_hsv_wraps_through_zero():
    # both sides of the hue seam count as red
    assert hsv_threshold(solid((200, 40, 60)), RED).count() > 0  # pinkish side
    assert hsv_threshold(solid((200, 60, 40)), RED).count() > 0  # orange side


def test_hsv_matches_rendered_face(frontal):
    mask = hsv_threshold(frontal.rgb, RED)
    want = frontal.gt.face_mask.count()
    assert abs(mask.count() - want) <= 0.01 * want


def test_hsv_range_validation():
    with pytest.raises(ValueError):
        HsvRange(h_lo=-5.0, h_hi=20.0)
    with pytest.raises(ValueError):
        HsvRange(h_lo=0.0, h_hi=10.0, s_lo=1.5)


def rgb_to_hsv_oracle(rgb):
    """The hexcone formula with v and the chroma reduced over the colour axis;
    `rgb_to_hsv` must match it bit for bit."""
    f = rgb.astype(np.float64) / 255.0
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    v = f.max(axis=-1)
    c = v - f.min(axis=-1)
    h = np.zeros_like(v)
    nz = c > 0
    rmax = nz & (v == r)
    gmax = nz & ~rmax & (v == g)
    bmax = nz & ~rmax & ~gmax
    h[rmax] = np.mod((g[rmax] - b[rmax]) / c[rmax], 6.0)
    h[gmax] = (b[gmax] - r[gmax]) / c[gmax] + 2.0
    h[bmax] = (r[bmax] - g[bmax]) / c[bmax] + 4.0
    h *= 60.0
    s = np.where(v > 0, c / np.where(v > 0, v, 1.0), 0.0)
    return h, s, v


def full_frame_hsv_mask(rgb, rng):
    """Oracle: the HSV box applied to every pixel of the frame."""
    h, s, v = rgb_to_hsv_oracle(rgb)
    if rng.h_lo <= rng.h_hi:
        hue_ok = (h >= rng.h_lo) & (h <= rng.h_hi)
    else:
        hue_ok = (h >= rng.h_lo) | (h <= rng.h_hi)
    ok = hue_ok & (s >= rng.s_lo) & (s <= rng.s_hi) & (v >= rng.v_lo) & (v <= rng.v_hi)
    return np.where(ok, 255, 0).astype(np.uint8)


@st.composite
def mixed_images(draw):
    """Small uint8 images mixing arbitrary, gray, near-gray, saturated and
    tied-maximum pixels."""
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    # fill=st.nothing() draws every element, so pixels and kinds really mix
    # (by default most elements share one fill value)
    img = draw(arrays(np.uint8, (h, w, 3), fill=st.nothing())).copy()
    kind = draw(arrays(np.int8, (h, w), elements=st.integers(0, 4), fill=st.nothing()))
    pair = draw(arrays(np.int8, (h, w), elements=st.integers(0, 2), fill=st.nothing()))
    img[kind == 1] = img[kind == 1][:, :1]  # gray: all channels equal
    near = kind == 2  # one channel off gray by one level
    img[near, 1:] = img[near, :1]
    img[near, 2] = np.where(img[near, 0] < 255, img[near, 0] + 1, 254)
    sat = kind == 3  # fully saturated: some channel at 0, another at 255
    img[sat, 0] = 255
    img[sat, 2] = 0
    top = img.max(axis=-1)  # tied: two channels share the maximum
    for k, (i, j) in enumerate([(0, 1), (1, 2), (0, 2)]):
        tie = (kind == 4) & (pair == k)
        img[tie, i] = top[tie]
        img[tie, j] = top[tie]
    return img


_unit = st.floats(0.0, 1.0)
_hue = st.floats(0.0, 360.0, exclude_max=True)


@st.composite
def hsv_ranges(draw):
    """Hue ranges that wrap (h_lo > h_hi) and that do not; s_lo often 0.
    The s and v bounds are drawn in order, so most boxes are non-empty."""
    h_lo = draw(_hue)
    h_hi = draw(_hue)
    s_lo = draw(st.one_of(st.just(0.0), _unit))
    s_hi = draw(st.floats(s_lo, 1.0))
    v_lo = draw(_unit)
    return HsvRange(h_lo, h_hi, s_lo, s_hi, v_lo, draw(st.floats(v_lo, 1.0)))


@settings(max_examples=300, deadline=None)
@given(mixed_images())
def test_rgb_to_hsv_matches_oracle(img):
    """Per-channel max/min give the same h, s and v bits as the colour-axis
    reduction, for an image and for its flattened pixels, including pixels
    whose maximum is shared by two channels (red wins over green, green over
    blue)."""
    want = rgb_to_hsv_oracle(img)
    for rgb in (img, img.reshape(-1, 3)):
        got = rgb_to_hsv(rgb)
        for a, b in zip(got, want):
            assert a.dtype == np.float64
            assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(mixed_images(), hsv_ranges())
def test_hsv_matches_full_frame_oracle(img, rng):
    """Skipping gray pixels when s_lo > 0 leaves the mask unchanged, with and
    without hue wrap-around."""
    assert np.array_equal(hsv_threshold(img, rng).data, full_frame_hsv_mask(img, rng))


def hsv_candidates(img):
    """The pixels `hsv_threshold` hands to its box test when s_lo > 0,
    concatenated over the bands in raster order."""
    seen = []
    real = segmentation._in_box

    def box(pixels, rng):
        seen.append(pixels.copy())
        return real(pixels, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "_in_box", box)
        hsv_threshold(img, RED)
    return np.concatenate(seen)


def chromatic_pixels(img):
    """Oracle: the pixels whose channels are not all equal, in raster order."""
    r, g, b = (img[..., i] for i in range(3))
    return img[(r != g) | (g != b)]


@settings(max_examples=300, deadline=None)
@given(mixed_images())
def test_hsv_candidates_match_channel_oracle(img):
    assert np.array_equal(hsv_candidates(img), chromatic_pixels(img))


@pytest.mark.parametrize(
    "shape",
    [
        (1, 1), (1, 7), (3, 5), (5, 3), (7, 1), (4, 6),
        (_HSV_BAND_ROWS + 1, 3), (2 * _HSV_BAND_ROWS, 2),
    ],
)
@pytest.mark.parametrize("kind", ["gray", "chromatic", "last_pixel_green_blue"])
def test_hsv_candidates_small_and_odd_images(shape, kind):
    """The stride-3 pairs reach the last pixel's bytes and no further: an
    all-gray image has no candidate, and one whose pixels differ only in
    r != g or only in g != b (the last pixel's test reads the array's final
    byte) has every pixel. The last two shapes span two bands: each band's
    last pixel is tested, and the bands' candidates join in raster order."""
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    img = np.repeat(rng.integers(0, 256, shape + (1,), dtype=np.uint8), 3, axis=2)
    if kind != "gray":
        flat = img.reshape(-1, 3)
        flat[0::2, 0] ^= 1  # r != g, g == b
        flat[1::2, 2] ^= 1  # r == g, g != b
        if kind == "last_pixel_green_blue":
            flat[-1] = (9, 9, 10)
    want = chromatic_pixels(img)
    assert len(want) == (0 if kind == "gray" else img.shape[0] * img.shape[1])
    assert np.array_equal(hsv_candidates(img), want)


def all_colours():
    """Every 8-bit colour once, as a 4096 x 4096 image."""
    levels = np.arange(256, dtype=np.uint8)
    img = np.empty((256, 256, 256, 3), dtype=np.uint8)
    img[..., 0] = levels[:, None, None]
    img[..., 1] = levels[:, None]
    img[..., 2] = levels
    return img.reshape(4096, 4096, 3)


def float_ulp_range():
    """A box whose h_hi and s_lo are the float hue and saturation of
    (1, 51, 50). The float formula puts them an ulp off the exact 178.8 and
    50/51, on the side that keeps the colour in the box; the exact values, an
    ulp outside, would leave it out, so only the margin's fallback to the
    float formula keeps the masks equal."""
    h, s, _ = rgb_to_hsv_oracle(np.array([1, 51, 50], dtype=np.uint8))
    assert float(h) < 178.8 and float(s) > 50 / 51
    return HsvRange(90.0, float(h), float(s), 1.0, 0.0, 1.0)


@pytest.mark.slow
@pytest.mark.parametrize(
    "rng",
    [
        RED,
        HsvRange(0.0, 60.0, 0.0, 1.0, 0.0, 1.0),  # gray pixels are candidates
        HsvRange(120.0, 120.0, 0.5, 0.5, 0.0, 1.0),  # one hue, one saturation
        HsvRange(300.0, 60.0, 1 / 3, 2 / 3, 51 / 255, 204 / 255),
        HsvRange(180.0, 240.0, 0.0, 2 / 3, 0.0, 204 / 255),
        float_ulp_range(),
    ],
    ids=[
        "red_wrap", "gray_candidates", "single_hue_sat", "third_bounds",
        "blue_s0", "float_ulp_bounds",
    ],
)
def test_hsv_threshold_exact_on_every_colour(rng):
    """The integer box test agrees with float HSV on all 2^24 colours,
    including bounds that land exactly on integer hues (60, 120, 180, 240,
    300), saturations (1/3, 1/2, 2/3) and values (51/255, 204/255), and
    bounds an ulp from an exact value. The oracle runs on 256-row slices to
    keep its float arrays small."""
    img = all_colours()
    got = hsv_threshold(img, rng).data
    for top in range(0, img.shape[0], 256):
        want = full_frame_hsv_mask(img[top : top + 256], rng)
        assert np.array_equal(got[top : top + 256], want), top


# ---------------------------------------------------------------- clustering

def two_plane_cloud(rng, gap=0.2, n=2000):
    p1 = np.column_stack([rng.uniform(0, 0.2, n), rng.uniform(0, 0.15, n), np.full(n, 1.0)])
    p2 = p1.copy()
    p2[:, 2] += gap
    return p1, p2


def test_region_growing_parallel_planes():
    rng = np.random.default_rng(10)
    p1, p2 = two_plane_cloud(rng)
    cloud = PointCloud(np.vstack([p1, p2]))
    clusters = region_growing(cloud, *estimate_normals(cloud, radius=0.02))
    assert len(clusters) == 2
    sizes = sorted(len(c) for c in clusters)
    assert sizes[0] > 1800


def test_region_growing_dihedral_purity():
    """A 90 degree fold splits into two clusters that barely mix."""
    rng = np.random.default_rng(11)
    n = 2500
    p1 = np.column_stack([rng.uniform(0, 0.2, n), rng.uniform(0, 0.15, n), np.full(n, 1.0)])
    p2 = np.column_stack(
        [rng.uniform(0, 0.2, n), np.full(n, 0.15), 1.0 - rng.uniform(0, 0.12, n)]
    )
    cloud = PointCloud(np.vstack([p1, p2]))
    clusters = region_growing(
        cloud, *estimate_normals(cloud, radius=0.02), angle_thresh_deg=10.0
    )
    assert len(clusters) == 2
    for idx in clusters:
        frac = np.mean(idx < n)
        assert max(frac, 1.0 - frac) >= 0.98


def test_region_growing_single_plane():
    rng = np.random.default_rng(12)
    p1, _ = two_plane_cloud(rng)
    cloud = PointCloud(p1)
    assert len(region_growing(cloud, *estimate_normals(cloud, radius=0.02))) == 1


def test_region_growing_clusters_disjoint_and_sized():
    rng = np.random.default_rng(13)
    p1, p2 = two_plane_cloud(rng)
    cloud = PointCloud(np.vstack([p1, p2]))
    clusters = region_growing(
        cloud, *estimate_normals(cloud, radius=0.02), min_cluster=200
    )
    seen = set()
    for idx in clusters:
        assert len(idx) >= 200
        assert np.all(np.diff(idx) > 0)  # sorted index arrays
        as_set = set(idx.tolist())
        assert not (seen & as_set)
        seen |= as_set


def test_region_growing_needs_normals():
    """Normals are a required argument, one 3-vector per point."""
    cloud = PointCloud(np.zeros((10, 3)))
    with pytest.raises(TypeError):
        region_growing(cloud)
    for normals_shape in [(9, 3), (11, 3), (10, 2), (10,)]:
        with pytest.raises(ValueError):
            region_growing(cloud, np.zeros(normals_shape), np.zeros(10))


def test_region_growing_rejects_mismatched_shapes():
    """Row i of the normals and curvatures describes point i."""
    cloud = PointCloud(np.zeros((10, 3)))
    for normals_shape, curvatures_shape in [
        ((9, 3), (10,)),
        ((10, 3), (9,)),
        ((10, 2), (10,)),
        ((10, 3), (10, 1)),
        ((9, 3), (9,)),
    ]:
        with pytest.raises(ValueError):
            region_growing(cloud, np.zeros(normals_shape), np.zeros(curvatures_shape))


# ---------------------------------------------------------------- outline fit

def test_quadrilateral_axis_aligned():
    quad = fit_quadrilateral(rect_mask(100, 60, 0.0))
    assert max_corner_error(quad, ideal_corners(100, 60, 0.0)) <= 1.0


@pytest.mark.parametrize("angle", [10.0, 17.0, 30.0, 43.0])
def test_quadrilateral_rotated(angle):
    quad = fit_quadrilateral(rect_mask(100, 60, angle))
    assert max_corner_error(quad, ideal_corners(100, 60, angle)) <= 1.5


def test_quadrilateral_survives_corner_bite():
    mask = rect_mask(100, 60, 0.0)
    mask.data[210:220, 270:280] = 0  # eat a 10 px bite from one corner
    quad = fit_quadrilateral(mask)
    assert max_corner_error(quad, ideal_corners(100, 60, 0.0)) <= 3.0


def test_quadrilateral_corner_order(frontal):
    quad = fit_quadrilateral(frontal.gt.face_mask)
    # starts nearest the image origin and runs counter-clockwise in pixel axes
    d = np.linalg.norm(quad.corners, axis=1)
    assert d[0] == min(d)
    assert quad.area > 0


def test_quadrilateral_empty_mask():
    with pytest.raises(NoComponent):
        fit_quadrilateral(MaskImage(np.zeros((100, 100), np.uint8)))


def test_quadrilateral_min_area():
    mask = MaskImage(np.zeros((100, 100), np.uint8))
    mask.data[50:53, 50:53] = 255
    with pytest.raises(NoComponent):
        fit_quadrilateral(mask, min_area=100)


def test_quadrilateral_degenerate_line():
    mask = MaskImage(np.zeros((100, 100), np.uint8))
    mask.data[50, 10:90] = 255
    with pytest.raises(NotQuadrilateralLike):
        fit_quadrilateral(mask, min_area=10)


def test_quadrilateral_picks_largest_component():
    mask = rect_mask(100, 60, 20.0)
    mask.data[5:15, 5:25] = 255  # small distractor blob
    quad = fit_quadrilateral(mask)
    assert max_corner_error(quad, ideal_corners(100, 60, 20.0)) <= 1.5


def full_frame_outline(mask):
    """Oracle: the pixels of the largest component and its outline pixels, the
    hull and polish input, labelled and eroded on the whole frame."""
    labeled, _ = ndimage.label(mask.data != 0, structure=np.ones((3, 3), dtype=int))
    component = labeled == np.argmax(np.bincount(labeled.ravel())[1:]) + 1
    ys, xs = np.nonzero(component)
    by, bx = np.nonzero(component & ~ndimage.binary_erosion(component))
    return np.column_stack([xs, ys]).astype(float), np.column_stack([bx, by]).astype(float)


def all_pixel_quad(mask):
    """Oracle: the outline with Qhull run over every pixel of the largest
    component rather than its outline pixels alone."""
    pts, boundary = full_frame_outline(mask)
    poly = pts[ConvexHull(pts).vertices]
    if _shoelace(poly) < 0:
        poly = poly[::-1]
    while len(poly) > 4:
        poly = merge_least_area_edge_loop(poly)
    if _shoelace(poly) < 0:
        poly = poly[::-1]
    polished = _refine_quad(poly, boundary)
    if polished is not None:
        poly = polished
    key = np.lexsort((poly[:, 0], poly[:, 1], (poly ** 2).sum(axis=1)))
    return np.roll(poly, -int(key[0]), axis=0)


def fit_seen_inputs(monkeypatch, mask):
    """Fit `mask`, recording the points given to Qhull and to the polish."""
    seen = {}

    def hull(pts):
        seen["pts"] = pts
        return ConvexHull(pts)

    def refine(poly, boundary):
        seen["boundary"] = boundary
        return _refine_quad(poly, boundary)

    monkeypatch.setattr(segmentation, "ConvexHull", hull)
    monkeypatch.setattr(segmentation, "_refine_quad", refine)
    return fit_quadrilateral(mask), seen["pts"], seen["boundary"]


def test_quadrilateral_shifts_with_embedding(monkeypatch):
    """The same mask inside a larger frame gives Qhull and the polish the same
    pixels shifted by the offset, and corners shifted by it to rounding."""
    mask = rect_mask(100, 60, 17.0, shape=(160, 200), center=(100, 80))
    quad, pts, boundary = fit_seen_inputs(monkeypatch, mask)
    oy, ox = 213, 371
    big = np.zeros((720, 1280), np.uint8)
    big[oy : oy + 160, ox : ox + 200] = mask.data
    moved, moved_pts, moved_boundary = fit_seen_inputs(monkeypatch, MaskImage(big))
    assert np.array_equal(moved_pts, pts + [ox, oy])
    assert np.array_equal(moved_boundary, boundary + [ox, oy])
    assert_allclose(moved.corners, quad.corners + [ox, oy], rtol=0, atol=1e-9)
    monkeypatch.setattr(segmentation, "_refine_quad", lambda poly, boundary: None)
    assert not np.allclose(quad.corners, fit_quadrilateral(mask).corners)


def rect_at(shape, rows, cols):
    data = np.zeros(shape, np.uint8)
    data[rows[0] : rows[1], cols[0] : cols[1]] = 255
    return MaskImage(data)


@pytest.mark.parametrize(
    "rows, cols",
    [
        ((0, 60), (40, 120)),  # touching the top border
        ((60, 120), (40, 120)),  # the bottom border
        ((30, 90), (0, 80)),  # the left border
        ((30, 90), (80, 160)),  # the right border
        ((0, 120), (0, 160)),  # filling the frame
    ],
)
def test_quadrilateral_touching_image_border(monkeypatch, rows, cols):
    """Pixels beyond the frame count as empty: the labelled box feeds Qhull and
    the polish the same outline pixels, in the same order, as the whole frame
    does."""
    mask = rect_at((120, 160), rows, cols)
    quad, pts, boundary = fit_seen_inputs(monkeypatch, mask)
    _, want_boundary = full_frame_outline(mask)
    assert np.array_equal(pts, want_boundary)
    assert np.array_equal(boundary, want_boundary)
    x0, x1, y0, y1 = cols[0], cols[1] - 1, rows[0], rows[1] - 1
    ideal = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    assert max_corner_error(quad, ideal) <= 1e-9


def test_quadrilateral_two_components(monkeypatch):
    """A second, smaller component widens the labelled box but not the answer."""
    alone = rect_mask(100, 60, 25.0)
    both = MaskImage(alone.data.copy())
    both.data[400:480, 600:640] = 255  # 3200 px in the corner, below the face's 6000
    quad, pts, boundary = fit_seen_inputs(monkeypatch, both)
    _, want_boundary = full_frame_outline(both)
    assert np.array_equal(pts, want_boundary)
    assert np.array_equal(boundary, want_boundary)
    assert np.array_equal(quad.corners, fit_quadrilateral(alone).corners)


def merge_least_area_edge_loop(poly):
    """One merge of the hull reduction, scoring every edge afresh in a
    per-vertex loop: the oracle that each step of `_reduce_hull`, which
    rescores only the edges next to each merge, must match bit for bit, None
    included."""
    n = len(poly)
    best_area = np.inf
    best = None
    for i in range(n):
        a_prev, a = poly[i - 1], poly[i]
        b, b_next = poly[(i + 1) % n], poly[(i + 2) % n]
        u = a - a_prev
        v = b - b_next
        denom = u[0] * v[1] - u[1] * v[0]
        if abs(denom) < 1e-12:
            continue
        d = b - a
        s = (d[0] * v[1] - d[1] * v[0]) / denom
        t = (d[0] * u[1] - d[1] * u[0]) / denom
        if s <= 0 or t <= 0:
            continue
        w = a + s * u
        added = 0.5 * abs((b - a)[0] * (w - a)[1] - (b - a)[1] * (w - a)[0])
        if added < best_area:
            best_area = added
            best = (i, w)
    if best is None:
        return None
    i, w = best
    merged = []
    for j in range(n):
        if j == i:
            merged.append(w)
            continue
        if j == (i + 1) % n:
            continue
        merged.append(poly[j])
    return np.array(merged)


def ccw_hull(pts):
    try:
        hull = ConvexHull(pts)
    except QhullError:
        assume(False)
    poly = pts[hull.vertices]
    return poly[::-1] if _shoelace(poly) < 0 else poly


_coord = st.floats(-100.0, 100.0)


@st.composite
def hull_polygons(draw):
    """CCW polygons: convex hulls of pixel-lattice points (whose symmetric
    shapes tie in added area), with or without an edge's midpoint inserted
    as a straight-angle vertex (where s or t is exactly 0), of rasterized
    rotated rectangles (the outlines `fit_quadrilateral` reduces) and of
    real-valued points; parallelograms nudged by at most 1e-13, whose
    opposite edges are parallel to within the 1e-12 skip, so every edge may
    be skipped and the merge gives None; and star-shaped polygons whose
    vertex radii span 200 decades, where products overflow and some added
    areas come out NaN or infinite."""
    kind = draw(
        st.sampled_from(["lattice", "raster", "real", "parallelogram", "overflow"])
    )
    if kind == "lattice":
        k = draw(st.integers(2, 30))
        n = draw(st.integers(3, 40))
        pts = draw(
            arrays(np.int64, (n, 2), elements=st.integers(0, k), fill=st.nothing())
        ).astype(np.float64)
        poly = ccw_hull(pts)
        if draw(st.booleans()):
            i = draw(st.integers(0, len(poly) - 1))
            mid = (poly[i] + poly[(i + 1) % len(poly)]) / 2.0
            poly = np.insert(poly, i + 1, mid, axis=0)
        return poly
    if kind == "raster":
        w, h = draw(st.floats(3.0, 60.0)), draw(st.floats(3.0, 60.0))
        angle = draw(st.floats(0.0, 180.0))
        mask = rect_mask(w, h, angle, shape=(90, 90), center=(45, 45))
        ys, xs = np.nonzero(mask.data)
        assume(len(xs) >= 3)
        return ccw_hull(np.column_stack([xs, ys]).astype(np.float64))
    if kind == "real":
        pts = draw(arrays(np.float64, (draw(st.integers(3, 30)), 2), elements=_coord))
        return ccw_hull(pts)
    if kind == "overflow":
        n = draw(st.integers(5, 8))
        angle = np.sort(draw(arrays(np.float64, n, elements=st.floats(0.0, 6.28))))
        radius = 10.0 ** draw(arrays(np.float64, n, elements=st.floats(0.0, 200.0)))
        return np.column_stack([np.cos(angle), np.sin(angle)]) * radius[:, None]
    a, b, c = (draw(st.integers(1, 5)) for _ in range(3))
    eps = draw(st.floats(-1e-13, 1e-13))
    return np.array([[0.0, 0.0], [a, 0.0], [a + c, b + eps], [c, b]])


def loop_reductions(poly):
    """The oracle's polygon at each vertex count from len(poly) down to 3,
    keyed by that count; a count below the first merge that gives None maps
    to None."""
    steps = {len(poly): poly}
    while len(poly) > 3:
        with np.errstate(all="ignore"):
            poly = merge_least_area_edge_loop(poly)
        if poly is None:
            break
        steps[len(poly)] = poly
    return {k: steps.get(k) for k in range(3, len(steps[max(steps)]) + 1)}


@settings(max_examples=300, deadline=None)
@given(hull_polygons())
# neighbours of the left edge are parallel, so it is skipped
@example(np.array([[0.0, 0.0], [4.0, 0.0], [5.0, 1.0], [5.0, 2.0], [4.0, 3.0], [0.0, 3.0]]))
# every corner cut of a lattice octagon adds the same area
@example(
    np.array(
        [[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [3.0, 2.0], [2.0, 3.0], [1.0, 3.0],
         [0.0, 2.0], [0.0, 1.0]]
    )
)
def test_merge_least_area_edge_matches_loop(poly):
    """Reducing to each vertex count, down to a triangle or to None, gives
    the loop's polygon after as many merges, bit for bit."""
    for corners, want in loop_reductions(poly).items():
        got = _reduce_hull(poly, corners)
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()


def test_merge_least_area_edge_parallel_sides_give_none():
    rectangle = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
    assert merge_least_area_edge_loop(rectangle) is None
    assert _reduce_hull(rectangle, 3) is None
    assert _reduce_hull(rectangle).tobytes() == rectangle.tobytes()


# bench scenes without and with the 10 % corner dropout
OUTLINE_SCENES = [
    (0.0, 11, 0),
    (0.0, 23, 5),
    (0.0, 5150, 2),
    (0.1, 11, 1),
    (0.1, 23, 7),
    (0.1, 7, 3),
]


@pytest.mark.parametrize("dropout, seed, trial", OUTLINE_SCENES)
def test_quadrilateral_hull_of_outline_equals_all_pixel_hull(dropout, seed, trial):
    """On rendered bench masks, the hull of the outline pixels gives the quad
    of the hull of every component pixel, bit for bit."""
    config = BenchConfig(master_seed=seed, dropout_frac=dropout)
    scene_seed, gt, corner, _, _ = draw_trial(config, trial)
    rgb, _, _, _, _ = render_scene(scene_spec_for(config, scene_seed, gt, corner))
    mask = hsv_threshold(rgb, RED)
    assert fit_quadrilateral(mask).corners.tobytes() == all_pixel_quad(mask).tobytes()


def _boundary_oracle(c):
    return c & ~ndimage.binary_erosion(c)


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        bool,
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.booleans(),
        fill=st.nothing(),
    )
)
def test_boundary_matches_erosion(c):
    """Neighbour slices give erosion's boundary: set pixels on the array's
    border count as boundary, and so do those around holes."""
    got = segmentation._boundary(c)
    assert got.dtype == bool
    assert np.array_equal(got, _boundary_oracle(c))


@pytest.mark.parametrize(
    "c",
    [
        np.ones((1, 1), bool),  # one pixel
        np.ones((1, 9), bool),  # one row
        np.ones((9, 1), bool),  # one column
        np.ones((6, 7), bool),  # filling the box
        np.pad(np.ones((3, 3), bool), 2) ^ np.ones((7, 7), bool),  # a ring round a hole
        np.eye(5, dtype=bool),  # diagonal: 8- but not 4-connected
    ],
)
def test_boundary_small_shapes(c):
    assert np.array_equal(segmentation._boundary(c), _boundary_oracle(c))


def component_masks():
    """Masks for the carried-component checks: rotated, at the frame's
    borders, with a second component and with a hole."""
    holed = rect_mask(100, 60, 12.0)
    holed.data[235:245, 300:330] = 0
    two = rect_mask(100, 60, 25.0)
    two.data[400:480, 600:640] = 255
    return [
        rect_mask(100, 60, 0.0),
        rect_mask(100, 60, 17.0),
        rect_at((120, 160), (0, 60), (40, 120)),
        rect_at((120, 160), (0, 120), (0, 160)),
        two,
        holed,
    ]


@pytest.mark.parametrize("k", range(6))
def test_quadrilateral_reads_the_carried_component(monkeypatch, k):
    """The outline fitted from `largest_component`'s mask, with no second
    labelling, is the one a plain copy of that mask gives, bit for bit."""
    component = largest_component(component_masks()[k], 10)
    plain = fit_quadrilateral(MaskImage(component.data.copy()))
    labels = count_labels(monkeypatch)
    carried = fit_quadrilateral(component)
    assert labels == []
    assert carried.corners.tobytes() == plain.corners.tobytes()


def test_quadrilateral_carried_component_min_area():
    """A min_area above the carried component's size fails as the plain mask
    does, with the same message."""
    component = largest_component(component_masks()[1], 10)
    size = int(np.count_nonzero(component.data))
    assert component.count() == size
    for min_area in (size + 1, 10 * size):
        with pytest.raises(NoComponent) as carried:
            fit_quadrilateral(component, min_area=min_area)
        with pytest.raises(NoComponent) as plain:
            fit_quadrilateral(MaskImage(component.data.copy()), min_area=min_area)
        assert str(carried.value) == str(plain.value)
    fit_quadrilateral(component, min_area=size)


def test_largest_component_is_read_only():
    """The carried box and count cannot go stale: the mask cannot be written."""
    component = largest_component(rect_mask(100, 60, 17.0))
    with pytest.raises(ValueError):
        component.data[240, 320] = 0
    with pytest.raises(ValueError):
        component.data[:] = 255


# ---------------------------------------------------------------- ROI gate

def face_patch(rng, w, h, n=3000, sigma=0.001):
    return PointCloud(
        np.column_stack(
            [
                rng.uniform(-w / 2, w / 2, n),
                rng.uniform(-h / 2, h / 2, n),
                rng.normal(1.0, sigma, n),
            ]
        )
    )


def test_roi_accepts_exact_match():
    rng = np.random.default_rng(20)
    seg = face_patch(rng, 0.30, 0.20)
    picked, obb = roi_filter([seg], RoiSpec(0.30, 0.20, 0.05))
    assert picked is seg
    assert abs(obb.half_extents[0] - 0.15) < 0.02


def test_roi_prefers_correct_over_scaled():
    rng = np.random.default_rng(21)
    right = face_patch(rng, 0.30, 0.20)
    double = face_patch(rng, 0.60, 0.40)
    # too few points or collinear: no box, so skipped rather than an error
    pair = PointCloud(np.array([[0.0, 0.0, 1.0], [0.3, 0.0, 1.0]]))
    line = PointCloud(np.column_stack([np.linspace(-0.15, 0.15, 50), np.zeros(50), np.ones(50)]))
    picked, _ = roi_filter([double, pair, line, right], RoiSpec(0.30, 0.20, 0.05))
    assert picked is right


def test_roi_does_not_swallow_other_errors(monkeypatch):
    """Only a degenerate box is skipped; any other failure is not turned
    into NoRoiMatch."""

    def broken(cloud):
        raise TypeError("not a degenerate cloud")

    monkeypatch.setattr(segmentation, "fit_obb", broken)
    seg = face_patch(np.random.default_rng(23), 0.30, 0.20)
    with pytest.raises(TypeError):
        roi_filter([seg], RoiSpec(0.30, 0.20, 0.05))


def test_roi_rejects_everything():
    rng = np.random.default_rng(22)
    tiny = face_patch(rng, 0.05, 0.03)
    with pytest.raises(NoRoiMatch):
        roi_filter([tiny], RoiSpec(0.30, 0.20, 0.05))


def test_roi_beats_clutter_every_seed():
    spec = RoiSpec(0.30, 0.20, 0.05)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        target = face_patch(rng, 0.30, 0.20)
        clutter = [
            face_patch(rng, rng.uniform(0.05, 0.12), rng.uniform(0.03, 0.08)),
            face_patch(rng, 0.55, 0.45),
            face_patch(rng, 0.16, 0.14),
        ]
        order = rng.permutation(4)
        segments = [([target] + clutter)[i] for i in order]
        picked, _ = roi_filter(segments, spec)
        assert picked is target, f"seed {seed} picked the wrong segment"


# ---------------------------------------------------------------- axis points

# Noiseless faces give the plane exactly, so the points are as good as the
# outline's corners: off the face's long axis and at their midpoint, a few
# hundredths of a millimetre at 1 m. Along the axis both points sit the
# refined outline's half-pixel inset (0.54 mm at 1 m, f = 920) inside the
# edge; the inset is equal at both ends and leaves midpoint and direction.
AXIS_TOL = 1e-4
INSET_TOL = 7.5e-4


def test_axis_points_frontal(frontal):
    quad = fit_quadrilateral(frontal.gt.face_mask)
    plane = face_plane(frontal.intr, frontal.depth, frontal.gt.face_mask)
    t1, t2 = target_axis_points(quad, frontal.intr, *plane)
    assert_allclose(t1, [-0.15, 0.0, 1.0], atol=0.0017)  # one pixel at 1 m
    assert_allclose(t2, [0.15, 0.0, 1.0], atol=0.0017)
    assert t1[0] < t2[0]  # smaller image x first


def test_axis_points_equidistant_on_drawn_scene(drawn):
    quad = fit_quadrilateral(drawn.mask)
    plane = face_plane(drawn.intr, drawn.depth, drawn.mask)
    t1, t2 = target_axis_points(quad, drawn.intr, *plane)
    center = drawn.gt_pose.transform(np.zeros(3))
    gap = abs(np.linalg.norm(t1 - center) - np.linalg.norm(t2 - center))
    assert gap < 0.002
    e1 = drawn.gt_pose.transform([-0.15, 0.0, 0.0])
    e2 = drawn.gt_pose.transform([0.15, 0.0, 0.0])
    assert min(np.linalg.norm(t1 - e1), np.linalg.norm(t1 - e2)) < 0.002
    assert min(np.linalg.norm(t2 - e1), np.linalg.norm(t2 - e2)) < 0.002


@pytest.mark.parametrize(
    "tilt_deg, corner", [(0.0, 0), (5.0, 1), (10.0, 2), (15.0, 3), (20.0, 2)]
)
def test_axis_points_on_tilted_faces(tilt_deg, corner):
    """A yawed face tilted about a varying axis, with one corner's depth
    bitten out: the points are the ends of the face's long axis."""
    intr = BenchConfig().intrinsics
    a = 0.3 + 1.3 * corner
    r = (
        rotation_about([np.cos(a), np.sin(a), 0.0], np.radians(tilt_deg))
        @ rotation_z(np.radians(-17.0 + 11.0 * corner))
        @ np.diag([1.0, -1.0, -1.0])
    )
    gt = Pose(r, np.array([0.03, -0.02, 1.0]))
    spec = SceneSpec(
        FACE, gt, intr, dropout=[(corner, 0.1)], background=[BackgroundPlane(1.5)]
    )
    rgb, depth, _, _, _ = render_scene(spec)
    mask = hsv_threshold(rgb, RED)
    plane = face_plane(intr, depth, mask)
    t1, t2 = target_axis_points(fit_quadrilateral(mask), intr, *plane)
    ends = [gt.transform([-0.15, 0.0, 0.0]), gt.transform([0.15, 0.0, 0.0])]
    if np.linalg.norm(t1 - ends[0]) > np.linalg.norm(t1 - ends[1]):
        ends.reverse()
    x = gt.r[:, 0]
    for err in (t1 - ends[0], t2 - ends[1]):
        assert abs(err @ x) < INSET_TOL
        assert np.linalg.norm(err - (err @ x) * x) < AXIS_TOL
    assert np.linalg.norm((t1 + t2) / 2.0 - gt.t) < AXIS_TOL


def test_axis_points_align_with_major_axis(frontal):
    cloud = deproject_mask(frontal.intr, frontal.depth, frontal.gt.face_mask)
    quad = fit_quadrilateral(frontal.gt.face_mask)
    plane = face_plane(frontal.intr, frontal.depth, frontal.gt.face_mask)
    t1, t2 = target_axis_points(quad, frontal.intr, *plane)
    axis = fit_obb(cloud).axes[0]
    direction = (t2 - t1) / np.linalg.norm(t2 - t1)
    ang = np.degrees(np.arccos(np.clip(abs(direction @ axis), -1.0, 1.0)))
    assert ang < 2.0


def test_axis_points_square_tie_break():
    mask = rect_mask(80, 80, 0.0)
    intr = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    plane = ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    quad = fit_quadrilateral(mask)
    first = target_axis_points(quad, intr, *plane)
    second = target_axis_points(fit_quadrilateral(mask), intr, *plane)
    assert_allclose(first[0], second[0], atol=0.0)
    assert_allclose(first[1], second[1], atol=0.0)


def test_axis_points_ignore_depth_hole(drawn):
    """A depth hole over one short-edge midpoint only thins the cloud that
    the plane is fitted to; the points stay where they were."""
    quad = fit_quadrilateral(drawn.mask)
    t1, t2 = target_axis_points(
        quad, drawn.intr, *face_plane(drawn.intr, drawn.depth, drawn.mask)
    )
    (x, y), _ = project(drawn.intr, t1)
    ys, xs = np.mgrid[0 : drawn.intr.height, 0 : drawn.intr.width]
    hole = (xs - x) ** 2 + (ys - y) ** 2 <= 40.0**2
    assert np.count_nonzero(hole & (drawn.mask.data != 0)) > 2000
    depth = DepthImage(drawn.depth.data.copy())
    depth.data[hole] = 0.0
    h1, h2 = target_axis_points(
        quad, drawn.intr, *face_plane(drawn.intr, depth, drawn.mask)
    )
    assert np.linalg.norm(h1 - t1) < AXIS_TOL
    assert np.linalg.norm(h2 - t2) < AXIS_TOL


def test_axis_points_edge_on_plane(frontal):
    """A plane seen edge-on, or one behind the camera, meets no corner ray in
    front of the camera."""
    quad = fit_quadrilateral(frontal.gt.face_mask)
    for point, normal in (
        ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
        ([0.0, 0.0, -1.0], [0.0, 0.0, 1.0]),
    ):
        with pytest.raises(InvalidDepth):
            target_axis_points(quad, frontal.intr, point, normal)
