"""Face segmentation: HSV color thresholding, normal-based region growing,
quadrilateral outline fitting and dimension-based region-of-interest gating."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .camera import CameraIntrinsics, MaskImage, _Component, back_project, pixel_box
from .errors import (
    DegenerateCloud,
    InvalidDepth,
    NoComponent,
    NoRoiMatch,
    NotQuadrilateralLike,
)
from .geometry import Obb, PointCloud, fit_obb


@dataclass(frozen=True)
class HsvRange:
    """Hue in degrees [0, 360) with wrap-around allowed; s, v in [0, 1]."""

    h_lo: float
    h_hi: float
    s_lo: float = 0.0
    s_hi: float = 1.0
    v_lo: float = 0.0
    v_hi: float = 1.0

    def __post_init__(self):
        for h in (self.h_lo, self.h_hi):
            if not (0.0 <= h < 360.0):
                raise ValueError("hue bounds must lie in [0, 360)")
        for s in (self.s_lo, self.s_hi, self.v_lo, self.v_hi):
            if not (0.0 <= s <= 1.0):
                raise ValueError("saturation and value bounds must lie in [0, 1]")


@dataclass
class RoiSpec:
    """Expected face dimensions in meters with a relative tolerance."""

    width: float
    height: float
    depth: float
    tolerance: float = 0.15

    def __post_init__(self):
        if not (self.width >= self.height >= self.depth > 0):
            raise ValueError("dimensions must satisfy width >= height >= depth > 0")
        if not (0.0 < self.tolerance < 0.5):
            raise ValueError("tolerance must lie in (0, 0.5)")


@dataclass
class Quadrilateral2D:
    """Convex quadrilateral in pixel coordinates, counter-clockwise, starting
    at the corner nearest the image origin."""

    corners: np.ndarray

    def __post_init__(self):
        self.corners = np.asarray(self.corners, dtype=np.float64).reshape(4, 2)
        if _shoelace(self.corners) <= 0:
            raise ValueError("corners must be counter-clockwise with positive area")

    @property
    def edge_lengths(self) -> np.ndarray:
        d = _turn(self.corners) - self.corners
        return np.linalg.norm(d, axis=1)

    @property
    def area(self) -> float:
        return _shoelace(self.corners)


def rgb_to_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hexcone HSV from a (..., 3) uint8 array, such as an (h, w, 3) image or
    (n, 3) pixels: h in degrees, s and v in [0, 1], each of shape `rgb.shape[:-1]`.

    Each channel is scaled to [0, 1] into its own contiguous array, and v and
    the chroma come from elementwise `np.maximum`/`np.minimum` over the three
    channels, which are exact, rather than a reduction over the colour axis.
    When two channels tie for the maximum, red takes precedence over green and
    green over blue.
    """
    r, g, b = (np.divide(rgb[..., i], 255.0, dtype=np.float64) for i in range(3))
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)
    # every branch over every pixel, then select: the chroma is 0 where all
    # channels are equal, and those pixels' hue is set to 0 afterwards. Where
    # red is the maximum, |g - b| <= c, so x = (g - b) / c lies in [-1, 1] and
    # np.mod(x, 6.0) is x + 6.0 for x < 0 and x + 0.0 (turning -0.0 into
    # +0.0) otherwise: the same bits, without the slow float remainder.
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(v == g, (b - r) / c + 2.0, (r - g) / c + 4.0)
        x = (g - b) / c
        x += np.where(x < 0.0, 6.0, 0.0)
        h = np.where(v == r, x, h)
        h *= 60.0
    h[c == 0] = 0.0
    s = np.where(v > 0, c / np.where(v > 0, v, 1.0), 0.0)
    return h, s, v


# Rows per band of `hsv_threshold`: at 1280 columns a band's byte comparison
# is about 0.5 MB, so none of the stage's temporaries is frame-sized.
_HSV_BAND_ROWS = 128
# `rgb_to_hsv`'s h and s lie within 5e-13 of the exact hexcone values on
# every 8-bit colour; `_in_box` trusts the exact values wherever they are
# further than this from every h and s bound.
_HSV_MARGIN = 1e-9


def hsv_threshold(rgb: np.ndarray, rng: HsvRange) -> MaskImage:
    """Binary mask of pixels inside the HSV box; hue wraps when h_lo > h_hi.

    The image is read in bands of `_HSV_BAND_ROWS` rows. With `s_lo > 0`
    only chromatic pixels can pass: a pixel whose channels are all equal has
    s = 0. A band's candidates are found with two integer comparisons,
    `(r != g) | (g != b)`. In the interleaved bytes each pixel's r, g and b
    are neighbours, so one contiguous comparison of every byte with the next
    gives both tests: bytes 3i and 3i + 1 of that bool array. They are read
    together as one unaligned uint16 per pixel, through a stride-3 view of the
    same buffer, which is nonzero when either is set; the last pixel's pair
    ends at the band's last byte. The candidates are cut from the flattened
    pixel axis with `np.compress` and go to `_in_box`, which decides each one
    exactly as `rgb_to_hsv` and the box's six comparisons would, so the mask
    is that of converting the whole frame to float HSV.
    """
    data = np.zeros(rgb.shape[:2], dtype=np.uint8)
    for top in range(0, rgb.shape[0], _HSV_BAND_ROWS):
        band = rgb[top : top + _HSV_BAND_ROWS]
        pixels = band.reshape(-1, 3)
        if rng.s_lo > 0:
            flat = band.reshape(-1)
            differs = flat[1:] != flat[:-1]  # byte 3i is r != g, 3i + 1 g != b
            pairs = np.ndarray(
                (len(pixels),), dtype=np.uint16, buffer=differs, strides=(3,)
            )
            candidate = pairs != 0
            pixels = np.compress(candidate, pixels, axis=0)
        else:
            candidate = slice(None)
        out = data[top : top + _HSV_BAND_ROWS].reshape(-1)
        out[candidate] = np.multiply(_in_box(pixels, rng), 255, dtype=np.uint8)
    return MaskImage(data)


def _hue_sat_ok(h: np.ndarray, s: np.ndarray, rng: HsvRange) -> np.ndarray:
    if rng.h_lo <= rng.h_hi:
        hue_ok = (h >= rng.h_lo) & (h <= rng.h_hi)
    else:
        hue_ok = (h >= rng.h_lo) | (h <= rng.h_hi)
    return hue_ok & (s >= rng.s_lo) & (s <= rng.s_hi)


def _in_box(pixels: np.ndarray, rng: HsvRange) -> np.ndarray:
    """Whether each of the (n, 3) uint8 pixels lies in the HSV box, decided
    as `rgb_to_hsv` and the box's comparisons decide it, but from integers
    for all pixels that do not sit on a bound.

    Hexcone HSV (Smith, "Color Gamut Transform Pairs", 1978) is a ratio of
    differences of the integer channels. With M and m a pixel's largest and
    smallest channel and c = M - m:

    - v is `M / 255.0` bit for bit, since division by 255 is monotone, so
      the v bounds become a range of M and need no tolerance;
    - s is exactly c / M;
    - h is exactly 60 num / c, where num is g - b (plus 6c when negative),
      b - r + 2c or r - g + 4c as red, green or blue is largest, taking red
      first and then green, which is how `rgb_to_hsv` breaks ties.

    s and h are computed here from those integers with one rounding each.
    `rgb_to_hsv`'s float formula lands within 5e-13 of them on every 8-bit
    colour (a few ulp of a hue of up to 360), so where the exact s and h lie
    more than `_HSV_MARGIN` = 1e-9 from every s and h bound, both give the
    same answer. Only the pixels within that margin of a bound go through
    `rgb_to_hsv` and the float comparisons. Gray pixels (c = 0, candidates
    only when `s_lo` is 0) have h = s = 0 in both.
    """
    level = np.arange(256) / 255.0  # rgb_to_hsv's v for each M
    lit = np.flatnonzero((level >= rng.v_lo) & (level <= rng.v_hi))
    if lit.size == 0:
        return np.zeros(len(pixels), dtype=bool)
    r, g, b = (pixels[:, i].astype(np.int16) for i in range(3))
    top = np.maximum(np.maximum(r, g), b)
    c = top - np.minimum(np.minimum(r, g), b)
    num = r - g
    num += 4 * c
    np.copyto(num, b - r + 2 * c, where=g == top)
    red = g - b
    red += 6 * c * (red < 0)
    np.copyto(num, red, where=r == top)

    cf = c.astype(np.float64)
    s = top.astype(np.float64)
    np.maximum(s, 1.0, out=s)  # black is gray: s = 0 / 1
    np.divide(cf, s, out=s)
    np.maximum(cf, 1.0, out=cf)  # gray: num = 0, so h = 0 / 1
    h = num.astype(np.float64)
    h *= 60.0
    h /= cf

    ok = _hue_sat_ok(h, s, rng)
    near = np.zeros(len(pixels), dtype=bool)
    for x, bound in ((h, rng.h_lo), (h, rng.h_hi), (s, rng.s_lo), (s, rng.s_hi)):
        near |= (x >= bound - _HSV_MARGIN) & (x <= bound + _HSV_MARGIN)
    edge = np.flatnonzero(near)
    if edge.size:
        h, s, _ = rgb_to_hsv(pixels[edge])
        ok[edge] = _hue_sat_ok(h, s, rng)
    ok &= (top >= int(lit[0])) & (top <= int(lit[-1]))
    return ok


def region_growing(
    cloud: PointCloud,
    normals: np.ndarray,
    curvatures: np.ndarray,
    angle_thresh_deg: float = 5.0,
    curvature_thresh: float = 0.03,
    min_cluster: int = 200,
    neighbors: int = 30,
) -> list[np.ndarray]:
    """Cluster a cloud into smooth regions, given each point's normal and
    curvature (as `estimate_normals` returns them).

    Seeds are taken in ascending curvature order (ties by index). A neighbor
    joins a cluster when its normal is within `angle_thresh_deg` of the point
    it is grown from, and itself continues the growth only when its curvature
    is at most `curvature_thresh`. Clusters below `min_cluster` points are
    discarded. Returns sorted index arrays, mutually disjoint. Raises
    ValueError unless `normals` is (n, 3) and `curvatures` (n,) for n points.
    """
    n = len(cloud)
    normals = np.asarray(normals, dtype=np.float64)
    curvatures = np.asarray(curvatures, dtype=np.float64)
    if normals.shape != (n, 3) or curvatures.shape != (n,):
        raise ValueError(
            f"need (n, 3) normals and (n,) curvatures for n={n} points, got "
            f"{normals.shape} and {curvatures.shape}"
        )
    pts = cloud.points
    valid = np.all(np.isfinite(normals), axis=1) & np.isfinite(curvatures)
    k = min(neighbors + 1, n)
    tree = cKDTree(pts)
    _, nbrs = tree.query(pts, k=k)
    if k == 1:
        nbrs = nbrs[:, None]
    cos_thresh = np.cos(np.radians(angle_thresh_deg))
    labels = np.full(n, -1, dtype=np.int64)
    curv = np.where(valid, curvatures, np.inf)
    order = np.argsort(curv, kind="stable")
    clusters: list[list[int]] = []
    for seed in order:
        if labels[seed] != -1 or not valid[seed]:
            continue
        cid = len(clusters)
        labels[seed] = cid
        members = [int(seed)]
        queue = deque([int(seed)])
        while queue:
            p = queue.popleft()
            np_normal = normals[p]
            for q in nbrs[p]:
                q = int(q)
                if labels[q] != -1 or not valid[q]:
                    continue
                if np_normal @ normals[q] >= cos_thresh:
                    labels[q] = cid
                    members.append(q)
                    if curvatures[q] <= curvature_thresh:
                        queue.append(q)
        clusters.append(members)
    return [np.array(sorted(m)) for m in clusters if len(m) >= min_cluster]


def _turn(a: np.ndarray, k: int = 1) -> np.ndarray:
    """`np.roll(a, -k, axis=0)` for 0 <= k <= len(a), by two slices: the
    same rows at a sixth of the cost on the 4-row arrays of a frame."""
    return np.concatenate((a[k:], a[:k]))


def _shoelace(poly: np.ndarray) -> float:
    nxt = _turn(poly)
    return 0.5 * float(np.sum(poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]))


def _merge_score(poly: list, i: int) -> tuple[float, tuple[float, float] | None]:
    """The area that removing edge i of a convex CCW polygon (a list of
    (x, y) floats) adds, and the point w where its neighbours then meet; inf
    and None when the edge cannot be removed.

    Removing edge i, from vertex a = poly[i] to poly[i + 1], extends the edge
    u into a and the edge out of poly[i + 1] until they meet at w = a + s u.
    The edge is skipped when its neighbours are parallel (|denom| < 1e-12),
    meet behind it (s <= 0 or t <= 0), or add a NaN area. Every step is one
    rounded float64 operation, in Python as in numpy's elementwise
    arithmetic, so an edge's score has the same bits whether it is scored
    alone or with all the others.
    """
    n = len(poly)
    (px, py), (ax, ay) = poly[i - 1], poly[i]
    (bx, by), (qx, qy) = poly[(i + 1) % n], poly[(i + 2) % n]
    ux, uy = ax - px, ay - py
    vx, vy = bx - qx, by - qy
    dx, dy = bx - ax, by - ay
    denom = ux * vy - uy * vx
    if abs(denom) < 1e-12:
        return math.inf, None
    s = (dx * vy - dy * vx) / denom
    t = (dx * uy - dy * ux) / denom
    if s <= 0 or t <= 0:
        return math.inf, None
    wx, wy = ax + s * ux, ay + s * uy
    added = 0.5 * abs(dx * (wy - ay) - dy * (wx - ax))
    if math.isnan(added):
        return math.inf, None
    return added, (wx, wy)


def _reduce_hull(poly: np.ndarray, corners: int = 4) -> np.ndarray | None:
    """Reduce a convex CCW polygon to `corners` vertices, one edge at a time,
    each time removing the edge whose removal adds the least area
    (`_merge_score`; among equal areas the lowest index wins). Returns None
    when, before that, every edge is skipped.

    Removing edge i puts w in place of vertex i and drops vertex i + 1; for
    the last i that is vertex 0, so the polygon then starts at the old
    vertex 1. Only the four edges that read w change their score, so only
    they are scored again; the other scores move with their edges.
    """
    pts = poly.tolist()
    scores = [_merge_score(pts, i) for i in range(len(pts))]
    while len(pts) > corners:
        added = [a for a, _ in scores]
        i = added.index(min(added))
        if not added[i] < math.inf:
            return None
        pts[i] = scores[i][1]
        gone = (i + 1) % len(pts)
        del pts[gone], scores[gone]
        at = i - 1 if gone == 0 else i  # where w now is
        for j in range(at - 2, at + 2):
            j %= len(pts)
            scores[j] = _merge_score(pts, j)
    return np.array(pts)


def _refine_quad(poly: np.ndarray, boundary: np.ndarray) -> np.ndarray | None:
    """Subpixel polish: refit each quadrilateral edge as a least-squares line
    over nearby outline pixels, then intersect adjacent lines.

    The raw edges sit on the outer staircase envelope of the rasterized
    outline, whose phase wanders by up to a pixel. Fitted lines run through
    the staircase instead; the residual half-pixel inset is equal on opposite
    edges, so centers and edge midpoints lose their rasterization bias.
    Returns None (caller keeps the raw corners) when any edge lacks support.
    """
    lines = []
    for i in range(4):
        a, b = poly[i], poly[(i + 1) % 4]
        edge = b - a
        length = float(np.linalg.norm(edge))
        if length < 1e-9:
            return None
        u = edge / length
        rel = boundary - a
        along = rel @ u
        perp = rel @ np.array([-u[1], u[0]])
        sel = (
            (np.abs(perp) <= 1.5)
            & (along >= 0.1 * length)
            & (along <= 0.9 * length)
        )
        pts = boundary[sel]
        if len(pts) < 8:
            return None
        mean = pts.mean(axis=0)
        cov = (pts - mean).T @ (pts - mean)
        _, evecs = np.linalg.eigh(cov)
        lines.append((mean, evecs[:, 1]))
    corners = np.empty((4, 2))
    for j in range(4):
        p1, d1 = lines[j - 1]
        p2, d2 = lines[j]
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(denom) < 1e-9:
            return None
        rel = p2 - p1
        s = (rel[0] * d2[1] - rel[1] * d2[0]) / denom
        corners[j] = p1 + s * d1
    if _shoelace(corners) < 0:
        corners = corners[::-1]
    nxt = _turn(corners)
    e1 = nxt - corners
    e2 = _turn(corners, 2) - nxt
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(cross <= 0):
        return None
    return corners


def largest_component(mask: MaskImage, min_area: int = 100) -> MaskImage:
    """The mask's largest 8-connected component, alone in a mask of the same
    size. Raises NoComponent when the mask is empty or that component has
    fewer than `min_area` pixels.

    Labelling runs on the mask's bounding box only. Raster order, and with it
    label numbering (the first of equal-sized components wins), is that of
    the full frame. The returned mask is read-only and carries the
    component's bounding box and pixel count, which `fit_quadrilateral` and
    `deproject_mask` read in place of labelling or scanning it again.

    When the box holds a single label, as a lone face's mask does, that
    label's pixels are all the labelled ones, counted with one
    `np.count_nonzero`, and its box is the labelled box. Only with several
    labels are the sizes tallied (`np.bincount`) and the winner's own box
    found.
    """
    box = pixel_box(mask.data)
    if box is None:
        raise NoComponent("mask is empty")
    labeled, n_labels = ndimage.label(
        mask.data[box], structure=np.ones((3, 3), dtype=int)
    )
    if n_labels == 1:
        biggest, size = 1, int(np.count_nonzero(labeled))
    else:
        sizes = np.bincount(labeled.ravel())[1:]
        biggest = int(np.argmax(sizes)) + 1
        size = int(sizes[biggest - 1])
    if size < min_area:
        raise NoComponent(f"largest component has {size} px, need {min_area}")
    component = labeled == biggest
    data = np.zeros_like(mask.data)
    np.multiply(component, 255, out=data[box], dtype=np.uint8)
    if n_labels > 1:
        rows, cols = pixel_box(component)
        box = (
            slice(rows.start + box[0].start, rows.stop + box[0].start),
            slice(cols.start + box[1].start, cols.stop + box[1].start),
        )
    return _Component(data, box, size)


def _boundary(component: np.ndarray) -> np.ndarray:
    """Set pixels of a 2D bool array with an unset 4-neighbour, where pixels
    beyond the array count as unset: the array less its interior, found with
    four shifted ANDs on a zero-padded copy."""
    padded = np.zeros((component.shape[0] + 2, component.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = component
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1]
    interior &= padded[1:-1, :-2]
    interior &= padded[1:-1, 2:]
    return component & ~interior


def fit_quadrilateral(mask: MaskImage, min_area: int = 100) -> Quadrilateral2D:
    """Quadrilateral enclosing the largest connected mask component.

    The convex hull of the component's boundary pixels (set pixels with an
    unset 4-neighbour) is reduced to 4 vertices by repeatedly replacing the
    edge whose removal grows the area least, then polished to subpixel edges
    over the same pixels. Fails when no component reaches `min_area` pixels
    or when the reduction changes the hull area by more than 15 percent.

    A mask that `largest_component` returned is already that component: its
    carried pixel count is checked against `min_area` (the same NoComponent
    message) and its carried box is read, with no second labelling. Any other
    mask is labelled here first.
    """
    if not isinstance(mask, _Component):
        mask = largest_component(mask, min_area)
    elif mask.count() < min_area:
        raise NoComponent(f"largest component has {mask.count()} px, need {min_area}")
    # An interior pixel (all four neighbours set) is the midpoint of two set
    # pixels, so it is never a hull vertex: the boundary has the component's
    # hull. The component's box is bordered by empty pixels, which the
    # padding stands for, and the pixels come in full-frame raster order.
    rows, cols = mask.box
    by, bx = np.nonzero(_boundary(mask.data[rows, cols] != 0))
    pts = np.column_stack([bx + cols.start, by + rows.start]).astype(np.float64)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise NotQuadrilateralLike(f"degenerate outline: {exc}") from exc
    poly = pts[hull.vertices]
    if _shoelace(poly) < 0:
        poly = poly[::-1]
    hull_area = abs(_shoelace(poly))
    if len(poly) < 4:
        raise NotQuadrilateralLike(f"outline has only {len(poly)} hull vertices")
    poly = _reduce_hull(poly)
    if poly is None:
        raise NotQuadrilateralLike("could not merge hull edges")
    quad_area = abs(_shoelace(poly))
    if quad_area > hull_area * 1.15:
        raise NotQuadrilateralLike(
            f"reduction changed area by {quad_area / hull_area - 1:.1%}"
        )
    if _shoelace(poly) < 0:
        poly = poly[::-1]
    polished = _refine_quad(poly, pts)
    if polished is not None:
        poly = polished
    # start at the corner nearest the image origin, ties by row then column
    key = np.lexsort((poly[:, 0], poly[:, 1], (poly ** 2).sum(axis=1)))
    poly = _turn(poly, int(key[0]))
    return Quadrilateral2D(poly)


def roi_filter(
    segments: list[PointCloud], spec: RoiSpec
) -> tuple[PointCloud, Obb]:
    """Pick the segment whose bounding box best matches the expected face.

    A segment is accepted when its two largest box extents match the expected
    width and height within the relative tolerance and its smallest extent
    does not exceed the expected depth. Among accepted segments the one with
    the smallest Euclidean extent error wins. Segments with no box (fewer
    than 3 points, or collinear: `DegenerateCloud`) are skipped.
    """
    best = None
    best_err = np.inf
    for seg in segments:
        try:
            obb = fit_obb(seg)
        except DegenerateCloud:
            continue
        dims = 2.0 * obb.half_extents
        if abs(dims[0] - spec.width) > spec.tolerance * spec.width:
            continue
        if abs(dims[1] - spec.height) > spec.tolerance * spec.height:
            continue
        if dims[2] > spec.depth:
            continue
        err = float(np.hypot(dims[0] - spec.width, dims[1] - spec.height))
        if err < best_err:
            best_err = err
            best = (seg, obb)
    if best is None:
        raise NoRoiMatch(
            f"no segment within {spec.tolerance:.0%} of "
            f"{spec.width:.3f}x{spec.height:.3f} m"
        )
    return best


def target_axis_points(
    quad: Quadrilateral2D, intr: CameraIntrinsics, point, normal
) -> tuple[np.ndarray, np.ndarray]:
    """Two 3D points spanning the face along its long direction.

    The pixel rays of the outline's four corners are intersected with the face
    plane through `point` with normal `normal`, and the 3D midpoints of the
    two shorter edges are returned. The first returned point is that of the
    edge whose image midpoint has the smaller x (ties: smaller y). Raises
    InvalidDepth when any ray meets the plane at or behind the camera, or
    runs parallel to it.
    """
    lengths = quad.edge_lengths
    pair = (0, 2) if lengths[0] + lengths[2] <= lengths[1] + lengths[3] else (1, 3)
    corners = quad.corners
    normal = np.asarray(normal, dtype=np.float64)
    rays = back_project(intr, corners[:, 0], corners[:, 1], np.ones(4))
    along = rays @ normal
    offset = np.asarray(point, dtype=np.float64) @ normal
    # a ray parallel to the plane keeps z = 0 and fails the check below
    z = np.divide(offset, along, out=np.zeros(4), where=along != 0.0)
    if not np.all(z > 0.0):
        raise InvalidDepth(
            "an outline corner's ray does not meet the face plane in front of "
            "the camera"
        )
    pts = rays * z[:, None]
    mids = [(corners[i] + corners[(i + 1) % 4]) / 2.0 for i in pair]
    ends = [(pts[i] + pts[(i + 1) % 4]) / 2.0 for i in pair]
    first = 0
    if (mids[1][0], mids[1][1]) < (mids[0][0], mids[0][1]):
        first = 1
    return ends[first], ends[1 - first]
