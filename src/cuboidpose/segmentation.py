"""Face segmentation: HSV color thresholding, normal-based region growing,
quadrilateral outline fitting and dimension-based region-of-interest gating."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .camera import CameraIntrinsics, MaskImage, back_project, pixel_box
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
        d = np.roll(self.corners, -1, axis=0) - self.corners
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


def hsv_threshold(rgb: np.ndarray, rng: HsvRange) -> MaskImage:
    """Binary mask of pixels inside the HSV box; hue wraps when h_lo > h_hi.

    With `s_lo > 0` only chromatic pixels can pass: a pixel whose channels are
    all equal has s = 0. Those candidates are found with two integer
    comparisons, `(r != g) | (g != b)`, and `rgb_to_hsv` runs on them alone.
    In the interleaved bytes each pixel's r, g and b are neighbours, so one
    contiguous comparison of every byte with the next gives both tests. Each
    pixel still goes through the same float64 formula, so the mask is exactly
    that of converting the whole frame; only gray pixels skip it. The
    candidates are cut from the flattened pixel axis with `np.compress`.
    """
    if rng.s_lo > 0:
        flat = rgb.reshape(-1)
        differs = flat[1:] != flat[:-1]  # byte 3i is r != g, byte 3i + 1 g != b
        candidate = (differs[0::3] | differs[1::3]).reshape(rgb.shape[:2])
    else:
        candidate = np.ones(rgb.shape[:2], dtype=bool)
    h, s, v = rgb_to_hsv(np.compress(candidate.ravel(), rgb.reshape(-1, 3), axis=0))
    if rng.h_lo <= rng.h_hi:
        hue_ok = (h >= rng.h_lo) & (h <= rng.h_hi)
    else:
        hue_ok = (h >= rng.h_lo) | (h <= rng.h_hi)
    ok = hue_ok & (s >= rng.s_lo) & (s <= rng.s_hi) & (v >= rng.v_lo) & (v <= rng.v_hi)
    data = np.zeros(rgb.shape[:2], dtype=np.uint8)
    data[candidate] = np.where(ok, 255, 0)
    return MaskImage(data)


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


def _shoelace(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _merge_least_area_edge(poly: np.ndarray) -> np.ndarray | None:
    """Remove one edge of a convex CCW polygon by extending its neighbors to
    their intersection, choosing the removal that adds the least area.

    Removing edge i, from vertex a = poly[i] to poly[i + 1], extends the edge
    u into a and the edge out of poly[i + 1] until they meet at w = a + s u.
    All edges are scored at once, each with the arithmetic of a per-edge loop.
    An edge is skipped when its neighbours are parallel (|denom| < 1e-12) or
    meet behind it (s <= 0 or t <= 0), and a NaN or infinite added area is
    never chosen; among equal areas the lowest index wins. Returns None when
    every edge is skipped.
    """
    # vertices i + 1, i - 1 and i + 2 for every i
    b = np.concatenate((poly[1:], poly[:1]))
    u = poly - np.concatenate((poly[-1:], poly[:-1]))
    v = b - np.concatenate((poly[2:], poly[:2]))
    d = b - poly
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        s = (d[:, 0] * v[:, 1] - d[:, 1] * v[:, 0]) / denom
        t = (d[:, 0] * u[:, 1] - d[:, 1] * u[:, 0]) / denom
        w = poly + s[:, None] * u
        rel = w - poly
        added = 0.5 * np.abs(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0])
    skip = (np.abs(denom) < 1e-12) | (s <= 0) | (t <= 0) | np.isnan(added)
    added[skip] = np.inf
    i = int(np.argmin(added))
    if not added[i] < np.inf:
        return None
    # w replaces vertex i and vertex i + 1 goes; for the last i that is vertex 0
    merged = np.concatenate((poly[:i], w[i : i + 1], poly[i + 2 :]))
    return merged[1:] if i == len(poly) - 1 else merged


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
    e1 = np.roll(corners, -1, axis=0) - corners
    e2 = np.roll(corners, -2, axis=0) - np.roll(corners, -1, axis=0)
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(cross <= 0):
        return None
    return corners


def _box(binary: np.ndarray) -> tuple[slice, slice]:
    """Row and column slices of the set pixels' bounding box."""
    box = pixel_box(binary)
    if box is None:
        raise NoComponent("mask is empty")
    return box


def largest_component(mask: MaskImage, min_area: int = 100) -> MaskImage:
    """The mask's largest 8-connected component, alone in a mask of the same
    size. Raises NoComponent when the mask is empty or that component has
    fewer than `min_area` pixels.

    Labelling runs on the mask's bounding box only. Raster order, and with it
    label numbering (the first of equal-sized components wins), is that of
    the full frame.
    """
    box = _box(mask.data != 0)
    labeled, _ = ndimage.label(mask.data[box], structure=np.ones((3, 3), dtype=int))
    sizes = np.bincount(labeled.ravel())[1:]
    biggest = int(np.argmax(sizes)) + 1
    if sizes[biggest - 1] < min_area:
        raise NoComponent(
            f"largest component has {sizes[biggest - 1]} px, need {min_area}"
        )
    data = np.zeros_like(mask.data)
    np.multiply(labeled == biggest, 255, out=data[box], dtype=np.uint8)
    return MaskImage(data)


def fit_quadrilateral(mask: MaskImage, min_area: int = 100) -> Quadrilateral2D:
    """Quadrilateral enclosing the largest connected mask component.

    The convex hull of the component's boundary pixels is reduced to 4
    vertices by repeatedly replacing the edge whose removal grows the area
    least, then polished to subpixel edges over the same pixels. Fails when
    no component reaches `min_area` pixels or when the reduction changes the
    hull area by more than 15 percent.
    """
    # An interior pixel (all four neighbours set) is the midpoint of two set
    # pixels, so it is never a hull vertex: the boundary has the component's
    # hull. Erosion runs on the component's box, whose zero border equals the
    # empty pixels outside it, and the pixels come in full-frame raster order.
    component = largest_component(mask, min_area).data != 0
    rows, cols = _box(component)
    component = component[rows, cols]
    by, bx = np.nonzero(component & ~ndimage.binary_erosion(component))
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
    while len(poly) > 4:
        reduced = _merge_least_area_edge(poly)
        if reduced is None:
            raise NotQuadrilateralLike("could not merge hull edges")
        poly = reduced
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
    poly = np.roll(poly, -int(key[0]), axis=0)
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
