"""Coarse registration of planar clouds via congruent 4-point bases, plus a
classic point-to-point ICP refiner used as the timing baseline.

The coarse stage samples a wide, nearly coplanar 4-point base from the source,
computes the affine-invariant intersection ratios of its two segments, and
looks for congruent 4-point sets in the target among point pairs with matching
segment lengths. Those pairs are read from one pair-distance table, built once
per registration on the target's capped search cloud (at most
`_SEARCH_POINTS` points, so the table's n^2/2 rows stay bounded): each base's
annulus is a mask over the table's distances. Each candidate yields a rigid
fit whose quality is scored by the fraction of source points landing within an
inlier distance of the target (LCP score), on a fixed sample of the source; a
candidate stops being scored once its misses show it cannot beat the best so
far. The best-scoring pose wins. `lcp_score` gives any pose that same score,
which is how the pipeline checks its face-plane start pose.

ICP matches every source point to its nearest target point in each
iteration. A point moves a fraction of a millimeter per iteration, so
`_TrackedNearest` re-queries the kd-tree only for the points whose nearest
target may have changed, and proves the rest unchanged from the two candidates
and the third-neighbor distance of their last query. The matches, and so the
poses, scores and iteration counts, are bit for bit those of a full
`cKDTree.query` in every iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import NoCorrespondences, RegistrationFailed
from .filters import voxel_downsample
from .geometry import Obb, PointCloud, Pose, fit_obb, orthonormalize, rotation_z


# congruent-set matches gathered per base before the angle test (whole groups)
_MAX_MATCH_ROWS = 50000

# the coarse search's fixed settings
_MAX_ATTEMPTS = 200  # base attempts before giving up
_EARLY_EXIT_SCORE = 0.9  # a candidate scoring this ends the search
_MAX_CANDIDATES = 64  # congruent sets scored per base
_BASE_SPAN_FRAC = 0.6  # minimum base width, fraction of source diagonal
_COPLANAR_EPS = 0.004  # how far apart a base's two lines may pass, meters (x2)
_ANGLE_TOL_DEG = 7.0  # crossing-angle tolerance of a congruent set
_LCP_SAMPLE = 400  # source points used for scoring
_PAIR_CAP = 30000  # a base whose annulus holds more pairs is skipped
_PAIR_SUBSAMPLE = 2500  # pairs kept per base when the annulus overflows
_SEARCH_POINTS = 1000  # target size cap for the candidate search
_REFINE_ROUNDS = 10  # re-fit passes on the winning pose
_POLISH_KEEP = 0.97  # correspondence fraction kept per pass

# slack, relative to the largest coordinate seen, by which a tracked nearest
# neighbor must win before ICP reuses it; distances and drifts round within
# a few 2**-53 of that coordinate
_REUSE_MARGIN = 2.0**-40

# a coarse candidate's LCP sample is scored in _LCP_STRIDE chunks, each taking
# every _LCP_STRIDE-th point, until the candidate can no longer beat the best;
# the kd-tree search is bounded a factor _LCP_BOUND_SLACK past the distance
# it counts within, far more than the tree's rounding
_LCP_STRIDE = 4
_LCP_BOUND_SLACK = 1.0 + 2.0**-20


@dataclass
class RegistrationParams:
    """Knobs for the coarse 4-point search."""

    eps: float = 0.004               # pair distance tolerance, meters
    inlier_dist: float = 0.008      # LCP inlier radius, meters
    min_score: float = 0.3
    seed: int = 0


@dataclass
class RegistrationResult:
    pose: Pose
    score: float
    elapsed: float


def _pair_table(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distance of every index pair i < j of `pts` in lexicographic order,
    with the position where each row i starts in that list, i*n - i*(i+1)/2,
    in exact integers. `pdist` lists the pairs in that order and sums the
    squares x, y, z left to right before the root, which is how
    `np.linalg.norm(pts[i] - pts[j], axis=1)` rounds."""
    rows = np.arange(len(pts))
    return rows * len(pts) - rows * (rows + 1) // 2, pdist(pts)


def _annulus(table, r: float, eps: float) -> np.ndarray:
    """(m, 2) index pairs of `table` whose distance lies strictly inside
    (r - eps, r + eps), in the table's lexicographic order."""
    if r <= 0 or eps <= 0 or eps >= r:
        raise ValueError("need 0 < eps < r")
    starts, d = table
    sel = np.flatnonzero((d > r - eps) & (d < r + eps))
    i = np.searchsorted(starts, sel, side="right") - 1
    return np.column_stack((i, sel - starts[i] + i + 1))


def pairs_in_range(cloud: PointCloud, r: float, eps: float) -> list[tuple[int, int]]:
    """All index pairs (i < j) whose distance lies strictly inside
    (r - eps, r + eps), sorted, read from the pair-distance table that the
    coarse search builds once per registration. The table holds all n^2/2
    pairs, so this is meant for clouds of a few thousand points."""
    return [tuple(p) for p in _annulus(_pair_table(cloud.points), r, eps).tolist()]


def kabsch(src: np.ndarray, dst: np.ndarray, centred=None) -> Pose:
    """Least-squares rigid transform mapping `src` onto `dst` (SVD closed form,
    reflection guarded). A caller that fits the same `src` again passes
    `centred`, the pair `(cs, src - cs)` for `cs = src.mean(axis=0)`, which
    is otherwise computed here; the result is the same bits.

    The target centroid is the last row of the running sums down each column
    of `dst`, over n. On a row-major array, which every caller passes (a
    gather by index), these are the additions `dst.mean(axis=0)` makes, in
    the same row order, so the same bits, and numpy runs them faster than
    that strided reduction. The sums' buffer then holds the centred target."""
    if centred is None:
        cs = src.mean(axis=0)
        centred = cs, src - cs
    cs, src_centred = centred
    dst_centred = np.cumsum(dst, axis=0)
    cd = dst_centred[-1] / len(dst)
    np.subtract(dst, cd, out=dst_centred)
    h = src_centred.T @ dst_centred
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    fix = np.diag([1.0, 1.0, d])
    r = vt.T @ fix @ u.T
    return Pose(r, cd - r @ cs)


def _line_intersection_ratios(a, b, c, d, coplanar_eps):
    """Intersection of lines AB and CD as ratios along each segment, or None
    when the lines are near parallel or miss each other in 3D."""
    u = b - a
    v = d - c
    w0 = a - c
    uu, uv, vv = u @ u, u @ v, v @ v
    det = uu * vv - uv * uv
    if det < 1e-12 * uu * vv + 1e-30:
        return None
    s = (uv * (v @ w0) - vv * (u @ w0)) / det
    t = (uu * (v @ w0) - uv * (u @ w0)) / det
    p1 = a + s * u
    p2 = c + t * v
    if np.linalg.norm(p1 - p2) > 2.0 * coplanar_eps:
        return None
    if not (-0.5 <= s <= 1.5 and -0.5 <= t <= 1.5):
        return None
    return float(s), float(t), (p1 + p2) / 2.0


def _sample_base(pts, diag, rng, attempt):
    """One deterministic attempt at a wide coplanar 4-point base. Returns
    (indices, ratio1, ratio2, crossing angle) or None."""
    n = len(pts)
    span = diag * max(_BASE_SPAN_FRAC, 0.9 - 0.01 * attempt)
    ia = int(rng.integers(n))
    d_a = np.linalg.norm(pts - pts[ia], axis=1)
    wide = np.nonzero(d_a >= span)[0]
    if len(wide) == 0:
        return None
    ib = int(wide[rng.integers(len(wide))])
    ic = int(rng.integers(n))
    d_c = np.linalg.norm(pts - pts[ic], axis=1)
    wide_c = np.nonzero(d_c >= span * 0.75)[0]
    if len(wide_c) == 0:
        return None
    idd = int(wide_c[rng.integers(len(wide_c))])
    if len({ia, ib, ic, idd}) < 4:
        return None
    a, b, c, d = pts[ia], pts[ib], pts[ic], pts[idd]
    u = (b - a) / np.linalg.norm(b - a)
    v = (d - c) / np.linalg.norm(d - c)
    cross_angle = np.degrees(np.arccos(min(1.0, abs(float(u @ v)))))
    if cross_angle < 15.0:
        return None
    hit = _line_intersection_ratios(a, b, c, d, _COPLANAR_EPS)
    if hit is None:
        return None
    r1, r2, _ = hit
    return (ia, ib, ic, idd), r1, r2, np.degrees(
        np.arccos(min(1.0, max(-1.0, float(u @ v))))
    )


def _pair_endpoints(pts, pairs):
    """Both orientations of every (m, 2) index pair: start and end indices,
    start points, direction vectors."""
    starts = np.concatenate([pairs[:, 0], pairs[:, 1]])
    ends = np.concatenate([pairs[:, 1], pairs[:, 0]])
    p = pts[starts]
    q = pts[ends]
    return starts, ends, p, q - p


def _congruent_candidates(pts, pairs1, pairs2, r1, r2, alpha_deg, params):
    """Target 4-point sets whose segments reproduce the base's intersection
    ratios and crossing angle, as a (k, 4) index array, best match first.

    Matches are taken group by group over the second base's midpoints; the
    group that takes the count past _MAX_MATCH_ROWS is the last one kept."""
    none = np.empty((0, 4), dtype=np.int64)
    s1, e1, p1, d1 = _pair_endpoints(pts, pairs1)
    s2, e2, p2, d2 = _pair_endpoints(pts, pairs2)
    mid1 = p1 + r1 * d1
    mid2 = p2 + r2 * d2
    tree = cKDTree(mid1)
    groups = tree.query_ball_point(mid2, params.eps)
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    ends = np.cumsum(sizes)
    n_groups = min(
        int(np.searchsorted(ends, _MAX_MATCH_ROWS, side="right")) + 1, len(groups)
    )
    count = int(ends[n_groups - 1]) if n_groups else 0
    if count == 0:
        return none
    i1 = np.fromiter(chain.from_iterable(groups[:n_groups]), dtype=np.int64, count=count)
    i2 = np.repeat(np.arange(n_groups), sizes[:n_groups])
    u1 = d1[i1] / np.linalg.norm(d1[i1], axis=1, keepdims=True)
    u2 = d2[i2] / np.linalg.norm(d2[i2], axis=1, keepdims=True)
    ang = np.degrees(np.arccos(np.clip(np.sum(u1 * u2, axis=1), -1.0, 1.0)))
    ang_err = np.abs(ang - alpha_deg)
    keep = ang_err <= _ANGLE_TOL_DEG
    if not np.any(keep):
        return none
    i1, i2, ang_err = i1[keep], i2[keep], ang_err[keep]
    e_dist = np.linalg.norm(mid1[i1] - mid2[i2], axis=1)
    badness = e_dist / params.eps + ang_err / _ANGLE_TOL_DEG
    order = np.argsort(badness, kind="stable")[:_MAX_CANDIDATES]
    a, b = i1[order], i2[order]
    return np.column_stack((s1[a], e1[a], s2[b], e2[b]))


def _box_snap(src_pts: np.ndarray, tgt_pts: np.ndarray, pose: Pose) -> Pose:
    """Planar box alignment of the registration residual.

    Nearest-neighbor re-fitting has no in-plane signal over a face interior,
    so the final in-plane yaw and shift come from the boundary instead: pick
    the yaw that minimizes the target's robust bounding box in the source
    frame, then move box center onto box center. Quantile edges keep sensor
    holes and stray returns from bending the estimate.
    """
    lo_q, hi_q = 0.005, 0.995
    r, t = pose.r, pose.t
    local = (tgt_pts - t) @ r
    sx = np.quantile(src_pts[:, 0], [lo_q, hi_q])
    sy = np.quantile(src_pts[:, 1], [lo_q, hi_q])
    sz = float(np.median(src_pts[:, 2]))

    def box(theta):
        c, s = np.cos(theta), np.sin(theta)
        x = c * local[:, 0] + s * local[:, 1]
        y = -s * local[:, 0] + c * local[:, 1]
        qx = np.quantile(x, [lo_q, hi_q])
        qy = np.quantile(y, [lo_q, hi_q])
        return float(qx[1] - qx[0] + qy[1] - qy[0]), qx, qy

    golden = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = -np.radians(8.0), np.radians(8.0)
    c1 = b - golden * (b - a)
    c2 = a + golden * (b - a)
    f1, f2 = box(c1)[0], box(c2)[0]
    for _ in range(20):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - golden * (b - a)
            f1 = box(c1)[0]
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + golden * (b - a)
            f2 = box(c2)[0]
    theta = (a + b) / 2.0
    _, qx, qy = box(theta)
    r_new = r @ rotation_z(theta)
    delta = np.array(
        [
            (qx[0] + qx[1]) / 2.0 - (sx[0] + sx[1]) / 2.0,
            (qy[0] + qy[1]) / 2.0 - (sy[0] + sy[1]) / 2.0,
            float(np.median(local[:, 2])) - sz,
        ]
    )
    return Pose(r_new, t + r_new @ delta)


def _search_cloud(cloud: PointCloud, cap: int) -> PointCloud:
    """Deterministic voxel decimation of `cloud` down to at most `cap` points.
    Pair enumeration over every point of a dense cloud is quadratic in the
    annulus occupancy, so the candidate search runs on this reduced set."""
    if len(cloud) <= cap:
        return cloud
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    ext = np.sort(hi - lo)[::-1]
    leaf = max(1e-4, float(np.sqrt(max(ext[0] * ext[1], 1e-12) / cap)))
    out = voxel_downsample(cloud, leaf)
    while len(out) > cap:
        leaf *= 1.3
        out = voxel_downsample(cloud, leaf)
    return out


class _Lcp:
    """The coarse stage's LCP score of poses of a source cloud against a
    target kd-tree, on a fixed sample of at most `_LCP_SAMPLE` source points
    spread evenly over the source's order."""

    def __init__(self, source: np.ndarray, target_tree: cKDTree):
        idx = np.linspace(0, len(source) - 1, min(_LCP_SAMPLE, len(source)))
        self.sample = source[np.unique(idx.astype(int))]
        self.tree = target_tree

    def hits(self, pose: Pose, dist: float, floor: int = -1) -> int:
        """How many sampled source points have a target neighbor within
        `dist` under `pose`, exactly when that count exceeds `floor`, and
        some count not above `floor` otherwise: the sample is queried in
        strided chunks, and the rest is skipped once the misses so far rule
        out beating `floor`. With no floor to beat (a negative one) the whole
        sample is queried in one call. The search is bounded just past
        `dist`; a farther neighbor is a miss whatever its distance."""
        n = len(self.sample)
        moved = pose.transform(self.sample)
        bound = dist * _LCP_BOUND_SLACK
        stride = _LCP_STRIDE if floor >= 0 else 1
        misses = 0
        for k in range(stride):
            d, _ = self.tree.query(moved[k::stride], distance_upper_bound=bound)
            misses += len(d) - int(np.count_nonzero(d <= dist))
            if n - misses <= floor:
                break
        return n - misses

    def score(self, pose: Pose, dist: float) -> float:
        """LCP score: fraction of sampled source points with a target
        neighbor within `dist` under `pose`."""
        return self.hits(pose, dist) / len(self.sample)


def lcp_score(source: PointCloud, target: PointCloud, pose: Pose, dist: float) -> float:
    """The LCP score `coarse_register` gives a pose: the fraction of its fixed
    sample of `source` points that land within `dist` of a `target` point
    under `pose`.

    The target's tree is built by the sliding-midpoint rule
    (`balanced_tree=False`, Maneewongvatana & Mount, 1999) without shrinking
    its nodes to their points (`compact_nodes=False`), which builds several
    times faster than the default median split. The score reads only
    distances, and a query's distance to its nearest point is computed from
    that point and the query alone, whatever the tree's shape, so the score
    is that of the default tree. `_TrackedNearest` (ICP) and the coarse
    stage's polish keep the default tree: they read the neighbor's index,
    and which of two equally near points a query returns depends on the
    tree's shape."""
    tree = cKDTree(target.points, balanced_tree=False, compact_nodes=False)
    return _Lcp(source.points, tree).score(pose, dist)


# Fewest points per cloud that `coarse_register` searches; the pipeline's
# front end rejects a smaller face segment under its `filters` stage.
MIN_POINTS = 50


def coarse_register(
    source: PointCloud, target: PointCloud, params: RegistrationParams | None = None
) -> RegistrationResult:
    """Estimate the rigid transform taking `source` onto `target`.

    Candidate 4-point sets are searched on a voxel-decimated copy of the
    target (at most `_SEARCH_POINTS` points); the winning pose is then
    scored and polished against the full target. Deterministic for a fixed
    `params.seed`. Raises RegistrationFailed when no candidate reaches
    `params.min_score`.
    """
    if params is None:
        params = RegistrationParams()
    if len(source) < MIN_POINTS or len(target) < MIN_POINTS:
        raise ValueError(
            f"coarse registration needs at least {MIN_POINTS} points per cloud"
        )
    t0 = time.perf_counter()
    src = source.points
    tgt = target.points
    rng = np.random.default_rng(params.seed)
    obb: Obb = fit_obb(source)
    diag = 2.0 * float(np.linalg.norm(obb.half_extents))
    spts = _search_cloud(target, _SEARCH_POINTS).points
    table = _pair_table(spts)
    target_tree = cKDTree(tgt)
    lcp = _Lcp(src, target_tree)

    best_hits = -1
    best_score = -1.0
    best_pose: Pose | None = None
    for attempt in range(_MAX_ATTEMPTS):
        base = _sample_base(src, diag, rng, attempt)
        if base is None:
            continue
        (ia, ib, ic, idd), r1, r2, alpha = base
        len1 = float(np.linalg.norm(src[ib] - src[ia]))
        len2 = float(np.linalg.norm(src[idd] - src[ic]))
        pairs1 = _annulus(table, len1, params.eps)
        if len(pairs1) == 0 or len(pairs1) > _PAIR_CAP:
            continue
        pairs2 = _annulus(table, len2, params.eps)
        if len(pairs2) == 0 or len(pairs2) > _PAIR_CAP:
            continue
        # a gridded target concentrates pair distances at a few lattice
        # values, flooding the annulus; one congruent hit is enough, so cap
        # the per-base workload with a seeded subsample
        if len(pairs1) > _PAIR_SUBSAMPLE:
            keep = rng.choice(len(pairs1), _PAIR_SUBSAMPLE, replace=False)
            keep.sort()
            pairs1 = pairs1[keep]
        if len(pairs2) > _PAIR_SUBSAMPLE:
            keep = rng.choice(len(pairs2), _PAIR_SUBSAMPLE, replace=False)
            keep.sort()
            pairs2 = pairs2[keep]
        cands = _congruent_candidates(spts, pairs1, pairs2, r1, r2, alpha, params)
        base_pts = src[[ia, ib, ic, idd]]
        for quad in cands:
            cand_pts = spts[quad]
            pose = kabsch(base_pts, cand_pts)
            rmsd = float(
                np.sqrt(np.mean(np.sum((pose.transform(base_pts) - cand_pts) ** 2, axis=1)))
            )
            if rmsd > 2.5 * params.eps:
                continue
            # rank at the tight pair tolerance: at the loose inlier radius a
            # pose several millimeters off is indistinguishable from aligned
            hits = lcp.hits(pose, params.eps, best_hits)
            if hits > best_hits:
                best_hits = hits
                best_score = hits / len(lcp.sample)
                best_pose = pose
            if best_score >= _EARLY_EXIT_SCORE:
                break
        if best_score >= _EARLY_EXIT_SCORE:
            break
    if best_pose is None or best_score < params.min_score:
        raise RegistrationFailed(
            f"best alignment score {max(best_score, 0.0):.3f} below "
            f"{params.min_score:.3f}"
        )
    # polish the winner on nearest-neighbor correspondences, dropping only the
    # farthest few percent each pass. Points over a sensor hole pull toward the
    # hole rim and sit at the top of the distance distribution, while the edge
    # overhang that carries the in-plane restoring signal survives the cut; an
    # absolute distance gate cannot separate the two
    pose = best_pose
    for _ in range(_REFINE_ROUNDS):
        d, idx = target_tree.query(pose.transform(src))
        inl = d <= np.quantile(d, _POLISH_KEEP)
        if np.count_nonzero(inl) < 4:
            break
        pose = kabsch(src[inl], tgt[idx[inl]])
    snapped = _box_snap(src, tgt, pose)
    pose = max((snapped, pose, best_pose), key=lambda p: lcp.score(p, params.eps))
    final_score = lcp.score(pose, params.inlier_dist)
    pose = Pose(orthonormalize(pose.r), pose.t)
    return RegistrationResult(pose, final_score, time.perf_counter() - t0)


def _distance(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row distances |q - p|, rounded as `cKDTree.query` rounds them:
    sqrt((dx^2 + dy^2) + dz^2)."""
    diff = q - p
    diff *= diff
    s = diff[:, 0] + diff[:, 1]
    s += diff[:, 2]
    return np.sqrt(s, out=s)


class _TrackedNearest:
    """Nearest target point of each row of a query cloud that moves a little
    between calls, as ICP's source does under its iterated pose. Every call
    returns exactly what `cKDTree(target).query(q)` returns, distance bits and
    indices, but re-queries the tree only for the rows whose answer may have
    changed.

    A row's last real query (k=3, at its anchor) left two candidates and the
    reach, the distance to the third-nearest target point. No other target
    point can be nearer to q than reach - |q - anchor|, so the nearer
    candidate is still the unique nearest while it is closer than that bound
    and closer than the other candidate, each by `_REUSE_MARGIN` (relative to
    the largest coordinate seen), which covers every rounding in the
    comparison. The other rows are re-queried; where a re-query's first two
    distances tie (within the margin), the tree's k=1 search, whose
    tie-break can differ from k=3's, gives the answer.
    """

    def __init__(self, target: np.ndarray):
        self.target = target
        self.tree = cKDTree(target)
        self.scale = float(np.abs(target).max(initial=0.0))
        self.anchor = None

    def query(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.target) < 3:
            return self.tree.query(q)
        self.scale = max(self.scale, float(np.abs(q).max(initial=0.0)))
        margin = _REUSE_MARGIN * self.scale
        if self.anchor is None:
            self.anchor = np.empty_like(q)
            self.near = np.empty((len(q), 2), dtype=np.intp)
            self.reach = np.empty(len(q))
            d = np.empty(len(q))
            idx = np.empty(len(q), dtype=np.intp)
            stale = np.arange(len(q))
        else:
            i1, i2 = self.near[:, 0], self.near[:, 1]
            d1 = _distance(q, np.take(self.target, i1, axis=0))
            d2 = _distance(q, np.take(self.target, i2, axis=0))
            d = np.minimum(d1, d2)
            idx = np.where(d2 < d1, i2, i1)
            other = np.maximum(d1, d2)
            drift = _distance(q, self.anchor)
            keep = (d + drift < self.reach - margin) & (d + margin < other)
            stale = np.flatnonzero(~keep)
        if len(stale):
            self._requery(q, stale, d, idx, margin)
        return d, idx

    def _requery(self, q, rows, d, idx, margin) -> None:
        """Query `rows` of `q` afresh, writing their answer into d and idx and
        anchoring their candidates and reach at where they are now."""
        moved = np.take(q, rows, axis=0)
        dd, ii = self.tree.query(moved, k=3)
        self.anchor[rows] = moved
        self.near[rows] = ii[:, :2]
        self.reach[rows] = dd[:, 2]
        d[rows] = dd[:, 0]
        idx[rows] = ii[:, 0]
        tied = dd[:, 1] - dd[:, 0] <= margin
        if np.any(tied):
            rows = rows[tied]
            d[rows], idx[rows] = self.tree.query(moved[tied])


def icp_refine(
    source: PointCloud,
    target: PointCloud,
    initial: Pose,
    max_iter: int = 60,
    converge_eps: float = 1e-6,
    inlier_dist: float = 0.008,
) -> RegistrationResult:
    """Point-to-point ICP from an initial pose.

    Each iteration matches every source point to its nearest target point and
    solves the closed-form least-squares rigid fit. Stops when the mean
    correspondence distance changes by less than `converge_eps` meters.
    The matches are exactly those of a full kd-tree query per iteration;
    `_TrackedNearest` re-queries the tree only for the source points whose
    nearest target point may have changed since their last query.
    """
    if len(source) == 0 or len(target) == 0:
        raise NoCorrespondences("both clouds must be non-empty")
    t0 = time.perf_counter()
    src = source.points
    tgt = target.points
    # the source never moves, so it is centred once for every fit
    cs = src.mean(axis=0)
    centred = cs, src - cs
    nearest = _TrackedNearest(tgt)
    pose = Pose(np.array(initial.r), np.array(initial.t))
    prev_mean = np.inf
    d = None
    for _ in range(max_iter):
        d, idx = nearest.query(pose.transform(src))
        mean_d = float(d.mean())
        if mean_d < converge_eps or abs(prev_mean - mean_d) < converge_eps:
            break
        prev_mean = mean_d
        fit = kabsch(src, np.take(tgt, idx, axis=0), centred)
        pose = Pose(orthonormalize(fit.r), fit.t)
    if d is None:
        d, _ = nearest.query(pose.transform(src))
    score = float(np.mean(d <= inlier_dist))
    return RegistrationResult(pose, score, time.perf_counter() - t0)
