import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from cuboidpose import (
    PointCloud,
    Pose,
    coarse_register,
    icp_refine,
    kabsch,
    lcp_score,
    make_reference_face,
    pairs_in_range,
    voxel_downsample,
)
from cuboidpose import bench, registration
from cuboidpose.bench import BenchConfig, draw_trial, run_trial, scene_spec_for
from cuboidpose.camera import deproject_mask
from cuboidpose.correction import CuboidSpec
from cuboidpose.errors import RegistrationFailed
from cuboidpose.geometry import orthonormalize, rotation_about, rotation_angle, rotation_z
from cuboidpose.registration import (
    _TrackedNearest,
    _annulus,
    _congruent_candidates,
    _pair_table,
)
from cuboidpose.synth import inject_pose_error, render_scene
from conftest import symmetric_rot_err_deg

FACE = CuboidSpec(0.30, 0.20, 0.05)


def face_cloud(rng, n=100_000):
    pts = np.column_stack(
        [rng.uniform(-0.15, 0.15, n), rng.uniform(-0.10, 0.10, n), np.zeros(n)]
    )
    return pts


# ---------------------------------------------------------------- pair search

def brute_pairs(pts, r, eps):
    d = cdist(pts, pts)
    out = set()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if r - eps < d[i, j] < r + eps:
                out.add((i, j))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairs_in_range_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(0.0, 0.5, size=(300, 3)))
    r = rng.uniform(0.1, 0.4)
    eps = rng.uniform(0.01, 0.05)
    got = pairs_in_range(cloud, r, eps)
    assert set(got) == brute_pairs(cloud.points, r, eps)
    assert got == sorted(got)


def test_pairs_in_range_bad_tolerance():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pairs_in_range(cloud, 0.1, 0.2)
    with pytest.raises(ValueError):
        pairs_in_range(cloud, 0.1, 0.0)
    with pytest.raises(ValueError):
        pairs_in_range(cloud, -1.0, 0.01)


def test_pairs_in_range_tiny_clouds():
    assert pairs_in_range(PointCloud(np.empty((0, 3))), 0.5, 0.1) == []
    assert pairs_in_range(PointCloud(np.zeros((1, 3))), 0.5, 0.1) == []
    two = PointCloud(np.array([[0.0, 0.0, 0.0], [0.3, 0.4, 0.0]]))
    assert pairs_in_range(two, 0.5, 0.1) == [(0, 1)]
    assert pairs_in_range(two, 1.0, 0.1) == []
    for n in (0, 1, 2):
        starts, d = _pair_table(np.zeros((n, 3)))
        assert len(starts) == n and len(d) == n * (n - 1) // 2


def test_pairs_at_the_annulus_bounds_are_excluded():
    """r - eps = 0.25 and r + eps = 0.75 are exact, and so are the distances
    along x; the interval is open at both ends."""
    xs = [0.0, 0.25, 0.75, 0.5, np.nextafter(0.75, 0.0)]
    cloud = PointCloud(np.column_stack([xs, np.zeros(5), np.zeros(5)]))
    got = pairs_in_range(cloud, 0.5, 0.25)
    # 0.25 apart: (0,1), (1,3), (2,3); 0.75 apart: (0,2)
    assert not {(0, 1), (1, 3), (2, 3), (0, 2)} & set(got)
    assert got == [(0, 3), (0, 4), (1, 2), (1, 4)]


@pytest.mark.parametrize("seed", range(6))
def test_pair_table_matches_norm_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    scale = 10.0 ** rng.uniform(-3, 3)
    pts = rng.normal(size=(n, 3)) * scale + rng.uniform(-5, 5, 3) * scale
    table = _pair_table(pts)
    d = table[1]
    iu, ju = np.triu_indices(n, k=1)
    assert np.array_equal(d, np.linalg.norm(pts[iu] - pts[ju], axis=1))
    # an annulus holding every distance returns the full lexicographic list
    far = float(d.max())
    every = _annulus(table, far, far * (1.0 - 1e-12))
    assert np.array_equal(every, np.column_stack((iu, ju)))
    r = float(np.median(d))
    pairs = _annulus(table, r, r / 10.0)
    sel = (d > r - r / 10.0) & (d < r + r / 10.0)
    assert np.array_equal(pairs, np.column_stack((iu[sel], ju[sel])))
    assert pairs.shape[1] == 2 and len(pairs) > 0
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    assert np.array_equal(order, np.arange(len(pairs)))
    assert np.all(pairs[:, 0] < pairs[:, 1])


def _candidates_by_rows(
    pts, pairs1, pairs2, r1, r2, alpha_deg, cut=50000, angle_tol_deg=7.0
):
    """Row-loop form of the congruent-set match, kept here as the oracle: the
    matches of each midpoint group are appended in order, stopping after the
    group that takes the count past `cut`."""

    def endpoints(pairs):
        starts = np.concatenate([pairs[:, 0], pairs[:, 1]])
        ends = np.concatenate([pairs[:, 1], pairs[:, 0]])
        return starts, ends, pts[starts], pts[ends] - pts[starts]

    s1, e1, p1, d1 = endpoints(pairs1)
    s2, e2, p2, d2 = endpoints(pairs2)
    mid1 = p1 + r1 * d1
    mid2 = p2 + r2 * d2
    groups = cKDTree(mid1).query_ball_point(mid2, registration.PAIR_EPS)
    rows = []
    for j, grp in enumerate(groups):
        for i in grp:
            rows.append((i, j))
        if len(rows) > cut:
            break
    if not rows:
        return []
    rows = np.asarray(rows, dtype=np.int64)
    i1, i2 = rows[:, 0], rows[:, 1]
    u1 = d1[i1] / np.linalg.norm(d1[i1], axis=1, keepdims=True)
    u2 = d2[i2] / np.linalg.norm(d2[i2], axis=1, keepdims=True)
    ang = np.degrees(np.arccos(np.clip(np.sum(u1 * u2, axis=1), -1.0, 1.0)))
    ang_err = np.abs(ang - alpha_deg)
    keep = ang_err <= angle_tol_deg
    i1, i2, ang_err = i1[keep], i2[keep], ang_err[keep]
    e_dist = np.linalg.norm(mid1[i1] - mid2[i2], axis=1)
    badness = e_dist / registration.PAIR_EPS + ang_err / angle_tol_deg
    order = np.argsort(badness, kind="stable")[: registration._MAX_CANDIDATES]
    return [
        (int(s1[a]), int(e1[a]), int(s2[b]), int(e2[b]))
        for a, b in zip(i1[order], i2[order])
    ]


def _crossed_segments(rng, m1, m2, eps):
    """Segments along x (first m1) and along y (next m2) with midpoints
    scattered about eps around the origin, so the midpoint groups have uneven
    sizes; returns points and both (m, 2) pair arrays."""
    ends = []
    for axis, m in ((0, m1), (1, m2)):
        mids = rng.normal(scale=0.5 * eps, size=(m, 3))
        half = np.zeros(3)
        half[axis] = rng.uniform(0.05, 0.1)
        ends.append(np.stack([mids - half, mids + half], axis=1))
    pts = np.concatenate([e.reshape(-1, 3) for e in ends])
    pairs = np.arange(2 * (m1 + m2)).reshape(-1, 2)
    return pts, pairs[:m1], pairs[m1:]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_congruent_candidates_match_row_loop(seed, monkeypatch):
    """The vectorised match equals the row loop, including which midpoint
    group is the last one taken when the matches cross the 50 000-row cut.
    Every match passes the angle test and `_MAX_CANDIDATES` is raised to
    keep all of them, so one group more or less changes the result."""
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(registration, "_MAX_CANDIDATES", 10**6)
    pts, pairs1, pairs2 = _crossed_segments(rng, 400, 160, registration.PAIR_EPS)
    args = (pts, pairs1, pairs2, 0.5, 0.5, 90.0)
    want = _candidates_by_rows(*args)
    uncut = _candidates_by_rows(*args, cut=10**9)
    assert 50000 < len(want) < len(uncut)
    got = _congruent_candidates(*args)
    assert got.shape == (len(want), 4)
    assert got.tolist() == [list(row) for row in want]
    # and below the cut: a short input is taken whole
    few = (pts, pairs1[:20], pairs2[:20], 0.5, 0.5, 90.0)
    assert _congruent_candidates(*few).tolist() == [
        list(row) for row in _candidates_by_rows(*few)
    ]


def test_congruent_candidates_none():
    rng = np.random.default_rng(5)
    pts, pairs1, pairs2 = _crossed_segments(rng, 10, 10, registration.PAIR_EPS)
    far = pts.copy()
    far[20:] += 1.0  # the y segments' midpoints move away from the x ones
    got = _congruent_candidates(far, pairs1, pairs2, 0.5, 0.5, 90.0)
    assert got.shape == (0, 4)
    # close midpoints but the wrong crossing angle
    got = _congruent_candidates(pts, pairs1, pairs2, 0.5, 0.5, 30.0)
    assert got.shape == (0, 4)


# ---------------------------------------------------------------- rigid fit

def test_kabsch_recovers_rigid_motion():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(200, 3))
    r = rotation_about([0.3, -1.0, 0.5], 0.9)
    t = np.array([0.2, -0.4, 1.1])
    fit = kabsch(src, src @ r.T + t)
    assert_allclose(fit.r, r, atol=1e-9)
    assert_allclose(fit.t, t, atol=1e-9)


def test_kabsch_proper_rotation_under_noise():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(100, 3))
    dst = src @ rotation_z(0.4).T + rng.normal(scale=0.01, size=(100, 3))
    fit = kabsch(src, dst)
    assert np.linalg.det(fit.r) == pytest.approx(1.0, abs=1e-9)
    assert_allclose(fit.r.T @ fit.r, np.eye(3), atol=1e-9)


def test_kabsch_with_centred_source_is_bitwise_equal():
    """A source centred by the caller gives the fit `kabsch` computes
    itself, bit for bit; ICP centres its source once and passes it."""
    rng = np.random.default_rng(5)
    src = rng.normal(loc=[0.1, -0.2, 1.0], scale=0.1, size=(7776, 3))
    dst = src @ rotation_about([0.2, 0.1, 1.0], 0.05).T + rng.normal(
        scale=0.001, size=src.shape
    )
    cs = src.mean(axis=0)
    want = kabsch(src, dst)
    got = kabsch(src, dst, (cs, src - cs))
    assert got.r.tobytes() == want.r.tobytes()
    assert got.t.tobytes() == want.t.tobytes()


def kabsch_mean_oracle(src, dst):
    """`kabsch` with the target centroid it had: `dst.mean(axis=0)`."""
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(r, cd - r @ cs)


@pytest.mark.parametrize("n", [4, 1734, 7776])
def test_kabsch_centroid_from_running_sums_is_bitwise_mean(n):
    """The target centroid from column running sums gives the fit of
    `dst.mean(axis=0)`, bit for bit, on row-major gathers like ICP's; 1734
    and 7776 rows are the trial workloads' reference grids."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        src = rng.normal(loc=[0.1, -0.2, 1.0], scale=0.1, size=(n, 3))
        cloud = rng.normal(scale=rng.uniform(0.01, 10.0), size=(2 * n, 3))
        dst = np.take(cloud + rng.normal(size=3), rng.integers(0, 2 * n, n), axis=0)
        want = kabsch_mean_oracle(src, dst)
        got = kabsch(src, dst)
        assert got.r.tobytes() == want.r.tobytes()
        assert got.t.tobytes() == want.t.tobytes()


# ---------------------------------------------------------------- ICP

def test_icp_stays_put_at_ground_truth():
    rng = np.random.default_rng(7)
    ref = make_reference_face(FACE, 0.006)
    gt = Pose(rotation_about([0.1, 0.2, 1.0], 0.4), np.array([0.0, 0.02, 1.0]))
    target = PointCloud(gt.transform(ref.cloud.points))
    res = icp_refine(ref.cloud, target, gt)
    assert_allclose(res.pose.r, gt.r, atol=1e-9)
    assert_allclose(res.pose.t, gt.t, atol=1e-9)
    assert res.score == 1.0


def test_icp_converges_on_dense_planar_target():
    """Given a dense target and generous iterations, a 3 degree / 3 mm start
    settles to a fraction of a degree and of a millimeter.

    The interior of a planar face gives nearest-neighbor matching no lateral
    signal, so the residual floor is set by the boundary strips and never
    reaches machine precision.
    """
    ref = make_reference_face(FACE, 0.003)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        gt = Pose(
            rotation_about([0.2, -0.4, 1.0], 0.3), np.array([0.02, -0.01, 1.0])
        )
        target = PointCloud(gt.transform(face_cloud(rng)))
        start = inject_pose_error(gt, 3.0, np.full(3, 0.003 / np.sqrt(3.0)))
        res = icp_refine(ref.cloud, target, start, max_iter=400, converge_eps=1e-9)
        rot = np.degrees(rotation_angle(res.pose.r @ gt.r.T))
        trans = np.linalg.norm(res.pose.t - gt.t) * 1000.0
        assert rot <= 0.6, f"seed {seed}: {rot:.3f} deg"
        assert trans <= 0.6, f"seed {seed}: {trans:.3f} mm"


def test_icp_residual_on_dropout_scenes():
    """On noisy dropout scenes at the benchmark's budget, ICP keeps a residual
    around a degree and a couple of millimeters; that plateau is exactly what
    the fast correction is compared against."""
    config = BenchConfig()
    ref = make_reference_face(config.cuboid, config.pitch_m)
    rots, trans = [], []
    for trial in range(3):
        rec = run_trial(config, ref, trial)
        rots.append(rec.icp_rot_err_deg)
        trans.append(rec.icp_trans_err_mm)
    assert 0.5 <= np.mean(rots) <= 3.0
    assert 1.0 <= np.mean(trans) <= 4.0


def test_icp_never_lowers_the_score():
    ref = make_reference_face(FACE, 0.006)
    rng = np.random.default_rng(9)
    gt = Pose(rotation_about([0.0, 0.1, 1.0], 0.2), np.array([0.01, 0.0, 1.0]))
    target = PointCloud(gt.transform(face_cloud(rng, 20_000)))
    start = inject_pose_error(gt, 3.0, np.array([0.002, 0.001, -0.002]))
    d, _ = cKDTree(target.points).query(start.transform(ref.cloud.points))
    before = float(np.mean(d <= 0.008))
    res = icp_refine(ref.cloud, target, start)
    assert res.score >= before - 1e-9


def test_icp_empty_cloud():
    ref = make_reference_face(FACE, 0.006)
    from cuboidpose.errors import NoCorrespondences

    empty = PointCloud(np.empty((0, 3)))
    with pytest.raises(NoCorrespondences):
        icp_refine(ref.cloud, empty, Pose(np.eye(3), np.zeros(3)))


def test_icp_pose_orthonormal():
    rng = np.random.default_rng(10)
    ref = make_reference_face(FACE, 0.006)
    gt = Pose(rotation_about([0.3, 0.1, 1.0], -0.3), np.array([0.0, 0.0, 0.9]))
    target = PointCloud(gt.transform(face_cloud(rng, 30_000)))
    start = inject_pose_error(gt, 4.0, np.array([0.004, -0.002, 0.001]))
    res = icp_refine(ref.cloud, target, start)
    assert_allclose(res.pose.r.T @ res.pose.r, np.eye(3), atol=1e-9)
    assert np.linalg.det(res.pose.r) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- LCP score

# meters; sums, differences and squares of small multiples of it are exact
LATTICE = 2.0**-8


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_target=st.one_of(st.integers(1, 3), st.integers(4, 300)),
    n_dup=st.integers(0, 40),
    n_free=st.integers(0, 200),
    n_edge=st.integers(0, 100),
    steps=st.integers(1, 8),
    moved=st.booleans(),
)
def test_lcp_score_matches_default_tree(seed, n_target, n_dup, n_free, n_edge, steps, moved):
    """`lcp_score` builds a sliding-midpoint tree; its score equals the count
    of sampled points whose nearest target point, found by a default
    `cKDTree` with no bound, is within `dist`. Targets may be 1-3 points or
    repeat points; source points placed exactly `dist` from a target along an
    axis, with no pose to round them, sit on the `d <= dist` edge."""
    rng = np.random.default_rng(seed)
    dist = steps * LATTICE
    tgt = rng.integers(-64, 65, size=(n_target, 3)) * LATTICE
    tgt = np.concatenate([tgt, tgt[rng.integers(n_target, size=n_dup)]])
    edge = tgt[rng.integers(len(tgt), size=n_edge)]
    edge[np.arange(n_edge), rng.integers(3, size=n_edge)] += rng.choice([-dist, dist], n_edge)
    free = rng.integers(-80, 81, size=(n_free, 3)) * LATTICE
    src = np.concatenate([edge, free])
    if len(src) == 0:
        src = tgt[:1]
    pose = Pose(np.eye(3), np.zeros(3))
    if moved:
        turn = rotation_about(rng.normal(size=3), rng.uniform(-0.1, 0.1))
        pose = Pose(turn, rng.normal(scale=0.01, size=3))
    sample = registration._Lcp(src, None).sample
    d, _ = cKDTree(tgt).query(pose.transform(sample))
    want = np.count_nonzero(d <= dist) / len(sample)
    if not moved and n_edge:
        assert np.count_nonzero(d == dist) > 0
    assert lcp_score(PointCloud(src), PointCloud(tgt), pose, dist) == want


def test_only_the_plane_check_reshapes_its_tree(monkeypatch, rendered_target):
    """ICP and the coarse search read neighbor indices, whose ties the tree's
    shape breaks, so they build default trees; only `lcp_score` does not."""
    made = []
    real = registration.cKDTree

    def recorded(*args, **kwargs):
        made.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(registration, "cKDTree", recorded)
    target, _, scene_seed = rendered_target
    ref = make_reference_face(FACE, 0.006)
    pose = coarse_register(ref.cloud, target, scene_seed).pose
    icp_refine(ref.cloud, target, pose, max_iter=3)
    assert made and all(kwargs == {} for kwargs in made)
    made.clear()
    lcp_score(ref.cloud, target, pose, registration.INLIER_DIST)
    assert made == [{"balanced_tree": False, "compact_nodes": False}]


# ---------------------------------------------------------------- tracked nearest neighbors

def assert_same_as_tree(nearest, tree, q):
    """One call of the tracker returns the kd-tree's answer bit for bit."""
    d, idx = nearest.query(q)
    want_d, want_idx = tree.query(q)
    assert d.dtype == want_d.dtype and idx.dtype == want_idx.dtype
    assert d.tobytes() == want_d.tobytes()
    assert idx.tobytes() == want_idx.tobytes()


MOTIONS = {"still": (0.0, 0.0), "small": (1e-3, 1e-3), "large": (1.0, 0.5)}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_target=st.integers(3, 300),
    n_dup=st.integers(0, 40),
    n_source=st.integers(1, 200),
    steps=st.lists(st.sampled_from(sorted(MOTIONS)), min_size=1, max_size=12),
)
def test_tracked_nearest_matches_kdtree_under_motion(seed, n_target, n_dup, n_source, steps):
    """A chain of small rigid motions, ICP's case, or large ones or none: each
    call equals `cKDTree.query`, also where the target repeats points, whose
    equal distances leave the pick to the tree's tie-break."""
    rng = np.random.default_rng(seed)
    tgt = rng.uniform(-1.0, 1.0, size=(n_target, 3))
    tgt = np.concatenate([tgt, tgt[rng.integers(n_target, size=n_dup)]])
    tgt = tgt[rng.permutation(len(tgt))]
    src = rng.uniform(-1.2, 1.2, size=(n_source, 3))
    tree = cKDTree(tgt)
    nearest = _TrackedNearest(tgt)
    pose = Pose(np.eye(3), np.zeros(3))
    assert_same_as_tree(nearest, tree, src)
    for step in steps:
        rot, shift = MOTIONS[step]
        turn = rotation_about(rng.normal(size=3), rng.uniform(-rot, rot))
        pose = Pose(turn, rng.uniform(-shift, shift, 3)).compose(pose)
        assert_same_as_tree(nearest, tree, pose.transform(src))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 5),
    n_dup=st.integers(0, 10),
    steps=st.lists(st.sampled_from(["tied", "near", "small", "large"]), min_size=1, max_size=8),
)
@example(seed=0, size=4, n_dup=0, steps=["tied"])
@example(seed=0, size=4, n_dup=0, steps=["near", "tied"])
def test_tracked_nearest_matches_kdtree_at_tied_lattice_midpoints(seed, size, n_dup, steps):
    """An integer lattice queried at the midpoints of 2, 4 or 8 of its points,
    where distances tie exactly, and near them. A k=3 query breaks such ties
    differently from the k=1 query that `cKDTree.query` makes, and a point
    moved onto a tie from nearby holds two candidates at equal distance."""
    rng = np.random.default_rng(seed)
    axis = np.arange(size, dtype=float)
    tgt = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    tgt = np.concatenate([tgt, tgt[rng.integers(len(tgt), size=n_dup)]])
    tgt = tgt[rng.permutation(len(tgt))]
    mids = rng.integers(0, size - 1, size=(200, 3)) + 0.5 * rng.integers(0, 2, size=(200, 3))
    tree = cKDTree(tgt)
    nearest = _TrackedNearest(tgt)
    q = mids
    for step in steps:
        if step == "tied":
            q = mids
        elif step == "near":
            q = mids + rng.normal(scale=1e-3, size=mids.shape)
        else:
            rot, shift = MOTIONS[step]
            q = Pose(rotation_about(rng.normal(size=3), rot), np.full(3, shift)).transform(q)
        assert_same_as_tree(nearest, tree, q)


def test_tracked_nearest_keeps_a_margin():
    """Rows anchored at a = (k+m)(1,1,0), where the nearest target points are
    c2 just above a, then c = (2k,0,0), then the reach t3 = 0, and moved to
    q = k(1,1,0), straight toward t3. At q, c and t3 tie exactly (both
    sqrt(2k^2)), and in exact arithmetic c sits at exactly reach - drift. The
    drift m*sqrt(2) and reach (k+m)*sqrt(2) round separately, so for some
    (k, m) the comparison alone would reuse c where the kd-tree picks t3."""
    k, m = (a.ravel().astype(float) for a in np.mgrid[1:25, 1:25])
    m += k
    rows = len(k)
    diag = np.array([1.0, 1.0, 0.0])
    offset = np.column_stack([1000.0 * np.arange(rows), np.zeros((rows, 2))])
    anchor = (k + m)[:, None] * diag + offset
    c = np.column_stack([2.0 * k, np.zeros((rows, 2))]) + offset
    c2 = anchor + np.array([0.0, 0.0, 0.25])
    for tgt in (np.concatenate([c, c2, offset]), np.concatenate([offset, c2, c])):
        tree = cKDTree(tgt)
        nearest = _TrackedNearest(tgt)
        assert_same_as_tree(nearest, tree, anchor)
        assert_same_as_tree(nearest, tree, k[:, None] * diag + offset)


def test_tracked_nearest_tiny_targets():
    """Fewer than three target points leave no reach; the tree answers."""
    rng = np.random.default_rng(13)
    for n in (1, 2):
        tgt = rng.normal(size=(n, 3))
        tree = cKDTree(tgt)
        nearest = _TrackedNearest(tgt)
        for _ in range(3):
            assert_same_as_tree(nearest, tree, rng.normal(size=(20, 3)))


def icp_refine_oracle(source, target, initial, max_iter=60, converge_eps=1e-6, inlier_dist=0.008):
    """ICP with a full kd-tree query every iteration, kept here as the oracle:
    the pose, the score and the number of rigid fits (iterations)."""
    src = source.points
    tgt = target.points
    tree = cKDTree(tgt)
    pose = Pose(np.array(initial.r), np.array(initial.t))
    prev_mean = np.inf
    d = None
    fits = 0
    for _ in range(max_iter):
        d, idx = tree.query(pose.transform(src))
        mean_d = float(d.mean())
        if mean_d < converge_eps or abs(prev_mean - mean_d) < converge_eps:
            break
        prev_mean = mean_d
        fit = kabsch(src, tgt[idx])
        fits += 1
        pose = Pose(orthonormalize(fit.r), fit.t)
    if d is None:
        d, _ = tree.query(pose.transform(src))
    return pose, float(np.mean(d <= inlier_dist)), fits


# criterion 01's trial config, and criteria 02/03's: 10 % dropout, denser clouds
PLAIN_TRIALS = dict(
    inj_yaw_deg=5.0,
    inj_dt_mm=10.0,
    noise_sigma_mm=1.0,
    dropout_frac=0.0,
    voxel_leaf_m=0.006,
    pitch_m=0.006,
)
DENSE_DROPOUT_TRIALS = dict(PLAIN_TRIALS, dropout_frac=0.1, voxel_leaf_m=0.003, pitch_m=0.0028)


@pytest.mark.parametrize(
    "trials", [PLAIN_TRIALS, DENSE_DROPOUT_TRIALS], ids=["plain", "dense_dropout"]
)
def test_icp_matches_full_query_oracle(trials, monkeypatch):
    """On seeded bench scenes, ICP's pose, score and iteration count equal
    the full-query loop's bit for bit, and the tracker re-queries well under
    half of the point-iterations."""
    config = BenchConfig(master_seed=11, **trials)
    ref = make_reference_face(config.cuboid, config.pitch_m)
    fits = [0]
    requeried = [0]
    real_kabsch = registration.kabsch
    real_requery = _TrackedNearest._requery

    def counted_kabsch(*args):
        fits[0] += 1
        return real_kabsch(*args)

    def counted_requery(self, q, rows, *rest):
        requeried[0] += len(rows)
        return real_requery(self, q, rows, *rest)

    def checked(source, target, start, **kwargs):
        fits[0] = 0
        got = real_icp(source, target, start, **kwargs)
        pose, score, want_fits = icp_refine_oracle(source, target, start, **kwargs)
        assert got.pose.r.tobytes() == pose.r.tobytes()
        assert got.pose.t.tobytes() == pose.t.tobytes()
        assert got.score == score
        assert fits[0] == want_fits > 0
        calls.append((len(source), want_fits))
        return got

    real_icp = bench.icp_refine
    calls = []
    monkeypatch.setattr(registration, "kabsch", counted_kabsch)
    monkeypatch.setattr(_TrackedNearest, "_requery", counted_requery)
    monkeypatch.setattr(bench, "icp_refine", checked)
    for trial in range(3):
        run_trial(config, ref, trial)
    assert len(calls) == 3
    # one query per fit plus the query that stops the loop
    point_iterations = sum(n * (k + 1) for n, k in calls)
    assert requeried[0] < 0.5 * point_iterations


def test_icp_without_iterations_matches_oracle():
    ref = make_reference_face(FACE, 0.006)
    rng = np.random.default_rng(14)
    gt = Pose(rotation_about([0.2, 0.1, 1.0], 0.3), np.array([0.01, 0.0, 1.0]))
    target = PointCloud(gt.transform(face_cloud(rng, 5_000)))
    start = inject_pose_error(gt, 3.0, np.array([0.002, 0.001, -0.002]))
    for max_iter in (0, 1, 5):
        got = icp_refine(ref.cloud, target, start, max_iter=max_iter)
        pose, score, _ = icp_refine_oracle(ref.cloud, target, start, max_iter=max_iter)
        assert got.pose.matrix.tobytes() == pose.matrix.tobytes()
        assert got.score == score


# ---------------------------------------------------------------- coarse

@pytest.fixture(scope="module")
def rendered_target():
    config = BenchConfig()
    scene_seed, gt_pose, corner, _, _ = draw_trial(config, 3)
    spec = scene_spec_for(config, scene_seed, gt_pose, corner)
    _, depth, _, _, gt = render_scene(spec)
    cloud = deproject_mask(config.intrinsics, depth, gt.face_mask)
    return voxel_downsample(cloud, config.voxel_leaf_m), gt_pose, scene_seed


def test_coarse_register_finds_the_face(rendered_target):
    target, gt_pose, scene_seed = rendered_target
    ref = make_reference_face(FACE, 0.006)
    res = coarse_register(ref.cloud, target, scene_seed)
    assert symmetric_rot_err_deg(res.pose.r, gt_pose.r) <= 3.3
    assert np.linalg.norm(res.pose.t - gt_pose.t) * 1000.0 <= 5.3
    assert res.score >= 0.5


def test_coarse_register_deterministic(rendered_target):
    target, _, _ = rendered_target
    ref = make_reference_face(FACE, 0.006)
    a = coarse_register(ref.cloud, target, 123)
    b = coarse_register(ref.cloud, target, 123)
    assert_allclose(a.pose.matrix, b.pose.matrix, atol=0.0)
    assert a.score == b.score


def test_coarse_register_pose_orthonormal(rendered_target):
    target, _, scene_seed = rendered_target
    ref = make_reference_face(FACE, 0.006)
    res = coarse_register(ref.cloud, target, scene_seed)
    assert_allclose(res.pose.r.T @ res.pose.r, np.eye(3), atol=1e-9)
    assert np.linalg.det(res.pose.r) == pytest.approx(1.0, abs=1e-9)


def test_coarse_register_rejects_garbage():
    rng = np.random.default_rng(11)
    ref = make_reference_face(FACE, 0.006)
    blob = PointCloud(rng.uniform(size=(400, 3)) * 0.02 + np.array([0.0, 0.0, 1.0]))
    with pytest.raises(RegistrationFailed):
        coarse_register(ref.cloud, blob, 0)


def test_coarse_register_needs_points():
    ref = make_reference_face(FACE, 0.006)
    with pytest.raises(ValueError):
        coarse_register(ref.cloud, PointCloud(np.zeros((10, 3))), 0)


def test_coarse_register_early_rejection_is_exact(rendered_target, monkeypatch):
    """Scoring each candidate on the whole sample in one query, so that none
    is rejected early, gives the same pose and score bits."""
    target, _, scene_seed = rendered_target
    ref = make_reference_face(FACE, 0.006)
    monkeypatch.setattr(registration, "_EARLY_EXIT_SCORE", 1.1)
    monkeypatch.setattr(registration, "_MAX_ATTEMPTS", 40)
    chunked = coarse_register(ref.cloud, target, scene_seed)
    monkeypatch.setattr(registration, "_LCP_STRIDE", 1)
    whole = coarse_register(ref.cloud, target, scene_seed)
    assert chunked.pose.matrix.tobytes() == whole.pose.matrix.tobytes()
    assert chunked.score == whole.score
