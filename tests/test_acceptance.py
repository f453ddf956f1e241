"""Acceptance suite: one test per release criterion.

Every test prints (and stashes for the terminal summary) a single line
`criterion NN [PASS|FAIL] name: measured values vs bounds`, then asserts.
The two 100-trial benchmark sweeps are session fixtures shared by the first
three criteria.
"""

import math
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from cuboidpose import (
    BenchConfig,
    CameraIntrinsics,
    CuboidSpec,
    DepthImage,
    HsvRange,
    PointCloud,
    Pose,
    coarse_register,
    correct_pose,
    deproject_mask,
    estimate_normals,
    fit_quadrilateral,
    hsv_threshold,
    inject_pose_error,
    inverse_project,
    make_reference_face,
    pairs_in_range,
    project,
    region_growing,
    render_scene,
    rotation_about,
    rotation_angle,
    run_bench,
    statistical_outlier_removal,
    voxel_downsample,
)
from cuboidpose.bench import draw_trial, scene_spec_for
from conftest import symmetric_rot_err_deg

FACE = CuboidSpec(0.30, 0.20, 0.05)
RED = HsvRange(h_lo=340.0, h_hi=20.0, s_lo=0.4, s_hi=1.0, v_lo=0.2, v_hi=1.0)


def note(request, idx, name, ok, detail):
    line = f"criterion {idx:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    request.config._criterion_lines.append((idx, line))
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def bench_plain(tmp_path_factory):
    """100 seeded trials, noise 1 mm, no dropout, yaw +-5 deg, dt <=10 mm."""
    config = BenchConfig(
        trials=100,
        inj_yaw_deg=5.0,
        inj_dt_mm=10.0,
        noise_sigma_mm=1.0,
        dropout_frac=0.0,
        voxel_leaf_m=0.006,
        pitch_m=0.006,
    )
    start = time.perf_counter()
    result = run_bench(config, str(tmp_path_factory.mktemp("bench_plain")))
    wall = time.perf_counter() - start
    return SimpleNamespace(config=config, result=result, wall=wall)


@pytest.fixture(scope="session")
def bench_dropout(tmp_path_factory):
    """Same sweep with a 10% corner bite and denser clouds."""
    config = BenchConfig(
        trials=100,
        inj_yaw_deg=5.0,
        inj_dt_mm=10.0,
        noise_sigma_mm=1.0,
        dropout_frac=0.1,
        voxel_leaf_m=0.003,
        pitch_m=0.0028,
    )
    result = run_bench(config, str(tmp_path_factory.mktemp("bench_dropout")))
    return SimpleNamespace(config=config, result=result)


def test_criterion_01_correction_accuracy(request, bench_plain):
    result = bench_plain.result
    avg = result.averages["correction"]
    ok = (
        len(result.records) == 100
        and not result.failures
        and avg["rot_err_deg"] <= 0.25
        and avg["trans_err_mm"] <= 0.5
        and bench_plain.wall < 60.0
    )
    note(
        request,
        1,
        "correction accuracy",
        ok,
        f"avg_rot={avg['rot_err_deg']:.4f} deg (<=0.25), "
        f"avg_trans={avg['trans_err_mm']:.4f} mm (<=0.5), "
        f"wall={bench_plain.wall:.1f} s (<60), "
        f"recorded={len(result.records)}/100",
    )


def test_criterion_02_icp_residual_bands(request, bench_dropout):
    avg = bench_dropout.result.averages["icp"]
    rot_ok = 0.5 <= avg["rot_err_deg"] <= 2.5
    trans_ok = 0.8 <= avg["trans_err_mm"] <= 3.0
    note(
        request,
        2,
        "icp residual bands",
        rot_ok and trans_ok,
        f"icp avg_rot={avg['rot_err_deg']:.4f} deg (band [0.5, 2.5]), "
        f"avg_trans={avg['trans_err_mm']:.4f} mm (band [0.8, 3.0])",
    )


def test_criterion_03_speed_ratio(request, bench_dropout):
    config = bench_dropout.config
    records = bench_dropout.result.records
    ratios = [r.icp_time_ms / r.corr_time_ms for r in records]

    ref_n = len(make_reference_face(config.cuboid, config.pitch_m).cloud)
    scene_seed, gt, corner, _, _ = draw_trial(config, 0)
    rgb, depth, _, _, _ = render_scene(scene_spec_for(config, scene_seed, gt, corner))
    mask = hsv_threshold(rgb, RED)
    target_n = len(
        voxel_downsample(
            deproject_mask(config.intrinsics, depth, mask), config.voxel_leaf_m
        )
    )
    sizes_ok = 5000 <= min(ref_n, target_n) and max(ref_n, target_n) <= 50000
    ok = min(ratios) >= 10.0 and sizes_ok
    note(
        request,
        3,
        "speed ratio",
        ok,
        f"per-trial icp/correction time ratio min={min(ratios):.1f} "
        f"median={statistics.median(ratios):.1f} (>=10), "
        f"cloud sizes ref={ref_n} target={target_n} (within [5k, 50k])",
    )


def test_criterion_04_linear_time_transform(request):
    pose = Pose(rotation_about([0.1, -0.2, 1.0], 0.3), np.array([0.02, -0.01, 1.0]))
    t1 = pose.transform([-FACE.width / 2.0, 0.0, 0.0])
    t2 = pose.transform([FACE.width / 2.0, 0.0, 0.0])
    start = inject_pose_error(pose, 1.8, np.array([0.004, -0.002, 0.001]))

    sizes, t_correct, t_estimate = [], [], []
    for pitch in (0.00775, 0.00245, 0.000775):
        ref = make_reference_face(FACE, pitch)
        reps = []
        ests = []
        for rep in range(11):
            _, report = correct_pose(start, ref, t1, t2)
            if rep >= 2:  # discard warmup
                reps.append(report.t_correct)
                ests.append(report.t_estimate)
        sizes.append(len(ref.cloud))
        t_correct.append(statistics.median(reps))
        t_estimate.append(statistics.median(ests))

    n = np.asarray(sizes, dtype=float)
    t = np.asarray(t_correct)
    slope, intercept = np.polyfit(n, t, 1)
    resid = t - (slope * n + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((t - t.mean()) ** 2))
    est_ratio = max(t_estimate) / min(t_estimate)
    ok = r2 >= 0.99 and est_ratio <= 3.0
    note(
        request,
        4,
        "linear-time transform",
        ok,
        f"t_correct vs n={sizes} fits line with R2={r2:.4f} (>=0.99), "
        f"estimation spread max/min={est_ratio:.2f} (<=3)",
    )


def test_criterion_05_closed_loop_exact(request):
    ref = make_reference_face(FACE, 0.01)
    pose = Pose(rotation_about([0.1, -0.2, 1.0], 0.3), np.array([0.02, -0.01, 1.0]))
    t1 = pose.transform([-FACE.width / 2.0, 0.0, 0.0])
    t2 = pose.transform([FACE.width / 2.0, 0.0, 0.0])
    start = inject_pose_error(pose, 2.47, np.array([0.0008, 0.0031, -0.0002]))
    fixed, _ = correct_pose(start, ref, t1, t2)
    rot_err = math.degrees(rotation_angle(fixed.r @ pose.r.T))
    trans_err = float(np.linalg.norm(fixed.t - pose.t)) * 1000.0
    ok = rot_err <= 1e-3 and trans_err <= 1e-3
    note(
        request,
        5,
        "closed-loop recovery",
        ok,
        f"injected 2.47 deg / (0.8, 3.1, -0.2) mm; residual rot={rot_err:.2e} deg, "
        f"trans={trans_err:.2e} mm (<=1e-3 each, inside 0.23 deg / 0.3 mm)",
    )


def test_criterion_06_coarse_registration(request):
    config = BenchConfig(
        noise_sigma_mm=2.0, dropout_frac=0.1, voxel_leaf_m=0.006, pitch_m=0.006
    )
    ref = make_reference_face(config.cuboid, config.pitch_m)
    hits = 0
    times = []
    max_target = 0
    for trial in range(50):
        scene_seed, gt, corner, _, _ = draw_trial(config, trial)
        spec = scene_spec_for(config, scene_seed, gt, corner)
        rgb, depth, _, _, _ = render_scene(spec)
        mask = hsv_threshold(rgb, RED)
        target = voxel_downsample(
            deproject_mask(config.intrinsics, depth, mask), config.voxel_leaf_m
        )
        result = coarse_register(ref.cloud, target, scene_seed)
        rot_err = symmetric_rot_err_deg(result.pose.r, gt.r)
        trans_err = float(np.linalg.norm(result.pose.t - gt.t)) * 1000.0
        times.append(result.elapsed)
        max_target = max(max_target, len(target))
        if rot_err <= 3.3 and trans_err <= 5.3:
            hits += 1
    avg_time = float(np.mean(times))
    ok = hits >= 45 and avg_time < 2.0 and max_target <= 10000
    note(
        request,
        6,
        "coarse registration envelope",
        ok,
        f"{hits}/50 trials within 3.3 deg / 5.3 mm (need >=45), "
        f"avg_time={avg_time:.3f} s (<2), max_target={max_target} pts (<=10k)",
    )


def test_criterion_07_inverse_projection_roundtrip(request):
    intr = CameraIntrinsics(fx=920.0, fy=920.0, cx=641.3, cy=358.7, width=1280, height=720)
    rng = np.random.default_rng(77)
    flat = rng.choice(intr.width * intr.height, size=10_000, replace=False)
    us, vs = flat % intr.width, flat // intr.width
    zs = rng.uniform(0.4, 2.9, size=10_000)
    data = np.zeros((intr.height, intr.width))
    data[vs, us] = zs
    depth = DepthImage(data)
    quantized = DepthImage(np.rint(data * 1000.0) / 1000.0)

    max_cont = 0.0
    max_dz = 0.0
    max_d3 = 0.0
    max_bound = 0.0
    for u, v, z in zip(us, vs, zs):
        p = inverse_project(intr, depth, (u, v))
        (px, py), pz = project(intr, p)
        err = math.hypot((px - u) * z / intr.fx, (py - v) * z / intr.fy)
        max_cont = max(max_cont, math.hypot(err, pz - z))

        q = inverse_project(intr, quantized, (u, v))
        sec = math.sqrt(
            ((u - intr.cx) / intr.fx) ** 2 + ((v - intr.cy) / intr.fy) ** 2 + 1.0
        )
        max_dz = max(max_dz, abs(q[2] - z))
        max_d3 = max(max_d3, float(np.linalg.norm(q - p)))
        max_bound = max(max_bound, 0.0005 * sec)

    ok = max_cont <= 1e-9 and max_dz <= 0.0005 + 1e-12 and max_d3 <= max_bound + 1e-12
    note(
        request,
        7,
        "inverse projection roundtrip",
        ok,
        f"continuous max={max_cont:.2e} m (<=1e-9), quantized depth "
        f"max={max_dz * 1000:.4f} mm (<=0.5), 3d max={max_d3 * 1000:.4f} mm "
        f"(<= {max_bound * 1000:.4f} at the frustum edge)",
    )


def test_criterion_08_pair_search_oracle(request):
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 0.5, size=(2000, 3))
        r = float(rng.uniform(0.1, 0.4))
        eps = float(rng.uniform(0.005, 0.02))
        got = set(pairs_in_range(PointCloud(pts), r, eps))
        iu, ju = np.triu_indices(len(pts), k=1)
        d = cdist(pts, pts)[iu, ju]
        sel = (r - eps < d) & (d < r + eps)
        brute = set(zip(iu[sel].tolist(), ju[sel].tolist()))
        assert got == brute, f"seed {seed}: mismatch"
        checked += len(brute)
    note(
        request,
        8,
        "pair search oracle",
        True,
        f"20 seeded 2k-point clouds match brute force exactly "
        f"({checked} pairs total)",
    )


def _rect_mask(w, h, angle_deg, shape=(480, 640), center=(320, 240)):
    from cuboidpose import MaskImage

    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    a = np.radians(angle_deg)
    dx, dy = xs - center[0], ys - center[1]
    u = dx * np.cos(a) + dy * np.sin(a)
    v = -dx * np.sin(a) + dy * np.cos(a)
    inside = (np.abs(u) <= w / 2.0) & (np.abs(v) <= h / 2.0)
    return MaskImage(np.where(inside, 255, 0).astype(np.uint8))


def _ideal_corners(w, h, angle_deg, center=(320, 240)):
    a = np.radians(angle_deg)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    local = np.array(
        [[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]]
    )
    return local @ rot.T + np.asarray(center)


def test_criterion_09_segmentation_properties(request):
    # corner accuracy on rasterized rotated rectangles
    worst_corner = 0.0
    for angle in (10.0, 17.0, 30.0, 43.0):
        quad = fit_quadrilateral(_rect_mask(100, 60, angle))
        ideal = _ideal_corners(100, 60, angle)
        worst = max(
            np.min(np.linalg.norm(ideal - c, axis=1)) for c in quad.corners
        )
        worst_corner = max(worst_corner, worst)
    corner_ok = worst_corner <= 1.5

    # cluster purity across a 90 degree fold
    rng = np.random.default_rng(11)
    n = 2500
    p1 = np.column_stack(
        [rng.uniform(0, 0.2, n), rng.uniform(0, 0.15, n), np.full(n, 1.0)]
    )
    p2 = np.column_stack(
        [rng.uniform(0, 0.2, n), np.full(n, 0.15), 1.0 - rng.uniform(0, 0.12, n)]
    )
    cloud = PointCloud(np.vstack([p1, p2]))
    normals, curvatures = estimate_normals(cloud, radius=0.02)
    clusters = region_growing(cloud, normals, curvatures, angle_thresh_deg=10.0)
    purity = min(max(np.mean(idx < n), 1.0 - np.mean(idx < n)) for idx in clusters)
    purity_ok = len(clusters) == 2 and purity >= 0.98

    # outlier removal selectivity
    rng = np.random.default_rng(4)
    inliers = np.column_stack(
        [rng.uniform(0, 0.3, 5000), rng.uniform(0, 0.2, 5000), rng.normal(0, 0.001, 5000)]
    )
    outliers = np.column_stack(
        [
            rng.uniform(0, 0.3, 50),
            rng.uniform(0, 0.2, 50),
            rng.uniform(0.05, 0.3, 50) * rng.choice([-1.0, 1.0], 50),
        ]
    )
    kept = statistical_outlier_removal(
        PointCloud(np.vstack([inliers, outliers])), k=20, stddev_mult=2.0
    )
    kept_set = set(map(tuple, kept.points))
    outliers_kept = sum(tuple(p) in kept_set for p in outliers)
    inliers_kept = sum(tuple(p) in kept_set for p in inliers)
    sor_ok = outliers_kept <= 2 and inliers_kept >= 4950

    ok = corner_ok and purity_ok and sor_ok
    note(
        request,
        9,
        "segmentation properties",
        ok,
        f"quad corner err={worst_corner:.2f} px (<=1.5), "
        f"fold purity={purity:.3f} (>=0.98), "
        f"outliers kept={outliers_kept}/50 (<=2), "
        f"inliers kept={inliers_kept}/5000 (>=4950)",
    )


def test_criterion_10_benchmark_determinism(request, tmp_path):
    config = BenchConfig(trials=1, warmup=0, master_seed=7)
    run_bench(config, str(tmp_path / "a"))
    run_bench(config, str(tmp_path / "b"))
    first = (tmp_path / "a" / "trials.csv").read_bytes()
    second = (tmp_path / "b" / "trials.csv").read_bytes()
    ok = first == second and len(first) > 0
    note(
        request,
        10,
        "benchmark determinism",
        ok,
        f"two seeded runs wrote identical trials.csv ({len(first)} bytes)",
    )
