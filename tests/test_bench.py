"""Benchmark harness: trial drawing, the end-to-end pipeline, and the CSV
report writer."""

import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage

from cuboidpose import bench, camera, registration, segmentation, synth
from cuboidpose.bench import (
    BenchConfig,
    PipelineConfig,
    _canonical_orientation,
    _segment,
    draw_trial,
    run_bench,
    run_pipeline,
    run_trial,
    scene_spec_for,
)
from cuboidpose.camera import back_project
from cuboidpose.cli import main
from cuboidpose.correction import correct_pose, make_reference_face
from cuboidpose.errors import (
    NoRoiMatch,
    ParseError,
    PipelineError,
    RegistrationFailed,
    TooFewPoints,
)
from cuboidpose.filters import voxel_downsample
from cuboidpose.geometry import Pose, rotation_angle
from cuboidpose.io import load_intrinsics, load_pgm16, load_ppm, save_scene, write_kv
from cuboidpose.registration import coarse_register
from cuboidpose.segmentation import HsvRange, target_axis_points
from cuboidpose.synth import render_scene
from conftest import count_labels, face_plane, symmetric_rot_err_deg


def test_draw_trial_deterministic():
    config = BenchConfig()
    a = draw_trial(config, 5)
    b = draw_trial(config, 5)
    assert a[0] == b[0]
    assert_allclose(a[1].matrix, b[1].matrix, atol=0)
    assert a[2] == b[2]
    assert a[3] == b[3]
    assert_allclose(a[4], b[4], atol=0)


def test_draw_trial_respects_bounds():
    config = BenchConfig(inj_yaw_deg=5.0, inj_dt_mm=10.0)
    for trial in range(40):
        _, _, corner, inj_yaw, inj_dt = draw_trial(config, trial)
        assert 0 <= corner <= 3
        assert abs(inj_yaw) <= 5.0
        assert np.all(np.abs(inj_dt) <= 0.010 + 1e-12)


def test_draw_trial_varies_with_index():
    config = BenchConfig()
    seeds = {draw_trial(config, t)[0] for t in range(20)}
    assert len(seeds) > 15


def test_run_trial_deterministic():
    config = BenchConfig()
    ref = make_reference_face(config.cuboid, config.pitch_m)
    a = run_trial(config, ref, 2)
    b = run_trial(config, ref, 2)
    assert a.seed == b.seed
    assert a.icp_rot_err_deg == b.icp_rot_err_deg
    assert a.icp_trans_err_mm == b.icp_trans_err_mm
    assert a.corr_rot_err_deg == b.corr_rot_err_deg
    assert a.corr_trans_err_mm == b.corr_trans_err_mm


def test_run_trial_correction_beats_injection():
    config = BenchConfig()
    ref = make_reference_face(config.cuboid, config.pitch_m)
    rec = run_trial(config, ref, 0)
    assert abs(rec.inj_yaw_deg) <= config.inj_yaw_deg
    assert rec.corr_rot_err_deg < 0.5
    assert rec.corr_trans_err_mm < 1.0


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


def test_run_trial_never_builds_the_rendered_frame(monkeypatch):
    """A trial reads the rendered depth only through the face's box, so it
    never builds the depth's full frame of float64 meters."""
    built = []
    real_meters = synth._rendered_meters

    def counted_meters(shape, *args):
        meters = real_meters(shape, *args)

        def counted(box):
            out = meters(box)
            if out.shape == shape:
                built.append(box)
            return out

        return counted

    monkeypatch.setattr(synth, "_rendered_meters", counted_meters)
    for trials in (PLAIN_TRIALS, DENSE_DROPOUT_TRIALS):
        config = BenchConfig(**trials)
        ref = make_reference_face(config.cuboid, config.pitch_m)
        for trial in range(2):
            run_trial(config, ref, trial)
    assert built == []
    # the count does see a read of the frame
    scene_seed, gt, corner, _, _ = draw_trial(config, 0)
    _, depth, _, _, _ = render_scene(scene_spec_for(config, scene_seed, gt, corner))
    assert depth.data.shape == (config.intrinsics.height, config.intrinsics.width)
    assert len(built) == 1


def test_run_trial_from_coarse_pose():
    """The coarse pose is fixed only up to the rectangle's flips; the trial
    must fold it to the canonical one before injecting the error, or the
    correction starts from a flipped face."""
    config = BenchConfig(use_coarse=1)
    ref = make_reference_face(config.cuboid, config.pitch_m)
    for trial in range(3):
        rec = run_trial(config, ref, trial)
        # criterion 06's envelope
        assert rec.corr_rot_err_deg <= 3.3, trial
        assert rec.corr_trans_err_mm <= 5.3, trial


def test_run_trial_failure_names_its_stage():
    # at 30 m the face covers 56 pixels, under the pipeline's mask minimum
    config = BenchConfig(distance_m=30.0, background_depth_m=0.0)
    ref = make_reference_face(config.cuboid, config.pitch_m)
    with pytest.raises(PipelineError) as err:
        run_trial(config, ref, 0)
    assert err.value.stage == "hsv_threshold"


def test_run_bench_csv_and_summary(tmp_path):
    config = BenchConfig(trials=3, warmup=0)
    result = run_bench(config, tmp_path)
    csv_lines = (tmp_path / "trials.csv").read_text().strip().split("\n")
    assert csv_lines[0] == (
        "trial,seed,inj_yaw_deg,inj_dt_mm_x,inj_dt_mm_y,inj_dt_mm_z,"
        "method,rot_err_deg,trans_err_mm"
    )
    assert len(csv_lines) == 1 + 2 * 3
    assert result.failures == []

    avg_rot = float(np.mean([r.corr_rot_err_deg for r in result.records]))
    summary = (tmp_path / "summary.txt").read_text()
    assert "trials=3" in summary
    assert "recorded=3" in summary
    assert "failures=0" in summary
    assert "method=correction" in summary
    assert f"avg_rot_err_deg={avg_rot:.6f}" in summary
    assert "time_ratio_icp_over_correction=" in summary


def test_run_bench_reruns_byte_identical(tmp_path):
    config = BenchConfig(trials=2, warmup=0)
    run_bench(config, tmp_path / "a")
    run_bench(config, tmp_path / "b")
    assert (tmp_path / "a" / "trials.csv").read_bytes() == (
        tmp_path / "b" / "trials.csv"
    ).read_bytes()


def test_bench_config_from_kv():
    config = BenchConfig.from_kv(
        {"trials": "7", "inj_yaw_deg": "2.5", "master_seed": "11"}
    )
    assert config.trials == 7
    assert config.inj_yaw_deg == 2.5
    assert config.master_seed == 11


def test_bench_config_unknown_key():
    with pytest.raises(ParseError):
        BenchConfig.from_kv({"trails": "7"})


def test_bench_config_bad_value():
    with pytest.raises(ParseError):
        BenchConfig.from_kv({"trials": "many"})


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(trials=0)
    with pytest.raises(ValueError):
        BenchConfig(dropout_frac=0.5)
    # checked by the derived trial front end, `BenchConfig.pipeline`
    with pytest.raises(ValueError):
        BenchConfig(voxel_leaf_m=0)


def test_pipeline_config_from_kv():
    config = PipelineConfig.from_kv({"voxel_leaf_m": "0.004", "use_sor": "0"})
    assert config.voxel_leaf_m == 0.004
    assert config.use_sor is False
    defaults = PipelineConfig.from_kv({})
    assert defaults.voxel_leaf_m == 0.005
    assert defaults.use_sor is False
    assert defaults.min_mask_pixels == 100


def test_pipeline_config_grids_a_small_face_at_its_own_pitch():
    """A face too small for the default 6 mm grid is valid at a finer
    `pitch_m`, and its reference grid is built at that pitch once."""
    kv = {"face_width_m": "0.04", "face_height_m": "0.02", "face_depth_m": "0.01"}
    with pytest.raises(ValueError):
        PipelineConfig.from_kv(kv)
    config = PipelineConfig.from_kv(dict(kv, pitch_m="0.004"))
    assert config.reference.pitch == 0.004
    assert len(config.reference.cloud) == 11 * 6
    assert not config.reference.cloud.points.flags.writeable


def test_pipeline_config_unknown_key():
    with pytest.raises(ParseError):
        PipelineConfig.from_kv({"voxel_leaf": "0.004"})


# every pipeline key, each with a value other than its default
PIPELINE_KV = {
    "face_width_m": "0.4",
    "face_height_m": "0.25",
    "face_depth_m": "0.06",
    "hsv_h_lo": "350",
    "hsv_h_hi": "10",
    "hsv_s_lo": "0.5",
    "hsv_s_hi": "0.9",
    "hsv_v_lo": "0.3",
    "hsv_v_hi": "0.95",
    "min_mask_pixels": "50",
    "voxel_leaf_m": "0.004",
    "use_sor": "0",
    "roi_tolerance": "0.2",
    "pitch_m": "0.005",
    "reg_seed": "7",
}


def _pipeline_keys():
    """`PipelineConfig`'s key=value spellings: its init fields but `cuboid`,
    plus the `face_*_m` keys that set `cuboid`."""
    keys = {f.name for f in fields(PipelineConfig) if f.init and f.name != "cuboid"}
    return keys | {"face_width_m", "face_height_m", "face_depth_m"}


def _pipeline_value(config, key):
    if key.startswith("face_"):
        return getattr(config.cuboid, key[len("face_") : -len("_m")])
    return getattr(config, key)


def test_pipeline_config_key_set():
    assert _pipeline_keys() == set(PIPELINE_KV)
    assert PipelineConfig.from_kv({}) == PipelineConfig()
    default = PipelineConfig()
    for key, raw in PIPELINE_KV.items():
        config = PipelineConfig.from_kv({key: raw})
        want = {"use_sor": False}.get(key)
        want = float(raw) if want is None else want
        assert _pipeline_value(config, key) == want, key
        if key != "use_sor":  # its only accepted value is the default
            assert _pipeline_value(default, key) != want, key
    config = PipelineConfig.from_kv(PIPELINE_KV)
    assert config.hsv == HsvRange(350.0, 10.0, 0.5, 0.9, 0.3, 0.95)
    assert config.reg_seed == 7


@pytest.mark.parametrize(
    "kv",
    [
        {"voxel": "0.005"},
        {"sor_k": "many"},
        {"hsv_h_lo": "400"},
        {"mode": "bogus"},
        {"voxel_leaf_m": "0"},
        {"roi_tolerance": "0.6"},
        # keys of the removed geometry front end
        {"mode": "color"},
        {"z_far_m": "2"},
        # values that crashed, or failed only after the scene was read
        {"sor_k": "0"},
        {"pitch_m": "0"},
        {"pitch_m": "0.2"},
        # keys of the coarse search's tolerances, now registration constants
        {"reg_min_score": "2"},
        {"reg_min_score": "-0.1"},
        {"reg_inlier_dist_m": "0"},
        {"reg_eps_m": "0"},
        {"sor_stddev_mult": "-5"},
        {"reg_inlier_dist_m": "nan"},
        {"reg_eps_m": "nan"},
        # NaN passes a `<= 0` check
        {"voxel_leaf_m": "nan"},
        # outlier removal is no longer a pipeline stage
        {"use_sor": "1"},
        {"reg_seed": "-1"},
    ],
)
def test_pipeline_config_rejects_bad_input(tmp_path, kv):
    with pytest.raises((ParseError, ValueError)):
        PipelineConfig.from_kv(kv)
    conf = tmp_path / "pipe.conf"
    write_kv(conf, kv)
    # rejected as a config error before the (missing) scene is read
    assert main(["pipeline", str(tmp_path / "nowhere"), "--config", str(conf)]) == 2


def test_use_sor_accepts_only_0():
    """`use_sor` is kept so that configs which turn outlier removal off still
    load; turning it on is a config error."""
    with pytest.raises(ValueError, match="no longer a pipeline stage"):
        PipelineConfig(use_sor=True)
    assert PipelineConfig(use_sor=False) == PipelineConfig()


def _readme_keys(heading):
    """The backticked names between `heading`'s "):" and the next full stop."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index(heading)
    listed = readme[readme.index("):", start) : readme.index(".", start)]
    return set(re.findall(r"`(\w+)`", listed))


def test_readme_lists_the_pipeline_keys():
    """README's `pipeline` key list names exactly the keys `from_kv` takes,
    so a removed key cannot stay documented."""
    assert _readme_keys("`pipeline` config keys") == _pipeline_keys()


def test_readme_lists_the_bench_keys():
    """README's `bench`/`synth` key list names exactly `BenchConfig`'s init
    fields, the keys its `from_kv` takes."""
    keys = {f.name for f in fields(BenchConfig) if f.init}
    assert _readme_keys("`bench`/`synth` config keys") == keys


def test_pipeline_frame_does_no_repeated_work(tmp_path, drawn, monkeypatch):
    """One `run_pipeline` frame builds no reference face (the config holds
    it), scans a full-frame array for its box at most once (the component
    carries its box to `deproject_mask`) and, with one label in the mask,
    sizes it without `np.bincount`."""
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    config = PipelineConfig(cuboid=drawn.spec.cuboid)
    built = []
    real_face = bench.make_reference_face

    def face(*args):
        built.append(args)
        return real_face(*args)

    monkeypatch.setattr(bench, "make_reference_face", face)
    full_scans = []
    real_box = camera.pixel_box

    def box(image):
        if image.shape == (drawn.intr.height, drawn.intr.width):
            full_scans.append(image.shape)
        return real_box(image)

    monkeypatch.setattr(camera, "pixel_box", box)
    monkeypatch.setattr(segmentation, "pixel_box", box)
    labelled = []
    real_label = ndimage.label

    def label(*args, **kwargs):
        out = real_label(*args, **kwargs)
        labelled.append(out)
        return out

    monkeypatch.setattr(ndimage, "label", label)
    tallied = []
    real_bincount = np.bincount

    def bincount(x, *args, **kwargs):
        if any(np.shares_memory(x, lab) for lab, _ in labelled):
            tallied.append(x.shape)
        return real_bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    run_pipeline(str(tmp_path), config)
    assert built == []
    assert len(full_scans) <= 1
    assert [n for _, n in labelled] == [1]
    assert tallied == []


def _write_scene(out_dir, spec):
    rgb, depth, mask, _, _ = render_scene(spec)
    save_scene(out_dir, rgb, depth, mask, spec.intrinsics, spec.gt_pose, spec.cuboid)
    return rgb, depth


def test_pipeline_recovers_clean_scene(tmp_path, drawn):
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    result = run_pipeline(str(tmp_path), PipelineConfig(cuboid=drawn.spec.cuboid))
    rot_err = np.degrees(rotation_angle(result.pose.r @ drawn.gt_pose.r.T))
    trans_err = np.linalg.norm(result.pose.t - drawn.gt_pose.t) * 1000.0
    assert rot_err <= 0.25
    assert trans_err <= 0.5
    assert result.coarse_score >= 0.5
    assert result.quad is not None


def test_pipeline_orientation_is_canonical(tmp_path, drawn):
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    result = run_pipeline(str(tmp_path), PipelineConfig(cuboid=drawn.spec.cuboid))
    # face normal points back at the camera
    assert float(result.pose.r[:, 2] @ result.pose.t) < 0.0
    # local x runs along the measured axis direction
    plane = face_plane(drawn.intr, drawn.depth, drawn.mask)
    t1, t2 = target_axis_points(result.quad, drawn.intr, *plane)
    assert float(result.pose.r[:, 0] @ (np.asarray(t2) - np.asarray(t1))) >= 0.0


def test_pipeline_survives_corner_dropout(tmp_path, drawn):
    spec = scene_spec_for(drawn.config, drawn.spec.seed, drawn.gt_pose, 1)
    spec.noise_sigma = 0.0
    spec.dropout = [(1, 0.1)]
    _write_scene(tmp_path, spec)
    result = run_pipeline(str(tmp_path), PipelineConfig(cuboid=spec.cuboid))
    rot_err = np.degrees(rotation_angle(result.pose.r @ drawn.gt_pose.r.T))
    trans_err = np.linalg.norm(result.pose.t - drawn.gt_pose.t) * 1000.0
    assert rot_err <= 1.5
    assert trans_err <= 1.5


def test_pipeline_rejects_wrong_color(tmp_path, drawn):
    spec = scene_spec_for(drawn.config, drawn.spec.seed, drawn.gt_pose, 0)
    spec.noise_sigma = 0.0
    spec.dropout = []
    spec.face_color = (40, 60, 200)
    _write_scene(tmp_path, spec)
    with pytest.raises(PipelineError):
        run_pipeline(str(tmp_path), PipelineConfig(cuboid=spec.cuboid))


def test_pipeline_sizes_the_face_before_voxelling(tmp_path):
    """The ROI gate accepts a clean face that the PCA box of its voxel cloud
    reads as too large: scene 31 of criterion 01's sweep."""
    config = BenchConfig(
        inj_yaw_deg=5.0, inj_dt_mm=10.0, dropout_frac=0.0, voxel_leaf_m=0.006
    )
    scene_seed, gt, corner, _, _ = draw_trial(config, 31)
    _write_scene(tmp_path, scene_spec_for(config, scene_seed, gt, corner))
    result = run_pipeline(str(tmp_path), PipelineConfig())
    # criterion 06's envelope
    assert symmetric_rot_err_deg(result.pose.r, gt.r) <= 3.3
    assert np.linalg.norm(result.pose.t - gt.t) * 1000.0 <= 5.3


def test_one_labelling_per_frame(tmp_path, drawn, monkeypatch):
    """The front end labels the mask once per frame: the outline is fitted
    from the component `largest_component` returned, not labelled again."""
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    labels = count_labels(monkeypatch)
    run_pipeline(str(tmp_path), PipelineConfig(cuboid=drawn.spec.cuboid))
    assert len(labels) == 1
    config = BenchConfig()
    ref = make_reference_face(config.cuboid, config.pitch_m)
    labels.clear()
    run_trial(config, ref, 0)
    assert len(labels) == 1


def _traced_peak(fn, *args):
    """fn's result and the peak bytes it held beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pipeline_allocates_little_beyond_its_files(tmp_path):
    """A 1280x720 bench scene: `run_pipeline` may hold at most 10 MB beyond
    the bytes of its RGB and depth files, which the loaders keep (7.1 MB was
    measured; 12.8 MB when the depth was converted to a frame of float64 at
    load, which alone is 7.4 MB). `load_ppm` holds only the file it read: a
    copy of the 2.7 MB image would double its peak."""
    config = BenchConfig(dropout_frac=0.0)
    scene_seed, gt, corner, _, _ = draw_trial(config, 0)
    _write_scene(tmp_path, scene_spec_for(config, scene_seed, gt, corner))
    files = [tmp_path / "rgb.ppm", tmp_path / "depth.pgm"]
    pipeline = PipelineConfig(cuboid=config.cuboid)
    run_pipeline(str(tmp_path), pipeline)  # warm-up
    result, peak = _traced_peak(run_pipeline, str(tmp_path), pipeline)
    assert not result.searched  # the search's pair table would set the peak
    beyond = peak - sum(f.stat().st_size for f in files)
    assert beyond <= 10e6, f"{beyond / 1e6:.1f} MB beyond the files"
    _, peak = _traced_peak(load_ppm, files[0])
    held = peak - files[0].stat().st_size
    assert held <= 64e3, f"load_ppm held {held / 1e6:.2f} MB beyond its file"


@pytest.mark.parametrize("size", [2, 5, 20])
def test_front_end_ignores_a_same_coloured_speck(size):
    """A patch of face paint on the backdrop is a second mask component. The
    front end deprojects and outlines only the largest one, so the segment,
    the axis points and the outline are the clean frame's, bit for bit."""
    config = BenchConfig(master_seed=7)
    scene_seed, gt, corner, _, _ = draw_trial(config, 0)
    rgb, depth, _, _, _ = render_scene(scene_spec_for(config, scene_seed, gt, corner))
    front_end = PipelineConfig()
    clean = _segment(rgb, depth, config.intrinsics, front_end)
    specked = rgb.copy()
    specked[20 : 20 + size, 20 : 20 + size] = (200, 40, 40)
    face = _segment(specked, depth, config.intrinsics, front_end)
    assert face.segment.points.tobytes() == clean.segment.points.tobytes()
    assert face.t1.tobytes() == clean.t1.tobytes()
    assert face.t2.tobytes() == clean.t2.tobytes()
    assert face.quad.corners.tobytes() == clean.quad.corners.tobytes()
    assert face.center.tobytes() == clean.center.tobytes()
    assert face.normal.tobytes() == clean.normal.tobytes()


@pytest.fixture
def search_calls(monkeypatch):
    """Calls of the 4-point search made through `run_pipeline`."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return coarse_register(*args, **kwargs)

    monkeypatch.setattr(bench, "coarse_register", counted)
    return calls


@pytest.fixture
def far_start(monkeypatch):
    """Moves the plane start pose 1 m back, where no grid point lands near
    the face, so its check scores 0 and the search must run."""
    plane_pose = bench._plane_pose

    def far(face):
        pose = plane_pose(face)
        return Pose(pose.r, pose.t + np.array([0.0, 0.0, 1.0]))

    monkeypatch.setattr(bench, "_plane_pose", far)


def _in_envelope(pose, gt) -> bool:
    """Criterion 06's envelope: 3.3 deg and 5.3 mm."""
    trans_mm = np.linalg.norm(pose.t - gt.t) * 1000.0
    return symmetric_rot_err_deg(pose.r, gt.r) <= 3.3 and trans_mm <= 5.3


def test_pipeline_takes_the_plane_pose_without_searching(tmp_path, drawn, search_calls):
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    result = run_pipeline(str(tmp_path), PipelineConfig(cuboid=drawn.spec.cuboid))
    assert search_calls == []
    assert result.searched is False
    assert result.coarse_score >= registration.MIN_SCORE
    assert _in_envelope(result.pose, drawn.gt_pose)


def test_pipeline_searches_when_the_plane_check_fails(
    tmp_path, drawn, search_calls, far_start
):
    """The fallback is the paper's route unchanged: the search's pose,
    corrected, then folded to the canonical orientation."""
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    config = PipelineConfig(cuboid=drawn.spec.cuboid)
    result = run_pipeline(str(tmp_path), config)
    assert len(search_calls) == 1
    assert result.searched is True

    rgb = load_ppm(tmp_path / "rgb.ppm")
    depth = load_pgm16(tmp_path / "depth.pgm")
    intr = load_intrinsics(tmp_path / "intrinsics.txt")
    face = _segment(rgb, depth, intr, config)
    ref = make_reference_face(config.cuboid, config.pitch_m)
    coarse = coarse_register(ref.cloud, face.segment, config.reg_seed)
    want, report = correct_pose(coarse.pose, ref, face.t1, face.t2)
    want = _canonical_orientation(want, face.t1, face.t2)
    assert result.pose.matrix.tobytes() == want.matrix.tobytes()
    assert result.coarse_score == coarse.score
    assert result.report.yaw_error_deg == report.yaw_error_deg


def test_pipeline_failed_check_and_search_names_coarse_register(
    tmp_path, drawn, far_start, monkeypatch
):
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    # no search winner can score above 1
    monkeypatch.setattr(registration, "MIN_SCORE", 1.01)
    config = PipelineConfig(cuboid=drawn.spec.cuboid)
    with pytest.raises(PipelineError) as err:
        run_pipeline(str(tmp_path), config)
    assert err.value.stage == "coarse_register"
    assert isinstance(err.value.__cause__, RegistrationFailed)


@pytest.mark.parametrize("leaf", [0.2, 0.5])
def test_pipeline_names_filters_when_too_few_voxels_are_left(tmp_path, drawn, leaf):
    """A leaf of decimetres leaves a handful of voxels on a 0.3 m face. The
    frame fails where the points were lost, not in the coarse search that
    could not use them."""
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    config = PipelineConfig(cuboid=drawn.spec.cuboid, voxel_leaf_m=leaf)
    with pytest.raises(PipelineError) as err:
        run_pipeline(str(tmp_path), config)
    assert err.value.stage == "filters"
    assert isinstance(err.value.__cause__, TooFewPoints)


def long_edge_midpoints(quad, intr, point, normal):
    """`target_axis_points` with the wrong edge pair: the face-plane
    midpoints of the outline's two longer edges."""
    lengths = quad.edge_lengths
    pair = (1, 3) if lengths[0] + lengths[2] <= lengths[1] + lengths[3] else (0, 2)
    rays = back_project(intr, quad.corners[:, 0], quad.corners[:, 1], np.ones(4))
    pts = rays * ((point @ normal) / (rays @ normal))[:, None]
    return tuple((pts[i] + pts[(i + 1) % 4]) / 2.0 for i in pair)


def test_pipeline_rejects_axis_points_on_the_long_edges(tmp_path, drawn, monkeypatch):
    """Axis points on the long edges turn the start pose 90 degrees about the
    face normal. The plane check still passes that pose and the correction
    keeps its fold, so without the length check a wrong pose comes back; with
    it, the frame fails at `t_points`."""
    save_scene(
        tmp_path, drawn.rgb, drawn.depth, drawn.mask, drawn.intr,
        drawn.gt_pose, drawn.spec.cuboid,
    )
    config = PipelineConfig(cuboid=drawn.spec.cuboid)
    monkeypatch.setattr(bench, "target_axis_points", long_edge_midpoints)
    with monkeypatch.context() as unchecked:
        unchecked.setattr(bench, "_check_axis_length", lambda t1, t2, roi: None)
        turned = run_pipeline(str(tmp_path), config)
    assert turned.searched is False
    assert abs(symmetric_rot_err_deg(turned.pose.r, drawn.gt_pose.r) - 90.0) < 1.0
    with pytest.raises(PipelineError) as err:
        run_pipeline(str(tmp_path), config)
    assert err.value.stage == "t_points"
    assert isinstance(err.value.__cause__, NoRoiMatch)


@pytest.mark.parametrize("trial", range(4))
def test_default_pipeline_needs_no_search(tmp_path, search_calls, trial):
    """The CLI's default settings on the default synthetic scenes of
    `cuboidpose synth --seed 7`: the plane pose passes its check, so the 4-point
    search, which took up to tens of seconds a frame here, never runs."""
    config = BenchConfig(master_seed=7)
    scene_seed, gt, corner, _, _ = draw_trial(config, trial)
    _write_scene(tmp_path, scene_spec_for(config, scene_seed, gt, corner))
    result = run_pipeline(str(tmp_path), PipelineConfig())
    assert search_calls == []
    assert result.searched is False
    assert _in_envelope(result.pose, gt)


def test_default_segment_is_the_voxelled_component(tmp_path):
    """The default front end filters the face by voxelling alone: the segment
    is the 5 mm voxel cloud of the deprojected mask component, every voxel
    kept."""
    config = BenchConfig(master_seed=7)
    scene_seed, gt, corner, _, _ = draw_trial(config, 0)
    _write_scene(tmp_path, scene_spec_for(config, scene_seed, gt, corner))
    pipeline = PipelineConfig()
    result = run_pipeline(str(tmp_path), pipeline)
    rgb = load_ppm(tmp_path / "rgb.ppm")
    depth = load_pgm16(tmp_path / "depth.pgm")
    intr = load_intrinsics(tmp_path / "intrinsics.txt")
    mask = segmentation.largest_component(
        segmentation.hsv_threshold(rgb, pipeline.hsv), pipeline.min_mask_pixels
    )
    cloud = camera.deproject_mask(intr, depth, mask)
    assert result.segment_size == len(voxel_downsample(cloud, 0.005))


def test_pipeline_missing_files(tmp_path):
    with pytest.raises(PipelineError):
        run_pipeline(str(tmp_path), PipelineConfig.from_kv({}))
