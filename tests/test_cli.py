import os
from dataclasses import fields

import pytest

from cuboidpose.bench import BenchConfig, PipelineConfig
from cuboidpose.cli import main
from cuboidpose.io import read_kv


def test_synth_writes_scene_files(tmp_path):
    out = tmp_path / "scene"
    rc = main(["synth", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == [
        "depth.pgm",
        "ground_truth.txt",
        "intrinsics.txt",
        "mask.pgm",
        "rgb.ppm",
    ]


def test_synth_seed_changes_scene(tmp_path):
    main(["synth", "--out", str(tmp_path / "a"), "--seed", "0"])
    main(["synth", "--out", str(tmp_path / "b"), "--seed", "1"])
    extra_a = read_kv(tmp_path / "a" / "ground_truth.txt")
    extra_b = read_kv(tmp_path / "b" / "ground_truth.txt")
    assert extra_a["scene_seed"] != extra_b["scene_seed"]


def test_synth_honors_config_file(tmp_path):
    conf = tmp_path / "bench.conf"
    conf.write_text("noise_sigma_mm=0\ndropout_frac=0\n")
    out = tmp_path / "scene"
    rc = main(["synth", "--config", str(conf), "--out", str(out)])
    assert rc == 0
    assert read_kv(out / "ground_truth.txt")["noise_sigma_mm"] == "0"


def test_pipeline_on_synth_scene(tmp_path, capsys):
    scene = tmp_path / "scene"
    conf = tmp_path / "bench.conf"
    conf.write_text("noise_sigma_mm=0\ndropout_frac=0\n")
    assert main(["synth", "--config", str(conf), "--out", str(scene)]) == 0
    capsys.readouterr()

    out = tmp_path / "report"
    rc = main(["pipeline", str(scene), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "pose matrix (row major):" in captured.out
    assert "coarse_score=" in captured.out
    # a clean scene's face-plane pose passes its check: no 4-point search
    assert "searched=0" in captured.out
    kv = read_kv(out / "pose.txt")
    assert len(kv["pose"].split()) == 16
    assert float(kv["coarse_score"]) >= 0.5
    assert kv["searched"] == "0"


def test_pipeline_unknown_config_key(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene)]) == 0
    conf = tmp_path / "pipe.conf"
    # `mode` belonged to the removed geometry front end
    for line, key in (("voxel=0.005", "voxel"), ("mode=geometry", "mode")):
        conf.write_text(line + "\n")
        assert main(["pipeline", str(scene), "--config", str(conf)]) == 2
        assert f"unknown pipeline config key {key!r}" in capsys.readouterr().err


def test_pipeline_missing_scene_dir(tmp_path):
    rc = main(["pipeline", str(tmp_path / "nowhere")])
    assert rc == 3


def test_pipeline_wrong_face_spec_fails(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene)]) == 0
    conf = tmp_path / "pipe.conf"
    # ROI gate sized for a face that is not in the scene
    conf.write_text("face_width_m=0.08\nface_height_m=0.05\n")
    rc = main(["pipeline", str(scene), "--config", str(conf)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "pipeline failed" in captured.err


def test_bench_writes_reports(tmp_path, capsys):
    conf = tmp_path / "bench.conf"
    conf.write_text("trials=2\nwarmup=0\n")
    out = tmp_path / "report"
    rc = main(["bench", "--config", str(conf), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out / "trials.csv").exists()
    assert (out / "summary.txt").exists()
    assert "recorded=2" in captured.out
    assert "time_ratio_icp_over_correction=" in captured.out


def test_bench_bad_config_value(tmp_path):
    conf = tmp_path / "bench.conf"
    conf.write_text("trials=lots\n")
    assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize(
    "kv",
    [
        "trials=0",
        # the camera, which every trial renders with
        "fx=0",
        "img_width=0",
        "cx=5000",
        # NaN passes a `< 0` check
        "noise_sigma_mm=nan",
        "distance_m=nan",
        "tilt_deg=nan",
        "inj_yaw_deg=nan",
        "background_depth_m=-1",
        "master_seed=-1",
        # removed keys: a trial never read the score reg_inlier_dist_m set,
        # the search's tolerances are constants, and ICP stops on its own rule
        "reg_inlier_dist_m=0.01",
        "reg_eps_m=0.003",
        "reg_min_score=0.4",
        "icp_max_iter=-4",
        # a bool is 0 or 1
        "use_coarse=2",
        "use_coarse=-3",
    ],
)
def test_bench_rejects_bad_config(tmp_path, kv):
    """A value no trial can run with is a config error before any trial."""
    conf = tmp_path / "bench.conf"
    conf.write_text(f"trials=2\nwarmup=0\n{kv}\n")
    assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
    assert not (tmp_path / "r").exists()


def _float_keys(cls):
    return [f.name for f in fields(cls) if f.init and f.type == "float"]


# every float key each command reads: a float key added later is covered here
BENCH_FLOAT_KEYS = _float_keys(BenchConfig)
PIPELINE_FLOAT_KEYS = _float_keys(PipelineConfig) + [
    key for key in BENCH_FLOAT_KEYS if key.startswith("face_")
]
NOT_FINITE = ["inf", "-inf", "nan"]


@pytest.mark.parametrize("raw", NOT_FINITE)
@pytest.mark.parametrize("key", BENCH_FLOAT_KEYS)
@pytest.mark.parametrize("command", ["bench", "synth"])
def test_bench_keys_reject_non_finite_values(tmp_path, command, key, raw):
    conf = tmp_path / "bench.conf"
    conf.write_text(f"trials=2\nwarmup=0\n{key}={raw}\n")
    out = tmp_path / "r"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("raw", NOT_FINITE)
@pytest.mark.parametrize("key", PIPELINE_FLOAT_KEYS)
def test_pipeline_keys_reject_non_finite_values(tmp_path, key, raw):
    conf = tmp_path / "pipe.conf"
    conf.write_text(f"{key}={raw}\n")
    out = tmp_path / "r"
    # rejected as a config error before the (missing) scene is read
    args = ["pipeline", str(tmp_path / "nowhere"), "--config", str(conf)]
    assert main([*args, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "pipeline"])
def test_negative_seed_is_a_config_error(tmp_path, command):
    out = tmp_path / "r"
    args = ["bench"] if command == "bench" else ["pipeline", str(tmp_path / "nowhere")]
    assert main([*args, "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["rectify"])
    assert exc_info.value.code == 2
