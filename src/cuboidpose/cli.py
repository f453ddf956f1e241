"""Command line front end.

Subcommands:
  synth     render one seeded synthetic scene to a directory
  pipeline  run the full estimation chain on a scene directory
  bench     run the seeded ICP-vs-correction trial sweep

Exit codes: 0 success, 2 configuration or parse error, 3 pipeline failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    BenchConfig,
    PipelineConfig,
    draw_trial,
    run_bench,
    run_pipeline,
    scene_spec_for,
)
from .errors import CuboidPoseError, ParseError, PipelineError
from .io import read_kv, save_scene, write_kv
from .synth import render_scene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuboidpose",
        description="Cuboid face pose estimation on synthetic RGB-D scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render a seeded synthetic scene")
    p_synth.add_argument("--config", help="key=value scene/bench config file")
    p_synth.add_argument("--seed", type=int, help="master seed override")
    p_synth.add_argument("--out", required=True, help="output scene directory")
    p_synth.add_argument(
        "--trial", type=int, default=0, help="trial index to materialize"
    )

    p_pipe = sub.add_parser("pipeline", help="estimate a pose from scene files")
    p_pipe.add_argument("scene_dir", help="directory with rgb/depth/intrinsics")
    p_pipe.add_argument("--config", help="key=value pipeline config file")
    p_pipe.add_argument("--seed", type=int, help="registration seed override")
    p_pipe.add_argument("--out", help="directory for the pose report file")

    p_bench = sub.add_parser("bench", help="run the trial sweep")
    p_bench.add_argument("--config", help="key=value bench config file")
    p_bench.add_argument("--seed", type=int, help="master seed override")
    p_bench.add_argument("--out", required=True, help="report directory")
    return parser


def _load_kv(args, seed_key: str) -> dict[str, str]:
    """The --config file's pairs, with --seed, when given, as `seed_key`."""
    kv = {} if args.config is None else read_kv(args.config)
    if args.seed is not None:
        kv[seed_key] = str(args.seed)
    return kv


def _cmd_synth(args) -> int:
    config = BenchConfig.from_kv(_load_kv(args, "master_seed"))
    scene_seed, gt, corner, _, _ = draw_trial(config, args.trial)
    spec = scene_spec_for(config, scene_seed, gt, corner)
    rgb, depth, mask, _, _ = render_scene(spec)
    save_scene(
        args.out,
        rgb,
        depth,
        mask,
        config.intrinsics,
        gt,
        config.cuboid,
        extra={
            "noise_sigma_mm": f"{config.noise_sigma_mm:.17g}",
            "dropout_frac": f"{config.dropout_frac:.17g}",
            "scene_seed": scene_seed,
        },
    )
    print(f"scene written to {args.out} (seed {scene_seed})")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = PipelineConfig.from_kv(_load_kv(args, "reg_seed"))
    result = run_pipeline(args.scene_dir, config)
    report = result.report
    pose = result.pose
    print("pose matrix (row major):")
    for row in pose.matrix:
        print("  " + " ".join(f"{v: .9f}" for v in row))
    print(
        f"yaw_error_deg={report.yaw_error_deg:.6f} "
        f"translation_error_mm=({report.translation_error_mm[0]:.4f}, "
        f"{report.translation_error_mm[1]:.4f}, "
        f"{report.translation_error_mm[2]:.4f})"
    )
    print(
        f"coarse_score={result.coarse_score:.4f} "
        f"searched={int(result.searched)} "
        f"segment_points={result.segment_size} "
        f"t_estimate_ms={report.t_estimate * 1000:.3f} "
        f"t_correct_ms={report.t_correct * 1000:.3f}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_kv(
            os.path.join(args.out, "pose.txt"),
            {
                "pose": " ".join(f"{v:.17g}" for v in pose.matrix.ravel()),
                "yaw_error_deg": f"{report.yaw_error_deg:.17g}",
                "coarse_score": f"{result.coarse_score:.17g}",
                "searched": int(result.searched),
            },
        )
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = BenchConfig.from_kv(_load_kv(args, "master_seed"))
    result = run_bench(config, args.out)
    with open(result.summary_path, "r", encoding="ascii") as f:
        sys.stdout.write(f.read())
    print(f"csv: {result.csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "synth": _cmd_synth,
        "pipeline": _cmd_pipeline,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except PipelineError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (ParseError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CuboidPoseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
