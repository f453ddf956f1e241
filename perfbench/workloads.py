"""Benchmark workloads: seeded set-up, one frame call and its pose check.

A frame is one call of a program entry point, `bench.run_trial` or
`bench.run_pipeline`, made unchanged. Each workload builds its inputs from the
benchmark seed during set-up; the program only ever sees those inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from cuboidpose import bench
from cuboidpose.correction import CuboidSpec, make_reference_face
from cuboidpose.errors import PipelineError
from cuboidpose.geometry import rotation_about, rotation_angle, rotation_z
from cuboidpose.io import save_scene
from cuboidpose.synth import render_scene

# criterion 06's envelope for a pose that counts as correct
ROT_TOL_DEG = 3.3
TRANS_TOL_MM = 5.3

# flips that map the centered rectangle onto itself; a planar face fixes its
# pose only up to these
_RECT_SYMMETRIES = [
    np.eye(3),
    rotation_about([1.0, 0.0, 0.0], math.pi),
    rotation_about([0.0, 1.0, 0.0], math.pi),
    rotation_z(math.pi),
]

# scene directories a pipeline workload writes; frame i reads scene i mod SCENES
SCENES = 16

# criterion 01's sweep: 1 mm noise, no dropout, +-5 deg / 10 mm injection
PLAIN = dict(
    inj_yaw_deg=5.0,
    inj_dt_mm=10.0,
    noise_sigma_mm=1.0,
    dropout_frac=0.0,
    voxel_leaf_m=0.006,
    pitch_m=0.006,
)
# criteria 02/03: 10% corner dropout, denser clouds
DENSE_DROPOUT = dict(PLAIN, dropout_frac=0.1, voxel_leaf_m=0.003, pitch_m=0.0028)


def symmetric_rot_err_deg(r_est, r_true) -> float:
    return min(
        math.degrees(rotation_angle(r_est @ s @ r_true.T)) for s in _RECT_SYMMETRIES
    )


@dataclass
class Outcome:
    """What the check made of one frame."""

    ok: bool
    failure: str | None = None  # pipeline stage or exception class
    rot_err_deg: float = math.nan
    trans_err_mm: float = math.nan
    icp_rot_err_deg: float = math.nan
    icp_trans_err_mm: float = math.nan
    icp_over_correction: float = math.nan  # criterion 03's time ratio
    digest_line: str = ""


def failure_outcome(exc: Exception) -> Outcome:
    where = exc.stage if isinstance(exc, PipelineError) else type(exc).__name__
    return Outcome(ok=False, failure=where, digest_line=f"raised {where}")


def _gate(rot: float, trans: float) -> str | None:
    if rot <= ROT_TOL_DEG and trans <= TRANS_TOL_MM:
        return None
    return "wrong_pose"


@dataclass
class TrialWorkload:
    """`bench.run_trial` on a fixed `BenchConfig`; frame i is trial i."""

    name: str
    why: str
    config: dict
    digest_frames = 8  # frames whose outputs and counts are hashed

    def setup(self, seed: int, work_dir: str):
        config = bench.BenchConfig(master_seed=seed, **self.config)
        ref = make_reference_face(config.cuboid, config.pitch_m)
        bench.run_trial(config, ref, 0)  # warm-up
        return config, ref

    def frame(self, state, i: int):
        config, ref = state
        return bench.run_trial(config, ref, i)

    def check(self, state, i: int, rec) -> Outcome:
        # a trial record carries errors, not the pose: its rotation error is
        # the plain angle to ground truth, an upper bound of the symmetric one
        failure = _gate(rec.corr_rot_err_deg, rec.corr_trans_err_mm)
        return Outcome(
            ok=failure is None,
            failure=failure,
            rot_err_deg=rec.corr_rot_err_deg,
            trans_err_mm=rec.corr_trans_err_mm,
            icp_rot_err_deg=rec.icp_rot_err_deg,
            icp_trans_err_mm=rec.icp_trans_err_mm,
            icp_over_correction=rec.icp_time_ms / rec.corr_time_ms,
            digest_line=(
                f"{rec.trial} {rec.seed} {rec.inj_yaw_deg:.6f} "
                + " ".join(f"{v:.6f}" for v in rec.inj_dt_mm)
                + f" {rec.icp_rot_err_deg:.6f} {rec.icp_trans_err_mm:.6f}"
                f" {rec.corr_rot_err_deg:.6f} {rec.corr_trans_err_mm:.6f}"
            ),
        )


@dataclass
class PipelineWorkload:
    """`bench.run_pipeline` on scene directories written during set-up.

    Scenes are drawn as `cuboidpose synth --seed <seed> --trial <k>` draws
    them, from `scene` settings on top of the `BenchConfig` defaults; frame i
    reads scene i mod SCENES.
    """

    name: str
    why: str
    scene: dict
    pipeline: dict
    digest_frames = SCENES  # one pass over the scenes

    def setup(self, seed: int, work_dir: str):
        scene_cfg = bench.BenchConfig(master_seed=seed, **self.scene)
        dirs, truths = [], []
        for k in range(SCENES):
            scene_seed, gt, corner, _, _ = bench.draw_trial(scene_cfg, k)
            spec = bench.scene_spec_for(scene_cfg, scene_seed, gt, corner)
            rgb, depth, mask, _, _ = render_scene(spec)
            path = os.path.join(work_dir, f"scene{k}")
            save_scene(path, rgb, depth, mask, scene_cfg.intrinsics, gt, scene_cfg.cuboid)
            dirs.append(path)
            truths.append(gt)
        config = bench.PipelineConfig(
            cuboid=CuboidSpec(
                scene_cfg.face_width_m, scene_cfg.face_height_m, scene_cfg.face_depth_m
            ),
            **self.pipeline,
        )
        try:
            bench.run_pipeline(dirs[0], config)  # warm-up
        except PipelineError:
            pass  # the timed frame of this scene reports the failure
        return config, dirs, truths

    def frame(self, state, i: int):
        config, dirs, _ = state
        return bench.run_pipeline(dirs[i % len(dirs)], config)

    def check(self, state, i: int, result) -> Outcome:
        _, dirs, truths = state
        gt = truths[i % len(dirs)]
        pose = result.pose
        rot = symmetric_rot_err_deg(pose.r, gt.r)
        trans = 1000.0 * float(np.linalg.norm(pose.t - gt.t))
        failure = _gate(rot, trans)
        return Outcome(
            ok=failure is None,
            failure=failure,
            rot_err_deg=rot,
            trans_err_mm=trans,
            digest_line=(
                f"{i % len(dirs)} "
                + " ".join(f"{v:.6f}" for v in pose.matrix[:3].ravel())
                + f" {rot:.6f} {trans:.6f} {result.coarse_score:.6f}"
            ),
        )


WORKLOADS = {
    w.name: w
    for w in (
        TrialWorkload(
            "trial_plain",
            "criterion 01's trial: render, HSV, outline and voxel dominate; "
            "no coarse registration",
            PLAIN,
        ),
        TrialWorkload(
            "trial_dense_dropout",
            "criteria 02/03's trial: 10% corner dropout and 3 mm voxels give "
            "4-5x denser clouds, so ICP leads",
            DENSE_DROPOUT,
        ),
        # SOR off and a 30% ROI tolerance: with the defaults this path cannot
        # be a steady, failure-free workload (see perfbench/README.md)
        PipelineWorkload(
            "pipeline_plain",
            "the CLI path run_pipeline on trial_plain's scenes from disk: file "
            "load, ROI gate, coarse registration",
            PLAIN,
            {"use_sor": False, "roi_tolerance": 0.3},
        ),
    )
}
