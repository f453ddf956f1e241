"""Shared fixtures: one camera model and a couple of pre-rendered scenes that
several test files reuse instead of rendering their own; the symmetric
rotation error that the pose tests measure with; the face plane that the
axis-point tests intersect; and a counter of `ndimage.label` calls."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from cuboidpose import (
    CameraIntrinsics,
    CuboidSpec,
    Pose,
    SceneSpec,
    deproject_mask,
    fit_obb,
    render_scene,
)
from cuboidpose.bench import BenchConfig, draw_trial, scene_spec_for
from cuboidpose.geometry import rotation_about, rotation_angle, rotation_z
from cuboidpose.synth import BackgroundPlane

FACE = CuboidSpec(0.30, 0.20, 0.05)

# flips that map a centered rectangle onto itself; a planar face determines
# its pose only up to these
RECT_SYMMETRIES = [
    np.eye(3),
    rotation_about([1.0, 0.0, 0.0], np.pi),
    rotation_about([0.0, 1.0, 0.0], np.pi),
    rotation_z(np.pi),
]


def symmetric_rot_err_deg(r_est, r_true):
    return min(
        math.degrees(rotation_angle(r_est @ s @ r_true.T)) for s in RECT_SYMMETRIES
    )


def count_labels(monkeypatch):
    """A list that gets one entry, the labelled array's shape, per
    `scipy.ndimage.label` call made while the monkeypatch holds."""
    calls = []
    real = ndimage.label

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(ndimage, "label", counted)
    return calls


def face_plane(intr, depth, mask):
    """(point, normal) of the face plane the way the pipeline measures it: the
    mean of the deprojected mask and the smallest axis of its box."""
    cloud = deproject_mask(intr, depth, mask)
    return cloud.points.mean(axis=0), fit_obb(cloud).axes[2]


@pytest.fixture(scope="session")
def intr640():
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture(scope="session")
def frontal(intr640):
    """Noiseless face looking straight down the camera axis at 1 m."""
    spec = SceneSpec(
        FACE,
        Pose(np.eye(3), np.array([0.0, 0.0, 1.0])),
        intr640,
        background=[BackgroundPlane(1.5)],
    )
    rgb, depth, mask, cloud, gt = render_scene(spec)
    return SimpleNamespace(
        spec=spec, rgb=rgb, depth=depth, mask=mask, cloud=cloud, gt=gt, intr=intr640
    )


@pytest.fixture(scope="session")
def drawn():
    """Noiseless render of the first benchmark trial: yawed and slightly
    tilted, the usual viewing geometry."""
    config = BenchConfig()
    scene_seed, gt_pose, corner, _, _ = draw_trial(config, 0)
    spec = scene_spec_for(config, scene_seed, gt_pose, corner)
    spec.noise_sigma = 0.0
    spec.dropout = []
    rgb, depth, mask, cloud, gt = render_scene(spec)
    return SimpleNamespace(
        config=config,
        spec=spec,
        rgb=rgb,
        depth=depth,
        mask=mask,
        cloud=cloud,
        gt=gt,
        gt_pose=gt_pose,
        intr=config.intrinsics,
    )


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
