"""Cuboid face pose estimation from synthetic RGB-D scenes.

The pipeline segments a colored rectangular face out of an RGB-D frame,
registers a synthetic reference grid onto it, and then snaps the pose onto
two measured axis points, correcting the in-plane rotation and translation
in constant estimation time.
"""

from .bench import (
    BenchConfig,
    BenchResult,
    PipelineConfig,
    PipelineResult,
    TrialRecord,
    run_bench,
    run_pipeline,
    run_trial,
)
from .camera import (
    CameraIntrinsics,
    DepthImage,
    MaskImage,
    deproject_mask,
    inverse_project,
    project,
)
from .correction import (
    CorrectionReport,
    CuboidSpec,
    ReferenceFace,
    correct_pose,
    estimate_translation_error,
    estimate_yaw_error,
    make_reference_face,
    reference_axis_points,
)
from .errors import CuboidPoseError, PipelineError
from .filters import (
    estimate_normals,
    statistical_outlier_removal,
    voxel_downsample,
)
from .geometry import (
    Obb,
    PointCloud,
    Pose,
    apply_transform,
    fit_obb,
    rotation_about,
    rotation_angle,
    rotation_z,
    signed_angle_in_plane,
)
from .registration import (
    RegistrationParams,
    RegistrationResult,
    coarse_register,
    icp_refine,
    kabsch,
    pairs_in_range,
)
from .segmentation import (
    HsvRange,
    Quadrilateral2D,
    RoiSpec,
    fit_quadrilateral,
    hsv_threshold,
    largest_component,
    region_growing,
    roi_filter,
    target_axis_points,
)
from .synth import (
    BackgroundPlane,
    GroundTruth,
    SceneSpec,
    inject_pose_error,
    render_scene,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundPlane",
    "BenchConfig",
    "BenchResult",
    "CameraIntrinsics",
    "CorrectionReport",
    "CuboidPoseError",
    "CuboidSpec",
    "DepthImage",
    "GroundTruth",
    "HsvRange",
    "MaskImage",
    "Obb",
    "PipelineConfig",
    "PipelineError",
    "PipelineResult",
    "PointCloud",
    "Pose",
    "Quadrilateral2D",
    "ReferenceFace",
    "RegistrationParams",
    "RegistrationResult",
    "RoiSpec",
    "SceneSpec",
    "TrialRecord",
    "apply_transform",
    "coarse_register",
    "correct_pose",
    "deproject_mask",
    "estimate_normals",
    "estimate_translation_error",
    "estimate_yaw_error",
    "fit_obb",
    "fit_quadrilateral",
    "hsv_threshold",
    "icp_refine",
    "inject_pose_error",
    "inverse_project",
    "kabsch",
    "largest_component",
    "make_reference_face",
    "pairs_in_range",
    "project",
    "reference_axis_points",
    "region_growing",
    "render_scene",
    "roi_filter",
    "rotation_about",
    "rotation_angle",
    "rotation_z",
    "run_bench",
    "run_pipeline",
    "run_trial",
    "signed_angle_in_plane",
    "statistical_outlier_removal",
    "target_axis_points",
    "voxel_downsample",
]
