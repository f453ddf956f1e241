"""End-to-end pipeline runner and the seeded ICP-vs-correction benchmark."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, deproject_mask
from .correction import (
    CorrectionReport,
    CuboidSpec,
    ReferenceFace,
    correct_pose,
    make_reference_face,
)
from .errors import (
    CuboidPoseError,
    InvalidSpec,
    NoRoiMatch,
    ParseError,
    PipelineError,
    TooFewPoints,
)
from .filters import voxel_downsample
from .geometry import (
    PointCloud,
    Pose,
    orthonormalize,
    rotation_about,
    rotation_angle,
    rotation_z,
)
from .io import load_intrinsics, load_pgm16, load_ppm
from .registration import (
    INLIER_DIST,
    MIN_POINTS,
    MIN_SCORE,
    coarse_register,
    icp_refine,
    lcp_score,
)
from .segmentation import (
    HsvRange,
    Quadrilateral2D,
    RoiSpec,
    fit_quadrilateral,
    hsv_threshold,
    largest_component,
    roi_filter,
    target_axis_points,
)
from .synth import BackgroundPlane, SceneSpec, inject_pose_error, render_scene

# Face local frame: x along the long edge, z out of the face. Flipping about x
# points the face normal back at a camera looking down +z.
_FACE_TO_CAMERA = np.diag([1.0, -1.0, -1.0])

# Red face paint used by the synthetic scenes; hue window wraps through 0.
_DEFAULT_HSV = HsvRange(h_lo=340.0, h_hi=20.0, s_lo=0.4, s_hi=1.0, v_lo=0.2, v_hi=1.0)

_DEFAULT_CUBOID = CuboidSpec(0.30, 0.20, 0.05)


_CASTS = {
    "int": int,
    "float": float,
    # 0 or 1: `index` raises ValueError on any other string
    "bool": lambda raw: bool(("0", "1").index(raw)),
}


def _from_kv(cls, kv: dict[str, str], what: str, **given):
    """Build a config dataclass from string pairs, each cast to the type of
    the field it names; unknown keys and uncastable values are ParseErrors.
    A value the cast accepts but the config does not, such as `inf` for a
    float, is the config's own ValueError."""
    types = {f.name: f.type for f in fields(cls) if f.init and f.type in _CASTS}
    kwargs = {}
    for key, raw in kv.items():
        if key not in types:
            raise ParseError(f"unknown {what} config key {key!r}")
        try:
            kwargs[key] = _CASTS[types[key]](raw)
        except ValueError:
            raise ParseError(f"bad value for {key}: {raw!r}") from None
    return cls(**given, **kwargs)


def _check_floats(config) -> None:
    """Raise ValueError if any `float` init field of the config dataclass is
    infinite or NaN; range checks that follow need not each exclude them."""
    for f in fields(config):
        if f.init and f.type == "float" and not math.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite")


# ---------------------------------------------------------------- pipeline

@dataclass
class PipelineConfig:
    """Knobs for a single end-to-end run; every field but `cuboid` has a
    key=value spelling, and the `face_*_m` keys set `cuboid`. Every float
    field must be finite. `use_sor` accepts only 0: statistical outlier
    removal is no longer a pipeline stage, and the field stays so that
    configs which turn it off still load. `reg_seed` seeds the 4-point
    search, whose tolerances are the `registration` module's constants; the
    mask's smallest component is `segmentation.MIN_MASK_PIXELS`."""

    cuboid: CuboidSpec = _DEFAULT_CUBOID
    hsv_h_lo: float = _DEFAULT_HSV.h_lo
    hsv_h_hi: float = _DEFAULT_HSV.h_hi
    hsv_s_lo: float = _DEFAULT_HSV.s_lo
    hsv_s_hi: float = _DEFAULT_HSV.s_hi
    hsv_v_lo: float = _DEFAULT_HSV.v_lo
    hsv_v_hi: float = _DEFAULT_HSV.v_hi
    voxel_leaf_m: float = 0.005
    use_sor: bool = False
    roi_tolerance: float = 0.15
    pitch_m: float = 0.006
    reg_seed: int = 0
    hsv: HsvRange = field(init=False)
    roi: RoiSpec = field(init=False)
    # the reference grid at `pitch_m`, built once here; its points are read-only
    reference: ReferenceFace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_floats(self)
        if not self.voxel_leaf_m > 0:
            raise ValueError("voxel_leaf_m must be positive")
        if self.reg_seed < 0:
            raise ValueError("reg_seed must be >= 0")
        if self.use_sor:
            raise ValueError(
                "use_sor must be 0: statistical outlier removal is no longer "
                "a pipeline stage"
            )
        self.hsv = HsvRange(
            self.hsv_h_lo,
            self.hsv_h_hi,
            self.hsv_s_lo,
            self.hsv_s_hi,
            self.hsv_v_lo,
            self.hsv_v_hi,
        )
        c = self.cuboid
        self.roi = RoiSpec(c.width, c.height, c.depth, self.roi_tolerance)
        try:
            self.reference = make_reference_face(c, self.pitch_m)
        except InvalidSpec as exc:
            raise ValueError(str(exc)) from exc
        self.reference.cloud.points.flags.writeable = False

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "PipelineConfig":
        """Build from string pairs; unknown keys are config errors."""
        # the face keys, their defaults and their check belong to BenchConfig,
        # which grids the face at the pitch the pipeline will use
        face = {k: v for k, v in kv.items() if k.startswith("face_") or k == "pitch_m"}
        cuboid = _from_kv(BenchConfig, face, "pipeline").cuboid
        rest = {k: v for k, v in kv.items() if not k.startswith("face_")}
        return _from_kv(cls, rest, "pipeline", cuboid=cuboid)


@dataclass
class PipelineResult:
    """A corrected pose and how it was reached.

    `coarse_score` is the LCP score (`registration.lcp_score` at
    `registration.INLIER_DIST`) of the start pose the correction used: the
    face-plane pose, or the 4-point search's winner when `searched` is true
    because the plane pose scored below `registration.MIN_SCORE`.
    """

    pose: Pose
    report: CorrectionReport
    coarse_score: float
    segment_size: int
    quad: Quadrilateral2D
    searched: bool


class FrontEnd(NamedTuple):
    """What `_segment` measures of the face in one frame."""

    segment: PointCloud  # the voxelled face cloud
    t1: np.ndarray  # axis point on one short edge of the outline, on the face plane
    t2: np.ndarray  # axis point on the other short edge
    quad: Quadrilateral2D  # outline of the mask's largest component
    center: np.ndarray  # mean of the deprojected component (the ROI box's `mean`)
    normal: np.ndarray  # smallest axis of the ROI gate's box, sign as PCA gives it


@contextmanager
def _stage(name: str):
    """Tag any library failure with the pipeline stage it happened in."""
    try:
        yield
    except PipelineError:
        raise
    except (CuboidPoseError, ValueError, OSError) as exc:
        raise PipelineError(name, exc) from exc


def _segment(rgb, depth, intr: CameraIntrinsics, config: PipelineConfig) -> FrontEnd:
    """The front end: the face segment, axis points, outline and face plane.

    Thresholds the RGB image and keeps the mask's largest connected component,
    so a same-coloured speck elsewhere in the frame reaches neither the cloud
    nor the outline. It sizes the face on the deprojected component, voxels
    that cloud into the segment (its only filter), and takes the axis points
    where the pixel rays of the outline quadrilateral's corners meet the face
    plane, which must lie the face's width apart (`_check_axis_length`). A
    segment of fewer than `registration.MIN_POINTS` points, too few to
    register, fails under `filters` (TooFewPoints). The face plane runs
    through the mean of the deprojected component and is normal to the
    smallest axis of the ROI gate's box; the box's center would follow the
    noise extremes along the normal. The ROI gate runs before voxelling because
    where the noisy face crosses a voxel layer the centroids come in denser
    stripes, which tilt the voxel cloud's PCA box by up to 10 degrees and make
    a true face read too large.
    """
    with _stage("hsv_threshold"):
        mask = hsv_threshold(rgb, config.hsv)
        mask = largest_component(mask)
    with _stage("deproject"):
        cloud = deproject_mask(intr, depth, mask)
    with _stage("roi_filter"):
        _, obb = roi_filter([cloud], config.roi)
    with _stage("filters"):
        segment = voxel_downsample(cloud, config.voxel_leaf_m)
        if len(segment) < MIN_POINTS:
            raise TooFewPoints(
                f"{len(segment)} points left after filtering, registration "
                f"needs {MIN_POINTS}"
            )
    with _stage("t_points"):
        quad = fit_quadrilateral(mask)
        center, normal = obb.mean, obb.axes[2]
        t1, t2 = target_axis_points(quad, intr, center, normal)
        _check_axis_length(t1, t2, config.roi)
    return FrontEnd(segment, t1, t2, quad, center, normal)


def _check_axis_length(t1, t2, roi: RoiSpec) -> None:
    """Raise NoRoiMatch unless the axis points lie the face's width apart,
    within the ROI tolerance. Points taken on the long edges instead lie the
    face's height apart; the start pose would then carry a yaw turned 90
    degrees, which the plane check cannot see and the correction keeps."""
    length = float(np.linalg.norm(t2 - t1))
    if abs(length - roi.width) > roi.tolerance * roi.width:
        raise NoRoiMatch(
            f"axis points {length:.3f} m apart, expected the face width "
            f"{roi.width:.3f} m within {roi.tolerance:.0%}"
        )


def _plane_pose(face: FrontEnd) -> Pose:
    """The start pose measured from the face plane: local z is the plane
    normal turned to face the camera, local x is t2 - t1 projected into the
    plane, and the origin is the mean of the deprojected component. It is
    already in `_canonical_orientation`'s convention."""
    z = face.normal if float(face.normal @ face.center) < 0.0 else -face.normal
    d = face.t2 - face.t1
    x = d - (d @ z) * z
    x /= np.linalg.norm(x)
    return Pose(np.column_stack((x, np.cross(z, x), z)), face.center)


def run_pipeline(scene_dir: str, config: PipelineConfig) -> PipelineResult:
    """Full chain from scene files to a corrected pose: load, segment the
    face (`_segment`), check the start pose measured from the face plane,
    then correct yaw and translation.

    The correction keeps only the start pose's face normal, face side and
    90 degree yaw fold, which the plane measures directly. The plane pose is
    scored once with the coarse stage's LCP score; only when that score is
    below `MIN_SCORE` does the 4-point search (`coarse_register`) run and
    supply the start pose instead. A failed search raises under the
    `coarse_register` stage.
    """
    with _stage("load"):
        rgb = load_ppm(os.path.join(scene_dir, "rgb.ppm"))
        depth = load_pgm16(os.path.join(scene_dir, "depth.pgm"))
        intr = load_intrinsics(os.path.join(scene_dir, "intrinsics.txt"))
    face = _segment(rgb, depth, intr, config)
    ref = config.reference
    with _stage("coarse_register"):
        start = _plane_pose(face)
        score = lcp_score(ref.cloud, face.segment, start, INLIER_DIST)
        searched = score < MIN_SCORE
        if searched:
            coarse = coarse_register(ref.cloud, face.segment, config.reg_seed)
            start, score = coarse.pose, coarse.score
    with _stage("correct_pose"):
        final, report = correct_pose(start, ref, face.t1, face.t2)
        final = _canonical_orientation(final, face.t1, face.t2)
    return PipelineResult(final, report, score, len(face.segment), face.quad, searched)


def _canonical_orientation(pose: Pose, t1, t2) -> Pose:
    """Fold the rectangle's 180 degree self-symmetries to a fixed convention.

    A planar face pins the pose only up to flips that map the rectangle onto
    itself; pick the representative whose local z (the face normal) points at
    the camera and whose local x runs along the measured axis direction.
    """
    if float(pose.r[:, 2] @ pose.t) > 0.0:
        flip_x = Pose(rotation_about(np.array([1.0, 0.0, 0.0]), math.pi), np.zeros(3))
        pose = pose.compose(flip_x)
    if float(pose.r[:, 0] @ (np.asarray(t2) - np.asarray(t1))) < 0.0:
        pose = pose.compose(Pose(rotation_z(math.pi), np.zeros(3)))
    return pose


# ---------------------------------------------------------------- bench

@dataclass
class BenchConfig:
    """Trial sweep parameters; every field has a key=value spelling, and
    every float field must be finite."""

    trials: int = 100
    master_seed: int = 0
    inj_yaw_deg: float = 3.0
    inj_dt_mm: float = 3.0
    noise_sigma_mm: float = 1.0
    dropout_frac: float = 0.1  # corner disk radius as a face-diagonal fraction
    face_width_m: float = _DEFAULT_CUBOID.width
    face_height_m: float = _DEFAULT_CUBOID.height
    face_depth_m: float = _DEFAULT_CUBOID.depth
    distance_m: float = 1.0
    jitter_m: float = 0.02
    tilt_deg: float = 2.0
    scene_yaw_deg: float = 25.0
    img_width: int = 1280
    img_height: int = 720
    fx: float = 920.0
    fy: float = 920.0
    cx: float = -1.0  # negative: use image center
    cy: float = -1.0
    voxel_leaf_m: float = 0.006
    pitch_m: float = 0.006
    background_depth_m: float = 1.5  # zero disables the backdrop
    use_coarse: bool = False
    warmup: int = 3
    intrinsics: CameraIntrinsics = field(init=False)  # the rendering camera
    pipeline: PipelineConfig = field(init=False)  # the trial front end

    def __post_init__(self):
        _check_floats(self)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        for name in (
            "inj_yaw_deg",
            "inj_dt_mm",
            "noise_sigma_mm",
            "jitter_m",
            "tilt_deg",
            "scene_yaw_deg",
            "background_depth_m",
            "warmup",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.dropout_frac < 0.3:
            raise ValueError("dropout_frac must be in [0, 0.3)")
        if not self.distance_m > 0.3:
            raise ValueError("distance_m must exceed 0.3")
        self.intrinsics = CameraIntrinsics(
            fx=self.fx,
            fy=self.fy,
            cx=self.img_width / 2.0 if self.cx <= 0 else self.cx,
            cy=self.img_height / 2.0 if self.cy <= 0 else self.cy,
            width=self.img_width,
            height=self.img_height,
        )
        self.pipeline = PipelineConfig(
            cuboid=self.cuboid,
            voxel_leaf_m=self.voxel_leaf_m,
            pitch_m=self.pitch_m,
        )

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "BenchConfig":
        """Build from string pairs; unknown keys are config errors."""
        return _from_kv(cls, kv, "bench")

    @property
    def cuboid(self) -> CuboidSpec:
        return CuboidSpec(self.face_width_m, self.face_height_m, self.face_depth_m)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    inj_yaw_deg: float
    inj_dt_mm: np.ndarray
    icp_time_ms: float
    icp_rot_err_deg: float
    icp_trans_err_mm: float
    corr_time_ms: float
    corr_rot_err_deg: float
    corr_trans_err_mm: float


@dataclass
class BenchResult:
    records: list[TrialRecord]
    failures: list[tuple[int, str]]
    csv_path: str
    summary_path: str
    averages: dict[str, dict[str, float]]


# wall times stay out of the CSV so a repeated run with the same seed writes
# identical bytes; per-trial timings live on TrialRecord and the summary
# reports their averages
CSV_HEADER = (
    "trial,seed,inj_yaw_deg,inj_dt_mm_x,inj_dt_mm_y,inj_dt_mm_z,"
    "method,rot_err_deg,trans_err_mm"
)


def _trial_pose(config: BenchConfig, rng: np.random.Generator) -> Pose:
    axis_angle = rng.uniform(0.0, 2.0 * math.pi)
    tilt = math.radians(rng.uniform(0.0, config.tilt_deg))
    scene_yaw = math.radians(rng.uniform(-config.scene_yaw_deg, config.scene_yaw_deg))
    jitter = rng.uniform(-config.jitter_m, config.jitter_m, 3)
    axis = np.array([math.cos(axis_angle), math.sin(axis_angle), 0.0])
    r = rotation_about(axis, tilt) @ rotation_z(scene_yaw) @ _FACE_TO_CAMERA
    t = np.array([jitter[0], jitter[1], config.distance_m + jitter[2]])
    return Pose(orthonormalize(r), t)


def draw_trial(config: BenchConfig, trial: int):
    """Deterministic per-trial randomization, one stream per trial index.

    Returns (scene_seed, gt_pose, dropout corner, injected yaw deg, injected
    translation in meters).
    """
    ss = np.random.SeedSequence([config.master_seed, trial])
    rng = np.random.default_rng(ss)
    scene_seed = int(rng.integers(0, 2**31 - 1))
    gt = _trial_pose(config, rng)
    corner = int(rng.integers(0, 4))
    inj_yaw = float(rng.uniform(-config.inj_yaw_deg, config.inj_yaw_deg))
    inj_dt = rng.uniform(-config.inj_dt_mm, config.inj_dt_mm, 3) / 1000.0
    return scene_seed, gt, corner, inj_yaw, inj_dt


def scene_spec_for(
    config: BenchConfig, scene_seed: int, gt: Pose, corner: int
) -> SceneSpec:
    dropout = []
    if config.dropout_frac > 0:
        dropout.append((corner, config.dropout_frac))
    background = []
    if config.background_depth_m > 0:
        background.append(BackgroundPlane(config.background_depth_m))
    return SceneSpec(
        cuboid=config.cuboid,
        gt_pose=gt,
        intrinsics=config.intrinsics,
        noise_sigma=config.noise_sigma_mm / 1000.0,
        dropout=dropout,
        background=background,
        seed=scene_seed,
    )


def run_trial(config: BenchConfig, ref: ReferenceFace, trial: int) -> TrialRecord:
    """One seeded scene through the pipeline's front end, `config.pipeline`,
    the route `run_pipeline` runs; ICP and the correction start from the same
    pose."""
    scene_seed, gt, corner, inj_yaw, inj_dt = draw_trial(config, trial)
    scene = scene_spec_for(config, scene_seed, gt, corner)
    rgb, depth, _, _, _ = render_scene(scene)
    face = _segment(rgb, depth, config.intrinsics, config.pipeline)

    if config.use_coarse:
        with _stage("coarse_register"):
            coarse = coarse_register(ref.cloud, face.segment, scene_seed)
        base = _canonical_orientation(coarse.pose, face.t1, face.t2)
    else:
        base = gt
    start = inject_pose_error(base, inj_yaw, inj_dt)

    icp = icp_refine(ref.cloud, face.segment, start)
    final, report = correct_pose(start, ref, face.t1, face.t2)

    def rot_err(pose: Pose) -> float:
        return math.degrees(rotation_angle(pose.r @ gt.r.T))

    def trans_err(pose: Pose) -> float:
        return 1000.0 * float(np.linalg.norm(pose.t - gt.t))

    return TrialRecord(
        trial=trial,
        seed=scene_seed,
        inj_yaw_deg=inj_yaw,
        inj_dt_mm=inj_dt * 1000.0,
        icp_time_ms=icp.elapsed * 1000.0,
        icp_rot_err_deg=rot_err(icp.pose),
        icp_trans_err_mm=trans_err(icp.pose),
        corr_time_ms=(report.t_estimate + report.t_correct) * 1000.0,
        corr_rot_err_deg=rot_err(final),
        corr_trans_err_mm=trans_err(final),
    )


def _csv_rows(rec: TrialRecord) -> list[str]:
    prefix = (
        f"{rec.trial},{rec.seed},{rec.inj_yaw_deg:.6f},"
        f"{rec.inj_dt_mm[0]:.6f},{rec.inj_dt_mm[1]:.6f},{rec.inj_dt_mm[2]:.6f}"
    )
    return [
        f"{prefix},icp,{rec.icp_rot_err_deg:.6f},{rec.icp_trans_err_mm:.6f}",
        f"{prefix},correction,"
        f"{rec.corr_rot_err_deg:.6f},{rec.corr_trans_err_mm:.6f}",
    ]


def run_bench(config: BenchConfig, out_dir: str) -> BenchResult:
    """Run the sweep; write trials.csv and summary.txt under `out_dir`.

    Warmup repetitions of the first trial are discarded so recorded timings
    are not inflated by first-touch costs. Trials that fail are kept out of
    the CSV and counted in the summary.
    """
    os.makedirs(out_dir, exist_ok=True)
    ref = config.pipeline.reference
    for _ in range(min(config.warmup, config.trials)):
        try:
            run_trial(config, ref, 0)
        except (CuboidPoseError, ValueError):
            break

    records: list[TrialRecord] = []
    failures: list[tuple[int, str]] = []
    for i in range(config.trials):
        try:
            records.append(run_trial(config, ref, i))
        except (CuboidPoseError, ValueError) as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))

    csv_path = os.path.join(out_dir, "trials.csv")
    lines = [CSV_HEADER]
    for rec in records:
        lines.extend(_csv_rows(rec))
    with open(csv_path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")

    averages: dict[str, dict[str, float]] = {}
    if records:
        averages["icp"] = {
            "time_ms": float(np.mean([r.icp_time_ms for r in records])),
            "rot_err_deg": float(np.mean([r.icp_rot_err_deg for r in records])),
            "trans_err_mm": float(np.mean([r.icp_trans_err_mm for r in records])),
        }
        averages["correction"] = {
            "time_ms": float(np.mean([r.corr_time_ms for r in records])),
            "rot_err_deg": float(np.mean([r.corr_rot_err_deg for r in records])),
            "trans_err_mm": float(np.mean([r.corr_trans_err_mm for r in records])),
        }

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="ascii", newline="\n") as f:
        f.write(f"trials={config.trials}\n")
        f.write(f"recorded={len(records)}\n")
        f.write(f"failures={len(failures)}\n")
        for method in ("icp", "correction"):
            if method in averages:
                avg = averages[method]
                f.write(
                    f"method={method} avg_time_ms={avg['time_ms']:.3f} "
                    f"avg_rot_err_deg={avg['rot_err_deg']:.6f} "
                    f"avg_trans_err_mm={avg['trans_err_mm']:.6f}\n"
                )
        if "icp" in averages and averages["correction"]["time_ms"] > 0:
            ratio = averages["icp"]["time_ms"] / averages["correction"]["time_ms"]
            f.write(f"time_ratio_icp_over_correction={ratio:.2f}\n")
        for trial, why in failures:
            f.write(f"failure trial={trial} {why}\n")

    return BenchResult(records, failures, csv_path, summary_path, averages)
