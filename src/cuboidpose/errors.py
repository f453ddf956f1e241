"""Exception types shared across the package.

Every error raised by the library derives from CuboidPoseError so callers can
catch one base class at the CLI boundary.
"""

from __future__ import annotations


class CuboidPoseError(Exception):
    """Base class for all library errors."""


# geometry

class DegenerateCloud(CuboidPoseError):
    """Point cloud has too little spatial extent for the requested fit."""


class DegenerateDirection(CuboidPoseError):
    """A direction vector vanished (zero length or parallel to the plane normal)."""


# camera

class OutOfBounds(CuboidPoseError):
    """Pixel coordinate outside the image."""


class InvalidDepth(CuboidPoseError):
    """No usable depth measurement at the requested location."""


class DimensionMismatch(CuboidPoseError):
    """Image dimensions disagree with the camera intrinsics."""


class BehindCamera(CuboidPoseError):
    """3D point has non-positive depth and cannot be projected."""


# filters

class TooFewPoints(CuboidPoseError):
    """Cloud is smaller than the neighborhood size the filter needs."""


class InsufficientNeighbors(CuboidPoseError):
    """Cloud is too small for any local surface fit."""


# segmentation

class NoComponent(CuboidPoseError):
    """Mask contains no connected component of the required size."""


class NotQuadrilateralLike(CuboidPoseError):
    """Mask outline cannot be reduced to a quadrilateral without distortion."""


class NoRoiMatch(CuboidPoseError):
    """No segment matches the expected face dimensions."""


# registration

class RegistrationFailed(CuboidPoseError):
    """No candidate pose reached the minimum alignment score."""


class NoCorrespondences(CuboidPoseError):
    """Source or target cloud is empty; nearest neighbors undefined."""


# pose correction

class DegenerateSegment(CuboidPoseError):
    """An axis segment is too short or badly oriented to define a direction."""


# scene synthesis

class InvalidSpec(CuboidPoseError):
    """Scene or grid parameters are out of range."""


class FaceOutOfView(CuboidPoseError):
    """Less than half of the face projects inside the image."""


# file IO

class ParseError(CuboidPoseError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# pipeline

class PipelineError(CuboidPoseError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {type(cause).__name__}: {cause}")
