"""Exception hierarchy for arcpose.

Every failure mode that a caller may want to catch gets its own class so that
the Monte Carlo harness can record solver failures by name without string
matching. All classes derive from ArcPoseError. InvalidConfigError is also a
ValueError: a malformed field of a file or a value class raises it by name, no
longer a plain ValueError, which is left to other violated call preconditions.
"""


class ArcPoseError(Exception):
    """Base class for all arcpose-specific errors."""


# --- frame errors ------------------------------------------------------------

class GimbalLockError(ArcPoseError):
    """|cos(theta)| is too small to separate the remaining Euler angles."""


# --- conic / cone errors -----------------------------------------------------

class TooFewPointsError(ArcPoseError):
    """Ellipse fitting needs at least 5 points."""


class DegenerateConicError(ArcPoseError):
    """The fitted conic is not a (representable) ellipse."""


class NotAConeError(ArcPoseError):
    """Matrix is not an elliptical cone: zero eigenvalue or wrong signature."""


class ParallelLineError(ArcPoseError):
    """Section plane is parallel to a cone generator; no finite chord."""


class LineParallelToPlaneError(ArcPoseError):
    """Viewing ray does not intersect the luminaire plane."""


class BehindCameraError(ArcPoseError):
    """Ray/plane intersection landed behind the camera (z <= 0)."""


# --- solver errors -----------------------------------------------------------

class AmbiguousDisambiguationError(ArcPoseError):
    """Two near-tied candidate pairings select materially different normals."""


class InconsistentInputError(ArcPoseError):
    """Trigonometric system residual too large; wrong branch or bad data."""


class DegenerateDirectionError(ArcPoseError):
    """Inter-luminaire direction is parallel to the world z-axis."""


class UnknownLuminaireError(ArcPoseError):
    """Observation references a luminaire id absent from the scene."""


class TooFewLuminairesError(ArcPoseError):
    """Fewer than two usable observations were supplied."""


class NoCompleteCaptureError(ArcPoseError):
    """The circle-and-arc solver (VPCA) was asked for, but no luminaire of
    the pair was captured complete."""


class NonConvergenceError(ArcPoseError):
    """Iterative solver stopped with an unacceptably large residual."""


# --- simulation errors -------------------------------------------------------

class SamplingExhaustedError(ArcPoseError):
    """No sampled pose passed the visibility test in `sim.MAX_ATTEMPTS` draws."""


class NotVisibleError(ArcPoseError):
    """No contour point of the luminaire projects into the image."""


class ArcTooShortError(ArcPoseError):
    """Fewer than 5 contour points survived truncation."""


# --- harness errors ----------------------------------------------------------

class InvalidConfigError(ArcPoseError, ValueError):
    """An input file, a value class's field or the experiment/CLI
    configuration failed validation."""
