"""arcpose: camera pose and location from images of circular ceiling luminaires.

The library covers the full loop of the simulation study: camera, pose and
rotation conversions (`frames`), ellipse fitting and circle-pose geometry
(`conic`), the circle-and-arc and arcs-only pose solvers plus a
point-correspondence baseline (`solver`), a synthetic scene and capture
simulator (`sim`), and a reproducible Monte Carlo experiment runner
(`harness`). The `arcpose` command line wraps the harness.
"""

__version__ = "0.1.0"

from .errors import ArcPoseError
from .frames import CameraIntrinsics, EulerAngles, Pose, euler_to_rotation
from .conic import EllipseCoeffs, fit_ellipse
from .solver import (
    LuminaireInfo,
    Observation,
    PoseEstimate,
    pnp_baseline,
    solve_oavpa,
    solve_vpa,
    solve_vpca,
)
from .sim import Scene, default_intrinsics, default_scene
from .harness import ExperimentConfig, run_monte_carlo, summarize, sweep

__all__ = [
    "__version__",
    "ArcPoseError",
    "CameraIntrinsics",
    "EulerAngles",
    "Pose",
    "euler_to_rotation",
    "EllipseCoeffs",
    "fit_ellipse",
    "LuminaireInfo",
    "Observation",
    "PoseEstimate",
    "pnp_baseline",
    "solve_oavpa",
    "solve_vpa",
    "solve_vpca",
    "Scene",
    "default_intrinsics",
    "default_scene",
    "ExperimentConfig",
    "run_monte_carlo",
    "summarize",
    "sweep",
]
