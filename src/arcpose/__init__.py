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
from .frames import CameraIntrinsics, EulerAngles, Pose
from .solver import LuminaireInfo, Observations, PoseEstimate, solve_vpa
from .sim import Scene, default_intrinsics, default_scene
from .harness import ExperimentConfig, Records, run_monte_carlo, summarize, sweep

__all__ = [
    "__version__",
    "ArcPoseError",
    "CameraIntrinsics",
    "EulerAngles",
    "Pose",
    "LuminaireInfo",
    "Observations",
    "PoseEstimate",
    "solve_vpa",
    "Scene",
    "default_intrinsics",
    "default_scene",
    "ExperimentConfig",
    "Records",
    "run_monte_carlo",
    "summarize",
    "sweep",
]
