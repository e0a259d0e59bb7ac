"""Output checks that do not depend on the workload seed."""

from __future__ import annotations

import json
import math

# Ground truth of the bundled zero-noise fixture
# (src/arcpose/data/fixture_observations.json); the same constants as the
# command-line tests, kept here so the benchmark stands on its own.
FIXTURE_DEG = (26.669184326, -24.242201191, -161.272331617)
FIXTURE_T = (2.688936484, 0.901676801, 1.17550905)
TOLERANCE_M = 1e-6
TOLERANCE_DEG = 1e-6


def fixture_solve(env) -> tuple[bool, str]:
    """Solve the bundled fixture the way `arcpose solve` does and compare it
    with its known pose."""
    scene = env.sim.scene_from_dict(
        json.loads((env.data / "fixture_scene.json").read_text()))
    raw = json.loads((env.data / "fixture_observations.json").read_text())
    observations, k = env.cli.observations_from_dict(raw)
    estimate = env.solver.solve_vpa(observations, scene.luminaire_map(), k)
    e = env.frames.rotation_to_euler(estimate.pose.rotation)
    deg = [math.degrees(a) for a in (e.phi, e.theta, e.psi)]
    dt = max(abs(a - b) for a, b in zip(estimate.pose.translation, FIXTURE_T))
    dr = max(abs(a - b) for a, b in zip(deg, FIXTURE_DEG))
    ok = dt <= TOLERANCE_M and dr <= TOLERANCE_DEG
    return ok, f"location off by {dt:.2e} m, angles by {dr:.2e} deg"
