"""Shared helpers: exact forward projection of ceiling discs, rotations
that cover every branch of the quaternion conversion, and the runner's
capture of given poses.

The first two build test scenes through the reference maps of `oracles`
only, so the conic and solver tests check their subject against an
independent forward model rather than against the simulator under test.
"""

import math

import numpy as np
import pytest

from arcpose.frames import CameraIntrinsics, EulerAngles, Pose, rotations_from_angles
from arcpose.sim import capture_poses, luminaire_points
from arcpose.solver import LuminaireInfo

from oracles import (
    image_to_pixel,
    project_to_image,
    quaternion_to_rotation,
    rotation_scalar,
    world_to_camera,
)


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(
        f=0.4, dx=1.25e-3, dy=1.25e-3, u0=320.0, v0=240.0, width=640, height=480
    )


def make_pose(phi=0.0, theta=0.0, psi=0.0, t=(0.0, 0.0, 0.0)) -> Pose:
    EulerAngles(phi, theta, psi)  # checks the angle ranges
    return Pose(rotation=rotation_scalar(phi, theta, psi), translation=np.asarray(t, float))


def circle_world_points(center, radius, angles) -> np.ndarray:
    a = np.asarray(angles, float)
    return np.asarray(center, float) + radius * np.stack(
        [np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1
    )


def project_world_points(points_w, pose: Pose, k: CameraIntrinsics) -> np.ndarray:
    """Exact image-plane (cm) projection of world points."""
    return project_to_image(world_to_camera(points_w, pose), k)


def project_world_pixels(points_w, pose: Pose, k: CameraIntrinsics) -> np.ndarray:
    return image_to_pixel(project_world_points(points_w, pose, k), k)


def random_visible_scene(rng, k: CameraIntrinsics, radius=0.15, n=360):
    """Random tilted pose plus a ceiling disc it sees entirely.

    Places the camera somewhere in a standard-room-sized room, tilts it randomly,
    and drops the luminaire along a viewing direction near the image center
    so the whole contour stays in the image. Returns (lum, pose, contour cm).
    """
    while True:
        t = np.array([
            rng.uniform(1.0, 7.0), rng.uniform(1.0, 5.0), rng.uniform(0.5, 2.0),
        ])
        e = EulerAngles(
            phi=rng.uniform(-0.6, 0.6),
            theta=rng.uniform(-0.6, 0.6),
            psi=rng.uniform(-np.pi, np.pi),
        )
        pose = Pose(rotation=rotation_scalar(e.phi, e.theta, e.psi), translation=t)
        # Aim the disc center along a ray near the optical axis.
        ray_c = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0])
        ray_w = pose.rotation @ ray_c
        if abs(ray_w[2]) < 0.2:
            continue
        height = rng.uniform(2.5, 3.0)
        scale = (height - t[2]) / ray_w[2]
        if scale <= 0.3:
            continue
        center = t + scale * ray_w
        lum = LuminaireInfo(id="T", center_w=center, radius=radius)
        pts_c = world_to_camera(circle_world_points(center, radius, np.linspace(0, 2 * np.pi, n, endpoint=False)), pose)
        if pts_c[:, 2].min() <= 0.1:
            continue
        contour = project_to_image(pts_c, k)
        pix = image_to_pixel(contour, k)
        if (
            pix[:, 0].min() > 2 and pix[:, 0].max() < k.width - 2
            and pix[:, 1].min() > 2 and pix[:, 1].max() < k.height - 2
        ):
            return lum, pose, contour


def axis_turn(axis, angle):
    """The rotation by `angle` about `axis`."""
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    return quaternion_to_rotation([math.cos(angle / 2), *(math.sin(angle / 2) * axis)])


# One rotation per branch of the quaternion conversion, by its trace and
# largest diagonal entry, and half turns, whose w is 0 up to rounding.
BRANCH_ROTATIONS = {
    "identity": np.eye(3),
    "trace>0": axis_turn([1, 2, 3], 1.0),
    "quarter_turn": rotation_scalar(0, 0, math.pi / 2),
    "argmax0": axis_turn([3, 1, 1], 2.8),
    "argmax1": axis_turn([1, 3, -1], 2.8),
    "argmax2": axis_turn([-1, 1, 3], 2.8),
    "half_turn_x": np.diag([1.0, -1.0, -1.0]),
    "half_turn_y": np.diag([-1.0, 1.0, -1.0]),
    "half_turn_z": np.diag([-1.0, -1.0, 1.0]),
    "half_turn_w0_sign": axis_turn([0, -1, 1], math.pi),
    "half_turn_w0_first": axis_turn([-1, 1, 0], math.pi),
}


def branch_and_random_rotations():
    rng = np.random.default_rng(9)
    angles = rng.uniform([-math.pi, -math.pi / 2, -math.pi], [math.pi, math.pi / 2, math.pi],
                         size=(2000, 3))
    return np.concatenate([np.array(list(BRANCH_ROTATIONS.values())),
                           rotations_from_angles(*angles.T)])


def capture_like_run(cfg, rotations, translations, rngs):
    """`sim.capture_poses` of the given poses and their generators, called as
    `harness.run_monte_carlo` calls it for the configuration `cfg`."""
    scene = cfg.effective_scene()
    return capture_poses(scene, rotations, translations, rngs, cfg.intrinsics,
                         luminaire_points(scene.luminaires, cfg.contour_samples), cfg.scenario,
                         cfg.sigma / math.sqrt(cfg.images_per_location), cfg.arc_fraction)
