"""Shared helpers: exact forward projection of ceiling discs.

These build test scenes through the reference maps of `oracles` only, so
the conic and solver tests check their subject against an independent
forward model rather than against the simulator under test.
"""

import numpy as np
import pytest

from arcpose.frames import CameraIntrinsics, EulerAngles, Pose, euler_to_rotation
from arcpose.solver import LuminaireInfo

from oracles import image_to_pixel, project_to_image, world_to_camera


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(
        f=0.4, dx=1.25e-3, dy=1.25e-3, u0=320.0, v0=240.0, width=640, height=480
    )


def make_pose(phi=0.0, theta=0.0, psi=0.0, t=(0.0, 0.0, 0.0)) -> Pose:
    e = EulerAngles(phi=phi, theta=theta, psi=psi)
    return Pose(rotation=euler_to_rotation(e), translation=np.asarray(t, float))


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
        pose = Pose(rotation=euler_to_rotation(e), translation=t)
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
