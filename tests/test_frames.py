"""Coordinate transforms, projection, and rotation conversions."""

import math

import numpy as np
import pytest

from arcpose.errors import GimbalLockError
from arcpose.frames import (
    CameraIntrinsics,
    EulerAngles,
    Pose,
    euler_to_rotation,
    is_rotation,
    pixel_to_image,
    rotation_to_euler,
    rotation_to_quaternion,
)

from conftest import make_pose
from oracles import (
    backproject_with_depth,
    camera_to_world,
    embed_on_image_plane,
    image_to_pixel,
    project_to_image,
    quaternion_to_rotation,
    world_to_camera,
)


# --- PCS <-> ICS ----------------------------------------------------------------

def test_principal_point_maps_to_ics_origin(intrinsics):
    assert np.allclose(pixel_to_image([320.0, 240.0], intrinsics), [0.0, 0.0])


def test_pixel_to_image_hand_value(intrinsics):
    # dx*(720-320) = 1.25e-3 * 400 = 0.5 cm
    assert np.allclose(pixel_to_image([720.0, 240.0], intrinsics), [0.5, 0.0])


def test_image_to_pixel_hand_values(intrinsics):
    assert np.allclose(image_to_pixel([0.0, 0.0], intrinsics), [320.0, 240.0])
    assert np.allclose(image_to_pixel([0.5, 0.0], intrinsics), [720.0, 240.0])


def test_pixel_image_round_trip(intrinsics):
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 640, size=(100, 2))
    assert np.allclose(image_to_pixel(pixel_to_image(p, intrinsics), intrinsics), p,
                       atol=1e-12)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(f=-1, dx=1e-3, dy=1e-3, u0=320, v0=240, width=640, height=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(f=0.4, dx=1e-3, dy=1e-3, u0=700, v0=240, width=640, height=480)


# --- projection -----------------------------------------------------------------

def test_on_axis_point_projects_to_origin(intrinsics):
    assert np.allclose(project_to_image([0.0, 0.0, 3.0], intrinsics), [0.0, 0.0])


def test_projection_similar_triangles(intrinsics):
    # f * x/z = 0.4 * 1/2 = 0.2 cm
    assert np.allclose(project_to_image([1.0, 0.0, 2.0], intrinsics), [0.2, 0.0])


def test_point_behind_camera_raises(intrinsics):
    with pytest.raises(ValueError, match="z <= 0"):
        project_to_image([0.0, 0.0, -1.0], intrinsics)


def test_backprojection_hand_values(intrinsics):
    assert np.allclose(backproject_with_depth([0.0, 0.0], 3.0, intrinsics), [0, 0, 3])
    assert np.allclose(backproject_with_depth([0.2, 0.0], 2.0, intrinsics), [1, 0, 2])


def test_backprojection_requires_positive_depth(intrinsics):
    with pytest.raises(ValueError, match="depth must be positive"):
        backproject_with_depth([0.1, 0.1], 0.0, intrinsics)


def test_project_backproject_round_trip(intrinsics):
    rng = np.random.default_rng(1)
    q = rng.uniform(-0.3, 0.3, size=(50, 2))
    for z in (0.5, 2.0, 7.0):
        assert np.allclose(
            project_to_image(backproject_with_depth(q, z, intrinsics), intrinsics), q,
            atol=1e-12,
        )


def test_image_plane_embedding(intrinsics):
    emb = embed_on_image_plane([0.1, -0.2], intrinsics)
    assert np.allclose(emb, [0.1, -0.2, 0.4])


# --- CCS <-> WCS -----------------------------------------------------------------

def test_camera_origin_maps_to_translation():
    pose = make_pose(0.3, -0.2, 1.0, t=(1.0, 2.0, 3.0))
    assert np.allclose(camera_to_world([0.0, 0.0, 0.0], pose), [1.0, 2.0, 3.0])


def test_identity_pose_is_identity_map():
    pose = make_pose()
    p = np.array([0.4, -1.0, 2.5])
    assert np.allclose(camera_to_world(p, pose), p)


def test_world_camera_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pose = make_pose(*rng.uniform(-1.2, 1.2, size=3), t=rng.uniform(-5, 5, size=3))
        pts = rng.uniform(-10, 10, size=(25, 3))
        back = camera_to_world(world_to_camera(pts, pose), pose)
        assert np.abs(back - pts).max() < 1e-12


# --- Euler angles ------------------------------------------------------------------

def test_zero_angles_give_identity():
    assert np.allclose(euler_to_rotation(EulerAngles(0, 0, 0)), np.eye(3))


def test_pure_heading_rotation_maps_x_to_y():
    r = euler_to_rotation(EulerAngles(0, 0, math.pi / 2))
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_heading_rotation_fixes_world_z():
    for psi in np.linspace(-3, 3, 13):
        r = euler_to_rotation(EulerAngles(0, 0, psi))
        assert np.allclose(r @ np.array([0, 0, 1.0]), [0, 0, 1.0], atol=1e-15)


def test_rotation_orthonormality_bulk():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        phi, psi = rng.uniform(-math.pi, math.pi, 2)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        r = euler_to_rotation(EulerAngles(phi, theta, psi))
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert abs(np.linalg.det(r) - 1) < 1e-10


def test_euler_round_trip_off_gimbal():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        phi, psi = rng.uniform(-math.pi + 1e-6, math.pi, 2)
        theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        e = EulerAngles(phi, theta, psi)
        back = rotation_to_euler(euler_to_rotation(e))
        assert abs(back.phi - phi) < 1e-9
        assert abs(back.theta - theta) < 1e-9
        assert abs(back.psi - psi) < 1e-9


def test_rotation_to_euler_reports_gimbal_lock():
    r = euler_to_rotation(EulerAngles(0.3, math.pi / 2, 0.0))
    with pytest.raises(GimbalLockError):
        rotation_to_euler(r)


def test_euler_angle_range_validation():
    with pytest.raises(ValueError):
        EulerAngles(4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EulerAngles(0.0, 2.0, 0.0)


# --- quaternions -----------------------------------------------------------------

def test_identity_quaternion():
    assert np.allclose(rotation_to_quaternion(np.eye(3)), [1, 0, 0, 0])


def test_quarter_turn_quaternion():
    r = euler_to_rotation(EulerAngles(0, 0, math.pi / 2))
    expected = [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)]
    assert np.allclose(rotation_to_quaternion(r), expected, atol=1e-12)


def test_quaternion_hemisphere_canonicalization():
    rng = np.random.default_rng(5)
    for _ in range(200):
        e = EulerAngles(
            rng.uniform(-math.pi + 1e-3, math.pi),
            rng.uniform(-math.pi / 2, math.pi / 2),
            rng.uniform(-math.pi + 1e-3, math.pi),
        )
        r = euler_to_rotation(e)
        q = rotation_to_quaternion(r)
        assert q[0] >= 0
        # Rebuilding the rotation from q (or -q) gives the same canonical form.
        assert np.allclose(rotation_to_quaternion(quaternion_to_rotation(-q)), q,
                           atol=1e-9)


def test_quaternion_reproduces_rotation():
    rng = np.random.default_rng(6)
    for _ in range(200):
        e = EulerAngles(
            rng.uniform(-math.pi + 1e-3, math.pi),
            rng.uniform(-math.pi / 2, math.pi / 2),
            rng.uniform(-math.pi + 1e-3, math.pi),
        )
        r = euler_to_rotation(e)
        assert np.abs(quaternion_to_rotation(rotation_to_quaternion(r)) - r).max() < 1e-9


# --- Pose validation ----------------------------------------------------------------

def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))


def test_is_rotation():
    assert is_rotation(np.eye(3))
    assert not is_rotation(-np.eye(3))  # det -1
    assert not is_rotation(np.ones((3, 3)))
