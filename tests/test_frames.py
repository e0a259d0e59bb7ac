"""Coordinate transforms, projection, and rotation conversions."""

import math
import warnings

import numpy as np
import pytest

from arcpose.errors import GimbalLockError
from arcpose.frames import (
    CameraIntrinsics,
    EulerAngles,
    Pose,
    are_rotations,
    pixel_to_image,
    rotation_to_euler,
    rotations_from_angles,
    rotations_to_quaternions,
)

from conftest import BRANCH_ROTATIONS, branch_and_random_rotations, make_pose
from oracles import (
    backproject_with_depth,
    camera_to_world,
    embed_on_image_plane,
    image_to_pixel,
    project_to_image,
    quaternion_scalar,
    quaternion_to_rotation,
    rotation_scalar,
    world_to_camera,
)


# --- PCS <-> ICS ----------------------------------------------------------------

def test_principal_point_maps_to_ics_origin(intrinsics):
    assert np.allclose(pixel_to_image([320.0, 240.0], intrinsics), [0.0, 0.0])


def test_pixel_to_image_hand_value(intrinsics):
    # dx*(720-320) = 1.25e-3 * 400 = 0.5 cm
    assert np.allclose(pixel_to_image([720.0, 240.0], intrinsics), [0.5, 0.0])


@pytest.mark.parametrize("shape", ["tuple", "list", "points", "blocks", "ints", "float32"])
def test_pixel_to_image_matches_pair_broadcast(intrinsics, shape):
    # Per axis, bit for bit as the pair broadcast over the last axis, NaN, inf
    # and signed zeros included.
    k = intrinsics
    rng = np.random.default_rng(5)
    p = rng.uniform(-100, 740, size=(3, 50, 2))
    p[0, :4] = [[np.nan, 1.0], [np.inf, -np.inf], [k.u0, k.v0], [-0.0, 0.0]]
    p = {"tuple": (p[1, 0, 0], p[1, 0, 1]), "list": p[1].tolist(), "points": p[0],
         "blocks": p, "ints": [[720, 240], [0, 480]], "float32": p.astype(np.float32)}[shape]
    got = pixel_to_image(p, k)
    expected = np.multiply(np.subtract(p, (k.u0, k.v0), dtype=float), (k.dx, k.dy))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_pixel_to_image_overflow_is_inf_without_warning():
    k = CameraIntrinsics(f=0.4, dx=4.0, dy=4.0, u0=320.0, v0=240.0, width=640, height=480)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pixel_to_image([[1e308, -1e308], [320.0, 1e308]], k)
    assert got.tolist() == [[math.inf, -math.inf], [0.0, math.inf]]


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
    assert np.allclose(rotations_from_angles([0.0], [0.0], [0.0])[0], np.eye(3))


def test_pure_heading_rotation_maps_x_to_y():
    r = rotations_from_angles([0.0], [0.0], [math.pi / 2])[0]
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_heading_rotation_fixes_world_z():
    zero = np.zeros(13)
    r = rotations_from_angles(zero, zero, np.linspace(-3, 3, 13))
    assert np.allclose(r @ np.array([0, 0, 1.0]), [0, 0, 1.0], atol=1e-15)


def test_rotation_orthonormality_bulk():
    rng = np.random.default_rng(3)
    phi, psi = rng.uniform(-math.pi, math.pi, (2, 10_000))
    theta = rng.uniform(-math.pi / 2, math.pi / 2, 10_000)
    r = rotations_from_angles(phi, theta, psi)
    assert np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max() < 1e-10
    assert np.abs(np.linalg.det(r) - 1).max() < 1e-10


def test_euler_round_trip_off_gimbal():
    rng = np.random.default_rng(4)
    phi, psi = rng.uniform(-math.pi + 1e-6, math.pi, (2, 1000))
    theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 1000)
    for angles, r in zip(zip(phi, theta, psi), rotations_from_angles(phi, theta, psi)):
        back = rotation_to_euler(r)
        assert np.abs(np.array([back.phi, back.theta, back.psi]) - angles).max() < 1e-9


def test_rotation_to_euler_reports_gimbal_lock():
    r = rotations_from_angles([0.3], [math.pi / 2], [0.0])[0]
    with pytest.raises(GimbalLockError):
        rotation_to_euler(r)


def test_euler_angle_range_validation():
    with pytest.raises(ValueError):
        EulerAngles(4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EulerAngles(0.0, 2.0, 0.0)


def test_rotations_do_not_depend_on_their_batch():
    # The pose sampler builds a round's candidates in one call: each matrix
    # must be the bits of the scalar composition, whatever shares its batch.
    rng = np.random.default_rng(8)
    angles = rng.uniform([-1.5, -1.5, -math.pi], [1.5, 1.5, math.pi], size=(300, 3))
    whole = rotations_from_angles(*angles.T)
    for a, r in zip(angles, whole):
        assert np.array_equal(r, rotation_scalar(*a))
    for size in (1, 2, 77):
        rows = rng.permutation(len(angles))[:size]
        assert np.array_equal(rotations_from_angles(*angles[rows].T), whole[rows])


# --- quaternions -----------------------------------------------------------------

def random_rotations(seed, n=200):
    rng = np.random.default_rng(seed)
    angles = rng.uniform([-math.pi + 1e-3, -math.pi / 2, -math.pi + 1e-3],
                         [math.pi, math.pi / 2, math.pi], size=(n, 3))
    return rotations_from_angles(*angles.T)


def test_identity_quaternion():
    assert np.allclose(rotations_to_quaternions(np.eye(3)[None]), [1, 0, 0, 0])


def test_quarter_turn_quaternion():
    r = rotations_from_angles([0.0], [0.0], [math.pi / 2])
    expected = [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)]
    assert np.allclose(rotations_to_quaternions(r)[0], expected, atol=1e-12)


def test_quaternion_hemisphere_canonicalization():
    q = rotations_to_quaternions(random_rotations(5))
    assert (q[:, 0] >= 0).all()
    # Rebuilding the rotation from q (or -q) gives the same canonical form.
    rebuilt = np.array([quaternion_to_rotation(-row) for row in q])
    assert np.allclose(rotations_to_quaternions(rebuilt), q, atol=1e-9)


def test_quaternion_reproduces_rotation():
    r = random_rotations(6)
    rebuilt = np.array([quaternion_to_rotation(q) for q in rotations_to_quaternions(r)])
    assert np.abs(rebuilt - r).max() < 1e-9


def test_batched_quaternions_match_scalar_definition():
    r = branch_and_random_rotations()
    t = np.trace(r, axis1=1, axis2=2)
    argmax = np.argmax(r.diagonal(axis1=1, axis2=2), axis=1)
    assert (t > 0).any() and all((argmax[t <= 0] == i).any() for i in range(3))
    reference = np.array([quaternion_scalar(m) for m in r])
    batched = rotations_to_quaternions(r)
    # 2 ulp: the norms may sum in another order under another BLAS.
    np.testing.assert_array_max_ulp(batched, reference, maxulp=2)
    # A row takes the arithmetic it takes alone.
    assert np.array_equal(np.array([rotations_to_quaternions(m[None])[0] for m in r]), batched)
    half = np.array([BRANCH_ROTATIONS[name] for name in ("half_turn_w0_sign",
                                                         "half_turn_w0_first")])
    q = rotations_to_quaternions(half)
    assert (np.abs(q[:, 0]) < 1e-9).all()
    # The first non-negligible component is made positive.
    assert q[0, 2] > 0 > q[0, 3] and q[1, 1] > 0 > q[1, 2]


# --- Pose validation ----------------------------------------------------------------

def test_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        Pose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))


def test_are_rotations():
    # det -1, not orthonormal, not finite.
    stack = [np.eye(3), -np.eye(3), np.ones((3, 3)), np.full((3, 3), np.nan)]
    assert are_rotations(np.array(stack)).tolist() == [True, False, False, False]
