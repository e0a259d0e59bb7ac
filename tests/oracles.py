"""Reference pinhole and frame maps, kept apart from the package.

The package projects through `sim._project` and the batched `conic` steps;
these scalar maps restate the same conventions one step at a time (see the
`arcpose.frames` docstring for the frames and units), so tests can check
the package against a forward model it does not share code with.
"""

import numpy as np

from arcpose.frames import CameraIntrinsics, Pose


# --- ICS <-> PCS, CCS -> ICS ---------------------------------------------------

def image_to_pixel(q, k: CameraIntrinsics) -> np.ndarray:
    """Exact inverse of `frames.pixel_to_image`."""
    q = np.asarray(q, dtype=float)
    return np.stack(
        [q[..., 0] / k.dx + k.u0, q[..., 1] / k.dy + k.v0], axis=-1
    )


def project_to_image(p, k: CameraIntrinsics) -> np.ndarray:
    """Project camera points (m) onto the image plane (cm): (f*x/z, f*y/z).

    Raises ValueError if any point has z <= 0.
    """
    p = np.asarray(p, dtype=float)
    z = p[..., 2]
    if np.any(z <= 0):
        raise ValueError("point has z <= 0 in the camera frame")
    return np.stack([k.f * p[..., 0] / z, k.f * p[..., 1] / z], axis=-1)


def backproject_with_depth(q, z: float, k: CameraIntrinsics) -> np.ndarray:
    """Camera point (m) on the viewing ray of image point q (cm) at depth z (m).

    Raises ValueError unless z > 0.
    """
    if not z > 0:
        raise ValueError(f"depth must be positive, got {z}")
    q = np.asarray(q, dtype=float)
    return np.stack(
        [z * q[..., 0] / k.f, z * q[..., 1] / k.f, np.broadcast_to(z, q[..., 0].shape)],
        axis=-1,
    )


def embed_on_image_plane(q, k: CameraIntrinsics) -> np.ndarray:
    """Camera coordinates (cm) of an image point itself: (x, y, f).

    Only the direction of this vector is meaningful to 3D constructions; the
    image plane sits at z = f in the camera frame.
    """
    q = np.asarray(q, dtype=float)
    return np.stack(
        [q[..., 0], q[..., 1], np.broadcast_to(k.f, q[..., 0].shape)], axis=-1
    )


# --- CCS <-> WCS ---------------------------------------------------------------

def camera_to_world(p, pose: Pose) -> np.ndarray:
    """P_w = R @ P_c + t, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    return p @ pose.rotation.T + pose.translation


def world_to_camera(p, pose: Pose) -> np.ndarray:
    """Exact inverse of camera_to_world."""
    p = np.asarray(p, dtype=float)
    return (p - pose.translation) @ pose.rotation


# --- quaternions ---------------------------------------------------------------

def quaternion_to_rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
