"""Coordinate systems, camera and pose types, and rotation parameterizations.

Four frames are used throughout:

    PCS  pixel coordinates (u, v) on the sensor, in pixels,
    ICS  image-plane coordinates (x, y), in cm, origin at the principal point,
    CCS  camera coordinates, right-handed, z along the optical axis into the
         scene (a ceiling-facing camera has z pointing up),
    WCS  world coordinates, z up, luminaires on the ceiling.

Unit convention: world and camera points are in meters; intrinsics (focal
length, pixel pitch) and image-plane coordinates are in cm, matching typical
sensor data sheets. The two never need an explicit conversion factor because
projection only uses the dimensionless ratio x/z:  x_img[cm] = f[cm] * x/z.
The projection itself runs batched in `sim._project`.

Rotation convention: the camera pose R maps CCS to WCS, P_w = R @ P_c + t.
Euler angles (phi, theta, psi) rotate about the fixed x, y, z axes in that
order, so R = Rz(psi) @ Ry(theta) @ Rx(phi). With this composition the third
row of R depends only on (phi, theta), which is what lets the solvers recover
tilt from a surface normal before the heading is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GimbalLockError

ROTATION_TOL = 1e-10


def _freeze(obj, **arrays):
    """Attach read-only float ndarrays to a frozen dataclass instance."""
    for name, value in arrays.items():
        arr = np.array(value, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: f, dx, dy in cm; principal point and size in pixels."""

    f: float
    dx: float
    dy: float
    u0: float
    v0: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.f > 0 and self.dx > 0 and self.dy > 0):
            raise ValueError("focal length and pixel pitch must be positive")
        if not (0 < self.u0 < self.width and 0 < self.v0 < self.height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True)
class EulerAngles:
    """Rotation angles about the fixed x, y, z axes, in radians.

    phi and psi are kept in (-pi, pi], theta in [-pi/2, pi/2].
    """

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        for name in ("phi", "psi"):
            v = getattr(self, name)
            if not -math.pi < v <= math.pi:
                raise ValueError(f"{name} must lie in (-pi, pi], got {v}")
        if not -math.pi / 2 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [-pi/2, pi/2], got {self.theta}")


@dataclass(frozen=True)
class Pose:
    """Camera pose in the world: P_w = rotation @ P_c + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if not is_rotation(r):
            raise ValueError("rotation matrix is not orthonormal with det +1")
        _freeze(self, rotation=r, translation=t)

    @classmethod
    def unchecked(cls, rotation, translation) -> "Pose":
        """A pose built from a rotation that is one by construction."""
        pose = object.__new__(cls)
        _freeze(pose, rotation=rotation, translation=translation)
        return pose


def is_rotation(r: np.ndarray) -> bool:
    """True when r is orthonormal with determinant +1 within ROTATION_TOL."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    return (
        np.abs(r.T @ r - np.eye(3)).max() <= ROTATION_TOL
        and abs(np.linalg.det(r) - 1.0) <= ROTATION_TOL
    )


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.remainder(a, 2 * math.pi)
    return math.pi if a <= -math.pi else a


# --- PCS -> ICS ----------------------------------------------------------------

def pixel_to_image(p, k: CameraIntrinsics) -> np.ndarray:
    """Pixel (u, v) to image-plane (x, y) in cm: x = dx*(u-u0), y = dy*(v-v0).

    Accepts a single point or an (..., 2) array.
    """
    p = np.asarray(p, dtype=float)
    return np.stack(
        [k.dx * (p[..., 0] - k.u0), k.dy * (p[..., 1] - k.v0)], axis=-1
    )


# --- Euler angles / quaternions -------------------------------------------------

def rot_x(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(psi: float) -> np.ndarray:
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_from_angles(phi: float, theta: float, psi: float) -> np.ndarray:
    """Rz(psi) @ Ry(theta) @ Rx(phi) for angles in radians, unvalidated.

    The one scalar builder of this composition: `euler_to_rotation` and the
    pose sampler both call it, so their rotations agree to the last bit.
    """
    return rot_z(psi) @ rot_y(theta) @ rot_x(phi)


def euler_to_rotation(e: EulerAngles) -> np.ndarray:
    """Rotation for angles applied about the fixed x, y, z axes in that order.

    Composes to Rz(psi) @ Ry(theta) @ Rx(phi); see the module docstring for why
    this is the composition the normal-vector equations require.
    """
    return rotation_from_angles(e.phi, e.theta, e.psi)


def angles_from_rotation(r: np.ndarray) -> tuple[float, float, float]:
    """(phi, theta, psi) of Rz(psi) @ Ry(theta) @ Rx(phi) with no gimbal-lock
    guard and no wrap: theta by principal asin, phi and psi by atan2."""
    theta = math.asin(float(np.clip(-r[2, 0], -1.0, 1.0)))
    return math.atan2(r[2, 1], r[2, 2]), theta, math.atan2(r[1, 0], r[0, 0])


def rotation_to_euler(r: np.ndarray) -> EulerAngles:
    """Invert euler_to_rotation on the non-degenerate domain.

    Picks theta in [-pi/2, pi/2] (principal asin branch). Raises
    GimbalLockError when |cos(theta)| < 1e-8 and phi/psi are not separable.
    """
    r = np.asarray(r, dtype=float)
    sin_theta = float(np.clip(-r[2, 0], -1.0, 1.0))
    if math.sqrt(max(0.0, 1.0 - sin_theta * sin_theta)) < 1e-8:
        raise GimbalLockError("cos(theta) ~ 0: phi and psi are coupled")
    phi, theta, psi = angles_from_rotation(r)
    return EulerAngles(_wrap_angle(phi), theta, _wrap_angle(psi))


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation, canonicalized to w >= 0.

    When w is (numerically) zero the first non-negligible component among
    (x, y, z) is made positive, so q and -q always map to the same result.
    """
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
             (r[1, 0] - r[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(r)))
        j, l = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(0.0, 1.0 + r[i, i] - r[j, j] - r[l, l])) * 2
        q = np.empty(4)
        q[0] = (r[l, j] - r[j, l]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + l] = (r[l, i] + r[i, l]) / s
    q /= np.linalg.norm(q)
    for c in q:
        if abs(c) > 1e-9:
            if c < 0:
                q = -q
            break
    return q
