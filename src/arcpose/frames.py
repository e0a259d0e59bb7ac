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
`camera_to_pixel` is the one pinhole map from camera points to pixels.

Rotation convention: the camera pose R maps CCS to WCS, P_w = R @ P_c + t.
Euler angles (phi, theta, psi) rotate about the fixed x, y, z axes in that
order, so R = Rz(psi) @ Ry(theta) @ Rx(phi). With this composition the third
row of R depends only on (phi, theta), which is what lets the solvers recover
tilt from a surface normal before the heading is known.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import GimbalLockError, InvalidConfigError

ROTATION_TOL = 1e-10
_EYE = np.eye(3)
_EYE.flags.writeable = False


def _freeze(obj, **arrays):
    """Attach read-only float ndarrays to a frozen dataclass instance."""
    for name, value in arrays.items():
        arr = np.array(value, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def read_numbers(value, what: str, shape=(), kind=float):
    """The number check of every input path: a finite number or, with a one-
    or two-axis `shape` (None for any length), a list, tuple or ndarray of
    them or of equal-length rows, as `kind`: a Python float or int (which
    takes only integers), or an array of that dtype. A NumPy value counts as
    what its `tolist` gives; a bool is no number. Otherwise raises
    InvalidConfigError naming `what` and the value. A JSON list is checked
    with one pass of `type` over its numbers and one of `len` over its rows,
    and read with one `np.fromiter`."""
    if not shape:  # Python's checks cost a tenth of NumPy's on one number
        if (isinstance(value, bool)
                or not isinstance(value, int if kind is int else (int, float))
                or not abs(value) <= sys.float_info.max):
            # A NumPy scalar counts as its Python value; a longdouble has none.
            if isinstance(value, np.generic) and not isinstance(value.item(), np.generic):
                return read_numbers(value.item(), what, shape, kind)
            noun = "an int" if kind is int else "a finite number"
            raise InvalidConfigError(f"{what} must be {noun}, got {reprlib.repr(value)}")
        return kind(value)
    arr = _json_array(value, shape, kind) if isinstance(value, list) else None
    if arr is None and isinstance(value, (list, tuple, np.ndarray)):
        arr = _json_array(_json_lists(value), shape, kind)
    if arr is not None:
        return arr
    dims = ", ".join("N" if n is None else str(n) for n in shape)
    noun = "ints" if kind is int else "finite numbers"
    raise InvalidConfigError(
        f"{what} must be a ({dims}) array of {noun}, got {reprlib.repr(value)}")


def _json_array(value: list, shape, kind):
    """`read_numbers` of a JSON list, or None where it fails the checks."""
    numbers, size = value, (len(value),)
    try:
        if len(shape) == 2:  # a row that is no list fails `len` or the type check
            size = (len(value), *set(map(len, value)))
            numbers = list(chain.from_iterable(value))
        # `type`, not `isinstance`: a JSON boolean is a Python int.
        if (len(size) == len(shape) and all(n in (None, m) for n, m in zip(shape, size))
                and set(map(type, numbers)) <= ({int} if kind is int else {int, float})):
            arr = np.fromiter(numbers, kind, len(numbers))
            if np.isfinite(arr).all():
                return arr.reshape(size)
    except (TypeError, OverflowError):  # OverflowError: an integer beyond the dtype
        pass
    return None


def _json_lists(value):
    """`value` with each tuple, ndarray and NumPy scalar in it as JSON lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_lists(item) for item in value]
    return value


def read_id(value, what: str) -> str:
    """A luminaire id, a str; raises InvalidConfigError naming `what` if not."""
    if not isinstance(value, str):
        raise InvalidConfigError(f"{what} must be a string, got {reprlib.repr(value)}")
    return str(value)


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
        for name in ("f", "dx", "dy", "u0", "v0", "width", "height"):
            value = read_numbers(getattr(self, name), f"intrinsics {name}",
                                 kind=int if name in ("width", "height") else float)
            object.__setattr__(self, name, value)
        if not (self.f > 0 and self.dx > 0 and self.dy > 0):
            raise InvalidConfigError("intrinsics f, dx and dy must be positive, "
                                     f"got {self.f}, {self.dx}, {self.dy}")
        if not (0 < self.u0 < self.width and 0 < self.v0 < self.height):
            raise InvalidConfigError(f"intrinsics principal point ({self.u0}, {self.v0}) must "
                                     f"lie inside the {self.width}x{self.height} image")


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
        check_rotations(r[None])
        _freeze(self, rotation=r, translation=t)


def are_rotations(r: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (N, 3, 3): orthonormal with determinant +1
    within ROTATION_TOL, and finite."""
    r = np.asarray(r, dtype=float)
    finite = np.isfinite(r).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        return (finite
                & (np.abs(r.swapaxes(1, 2) @ r - _EYE).max(axis=(1, 2)) <= ROTATION_TOL)
                & (np.abs(np.linalg.det(r) - 1.0) <= ROTATION_TOL))


def check_rotations(r: np.ndarray) -> None:
    """The rotation guard of `Pose`, for a stack (N, 3, 3) at once: raises
    ValueError unless every matrix passes `are_rotations`."""
    if not are_rotations(r).all():
        raise ValueError("rotation matrix is not orthonormal with det +1")


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.remainder(a, 2 * math.pi)
    return math.pi if a <= -math.pi else a


# --- PCS <-> ICS, CCS -> PCS ----------------------------------------------------

def pixel_to_image(p, k: CameraIntrinsics) -> np.ndarray:
    """Pixel (u, v) to image-plane (x, y) in cm: x = dx*(u-u0), y = dy*(v-v0).

    Accepts a single point or an (..., 2) array. A result out of range is
    inf, for the fit or the pair kernel to reject by name. Per axis, it runs
    five times faster than a pair broadcast over the last axis.
    """
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape)
    with np.errstate(over="ignore"):
        for i, (origin, size) in enumerate(((k.u0, k.dx), (k.v0, k.dy))):
            np.subtract(p[..., i], origin, out=out[..., i])
            out[..., i] *= size
    return out


def camera_to_pixel(cam, z, k: CameraIntrinsics):
    """Pixel coordinates u, v (...) of camera points cam (..., 3) at depths z
    (...): u = (f x / z) / dx + u0 and v = (f y / z) / dy + v0, the inverse
    of `pixel_to_image` on the image plane z = f."""
    return (k.f * cam[..., 0] / z) / k.dx + k.u0, (k.f * cam[..., 1] / z) / k.dy + k.v0


# --- Euler angles / quaternions -------------------------------------------------

def rotations_from_angles(phi, theta, psi) -> np.ndarray:
    """Rz(psi) @ Ry(theta) @ Rx(phi) (N, 3, 3) for N angles in radians,
    unvalidated.

    The one builder of this composition. Each matrix is built with libm's
    cos and sin and the same two 3x3 products as on its own, so it does not
    depend on the angles beside it.
    """
    phi, theta, psi = (np.asarray(a, dtype=float).tolist() for a in (phi, theta, psi))
    n = len(phi)
    rx, ry, rz = np.zeros((3, n, 3, 3))
    rx[:, 0, 0] = ry[:, 1, 1] = rz[:, 2, 2] = 1.0
    for m, (i, j), angles in ((rx, (1, 2), phi), (ry, (2, 0), theta), (rz, (0, 1), psi)):
        sin = np.array([math.sin(a) for a in angles])
        m[:, i, i] = m[:, j, j] = [math.cos(a) for a in angles]
        m[:, j, i], m[:, i, j] = sin, -sin
    return rz @ ry @ rx


def angles_from_rotation(r) -> tuple[float, float, float]:
    """(phi, theta, psi) of Rz(psi) @ Ry(theta) @ Rx(phi) with no gimbal-lock
    guard and no wrap: theta by principal asin, phi and psi by atan2, all by
    libm. `r` is a 3x3 array or its `.tolist()`, which reads faster."""
    sin_theta = min(max(-r[2][0], -1.0), 1.0)
    return math.atan2(r[2][1], r[2][2]), math.asin(sin_theta), math.atan2(r[1][0], r[0][0])


def euler_angles(r) -> tuple[float, float, float] | None:
    """The angles `rotation_to_euler` returns, from a 3x3 array or its
    `.tolist()`, or None at gimbal lock (|cos(theta)| < 1e-8)."""
    if math.sqrt(max(0.0, 1.0 - r[2][0] * r[2][0])) < 1e-8:
        return None
    phi, theta, psi = angles_from_rotation(r)
    return _wrap_angle(phi), theta, _wrap_angle(psi)


def rotation_to_euler(r: np.ndarray) -> EulerAngles:
    """Invert `rotations_from_angles` on the non-degenerate domain.

    Picks theta in [-pi/2, pi/2] (principal asin branch). Raises
    GimbalLockError when |cos(theta)| < 1e-8 and phi/psi are not separable.
    """
    angles = euler_angles(np.asarray(r, dtype=float).tolist())
    if angles is None:
        raise GimbalLockError("cos(theta) ~ 0: phi and psi are coupled")
    return EulerAngles(*angles)


def rotations_to_quaternions(r: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) (N, 4) of N rotations (N, 3, 3),
    canonicalized to w >= 0.

    When w is (numerically) zero the first non-negligible component among
    (x, y, z) is made positive, so q and -q always map to the same result.
    Each row takes the arithmetic it would take alone.
    """
    r = np.asarray(r, dtype=float)
    q = np.empty((len(r), 4))
    t = np.trace(r, axis1=1, axis2=2)
    # trace > 0: from w.
    pos = t > 0
    a = r[pos]
    s = np.sqrt(t[pos] + 1.0) * 2
    q[pos] = np.stack([0.25 * s, (a[:, 2, 1] - a[:, 1, 2]) / s,
                       (a[:, 0, 2] - a[:, 2, 0]) / s, (a[:, 1, 0] - a[:, 0, 1]) / s], axis=1)
    # Otherwise from the component of the largest diagonal entry i.
    rows = np.flatnonzero(~pos)
    i = np.argmax(r[rows].diagonal(axis1=1, axis2=2), axis=1)
    j, l = (i + 1) % 3, (i + 2) % 3
    d = 1.0 + r[rows, i, i] - r[rows, j, j] - r[rows, l, l]
    s = np.sqrt(np.where(d > 0.0, d, 0.0)) * 2
    q[rows, 0] = (r[rows, l, j] - r[rows, j, l]) / s
    q[rows, 1 + i] = 0.25 * s
    q[rows, 1 + j] = (r[rows, j, i] + r[rows, i, j]) / s
    q[rows, 1 + l] = (r[rows, l, i] + r[rows, i, l]) / s
    # The stacked 1x4 @ 4x1 products sum as np.linalg.norm of each row does.
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    big = np.abs(q) > 1e-9
    first = q[np.arange(len(q)), big.argmax(axis=1)]
    return np.where((big.any(axis=1) & (first < 0))[:, None], -q, q)
