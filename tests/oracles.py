"""Reference pinhole and frame maps and a reference ellipse fit, kept apart
from the package.

The package projects through `sim._project` and the batched `conic` steps;
these scalar maps restate the same conventions one step at a time (see the
`arcpose.frames` docstring for the frames and units), so tests can check
the package against a forward model it does not share code with. The
scalar `lstsq` fit is the one `conic.fit_ellipses` replaced, and the
capture below takes a sample's two luminaires one at a time, as the harness
did before it captured whole blocks.
"""

import math

import numpy as np

from arcpose.conic import EllipseCoeffs
from arcpose.errors import (
    ArcTooShortError,
    DegenerateConicError,
    NotVisibleError,
    TooFewPointsError,
)
from arcpose.frames import CameraIntrinsics, Pose, pixel_to_image
from arcpose.sim import _in_bounds, contour_angles
from arcpose.solver import Observation


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


# --- the scalar ellipse fit -------------------------------------------------------

def fit_ellipse_lstsq(points) -> EllipseCoeffs:
    """Least-squares conic through image-plane points, constant term = 1, by
    one `np.linalg.lstsq` on the centered and scaled design; the errors it
    raises are those `conic.FIT_CHECKS` lists."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 5:
        raise TooFewPointsError(f"need at least 5 points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DegenerateConicError("non-finite contour points")

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            mean = pts.mean(axis=0)
            centered = pts - mean
            scale = np.sqrt((centered ** 2).sum(axis=1).mean())
            if scale <= 0:
                raise DegenerateConicError("all points coincide")
            xs, ys = centered[:, 0] / scale, centered[:, 1] / scale

            design = np.column_stack([xs * xs, xs * ys, ys * ys, xs, ys])
            rhs = -np.ones(pts.shape[0])
            sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
            if rank < 5:
                raise DegenerateConicError("contour points do not determine a conic")
            ap, bp, cp, dp, ep = sol

            # Undo x' = (x - mx)/s, y' = (y - my)/s and re-normalize the constant to 1.
            mx, my = mean
            s2 = scale * scale
            a, b, c = ap / s2, bp / s2, cp / s2
            d = -(2 * ap * mx + bp * my) / s2 + dp / scale
            e = -(bp * mx + 2 * cp * my) / s2 + ep / scale
            const = (
                (ap * mx * mx + bp * mx * my + cp * my * my) / s2
                - (dp * mx + ep * my) / scale + 1.0
            )
            if abs(const) < 1e-12 * max(abs(a), abs(c), 1.0):
                raise DegenerateConicError("conic passes through the ICS origin")
            return EllipseCoeffs(a / const, b / const, c / const, d / const, e / const)
    except FloatingPointError as exc:
        raise DegenerateConicError(f"contour points out of floating-point range: {exc}") from exc


# --- one sample, one luminaire at a time ---------------------------------------------

def contour_px(pixels) -> float:
    """Point count times the median spacing of consecutive points."""
    step = np.diff(np.asarray(pixels, dtype=float), axis=0)
    return float(len(pixels) * np.median(np.sqrt((step * step).sum(axis=1))))


def rank_pair(lengths, ids, complete, prefer_complete):
    """The dispatcher's pair: rank by length (ties by id); the first is the
    best complete item (with `prefer_complete`), else the best one; the
    second is the best other one."""
    order = sorted(range(len(ids)), key=lambda i: (-lengths[i], ids[i]))
    first = next((i for i in order if prefer_complete and complete[i]), order[0])
    return first, next(i for i in order if i != first)


def capture_observation_scalar(vis, mode, noise_px, k, rng, arc_fraction=0.6) -> Observation:
    """One luminaire's observation from its clean projection `vis`: the
    start index of a cut arc, then one standard normal pair per contour
    point, the cut, and the `fit_ellipse_lstsq` fit."""
    if vis.fraction == 0.0:
        raise NotVisibleError(
            f"luminaire {vis.luminaire_id!r} does not project into the image"
        )
    clean = vis.pixels
    n = len(clean)
    if mode in ("semicircle", "superior_arc"):
        start = int(rng.integers(n))
        span = n // 2 if mode == "semicircle" else int(round(n * arc_fraction))
        keep = np.arange(start, start + span) % n
    elif mode == "image_bounds":
        keep = np.flatnonzero(_in_bounds(clean, k))
    else:
        keep = np.arange(n)
    if len(keep) < 5:
        raise ArcTooShortError(f"only {len(keep)} contour points survive truncation")

    pixels = clean[keep] + rng.standard_normal(clean.shape)[keep] * noise_px
    complete = mode == "complete"
    return Observation(
        luminaire_id=vis.luminaire_id,
        ellipse=fit_ellipse_lstsq(pixel_to_image(pixels, k)),
        complete=complete,
        center_proj=vis.center if complete else None,
        mark_proj=vis.mark if complete else None,
        contour_pixels=pixels,
        contour_angles=contour_angles(n)[keep],
    )


def capture_sample(cfg, drawn, rng) -> tuple[list[Observation], tuple[int, int]]:
    """The two observations of a sampled pose `drawn` (its `pair`, cut per
    `cfg.scenario`, noise sigma / sqrt(images)), captured one after the
    other from the sample's generator, and the pair the dispatcher solves
    among them. Raises the first failure."""
    mixed = cfg.scenario == "mixed"
    chosen = [drawn.visibility[i] for i in drawn.pair]
    modes = (["complete" if v.complete else "image_bounds" for v in chosen] if mixed
             else list(cfg.scenario))
    noise_px = cfg.sigma / math.sqrt(cfg.images_per_location)
    obs = [capture_observation_scalar(vis, mode, noise_px, cfg.intrinsics, rng,
                                      cfg.arc_fraction)
           for vis, mode in zip(chosen, modes)]
    pair = rank_pair([contour_px(o.contour_pixels) for o in obs],
                     [o.luminaire_id for o in obs], [o.complete for o in obs], True)
    return obs, pair
