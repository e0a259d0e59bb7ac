"""Synthetic scenes and captures for the positioning simulation study.

A scene is a rectangular room with circular luminaires on (or hanging below)
the ceiling. A sample draws a random camera pose, projects each luminaire's
margin circle through the pinhole model, perturbs the pixels with Gaussian
noise, optionally truncates the contour to a partial arc (occlusion), and
averages a burst of images into one observation per luminaire. A burst is one
(images, contour points, 2) array, so every step works on whole arrays.

Determinism: every function that draws randomness takes a numpy Generator.
Noise is always drawn as standard normals and scaled by sigma afterwards, so
experiments that differ only in noise level consume identical random streams
and stay pairwise comparable. Visibility is always classified on the clean
(noise-free) projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import fit_ellipse
from .errors import (
    ArcTooShortError,
    InvalidConfigError,
    NotVisibleError,
    SamplingExhaustedError,
)
from .frames import (
    CameraIntrinsics,
    EulerAngles,
    Pose,
    _wrap_angle,
    euler_to_rotation,
    pixel_to_image,
)
from .solver import LuminaireInfo, Observation

SCENE_SCHEMA_VERSION = 1

ARC_MODES = ("complete", "semicircle", "superior_arc", "image_bounds")


@dataclass(frozen=True)
class Scene:
    """Room dimensions (m) and the luminaires mounted in it."""

    room: tuple[float, float, float]
    luminaires: tuple[LuminaireInfo, ...]

    def __post_init__(self):
        length, width, height = self.room
        if not (length > 0 and width > 0 and height > 0):
            raise ValueError(f"room dimensions must be positive, got {self.room}")
        object.__setattr__(self, "luminaires", tuple(self.luminaires))
        for lum in self.luminaires:
            x, y, z = lum.center_w
            if not (0 <= x <= length and 0 <= y <= width and 0 < z <= height):
                raise ValueError(f"luminaire {lum.id!r} lies outside the room")

    def luminaire_map(self) -> dict[str, LuminaireInfo]:
        return {lum.id: lum for lum in self.luminaires}


@dataclass(frozen=True)
class NoiseModel:
    """Pixel noise: i.i.d. zero-mean Gaussian with std sigma on u and v."""

    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class VisibilityConstraint:
    """Acceptance rule for rejection-sampled poses.

    A luminaire counts as visible when at least `min_fraction` of its contour
    samples project in front of the camera and inside the image; it counts as
    complete when the whole contour plus the center and mark projections do.
    """

    intrinsics: CameraIntrinsics
    min_visible: int = 2
    min_fraction: float = 0.5
    require_complete: int = 0
    height_range: tuple[float, float] = (0.5, 2.0)
    max_tilt: float = math.radians(45.0)
    contour_samples: int = 360
    max_attempts: int = 100_000


@dataclass(frozen=True)
class Capture:
    """A burst of images of one luminaire: noisy pixels plus their clean
    reference.

    `pixels` has shape (images, points, 2); `clean_pixels` and `angles` hold
    one row per contour point, so the circle parameter of every sample (and
    its world position) stays identifiable after truncation. `center` and
    `mark` are the clean center and mark projections, None once truncated.
    Arrays are read-only views; the clean ones are shared with the
    `Visibility` they came from.
    """

    luminaire_id: str
    angles: np.ndarray
    pixels: np.ndarray
    clean_pixels: np.ndarray
    center: np.ndarray | None = None
    mark: np.ndarray | None = None
    mode: str = "complete"

    def __post_init__(self):
        for value in (self.angles, self.pixels, self.clean_pixels,
                      self.center, self.mark):
            if value is not None:
                value.flags.writeable = False


def default_intrinsics() -> CameraIntrinsics:
    """The simulated camera: 640x480, 1.25e-3 cm pixels, f = 0.4 cm.

    The pixel pitch is read as cm/pixel; with this focal length the horizontal
    field of view is ~90 degrees, wide enough to see two luminaires from most
    of the room.
    """
    return CameraIntrinsics(
        f=0.4, dx=1.25e-3, dy=1.25e-3, u0=320.0, v0=240.0, width=640, height=480
    )


def default_scene(radius: float = 0.15) -> Scene:
    """The 8 x 6 x 3 m room with four ceiling luminaires."""
    centers = [(2.0, 2.0, 3.0), (6.0, 2.0, 3.0), (2.0, 4.0, 3.0), (6.0, 4.0, 3.0)]
    lums = tuple(
        LuminaireInfo(id=f"L{i + 1}", center_w=np.array(c), radius=radius)
        for i, c in enumerate(centers)
    )
    return Scene(room=(8.0, 6.0, 3.0), luminaires=lums)


def contour_angles(n: int) -> np.ndarray:
    """Evenly spaced circle parameters; the mark point sits at pi/2."""
    return 2.0 * math.pi * np.arange(n) / n


def _project_points_pixel(points_w, pose: Pose, k: CameraIntrinsics) -> np.ndarray:
    """World points -> pixel coordinates; NaN where the point is not in front."""
    cam = (np.asarray(points_w, dtype=float) - pose.translation) @ pose.rotation
    z = cam[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(z > 0, (k.f * cam[..., 0] / z) / k.dx + k.u0, np.nan)
        v = np.where(z > 0, (k.f * cam[..., 1] / z) / k.dy + k.v0, np.nan)
    return np.stack([u, v], axis=-1)


def _in_bounds(pixels: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    u, v = pixels[..., 0], pixels[..., 1]
    with np.errstate(invalid="ignore"):
        return (u >= 0) & (u <= k.width) & (v >= 0) & (v <= k.height)


@dataclass(frozen=True)
class Visibility:
    """How much of a luminaire the camera sees, on the clean projection.

    Also carries that projection: `pixels` (one row per contour sample, NaN
    behind the camera) and the `center` and `mark` pixels, all read-only.
    """

    luminaire_id: str
    fraction: float     # share of contour samples inside the image
    complete: bool      # full contour plus center and mark readable
    contour_px: float   # pixel length of the visible part of the contour
    pixels: np.ndarray
    center: np.ndarray
    mark: np.ndarray


def luminaire_points(luminaires, contour_samples: int):
    """World contour rings (L, n, 3) and center/mark pairs (L, 2, 3); they
    depend only on the scene and the point count, so a run builds them once
    for `sample_pose` and `luminaire_visibility`."""
    angles = contour_angles(contour_samples)
    rings = np.stack([lum.circle_points(angles) for lum in luminaires])
    marks = np.stack([np.stack([lum.center_w, lum.mark_w]) for lum in luminaires])
    return rings, marks


def luminaire_visibility(
    luminaires: tuple[LuminaireInfo, ...],
    pose: Pose,
    k: CameraIntrinsics,
    contour_samples: int = 360,
    points=None,
) -> tuple[Visibility, ...]:
    """Classify each luminaire's visibility and measure its extractable
    contour length, from one projection of all contours at once: of `points`,
    the luminaires' `luminaire_points`, built here when not given."""
    rings, marks = points or luminaire_points(luminaires, contour_samples)
    pixels = _project_points_pixel(rings, pose, k)
    gm = _project_points_pixel(marks, pose, k)
    pixels.flags.writeable = False
    gm.flags.writeable = False
    inside = _in_bounds(pixels, k)
    fractions = inside.mean(axis=1)
    gm_inside = _in_bounds(gm, k).all(axis=1)
    seg = np.linalg.norm(np.diff(pixels, axis=1, append=pixels[:, :1]), axis=-1)
    both = inside & np.roll(inside, -1, axis=1)
    return tuple(
        Visibility(
            luminaire_id=lum.id,
            fraction=float(fractions[i]),
            complete=bool(fractions[i] == 1.0 and gm_inside[i]),
            contour_px=float(seg[i][both[i]].sum()),
            pixels=pixels[i],
            center=gm[i, 0],
            mark=gm[i, 1],
        )
        for i, lum in enumerate(luminaires)
    )


def sample_pose(
    scene: Scene, rng: np.random.Generator, constraint: VisibilityConstraint,
    points=None,
) -> Pose:
    """Rejection-sample a camera pose satisfying the visibility constraint.

    Position is uniform over the room footprint with height in
    `height_range`; roll and pitch are uniform within +-max_tilt and the
    heading is uniform. `points` are the scene's `luminaire_points` at the
    constraint's point count, built here when not given. Raises
    SamplingExhaustedError after max_attempts.
    """
    k = constraint.intrinsics
    length, width, _ = scene.room
    if len(scene.luminaires) < max(constraint.min_visible, 1):
        raise SamplingExhaustedError(
            f"scene has {len(scene.luminaires)} luminaires, "
            f"constraint needs {constraint.min_visible}"
        )

    rings, marks = points or luminaire_points(scene.luminaires,
                                              constraint.contour_samples)

    for _ in range(constraint.max_attempts):
        draw = rng.uniform(size=6)
        position = np.array(
            [
                draw[0] * length,
                draw[1] * width,
                constraint.height_range[0]
                + draw[2] * (constraint.height_range[1] - constraint.height_range[0]),
            ]
        )
        e = EulerAngles(
            phi=(2 * draw[3] - 1) * constraint.max_tilt,
            theta=(2 * draw[4] - 1) * constraint.max_tilt,
            psi=_wrap_angle((2 * draw[5] - 1) * math.pi),
        )
        pose = Pose(rotation=euler_to_rotation(e), translation=position)

        in_img = _in_bounds(_project_points_pixel(rings, pose, k), k)
        fractions = in_img.mean(axis=1)
        n_visible = int((fractions >= constraint.min_fraction).sum())
        if n_visible < constraint.min_visible:
            continue
        if constraint.require_complete > 0:
            gm_ok = _in_bounds(_project_points_pixel(marks, pose, k), k).all(axis=1)
            n_complete = int(((fractions == 1.0) & gm_ok).sum())
            if n_complete < constraint.require_complete:
                continue
        return pose
    raise SamplingExhaustedError(
        f"no pose satisfied the constraint in {constraint.max_attempts} attempts"
    )


def project_luminaire_burst(
    vis: Visibility,
    noise: NoiseModel,
    images_per_location: int,
    rng: np.random.Generator,
) -> Capture:
    """Project one luminaire into a burst of `images_per_location` noisy
    images, as one (images, points, 2) pixel array.

    The clean projection comes from `vis`; each image gets independent
    Gaussian pixel noise on the contour samples. Standard normals are drawn
    regardless of sigma so random streams align across noise levels. The
    center and mark projections are reported noise-free: they stand in for
    the space-time-coded landmark points, which the receiver decodes from
    structured LED patterns spanning the whole luminaire face rather than
    measuring as single contour pixels. Raises NotVisibleError when no
    contour point lands inside the image.
    """
    if images_per_location < 1:
        raise ValueError("images_per_location must be >= 1")
    if vis.fraction == 0.0:
        raise NotVisibleError(
            f"luminaire {vis.luminaire_id!r} does not project into the image"
        )
    clean = vis.pixels
    shape = (images_per_location,) + clean.shape
    return Capture(
        luminaire_id=vis.luminaire_id,
        angles=contour_angles(len(clean)),
        pixels=clean + rng.standard_normal(shape) * noise.sigma,
        clean_pixels=clean,
        center=vis.center,
        mark=vis.mark,
    )


def truncate_arc(
    capture: Capture,
    mode: str,
    rng: np.random.Generator | None = None,
    *,
    start_index: int | None = None,
    arc_fraction: float = 0.6,
    intrinsics: CameraIntrinsics | None = None,
) -> Capture:
    """Reduce a burst to the part of the contour that survives occlusion.

    semicircle keeps a random contiguous 50% span, superior_arc keeps
    `arc_fraction`, image_bounds keeps the points whose clean projection lies
    inside the image. Every image of the burst keeps the same points. Partial
    captures lose the center and mark projections (the coded points cannot
    be read from a partial image).
    """
    if mode not in ARC_MODES:
        raise ValueError(f"mode must be one of {ARC_MODES}")
    if mode == "complete":
        return capture

    n = len(capture.angles)
    if mode == "image_bounds":
        if intrinsics is None:
            raise ValueError("image_bounds truncation needs the camera intrinsics")
        keep = np.flatnonzero(_in_bounds(capture.clean_pixels, intrinsics))
    else:
        span = n // 2 if mode == "semicircle" else int(round(n * arc_fraction))
        if start_index is None:
            if rng is None:
                raise ValueError("semicircle/superior_arc truncation needs rng "
                                 "or an explicit start_index")
            start_index = int(rng.integers(n))
        keep = np.arange(start_index, start_index + span) % n

    if len(keep) < 5:
        raise ArcTooShortError(f"only {len(keep)} contour points survive truncation")
    return Capture(
        luminaire_id=capture.luminaire_id,
        angles=capture.angles[keep],
        pixels=capture.pixels[:, keep],
        clean_pixels=capture.clean_pixels[keep],
        mode=mode,
    )


def average_observations(capture: Capture, k: CameraIntrinsics) -> Observation:
    """Average a burst into one observation and fit its ellipse.

    Corresponding pixels (same contour sample) are averaged across images
    before fitting, which shrinks the effective pixel noise by
    sqrt(n_images).
    """
    mean_pixels = capture.pixels.mean(axis=0)
    ellipse = fit_ellipse(pixel_to_image(mean_pixels, k))
    complete = capture.mode == "complete"
    center = mark = None
    if complete:
        # Every image reads the same clean center and mark, and the burst
        # average is taken over those copies: the mean of n copies of a float
        # can differ from it in the last bit, and records keep that mean.
        n_img = len(capture.pixels)
        center = np.repeat(capture.center[None], n_img, 0).mean(axis=0)
        mark = np.repeat(capture.mark[None], n_img, 0).mean(axis=0)
    return Observation(
        luminaire_id=capture.luminaire_id,
        ellipse=ellipse,
        complete=complete,
        center_proj=center,
        mark_proj=mark,
        contour_pixels=mean_pixels,
        contour_angles=capture.angles,
    )


# --- scene (de)serialization ----------------------------------------------------

def scene_to_dict(scene: Scene) -> dict:
    return {
        "schema_version": SCENE_SCHEMA_VERSION,
        "room": list(scene.room),
        "luminaires": [
            {
                "id": lum.id,
                "center": lum.center_w.tolist(),
                "radius": lum.radius,
            }
            for lum in scene.luminaires
        ],
    }


def intrinsics_from_dict(data: dict) -> CameraIntrinsics:
    """Parse an intrinsics mapping, rejecting unknown fields by name."""
    if not isinstance(data, dict):
        raise InvalidConfigError("intrinsics must be a JSON object")
    extra = set(data) - {"f", "dx", "dy", "u0", "v0", "width", "height"}
    if extra:
        raise InvalidConfigError(f"unknown intrinsics fields: {sorted(extra)}")
    try:
        return CameraIntrinsics(**data)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad intrinsics: {exc}") from exc


def scene_from_dict(data: dict) -> Scene:
    """Parse a scene mapping, rejecting unknown fields (fail fast on typos)."""
    if not isinstance(data, dict):
        raise InvalidConfigError("scene must be a JSON object")
    unknown = set(data) - {"schema_version", "room", "luminaires"}
    if unknown:
        raise InvalidConfigError(f"unknown scene fields: {sorted(unknown)}")
    if data.get("schema_version") != SCENE_SCHEMA_VERSION:
        raise InvalidConfigError(
            f"unsupported scene schema_version {data.get('schema_version')!r}"
        )
    try:
        room = tuple(float(v) for v in data["room"])
        lums = []
        for item in data["luminaires"]:
            extra = set(item) - {"id", "center", "radius"}
            if extra:
                raise InvalidConfigError(f"unknown luminaire fields: {sorted(extra)}")
            lums.append(
                LuminaireInfo(
                    id=str(item["id"]),
                    center_w=np.array([float(v) for v in item["center"]]),
                    radius=float(item["radius"]),
                )
            )
        return Scene(room=room, luminaires=tuple(lums))
    except InvalidConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad scene file: {exc}") from exc
