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
    Pose,
    _wrap_angle,
    pixel_to_image,
    rotation_from_angles,
)
from .solver import LuminaireInfo, Observation

SCENE_SCHEMA_VERSION = 1

ARC_MODES = ("complete", "semicircle", "superior_arc", "image_bounds")

# Rounds after which `sample_poses` advances only its first pending
# generator. At the default constraints about 3 candidates in 10 pass, so a
# pose still pending after 64 rounds (p < 1e-9) means a constraint that
# rejects almost everything; drawing one pose at a time then makes a block
# fail after max_attempts candidates, not max_attempts for each of its poses.
SOLO_AFTER = 64


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

    def __post_init__(self):
        # Sampled tilts must stay valid Euler angles (theta in [-pi/2, pi/2]).
        if not 0 <= self.max_tilt <= math.pi / 2:
            raise ValueError(f"max_tilt must lie in [0, pi/2], got {self.max_tilt}")


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


def _project(points, rotation, translation, k: CameraIntrinsics):
    """Camera depth z and pixel coordinates u, v of world points, each
    (..., n); u and v mean nothing where z <= 0.

    `points` hold the coordinates on their second-to-last axis, (..., 3, n),
    so that subtracting the translation (..., 3) runs along the points. The
    camera coordinates are (points - translation) @ rotation per pose:
    stacked rotations (S, 3, 3) and translations (S, 3) project S poses at
    once, each with the arithmetic of a single pose.
    """
    # C order: numpy's default order for these broadcast shapes iterates the
    # subtraction three times slower.
    diff = np.subtract(points, translation[..., None], order="C")
    cam = diff.swapaxes(-1, -2) @ rotation
    z = cam[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = (k.f * cam[..., 0] / z) / k.dx + k.u0
        v = (k.f * cam[..., 1] / z) / k.dy + k.v0
    return z, u, v


def _project_points_pixel(points, rotation, translation, k: CameraIntrinsics):
    """World points (..., 3, n) -> pixel coordinates (..., n, 2); NaN where
    the point is not in front. See `_project` for the shapes."""
    z, u, v = _project(points, rotation, translation, k)
    front = z > 0
    return np.stack([np.where(front, u, np.nan), np.where(front, v, np.nan)], axis=-1)


def _inside(points, rotation, translation, k: CameraIntrinsics) -> np.ndarray:
    """Where `_in_bounds` holds for `_project_points_pixel` of the same
    arguments, without building the pixel array."""
    z, u, v = _project(points, rotation, translation, k)
    with np.errstate(invalid="ignore"):
        return (z > 0) & (u >= 0) & (u <= k.width) & (v >= 0) & (v <= k.height)


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
    """World contour rings (L, 3, n) and center/mark pairs (L, 3, 2), laid
    out for `_project`; they depend only on the scene and the point count,
    so a run builds them once for `sample_poses` and `luminaire_visibility`."""
    angles = contour_angles(contour_samples)
    rings = np.stack([lum.circle_points(angles).T for lum in luminaires])
    marks = np.stack([np.stack([lum.center_w, lum.mark_w], axis=1)
                      for lum in luminaires])
    return rings, marks


def _visibility(luminaires, pixels: np.ndarray, gm: np.ndarray,
                k: CameraIntrinsics) -> list[tuple[Visibility, ...]]:
    """Per pose, one `Visibility` per luminaire, from the clean projections
    of P poses: contour pixels (P, L, n, 2) and center/mark pixels
    (P, L, 2, 2), both read-only. One luminaire at a time, which bounds the
    temporaries."""
    columns = []
    for i, lum in enumerate(luminaires):
        px = pixels[:, i]
        inside = _in_bounds(px, k)
        fractions = inside.mean(axis=1)
        complete = (fractions == 1.0) & _in_bounds(gm[:, i], k).all(axis=1)
        # Segment lengths to the next contour point, wrapping around.
        step = np.empty_like(px)
        np.subtract(px[:, 1:], px[:, :-1], out=step[:, :-1])
        np.subtract(px[:, 0], px[:, -1], out=step[:, -1])
        step *= step
        seg = np.sqrt(step[..., 0] + step[..., 1])
        both = inside & np.roll(inside, -1, axis=1)
        columns.append([
            Visibility(
                luminaire_id=lum.id,
                fraction=float(fractions[p]),
                complete=bool(complete[p]),
                contour_px=float(seg[p][both[p]].sum()),
                pixels=px[p],
                center=gm[p, i, 0],
                mark=gm[p, i, 1],
            )
            for p in range(len(px))
        ])
    return list(zip(*columns))


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
    pixels = _project_points_pixel(rings, pose.rotation, pose.translation, k)
    gm = _project_points_pixel(marks, pose.rotation, pose.translation, k)
    pixels.flags.writeable = False
    gm.flags.writeable = False
    return _visibility(luminaires, pixels[None], gm[None], k)[0]


@dataclass(frozen=True)
class SampledPose:
    """A pose accepted by `sample_poses`, the visibility of every luminaire
    on the clean projection it was accepted on, and the number of draws it
    took, the accepted one included."""

    pose: Pose
    visibility: tuple[Visibility, ...]
    attempts: int


def sample_poses(
    scene: Scene, rngs, constraint: VisibilityConstraint, points=None,
) -> list[SampledPose]:
    """Rejection-sample one camera pose per generator in `rngs`.

    Position is uniform over the room footprint with height in
    `height_range`; roll and pitch are uniform within +-max_tilt and the
    heading is uniform. The generators advance in rounds: each round draws
    `uniform(size=6)` from every generator whose pose is still rejected (from
    the first of them alone after `SOLO_AFTER` rounds) and tests all those
    candidates together, in one stacked projection per luminaire. Each
    generator draws only its own candidates, so it ends where drawing its
    poses one at a time would leave it. Each accepted pose comes with the
    `luminaire_visibility` of the projection it was accepted on. `points`
    are the scene's `luminaire_points` at the constraint's point count,
    built here when not given. Raises SamplingExhaustedError when a pose is
    still rejected after max_attempts.
    """
    k = constraint.intrinsics
    length, width, _ = scene.room
    low, high = constraint.height_range
    if len(scene.luminaires) < max(constraint.min_visible, 1):
        raise SamplingExhaustedError(
            f"scene has {len(scene.luminaires)} luminaires, "
            f"constraint needs {constraint.min_visible}"
        )
    rings, marks = points or luminaire_points(scene.luminaires,
                                              constraint.contour_samples)

    count = len(rngs)
    rotations = np.empty((count, 3, 3))
    translations = np.empty((count, 3))
    attempts = np.zeros(count, dtype=int)  # candidates drawn per generator
    pending = np.arange(count)
    while len(pending):
        # The active generators have all drawn the same number of candidates.
        active = pending if attempts[pending[0]] < SOLO_AFTER else pending[:1]
        if attempts[active[0]] == constraint.max_attempts:
            raise SamplingExhaustedError(
                f"no pose satisfied the constraint in {constraint.max_attempts} attempts"
            )
        attempts[active] += 1
        draw = np.array([rngs[i].uniform(size=6) for i in active])
        translations[active] = np.stack(
            [draw[:, 0] * length, draw[:, 1] * width, low + draw[:, 2] * (high - low)],
            axis=1)
        phi = (2 * draw[:, 3] - 1) * constraint.max_tilt
        theta = (2 * draw[:, 4] - 1) * constraint.max_tilt
        psi = (2 * draw[:, 5] - 1) * math.pi
        rotations[active] = [rotation_from_angles(a, b, _wrap_angle(c))
                             for a, b, c in zip(phi, theta, psi)]

        # One luminaire at a time, so that no candidate's pixels are kept.
        r, t = rotations[active], translations[active]
        fractions = np.empty((len(active), len(rings)))
        for i, ring in enumerate(rings):
            inside = _inside(ring, r, t, k)
            fractions[:, i] = np.count_nonzero(inside, axis=1) / inside.shape[1]
        accepted = ((fractions >= constraint.min_fraction).sum(axis=1)
                    >= constraint.min_visible)
        if constraint.require_complete > 0:
            gm_inside = _inside(marks, r[:, None], t[:, None], k).all(axis=2)
            complete = (fractions == 1.0) & gm_inside
            accepted &= complete.sum(axis=1) >= constraint.require_complete

        pending = np.concatenate([active[~accepted], pending[len(active):]])

    # Each accepted pose is projected once more: keeping every candidate's
    # pixels until its round is decided would cost more memory than this
    # costs time.
    pixels = np.empty((count, len(rings), rings.shape[2], 2))
    for i, (r, t) in enumerate(zip(rotations, translations)):
        pixels[i] = _project_points_pixel(rings, r, t, k)
    gm = _project_points_pixel(marks, rotations[:, None], translations[:, None], k)
    pixels.flags.writeable = False
    gm.flags.writeable = False
    return [
        SampledPose(Pose(rotation=r, translation=t), vis, int(n))
        for r, t, vis, n in zip(rotations, translations,
                                _visibility(scene.luminaires, pixels, gm, k), attempts)
    ]


def sample_pose(
    scene: Scene, rng: np.random.Generator, constraint: VisibilityConstraint,
    points=None,
) -> Pose:
    """`sample_poses` for one generator: the accepted pose alone."""
    return sample_poses(scene, [rng], constraint, points)[0].pose


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
