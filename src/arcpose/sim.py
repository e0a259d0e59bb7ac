"""Synthetic scenes and captures for the positioning simulation study.

A scene is a rectangular room with circular luminaires on (or hanging below)
the ceiling. A sample draws a random camera pose, projects each luminaire's
margin circle through the pinhole model, and turns each chosen luminaire
into one observation: the contour pixels with the Gaussian noise left after
averaging the location's images, cut to a partial arc when the scenario
models occlusion, and the ellipse fitted to them.

Determinism: every function that draws randomness takes a numpy Generator.
Noise is always drawn as standard normals and scaled afterwards, so
experiments that differ only in noise level consume identical random streams
and stay pairwise comparable. Visibility is always classified on the clean
(noise-free) projection.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .conic import FIT_CHECKS, EllipseFits, fit_ellipses
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
from .solver import LuminaireInfo, contour_lengths, pair_rows

SCENE_SCHEMA_VERSION = 1

ARC_MODES = ("complete", "semicircle", "superior_arc", "image_bounds")

# The pose sampler's fixed protocol: camera height band (m), tilt range
# (below pi/2, so that sampled tilts are valid Euler angles), the contour
# share at which a luminaire counts as visible, and the candidates a pose
# may take before sampling gives up.
HEIGHT_RANGE = (0.5, 2.0)
MAX_TILT = math.radians(45.0)
MIN_FRACTION = 0.5
MAX_ATTEMPTS = 100_000

# How far (m, in camera coordinates) `visibility_bounds` extrema must clear
# zero to decide a luminaire: far above the ~1e-15 relative rounding of
# `_project`, so every decided luminaire agrees with its projected contour.
BOUND_MARGIN = 1e-9

# Rounds after which `sample_poses` advances only its first pending
# generator. About 3 candidates in 10 pass the visibility test, so a pose
# still pending after 64 rounds (p < 1e-9) means a test that rejects almost
# everything; drawing one pose at a time then makes a block fail after
# MAX_ATTEMPTS candidates, not MAX_ATTEMPTS for each of its poses.
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


def default_intrinsics() -> CameraIntrinsics:
    """The simulated camera: 640x480, 1.25e-3 cm pixels, f = 0.4 cm.

    The pixel pitch is read as cm/pixel; with this focal length the horizontal
    field of view is ~90 degrees, wide enough to see two luminaires from most
    of the room.
    """
    return CameraIntrinsics(
        f=0.4, dx=1.25e-3, dy=1.25e-3, u0=320.0, v0=240.0, width=640, height=480
    )


def default_scene() -> Scene:
    """The 8 x 6 x 3 m room with four ceiling luminaires of radius 15 cm."""
    centers = [(2.0, 2.0, 3.0), (6.0, 2.0, 3.0), (2.0, 4.0, 3.0), (6.0, 4.0, 3.0)]
    lums = tuple(
        LuminaireInfo(id=f"L{i + 1}", center_w=np.array(c), radius=0.15)
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
    behind the camera; None where `sample_poses` does not capture the
    luminaire) and the `center` and mark pixels, all read-only.
    """

    luminaire_id: str
    fraction: float     # share of contour samples inside the image
    complete: bool      # full contour plus center and mark readable
    contour_px: float   # pixel length of the visible part of the contour
    pixels: np.ndarray | None
    center: np.ndarray
    mark: np.ndarray


def luminaire_points(luminaires, contour_samples: int):
    """World contour rings (L, 3, n) and center/mark pairs (L, 3, 2), laid
    out for `_project`, and the radii (L,); they depend only on the scene
    and the point count, so a run builds them once for `sample_poses`."""
    angles = contour_angles(contour_samples)
    rings = np.stack([lum.circle_points(angles).T for lum in luminaires])
    marks = np.stack([np.stack([lum.center_w, lum.mark_w], axis=1)
                      for lum in luminaires])
    return rings, marks, np.array([lum.radius for lum in luminaires])


def visibility_bounds(rotations, translations, k: CameraIntrinsics, points):
    """Which luminaires of `points` (their `luminaire_points`) lie wholly
    inside the image and which wholly outside it, for P poses: two (P, L)
    masks; a luminaire in neither straddles the image edge.

    `_inside` holds at a camera point p = (x, y, z) when z > 0 and, for
    z > 0, x + u0 z dx/f >= 0, (width - u0) z dx/f - x >= 0 and the same
    two for y: five linear functions n.p. On a ring c + R (cos a, sin a, 0)
    each is n.c_cam + R (n.r0 cos a + n.r1 sin a), r0 and r1 the first two
    rows of the rotation, so its extrema are n.c_cam -+ R hypot(n.r0, n.r1).
    Inside means every minimum is above `BOUND_MARGIN`, outside some maximum
    below -`BOUND_MARGIN`: then every contour point passes `_inside`, or
    none does.
    """
    _, marks, radii = points
    sx, sy = k.dx / k.f, k.dy / k.f
    normals = np.array([[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, -1.0],
                        [1.0, k.u0 * sx, (k.width - k.u0) * sx,
                         k.v0 * sy, (k.height - k.v0) * sy]])
    mid = (marks[:, :, 0] - translations[:, None]) @ rotations @ normals
    axes = rotations[:, :2] @ normals
    half = np.hypot(axes[:, 0], axes[:, 1])[:, None] * radii[:, None]
    return ((mid - half > BOUND_MARGIN).all(axis=2),
            (mid + half < -BOUND_MARGIN).any(axis=2))


def classify(rotations, translations, k: CameraIntrinsics, points):
    """The clean projection of a block of P poses, rotations (P, 3, 3) and
    translations (P, 3), with `points` the luminaires' `luminaire_points`:
    contour pixels (P, L, n, 2), center and mark pixels (P, L, 2, 2), and
    the `Visibility` fraction, completeness and contour length (P, L) of
    every luminaire. A luminaire that `visibility_bounds` puts wholly
    outside the image is not projected: its contour pixels stay NaN and its
    fraction and length are 0. The others are projected and classified one
    luminaire at a time, which keeps the temporaries to P contours: one
    gathered call over the whole block allocates megabytes, whose fresh
    pages cost every block hundreds of page faults."""
    rings, marks, _ = points
    shown = ~visibility_bounds(rotations, translations, k, points)[1]
    pixels = np.full((len(rotations), len(rings), rings.shape[2], 2), np.nan)
    gm = _project_points_pixel(marks, rotations[:, None], translations[:, None], k)
    gm.flags.writeable = False
    fractions, complete, lengths = np.zeros((3, len(rotations), len(rings)))
    for i, ring in enumerate(rings):
        p = np.flatnonzero(shown[:, i])
        px = pixels[p, i] = _project_points_pixel(ring, rotations[p], translations[p], k)
        inside = _in_bounds(px, k)
        fractions[p, i] = inside.mean(axis=1)
        complete[p, i] = (fractions[p, i] == 1.0) & _in_bounds(gm[p, i], k).all(axis=1)
        # Segment lengths to the next contour point, wrapping around.
        step = np.empty_like(px)
        np.subtract(px[:, 1:], px[:, :-1], out=step[:, :-1])
        np.subtract(px[:, 0], px[:, -1], out=step[:, -1])
        step *= step
        seg = np.sqrt(step[..., 0] + step[..., 1])
        both = inside & np.roll(inside, -1, axis=1)
        lengths[p, i] = [row[kept].sum() for row, kept in zip(seg, both)]
    return pixels, gm, fractions, complete.astype(bool), lengths


@dataclass(frozen=True)
class SampledPose:
    """A pose accepted by `sample_poses`, the visibility of every luminaire
    on the clean projection it was accepted on, the number of draws it took,
    the accepted one included, and the `pair` a capture takes: indices into
    `visibility`, in capture order. Only the pair's visibilities carry
    pixels."""

    pose: Pose
    visibility: tuple[Visibility, ...]
    attempts: int
    pair: tuple[int, int]


def sample_poses(scene: Scene, rngs, k: CameraIntrinsics, points,
                 complete: bool) -> list[SampledPose]:
    """Rejection-sample one camera pose per generator in `rngs`.

    Position is uniform over the room footprint with height in
    `HEIGHT_RANGE`; roll and pitch are uniform within +-`MAX_TILT` and the
    heading is uniform. A candidate is kept when at least two luminaires
    show `MIN_FRACTION` of their contour inside the image or, with
    `complete`, when at least two luminaires are complete: whole contour,
    center and mark inside the image. `points` are the scene's
    `luminaire_points`.

    The generators advance in rounds: each round draws `uniform(size=6)`
    from every generator whose pose is still rejected (from the first of
    them alone after `SOLO_AFTER` rounds) and tests all those candidates
    together. `visibility_bounds` gives a luminaire wholly inside the image
    fraction 1.0 and one wholly outside it 0; only the luminaires that
    straddle the image edge are projected, all of the round's in one
    gathered call. Those fractions then meet the same `MIN_FRACTION` (or
    `complete`) test as projected ones, so a fraction of 1.0 is not shown
    when `MIN_FRACTION` exceeds 1. Each generator draws only its own
    candidates, so it ends where drawing its poses one at a time would leave
    it. Each accepted pose comes with the `visibility` of its `classify`
    projection and the pair a capture takes, as `pair_rows` ranks the clean
    contours: the best complete luminaire and the best other one, or with
    `complete` the best two. Raises SamplingExhaustedError when a pose is
    still rejected after `MAX_ATTEMPTS` candidates.
    """
    length, width, _ = scene.room
    low, high = HEIGHT_RANGE
    if len(scene.luminaires) < 2:
        raise SamplingExhaustedError(
            f"scene has {len(scene.luminaires)} luminaires, a pose needs 2"
        )
    rings, marks, _ = points

    count = len(rngs)
    rotations = np.empty((count, 3, 3))
    translations = np.empty((count, 3))
    attempts = np.zeros(count, dtype=int)  # candidates drawn per generator
    pending = np.arange(count)
    while len(pending):
        # The active generators have all drawn the same number of candidates.
        active = pending if attempts[pending[0]] < SOLO_AFTER else pending[:1]
        if attempts[active[0]] == MAX_ATTEMPTS:
            raise SamplingExhaustedError(
                f"no pose passed the visibility test in {MAX_ATTEMPTS} attempts"
            )
        attempts[active] += 1
        draw = np.array([rngs[i].uniform(size=6) for i in active])
        translations[active] = np.stack(
            [draw[:, 0] * length, draw[:, 1] * width, low + draw[:, 2] * (high - low)],
            axis=1)
        phi = (2 * draw[:, 3] - 1) * MAX_TILT
        theta = (2 * draw[:, 4] - 1) * MAX_TILT
        psi = (2 * draw[:, 5] - 1) * math.pi
        rotations[active] = [rotation_from_angles(a, b, _wrap_angle(c))
                             for a, b, c in zip(phi, theta, psi)]

        r, t = rotations[active], translations[active]
        inside, outside = visibility_bounds(r, t, k, points)
        fractions = inside.astype(float)
        p, i = np.nonzero(~(inside | outside))
        hits = _inside(rings[i], r[p], t[p], k)
        fractions[p, i] = np.count_nonzero(hits, axis=1) / hits.shape[1]
        if complete:
            marks_in = _inside(marks, r[:, None], t[:, None], k).all(axis=2)
            shown = (fractions == 1.0) & marks_in
        else:
            shown = fractions >= MIN_FRACTION
        accepted = shown.sum(axis=1) >= 2

        pending = np.concatenate([active[~accepted], pending[len(active):]])

    # Only the pair a capture takes keeps its pixels.
    pixels, gm, fractions, whole, lengths = classify(rotations, translations, k, points)
    pairs = pair_rows(lengths.tolist(), [[lum.id for lum in scene.luminaires]] * count,
                      whole.tolist(), not complete)
    kept = pixels[np.arange(count)[:, None], pairs]
    kept.flags.writeable = False
    return [SampledPose(
        Pose.unchecked(rotations[p], translations[p]),
        tuple(Visibility(lum.id, float(fractions[p, i]), bool(whole[p, i]),
                         float(lengths[p, i]), kept[p, pair.index(i)] if i in pair else None,
                         gm[p, i, 0], gm[p, i, 1])
              for i, lum in enumerate(scene.luminaires)),
        int(attempts[p]), pair) for p, pair in enumerate(pairs)]


# What a capture row fails on before its fit, then the checks of the fit.
CAPTURE_CHECKS = (
    (NotVisibleError, "luminaire {luminaire!r} does not project into the image"),
    (ArcTooShortError, "only {count} contour points survive truncation"),
    *FIT_CHECKS,
)


@dataclass(frozen=True)
class Capture(EllipseFits):
    """M observations captured by `capture` and their fitted ellipses: row
    m, of luminaire id `luminaire[m]`, keeps the first `count[m]` noisy
    pixels of `pixels` (M, N, 2), at the contour indices `keep` (M, N).
    `landmarks` (M, 2, 2) holds the clean center and mark pixels of
    `complete` rows (NaN on the others), `contour_px` each row's
    `Observation.contour_px`; `failure` indexes CAPTURE_CHECKS."""

    CHECKS = CAPTURE_CHECKS
    luminaire: np.ndarray
    pixels: np.ndarray
    keep: np.ndarray
    complete: np.ndarray
    landmarks: np.ndarray
    contour_px: np.ndarray

    def _details(self, row: int) -> dict:
        return {**super()._details(row), "luminaire": str(self.luminaire[row])}


def capture(rows, modes, noise_px: float, k: CameraIntrinsics, rngs,
            arc_fraction: float = 0.6) -> Capture:
    """The observations of M luminaires, from their clean projections `rows`
    (visibilities with pixels of one contour length n): noisy contour
    pixels cut to the part `modes[m]` keeps, all fitted in one
    `fit_ellipses` call.

    Every contour point gets zero-mean Gaussian noise of std `noise_px` on u
    and v. The mean of n images with pixel noise of std sigma has noise of
    std sigma / sqrt(n), so one draw at that `noise_px` stands for a
    location's averaged images. One standard normal pair is drawn per
    contour point whatever the mode and `noise_px`, so random streams align
    across noise levels.

    semicircle keeps the contiguous 50% span from a start index drawn
    before the noise, superior_arc keeps `arc_fraction` of the contour from
    there, image_bounds keeps the points whose clean projection lies inside
    the image. Only a complete row carries the center and mark projections,
    noise-free: they stand in for the space-time-coded landmark points,
    which the receiver decodes from structured LED patterns spanning the
    whole luminaire face, and which cannot be read from a partial image.

    Row m draws from `rngs[m]` in row order, as if the rows were captured one
    after the other. A row not in the image fails with NotVisibleError and
    draws nothing; one cut below 5 points fails with ArcTooShortError and
    draws no noise.
    """
    if not set(modes) <= set(ARC_MODES):
        raise ValueError(f"mode must be one of {ARC_MODES}")
    clean = np.stack([vis.pixels for vis in rows])
    m, n = clean.shape[:2]
    spans = {"semicircle": n // 2, "superior_arc": int(round(n * arc_fraction))}
    inside = _in_bounds(clean, k)
    count = np.where([mode == "image_bounds" for mode in modes], inside.sum(axis=1), n)
    start = np.zeros(m, dtype=int)
    cut = np.full(m, -1)
    noise = np.zeros_like(clean)
    for i, (vis, mode, rng) in enumerate(zip(rows, modes, rngs)):
        if vis.fraction == 0.0:
            cut[i] = 0
            continue
        if mode in spans:
            start[i], count[i] = rng.integers(n), spans[mode]
        if count[i] < 5:
            cut[i] = 1
            continue
        rng.standard_normal(out=noise[i])

    keep = (start[:, None] + np.arange(count.max())) % n
    for i in np.flatnonzero(np.array(modes) == "image_bounds"):
        keep[i, :count[i]] = np.flatnonzero(inside[i])
    index = np.arange(m)[:, None], keep
    pixels = noise[index]
    del noise  # before the fit's temporaries
    pixels *= noise_px
    pixels += clean[index]
    fits = fit_ellipses(pixel_to_image(pixels, k), np.where(cut < 0, count, 0))
    complete = np.array(modes) == "complete"
    landmarks = np.array([(vis.center, vis.mark) for vis in rows])
    return Capture(
        coefficients=fits.coefficients, count=count,
        failure=np.where(cut >= 0, cut, np.where(fits.failure >= 0, fits.failure + 2, -1)),
        luminaire=np.array([vis.luminaire_id for vis in rows]), pixels=pixels, keep=keep,
        complete=complete, landmarks=np.where(complete[:, None, None], landmarks, np.nan),
        contour_px=contour_lengths(pixels, count))


# --- (de)serialization ------------------------------------------------------------
# The readers of every input file (scene, intrinsics, observations, config) take
# its objects through `read_object` and its numbers through `read_numbers`.

def read_object(data, fields, what: str) -> dict:
    """`data` as a JSON object with no field outside `fields` (fail fast on
    typos); raises InvalidConfigError naming `what` otherwise."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"{what} must be a JSON object")
    unknown = data.keys() - set(fields)
    if unknown:
        raise InvalidConfigError(f"{what}: unknown fields {sorted(unknown)}")
    return data


def read_numbers(value, what: str, shape=(), kind=float):
    """A finite JSON number or, with a `shape` (None for any length), an
    array of them, as `kind`: a Python float or int, or an array of that
    dtype; an int takes only JSON integers. Raises InvalidConfigError naming
    `what` for a boolean, string or null, a list of them, a ragged list or
    another shape. An array is read with one `np.asarray` and a dtype-kind
    check, with no Python loop over a contour's points."""
    noun = "JSON integer" if kind is int else "finite JSON number"
    if not shape:  # Python's checks cost a tenth of NumPy's on one number
        if (isinstance(value, bool)
                or not isinstance(value, int if kind is int else (int, float))
                or not abs(value) <= sys.float_info.max):
            raise InvalidConfigError(f"{what} must be a {noun}")
        return kind(value)
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if (arr.dtype.kind not in ("iu" if kind is int else "iuf")
            or arr.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, arr.shape))
            or not np.isfinite(arr).all()):
        dims = ", ".join("N" if n is None else str(n) for n in shape)
        raise InvalidConfigError(f"{what} must be a ({dims}) array of {noun}s")
    return arr.astype(kind, copy=False)


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
    """Parse an intrinsics mapping; width and height are integers."""
    fields = ("f", "dx", "dy", "u0", "v0", "width", "height")
    read_object(data, fields, "intrinsics")
    values = [read_numbers(data.get(name), f"intrinsics {name}",
                           kind=int if name in ("width", "height") else float)
              for name in fields]
    try:
        return CameraIntrinsics(*values)
    except ValueError as exc:
        raise InvalidConfigError(f"intrinsics: {exc}") from exc


def scene_from_dict(data: dict) -> Scene:
    """Parse a scene mapping: a room and at least two luminaires with unique
    ids."""
    read_object(data, ("schema_version", "room", "luminaires"), "scene")
    version = read_numbers(data.get("schema_version"), "scene schema_version", kind=int)
    if version != SCENE_SCHEMA_VERSION:
        raise InvalidConfigError(f"unsupported scene schema_version {version}")
    room = tuple(read_numbers(data.get("room"), "scene room", (3,)).tolist())
    items = data.get("luminaires")
    if not isinstance(items, list) or len(items) < 2:
        raise InvalidConfigError("scene luminaires must be a list of at least 2")
    lums = {}
    for index, item in enumerate(items):
        where = f"luminaire {index}"
        read_object(item, ("id", "center", "radius"), where)
        lum_id = item.get("id")
        if not isinstance(lum_id, str):
            raise InvalidConfigError(f"{where}: id must be a string")
        if lum_id in lums:
            raise InvalidConfigError(f"repeated luminaire id {lum_id!r}")
        where = f"luminaire {index} ({lum_id!r})"
        lums[lum_id] = (read_numbers(item.get("center"), f"{where}: center", (3,)),
                        read_numbers(item.get("radius"), f"{where}: radius"))
    try:
        return Scene(room, tuple(LuminaireInfo(i, *parts) for i, parts in lums.items()))
    except ValueError as exc:
        raise InvalidConfigError(f"scene: {exc}") from exc
