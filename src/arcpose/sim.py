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
and stay pairwise comparable. Which luminaires a pose sees is always decided
on the clean (noise-free) projection.
"""

from __future__ import annotations

import math
import reprlib
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
    _wrap_angle,
    camera_to_pixel,
    pixel_to_image,
    read_numbers,
    rotations_from_angles,
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
# everything; drawing one pose at a time then makes a draw fail after
# MAX_ATTEMPTS candidates, not MAX_ATTEMPTS for each of its poses.
SOLO_AFTER = 64

# Straddling luminaires whose contours one `_inside` call of a sampler round
# projects. A first round over 1008 poses has some 210 of them, about 100 on
# the candidates the bounds leave open; in pieces of 48 the projection's
# temporaries (about 26 KB a 360-point contour) stay near 1.2 MB however
# many generators `sample_poses` runs.
STRADDLE_PIECE = 48


@dataclass(frozen=True)
class Scene:
    """Room dimensions (m) and the luminaires mounted in it."""

    room: tuple[float, float, float]
    luminaires: tuple[LuminaireInfo, ...]

    def __post_init__(self):
        room = tuple(read_numbers(self.room, "scene room", (3,)).tolist())
        length, width, height = room
        if not (length > 0 and width > 0 and height > 0):
            raise InvalidConfigError(f"scene room dimensions must be positive, got {room}")
        object.__setattr__(self, "room", room)
        if not (isinstance(self.luminaires, (list, tuple))
                and all(isinstance(lum, LuminaireInfo) for lum in self.luminaires)):
            raise InvalidConfigError("scene luminaires must be a list or tuple of LuminaireInfo, "
                                     f"got {reprlib.repr(self.luminaires)}")
        object.__setattr__(self, "luminaires", tuple(self.luminaires))
        ids = [lum.id for lum in self.luminaires]
        for i, lum in enumerate(self.luminaires):
            if lum.id in ids[:i]:
                raise InvalidConfigError(f"repeated luminaire id {lum.id!r}")
            x, y, z = lum.center_w
            if not (0 <= x <= length and 0 <= y <= width and 0 < z <= height):
                raise InvalidConfigError(
                    f"luminaire {lum.id!r} center {[x, y, z]} lies outside the room {room}")

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
        return (z, *camera_to_pixel(cam, z, k))


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
    return (z > 0) & _within(u, v, k)


def _in_bounds(pixels: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    return _within(pixels[..., 0], pixels[..., 1], k)


def _within(u, v, k: CameraIntrinsics) -> np.ndarray:
    """Where pixel coordinates u, v lie inside the image; False at NaN."""
    with np.errstate(invalid="ignore"):
        return (u >= 0) & (u <= k.width) & (v >= 0) & (v <= k.height)


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
    every luminaire's completeness (whole contour, center and mark inside
    the image) and visible contour length (P, L). A luminaire that
    `visibility_bounds` puts wholly outside the image is not projected: its
    contour pixels stay NaN and its length is 0. The others are projected
    one luminaire at a time, which keeps the temporaries to P contours: one
    gathered call over the whole block allocates megabytes, whose fresh
    pages cost every block hundreds of page faults. A luminaire that the
    bounds put wholly inside keeps the completeness of its center and mark
    and the contiguous sum of its segment lengths; only the rows that
    straddle the image edge are tested point by point, in one gather after
    the loop, and a cut contour summed by mask."""
    rings, marks, _ = points
    inview, outside = visibility_bounds(rotations, translations, k, points)
    pixels = np.full((len(rotations), len(rings), rings.shape[2], 2), np.nan)
    gm = _project_points_pixel(marks, rotations[:, None], translations[:, None], k)
    complete = _in_bounds(gm, k).all(axis=2) & ~outside
    lengths = np.zeros(complete.shape)
    for i, ring in enumerate(rings):
        p = np.flatnonzero(~outside[:, i])
        z, u, v = _project(ring, rotations[p], translations[p], k)
        behind = ~(z > 0)
        u[behind] = v[behind] = np.nan
        pixels[p, i, :, 0], pixels[p, i, :, 1] = u, v
        # Segment lengths to the next contour point, wrapping around.
        du, dv = np.roll(u, -1, axis=1) - u, np.roll(v, -1, axis=1) - v
        lengths[p, i] = np.sqrt(du * du + dv * dv).sum(axis=1)
    # The rows the bounds leave undecided are tested point by point, and
    # their cut contours summed by mask.
    cut = np.nonzero(~(inview | outside))
    px = pixels[cut]
    inside = _in_bounds(px, k)
    complete[cut] &= inside.all(axis=1)
    both = inside & np.roll(inside, -1, axis=1)
    part = ~both.all(axis=1)
    du, dv = np.moveaxis(np.roll(px[part], -1, axis=1) - px[part], -1, 0)
    seg = np.sqrt(du * du + dv * dv)
    lengths[cut[0][part], cut[1][part]] = [row[kept].sum() for row, kept in zip(seg, both[part])]
    return pixels, gm, complete, lengths


def sample_poses(scene: Scene, rngs, k: CameraIntrinsics, points, complete: bool):
    """Rejection-sample one camera pose per generator in `rngs`: rotations
    (P, 3, 3), translations (P, 3) and the candidates each took, the accepted
    one included, `attempts` (P,).

    Position is uniform over the room footprint with height in
    `HEIGHT_RANGE`; roll and pitch are uniform within +-`MAX_TILT` and the
    heading is uniform. A candidate is kept when at least two luminaires
    show `MIN_FRACTION` of their contour inside the image or, with
    `complete`, when at least two luminaires are complete: whole contour,
    center and mark inside the image. `points` are the scene's
    `luminaire_points`.

    The generators advance in rounds: each round draws `uniform(size=6)`
    from every generator whose pose is still rejected (from the first of
    them alone after `SOLO_AFTER` rounds), builds all their rotations in one
    `rotations_from_angles` call and tests them together, so the rounds
    number about the slowest generator's candidates whatever P is.
    `visibility_bounds` gives a luminaire wholly inside the image fraction
    1.0, with its center and mark inside too (the five half-space tests are
    linear, so the disc meets them wherever its ring does), and one wholly
    outside it 0. Those fractions meet the same `MIN_FRACTION` (or
    `complete`) test as projected ones, so a fraction of 1.0 is not shown
    when `MIN_FRACTION` exceeds 1. A candidate is decided on them alone
    when it shows two luminaires with every straddler at fraction 0, or
    fewer than two with every straddler at 1. Only the candidates still
    open project their straddling rings, `STRADDLE_PIECE` of the round's at
    a time; with `complete`, a straddler that shows every contour point
    then projects its center and mark. Each generator draws only its own
    candidates, so it ends where drawing its poses one at a time would
    leave it. Raises SamplingExhaustedError when a pose is still rejected
    after `MAX_ATTEMPTS` candidates.
    """
    length, width, _ = scene.room
    low, high = HEIGHT_RANGE
    if len(scene.luminaires) < 2:
        raise SamplingExhaustedError(
            f"scene has {len(scene.luminaires)} luminaires, a pose needs 2"
        )
    rings, marks, _ = points
    shows = (lambda f: f == 1.0) if complete else (lambda f: f >= MIN_FRACTION)

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
        rotations[active] = rotations_from_angles(
            (2 * draw[:, 3] - 1) * MAX_TILT, (2 * draw[:, 4] - 1) * MAX_TILT,
            [_wrap_angle(a) for a in ((2 * draw[:, 5] - 1) * math.pi).tolist()])

        r, t = rotations[active], translations[active]
        inside, outside = visibility_bounds(r, t, k, points)
        fractions = inside.astype(float)
        accepted = shows(fractions).sum(axis=1) >= 2
        # Open: short of two shown with every straddler at fraction 0, not
        # with every straddler at 1. Only the open candidates are projected.
        rows = np.flatnonzero(~accepted & (shows(1.0 - outside).sum(axis=1) >= 2))
        if len(rows):
            p, i = np.nonzero(~(inside | outside)[rows])
            straddle = rows[p], i
            for first in range(0, len(straddle[0]), STRADDLE_PIECE):
                p, i = (a[first:first + STRADDLE_PIECE] for a in straddle)
                hits = _inside(rings[i], r[p], t[p], k)
                fractions[p, i] = np.count_nonzero(hits, axis=1) / hits.shape[1]
            shown = shows(fractions[rows])
            # With `complete`, a straddler that shows whole needs its center and mark inside.
            p, i = np.nonzero(shown & ~inside[rows]) if complete else ((), ())
            if len(p):
                shown[p, i] = _inside(marks[i], r[rows[p]], t[rows[p]], k).all(axis=1)
            accepted[rows] = shown.sum(axis=1) >= 2

        pending = np.concatenate([active[~accepted], pending[len(active):]])
    return rotations, translations, attempts


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
    `contour_lengths`; `failure` indexes CAPTURE_CHECKS."""

    CHECKS = CAPTURE_CHECKS
    luminaire: np.ndarray
    pixels: np.ndarray
    keep: np.ndarray
    complete: np.ndarray
    landmarks: np.ndarray
    contour_px: np.ndarray

    def _details(self, row: int) -> dict:
        return {**super()._details(row), "luminaire": str(self.luminaire[row])}


def capture(clean, landmarks, ids, modes, noise_px: float, k: CameraIntrinsics,
            rngs, arc_fraction: float, whole) -> Capture:
    """The observations of M luminaires of ids `ids` (M,), from their clean
    projections: contour pixels `clean` (M, n, 2), NaN where a point is not
    projected, and center and mark pixels `landmarks` (M, 2, 2). Each row's
    noisy contour pixels are cut to the part `modes[m]` keeps, and all rows
    are fitted in one `fit_ellipses` call. `whole` (M,) flags rows whose
    clean contour lies wholly inside the image, as `classify`'s completeness
    does; only the other rows' pixels are tested against the image bounds.

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
    after the other. A row with no clean contour pixel inside the image
    fails with NotVisibleError and draws nothing; one cut below 5 points
    fails with ArcTooShortError and draws no noise.
    """
    if not set(modes) <= set(ARC_MODES):
        raise ValueError(f"mode must be one of {ARC_MODES}")
    m, n = clean.shape[:2]
    spans = {"semicircle": n // 2, "superior_arc": int(round(n * arc_fraction))}
    inside = np.ones((m, n), dtype=bool)
    rest = np.flatnonzero(~np.asarray(whole))
    inside[rest] = _in_bounds(clean[rest], k)
    count = np.where([mode == "image_bounds" for mode in modes], inside.sum(axis=1), n)
    start = np.zeros(m, dtype=int)
    shown = inside.any(axis=1)
    cut = np.where(shown, -1, 0)
    noise = np.zeros_like(clean)
    for i, (seen, mode, rng) in enumerate(zip(shown.tolist(), modes, rngs)):
        if not seen:
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
    # One flat index into the (m n, 2) rows: a fifteenth of two index arrays' cost.
    index = keep + n * np.arange(m)[:, None]
    pixels = np.take(noise.reshape(-1, 2), index, axis=0)
    del noise  # before the fit's temporaries
    pixels *= noise_px
    pixels += np.take(clean.reshape(-1, 2), index, axis=0)
    fits = fit_ellipses(pixel_to_image(pixels, k), np.where(cut < 0, count, 0))
    complete = np.array(modes) == "complete"
    return Capture(
        coefficients=fits.coefficients, count=count,
        failure=np.where(cut >= 0, cut, np.where(fits.failure >= 0, fits.failure + 2, -1)),
        luminaire=np.asarray(ids), pixels=pixels, keep=keep,
        complete=complete, landmarks=np.where(complete[:, None, None], landmarks, np.nan),
        contour_px=contour_lengths(pixels, count))


def capture_poses(scene: Scene, rotations, translations, rngs, k: CameraIntrinsics, points,
                  scenario, noise_px: float, arc_fraction: float):
    """Capture a pair of luminaires from each of P poses that `sample_poses`
    accepted with the same `points`, pose p with its generator `rngs[p]`:
    rows 2p and 2p + 1 of the returned `Capture` are its pair, and `lum`
    (P, 2) their indices into the scene's luminaires.

    The pair is the one `pair_rows` ranks first on the clean contours of the
    poses' `classify` projection. `scenario` "mixed" takes the best complete
    luminaire and the best other one, and captures a complete luminaire
    whole and cuts another to the image; an explicit scenario, two of
    ARC_MODES, takes the best two and cuts each to its mode.

    Also returns `order` (P, 2), the pair the dispatcher solves, as 0/1
    offsets into the pose's two rows: `pair_rows` on the noisy contour
    lengths, preferring a complete capture."""
    mixed = scenario == "mixed"
    pixels, landmarks, whole, lengths = classify(rotations, translations, k, points)
    ids = [lum.id for lum in scene.luminaires]
    lum = np.array(pair_rows(lengths.tolist(), [ids] * len(rotations), whole.tolist(), mixed))
    rows = np.arange(len(rotations))[:, None], lum
    clean, landmarks, whole = pixels[rows], landmarks[rows], whole[rows].ravel()
    del pixels  # the whole projection goes before the capture's temporaries
    modes = (["complete" if w else "image_bounds" for w in whole.tolist()]
             if mixed else list(scenario) * len(lum))
    pair_ids = np.array(ids)[lum]
    cap = capture(clean.reshape(-1, *clean.shape[2:]), landmarks.reshape(-1, 2, 2),
                  pair_ids.ravel(), modes, noise_px, k,
                  [rng for rng in rngs for _ in range(2)], arc_fraction, whole)
    order = pair_rows(cap.contour_px.reshape(-1, 2).tolist(), pair_ids.tolist(),
                      cap.complete.reshape(-1, 2).tolist(), True)
    return cap, lum, np.array(order).reshape(-1, 2)


# --- (de)serialization ------------------------------------------------------------
# Every input file's reader takes its text through `read_text` and its objects
# through `read_object`; the value classes check the fields (`read_numbers`).

def read_text(path) -> str:
    """The UTF-8 text of the file at `path`, line ends kept; raises
    InvalidConfigError naming it when it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read {path}: {exc}") from exc


def read_object(data, fields, what: str) -> dict:
    """`data` as a JSON object with no field outside `fields` (fail fast on
    typos); raises InvalidConfigError naming `what` otherwise."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"{what} must be a JSON object")
    unknown = data.keys() - set(fields)
    if unknown:
        raise InvalidConfigError(f"{what}: unknown fields {sorted(unknown)}")
    return data


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
    """Parse an intrinsics mapping; `CameraIntrinsics` checks its fields."""
    fields = ("f", "dx", "dy", "u0", "v0", "width", "height")
    read_object(data, fields, "intrinsics")
    return CameraIntrinsics(*map(data.get, fields))


def scene_from_dict(data: dict) -> Scene:
    """Parse a scene mapping: a room and at least two luminaires, which
    `Scene` and `LuminaireInfo` check field by field."""
    read_object(data, ("schema_version", "room", "luminaires"), "scene")
    version = read_numbers(data.get("schema_version"), "scene schema_version", kind=int)
    if version != SCENE_SCHEMA_VERSION:
        raise InvalidConfigError(f"unsupported scene schema_version {version}")
    items = data.get("luminaires")
    if not isinstance(items, list) or len(items) < 2:
        raise InvalidConfigError("scene luminaires must be a list of at least 2")
    for index, item in enumerate(items):
        read_object(item, ("id", "center", "radius"), f"luminaire {index}")
    return Scene(data.get("room"), tuple(
        LuminaireInfo(item.get("id"), item.get("center"), item.get("radius")) for item in items))
