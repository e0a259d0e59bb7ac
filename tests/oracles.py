"""Reference pinhole and frame maps and a reference ellipse fit, kept apart
from the package.

The package projects through `sim._project` and the batched `conic` steps;
these scalar maps restate the same conventions one step at a time (see the
`arcpose.frames` docstring for the frames and units), so tests can check
the package against a forward model it does not share code with. The
scalar `lstsq` fit is the one `conic.fit_ellipses` replaced, and the
capture below takes a sample's two luminaires one at a time, as the harness
did before it captured whole blocks. The scalar rotation, quaternion and
metric definitions are those the batched `frames` and `harness` functions
replaced, and the records writer formats one value at a time through NumPy
scalars, as `harness.write_results` did before it formatted whole rows.
`classify_rows` is `sim.classify` as it measured each luminaire before it
worked on the contiguous u and v arrays: on the strided pixel array, with
one masked sum per row.
"""

import csv
import math

import numpy as np

from arcpose.conic import DISCRIMINANT_SLACK
from arcpose.errors import (
    ArcTooShortError,
    DegenerateConicError,
    NotVisibleError,
    TooFewPointsError,
)
from arcpose.frames import CameraIntrinsics, EulerAngles, Pose, _wrap_angle, pixel_to_image
from arcpose.harness import RECORD_COLUMNS
from arcpose.sim import (
    _in_bounds,
    _project_points_pixel,
    classify,
    luminaire_points,
    visibility_bounds,
)
from arcpose.solver import Observations


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


# --- rotations ------------------------------------------------------------------

def rot_x(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(psi: float) -> np.ndarray:
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_scalar(phi: float, theta: float, psi: float) -> np.ndarray:
    """Rz(psi) @ Ry(theta) @ Rx(phi), one 3x3 matrix at a time."""
    return rot_z(psi) @ rot_y(theta) @ rot_x(phi)


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


def quaternion_scalar(r) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of one rotation, w >= 0 (or, when w is
    numerically 0, the first non-negligible component positive): the trace
    branch, or the branch of the largest diagonal entry."""
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


# --- error metrics, one sample at a time ---------------------------------------------

def e_loc_scalar(truth, est) -> float:
    return float(np.linalg.norm(np.asarray(truth, float) - np.asarray(est, float)))


def e_pos_scalar(r_true, r_est) -> float:
    q_true, q_est = quaternion_scalar(r_true), quaternion_scalar(r_est)
    return float(np.linalg.norm(q_true - q_est) / np.linalg.norm(q_est))


# --- the scalar ellipse fit -------------------------------------------------------

def fit_ellipse_lstsq(points) -> np.ndarray:
    """Least-squares conic (a, b, c, d, e) through image-plane points,
    constant term = 1, by one `np.linalg.lstsq` on the centered and scaled
    design; the errors it raises are those `conic.FIT_CHECKS` lists."""
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
            coefficients = np.array([a, b, c, d, e]) / const
            a, b, c = coefficients[:3]
            discriminant = b * b - 4.0 * a * c
    except FloatingPointError as exc:
        raise DegenerateConicError(f"contour points out of floating-point range: {exc}") from exc
    if discriminant >= DISCRIMINANT_SLACK:
        raise DegenerateConicError(f"discriminant b^2-4ac = {discriminant:g} is not negative")
    return coefficients


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


def classify_rows(rotations, translations, k, points):
    """`sim.classify` with the (P, n, 2) pixels of each luminaire, their
    segment lengths from the interleaved u and v, and the masked
    `row[kept].sum()` of every row."""
    rings, marks, _ = points
    shown = ~visibility_bounds(rotations, translations, k, points)[1]
    pixels = np.full((len(rotations), len(rings), rings.shape[2], 2), np.nan)
    gm = _project_points_pixel(marks, rotations[:, None], translations[:, None], k)
    complete = np.zeros((len(rotations), len(rings)), dtype=bool)
    lengths = np.zeros(complete.shape)
    for i, ring in enumerate(rings):
        p = np.flatnonzero(shown[:, i])
        px = pixels[p, i] = _project_points_pixel(ring, rotations[p], translations[p], k)
        inside = _in_bounds(px, k)
        complete[p, i] = inside.all(axis=1) & _in_bounds(gm[p, i], k).all(axis=1)
        step = np.empty_like(px)
        np.subtract(px[:, 1:], px[:, :-1], out=step[:, :-1])
        np.subtract(px[:, 0], px[:, -1], out=step[:, -1])
        step *= step
        seg = np.sqrt(step[..., 0] + step[..., 1])
        both = inside & np.roll(inside, -1, axis=1)
        lengths[p, i] = [row[kept].sum() for row, kept in zip(seg, both)]
    return pixels, gm, complete, lengths


def capture_observation_scalar(clean, luminaire_id, mode, noise_px, k, rng,
                               arc_fraction=0.6) -> tuple[np.ndarray, np.ndarray]:
    """One luminaire's fitted ellipse (5,) and noisy contour pixels, from its
    clean projection `clean` (n, 2): the start index of a cut arc, then one
    standard normal pair per contour point, the cut, and the
    `fit_ellipse_lstsq` fit."""
    inside = _in_bounds(clean, k)
    if not inside.any():
        raise NotVisibleError(f"luminaire {luminaire_id!r} does not project into the image")
    n = len(clean)
    if mode in ("semicircle", "superior_arc"):
        start = int(rng.integers(n))
        span = n // 2 if mode == "semicircle" else int(round(n * arc_fraction))
        keep = np.arange(start, start + span) % n
    elif mode == "image_bounds":
        keep = np.flatnonzero(inside)
    else:
        keep = np.arange(n)
    if len(keep) < 5:
        raise ArcTooShortError(f"only {len(keep)} contour points survive truncation")

    pixels = clean[keep] + rng.standard_normal(clean.shape)[keep] * noise_px
    return fit_ellipse_lstsq(pixel_to_image(pixels, k)), pixels


def capture_sample(cfg, rotations, translations, rng) -> tuple[Observations, tuple[int, int]]:
    """The two observations of one pose, rotations (1, 3, 3) and
    translations (1, 3) as `sample_poses` draws it: the pair `rank_pair`
    takes on the clean contours of its `sim.classify` projection, cut per
    `cfg.scenario` with noise sigma / sqrt(images) and captured one after
    the other from the sample's generator, and the pair the dispatcher
    solves among them. Raises the first failure."""
    scene = cfg.effective_scene()
    pixels, landmarks, whole, lengths = classify(
        rotations, translations, cfg.intrinsics,
        luminaire_points(scene.luminaires, cfg.contour_samples))
    mixed = cfg.scenario == "mixed"
    ids = [lum.id for lum in scene.luminaires]
    pair = list(rank_pair(lengths[0].tolist(), ids, whole[0].tolist(), mixed))
    modes = (["complete" if whole[0, i] else "image_bounds" for i in pair]
             if mixed else list(cfg.scenario))
    noise_px = cfg.sigma / math.sqrt(cfg.images_per_location)
    fits = [capture_observation_scalar(pixels[0, i], ids[i], mode, noise_px,
                                       cfg.intrinsics, rng, cfg.arc_fraction)
            for i, mode in zip(pair, modes)]
    complete = np.array(modes) == "complete"
    obs = Observations(
        luminaire=[ids[i] for i in pair], coefficients=[c for c, _ in fits],
        landmarks=np.where(complete[:, None, None], landmarks[0, pair], np.nan),
        complete=complete, contour_px=[contour_px(p) for _, p in fits])
    return obs, rank_pair(obs.contour_px.tolist(), obs.luminaire.tolist(), complete.tolist(),
                          True)


# --- records.csv, one value at a time ----------------------------------------------

def _euler_or_nan(rotation) -> tuple[float, float, float]:
    """The Euler angles of `frames.rotation_to_euler` through NumPy scalars,
    NaN at gimbal lock."""
    r = np.asarray(rotation, dtype=float)
    sin_theta = float(np.clip(-r[2, 0], -1.0, 1.0))
    if math.sqrt(max(0.0, 1.0 - sin_theta * sin_theta)) < 1e-8:
        return math.nan, math.nan, math.nan
    e = EulerAngles(_wrap_angle(math.atan2(r[2, 1], r[2, 2])), math.asin(sin_theta),
                    _wrap_angle(math.atan2(r[1, 0], r[0, 0])))
    return e.phi, e.theta, e.psi


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def record_row(records, s: int, a: int) -> list[str]:
    """The records.csv cells of record [s, a] of a `harness.Records` table:
    algorithm a on sample s."""
    ok = records.error[s, a] == ""
    tphi, ttheta, tpsi = _euler_or_nan(records.truth_rotation[s])
    if ok:
        ephi, etheta, epsi = _euler_or_nan(records.rotation[s, a])
        est_t = records.translation[s, a]
    else:
        ephi = etheta = epsi = None
        est_t = (None, None, None)
    truth_t = records.truth_translation[s]
    values = [
        s, records.algorithms[a], records.solver_tag[s, a],
        "ok" if ok else "failed", records.error[s, a],
        records.e_loc[s, a] if ok else None, records.e_pos[s, a] if ok else None,
        truth_t[0], truth_t[1], truth_t[2],
        tphi, ttheta, tpsi,
        est_t[0], est_t[1], est_t[2], ephi, etheta, epsi,
    ]
    return [_fmt(v) for v in values]


def record_rows(records) -> list[list[str]]:
    """The records.csv cells of every record of a table, in file order."""
    samples, algorithms = records.e_loc.shape
    return [record_row(records, s, a) for s in range(samples) for a in range(algorithms)]


def write_records(records, path) -> None:
    """records.csv of a `harness.Records` table through `csv.writer`, a row
    at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for row in record_rows(records):
            writer.writerow(row)
