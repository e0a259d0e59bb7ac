"""Pose and location estimators for circular-luminaire positioning.

Two geometric solvers and a generic baseline, each one array kernel over N
problems at once:

* `solve_pairs` takes N luminaire pairs from ellipse coefficients to camera
  poses. A row runs the circle-and-arc solver (VPCA) when its first
  luminaire was captured complete (its center and mark projections are
  readable) and the second only breaks the orientation duality, or the
  arcs-only solver (OAVPA), which stands in each fitted ellipse's center for
  the unobservable center projection at the cost of a small perspective
  bias;
* `pnp_solve` runs Gauss-Newton on N sets of world/pixel correspondences, as
  the comparison baseline.

The Monte Carlo harness runs a whole experiment through both. One frame
takes the same path: `solve_vpa` picks the pair of an `Observations` record
with `pair_rows` and makes one `solve_pairs` call on it.

World knowledge (luminaire centers, radii, mark orientation) arrives with the
observation ids, the way an optical broadcast channel would deliver it.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .conic import (
    _EPS,
    _KernelRows,
    cone_matrices,
    decompose_cones,
    ellipse_centers,
    lift_to_planes,
    plane_intercepts,
    section_normals,
)
from .errors import (
    AmbiguousDisambiguationError,
    BehindCameraError,
    DegenerateConicError,
    DegenerateDirectionError,
    GimbalLockError,
    InconsistentInputError,
    InvalidConfigError,
    LineParallelToPlaneError,
    NonConvergenceError,
    NotAConeError,
    ParallelLineError,
    TooFewLuminairesError,
    UnknownLuminaireError,
)
from .frames import (
    CameraIntrinsics,
    Pose,
    _freeze,
    _wrap_angle,
    angles_from_rotation,
    camera_to_pixel,
    pixel_to_image,
    read_id,
    read_numbers,
)

DISAMBIGUATION_TIE_TOL = 1e-6
PSI_RESIDUAL_LIMIT = 1e-3
# Reprojection RMS (px) above which PnP retries headings, and then fails.
PNP_RESTART_RMS = 2.0
PNP_FAIL_RMS = 100.0
# The world direction from a luminaire's center to its mark.
_PLUS_Y = np.array([0.0, 1.0, 0.0])
_PLUS_Y.flags.writeable = False


@dataclass(frozen=True)
class LuminaireInfo:
    """A ceiling luminaire: center and mark point in WCS (m), radius (m).

    The mark sits on the margin with the center-to-mark direction along +y in
    the world, which is what anchors the heading angle. The luminaire faces
    straight down: its world normal is (0, 0, -1).
    """

    id: str
    center_w: np.ndarray
    radius: float
    mark_w: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "id", read_id(self.id, "luminaire id"))
        where = f"luminaire {self.id!r}"
        radius = read_numbers(self.radius, f"{where} radius")
        if not radius > 0:
            raise InvalidConfigError(f"{where} radius must be positive, got {radius}")
        center = read_numbers(self.center_w, f"{where} center", (3,))
        object.__setattr__(self, "radius", radius)
        _freeze(self, center_w=center, mark_w=center + radius * _PLUS_Y)

    def circle_points(self, angles) -> np.ndarray:
        """World points on the margin at the given parameter angles.

        The mark point is at angle pi/2.
        """
        a = np.atleast_1d(np.asarray(angles, dtype=float))
        ring = np.stack(
            [np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1
        ) * self.radius
        return self.center_w + ring


def _holds_bool(value) -> bool:
    """Whether a list or tuple holds a bool at any depth: NumPy reads one
    beside numbers as 1 or 0."""
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (list, tuple)) and any(map(_holds_bool, value)))


@dataclass(frozen=True)
class Observations:
    """M luminaires as seen in one (averaged) image, as read-only arrays:
    ids `luminaire` (M,), fitted ellipse `coefficients` (M, 5) rows
    (a, b, c, d, e), center and mark pixels `landmarks` (M, 2, 2), NaN where
    absent, `complete` (M,), whether the whole contour plus the center and
    mark were readable, and `contour_px` (M,), each contour's
    `contour_lengths` (0 when unknown). Raises InvalidConfigError naming the
    field for ids that are no list, tuple or 1-D array, an id that is no
    string or repeated, numbers that are no ints or floats (NaN is one; a
    bool is none), a `complete` that is no boolean, a field of another shape
    than the ids give, or a complete row with a landmark not finite."""

    luminaire: np.ndarray
    coefficients: np.ndarray
    landmarks: np.ndarray
    complete: np.ndarray
    contour_px: np.ndarray

    def __post_init__(self):
        # A record's own ids are a 1-D array, which `dataclasses.replace` passes back.
        if not (isinstance(self.luminaire, (list, tuple))
                or isinstance(self.luminaire, np.ndarray) and self.luminaire.ndim == 1):
            raise InvalidConfigError("observation luminaire ids must be a list, tuple or 1-D "
                                     f"array, got {reprlib.repr(self.luminaire)}")
        ids = [read_id(lum_id, f"observation {i}: luminaire_id")
               for i, lum_id in enumerate(self.luminaire)]
        object.__setattr__(self, "luminaire", np.array(ids, dtype=str))
        self.luminaire.flags.writeable = False
        # A bare cast would read text, None and booleans as numbers and any
        # string as True. NaN stays legal: absent landmarks and unfitted rows hold it.
        m = len(ids)
        for name, shape, kinds, noun in (("coefficients", (m, 5), "iuf", "numbers"),
                                         ("landmarks", (m, 2, 2), "iuf", "numbers"),
                                         ("complete", (m,), "b", "booleans"),
                                         ("contour_px", (m,), "iuf", "numbers")):
            given = getattr(self, name)
            try:
                value = np.array(given)
            except ValueError:  # rows of unequal lengths
                value = None
            if value is not None and value.size and (
                    value.dtype.kind not in kinds or noun == "numbers" and _holds_bool(given)):
                raise InvalidConfigError(f"observation {name} must be {noun}, "
                                         f"got {reprlib.repr(given)}")
            if value is None or value.shape != shape and (value.size or m):
                got = reprlib.repr(given) if value is None else f"shape {value.shape}"
                raise InvalidConfigError(f"observation {name} must be a {shape} array for "
                                         f"{m} luminaires, got {got}")
            value = value.astype(bool if noun == "booleans" else float, copy=False).reshape(shape)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        for i, lum_id in enumerate(ids):
            if lum_id in ids[:i]:
                raise InvalidConfigError(f"repeated luminaire_id {lum_id!r}")
            if self.complete[i] and not np.isfinite(self.landmarks[i]).all():
                raise InvalidConfigError(f"observation {i} ({lum_id!r}): complete "
                                         "observation needs finite center and mark")


def contour_lengths(pixels, counts) -> np.ndarray:
    """Approximate pixel lengths of M contours, row m's points the first
    `counts[m]` of `pixels` (M, N, 2): point count times the exact median
    spacing of consecutive points (0 below two points); the median keeps the
    estimate stable when truncation leaves gaps in the index sequence."""
    p = np.asarray(pixels, dtype=float)
    step = p[:, 1:] - p[:, :-1]
    step *= step
    seg = np.sqrt(step[..., 0] + step[..., 1])
    counts = [int(n) for n in counts]
    for row, n in zip(seg, counts):
        row[max(n - 1, 0):] = np.inf  # past the row's last spacing
    seg.sort(axis=1)
    lengths = np.zeros(len(p))
    for i, (row, n) in enumerate(zip(seg, counts)):
        half = (n - 1) // 2
        if n >= 2:
            lengths[i] = n * (row[half] if (n - 1) % 2 else (row[half - 1] + row[half]) / 2.0)
    return lengths


@dataclass(frozen=True)
class PoseEstimate:
    """`solve_vpa`'s pose, the solver that ran ("VPCA" or "OAVPA"), and the
    kernel row's disambiguation `gap` and heading residual `psi_residual`
    (NaN on arcs-only rows)."""

    pose: Pose
    algorithm: str
    gap: float
    psi_residual: float


# --- the pair kernel: from two cones to a pose, for N pairs at once -------------

def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt((v * v).sum(axis=-1, keepdims=True))


def disambiguate(normals: np.ndarray):
    """Pick the shared orientation from the candidate normals (N, 2, 2, 3)
    of two observations (pair, observation, candidate, xyz).

    Returns the picked candidate of each observation (N, 2), the gap from
    the best to the second-best pairing, and a mask of disagreeing ties.
    """
    diff = normals[:, 0, :, None] - normals[:, 1, None]
    dist = np.sqrt((diff * diff).sum(axis=-1)).reshape(-1, 4)
    # Stable: equal distances rank by (candidate a, candidate b).
    order = dist.argsort(axis=1, kind="stable")[:, :2]
    ranked = np.sort(dist, axis=1)
    gap = ranked[:, 1] - ranked[:, 0]
    cand_a, cand_b = np.divmod(order, 2)
    spread = normals[:, :, 0] - normals[:, :, 1]
    narrow = np.sqrt((spread * spread).sum(axis=-1)) <= DISAMBIGUATION_TIE_TOL
    # A tie is harmless when both pairings pick the same normals (a head-on
    # view collapses a candidate pair).
    same = ((cand_a[:, 0] == cand_a[:, 1]) | narrow[:, 0]) & (
        (cand_b[:, 0] == cand_b[:, 1]) | narrow[:, 1])
    pick = np.array([cand_a[:, 0], cand_b[:, 0]]).T
    return pick, gap, (gap < DISAMBIGUATION_TIE_TOL) & ~same


def tilt(n: np.ndarray):
    """Tilt angles (phi, theta) from luminaire normals (N, 3) in the camera
    frame, and a mask of normals parallel to the camera x-axis.

    A down-facing luminaire's normal is
    n_c = (sin(theta), -cos(theta)*sin(phi), -cos(theta)*cos(phi)), so
    theta = asin(n1) and phi = atan2(-n2, -n3).
    """
    n1, n2, n3 = _unit(n).T
    t1 = np.minimum(np.maximum(n1, -1.0), 1.0)
    phi = np.arctan2(-n2, -n3)  # in [-pi, pi], wrapped to (-pi, pi]
    return np.where(phi <= -math.pi, math.pi, phi), np.arcsin(t1), np.abs(t1) >= 1.0 - 1e-9


def heading(g, h, phi, theta):
    """Heading from unit directions g (N, 3) in the world and h (N, 3) in
    the camera frame, given the tilt angles phi and theta (N,).

    h = R^T g with R = Rz(psi) Ry(theta) Rx(phi) means w = Ry Rx h equals
    Rz(psi)^T g, which is linear in (cos psi, sin psi); the least-squares
    solution is G @ (w1, w2) / (g1^2 + g2^2) with G = [[g1, g2], [g2, -g1]].
    Returns that pair normalized (2, N), its norm before normalizing (under
    1e-12 the system has collapsed), and the residual of the three equations.
    """
    (sp, st), (cp, ct) = np.sin([phi, theta]), np.cos([phi, theta])
    g1, g2, g3 = np.asarray(g, dtype=float).T
    h1, h2, h3 = np.asarray(h, dtype=float).T
    x3 = sp * h2 + cp * h3
    w = np.array([ct * h1 + st * x3, cp * h2 - sp * h3])
    big_g = np.array([[g1, g2], [g2, -g1]])
    sol = (big_g * w).sum(axis=1) / (g1 * g1 + g2 * g2)
    norm = np.sqrt((sol * sol).sum(axis=0))
    cos_sin = sol / norm
    off = (big_g * cos_sin).sum(axis=1) - w
    residual = np.sqrt((off * off).sum(axis=0) + (g3 - (ct * x3 - st * h1)) ** 2)
    return cos_sin, norm, residual


def _rotations(phi, theta, cos_sin) -> np.ndarray:
    """Rz(psi) @ Ry(theta) @ Rx(phi) (..., 3, 3), psi given by its cosine and
    sine."""
    (sx, sy), (cx, cy), (cz, sz) = np.sin([phi, theta]), np.cos([phi, theta]), cos_sin
    # The first two rows are Rz's 2x2 block times those of Ry @ Rx.
    ryx = np.array([[cy, sy * sx, sy * cx], [np.zeros_like(cx), cx, -sx]])
    top = (np.array([[cz, -sz], [sz, cz]])[:, :, None] * ryx).sum(axis=1)
    bottom = np.array([-sy, cy * sx, cy * cx])
    r = np.concatenate([top, bottom[None]])
    return r.transpose(*range(2, r.ndim), 0, 1)


def translation_two_points(pw1, pc1, pw2, pc2, r: np.ndarray) -> np.ndarray:
    """Average the two single-point location estimates t = P_w - R @ P_c
    (leading batch axes allowed)."""
    pc = np.array([pc1, pc2], dtype=float)
    lifted = np.asarray(r, float) @ np.ascontiguousarray(pc.transpose(*range(1, pc.ndim), 0))
    return 0.5 * ((np.asarray(pw1, float) - lifted[..., 0])
                  + (np.asarray(pw2, float) - lifted[..., 1]))


# What each lifted point can fail on, in the order the checks run.
_POINT_CHECKS = (
    (ParallelLineError, "section plane is parallel to a cone generator"),
    (ValueError, "plane intercept must be positive"),
    (DegenerateConicError, "4ac - b^2 ~ 0: conic has no finite center"),
    (LineParallelToPlaneError, "viewing ray is parallel to the plane"),
    (BehindCameraError, "plane intersection is behind the camera"),
)

# Every check of `solve_pairs`, in the order it runs them; a row fails with
# the first check it does not pass.
PAIR_CHECKS = (
    (NotAConeError, "conic is not an elliptical cone with signature (+, +, -)"),
    (AmbiguousDisambiguationError, "tied pairings select different normals"),
    *_POINT_CHECKS,
    *_POINT_CHECKS,
    (GimbalLockError, "normal is parallel to the camera x-axis"),
    (DegenerateDirectionError, "inter-luminaire direction is along the world z-axis"),
    (InconsistentInputError, "heading system collapsed to zero"),
    (InconsistentInputError, f"heading residual exceeds {PSI_RESIDUAL_LIMIT:g}"),
    (InconsistentInputError, "pose is not finite"),
)


@dataclass(frozen=True)
class PairSolutions(_KernelRows):
    """Poses of N luminaire pairs, one row per pair. `failure` indexes the
    PAIR_CHECKS entry a row failed (-1: solved; the other fields of a failed
    row mean nothing); `chosen_k` holds the section slope picked for each
    observation; `psi_residual` is NaN on arcs-only rows."""

    CHECKS = PAIR_CHECKS
    rotation: np.ndarray
    translation: np.ndarray
    gap: np.ndarray
    chosen_k: np.ndarray
    psi_residual: np.ndarray
    failure: np.ndarray


def solve_pairs(coeffs, landmarks, centers, radius, vpca, k: CameraIntrinsics) -> PairSolutions:
    """Camera poses of N luminaire pairs in one pass of array operations.

    Row i solves the circle-and-arc problem (VPCA) when `vpca[i]`, else the
    arcs-only problem (OAVPA). Inputs, per row, as a `Capture` or an
    `Observations` record holds them:

    * coeffs (N, 2, 5): ellipse coefficients (a, b, c, d, e) of the first
      and second observation;
    * landmarks (N, 2, 2): center and mark pixels of the first observation,
      read on VPCA rows only;
    * centers (N, 2, 3), radius (N, 2): world centers and radii of both
      luminaires; the first one's mark is built as `LuminaireInfo.mark_w` is.

    Both cones are decomposed and the second only resolves which candidate
    normal is the real one. VPCA lifts the first luminaire's center and mark
    onto its plane and takes the heading from the center-to-mark direction
    (+y in the world); OAVPA lifts both fitted-ellipse centers, each onto its
    own plane, and takes the heading from the center-to-center direction. A
    row that fails a check leaves the other rows as they are.
    """
    vpca = np.asarray(vpca, dtype=bool)
    n = len(vpca)
    coeffs = np.asarray(coeffs, dtype=float).reshape(2 * n, 5)
    centers = np.asarray(centers, dtype=float)
    radius = np.asarray(radius, dtype=float)
    with np.errstate(all="ignore"):
        # Observations are rows 2i and 2i + 1. A cone matrix that is not
        # finite (coefficients that are not, or entries that overflow) becomes
        # diag(0, 0, 1), which is no cone, so eigh never sees a NaN.
        q = cone_matrices(coeffs, k.f)
        q[~np.isfinite(q).all(axis=(1, 2))] = np.diag([0.0, 0.0, 1.0])
        lambdas, r_a_c, _, not_cone = decompose_cones(q)
        slopes, normals = section_normals(lambdas, r_a_c)
        pick, gap, ambiguous = disambiguate(normals.reshape(n, 2, 2, 3))
        pick = pick.ravel()
        obs = np.arange(2 * n)
        chosen = slopes[obs, pick]
        b_led, parallel = plane_intercepts(lambdas, chosen, radius.ravel())

        # The observation whose plane each lifted point lies on: VPCA lifts
        # the first luminaire's center and mark, OAVPA both ellipse centers.
        on = obs - np.where(vpca, 1, 0).repeat(2) * (obs % 2)
        ellipse_xy, no_center = ellipse_centers(coeffs)
        xy = np.where(vpca[:, None, None], pixel_to_image(landmarks, k),
                      ellipse_xy.reshape(n, 2, 2))
        no_center = no_center.reshape(n, 2) & ~vpca[:, None]
        lifted, along, behind = lift_to_planes(
            xy.reshape(2 * n, 2), chosen[on], b_led[on], r_a_c[on], k.f
        )

        phi, theta, gimbal = tilt(normals[obs[::2], pick[::2]])
        second = np.where(vpca[:, None], centers[:, 0] + radius[:, :1] * _PLUS_Y, centers[:, 1])
        g = np.where(vpca[:, None], _PLUS_Y, _unit(centers[:, 1] - centers[:, 0]))
        lifted = lifted.reshape(n, 2, 3)
        cos_sin, norm, residual = heading(g, _unit(lifted[:, 1] - lifted[:, 0]),
                                          phi, theta)
        rotation = _rotations(phi, theta, cos_sin)
        t = translation_two_points(centers[:, 0], lifted[:, 0], second, lifted[:, 1],
                                   rotation)
        point_checks = np.array([
            parallel[on], ~(b_led[on] > 0), no_center.ravel(), along, behind,
        ]).reshape(5, n, 2)
        checks = np.concatenate([
            np.array([not_cone.reshape(n, 2).any(axis=1), ambiguous]),
            point_checks[:, :, 0], point_checks[:, :, 1],
            np.array([
                gimbal, ~vpca & ((g[:, :2] * g[:, :2]).sum(axis=1) < 1e-18),
                norm < 1e-12, vpca & (residual > PSI_RESIDUAL_LIMIT),
                ~np.isfinite(t).all(axis=1),
            ]),
        ])
    return PairSolutions(
        rotation=rotation, translation=t, gap=gap, chosen_k=chosen.reshape(n, 2),
        psi_residual=np.where(vpca, residual, np.nan),
        failure=np.where(checks.any(axis=0), checks.argmax(axis=0), -1),
    )


# --- pairing, and one frame through the kernel ------------------------------------

def pair_rows(lengths, ids, complete, prefer_complete: bool) -> list[tuple[int, int]]:
    """The pair the dispatcher solves in each of P sets of items, given as
    rows (lists) of contour lengths, luminaire ids and completeness; as
    indices into the set.

    Items rank by contour length (ties by luminaire id). The first of the
    pair is the best-ranked complete one (with `prefer_complete`), else the
    best-ranked one; the second is the best-ranked other item.
    """
    pairs = []
    for row_lengths, row_ids, row_complete in zip(lengths, ids, complete):
        order = sorted(range(len(row_ids)), key=lambda i: (-row_lengths[i], row_ids[i]))
        first = next((i for i in order if prefer_complete and row_complete[i]), order[0])
        pairs.append((first, next(i for i in order if i != first)))
    return pairs


def solve_vpa(observations: Observations, luminaires: Mapping[str, LuminaireInfo],
              k: CameraIntrinsics) -> PoseEstimate:
    """The pose of one frame: circle-and-arc when the pair that `pair_rows`
    picks (preferring a complete capture) starts with a complete one, else
    arcs-only; one `solve_pairs` row. The estimate's algorithm tag records
    which solver ran. Raises TooFewLuminairesError below two observations,
    UnknownLuminaireError for a pair id absent from `luminaires`, and the
    error of the first check the row fails."""
    obs = observations
    if len(obs.luminaire) < 2:
        raise TooFewLuminairesError(f"need at least 2 observations, got {len(obs.luminaire)}")
    both = list(pair_rows([obs.contour_px.tolist()], [obs.luminaire.tolist()],
                          [obs.complete.tolist()], True)[0])
    pair = []
    for lum_id in obs.luminaire[both].tolist():
        if lum_id not in luminaires:
            raise UnknownLuminaireError(f"luminaire id {lum_id!r} not in scene")
        pair.append(luminaires[lum_id])
    vpca = bool(obs.complete[both[0]])
    sol = solve_pairs(obs.coefficients[both][None], obs.landmarks[both[:1]],
                      [[lum.center_w for lum in pair]], [[lum.radius for lum in pair]], [vpca], k)
    error = sol.error(0)
    if error is not None:
        raise error
    return PoseEstimate(pose=Pose(rotation=sol.rotation[0], translation=sol.translation[0]),
                        algorithm="VPCA" if vpca else "OAVPA", gap=float(sol.gap[0]),
                        psi_residual=float(sol.psi_residual[0]))


# --- point-correspondence baseline: N problems at once --------------------------

# Every check of `pnp_solve`, in the order it runs them; a row fails with the
# first check it does not pass.
PNP_CHECKS = (
    (ValueError, "need at least 4 correspondences"),
    (ValueError, "correspondences are not finite"),
    (ValueError, "world points are collinear"),
    (NonConvergenceError, f"PnP residual exceeds {PNP_FAIL_RMS:g} px after restarts"),
)

# Gauss-Newton with Levenberg-Marquardt damping (Moré, The Levenberg-Marquardt
# algorithm: implementation and theory, 1978). Each iteration tries one step,
# the solution s of (JᵀJ + λD) s = -Jᵀr with D = diag(JᵀJ) floored at 1e-12,
# and takes it when it strictly lowers the cost. D carries the units of JᵀJ,
# so λ is a pure number. Each lane has its own λ, starting at `_LAMBDA_0`,
# and its own ν, both updated as in Nielsen (IMM-REP-1999-05): a step taken
# scales λ by max(1/3, 1 - (2ρ - 1)³), ρ the cost reduction over the one the
# damped model predicts, and resets ν to 2; a step refused scales λ by ν and
# doubles ν.
# A lane stops where it is when its Jacobian is rank deficient or when the
# reduction the undamped model predicts is at most `_GAIN_TOL` of its cost
# (MINPACK's ftol: Moré, Garbow & Hillstrom, User Guide for MINPACK-1, 1980):
# neither depends on λ. It also stops after a step taken shorter than
# `_STEP_TOL`, after `_MAX_ITERATIONS` iterations (refused steps count), or
# once λ is no longer below `_LAMBDA_MAX`.
_LAMBDA_0 = 1.0
_LAMBDA_MAX = 1e16
_STEP_TOL = 1e-10
_GAIN_TOL = 1e-8
_MAX_ITERATIONS = 100
_EYE6 = np.eye(6)
# Restart headings of the upright init, in the order they run: +90, +180, +270 degrees.
_RESTART_PSI = np.array([_wrap_angle(0.5 * math.pi * turn) for turn in (1, 2, 3)])


@dataclass(frozen=True)
class PnpSolutions(_KernelRows):
    """Poses of N point-correspondence problems, one row per problem.
    `failure` indexes the PNP_CHECKS entry a row failed (-1: solved; rows
    that fail before Gauss-Newton runs hold NaN, 0 and False). `rms_px` is
    the reprojection RMS of the attempt kept, `iterations` its Gauss-Newton
    iterations (refused steps count) and `above_plane` whether it puts the
    camera at or above the lowest world point."""

    CHECKS = PNP_CHECKS
    rotation: np.ndarray
    translation: np.ndarray
    rms_px: np.ndarray
    iterations: np.ndarray
    above_plane: np.ndarray
    failure: np.ndarray


def _matmul(a, b) -> np.ndarray:
    """a @ b over an inner dimension of 3, summed in one fixed order, so
    that no row's result depends on the rows stacked beside it."""
    return (a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]
            + a[..., :, 2, None] * b[..., None, 2, :])


def _pnp_rotations(x) -> np.ndarray:
    """Rz(psi) @ Ry(theta) @ Rx(phi) (..., 3, 3) of pose parameters x (..., 6)."""
    return _rotations(x[..., 0], x[..., 1], (np.cos(x[..., 2]), np.sin(x[..., 2])))


def _camera_frame(x, world):
    """Rotations R (..., 3, 3) of pose parameters x (..., 6) = (phi, theta,
    psi, t), and the offsets d = world - t and camera coordinates d @ R
    (..., P, 3) of world points (..., P, 3)."""
    r = _pnp_rotations(x)
    d = world - x[..., None, 3:]
    return r, d, _matmul(d, r)


def _reprojection(cam, pixels, k: CameraIntrinsics) -> np.ndarray:
    """`pnp_residuals` from the camera coordinates of the world points."""
    u, v = camera_to_pixel(cam, np.maximum(cam[..., 2], 1e-6), k)  # finite behind the camera
    return np.concatenate([u - pixels[..., 0], v - pixels[..., 1]], axis=-1)


def pnp_residuals(x, world, pixels, k: CameraIntrinsics) -> np.ndarray:
    """Pixel reprojection errors (..., 2P), every point's u and then every
    point's v, of world points (..., P, 3) against their pixels (..., P, 2)
    under pose parameters x (..., 6) = (phi, theta, psi, t)."""
    return _reprojection(_camera_frame(x, world)[2], pixels, k)


def pnp_jacobian(x, world, k: CameraIntrinsics) -> np.ndarray:
    """Analytic Jacobian (M, 2P, 6) of `pnp_residuals` with respect to
    (phi, theta, psi, t), for x (M, 6) and world points (M, P, 3)."""
    return _jacobian(x[:, 2], *_camera_frame(x, world), k)


def _jacobian(psi, r, d, cam, k: CameraIntrinsics) -> np.ndarray:
    """`pnp_jacobian` from the headings (M,) and the `_camera_frame` of x.

    A pixel coordinate's gradient over the camera coordinates is
    g = f (e_x - (x / z) e_z) / z for u (e_y and y for v); where the depth is
    clamped behind the camera it is constant, so the e_z term vanishes. With
    cam = Rᵀ d, d = world - t, a turn about a world axis a moves the pixel by
    a . ((R g) x d), and t_j moves it by -(R g)_j. R = Rz(psi) Ry(theta)
    Rx(phi) turns phi about R e_x, theta about Rz e_y = (-sin psi, cos psi, 0)
    and psi about e_z. See Hartley & Zisserman, Multiple View Geometry, 2nd
    ed., A6.
    """
    z = np.maximum(cam[..., 2], 1e-6)
    # x / z and y / z where the depth is live, else 0, and f / z in pixels: (M, 2, P).
    ratio = cam[..., :2].transpose(0, 2, 1) * ((cam[..., 2] > 1e-6) / z)[:, None]
    focal = np.array([[k.f / k.dx], [k.f / k.dy]]) / z[:, None]
    # R g for u and v: (M, 2, P, 3).
    rg = focal[..., None] * (r.transpose(0, 2, 1)[:, :2, None]
                             - ratio[..., None] * r[:, None, None, :, 2])
    g0, g1, g2 = rg[..., 0], rg[..., 1], rg[..., 2]
    d0, d1, d2 = d[:, None, :, 0], d[:, None, :, 1], d[:, None, :, 2]
    turn0, turn1, turn2 = g1 * d2 - g2 * d1, g2 * d0 - g0 * d2, g0 * d1 - g1 * d0
    axis = r[:, None, None, :, 0]  # R e_x
    jac = np.empty(rg.shape[:3] + (6,))  # (M, u or v, point, parameter)
    jac[..., 0] = turn0 * axis[..., 0] + turn1 * axis[..., 1] + turn2 * axis[..., 2]
    jac[..., 1] = np.cos(psi)[:, None, None] * turn1 - np.sin(psi)[:, None, None] * turn0
    jac[..., 2] = turn2
    np.negative(rg, out=jac[..., 3:])
    return jac.reshape(len(r), -1, 6)


def _qr_model(aug):
    """The Gauss-Newton model of lanes aug = [J | r] (M, 2P, 7), from one
    batched QR: R's leading 6x6 block R6, transposed in the lower triangle of
    a (M, 6, 6) block, the first six entries c of R's last column, and which
    lanes are rank deficient. R6 @ s = -c gives the step that minimises
    |J s + r|, and |c|^2 the cost reduction it predicts. A lane is rank
    deficient when some |R6_ii| is at or below eps * max(2P, 6) times its
    largest |R6_jj|."""
    n = aug.shape[2] - 1
    rt = np.linalg.qr(aug, mode="raw")[0]  # R transposed, with reflectors above its diagonal
    diag = np.abs(np.diagonal(rt[:, :n, :n], axis1=1, axis2=2))
    singular = (diag <= _EPS * max(aug.shape[1], n) * diag.max(axis=1, keepdims=True)).any(axis=1)
    return rt[:, :n, :n], rt[:, n, :n], singular


def _homography_inits(pixels, centroid, centered, svals, vt, k: CameraIntrinsics):
    """Closed-form pose candidates (M, 6) for coplanar world points, and which
    rows have one.

    Fits each row's plane-to-image homography by DLT (one (M, 2P, 9) SVD) and
    decomposes it into a rotation and translation (cheirality fixed so the
    plane sits in front of the camera). A row has no candidate when its
    points are not coplanar enough, the decomposition degenerates or the
    pose puts a point at or behind the depth `_reprojection` clamps to: there
    the point's pixel is some 1e8 px off and its Jacobian row some 1e9, and a
    damped lane started there does not leave. A candidate seeds Gauss-Newton,
    nothing more. `centered` holds the world points less their `centroid`,
    `svals` and `vt` its SVD.
    """
    m, p = pixels.shape[:2]
    ex, ey = vt[:, 0], vt[:, 1]
    sx = _matmul(centered, ex[:, :, None])[..., 0]
    sy = _matmul(centered, ey[:, :, None])[..., 0]
    mx, my = np.moveaxis(pixel_to_image(pixels, k) / k.f, -1, 0)
    zero, one = np.zeros_like(sx), np.ones_like(sx)
    dlt = np.stack([
        np.stack([sx, sy, one, zero, zero, zero, -mx * sx, -mx * sy, -mx], axis=-1),
        np.stack([zero, zero, zero, sx, sy, one, -my * sx, -my * sy, -my], axis=-1),
    ], axis=2).reshape(m, 2 * p, 9)
    h = np.linalg.svd(dlt)[2][:, -1].reshape(m, 3, 3)

    norms = np.sqrt(h[:, 0] ** 2 + h[:, 1] ** 2 + h[:, 2] ** 2)
    scale = 0.5 * (norms[:, 0] + norms[:, 1])
    has = (svals[:, 2] <= 1e-6 * svals[:, 0]) & (scale >= 1e-12)
    h = h / np.where(has, scale, 1.0)[:, None, None]
    h = np.where(h[:, 2:, 2:] < 0, -h, h)  # plane origin must be in front of the camera
    a, b = h[:, :, 0], h[:, :, 1]
    u, _, vh = np.linalg.svd(np.stack([a, b, np.cross(a, b)], axis=-1))
    vh[:, 2] *= np.where(np.linalg.det(_matmul(u, vh)) < 0, -1.0, 1.0)[:, None]
    q = _matmul(u, vh)
    # q = R^T @ [ex ey n]; recover the camera rotation and position.
    basis = np.stack([ex, ey, np.cross(ex, ey)], axis=-1)
    rotation = _matmul(basis, q.transpose(0, 2, 1))
    t_pose = centroid - _matmul(rotation, h[:, :, 2:])[..., 0]
    x0 = np.concatenate([[angles_from_rotation(r) for r in rotation.tolist()], t_pose], axis=1)
    # A point's depth: the offset of the plane origin, h's third column, along
    # the optical axis plus its own offset from the origin along that axis.
    depth = _matmul(centered, rotation[:, :, 2:])[..., 0] + h[:, 2:, 2]
    return x0, has & np.isfinite(x0).all(axis=1) & (depth > 1e-6).all(axis=1)


def _damped_model(jac, res, cost):
    """What the damped loop keeps of lanes with Jacobians jac (M, 2P, 6),
    residuals res (M, 2P) and costs (M,): JᵀJ (M, 6, 6), its diagonal
    floored at 1e-12 as the damping scales D (M, 6), -Jᵀr (M, 6, 1), and
    whether each lane stops where it is: it is rank deficient, or the
    undamped model predicts a cost reduction of at most `_GAIN_TOL` times
    its cost (`_qr_model`). JᵀJ and -Jᵀr come from one Gram product of
    [J | r]: forming them as R6ᵀR6 and -R6ᵀc from the QR ran slower."""
    n = jac.shape[2]
    aug = np.concatenate([jac, res[:, :, None]], axis=2)
    _, c, singular = _qr_model(aug)
    gram = aug.transpose(0, 2, 1) @ aug
    normal = gram[:, :n, :n]
    return (normal, np.maximum(np.diagonal(normal, axis1=1, axis2=2), 1e-12),
            -gram[:, :n, n:], singular | ~((c * c).sum(axis=1) > _GAIN_TOL * cost))


def _damped_steps(normal, scale, neg_grad, lam):
    """The steps (M, 6) that solve (JᵀJ + λD) s = -Jᵀr, one batched 6x6
    solve, from `_damped_model`'s JᵀJ, D and -Jᵀr and each lane's λ (M,)."""
    return np.linalg.solve(normal + _EYE6 * (lam[:, None] * scale)[:, None], neg_grad)[..., 0]


def _gauss_newton(x, world, pixels, k: CameraIntrinsics):
    """Damped Gauss-Newton lanes from parameters x (L, 6), each with its world
    points (L, P, 3) and pixels (L, P, 2); returns each lane's parameters
    (L, 6), cost and iterations at its stop. The step rule and the stops are
    those of the comment above `_LAMBDA_0`. A lane's Jacobian is formed again
    only after a step it takes."""
    out_x, out_cost, out_iters = np.empty_like(x), np.empty(len(x)), np.empty(len(x), int)
    lane = np.arange(len(x))
    r, d, cam = _camera_frame(x, world)
    res = _reprojection(cam, pixels, k)
    cost = (res * res).sum(axis=1)
    normal, scale, neg_grad, stop = _damped_model(_jacobian(x[:, 2], r, d, cam, k), res, cost)
    lam = np.full(len(x), _LAMBDA_0)
    nu = np.full(len(x), 2.0)
    done = np.zeros(len(x), dtype=bool)
    iters = 0
    while True:
        iters += 1
        # A lane done after its last step counts that step's iteration; one
        # whose model says stop counts this one.
        end = stop | done
        if end.any():
            out_x[lane[end]], out_cost[lane[end]], out_iters[lane[end]] = (
                x[end], cost[end], iters - done[end])
            go = ~end
            lane, x, cost, lam, nu, normal, scale, neg_grad, world, pixels = (
                a[go] for a in (lane, x, cost, lam, nu, normal, scale, neg_grad, world, pixels))
            if not len(lane):
                return out_x, out_cost, out_iters
        step = _damped_steps(normal, scale, neg_grad, lam)
        trial = x + step
        r, d, cam = _camera_frame(trial, world)
        res = _reprojection(cam, pixels, k)
        trial_cost = (res * res).sum(axis=1)
        taken = trial_cost < cost
        # rho: the cost reduction over the damped model's, s . (λ D s - Jᵀr).
        predicted = (step * (lam[:, None] * scale * step + neg_grad[..., 0])).sum(axis=1)
        rho = (cost - trial_cost) / predicted
        lam = lam * np.where(taken, np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3), nu)
        nu = np.where(taken, 2.0, 2 * nu)
        x = np.where(taken[:, None], trial, x)
        cost = np.where(taken, trial_cost, cost)
        done = ((taken & ((step * step).sum(axis=1) < _STEP_TOL ** 2))
                | (iters == _MAX_ITERATIONS) | ~(lam < _LAMBDA_MAX))
        stop = np.zeros(len(lane), dtype=bool)
        if not taken.any():
            continue
        moved = slice(None) if taken.all() else np.flatnonzero(taken)
        normal[moved], scale[moved], neg_grad[moved], stop[moved] = _damped_model(
            _jacobian(trial[moved, 2], r[moved], d[moved], cam[moved], k), res[moved],
            cost[moved])


def _refine(world, pixels, centroid, centered, svals, vt, k: CameraIntrinsics):
    """Gauss-Newton over every attempt of M rows; returns the parameters
    (M, 6), cost, iterations and plane flag of each row's best attempt.

    One `_gauss_newton` call runs every row's upright init and the homography
    init of each row that has one. Then, for each heading of `_RESTART_PSI`
    in turn, one call retries from the upright pose at that heading the rows
    whose best is above the plane or has an RMS not at or under
    `PNP_RESTART_RMS`. The upright attempt is the first best; a later one
    wins when it is below the plane and the best is not, or on the same side
    with a strictly lower cost.
    """
    m, p = world.shape[:2]
    base = np.zeros((m, 6))
    base[:, 3:] = centroid
    base[:, 5] -= 2.0
    h_init, has_h = _homography_inits(pixels, centroid, centered, svals, vt, k)
    ceiling = world[:, :, 2].min(axis=1)

    def keep(row, x, cost, iters):
        """Make attempts x (L, 6) of rows `row` their best where they win."""
        x_above = x[:, 5] >= ceiling[row]
        wins = (x_above < above[row]) | ((x_above == above[row]) & (cost < best_cost[row]))
        row = row[wins]
        best_x[row], best_cost[row], best_iters[row], above[row] = (
            x[wins], cost[wins], iters[wins], x_above[wins])

    row = np.concatenate([np.arange(m), np.flatnonzero(has_h)])
    x, cost, iters = _gauss_newton(np.concatenate([base, h_init[has_h]]), world[row],
                                   pixels[row], k)
    best_x, best_cost, best_iters = x[:m].copy(), cost[:m].copy(), iters[:m].copy()
    above = best_x[:, 5] >= ceiling
    keep(row[m:], x[m:], cost[m:], iters[m:])
    for psi in _RESTART_PSI:
        row = np.flatnonzero(above | ~(np.sqrt(best_cost / (2 * p)) <= PNP_RESTART_RMS))
        if not len(row):
            break
        x0 = base[row]
        x0[:, 2] = psi
        keep(row, *_gauss_newton(x0, world[row], pixels[row], k))
    return best_x, best_cost, best_iters, above


def pnp_solve(world, pixels, k: CameraIntrinsics) -> PnpSolutions:
    """Gauss-Newton camera poses of N point-correspondence problems at once.

    Row i minimizes the summed squared pixel reprojection error of world
    points world[i] (P, 3) against their pixels pixels[i] (P, 2) over the six
    pose parameters by damped Gauss-Newton (Levenberg-Marquardt), one trial
    step per iteration, stopping when the undamped step's predicted reduction
    is at most 1e-8 of the cost, after a step under 1e-10 or after 100
    iterations, refused steps included. Each row refines the upright pose 2 m
    under the centroid of its points (deliberately ignorant of the true pose)
    and, for coplanar points, a closed-form homography pose: the upright init
    alone strands Gauss-Newton in spurious local minima for strongly tilted
    views. Planar targets also admit a mirror pose on the far side of the
    target plane; the camera is below the luminaires, so attempts below the
    plane win over those above it regardless of residual, then the lower cost
    wins, then the earlier attempt. The heading is the least observable
    parameter from a ceiling view, so while a row's best is above the plane or
    has an RMS above `PNP_RESTART_RMS` pixels, it retries from the upright
    pose with its heading turned by 90, 180 and 270 degrees in turn. A row
    whose best RMS still exceeds `PNP_FAIL_RMS` fails.

    A row that fails a check leaves the other rows as they are, and each row
    is solved on its own: its result is the same, bit for bit, in a batch of
    any size.
    """
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    n, p = world.shape[:2]
    finite = np.isfinite(world).all(axis=(1, 2)) & np.isfinite(pixels).all(axis=(1, 2))
    # A NaN would make every batched SVD raise, so bad rows are zeroed first.
    world = np.where(finite[:, None, None], world, 0.0)
    pixels = np.where(finite[:, None, None], pixels, 0.0)
    collinear = np.ones(n, dtype=bool)  # with fewer than 4 points no row is solved
    if p >= 4:
        centroid = world.mean(axis=1)
        centered = world - centroid[:, None]
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        collinear = svals[:, 1] <= 1e-9 * np.maximum(svals[:, 0], 1.0)

    x = np.full((n, 6), np.nan)
    rms = np.full(n, np.nan)
    iterations = np.zeros(n, dtype=int)
    above = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(finite & ~collinear)
    if len(rows):
        x[rows], cost, iterations[rows], above[rows] = _refine(
            world[rows], pixels[rows], centroid[rows], centered[rows], svals[rows],
            vt[rows], k)
        rms[rows] = np.sqrt(cost / (2 * p))
    checks = np.array([np.full(n, p < 4), ~finite, collinear, ~(rms <= PNP_FAIL_RMS)])
    return PnpSolutions(
        rotation=_pnp_rotations(x), translation=x[:, 3:], rms_px=rms,
        iterations=iterations, above_plane=above,
        failure=np.where(checks.any(axis=0), checks.argmax(axis=0), -1),
    )
