"""Pose and location estimators for circular-luminaire positioning.

Two geometric solvers plus a dispatcher and a generic baseline:

* the circle-and-arc solver needs one *complete* luminaire image (its center
  and mark projections are readable) and a second arc to break the
  orientation duality;
* the arcs-only solver works from two partial contours, approximating each
  center projection by the fitted ellipse's center, at the cost of a small
  perspective bias;
* the dispatcher picks between them based on what was captured;
* a Gauss-Newton reprojection-error minimizer over >= 4 world/pixel
  correspondences serves as the comparison baseline.

Both geometric solvers are one array kernel, `solve_pairs`, which takes N
luminaire pairs from ellipse coefficients to poses at once; the Monte Carlo
harness runs a whole experiment through it, and `solve_vpca`, `solve_oavpa`
and `solve_vpa` call it with a batch of one. The baseline is a second array
kernel, `pnp_solve`, which runs Gauss-Newton on N correspondence sets at
once; the harness runs every PNP sample of an experiment through it, and
`pnp_baseline` calls it with a batch of one.

World knowledge (luminaire centers, radii, mark orientation) arrives with the
observation ids, the way an optical broadcast channel would deliver it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .conic import (
    EllipseCoeffs,
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
    pixel_to_image,
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
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        center = np.asarray(self.center_w, dtype=float)
        _freeze(self, center_w=center, mark_w=center + self.radius * _PLUS_Y)

    def circle_points(self, angles) -> np.ndarray:
        """World points on the margin at the given parameter angles.

        The mark point is at angle pi/2.
        """
        a = np.atleast_1d(np.asarray(angles, dtype=float))
        ring = np.stack(
            [np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1
        ) * self.radius
        return self.center_w + ring


@dataclass(frozen=True)
class Observation:
    """One luminaire as seen in the (averaged) image.

    `complete` means the whole contour plus the center and mark projections
    were readable; partial captures carry only the fitted ellipse. The
    averaged contour pixels and their circle parameters tag along for arc
    ranking and for point-correspondence baselines.
    """

    luminaire_id: str
    ellipse: EllipseCoeffs
    complete: bool = False
    center_proj: np.ndarray | None = None
    mark_proj: np.ndarray | None = None
    contour_pixels: np.ndarray | None = None
    contour_angles: np.ndarray | None = None

    def __post_init__(self):
        if self.complete and (self.center_proj is None or self.mark_proj is None):
            raise ValueError("complete observation requires center and mark points")
        arrays = {}
        for name in ("center_proj", "mark_proj", "contour_pixels", "contour_angles"):
            value = getattr(self, name)
            if value is not None:
                arrays[name] = value
        _freeze(self, **arrays)

    @property
    def contour_px(self) -> float:
        """Approximate pixel length of the extracted contour (0 when unknown);
        see `contour_lengths`."""
        p = self.contour_pixels
        return 0.0 if p is None else float(contour_lengths(p[None], [len(p)])[0])


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
    """Solver output: pose, which algorithm produced it, and diagnostics."""

    pose: Pose
    algorithm: str
    diagnostics: dict = field(default_factory=dict)


def _luminaire_map(lums) -> Mapping[str, LuminaireInfo]:
    if isinstance(lums, Mapping):
        return lums
    return {lum.id: lum for lum in lums}


def _resolve(lums: Mapping[str, LuminaireInfo], lum_id: str) -> LuminaireInfo:
    try:
        return lums[lum_id]
    except KeyError:
        raise UnknownLuminaireError(f"luminaire id {lum_id!r} not in scene") from None


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
    lifted = np.asarray(r, float) @ np.stack([pc1, pc2], axis=-1).astype(float)
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
    (ValueError, "pose is not finite"),
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


def solve_pairs(coeffs, points, centers, marks, radius, vpca, f: float) -> PairSolutions:
    """Camera poses of N luminaire pairs in one pass of array operations.

    Row i solves the circle-and-arc problem (VPCA) when `vpca[i]`, else the
    arcs-only problem (OAVPA). Inputs, per row:

    * coeffs (N, 2, 5): ellipse coefficients (a, b, c, d, e) of the first
      and second observation;
    * points (N, 2, 2): image-plane center and mark (cm) of the first
      observation, read on VPCA rows only;
    * centers (N, 2, 3): world centers of both luminaires; marks (N, 3):
      world mark of the first; radius (N, 2): both radii.

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
    with np.errstate(all="ignore"):
        # Observations are rows 2i and 2i + 1. A zero row builds diag(0, 0, 1),
        # which is no cone, so eigh never sees a NaN.
        finite = np.isfinite(coeffs).all(axis=1)
        coeffs = np.where(finite[:, None], coeffs, 0.0)
        lambdas, r_a_c, _, not_cone = decompose_cones(cone_matrices(coeffs, f))
        slopes, normals = section_normals(lambdas, r_a_c)
        pick, gap, ambiguous = disambiguate(normals.reshape(n, 2, 2, 3))
        pick = pick.ravel()
        obs = np.arange(2 * n)
        k = slopes[obs, pick]
        b_led, parallel = plane_intercepts(lambdas, k, np.asarray(radius, float).ravel())

        # The observation whose plane each lifted point lies on: VPCA lifts
        # the first luminaire's center and mark, OAVPA both ellipse centers.
        on = obs - np.where(vpca, 1, 0).repeat(2) * (obs % 2)
        ellipse_xy, no_center = ellipse_centers(coeffs)
        xy = np.where(vpca[:, None, None], points, ellipse_xy.reshape(n, 2, 2))
        no_center = no_center.reshape(n, 2) & ~vpca[:, None]
        lifted, along, behind = lift_to_planes(
            xy.reshape(2 * n, 2), k[on], b_led[on], r_a_c[on], f
        )

        phi, theta, gimbal = tilt(normals[obs[::2], pick[::2]])
        second = np.where(vpca[:, None], marks, centers[:, 1])
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
        rotation=rotation, translation=t, gap=gap, chosen_k=k.reshape(n, 2),
        psi_residual=np.where(vpca, residual, np.nan),
        failure=np.where(checks.any(axis=0), checks.argmax(axis=0), -1),
    )


# --- one pair at a time: batches of one -----------------------------------------

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


def pair_observations(items, prefer_complete: bool = True) -> tuple[int, int]:
    """`pair_rows` of one set of items (observations or visibilities:
    anything with `contour_px`, `luminaire_id` and `complete`), as indices
    into `items`."""
    return pair_rows([[item.contour_px for item in items]],
                     [[item.luminaire_id for item in items]],
                     [[item.complete for item in items]], prefer_complete)[0]


def pair_inputs(coeffs, landmarks, pairs, k: CameraIntrinsics, vpca) -> dict:
    """The `solve_pairs` inputs (all but `f`) of S luminaire pairs: both
    observations' ellipse coefficients (S, 2, 5), the first one's center and
    mark pixels (S, 2, 2), read on the rows where `vpca` (S,), and each
    pair's two `LuminaireInfo`."""
    vpca = np.asarray(vpca, dtype=bool)
    return dict(
        coeffs=np.asarray(coeffs, dtype=float),
        points=np.where(vpca[:, None, None], pixel_to_image(landmarks, k), np.nan),
        centers=np.array([[a.center_w, b.center_w] for a, b in pairs]).reshape(-1, 2, 3),
        marks=np.array([a.mark_w for a, _ in pairs]).reshape(-1, 3),
        radius=np.array([[a.radius, b.radius] for a, b in pairs]).reshape(-1, 2),
        vpca=vpca,
    )


def _solve_pair(first: Observation, second: Observation, lums,
                k: CameraIntrinsics, vpca: bool) -> PoseEstimate:
    lum_map = _luminaire_map(lums)
    pair = (_resolve(lum_map, first.luminaire_id), _resolve(lum_map, second.luminaire_id))
    landmarks = [first.center_proj, first.mark_proj] if vpca else np.zeros((2, 2))
    sol = solve_pairs(**pair_inputs(
        [[first.ellipse.coefficients, second.ellipse.coefficients]], [landmarks], [pair], k,
        [vpca]), f=k.f)
    error = sol.error(0)
    if error is not None:
        raise error
    diagnostics = {
        "gap": float(sol.gap[0]),
        "chosen_k": {
            first.luminaire_id: float(sol.chosen_k[0, 0]),
            second.luminaire_id: float(sol.chosen_k[0, 1]),
        },
    }
    if vpca:
        diagnostics["psi_residual"] = float(sol.psi_residual[0])
    return PoseEstimate(
        pose=Pose(rotation=sol.rotation[0], translation=sol.translation[0]),
        algorithm="VPCA" if vpca else "OAVPA",
        diagnostics=diagnostics,
    )


def solve_vpca(
    obs_complete: Observation,
    obs_other: Observation,
    lums,
    k: CameraIntrinsics,
) -> PoseEstimate:
    """Pose from one complete luminaire image plus a disambiguating arc.

    The complete image supplies the true center and mark projections; the
    second arc only resolves which of the two cone sections is the real
    luminaire plane.
    """
    if not obs_complete.complete:
        raise ValueError("first observation must be complete (center and mark known)")
    return _solve_pair(obs_complete, obs_other, lums, k, vpca=True)


def solve_oavpa(
    obs1: Observation,
    obs2: Observation,
    lums,
    k: CameraIntrinsics,
) -> PoseEstimate:
    """Pose from two partial arcs, using fitted-ellipse centers as stand-ins
    for the (unobservable) center projections.

    The stand-in introduces a small perspective bias even at zero noise; what
    it buys is independence from occlusions of the coded center/mark points.
    """
    if obs1.luminaire_id == obs2.luminaire_id:
        raise ValueError("observations must reference two distinct luminaires")
    return _solve_pair(obs1, obs2, lums, k, vpca=False)


def solve_vpa(
    observations: Sequence[Observation],
    lums,
    k: CameraIntrinsics,
) -> PoseEstimate:
    """Dispatch: circle-and-arc when any capture is complete, else arcs-only.

    The pair comes from `pair_observations`. The returned estimate's
    algorithm tag records which solver actually ran.
    """
    if len(observations) < 2:
        raise TooFewLuminairesError(
            f"need at least 2 observations, got {len(observations)}"
        )
    first, second = pair_observations(observations)
    solve = solve_vpca if observations[first].complete else solve_oavpa
    return solve(observations[first], observations[second], lums, k)


# --- point-correspondence baseline: N problems at once --------------------------

# Every check of `pnp_solve`, in the order it runs them; a row fails with the
# first check it does not pass.
PNP_CHECKS = (
    (ValueError, "need at least 4 correspondences"),
    (ValueError, "correspondences are not finite"),
    (ValueError, "world points are collinear"),
    (NonConvergenceError, f"PnP residual exceeds {PNP_FAIL_RMS:g} px after restarts"),
)

# Gauss-Newton tries each step at full length and then halved, 12 lengths in
# all, and stops at a step norm under 1e-10 or after 100 iterations.
_STEP_SCALES = np.ldexp(1.0, -np.arange(12))
_STEP_TOL = 1e-10
_MAX_ITERATIONS = 100
# A row's attempt slots, in the order they rank on a tie: the upright init,
# the homography init, then the upright init with its heading turned by +90,
# +180 and +270 degrees.
_RESTART_PSI = np.array([_wrap_angle(0.5 * math.pi * turn) for turn in (1, 2, 3)])
_ATTEMPTS = 2 + len(_RESTART_PSI)


@dataclass(frozen=True)
class PnpSolutions(_KernelRows):
    """Poses of N point-correspondence problems, one row per problem.
    `failure` indexes the PNP_CHECKS entry a row failed (-1: solved; rows
    that fail before Gauss-Newton runs hold NaN, 0 and False). `rms_px` is
    the reprojection RMS of the attempt kept, `iterations` its Gauss-Newton
    iterations and `above_plane` whether it puts the camera at or above the
    lowest world point."""

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
    z = np.maximum(cam[..., 2], 1e-6)  # keep residuals finite behind the camera
    u = (k.f * cam[..., 0] / z) / k.dx + k.u0
    v = (k.f * cam[..., 1] / z) / k.dy + k.v0
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

    Chain rule through R = Rz(psi) Ry(theta) Rx(phi), cam = d @ R with
    d = world - t, and the pinhole division. With dR/dphi = R [e_x]x,
    dR/dtheta = [Rz e_y]x R and dR/dpsi = [e_z]x R, d cam / d phi is
    (0, cam_z, -cam_y), d cam / d theta is (-d_z c, -d_z s, d_x c + d_y s) @ R
    for (c, s) = (cos psi, sin psi), d cam / d psi is (d_y, -d_x, 0) @ R and
    d cam / d t_j is -R[j] for every point. Where the depth is clamped behind
    the camera it is constant, so its derivative term vanishes. See Hartley &
    Zisserman, Multiple View Geometry, 2nd ed., A6.
    """
    c, s = np.cos(psi)[:, None, None], np.sin(psi)[:, None, None]
    r0, r1, r2 = r[:, None, 0], r[:, None, 1], r[:, None, 2]
    d0, d1, d2 = d[..., 0, None], d[..., 1, None], d[..., 2, None]
    dcam = np.empty((len(r), 6) + cam.shape[1:])  # (M, parameter, point, xyz)
    dcam[:, 0, :, 0] = 0.0
    dcam[:, 0, :, 1] = cam[..., 2]
    dcam[:, 0, :, 2] = -cam[..., 1]
    dcam[:, 1] = (d0 * c + d1 * s) * r2 - d2 * (c * r0 + s * r1)
    dcam[:, 2] = d1 * r0 - d0 * r1
    dcam[:, 3:] = -r[:, :, None]
    live = cam[:, None, :, 2:] > 1e-6
    z = np.where(live, cam[:, None, :, 2:], 1e-6)
    duv = (dcam[..., :2] - cam[:, None, :, :2] / z * (dcam[..., 2:] * live)) / z
    duv *= k.f / np.array([k.dx, k.dy])
    return duv.transpose(0, 3, 2, 1).reshape(len(r), -1, 6)


def _lstsq_steps(jac, res) -> np.ndarray:
    """The steps (M, 6) that `np.linalg.lstsq(jac[i], -res[i])` returns, from
    one batched SVD: singular values at or below eps * max(2P, 6) times the
    largest count as zero."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape[1:]) * s[:, :1]
    coef = np.divide(-(u * res[:, :, None]).sum(axis=1), s, out=np.zeros_like(s),
                     where=keep)
    return (vt * coef[:, :, None]).sum(axis=1)


def _homography_inits(pixels, centroid, centered, svals, vt, k: CameraIntrinsics):
    """Closed-form pose candidates (M, 6) for coplanar world points, and which
    rows have one.

    Fits each row's plane-to-image homography by DLT (one (M, 2P, 9) SVD) and
    decomposes it into a rotation and translation (cheirality fixed so the
    plane sits in front of the camera). A row has no candidate when its
    points are not coplanar enough or the decomposition degenerates; a
    candidate seeds Gauss-Newton, nothing more. `centered` holds the world
    points less their `centroid`, `svals` and `vt` its SVD.
    """
    m, p = pixels.shape[:2]
    ex, ey = vt[:, 0], vt[:, 1]
    sx = _matmul(centered, ex[:, :, None])[..., 0]
    sy = _matmul(centered, ey[:, :, None])[..., 0]
    mx = (pixels[..., 0] - k.u0) * k.dx / k.f
    my = (pixels[..., 1] - k.v0) * k.dy / k.f
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
    x0 = np.concatenate([[angles_from_rotation(r) for r in rotation], t_pose], axis=1)
    return x0, has & np.isfinite(x0).all(axis=1)


def _best_attempts(x_at, cost_at, ran, ceiling):
    """Each row's best attempt slot among those run, ranked by (camera at or
    above the plane, cost) with ties to the earlier slot, and its plane
    flag."""
    above = x_at[..., 5] >= ceiling[:, None]
    lane = np.arange(len(ran))
    best = np.zeros(len(ran), dtype=int)
    for slot in range(1, _ATTEMPTS):
        b_above, b_cost = above[lane, best], cost_at[lane, best]
        better = ran[:, slot] & ((above[:, slot] < b_above) | (
            (above[:, slot] == b_above) & (cost_at[:, slot] < b_cost)))
        best[better] = slot
    return best, above[lane, best]


def _lanes(row, slot, x, world, pixels, k: CameraIntrinsics) -> dict:
    """New Gauss-Newton lanes: attempt `slot` of row `row`, from parameters
    x (L, 6), with the world points and pixels of those rows."""
    r, d, cam = _camera_frame(x, world)
    res = _reprojection(cam, pixels, k)
    return dict(row=row, slot=slot, world=world, pixels=pixels, x=x, r=r, d=d,
                cam=cam, res=res, cost=(res * res).sum(axis=1),
                iters=np.zeros(len(row), dtype=int))


def _refine(world, pixels, centroid, centered, svals, vt, k: CameraIntrinsics):
    """Gauss-Newton over every attempt of M rows; returns the parameters
    (M, 6), cost, iterations and plane flag of each row's best attempt.

    Each attempt runs as one lane of an active set. Both inits start at
    once; when a row has no lane left and its best attempt so far is above
    the plane or has an RMS over `PNP_RESTART_RMS`, its next heading restart
    starts in the next iteration.
    """
    m, p = world.shape[:2]
    base = np.zeros((m, 6))
    base[:, 3:] = centroid
    base[:, 5] -= 2.0
    h_init, has_h = _homography_inits(pixels, centroid, centered, svals, vt, k)
    ceiling = world[:, :, 2].min(axis=1)
    x_at = np.zeros((m, _ATTEMPTS, 6))
    cost_at = np.full((m, _ATTEMPTS), np.inf)
    iters_at = np.zeros((m, _ATTEMPTS), dtype=int)
    ran = np.zeros((m, _ATTEMPTS), dtype=bool)

    row = np.concatenate([np.arange(m), np.flatnonzero(has_h)])
    lanes = _lanes(row, np.repeat([0, 1], [m, len(row) - m]),
                   np.concatenate([base, h_init[has_h]]), world[row], pixels[row], k)
    while len(lanes["row"]):
        x, cost = lanes["x"], lanes["cost"]
        step = _lstsq_steps(
            _jacobian(x[:, 2], lanes["r"], lanes["d"], lanes["cam"], k), lanes["res"])
        # Every step length at once; the longest that does not raise the cost wins.
        trial = x[:, None] + _STEP_SCALES[:, None] * step[:, None]
        r, d, cam = _camera_frame(trial, lanes["world"][:, None])
        res = _reprojection(cam, lanes["pixels"][:, None], k)
        trial_cost = (res * res).sum(axis=2)
        ok = np.isfinite(trial_cost) & (trial_cost <= cost[:, None])
        pick = np.arange(len(ok)), ok.argmax(axis=1)
        improved = ok[pick]
        moved = _STEP_SCALES[pick[1], None] * step
        iters = lanes["iters"] + 1
        # A lane that did not improve ends here, so only its x and cost matter.
        lanes.update(x=np.where(improved[:, None], trial[pick], x),
                     cost=np.where(improved, trial_cost[pick], cost),
                     r=r[pick], d=d[pick], cam=cam[pick], res=res[pick], iters=iters)
        done = (~improved | (np.sqrt((moved * moved).sum(axis=1)) < _STEP_TOL)
                | (iters == _MAX_ITERATIONS))
        if not done.any():
            continue
        at = lanes["row"][done], lanes["slot"][done]
        x_at[at], cost_at[at], iters_at[at] = lanes["x"][done], lanes["cost"][done], iters[done]
        ran[at] = True
        lanes = {key: value[~done] for key, value in lanes.items()}
        ended = np.setdiff1d(at[0], lanes["row"])
        if not len(ended):
            continue
        best, above = _best_attempts(x_at[ended], cost_at[ended], ran[ended],
                                     ceiling[ended])
        rms = np.sqrt(cost_at[ended, best] / (2 * p))
        following = 2 + ran[ended, 2:].sum(axis=1)
        retry = (above | ~(rms <= PNP_RESTART_RMS)) & (following < _ATTEMPTS)
        if retry.any():
            row, slot = ended[retry], following[retry]
            x0 = base[row]
            x0[:, 2] = _RESTART_PSI[slot - 2]
            new = _lanes(row, slot, x0, world[row], pixels[row], k)
            lanes = {key: np.concatenate([value, new[key]]) for key, value in lanes.items()}

    best, above = _best_attempts(x_at, cost_at, ran, ceiling)
    lane = np.arange(m)
    return x_at[lane, best], cost_at[lane, best], iters_at[lane, best], above


def pnp_solve(world, pixels, k: CameraIntrinsics) -> PnpSolutions:
    """Gauss-Newton camera poses of N point-correspondence problems at once.

    Row i minimizes the summed squared pixel reprojection error of world
    points world[i] (P, 3) against their pixels pixels[i] (P, 2) over the six
    pose parameters, stopping at step norm < 1e-10 or 100 iterations. Each
    row refines the upright pose 2 m under the centroid of its points
    (deliberately ignorant of the true pose) and, for coplanar points, a
    closed-form homography pose: the upright init alone strands Gauss-Newton
    in spurious local minima for strongly tilted views. Planar targets also
    admit a mirror pose on the far side of the target plane; the camera is
    below the luminaires, so attempts below the plane win over those above
    it regardless of residual, then the lower cost wins, then the earlier
    attempt. The heading is the least observable parameter from a ceiling
    view, so while a row's best is above the plane or has an RMS above
    `PNP_RESTART_RMS` pixels, it retries from the upright pose with its
    heading turned by 90, 180 and 270 degrees in turn. A row whose best RMS
    still exceeds `PNP_FAIL_RMS` fails.

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


def pnp_baseline(correspondences: Sequence[tuple], k: CameraIntrinsics) -> PoseEstimate:
    """Gauss-Newton pose from >= 4 (world point, pixel) correspondences:
    `pnp_solve` with a batch of one. Raises the error of the check it
    fails."""
    world = np.array([w for w, _ in correspondences], dtype=float).reshape(1, -1, 3)
    pixels = np.array([p for _, p in correspondences], dtype=float).reshape(1, -1, 2)
    sol = pnp_solve(world, pixels, k)
    error = sol.error(0)
    if error is not None:
        raise error
    return PoseEstimate(
        pose=Pose(rotation=sol.rotation[0], translation=sol.translation[0]),
        algorithm="PNP",
        diagnostics={"rms_px": float(sol.rms_px[0]),
                     "iterations": int(sol.iterations[0]),
                     "above_plane": bool(sol.above_plane[0])},
    )
