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
and `solve_vpa` call it with a batch of one.

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
    pixel_to_image,
    rot_x,
    rot_y,
    rot_z,
    rotation_from_angles,
)

DISAMBIGUATION_TIE_TOL = 1e-6
PSI_RESIDUAL_LIMIT = 1e-3

WORLD_DOWN = np.array([0.0, 0.0, -1.0])
WORLD_DOWN.flags.writeable = False
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
    mark_w: np.ndarray | None = None

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        center = np.asarray(self.center_w, dtype=float)
        mark = (
            center + np.array([0.0, self.radius, 0.0])
            if self.mark_w is None
            else np.asarray(self.mark_w, dtype=float)
        )
        offset = mark - center
        if abs(np.linalg.norm(offset) - self.radius) > 1e-9:
            raise ValueError("mark point must lie on the luminaire margin")
        if np.linalg.norm(offset / self.radius - np.array([0.0, 1.0, 0.0])) > 1e-9:
            raise ValueError("center-to-mark direction must be +y in WCS")
        _freeze(self, center_w=center, mark_w=mark)

    @property
    def normal_w(self) -> np.ndarray:
        return WORLD_DOWN

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
    def arc_length(self) -> int:
        """Number of contour points backing the fit (0 when unknown)."""
        return 0 if self.contour_pixels is None else int(len(self.contour_pixels))

    @property
    def contour_px(self) -> float:
        """Approximate pixel length of the extracted contour (0 when unknown).

        Point count times the median sample spacing; the median keeps the
        estimate stable when truncation leaves gaps in the index sequence.
        """
        p = self.contour_pixels
        if p is None or len(p) < 2:
            return 0.0
        step = p[1:] - p[:-1]
        seg = np.sqrt((step * step).sum(axis=1))
        # np.median's value, from one partition without its overhead.
        half = len(seg) // 2
        part = np.partition(seg, (max(half - 1, 0), half))
        median = part[half] if len(seg) % 2 else (part[half - 1] + part[half]) / 2.0
        return float(len(p) * median)


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
    """Rz(psi) @ Ry(theta) @ Rx(phi) (N, 3, 3), psi given by its cosine and
    sine."""
    (sx, sy), (cx, cy), (cz, sz) = np.sin([phi, theta]), np.cos([phi, theta]), cos_sin
    # The first two rows are Rz's 2x2 block times those of Ry @ Rx.
    ryx = np.array([[cy, sy * sx, sy * cx], [np.zeros_like(cx), cx, -sx]])
    top = (np.array([[cz, -sz], [sz, cz]])[:, :, None] * ryx).sum(axis=1)
    bottom = np.array([-sy, cy * sx, cy * cx])
    return np.concatenate([top, bottom[None]]).transpose(2, 0, 1)


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
class PairSolutions:
    """Poses of N luminaire pairs, one row per pair. `failure` indexes the
    PAIR_CHECKS entry a row failed (-1: solved; the other fields of a failed
    row mean nothing); `chosen_k` holds the section slope picked for each
    observation; `psi_residual` is NaN on arcs-only rows."""

    rotation: np.ndarray
    translation: np.ndarray
    gap: np.ndarray
    chosen_k: np.ndarray
    psi_residual: np.ndarray
    failure: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False

    def error(self, row: int) -> Exception | None:
        code = self.failure[row]
        if code < 0:
            return None
        cls, message = PAIR_CHECKS[code]
        return cls(message)


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

def pair_observations(items, prefer_complete: bool = True) -> tuple[int, int]:
    """The pair the dispatcher solves, as indices into `items` (observations
    or visibilities: anything with `contour_px`, `luminaire_id` and
    `complete`).

    Items rank by contour length (ties by luminaire id). The first of the
    pair is the best-ranked complete one (with `prefer_complete`), else the
    best-ranked one; the second is the best-ranked other item.
    """
    order = sorted(range(len(items)),
                   key=lambda i: (-items[i].contour_px, items[i].luminaire_id))
    first = next((i for i in order if prefer_complete and items[i].complete), order[0])
    return first, next(i for i in order if i != first)


def pair_inputs(first: Observation, second: Observation, lums,
                k: CameraIntrinsics, vpca: bool) -> dict:
    """The `solve_pairs` inputs (all but `f`) of one pair, as one-row arrays;
    UnknownLuminaireError for an id that is not in `lums`."""
    lum_map = _luminaire_map(lums)
    lum1 = _resolve(lum_map, first.luminaire_id)
    lum2 = _resolve(lum_map, second.luminaire_id)
    points = (pixel_to_image(np.stack([first.center_proj, first.mark_proj]), k) if vpca
              else np.full((2, 2), np.nan))
    return dict(
        coeffs=np.array([[first.ellipse.coefficients, second.ellipse.coefficients]]),
        points=points[None], centers=np.array([[lum1.center_w, lum2.center_w]]),
        marks=lum1.mark_w[None], radius=np.array([[lum1.radius, lum2.radius]]),
        vpca=np.array([vpca]),
    )


def _solve_pair(first: Observation, second: Observation, lums,
                k: CameraIntrinsics, vpca: bool) -> PoseEstimate:
    sol = solve_pairs(**pair_inputs(first, second, lums, k, vpca), f=k.f)
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


# --- point-correspondence baseline ------------------------------------------------

def _pnp_residuals(
    x: np.ndarray, world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics
) -> np.ndarray:
    """Stacked pixel reprojection errors for pose parameters (angles, t)."""
    r = rotation_from_angles(x[0], x[1], x[2])
    cam = (world - x[3:6]) @ r
    z = np.maximum(cam[:, 2], 1e-6)  # keep residuals finite behind the camera
    u = (k.f * cam[:, 0] / z) / k.dx + k.u0
    v = (k.f * cam[:, 1] / z) / k.dy + k.v0
    return np.concatenate([u - pixels[:, 0], v - pixels[:, 1]])


def _pnp_jacobian(
    x: np.ndarray, world: np.ndarray, k: CameraIntrinsics
) -> np.ndarray:
    """Analytic Jacobian of `_pnp_residuals` with respect to (phi, theta, psi, t).

    Chain rule through R = Rz(psi) Ry(theta) Rx(phi), cam = (world - t) @ R
    (so d cam / d t_j is -R[j] for every point) and the pinhole division.
    Where the depth is clamped behind the camera it is constant, so its
    derivative term vanishes. See Hartley & Zisserman, Multiple View
    Geometry, 2nd ed., A6.
    """
    rx, ry, rz = rot_x(x[0]), rot_y(x[1]), rot_z(x[2])
    sp, cp = math.sin(x[0]), math.cos(x[0])
    st, ct = math.sin(x[1]), math.cos(x[1])
    ss, cs = math.sin(x[2]), math.cos(x[2])
    drx = np.array([[0.0, 0.0, 0.0], [0.0, -sp, -cp], [0.0, cp, -sp]])
    dry = np.array([[-st, 0.0, ct], [0.0, 0.0, 0.0], [-ct, 0.0, -st]])
    drz = np.array([[-ss, -cs, 0.0], [cs, -ss, 0.0], [0.0, 0.0, 0.0]])
    rzy = rz @ ry
    r = rzy @ rx
    dr = np.stack([rzy @ drx, rz @ dry @ rx, drz @ ry @ rx])

    d = world - x[3:6]
    cam = d @ r
    # dcam[p, i]: derivative of point i's camera coordinates by parameter p.
    dcam = np.empty((6, len(d), 3))
    dcam[:3] = d @ dr
    dcam[3:] = -r[:, None, :]
    live = cam[:, 2] > 1e-6
    z = np.where(live, cam[:, 2], 1e-6)[:, None]
    dz = dcam[:, :, 2:] * live[:, None]
    duv = (dcam[:, :, :2] - cam[:, :2] / z * dz) / z * (k.f / np.array([k.dx, k.dy]))
    # (param, point, u/v) -> rows u_0..u_n-1, v_0..v_n-1 as in _pnp_residuals.
    return duv.transpose(2, 1, 0).reshape(-1, 6)


def _gauss_newton(
    x0: np.ndarray, world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics,
    max_iter: int = 100, step_tol: float = 1e-10,
) -> tuple[np.ndarray, float, int]:
    """Plain Gauss-Newton with the analytic reprojection Jacobian.

    Returns (parameters, final cost, iterations). Steps that increase the
    cost are halved a few times before giving up on the iteration.
    """
    x = np.array(x0, dtype=float)
    res = _pnp_residuals(x, world, pixels, k)
    cost = float(res @ res)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = _pnp_jacobian(x, world, k)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        alpha = 1.0
        improved = False
        for _ in range(12):
            x_try = x + alpha * step
            res_try = _pnp_residuals(x_try, world, pixels, k)
            cost_try = float(res_try @ res_try)
            if np.isfinite(cost_try) and cost_try <= cost:
                x, res, cost = x_try, res_try, cost_try
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        if np.linalg.norm(alpha * step) < step_tol:
            break
    return x, cost, iterations


def default_pnp_init(world: np.ndarray) -> np.ndarray:
    """Upright pose under the horizontal centroid of the used world points,
    2 m below their mean height. Deliberately ignorant of the true pose."""
    centroid = world.mean(axis=0)
    return np.array([0.0, 0.0, 0.0, centroid[0], centroid[1], centroid[2] - 2.0])


def _homography_init(
    world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics
) -> np.ndarray | None:
    """Closed-form pose candidate for coplanar world points.

    Fits the plane-to-image homography by DLT and decomposes it into a
    rotation and translation (cheirality fixed so the plane sits in front of
    the camera). Returns None when the points are not coplanar enough or the
    decomposition degenerates; the result seeds Gauss-Newton, nothing more.
    """
    p0 = world.mean(axis=0)
    centered = world - p0
    _, svals, vt = np.linalg.svd(centered)
    if svals[2] > 1e-6 * svals[0]:
        return None  # not coplanar
    ex, ey, _ = vt
    s = np.column_stack([centered @ ex, centered @ ey])

    m = np.column_stack([
        (pixels[:, 0] - k.u0) * k.dx / k.f,
        (pixels[:, 1] - k.v0) * k.dy / k.f,
    ])
    rows = []
    for (sx, sy), (mx, my) in zip(s, m):
        rows.append([sx, sy, 1, 0, 0, 0, -mx * sx, -mx * sy, -mx])
        rows.append([0, 0, 0, sx, sy, 1, -my * sx, -my * sy, -my])
    _, _, vh = np.linalg.svd(np.asarray(rows, dtype=float))
    h = vh[-1].reshape(3, 3)

    scale = 0.5 * (np.linalg.norm(h[:, 0]) + np.linalg.norm(h[:, 1]))
    if scale < 1e-12:
        return None
    h = h / scale
    if h[2, 2] < 0:
        h = -h  # plane origin must be in front of the camera
    a, b = h[:, 0], h[:, 1]
    q = np.column_stack([a, b, np.cross(a, b)])
    u, _, vh_q = np.linalg.svd(q)
    q = u @ vh_q
    if np.linalg.det(q) < 0:
        q = u @ np.diag([1.0, 1.0, -1.0]) @ vh_q
    # q = R^T @ [ex ey n]; recover the camera rotation and position.
    basis = np.column_stack([ex, ey, np.cross(ex, ey)])
    rotation = basis @ q.T
    t_pose = p0 - rotation @ h[:, 2]
    phi, theta, psi = _angles_from_rotation(rotation)
    return np.concatenate([[phi, theta, psi], t_pose])


def pnp_baseline(
    correspondences: Sequence[tuple],
    k: CameraIntrinsics,
    init: Pose | None = None,
    restart_rms: float = 2.0,
    fail_rms: float = 100.0,
) -> PoseEstimate:
    """Gauss-Newton pose from >= 4 world/pixel correspondences.

    Minimizes the summed squared pixel reprojection error over the six pose
    parameters, stopping at step norm < 1e-10 or 100 iterations. The heading
    is the least observable parameter from a ceiling view, so when the first
    run ends with an RMS above `restart_rms` pixels the solver retries from
    headings rotated by 90/180/270 degrees and keeps the best. Raises
    NonConvergenceError when the best RMS still exceeds `fail_rms`.
    """
    if len(correspondences) < 4:
        raise ValueError(f"need at least 4 correspondences, got {len(correspondences)}")
    world = np.array([np.asarray(w, float) for w, _ in correspondences])
    pixels = np.array([np.asarray(p, float) for _, p in correspondences])
    centered = world - world.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= 1e-9 * max(svals[0], 1.0):
        raise ValueError("world points are collinear")

    if init is not None:
        phi0, theta0, psi0 = _angles_from_rotation(init.rotation)
        base = np.concatenate([[phi0, theta0, psi0], init.translation])
    else:
        base = default_pnp_init(world)

    # The upright init alone strands Gauss-Newton in spurious local minima
    # for strongly tilted views, so a closed-form homography candidate is
    # always refined as well. Planar targets also admit a mirror pose on the
    # far side of the target plane; the camera is below the luminaires, so
    # below-plane solutions win over above-plane ones regardless of residual.
    inits = [base]
    h_init = _homography_init(world, pixels, k)
    if h_init is not None:
        inits.append(h_init)

    ceiling = world[:, 2].min()
    best = None  # (above_plane, cost, x, iterations)
    for attempt in range(len(inits) + 3):
        if attempt < len(inits):
            x0 = inits[attempt]
        else:
            # Fallback heading restarts from the upright init.
            x0 = base.copy()
            x0[2] = _wrap_angle(x0[2] + 0.5 * math.pi * (attempt - len(inits) + 1))
        x, cost, iters = _gauss_newton(x0, world, pixels, k)
        candidate = (x[5] >= ceiling, cost, x, iters)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
        converged = not best[0] and math.sqrt(best[1] / pixels.size) <= restart_rms
        if converged and attempt + 1 >= len(inits):
            break

    above, best_cost, best_x, best_iters = best
    rms = math.sqrt(best_cost / pixels.size)
    if not np.isfinite(rms) or rms > fail_rms:
        raise NonConvergenceError(f"PnP residual {rms:.3g} px after restarts")
    rotation = rotation_from_angles(best_x[0], best_x[1], best_x[2])
    return PoseEstimate(
        pose=Pose(rotation=rotation, translation=best_x[3:6]),
        algorithm="PNP",
        diagnostics={"rms_px": rms, "iterations": best_iters, "above_plane": above},
    )


def _angles_from_rotation(r: np.ndarray) -> tuple[float, float, float]:
    sin_theta = float(np.clip(-r[2, 0], -1.0, 1.0))
    theta = math.asin(sin_theta)
    phi = math.atan2(r[2, 1], r[2, 2])
    psi = math.atan2(r[1, 0], r[0, 0])
    return phi, theta, psi
