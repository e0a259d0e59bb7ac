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

World knowledge (luminaire centers, radii, mark orientation) arrives with the
observation ids, the way an optical broadcast channel would deliver it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .conic import (
    CandidateNormal,
    ConeDecomposition,
    EllipseCoeffs,
    backproject_to_plane,
    candidate_normals,
    cone_from_ellipse,
    decompose_cone,
    ellipse_center,
    luminaire_plane,
)
from .errors import (
    AmbiguousDisambiguationError,
    DegenerateDirectionError,
    GimbalLockError,
    InconsistentInputError,
    NonConvergenceError,
    TooFewLuminairesError,
    UnknownLuminaireError,
)
from .frames import (
    CameraIntrinsics,
    Pose,
    _freeze,
    _wrap_angle,
    image_to_pixel,
    rot_x,
    rot_y,
    rot_z,
)

DISAMBIGUATION_TIE_TOL = 1e-6
GIMBAL_TOL = 1e-8
PSI_RESIDUAL_LIMIT = 1e-3

WORLD_DOWN = np.array([0.0, 0.0, -1.0])
WORLD_DOWN.flags.writeable = False


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
        if self.contour_pixels is None or len(self.contour_pixels) < 2:
            return 0.0
        seg = np.linalg.norm(np.diff(self.contour_pixels, axis=0), axis=1)
        return float(len(self.contour_pixels) * np.median(seg))


@dataclass(frozen=True)
class PoseEstimate:
    """Solver output: pose, which algorithm produced it, and diagnostics."""

    pose: Pose
    algorithm: str
    diagnostics: dict = field(default_factory=dict)


def _rotation_from_angles(phi: float, theta: float, psi: float) -> np.ndarray:
    # Same composition as euler_to_rotation, without range validation.
    return rot_z(psi) @ rot_y(theta) @ rot_x(phi)


def _luminaire_map(lums) -> Mapping[str, LuminaireInfo]:
    if isinstance(lums, Mapping):
        return lums
    return {lum.id: lum for lum in lums}


def _resolve(lums: Mapping[str, LuminaireInfo], lum_id: str) -> LuminaireInfo:
    try:
        return lums[lum_id]
    except KeyError:
        raise UnknownLuminaireError(f"luminaire id {lum_id!r} not in scene") from None


# --- orientation ---------------------------------------------------------------

def disambiguate_normal(
    cands_a: tuple[CandidateNormal, CandidateNormal],
    cands_b: tuple[CandidateNormal, CandidateNormal],
) -> tuple[CandidateNormal, CandidateNormal, float]:
    """Pick the shared orientation out of two candidate pairs.

    Both luminaires sit on (parallel) ceiling planes, so exactly one candidate
    from each pair should coincide. Returns the minimizing pair and the gap to
    the second-best pairing. A tie (gap < 1e-6) is fine when the tied pairings
    agree on the normals (head-on views collapse the pair); disagreeing ties
    raise AmbiguousDisambiguationError.
    """
    ranked = sorted(
        (np.linalg.norm(na.normal_ccs - nb.normal_ccs), i, j)
        for i, na in enumerate(cands_a)
        for j, nb in enumerate(cands_b)
    )
    (best_d, bi, bj), (second_d, si, sj) = ranked[0], ranked[1]
    gap = second_d - best_d
    if gap < DISAMBIGUATION_TIE_TOL:
        same_a = (
            np.linalg.norm(cands_a[bi].normal_ccs - cands_a[si].normal_ccs)
            <= DISAMBIGUATION_TIE_TOL
        )
        same_b = (
            np.linalg.norm(cands_b[bj].normal_ccs - cands_b[sj].normal_ccs)
            <= DISAMBIGUATION_TIE_TOL
        )
        if not (same_a and same_b):
            raise AmbiguousDisambiguationError(
                f"tied pairings (gap {gap:.2e}) select different normals"
            )
    return cands_a[bi], cands_b[bj], float(gap)


def euler_from_normal(n_c) -> tuple[float, float]:
    """Tilt angles (phi, theta) from the luminaire normal in the camera frame.

    The normal of a down-facing luminaire satisfies
    n_c = (sin(theta), -cos(theta)*sin(phi), -cos(theta)*cos(phi)), so
    theta = asin(n1) and phi = atan2(-n2, -n3). Heading (psi) is invisible to
    the normal and recovered separately.
    """
    n = np.asarray(n_c, dtype=float)
    n = n / np.linalg.norm(n)
    t1 = float(np.clip(n[0], -1.0, 1.0))
    if abs(t1) >= 1.0 - 1e-9:
        raise GimbalLockError("normal is parallel to the camera x-axis")
    theta = math.asin(t1)
    phi = _wrap_angle(math.atan2(-n[1], -n[2]))
    return phi, theta


def _heading_system(
    g: np.ndarray, phi: float, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Linear system A @ (cos psi, sin psi) = h - c for h = R(phi,theta,psi)^T g.

    Rows follow from peeling Rz off R^T = Rx^T Ry^T Rz^T; the constant part c
    collects the psi-free g3 terms.
    """
    g1, g2, g3 = g
    sp, cp = math.sin(phi), math.cos(phi)
    st, ct = math.sin(theta), math.cos(theta)
    a = np.array(
        [
            [g1 * ct, g2 * ct],
            [g2 * cp + g1 * sp * st, -g1 * cp + g2 * sp * st],
            [-g2 * sp + g1 * cp * st, g1 * sp + g2 * cp * st],
        ]
    )
    c = np.array([-g3 * st, g3 * sp * ct, g3 * cp * ct])
    return a, c


def _solve_heading(
    g: np.ndarray, h: np.ndarray, phi: float, theta: float
) -> tuple[float, float]:
    """Least-squares heading angle and the residual of all three equations."""
    a, c = _heading_system(g, phi, theta)
    sol, *_ = np.linalg.lstsq(a, h - c, rcond=None)
    norm = math.hypot(sol[0], sol[1])
    if norm < 1e-12:
        raise InconsistentInputError("heading system collapsed to zero")
    cos_sin = sol / norm
    residual = float(np.linalg.norm(a @ cos_sin - (h - c)))
    psi = _wrap_angle(math.atan2(cos_sin[1], cos_sin[0]))
    return psi, residual


def psi_vpca(s, phi: float, theta: float) -> float:
    """Heading from the camera-frame direction of the center-to-mark vector.

    `s` is the unit vector of (mark - center) in CCS; in the world that
    direction is +y. Solved as linear least squares in (cos psi, sin psi).
    Raises InconsistentInputError when the equations disagree by more than
    1e-3 (wrong normal branch or corrupted observation).
    """
    if abs(math.cos(theta)) <= GIMBAL_TOL:
        raise GimbalLockError("cos(theta) ~ 0")
    s = np.asarray(s, dtype=float)
    s = s / np.linalg.norm(s)
    psi, residual = _solve_heading(np.array([0.0, 1.0, 0.0]), s, phi, theta)
    if residual > PSI_RESIDUAL_LIMIT:
        raise InconsistentInputError(
            f"heading residual {residual:.2e} exceeds {PSI_RESIDUAL_LIMIT:g}"
        )
    return psi


def psi_oavpa(g, h, phi: float, theta: float) -> float:
    """Heading from the center-to-center direction seen in both frames.

    `g` is the unit world direction between the two luminaire centers, `h`
    the same direction in the camera frame. Degenerate when g is parallel to
    the world z-axis (the direction carries no heading information).
    """
    if abs(math.cos(theta)) <= GIMBAL_TOL:
        raise GimbalLockError("cos(theta) ~ 0")
    g = np.asarray(g, dtype=float)
    g = g / np.linalg.norm(g)
    h = np.asarray(h, dtype=float)
    h = h / np.linalg.norm(h)
    if g[0] * g[0] + g[1] * g[1] < 1e-18:
        raise DegenerateDirectionError(
            "inter-luminaire direction is parallel to the world z-axis"
        )
    psi, _ = _solve_heading(g, h, phi, theta)
    return psi


def translation_two_points(pw1, pc1, pw2, pc2, r: np.ndarray) -> np.ndarray:
    """Average the two single-point location estimates t = P_w - R @ P_c."""
    pw1, pc1 = np.asarray(pw1, float), np.asarray(pc1, float)
    pw2, pc2 = np.asarray(pw2, float), np.asarray(pc2, float)
    return 0.5 * ((pw1 - r @ pc1) + (pw2 - r @ pc2))


# --- full solvers ----------------------------------------------------------------

def _decompose_observation(
    obs: Observation, k: CameraIntrinsics
) -> tuple[ConeDecomposition, tuple[CandidateNormal, CandidateNormal]]:
    decomp = decompose_cone(cone_from_ellipse(obs.ellipse, k.f))
    return decomp, candidate_normals(decomp)


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
    lum_map = _luminaire_map(lums)
    lum_a = _resolve(lum_map, obs_complete.luminaire_id)
    _resolve(lum_map, obs_other.luminaire_id)

    decomp_a, cands_a = _decompose_observation(obs_complete, k)
    _, cands_b = _decompose_observation(obs_other, k)
    chosen_a, chosen_b, gap = disambiguate_normal(cands_a, cands_b)

    plane = luminaire_plane(decomp_a, chosen_a.k, lum_a.radius)
    center_c = backproject_to_plane(obs_complete.center_proj, plane, decomp_a, k)
    mark_c = backproject_to_plane(obs_complete.mark_proj, plane, decomp_a, k)

    phi, theta = euler_from_normal(chosen_a.normal_ccs)
    direction = mark_c - center_c
    s = direction / np.linalg.norm(direction)
    psi, residual = _solve_heading(np.array([0.0, 1.0, 0.0]), s, phi, theta)
    if residual > PSI_RESIDUAL_LIMIT:
        raise InconsistentInputError(
            f"heading residual {residual:.2e} exceeds {PSI_RESIDUAL_LIMIT:g}"
        )

    rotation = _rotation_from_angles(phi, theta, psi)
    t = translation_two_points(lum_a.center_w, center_c, lum_a.mark_w, mark_c, rotation)
    return PoseEstimate(
        pose=Pose(rotation=rotation, translation=t),
        algorithm="VPCA",
        diagnostics={
            "gap": gap,
            "chosen_k": {
                obs_complete.luminaire_id: chosen_a.k,
                obs_other.luminaire_id: chosen_b.k,
            },
            "psi_residual": residual,
        },
    )


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
    lum_map = _luminaire_map(lums)
    lum_e = _resolve(lum_map, obs1.luminaire_id)
    lum_f = _resolve(lum_map, obs2.luminaire_id)

    decomp_e, cands_e = _decompose_observation(obs1, k)
    decomp_f, cands_f = _decompose_observation(obs2, k)
    chosen_e, chosen_f, gap = disambiguate_normal(cands_e, cands_f)

    centers_c = []
    for obs, decomp, chosen, lum in (
        (obs1, decomp_e, chosen_e, lum_e),
        (obs2, decomp_f, chosen_f, lum_f),
    ):
        plane = luminaire_plane(decomp, chosen.k, lum.radius)
        center_pix = image_to_pixel(ellipse_center(obs.ellipse), k)
        centers_c.append(backproject_to_plane(center_pix, plane, decomp, k))
    center_e_c, center_f_c = centers_c

    phi, theta = euler_from_normal(chosen_e.normal_ccs)
    g = lum_f.center_w - lum_e.center_w
    g = g / np.linalg.norm(g)
    h = center_f_c - center_e_c
    h = h / np.linalg.norm(h)
    psi = psi_oavpa(g, h, phi, theta)

    rotation = _rotation_from_angles(phi, theta, psi)
    t = translation_two_points(
        lum_e.center_w, center_e_c, lum_f.center_w, center_f_c, rotation
    )
    return PoseEstimate(
        pose=Pose(rotation=rotation, translation=t),
        algorithm="OAVPA",
        diagnostics={
            "gap": gap,
            "chosen_k": {
                obs1.luminaire_id: chosen_e.k,
                obs2.luminaire_id: chosen_f.k,
            },
        },
    )


def solve_vpa(
    observations: Sequence[Observation],
    lums,
    k: CameraIntrinsics,
) -> PoseEstimate:
    """Dispatch: circle-and-arc when any capture is complete, else arcs-only.

    Observations are ranked by contour length (ties by luminaire id); the
    complete capture is paired with the best-ranked other observation. The
    returned estimate's algorithm tag records which solver actually ran.
    """
    if len(observations) < 2:
        raise TooFewLuminairesError(
            f"need at least 2 observations, got {len(observations)}"
        )
    ranked = sorted(observations, key=lambda o: (-o.contour_px, o.luminaire_id))
    complete = [o for o in ranked if o.complete]
    if complete:
        primary = complete[0]
        partner = next(o for o in ranked if o is not primary)
        return solve_vpca(primary, partner, lums, k)
    return solve_oavpa(ranked[0], ranked[1], lums, k)


# --- point-correspondence baseline ------------------------------------------------

def _pnp_residuals(
    x: np.ndarray, world: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics
) -> np.ndarray:
    """Stacked pixel reprojection errors for pose parameters (angles, t)."""
    r = _rotation_from_angles(x[0], x[1], x[2])
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
    rotation = _rotation_from_angles(best_x[0], best_x[1], best_x[2])
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
