"""Pose solvers: duality resolution, angle recovery, translation, dispatch,
and the point-correspondence baseline."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcpose.conic import cone_matrices, decompose_cones, fit_ellipse, section_normals
from arcpose.errors import (
    DegenerateDirectionError,
    TooFewLuminairesError,
    UnknownLuminaireError,
)
from arcpose.frames import (
    CameraIntrinsics,
    EulerAngles,
    euler_to_rotation,
    rotation_from_angles,
)
from arcpose.solver import (
    LuminaireInfo,
    Observation,
    PSI_RESIDUAL_LIMIT,
    disambiguate,
    heading,
    pnp_baseline,
    pnp_jacobian,
    pnp_residuals,
    solve_oavpa,
    solve_vpa,
    solve_vpca,
    tilt,
    translation_two_points,
)

from conftest import (
    circle_world_points,
    make_pose,
    project_world_pixels,
    random_visible_scene,
)


def make_observation(lum, pose, k, complete=True, arc=None, n=360):
    """Exact zero-noise observation of a luminaire via the frames-level chain."""
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    if arc is not None:
        angles = angles[arc]
    pixels = project_world_pixels(
        circle_world_points(lum.center_w, lum.radius, angles), pose, k
    )
    from arcpose.frames import pixel_to_image

    return Observation(
        luminaire_id=lum.id,
        ellipse=fit_ellipse(pixel_to_image(pixels, k)),
        complete=complete,
        center_proj=project_world_pixels(lum.center_w, pose, k) if complete else None,
        mark_proj=project_world_pixels(lum.mark_w, pose, k) if complete else None,
        contour_pixels=pixels,
        contour_angles=angles,
    )


def two_luminaire_setup(rng, k):
    """A pose plus two distinct fully visible luminaires (forward model only)."""
    while True:
        lum_a, pose, _ = random_visible_scene(rng, k)
        # Second luminaire: offset the first one's center along the ceiling.
        offset = np.array([rng.uniform(0.3, 0.9) * rng.choice([-1, 1]),
                           rng.uniform(0.2, 0.6) * rng.choice([-1, 1]), 0.0])
        lum_b = LuminaireInfo(id="U", center_w=lum_a.center_w + offset, radius=lum_a.radius)
        pix = project_world_pixels(
            circle_world_points(lum_b.center_w, lum_b.radius,
                                np.linspace(0, 2 * np.pi, 90, endpoint=False)),
            pose, k,
        )
        inside = (
            (pix[:, 0] > 2) & (pix[:, 0] < k.width - 2)
            & (pix[:, 1] > 2) & (pix[:, 1] < k.height - 2)
        )
        if inside.all():
            return lum_a, lum_b, pose


# --- LuminaireInfo ------------------------------------------------------------------

def test_luminaire_default_mark():
    lum = LuminaireInfo(id="L", center_w=np.array([2.0, 2.0, 3.0]), radius=0.15)
    assert np.allclose(lum.mark_w, [2.0, 2.15, 3.0])


def test_contour_px_is_count_times_median_step():
    # The reference is np.median over the point-to-point steps.
    rng = np.random.default_rng(27)
    ellipse = fit_ellipse(np.stack([0.1 * np.cos(np.linspace(0, 6, 12)),
                                    0.1 * np.sin(np.linspace(0, 6, 12))], axis=-1))
    for n in (2, 3, 50, 51, 360):
        pixels = rng.uniform(0, 640, (n, 2))
        obs = Observation(luminaire_id="L", ellipse=ellipse, contour_pixels=pixels)
        steps = np.linalg.norm(np.diff(pixels, axis=0), axis=1)
        assert obs.contour_px == float(n * np.median(steps))


def test_observation_requires_points_when_complete():
    ellipse = fit_ellipse(
        np.stack([0.1 * np.cos(np.linspace(0, 6, 12)),
                  0.1 * np.sin(np.linspace(0, 6, 12))], axis=-1)
    )
    with pytest.raises(ValueError):
        Observation(luminaire_id="L", ellipse=ellipse, complete=True)


# --- disambiguate ------------------------------------------------------------------

def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def pick(cands_a, cands_b):
    """The disambiguation of two candidate-normal pairs: the picked normals,
    the gap and the disagreeing-tie flag."""
    normals = np.array([cands_a, cands_b], dtype=float)
    (i, j), gap, ambiguous = (x[0] for x in disambiguate(normals[None]))
    return normals[0, i], normals[1, j], gap, ambiguous


def test_disambiguation_forced_by_uniqueness():
    n = unit([0.1, 0.2, -1.0])
    m = unit([0.8, 0.0, -0.6])
    p = unit([-0.7, 0.3, -0.65])
    chosen_a, chosen_b, gap, ambiguous = pick((n, m), (n, p))
    assert np.allclose(chosen_a, n)
    assert np.allclose(chosen_b, n)
    assert gap > 0.1 and not ambiguous


def test_disambiguation_on_synthetic_scene(intrinsics):
    rng = np.random.default_rng(20)
    for _ in range(50):
        lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
        obs = [make_observation(lum, pose, intrinsics) for lum in (lum_a, lum_b)]
        q = cone_matrices([o.ellipse.coefficients for o in obs], intrinsics.f)
        _, normals = section_normals(*decompose_cones(q)[:2])
        chosen_a, chosen_b, _, ambiguous = pick(*normals)
        n_true = pose.rotation.T @ np.array([0.0, 0.0, -1.0])
        assert not ambiguous
        assert np.linalg.norm(chosen_a - n_true) < 1e-6
        assert np.linalg.norm(chosen_b - n_true) < 1e-6


def test_disambiguation_degenerate_tie_is_accepted():
    n = unit([0.0, 0.0, -1.0])
    chosen_a, chosen_b, gap, ambiguous = pick((n, n), (n, n))
    assert gap == pytest.approx(0.0)
    assert np.allclose(chosen_a, n)
    assert not ambiguous


def test_disambiguation_conflicting_tie_raises():
    n1 = unit([0.3, 0.0, -1.0])
    n2 = unit([-0.3, 0.0, -1.0])
    assert pick((n1, n2), (n1, n2))[3]


# --- tilt ------------------------------------------------------------------

def tilt_of(n):
    phi, theta, gimbal = tilt(np.array([n], dtype=float))
    assert not gimbal[0]
    return phi[0], theta[0]


def test_euler_from_normal_upright():
    assert tilt_of([0.0, 0.0, -1.0]) == pytest.approx((0.0, 0.0))


def test_euler_from_normal_hand_values():
    phi, theta = tilt_of([0.5, 0.0, -math.sqrt(3) / 2])
    assert (phi, theta) == pytest.approx((0.0, math.pi / 6))
    phi, theta = tilt_of([0.0, math.sqrt(2) / 2, -math.sqrt(2) / 2])
    assert (phi, theta) == pytest.approx((-math.pi / 4, 0.0))


def test_euler_from_normal_round_trip():
    rng = np.random.default_rng(21)
    angles = []
    normals = []
    for _ in range(10_000):
        phi = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        psi = rng.uniform(-math.pi + 1e-9, math.pi)
        r = euler_to_rotation(EulerAngles(phi, theta, psi))
        angles.append((phi, theta))
        normals.append(r.T @ np.array([0.0, 0.0, -1.0]))
    got_phi, got_theta, gimbal = tilt(np.array(normals))
    assert not gimbal.any()
    assert np.abs(got_phi - np.array(angles)[:, 0]).max() < 1e-9
    assert np.abs(got_theta - np.array(angles)[:, 1]).max() < 1e-9
    rebuilt = np.stack([
        np.sin(got_theta), -np.cos(got_theta) * np.sin(got_phi),
        -np.cos(got_theta) * np.cos(got_phi),
    ], axis=1)
    assert np.abs(rebuilt - np.array(normals)).max() < 1e-10


def test_euler_from_normal_gimbal():
    assert tilt(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))[2].tolist() == [True, False]


# --- heading ------------------------------------------------------------------

PLUS_Y = [0.0, 1.0, 0.0]


def psi_of(g, h, phi, theta):
    """Heading angle and residual of one direction pair."""
    cos_sin, norm, residual = heading([g], [h], np.array([phi]), np.array([theta]))
    assert norm[0] >= 1e-12
    return math.atan2(cos_sin[1, 0], cos_sin[0, 0]), residual[0]


def test_psi_vpca_hand_cases():
    assert psi_of(PLUS_Y, [1.0, 0.0, 0.0], 0.0, 0.0)[0] == pytest.approx(math.pi / 2)
    assert psi_of(PLUS_Y, [0.0, 1.0, 0.0], 0.0, 0.0)[0] == pytest.approx(0.0)


def test_psi_vpca_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        phi = rng.uniform(-1.2, 1.2)
        theta = rng.uniform(-1.2, 1.2)
        psi = rng.uniform(-math.pi + 1e-9, math.pi)
        r = euler_to_rotation(EulerAngles(phi, theta, psi))
        s = r.T @ np.array(PLUS_Y)
        got, residual = psi_of(PLUS_Y, s, phi, theta)
        assert abs(got - psi) < 1e-9
        assert residual < 1e-12


def test_psi_vpca_inconsistent_input():
    # Along the optical axis the heading system collapses; half out of the
    # ceiling plane it cannot be met.
    with np.errstate(invalid="ignore"):
        _, norm, residual = heading([PLUS_Y] * 2, [[0.0, 0.0, 1.0], unit([0.0, 1.0, 0.5])],
                                    np.zeros(2), np.zeros(2))
    assert norm[0] < 1e-12
    assert residual[1] > PSI_RESIDUAL_LIMIT


def test_psi_vpca_gimbal():
    # A pose with theta = pi/2 has its ceiling normal on the camera x-axis;
    # the tilt flags it before any heading is solved.
    r = euler_to_rotation(EulerAngles(0.0, math.pi / 2, 0.0))
    assert tilt((r.T @ np.array([0.0, 0.0, -1.0]))[None])[2][0]


def test_psi_oavpa_hand_cases():
    assert psi_of([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], 0.0, 0.0)[0] == pytest.approx(
        math.pi / 2
    )
    g = unit([0.3, 0.8, 0.0])
    assert psi_of(g, g, 0.0, 0.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_psi_oavpa_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        phi = rng.uniform(-1.2, 1.2)
        theta = rng.uniform(-1.2, 1.2)
        psi = rng.uniform(-math.pi + 1e-9, math.pi)
        g = unit(np.append(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5)))
        r = euler_to_rotation(EulerAngles(phi, theta, psi))
        h = r.T @ g
        assert abs(psi_of(g, h, phi, theta)[0] - psi) < 1e-9


def test_psi_oavpa_degenerate_direction(intrinsics):
    # Luminaire centers one above the other carry no heading information.
    rng = np.random.default_rng(26)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs_a = make_observation(lum_a, pose, intrinsics, complete=False)
    obs_b = make_observation(lum_b, pose, intrinsics, complete=False)
    above = LuminaireInfo(id=lum_b.id, center_w=lum_a.center_w + [0.0, 0.0, 0.5],
                          radius=lum_b.radius)
    with pytest.raises(DegenerateDirectionError):
        solve_oavpa(obs_a, obs_b, [lum_a, above], intrinsics)


# --- translation ------------------------------------------------------------------

def test_translation_identity_rotation():
    t = translation_two_points([1, 2, 3], [0, 0, 0], [2, 4, 6], [1, 2, 3], np.eye(3))
    assert np.allclose(t, [1, 2, 3])


def test_translation_averages_exactly():
    delta = np.array([0.01, -0.02, 0.005])
    base = np.array([1.0, 2.0, 3.0])
    # Two single-point estimates at t + delta and t - delta.
    t = translation_two_points(base + delta, [0, 0, 0], base - delta, [0, 0, 0], np.eye(3))
    assert np.allclose(t, base)


def test_translation_consistent_pose():
    rng = np.random.default_rng(24)
    pose = make_pose(0.2, -0.3, 0.9, t=(3.0, 2.0, 1.5))
    pw = rng.uniform(-2, 2, size=(2, 3)) + np.array([3, 2, 4.0])
    pc = (pw - pose.translation) @ pose.rotation
    t = translation_two_points(pw[0], pc[0], pw[1], pc[1], pose.rotation)
    assert np.allclose(t, pose.translation, atol=1e-9)


# --- full solvers ------------------------------------------------------------------

def test_vpca_zero_noise_random_scenes(intrinsics):
    rng = np.random.default_rng(25)
    from arcpose.harness import e_loc, e_pos

    worst_loc, worst_pos = 0.0, 0.0
    for _ in range(100):
        lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
        obs_a = make_observation(lum_a, pose, intrinsics)
        obs_b = make_observation(lum_b, pose, intrinsics, complete=False,
                                 arc=slice(10, 150))
        est = solve_vpca(obs_a, obs_b, [lum_a, lum_b], intrinsics)
        worst_loc = max(worst_loc, e_loc(pose.translation, est.pose.translation))
        worst_pos = max(worst_pos, e_pos(pose.rotation, est.pose.rotation))
    assert worst_loc < 1e-6
    assert worst_pos < 1e-8


def test_vpca_head_on_geometry(intrinsics):
    lum = LuminaireInfo(id="A", center_w=np.array([2.0, 2.0, 3.0]), radius=0.15)
    other = LuminaireInfo(id="B", center_w=np.array([2.6, 2.0, 3.0]), radius=0.15)
    pose = make_pose(t=(2.0, 2.0, 1.0))  # upright, 2 m below the center
    obs_a = make_observation(lum, pose, intrinsics)
    obs_b = make_observation(other, pose, intrinsics, complete=False)
    est = solve_vpca(obs_a, obs_b, [lum, other], intrinsics)
    # The exactly-degenerate head-on cone (l1 == l2) turns eigenvalue-gap
    # rounding into k ~ sqrt(eps), so expect ~1e-8 rather than 1e-12 here.
    assert np.allclose(est.pose.translation, [2.0, 2.0, 1.0], atol=1e-7)
    assert np.abs(est.pose.rotation - np.eye(3)).max() < 1e-7
    assert est.algorithm == "VPCA"


def test_vpca_requires_complete_observation(intrinsics):
    rng = np.random.default_rng(26)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs_a = make_observation(lum_a, pose, intrinsics, complete=False)
    obs_b = make_observation(lum_b, pose, intrinsics, complete=False)
    with pytest.raises(ValueError):
        solve_vpca(obs_a, obs_b, [lum_a, lum_b], intrinsics)


def test_vpca_unknown_luminaire(intrinsics):
    rng = np.random.default_rng(27)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs_a = make_observation(lum_a, pose, intrinsics)
    obs_b = make_observation(lum_b, pose, intrinsics, complete=False)
    with pytest.raises(UnknownLuminaireError):
        solve_vpca(obs_a, obs_b, [lum_b], intrinsics)


def test_oavpa_zero_noise_bias_is_small_but_nonzero(intrinsics):
    rng = np.random.default_rng(28)
    from arcpose.harness import e_loc

    errors = []
    for _ in range(50):
        lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
        obs_a = make_observation(lum_a, pose, intrinsics, complete=False,
                                 arc=slice(0, 180))
        obs_b = make_observation(lum_b, pose, intrinsics, complete=False,
                                 arc=slice(90, 270))
        est = solve_oavpa(obs_a, obs_b, [lum_a, lum_b], intrinsics)
        assert est.algorithm == "OAVPA"
        errors.append(e_loc(pose.translation, est.pose.translation))
    mean = float(np.mean(errors))
    assert 0.0 < mean <= 0.02


def test_oavpa_head_on_symmetry_has_no_bias(intrinsics):
    # Upright camera: ceiling discs stay parallel to the image plane, so the
    # fitted ellipse center coincides with the projected center exactly.
    lum_a = LuminaireInfo(id="A", center_w=np.array([3.7, 3.0, 3.0]), radius=0.15)
    lum_b = LuminaireInfo(id="B", center_w=np.array([4.3, 3.0, 3.0]), radius=0.15)
    pose = make_pose(psi=0.4, t=(4.0, 3.0, 1.2))
    obs_a = make_observation(lum_a, pose, intrinsics, complete=False, arc=slice(0, 200))
    obs_b = make_observation(lum_b, pose, intrinsics, complete=False, arc=slice(100, 300))
    est = solve_oavpa(obs_a, obs_b, [lum_a, lum_b], intrinsics)
    assert np.linalg.norm(est.pose.translation - pose.translation) < 1e-6


def test_oavpa_rejects_duplicate_luminaire(intrinsics):
    rng = np.random.default_rng(29)
    lum_a, _, pose = two_luminaire_setup(rng, intrinsics)
    obs = make_observation(lum_a, pose, intrinsics, complete=False)
    with pytest.raises(ValueError):
        solve_oavpa(obs, obs, [lum_a], intrinsics)


def test_vpa_dispatch(intrinsics):
    rng = np.random.default_rng(30)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    complete = make_observation(lum_a, pose, intrinsics)
    partial_a = make_observation(lum_a, pose, intrinsics, complete=False,
                                 arc=slice(0, 180))
    partial_b = make_observation(lum_b, pose, intrinsics, complete=False,
                                 arc=slice(0, 180))
    assert solve_vpa([complete, partial_b], [lum_a, lum_b], intrinsics).algorithm == "VPCA"
    assert solve_vpa([partial_a, partial_b], [lum_a, lum_b], intrinsics).algorithm == "OAVPA"
    with pytest.raises(TooFewLuminairesError):
        solve_vpa([complete], [lum_a, lum_b], intrinsics)


def test_vpa_dispatch_is_deterministic(intrinsics):
    rng = np.random.default_rng(31)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs = [
        make_observation(lum_a, pose, intrinsics, complete=False, arc=slice(0, 200)),
        make_observation(lum_b, pose, intrinsics, complete=False, arc=slice(0, 200)),
    ]
    first = solve_vpa(obs, [lum_a, lum_b], intrinsics)
    second = solve_vpa(obs, [lum_a, lum_b], intrinsics)
    assert first.algorithm == second.algorithm
    assert np.array_equal(first.pose.translation, second.pose.translation)
    assert np.array_equal(first.pose.rotation, second.pose.rotation)


def test_vpa_parallel_planes_at_different_heights(intrinsics):
    # Luminaires on parallel planes 0.3 m apart; the circle-and-arc branch
    # stays exact and the dispatcher handles the pair.
    lum_a = LuminaireInfo(id="A", center_w=np.array([3.8, 3.0, 3.0]), radius=0.15)
    lum_b = LuminaireInfo(id="B", center_w=np.array([4.35, 3.1, 2.7]), radius=0.15)
    pose = make_pose(phi=0.1, theta=-0.08, psi=0.7, t=(4.0, 3.0, 1.1))
    obs = [
        make_observation(lum_a, pose, intrinsics),
        make_observation(lum_b, pose, intrinsics, complete=False, arc=slice(20, 200)),
    ]
    est = solve_vpa(obs, [lum_a, lum_b], intrinsics)
    assert est.algorithm == "VPCA"
    assert np.linalg.norm(est.pose.translation - pose.translation) < 1e-6

    # The arcs-only solver also copes with the height difference (small bias).
    obs_partial = [
        make_observation(lum_a, pose, intrinsics, complete=False, arc=slice(0, 200)),
        make_observation(lum_b, pose, intrinsics, complete=False, arc=slice(20, 200)),
    ]
    est2 = solve_vpa(obs_partial, [lum_a, lum_b], intrinsics)
    assert est2.algorithm == "OAVPA"
    assert np.linalg.norm(est2.pose.translation - pose.translation) < 0.05


# --- PnP baseline ------------------------------------------------------------------

def pnp_scene(rng, intrinsics):
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    pairs = []
    for lum, phase in ((lum_a, 0.0), (lum_b, np.pi / 4)):
        for ang in (phase + np.pi / 2, phase + 3 * np.pi / 2):
            w = circle_world_points(lum.center_w, lum.radius, [ang])[0]
            pairs.append((w, project_world_pixels(w, pose, intrinsics)))
    return pairs, pose


def test_pnp_zero_noise_exact(intrinsics):
    rng = np.random.default_rng(32)
    for _ in range(30):
        pairs, pose = pnp_scene(rng, intrinsics)
        est = pnp_baseline(pairs, intrinsics)
        assert np.linalg.norm(est.pose.translation - pose.translation) < 1e-6
        assert est.algorithm == "PNP"
        assert est.diagnostics["rms_px"] < 1e-6
        assert 1 <= est.diagnostics["iterations"] <= 100
        assert est.diagnostics["above_plane"] is False


def test_pnp_requires_four_points(intrinsics):
    rng = np.random.default_rng(33)
    pairs, _ = pnp_scene(rng, intrinsics)
    with pytest.raises(ValueError):
        pnp_baseline(pairs[:3], intrinsics)


def test_pnp_rejects_collinear_world_points(intrinsics):
    pairs = [
        (np.array([x, 2.0, 3.0]), np.array([300.0 + 10 * x, 240.0]))
        for x in (1.0, 2.0, 3.0, 4.0)
    ]
    with pytest.raises(ValueError):
        pnp_baseline(pairs, intrinsics)


def test_pnp_noisy_residual_is_local_minimum(intrinsics):
    # With perturbed pixels the output must beat the true pose's residual and
    # sit at a local minimum of the reprojection cost.
    from arcpose.frames import angles_from_rotation

    rng = np.random.default_rng(34)
    pairs, pose = pnp_scene(rng, intrinsics)
    noisy = [(w, p + rng.normal(0, 0.5, size=2)) for w, p in pairs]
    est = pnp_baseline(noisy, intrinsics)

    world = np.array([w for w, _ in noisy])
    pixels = np.array([p for _, p in noisy])

    def cost(x):
        res = pnp_residuals(np.asarray(x)[None], world[None], pixels[None], intrinsics)
        return float(res[0] @ res[0])

    x_est = np.concatenate([
        angles_from_rotation(est.pose.rotation), est.pose.translation
    ])
    cost_est = cost(x_est)
    assert cost_est <= cost(np.concatenate([
        angles_from_rotation(pose.rotation), pose.translation
    ])) + 1e-9
    assert est.diagnostics["rms_px"] == pytest.approx(math.sqrt(cost_est / 8), rel=1e-6)
    # Coordinate-wise probing cannot improve the cost to first order.
    for j in range(6):
        for delta in (-1e-5, 1e-5):
            x_probe = x_est.copy()
            x_probe[j] += delta
            assert cost(x_probe) >= cost_est - 1e-7 * max(cost_est, 1.0)


# --- analytic PnP Jacobian ------------------------------------------------------

PNP_K = CameraIntrinsics(
    f=0.4, dx=1.25e-3, dy=1.25e-3, u0=320.0, v0=240.0, width=640, height=480
)


def assert_jacobian_matches_central_differences(x, world):
    """x (M, 6) and world (M, P, 3): every stacked row's analytic Jacobian
    against central differences of the stacked residuals."""
    pixels = np.zeros(world.shape[:2] + (2,))
    jac = pnp_jacobian(x, world, PNP_K)
    fd = np.empty_like(jac)
    h = 1e-6
    for j in range(6):
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd[:, :, j] = (
            pnp_residuals(xp, world, pixels, PNP_K)
            - pnp_residuals(xm, world, pixels, PNP_K)
        ) / (2 * h)
    # A column that is zero in truth holds only rounding noise, so the scale
    # has a floor of 1 px per radian or metre.
    scale = np.maximum(np.abs(fd).max(axis=1, keepdims=True), 1.0)
    assert np.all(np.abs(jac - fd) <= 1e-6 * scale)


def camera_depths(x, world):
    return ((world - x[3:6]) @ rotation_from_angles(x[0], x[1], x[2]))[:, 2]


POSE_ROW = st.tuples(
    st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(-math.pi, math.pi)),
    st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 6.0), st.floats(0.5, 2.5)),
    st.lists(st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 6.0)), min_size=4, max_size=4),
)


@settings(derandomize=True, deadline=None)
@given(rows=st.lists(POSE_ROW, min_size=1, max_size=4))
def test_pnp_jacobian_matches_central_differences(rows):
    x = np.array([angles + position for angles, position, _ in rows])
    world = np.array([[(px, py, 3.0) for px, py in xy] for _, _, xy in rows])
    # Central differences lose accuracy at tiny depths and across the clamp.
    assume(all(np.all(np.abs(camera_depths(xi, wi)) > 0.05) for xi, wi in zip(x, world)))
    assert_jacobian_matches_central_differences(x, world)


def test_pnp_jacobian_point_behind_camera():
    x = np.array([[1.0, 0.3, 0.5, 4.0, 3.0, 2.0], [0.1, -0.2, 2.0, 3.0, 2.0, 1.5]])
    world = np.array(
        [[4.5, 3.2, 3.0], [5.0, 2.0, 3.0], [2.0, 4.0, 3.0], [6.0, 5.0, 3.0]]
    )
    assert camera_depths(x[0], world)[2] < 0  # clamped depth: no depth term
    assert np.all(camera_depths(x[1], world) > 0)
    assert_jacobian_matches_central_differences(x, np.stack([world, world]))
