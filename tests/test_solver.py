"""Pose solvers: duality resolution, angle recovery, translation, dispatch,
and the point-correspondence baseline."""

import dataclasses
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcpose.cli import observations_from_dict
from arcpose.conic import cone_matrices, decompose_cones, fit_ellipses, section_normals
from arcpose.errors import (
    DegenerateDirectionError,
    InvalidConfigError,
    TooFewLuminairesError,
    UnknownLuminaireError,
)
from arcpose.frames import CameraIntrinsics, angles_from_rotation, pixel_to_image
from arcpose.harness import e_loc_rows, e_pos_rows
from arcpose.sim import scene_from_dict
from arcpose.solver import (
    LuminaireInfo,
    Observations,
    PSI_RESIDUAL_LIMIT,
    contour_lengths,
    disambiguate,
    heading,
    pnp_jacobian,
    pnp_residuals,
    pnp_solve,
    solve_vpa,
    tilt,
    translation_two_points,
)

from conftest import (
    circle_world_points,
    make_pose,
    project_world_pixels,
    random_visible_scene,
)
from oracles import rotation_scalar


def observation_row(lum, pose, k, complete=True, arc=None, n=360) -> dict:
    """One luminaire's row of an `Observations` record, exact at zero noise
    via the reference pinhole chain."""
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    if arc is not None:
        angles = angles[arc]
    pixels = project_world_pixels(
        circle_world_points(lum.center_w, lum.radius, angles), pose, k
    )
    landmarks = project_world_pixels(np.array([lum.center_w, lum.mark_w]), pose, k)
    return dict(
        luminaire=lum.id,
        coefficients=fit_ellipses(pixel_to_image(pixels, k)[None], [len(pixels)]).coefficients[0],
        landmarks=landmarks if complete else np.full((2, 2), np.nan),
        complete=complete,
        contour_px=contour_lengths(pixels[None], [len(pixels)])[0],
    )


def observations(*rows) -> Observations:
    return Observations(**{key: [row[key] for row in rows] for key in rows[0]})


def lum_map(*lums) -> dict:
    return {lum.id: lum for lum in lums}


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
    for n in (2, 3, 50, 51, 360):
        pixels = rng.uniform(0, 640, (n, 2))
        steps = np.linalg.norm(np.diff(pixels, axis=0), axis=1)
        assert contour_lengths(pixels[None], [n])[0] == float(n * np.median(steps))


def test_observation_requires_points_when_complete():
    row = dict(luminaire="L", coefficients=np.zeros(5), landmarks=np.full((2, 2), np.nan),
               complete=False, contour_px=0.0)
    observations(row)
    with pytest.raises(InvalidConfigError, match="complete observation needs finite"):
        observations(dict(row, complete=True))


def fixture_frame():
    """The bundled fixture's observations, intrinsics and scene."""
    data = resources.files("arcpose") / "data"
    obs, k = observations_from_dict(json.loads((data / "fixture_observations.json").read_text()))
    scene = scene_from_dict(json.loads((data / "fixture_scene.json").read_text()))
    return obs, k, scene.luminaire_map()


def test_direct_call_rejects_nan_center():
    # Once a NaN center in a direct call ended in "ValueError: pose is not finite".
    obs, k, lums = fixture_frame()
    landmarks = obs.landmarks.copy()
    landmarks[0, 0, 0] = np.nan
    with pytest.raises(InvalidConfigError, match="observation 0 \\('L1'\\)"):
        solve_vpa(dataclasses.replace(obs, landmarks=landmarks), lums, k)


def test_direct_call_rejects_repeated_id():
    # Once the second observation relabelled with the first one's id solved
    # to a pose without a word.
    obs, k, lums = fixture_frame()
    with pytest.raises(InvalidConfigError, match="repeated luminaire_id 'L1'"):
        solve_vpa(dataclasses.replace(obs, luminaire=["L1", "L1"]), lums, k)


@pytest.mark.parametrize("ids", [[5, 6], np.array([5, 6]), ["L1", None]],
                         ids=["ints", "int_array", "null"])
def test_observations_refuse_an_id_that_is_no_string(ids):
    # A str array once turned the ids 5 and 6 into '5' and '6' without a word.
    obs, _, _ = fixture_frame()
    bad = next(i for i, lum_id in enumerate(ids) if not isinstance(lum_id, str))
    with pytest.raises(InvalidConfigError,
                       match=f"observation {bad}: luminaire_id must be a string, got"):
        dataclasses.replace(obs, luminaire=ids)


@pytest.mark.parametrize("ids", [5, "L1", np.array("L1"), np.array([["L1", "L2"]])],
                         ids=["int", "str", "scalar_array", "2d_array"])
def test_observations_refuse_ids_that_are_no_list_by_name(ids):
    # An int or a 0-d array once raised a bare TypeError, and a str built a
    # record whose ids were one 0-d array.
    obs, _, _ = fixture_frame()
    with pytest.raises(InvalidConfigError,
                       match="observation luminaire ids must be a list, tuple or 1-D array"):
        dataclasses.replace(obs, luminaire=ids)


@pytest.mark.parametrize("field, bad", [
    ("coefficients", dict(coefficients=[["1", "0", "1", "0", "0"], [True, 0, 1, 0, 0]],
                          contour_px=["3", None])),
    ("coefficients", dict(coefficients=[[True, False, True, False, False]] * 2)),
    ("landmarks", dict(landmarks=[[[None, 1.0], [2.0, 3.0]]] * 2)),
    ("contour_px", dict(contour_px=["3", None])),
    ("complete", dict(complete="false")),
    ("complete", dict(complete=[0, 1])),
    ("coefficients", dict(coefficients=[[True, 0, 1, 0, 0], [1, 0, 1, 0, 0]])),
    ("contour_px", dict(contour_px=[True, 2])),
], ids=["text_coefficients_and_lengths", "bool_coefficients", "null_landmark",
        "text_contour_px", "text_complete", "int_complete", "bool_in_int_coefficients",
        "bool_in_int_contour_px"])
def test_observations_refuse_values_of_the_wrong_kind_by_name(field, bad):
    # A bare cast once read each of these as numbers (None as NaN, True beside
    # ints as 1) or as True, and constructed the record without a word.
    row = dict(luminaire=["L1", "L2"], coefficients=np.zeros((2, 5)),
               landmarks=np.full((2, 2, 2), np.nan), complete=[False, False],
               contour_px=[3.0, 4.0])
    obs = Observations(**row)  # NaN landmarks and int lengths are legal
    assert Observations(**dict(row, contour_px=[3, 4])).contour_px.dtype == float
    assert np.isnan(obs.landmarks).all()
    noun = "booleans" if field == "complete" else "numbers"
    with pytest.raises(InvalidConfigError, match=f"observation {field} must be {noun}, got"):
        Observations(**dict(row, **bad))


@pytest.mark.parametrize("field, bad, got", [
    ("coefficients", dict(coefficients=np.zeros((3, 5))),
     "(2, 5) array for 2 luminaires, got shape (3, 5)"),
    ("landmarks", dict(landmarks=np.full((2, 2), np.nan)),
     "(2, 2, 2) array for 2 luminaires, got shape (2, 2)"),
    ("complete", dict(complete=[False]), "(2,) array for 2 luminaires, got shape (1,)"),
    ("contour_px", dict(contour_px=[1.0, 2, 3]), "(2,) array for 2 luminaires, got shape (3,)"),
], ids=["three_coefficient_rows", "2d_landmarks", "one_complete", "three_contour_px"])
def test_observations_refuse_a_field_of_the_wrong_shape_by_name(field, bad, got):
    # Each once constructed: no field's rows were checked against the ids.
    row = dict(luminaire=["L1", "L2"], coefficients=np.zeros((2, 5)),
               landmarks=np.full((2, 2, 2), np.nan), complete=[False, False],
               contour_px=[3.0, 4.0])
    message = re.escape(f"observation {field} must be a {got}")
    with pytest.raises(InvalidConfigError, match=message):
        Observations(**dict(row, **bad))


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
        obs = observations(*(observation_row(lum, pose, intrinsics) for lum in (lum_a, lum_b)))
        q = cone_matrices(obs.coefficients, intrinsics.f)
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
        r = rotation_scalar(phi, theta, psi)
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
        r = rotation_scalar(phi, theta, psi)
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
    r = rotation_scalar(0.0, math.pi / 2, 0.0)
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
        r = rotation_scalar(phi, theta, psi)
        h = r.T @ g
        assert abs(psi_of(g, h, phi, theta)[0] - psi) < 1e-9


def test_psi_oavpa_degenerate_direction(intrinsics):
    # Luminaire centers one above the other carry no heading information.
    rng = np.random.default_rng(26)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs = observations(observation_row(lum_a, pose, intrinsics, complete=False),
                       observation_row(lum_b, pose, intrinsics, complete=False))
    above = LuminaireInfo(id=lum_b.id, center_w=lum_a.center_w + [0.0, 0.0, 0.5],
                          radius=lum_b.radius)
    with pytest.raises(DegenerateDirectionError):
        solve_vpa(obs, lum_map(lum_a, above), intrinsics)


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
    truths, estimates = [], []
    for _ in range(100):
        lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
        obs = observations(observation_row(lum_a, pose, intrinsics),
                           observation_row(lum_b, pose, intrinsics, complete=False,
                                           arc=slice(10, 150)))
        est = solve_vpa(obs, lum_map(lum_a, lum_b), intrinsics)
        assert est.algorithm == "VPCA" and est.psi_residual < 1e-9
        truths.append(pose)
        estimates.append(est.pose)
    worst_loc = e_loc_rows([p.translation for p in truths],
                           [p.translation for p in estimates]).max()
    worst_pos = e_pos_rows(np.array([p.rotation for p in truths]),
                           np.array([p.rotation for p in estimates])).max()
    assert worst_loc < 1e-6
    assert worst_pos < 1e-8


def test_vpca_head_on_geometry(intrinsics):
    lum = LuminaireInfo(id="A", center_w=np.array([2.0, 2.0, 3.0]), radius=0.15)
    other = LuminaireInfo(id="B", center_w=np.array([2.6, 2.0, 3.0]), radius=0.15)
    pose = make_pose(t=(2.0, 2.0, 1.0))  # upright, 2 m below the center
    obs = observations(observation_row(lum, pose, intrinsics),
                       observation_row(other, pose, intrinsics, complete=False))
    est = solve_vpa(obs, lum_map(lum, other), intrinsics)
    # The exactly-degenerate head-on cone (l1 == l2) turns eigenvalue-gap
    # rounding into k ~ sqrt(eps), so expect ~1e-8 rather than 1e-12 here.
    assert np.allclose(est.pose.translation, [2.0, 2.0, 1.0], atol=1e-7)
    assert np.abs(est.pose.rotation - np.eye(3)).max() < 1e-7
    assert est.algorithm == "VPCA"


def test_vpca_unknown_luminaire(intrinsics):
    rng = np.random.default_rng(27)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs = observations(observation_row(lum_a, pose, intrinsics),
                       observation_row(lum_b, pose, intrinsics, complete=False))
    with pytest.raises(UnknownLuminaireError, match=repr(lum_a.id)):
        solve_vpa(obs, lum_map(lum_b), intrinsics)


def test_oavpa_zero_noise_bias_is_small_but_nonzero(intrinsics):
    rng = np.random.default_rng(28)
    truths, estimates = [], []
    for _ in range(50):
        lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
        obs = observations(
            observation_row(lum_a, pose, intrinsics, complete=False, arc=slice(0, 180)),
            observation_row(lum_b, pose, intrinsics, complete=False, arc=slice(90, 270)))
        est = solve_vpa(obs, lum_map(lum_a, lum_b), intrinsics)
        assert est.algorithm == "OAVPA" and math.isnan(est.psi_residual)
        truths.append(pose.translation)
        estimates.append(est.pose.translation)
    mean = float(e_loc_rows(truths, estimates).mean())
    assert 0.0 < mean <= 0.02


def test_oavpa_head_on_symmetry_has_no_bias(intrinsics):
    # Upright camera: ceiling discs stay parallel to the image plane, so the
    # fitted ellipse center coincides with the projected center exactly.
    lum_a = LuminaireInfo(id="A", center_w=np.array([3.7, 3.0, 3.0]), radius=0.15)
    lum_b = LuminaireInfo(id="B", center_w=np.array([4.3, 3.0, 3.0]), radius=0.15)
    pose = make_pose(psi=0.4, t=(4.0, 3.0, 1.2))
    obs = observations(
        observation_row(lum_a, pose, intrinsics, complete=False, arc=slice(0, 200)),
        observation_row(lum_b, pose, intrinsics, complete=False, arc=slice(100, 300)))
    est = solve_vpa(obs, lum_map(lum_a, lum_b), intrinsics)
    assert est.algorithm == "OAVPA"
    assert np.linalg.norm(est.pose.translation - pose.translation) < 1e-6


def test_oavpa_rejects_duplicate_luminaire(intrinsics):
    rng = np.random.default_rng(29)
    lum_a, _, pose = two_luminaire_setup(rng, intrinsics)
    row = observation_row(lum_a, pose, intrinsics, complete=False)
    with pytest.raises(InvalidConfigError, match=f"repeated luminaire_id {lum_a.id!r}"):
        observations(row, row)


def test_vpa_dispatch(intrinsics):
    rng = np.random.default_rng(30)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    lums = lum_map(lum_a, lum_b)
    complete = observation_row(lum_a, pose, intrinsics)
    partial_a = observation_row(lum_a, pose, intrinsics, complete=False, arc=slice(0, 180))
    partial_b = observation_row(lum_b, pose, intrinsics, complete=False, arc=slice(0, 180))
    assert solve_vpa(observations(complete, partial_b), lums, intrinsics).algorithm == "VPCA"
    # The complete capture leads the pair wherever it stands in the record.
    assert solve_vpa(observations(partial_b, complete), lums, intrinsics).algorithm == "VPCA"
    assert solve_vpa(observations(partial_a, partial_b), lums, intrinsics).algorithm == "OAVPA"
    with pytest.raises(TooFewLuminairesError):
        solve_vpa(observations(complete), lums, intrinsics)


def test_vpa_dispatch_is_deterministic(intrinsics):
    rng = np.random.default_rng(31)
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    obs = observations(
        observation_row(lum_a, pose, intrinsics, complete=False, arc=slice(0, 200)),
        observation_row(lum_b, pose, intrinsics, complete=False, arc=slice(0, 200)),
    )
    first = solve_vpa(obs, lum_map(lum_a, lum_b), intrinsics)
    second = solve_vpa(obs, lum_map(lum_a, lum_b), intrinsics)
    assert (first.algorithm, first.gap) == (second.algorithm, second.gap)
    assert np.array_equal(first.pose.translation, second.pose.translation)
    assert np.array_equal(first.pose.rotation, second.pose.rotation)


def test_vpa_parallel_planes_at_different_heights(intrinsics):
    # Luminaires on parallel planes 0.3 m apart; the circle-and-arc branch
    # stays exact and the dispatcher handles the pair.
    lum_a = LuminaireInfo(id="A", center_w=np.array([3.8, 3.0, 3.0]), radius=0.15)
    lum_b = LuminaireInfo(id="B", center_w=np.array([4.35, 3.1, 2.7]), radius=0.15)
    pose = make_pose(phi=0.1, theta=-0.08, psi=0.7, t=(4.0, 3.0, 1.1))
    obs = observations(
        observation_row(lum_a, pose, intrinsics),
        observation_row(lum_b, pose, intrinsics, complete=False, arc=slice(20, 200)),
    )
    est = solve_vpa(obs, lum_map(lum_a, lum_b), intrinsics)
    assert est.algorithm == "VPCA"
    assert np.linalg.norm(est.pose.translation - pose.translation) < 1e-6

    # The arcs-only solver also copes with the height difference (small bias).
    obs_partial = observations(
        observation_row(lum_a, pose, intrinsics, complete=False, arc=slice(0, 200)),
        observation_row(lum_b, pose, intrinsics, complete=False, arc=slice(20, 200)),
    )
    est2 = solve_vpa(obs_partial, lum_map(lum_a, lum_b), intrinsics)
    assert est2.algorithm == "OAVPA"
    assert np.linalg.norm(est2.pose.translation - pose.translation) < 0.05


# --- PnP baseline ------------------------------------------------------------------

def pnp_scene(rng, intrinsics):
    """Four world points (1, 4, 3) on two luminaires, their pixels (1, 4, 2),
    and the pose that sees them."""
    lum_a, lum_b, pose = two_luminaire_setup(rng, intrinsics)
    world = np.array([circle_world_points(lum.center_w, lum.radius,
                                          [phase + np.pi / 2, phase + 3 * np.pi / 2])
                      for lum, phase in ((lum_a, 0.0), (lum_b, np.pi / 4))]).reshape(1, 4, 3)
    return world, project_world_pixels(world, pose, intrinsics), pose


def test_pnp_zero_noise_exact(intrinsics):
    rng = np.random.default_rng(32)
    world, pixels, poses = zip(*(pnp_scene(rng, intrinsics) for _ in range(30)))
    sol = pnp_solve(np.concatenate(world), np.concatenate(pixels), intrinsics)
    assert (sol.failure == -1).all()
    truth = np.array([pose.translation for pose in poses])
    assert np.linalg.norm(sol.translation - truth, axis=1).max() < 1e-6
    assert (sol.rms_px < 1e-6).all()
    assert ((sol.iterations >= 1) & (sol.iterations <= 100)).all()
    assert not sol.above_plane.any()


def test_pnp_requires_four_points(intrinsics):
    rng = np.random.default_rng(33)
    world, pixels, _ = pnp_scene(rng, intrinsics)
    error = pnp_solve(world[:, :3], pixels[:, :3], intrinsics).error(0)
    assert type(error) is ValueError and "at least 4" in str(error)


def test_pnp_rejects_collinear_world_points(intrinsics):
    world = np.array([[[x, 2.0, 3.0] for x in (1.0, 2.0, 3.0, 4.0)]])
    pixels = np.array([[[300.0 + 10 * x, 240.0] for x in (1.0, 2.0, 3.0, 4.0)]])
    error = pnp_solve(world, pixels, intrinsics).error(0)
    assert type(error) is ValueError and "collinear" in str(error)


def test_pnp_noisy_residual_is_local_minimum(intrinsics):
    # With perturbed pixels the output must beat the true pose's residual and
    # sit at a local minimum of the reprojection cost.
    rng = np.random.default_rng(34)
    world, pixels, pose = pnp_scene(rng, intrinsics)
    pixels = pixels + rng.normal(0, 0.5, size=pixels.shape)
    sol = pnp_solve(world, pixels, intrinsics)
    assert sol.error(0) is None

    def cost(x):
        res = pnp_residuals(np.asarray(x)[None], world, pixels, intrinsics)
        return float(res[0] @ res[0])

    x_est = np.concatenate([angles_from_rotation(sol.rotation[0]), sol.translation[0]])
    cost_est = cost(x_est)
    assert cost_est <= cost(np.concatenate([
        angles_from_rotation(pose.rotation), pose.translation
    ])) + 1e-9
    assert sol.rms_px[0] == pytest.approx(math.sqrt(cost_est / 8), rel=1e-6)
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
    return ((world - x[3:6]) @ rotation_scalar(x[0], x[1], x[2]))[:, 2]


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
