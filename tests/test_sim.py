"""Scene sampling, visibility, and the capture of one observation per
luminaire: projection, averaged pixel noise, arc truncation and the fit."""

import copy
import itertools
import json
import math

import numpy as np
import pytest

from arcpose import sim
from arcpose.conic import EllipseCoeffs, ellipse_centers, fit_ellipse
from arcpose.errors import (
    ArcTooShortError,
    InvalidConfigError,
    NotVisibleError,
    SamplingExhaustedError,
)
from arcpose.frames import (
    EulerAngles,
    Pose,
    _wrap_angle,
    euler_to_rotation,
    pixel_to_image,
)
from arcpose.sim import (
    ARC_MODES,
    Scene,
    Visibility,
    _in_bounds,
    _project_points_pixel,
    classify,
    contour_angles,
    luminaire_points,
    sample_poses,
    scene_from_dict,
    scene_to_dict,
    default_intrinsics,
    default_scene,
)
from arcpose.harness import ExperimentConfig, _capture_block
from arcpose.solver import LuminaireInfo, Observation, pair_observations

from conftest import make_pose
from oracles import image_to_pixel, project_to_image, rank_pair, world_to_camera


@pytest.fixture
def scene():
    return default_scene()


@pytest.fixture
def k():
    return default_intrinsics()


def visibility_at(scene, pose, k, contour_samples=360):
    """Every luminaire's `Visibility`, pixels included, from one pose
    classified as a block of one."""
    points = luminaire_points(scene.luminaires, contour_samples)
    pixels, gm, fractions, complete, lengths = classify(
        pose.rotation[None], pose.translation[None], k, points)
    pixels.flags.writeable = False
    return tuple(Visibility(lum.id, float(fractions[0, i]), bool(complete[0, i]),
                            float(lengths[0, i]), pixels[0, i], gm[0, i, 0], gm[0, i, 1])
                 for i, lum in enumerate(scene.luminaires))


def capture_observation(vis, mode, noise_px, k, rng, arc_fraction=0.6):
    """The `Observation` of one luminaire: `sim.capture` with one row, whose
    error it raises."""
    cap = sim.capture([vis], [mode], noise_px, k, [rng], arc_fraction)
    error = cap.error(0)
    if error is not None:
        raise error
    kept = cap.keep[0, :cap.count[0]]
    complete = bool(cap.complete[0])
    return Observation(
        luminaire_id=vis.luminaire_id, ellipse=EllipseCoeffs(*cap.coefficients[0]),
        complete=complete, center_proj=vis.center if complete else None,
        mark_proj=vis.mark if complete else None, contour_pixels=cap.pixels[0, :len(kept)],
        contour_angles=contour_angles(len(vis.pixels))[kept])


def capture(scene, k, pose, mode="complete", noise_px=0.0, seed=0, lum=0,
            contour_samples=360):
    """The observation of scene luminaire `lum` seen from `pose`."""
    vis = visibility_at(scene, pose, k, contour_samples)[lum]
    return capture_observation(vis, mode, noise_px, k, np.random.default_rng(seed))


# --- scene and config validation --------------------------------------------------

def test_default_scene_layout(scene):
    assert scene.room == (8.0, 6.0, 3.0)
    assert [lum.id for lum in scene.luminaires] == ["L1", "L2", "L3", "L4"]
    assert {tuple(lum.center_w) for lum in scene.luminaires} == {
        (2.0, 2.0, 3.0), (6.0, 2.0, 3.0), (2.0, 4.0, 3.0), (6.0, 4.0, 3.0),
    }
    assert all(lum.radius == 0.15 for lum in scene.luminaires)


def test_default_intrinsics_fov(k):
    # Half-width 320 px * 1.25e-3 cm = 0.4 cm = f, i.e. a 90-degree FOV.
    assert math.isclose(2 * math.degrees(math.atan(k.u0 * k.dx / k.f)), 90.0)


def test_scene_rejects_luminaire_outside_room():
    with pytest.raises(ValueError):
        Scene(room=(4.0, 4.0, 3.0),
              luminaires=(LuminaireInfo(id="X", center_w=np.array([5.0, 1.0, 3.0]),
                                        radius=0.1),))


# --- visibility and pose sampling ---------------------------------------------------

def test_upright_center_sees_all_four_with_wide_lens(scene):
    # From the room center near the floor, every luminaire offset (+-2, +-1)
    # at 2.5 m vertical distance fits the 90 x 74 degree field of view:
    # |x|/dz = 0.8 <= tan(45deg), |y|/dz = 0.4 <= tan(36.9deg).
    k = default_intrinsics()
    pose = make_pose(t=(4.0, 3.0, 0.5))
    for vis in visibility_at(scene, pose, k):
        assert vis.fraction == 1.0 and vis.complete


def draw_poses(scene, k, rngs, complete=False):
    """`sample_poses` with the scene's 360-point contours."""
    return sample_poses(scene, rngs, k, luminaire_points(scene.luminaires, 360), complete)


def test_sample_pose_postcondition(scene, k):
    rngs = [np.random.default_rng([40, i]) for i in range(200)]
    for drawn in draw_poses(scene, k, rngs):
        fractions = [v.fraction for v in drawn.visibility]
        assert sum(f >= sim.MIN_FRACTION for f in fractions) >= 2
        x, y, z = drawn.pose.translation
        assert 0 <= x <= 8 and 0 <= y <= 6 and 0.5 <= z <= 2.0


def test_sample_pose_require_complete(scene, k):
    rngs = [np.random.default_rng([41, i]) for i in range(50)]
    for drawn in draw_poses(scene, k, rngs, complete=True):
        assert sum(v.complete for v in drawn.visibility) >= 2


def test_sample_pose_empty_scene(k):
    empty = Scene(room=(8.0, 6.0, 3.0), luminaires=())
    # No rings, center/mark pairs or radii, as `luminaire_points` lays them out.
    points = np.empty((0, 3, 360)), np.empty((0, 3, 2)), np.empty(0)
    with pytest.raises(SamplingExhaustedError):
        sample_poses(empty, [np.random.default_rng(0)], k, points, False)


def test_sample_pose_deterministic(scene, k):
    a = draw_poses(scene, k, [np.random.default_rng(7)])[0].pose
    b = draw_poses(scene, k, [np.random.default_rng(7)])[0].pose
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)


def scalar_sample_pose(scene, rng, k, complete):
    """The one-pose-at-a-time rejection loop the batched sampler replaced:
    a validated `EulerAngles` and `Pose` per attempt, and all rings
    projected alone. Returns the pose, its attempt count and the visibility
    fields of its projection (pixels, center and mark pixels, fraction,
    completeness and contour length per luminaire)."""
    length, width, _ = scene.room
    angles = contour_angles(360)
    rings = np.stack([lum.circle_points(angles) for lum in scene.luminaires])
    marks = np.stack([np.stack([lum.center_w, lum.mark_w]) for lum in scene.luminaires])

    def project(points, pose):
        cam = (points - pose.translation) @ pose.rotation
        z = cam[..., 2]
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(z > 0, (k.f * cam[..., 0] / z) / k.dx + k.u0, np.nan)
            v = np.where(z > 0, (k.f * cam[..., 1] / z) / k.dy + k.v0, np.nan)
        return np.stack([u, v], axis=-1)

    low, high = sim.HEIGHT_RANGE
    for attempt in range(1, sim.MAX_ATTEMPTS + 1):
        draw = rng.uniform(size=6)
        position = np.array([draw[0] * length, draw[1] * width,
                             low + draw[2] * (high - low)])
        e = EulerAngles(
            phi=(2 * draw[3] - 1) * sim.MAX_TILT,
            theta=(2 * draw[4] - 1) * sim.MAX_TILT,
            psi=_wrap_angle((2 * draw[5] - 1) * math.pi),
        )
        pose = Pose(rotation=euler_to_rotation(e), translation=position)
        fractions = _in_bounds(project(rings, pose), k).mean(axis=1)
        if int((fractions >= (1.0 if complete else sim.MIN_FRACTION)).sum()) < 2:
            continue
        if complete:
            gm_ok = _in_bounds(project(marks, pose), k).all(axis=1)
            if int(((fractions == 1.0) & gm_ok).sum()) < 2:
                continue
        pixels, gm = project(rings, pose), project(marks, pose)
        inside = _in_bounds(pixels, k)
        fractions = inside.mean(axis=1)
        complete = (fractions == 1.0) & _in_bounds(gm, k).all(axis=1)
        seg = np.linalg.norm(np.diff(pixels, axis=1, append=pixels[:, :1]), axis=-1)
        both = inside & np.roll(inside, -1, axis=1)
        lengths = [seg[i][both[i]].sum() for i in range(len(rings))]
        return pose, attempt, list(zip(pixels, gm, fractions, complete, lengths))
    raise SamplingExhaustedError("reference loop exhausted")


def offset_camera():
    """Off-centre intrinsics (u0 != width/2, v0 != height/2, dx != dy) and
    the default room with 6 cm luminaires, L3 hung 0.8 m below the ceiling:
    a swapped pair of image bounds shows in these poses, unlike in the
    default camera's symmetric ones."""
    k = sim.CameraIntrinsics(f=0.4, dx=1.25e-3, dy=1.5e-3, u0=280.0, v0=262.0,
                             width=640, height=480)
    drop = {"L3": 0.8}
    lums = tuple(LuminaireInfo(lum.id, lum.center_w - [0, 0, drop.get(lum.id, 0.0)], 0.06)
                 for lum in default_scene().luminaires)
    return Scene(room=(8.0, 6.0, 3.0), luminaires=lums), k


@pytest.mark.parametrize("stream,complete,solo_after,offset",
                         [(0, False, 64, False), (2, True, 64, False), (0, False, 2, False),
                          (3, False, 64, True), (4, True, 64, True)],
                         ids=["0-64", "2-64", "0-2", "offset", "offset-complete"])
def test_batched_sampler_matches_scalar_reference(scene, k, stream, complete,
                                                  solo_after, offset, monkeypatch):
    # solo_after=2: after two rounds the generators advance one at a time.
    monkeypatch.setattr(sim, "SOLO_AFTER", solo_after)
    if offset:
        scene, k = offset_camera()
    seeds = [[stream, i] for i in range(120)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # One block of 100 and one of 20: rounds in lockstep over many generators.
    drawn = (draw_poses(scene, k, rngs[:100], complete)
             + draw_poses(scene, k, rngs[100:], complete))
    attempts = []
    for seed, rng, got in zip(seeds, rngs, drawn):
        ref_rng = np.random.default_rng(seed)
        pose, n, reference = scalar_sample_pose(scene, ref_rng, k, complete)
        attempts.append(n)
        assert np.array_equal(got.pose.rotation, pose.rotation)
        assert np.array_equal(got.pose.translation, pose.translation)
        assert got.attempts == n
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # The pair a capture takes keeps its pixels; the others keep none.
        assert got.pair == rank_pair([length for *_, length in reference],
                                     [lum.id for lum in scene.luminaires],
                                     [whole for *_, whole, _ in reference], not complete)
        for i, (lum, a, (pixels, gm, fraction, whole, length)) in enumerate(zip(
                scene.luminaires, got.visibility, reference)):
            assert (a.luminaire_id, a.fraction, a.complete, a.contour_px) == (
                lum.id, fraction, whole, length)
            fields = [("center", gm[0]), ("mark", gm[1])]
            if i in got.pair:
                fields.append(("pixels", pixels))
            else:
                assert a.pixels is None
            for name, ref in fields:
                assert np.array_equal(getattr(a, name), ref, equal_nan=True)
                assert not getattr(a, name).flags.writeable
    # The case needs rejections to mean anything.
    assert max(attempts) > 3 and np.mean(attempts) > 1.5


@pytest.mark.parametrize("solo_after", [64, 3])
def test_sampler_exhausts_after_max_attempts(scene, k, solo_after, monkeypatch):
    monkeypatch.setattr(sim, "SOLO_AFTER", solo_after)
    monkeypatch.setattr(sim, "MIN_FRACTION", 1.5)
    monkeypatch.setattr(sim, "MAX_ATTEMPTS", 7)
    rngs = [np.random.default_rng([9, i]) for i in range(3)]
    with pytest.raises(SamplingExhaustedError, match="in 7 attempts"):
        draw_poses(scene, k, rngs)
    # The first generator drew max_attempts candidates; the others stopped
    # when the block went one generator at a time.
    for i, draws in enumerate([7] + 2 * [min(7, solo_after)]):
        reference = np.random.default_rng([9, i])
        for _ in range(draws):
            reference.uniform(size=6)
        assert rngs[i].bit_generator.state == reference.bit_generator.state


def edge_normals(k):
    """Unit camera-frame normals n of the five half-spaces n.p >= 0 whose
    intersection is the set of points that project into the image: in front
    of the camera, then u >= 0, u <= width, v >= 0 and v <= height."""
    normals = np.array([[0.0, 0.0, 1.0],
                        [k.f / k.dx, 0.0, k.u0], [-k.f / k.dx, 0.0, k.width - k.u0],
                        [0.0, k.f / k.dy, k.v0], [0.0, -k.f / k.dy, k.height - k.v0]])
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def check_bounds(scene, k, rotations, translations, contour_samples):
    """`visibility_bounds` of P poses against the count of every contour
    point that passes `_inside`: a luminaire put inside has all its points
    in the image, one put outside none. Returns both masks."""
    points = luminaire_points(scene.luminaires, contour_samples)
    inside, outside = sim.visibility_bounds(rotations, translations, k, points)
    assert not (inside & outside).any()
    for p in range(0, len(rotations), 25):
        rows = slice(p, p + 25)
        hits = np.count_nonzero(sim._inside(points[0], rotations[rows, None],
                                            translations[rows, None], k), axis=2)
        assert (hits[inside[rows]] == contour_samples).all()
        assert (hits[outside[rows]] == 0).all()
    return inside, outside


# 3600-point contours take 0.7 s per 1000 poses to count.
@pytest.mark.parametrize("contour_samples,count", [(8, 5000), (3600, 1000)])
@pytest.mark.parametrize("offset", [False, True], ids=["default", "offset"])
def test_visibility_bounds_agree_with_projected_contours(contour_samples, count, offset):
    scene, k = offset_camera() if offset else (default_scene(), default_intrinsics())
    rng = np.random.default_rng(contour_samples)
    # Tilts up to 80 degrees and heights up to above the ceiling, so that
    # rings also cross the camera's z = 0 plane.
    angles = rng.uniform([-1.4, -1.4, -math.pi], [1.4, 1.4, math.pi], size=(count, 3))
    rotations = np.array([sim.rotation_from_angles(*a) for a in angles])
    translations = rng.uniform([-1.0, -1.0, 0.3], [9.0, 7.0, 3.2], size=(count, 3))
    inside, outside = check_bounds(scene, k, rotations, translations, contour_samples)
    # Most luminaires are decided without a projection.
    assert inside.mean() > 0.1 and outside.mean() > 0.3
    assert (inside | outside).mean() > 0.8


@pytest.mark.parametrize("contour_samples", [8, 3600])
@pytest.mark.parametrize("offset", [False, True], ids=["default", "offset"])
def test_visibility_bounds_agree_at_tangency(contour_samples, offset):
    # Poses that see a luminaire whole, each moved so that the ring's
    # nearest (or farthest) point lies 1e-6 m from one image edge's plane or
    # from the z = 0 plane, on either side of it.
    scene, k = offset_camera() if offset else (default_scene(), default_intrinsics())
    rngs = [np.random.default_rng([contour_samples, i]) for i in range(10)]
    drawn = sample_poses(scene, rngs, k, luminaire_points(scene.luminaires, 360), True)
    rotations, translations, tangent = [], [], []
    for sampled in drawn:
        r, t = sampled.pose.rotation, sampled.pose.translation
        for i in sampled.pair:
            lum = scene.luminaires[i]
            for n, side, offset_m in itertools.product(edge_normals(k), (-1, 1),
                                                       (-1e-6, 1e-6)):
                w = r @ n  # the half-space's unit normal in the world
                # n.cam ranges over w.(c - t) -+ R hypot(w_x, w_y) on the
                # ring; moving the camera along w takes an extremum to offset_m.
                extremum = w @ (lum.center_w - t) + side * lum.radius * math.hypot(*w[:2])
                rotations.append(r)
                translations.append(t + (extremum - offset_m) * w)
                tangent.append(i)
    rotations, translations = np.array(rotations), np.array(translations)
    inside, outside = check_bounds(scene, k, rotations, translations, contour_samples)
    # The margin is far below 1e-6 m: the tangent rings are decided where
    # their nearest point is inside by 1e-6 m, or their farthest outside.
    rows = np.arange(len(tangent))
    assert inside[rows, tangent].any() and outside[rows, tangent].any()


# --- projection -----------------------------------------------------------------------

def test_clean_head_on_contour_is_pixel_circle(scene, k):
    lum = scene.luminaires[0]
    h = 2.0
    pose = make_pose(t=(*lum.center_w[:2], lum.center_w[2] - h))
    obs = capture(scene, k, pose)
    radius_px = k.f * lum.radius / (h * k.dx)
    dist = np.linalg.norm(obs.contour_pixels - np.array([k.u0, k.v0]), axis=1)
    assert np.abs(dist - radius_px).max() < 1e-9
    assert np.allclose(obs.center_proj, [k.u0, k.v0])


def test_projection_matches_frame_oracles(k):
    # The batched projection of 30 random poses in one call, against the
    # scalar reference chain world -> camera -> image plane -> pixels.
    rng = np.random.default_rng(17)
    poses = [make_pose(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5), rng.uniform(-3, 3),
                       t=rng.uniform([0, 0, 0.5], [8, 6, 2])) for _ in range(30)]
    points = rng.uniform([-1, -1, -1], [9, 7, 4], size=(200, 3))
    pixels = _project_points_pixel(points.T, np.stack([p.rotation for p in poses]),
                                   np.stack([p.translation for p in poses]), k)
    assert pixels.shape == (30, 200, 2)
    for pose, pix in zip(poses, pixels):
        z = world_to_camera(points, pose)[:, 2]
        # Near z = 0 the pixels run to infinity; the projection is only
        # compared where it is finite and well conditioned.
        front, behind = z > 0.1, z <= 0
        assert front.any() and behind.any()
        expected = image_to_pixel(project_to_image(world_to_camera(points[front], pose), k), k)
        assert np.abs(pix[front] - expected).max() < 1e-9
        assert np.isnan(pix[behind]).all()


def test_noise_statistics(scene, k):
    lum = scene.luminaires[0]
    vis = visibility_at(scene, make_pose(t=(*lum.center_w[:2], 1.0)), k)[0]
    rng = np.random.default_rng(42)
    deltas = np.concatenate([
        capture_observation(vis, "complete", 2.0, k, rng).contour_pixels - vis.pixels
        for _ in range(150)
    ]).ravel()
    assert deltas.size >= 1e5
    assert abs(deltas.std() - 2.0) < 0.1
    assert abs(deltas.mean()) < 0.05


def test_luminaire_behind_camera_not_visible(scene, k):
    # Camera looking straight down: the ceiling is behind it.
    down = make_pose(phi=math.pi, t=(2.0, 2.0, 1.0))
    with pytest.raises(NotVisibleError):
        capture(scene, k, down)


def test_visibility_classification_ignores_noise(scene, k):
    # Classification runs on the clean projection, so it cannot depend on sigma.
    drawn = draw_poses(scene, k, [np.random.default_rng(43)])[0]
    flags = [(v.fraction, v.complete) for v in drawn.visibility]
    assert flags == [(v.fraction, v.complete)
                     for v in visibility_at(scene, drawn.pose, k)]


# --- truncation ------------------------------------------------------------------------

def side_view(scene, k):
    """Luminaire L1 seen whole from a slightly off-axis pose."""
    return visibility_at(scene, make_pose(t=(2.3, 2.2, 1.0)), k)[0]


def test_semicircle_keeps_exactly_half(scene, k):
    vis = side_view(scene, k)
    rng = np.random.default_rng(0)
    start = int(copy.deepcopy(rng).integers(360))
    assert start + 180 > 360  # the kept span wraps the seam
    obs = capture_observation(vis, "semicircle", 0.0, k, rng)
    assert len(obs.contour_pixels) == 180
    assert not obs.complete
    assert obs.center_proj is None and obs.mark_proj is None
    idx = np.arange(start, start + 180) % 360
    assert np.array_equal(obs.contour_angles, contour_angles(360)[idx])
    assert np.array_equal(obs.contour_pixels, vis.pixels[idx])


def test_superior_arc_fraction(scene, k):
    vis = side_view(scene, k)
    for fraction, span in ((0.6, 216), (0.25, 90)):
        rng = np.random.default_rng(1)
        start = int(copy.deepcopy(rng).integers(360))
        obs = capture_observation(vis, "superior_arc", 0.0, k, rng, fraction)
        assert np.array_equal(obs.contour_angles,
                              contour_angles(360)[np.arange(start, start + span) % 360])


def test_complete_mode_is_identity(scene, k):
    # Every contour point in order, and the center and mark as projected.
    vis = side_view(scene, k)
    obs = capture_observation(vis, "complete", 0.0, k, np.random.default_rng(0))
    assert obs.complete
    assert np.array_equal(obs.contour_angles, contour_angles(360))
    assert np.array_equal(obs.contour_pixels, vis.pixels)
    assert np.array_equal(obs.center_proj, vis.center)
    assert np.array_equal(obs.mark_proj, vis.mark)


def test_semicircle_fits_same_ellipse(scene, k):
    vis = side_view(scene, k)
    full = capture_observation(vis, "complete", 0.0, k, np.random.default_rng(0)).ellipse
    half = capture_observation(vis, "semicircle", 0.0, k, np.random.default_rng(5)).ellipse
    assert np.allclose(
        [full.a, full.b, full.c, full.d, full.e],
        [half.a, half.b, half.c, half.d, half.e],
        rtol=1e-9, atol=1e-9,
    )


def test_truncation_too_short(scene, k):
    pose = make_pose(t=(2.3, 2.2, 1.0))
    with pytest.raises(ArcTooShortError):
        capture(scene, k, pose, mode="semicircle", contour_samples=8)
    with pytest.raises(ValueError, match="mode must be one of"):
        capture(scene, k, pose, mode="quarter_arc")


def test_image_bounds_mode_drops_outside_points(scene, k):
    # Tilt until the disc straddles the image edge.
    pose = None
    for theta in np.linspace(0.0, 1.0, 201):
        candidate = make_pose(theta=theta, t=(2.0, 2.0, 1.0))
        frac = visibility_at(scene, candidate, k)[0].fraction
        if 0.1 < frac < 1.0:
            pose = candidate
            break
    assert pose is not None
    vis = visibility_at(scene, pose, k)[0]
    obs = capture(scene, k, pose, mode="image_bounds")
    assert len(obs.contour_pixels) == round(vis.fraction * 360)
    assert (obs.contour_pixels[:, 0] >= 0).all()
    assert (obs.contour_pixels[:, 0] <= k.width).all()


@pytest.mark.parametrize("mode", ARC_MODES)
def test_noise_level_keeps_stream_aligned(scene, k, mode):
    # One standard normal pair per contour point, after the start index of
    # the modes that draw one, whatever the noise level: noise and radius
    # sweeps stay paired sample for sample.
    vis = side_view(scene, k)
    rngs = [np.random.default_rng([11, ARC_MODES.index(mode)]) for _ in range(3)]
    clean = capture_observation(vis, mode, 0.0, k, rngs[0])
    capture_observation(vis, mode, 2.0, k, rngs[1])
    if mode in ("semicircle", "superior_arc"):
        rngs[2].integers(360)
    rngs[2].standard_normal((360, 2))
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]
    idx = np.rint(clean.contour_angles * 360 / (2 * np.pi)).astype(int)
    assert np.array_equal(clean.contour_pixels, vis.pixels[idx])


# --- averaging over the images of a location ----------------------------------------

def upright_view(scene, k):
    """Every luminaire seen whole, from the room center near the floor."""
    return visibility_at(scene, make_pose(t=(4.0, 3.0, 0.5)), k)


def capture_upright(cfg, vis, rng):
    """The harness's capture of the pair it takes from the visibilities
    `vis`, and the clean pixels of that pair's two rows."""
    pair = pair_observations(vis, cfg.scenario == "mixed")
    drawn = sim.SampledPose(make_pose(t=(4.0, 3.0, 0.5)), vis, 1, pair)
    cap, _ = _capture_block(cfg, [drawn], [rng])
    return cap, [vis[i].pixels for i in pair]


def test_average_of_identical_captures_matches_single_fit(scene, k):
    # Noise-free images all read the clean contour, and so does their average.
    cfg = ExperimentConfig(sigma=0.0, images_per_location=20)
    cap, clean = capture_upright(cfg, upright_view(scene, k), np.random.default_rng(0))
    for row, pixels in enumerate(clean):
        single = fit_ellipse(pixel_to_image(pixels, k))
        assert np.array_equal(cap.coefficients[row], single.coefficients)
        assert cap.complete[row]


def test_averaging_shrinks_noise_as_sqrt_n(scene, k):
    vis = upright_view(scene, k)
    for images in (20, 5):
        cfg = ExperimentConfig(sigma=2.0, images_per_location=images)
        residuals = []
        for seed in range(50):
            cap, clean = capture_upright(cfg, vis, np.random.default_rng(seed))
            residuals += [cap.pixels[row] - pixels for row, pixels in enumerate(clean)]
        std = np.concatenate(residuals).ravel().std()
        assert abs(std - 2.0 / math.sqrt(images)) < 0.05


def test_burst_determinism(scene, k):
    vis = side_view(scene, k)
    a, b = (capture_observation(vis, "superior_arc", 2.0, k, np.random.default_rng(99))
            for _ in range(2))
    assert np.array_equal(a.contour_pixels, b.contour_pixels)
    assert np.array_equal(a.contour_angles, b.contour_angles)
    assert a.ellipse == b.ellipse


def test_tilted_view_has_perspective_bias(scene, k):
    # At a 30-degree tilt the fitted ellipse center must differ from the true
    # projected center; that gap is exactly what the arcs-only solver accepts.
    obs = capture(scene, k, make_pose(phi=math.radians(30), t=(2.0, 3.2, 1.2)))
    center_fit = image_to_pixel(ellipse_centers(obs.ellipse.coefficients[None])[0][0], k)
    gap = np.linalg.norm(center_fit - obs.center_proj)
    assert gap > 0.05  # pixels


# --- the direct draw against the per-image reference ----------------------------------

def reference_observation(lum, pose, k, mode, rng, sigma=2.0, n_img=20, n=360):
    """The per-image capture path that `sim.capture` replaces, kept as a
    reference.

    One luminaire projected on its own, `n_img` separate noisy images, each
    truncated on its own, averaged as a list; every image reads the same
    clean center and mark. Returns (averaged pixels, angles, center, mark,
    clean pixels) of the kept points.
    """
    start = int(rng.integers(n)) if mode in ("semicircle", "superior_arc") else None
    angles = contour_angles(n)
    r, t = pose.rotation, pose.translation
    clean = _project_points_pixel(lum.circle_points(angles).T, r, t, k)
    gm = _project_points_pixel(np.stack([lum.center_w, lum.mark_w], axis=1), r, t, k)
    noise = rng.standard_normal((n_img,) + clean.shape) * sigma
    images = [clean + noise[i] for i in range(n_img)]
    kept = []
    for image in images:
        if mode == "complete":
            keep = np.arange(n)
        elif mode == "image_bounds":
            keep = np.flatnonzero(_in_bounds(clean, k))
        else:
            span = n // 2 if mode == "semicircle" else int(round(n * 0.6))
            keep = np.arange(start, start + span) % n
        kept.append(image[keep])
    center, mark = gm if mode == "complete" else (None, None)
    return np.mean(kept, axis=0), angles[keep], center, mark, clean[keep]


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    gap = (np.searchsorted(a, x, side="right") / len(a)
           - np.searchsorted(b, x, side="right") / len(b))
    return float(np.abs(gap).max())


@pytest.mark.parametrize("mode", ARC_MODES)
def test_capture_matches_per_image_reference(scene, k, mode):
    # One draw of sigma / sqrt(20) in place of the average of 20 images of
    # sigma: the same kept points, center and mark, and averaged noise of the
    # same distribution, N(0, 0.447^2) px.
    noise, ref_noise = [], []
    for sample in range(25):
        rng = np.random.default_rng([ARC_MODES.index(mode), sample])
        drawn = draw_poses(scene, k, [rng])[0]
        for vis in (drawn.visibility[i] for i in drawn.pair):
            lum = scene.luminaire_map()[vis.luminaire_id]
            ref = reference_observation(lum, drawn.pose, k, mode, copy.deepcopy(rng))
            obs = capture_observation(vis, mode, 2.0 / math.sqrt(20), k, rng)
            assert np.array_equal(obs.contour_angles, ref[1])
            if mode == "complete":
                assert np.array_equal(obs.center_proj, ref[2])
                assert np.array_equal(obs.mark_proj, ref[3])
            else:
                assert obs.center_proj is None and obs.mark_proj is None
            noise.append(obs.contour_pixels - ref[4])
            ref_noise.append(ref[0] - ref[4])
    noise = np.concatenate(noise).ravel()
    ref_noise = np.concatenate(ref_noise).ravel()
    # At least 18000 values a side: the standard errors of the mean and the
    # std are below 0.0034 and 0.0024 px, and a KS statistic above 0.03 has
    # p < 1e-6 under equal distributions.
    assert noise.size == ref_noise.size >= 18000
    expected = 2.0 / math.sqrt(20)
    for values in (noise, ref_noise):
        assert abs(values.mean()) < 0.015
        assert abs(values.std() - expected) < 0.015
    assert ks_statistic(noise, ref_noise) < 0.03
    # The statistic does tell apart the noise of a single image.
    assert ks_statistic(noise, ref_noise * math.sqrt(20)) > 0.3


# --- scene serialization ------------------------------------------------------------------

def test_scene_json_round_trip(scene):
    data = json.loads(json.dumps(scene_to_dict(scene)))
    back = scene_from_dict(data)
    assert back.room == scene.room
    for lum_a, lum_b in zip(back.luminaires, scene.luminaires):
        assert lum_a.id == lum_b.id
        assert np.allclose(lum_a.center_w, lum_b.center_w)
        assert lum_a.radius == lum_b.radius


def test_scene_rejects_unknown_fields(scene):
    data = scene_to_dict(scene)
    data["extra"] = 1
    with pytest.raises(InvalidConfigError):
        scene_from_dict(data)
    data.pop("extra")
    data["luminaires"][0]["surprise"] = True
    with pytest.raises(InvalidConfigError):
        scene_from_dict(data)


def test_scene_rejects_wrong_schema_version(scene):
    data = scene_to_dict(scene)
    data["schema_version"] = 99
    with pytest.raises(InvalidConfigError):
        scene_from_dict(data)
