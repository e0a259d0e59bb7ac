"""Scene sampling, projection with noise, arc truncation, burst averaging."""

import copy
import json
import math

import numpy as np
import pytest

from arcpose import sim
from arcpose.conic import ellipse_centers, fit_ellipse
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
    image_to_pixel,
    pixel_to_image,
)
from arcpose.sim import (
    ARC_MODES,
    NoiseModel,
    Scene,
    VisibilityConstraint,
    _in_bounds,
    _project_points_pixel,
    average_observations,
    contour_angles,
    luminaire_points,
    luminaire_visibility,
    project_luminaire_burst,
    sample_pose,
    sample_poses,
    scene_from_dict,
    scene_to_dict,
    default_intrinsics,
    default_scene,
    truncate_arc,
)
from arcpose.solver import LuminaireInfo

from conftest import make_pose


@pytest.fixture
def scene():
    return default_scene()


@pytest.fixture
def k():
    return default_intrinsics()


def capture(scene, k, pose, sigma=0.0, images=1, seed=0, lum=0, contour_samples=360):
    """One burst of scene luminaire `lum` seen from `pose`."""
    vis = luminaire_visibility(scene.luminaires, pose, k, contour_samples)[lum]
    return project_luminaire_burst(
        vis, NoiseModel(sigma=sigma), images, np.random.default_rng(seed),
    )


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


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma=-1.0)


def test_capture_config_validation(scene, k):
    # The image count is all a burst takes besides the noise model.
    vis = luminaire_visibility(scene.luminaires, make_pose(t=(2.0, 2.0, 1.0)), k)[0]
    with pytest.raises(ValueError):
        project_luminaire_burst(vis, NoiseModel(sigma=1.0), 0, np.random.default_rng(0))


# --- visibility and pose sampling ---------------------------------------------------

def test_upright_center_sees_all_four_with_wide_lens(scene):
    # From the room center near the floor, every luminaire offset (+-2, +-1)
    # at 2.5 m vertical distance fits the 90 x 74 degree field of view:
    # |x|/dz = 0.8 <= tan(45deg), |y|/dz = 0.4 <= tan(36.9deg).
    k = default_intrinsics()
    pose = make_pose(t=(4.0, 3.0, 0.5))
    for vis in luminaire_visibility(scene.luminaires, pose, k):
        assert vis.fraction == 1.0 and vis.complete


def test_sample_pose_postcondition(scene, k):
    con = VisibilityConstraint(intrinsics=k)
    rng = np.random.default_rng(40)
    for _ in range(200):
        pose = sample_pose(scene, rng, con)
        fractions = [v.fraction for v in luminaire_visibility(scene.luminaires, pose, k)]
        assert sum(f >= con.min_fraction for f in fractions) >= 2
        x, y, z = pose.translation
        assert 0 <= x <= 8 and 0 <= y <= 6 and 0.5 <= z <= 2.0


def test_sample_pose_require_complete(scene, k):
    con = VisibilityConstraint(intrinsics=k, min_fraction=1.0, require_complete=2)
    rng = np.random.default_rng(41)
    for _ in range(50):
        pose = sample_pose(scene, rng, con)
        n_complete = sum(
            v.complete for v in luminaire_visibility(scene.luminaires, pose, k)
        )
        assert n_complete >= 2


def test_sample_pose_empty_scene(k):
    empty = Scene(room=(8.0, 6.0, 3.0), luminaires=())
    with pytest.raises(SamplingExhaustedError):
        sample_pose(empty, np.random.default_rng(0), VisibilityConstraint(intrinsics=k))


def test_sample_pose_deterministic(scene, k):
    con = VisibilityConstraint(intrinsics=k)
    a = sample_pose(scene, np.random.default_rng(7), con)
    b = sample_pose(scene, np.random.default_rng(7), con)
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)
    # Rings built once per run and passed in give the same pose.
    points = luminaire_points(scene.luminaires, con.contour_samples)
    c = sample_pose(scene, np.random.default_rng(7), con, points)
    assert np.array_equal(a.rotation, c.rotation)
    assert np.array_equal(a.translation, c.translation)


def scalar_sample_pose(scene, rng, constraint):
    """The one-pose-at-a-time rejection loop the batched sampler replaced:
    a validated `EulerAngles` and `Pose` per attempt, and all rings
    projected alone. Returns the pose, its attempt count and the visibility
    fields of its projection (pixels, center and mark pixels, fraction,
    completeness and contour length per luminaire)."""
    k = constraint.intrinsics
    length, width, _ = scene.room
    angles = contour_angles(constraint.contour_samples)
    rings = np.stack([lum.circle_points(angles) for lum in scene.luminaires])
    marks = np.stack([np.stack([lum.center_w, lum.mark_w]) for lum in scene.luminaires])

    def project(points, pose):
        cam = (points - pose.translation) @ pose.rotation
        z = cam[..., 2]
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(z > 0, (k.f * cam[..., 0] / z) / k.dx + k.u0, np.nan)
            v = np.where(z > 0, (k.f * cam[..., 1] / z) / k.dy + k.v0, np.nan)
        return np.stack([u, v], axis=-1)

    for attempt in range(1, constraint.max_attempts + 1):
        draw = rng.uniform(size=6)
        position = np.array([
            draw[0] * length,
            draw[1] * width,
            constraint.height_range[0]
            + draw[2] * (constraint.height_range[1] - constraint.height_range[0]),
        ])
        e = EulerAngles(
            phi=(2 * draw[3] - 1) * constraint.max_tilt,
            theta=(2 * draw[4] - 1) * constraint.max_tilt,
            psi=_wrap_angle((2 * draw[5] - 1) * math.pi),
        )
        pose = Pose(rotation=euler_to_rotation(e), translation=position)
        fractions = _in_bounds(project(rings, pose), k).mean(axis=1)
        if int((fractions >= constraint.min_fraction).sum()) < constraint.min_visible:
            continue
        if constraint.require_complete > 0:
            gm_ok = _in_bounds(project(marks, pose), k).all(axis=1)
            if int(((fractions == 1.0) & gm_ok).sum()) < constraint.require_complete:
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


@pytest.mark.parametrize("require_complete,solo_after", [(0, 64), (2, 64), (0, 2)])
def test_batched_sampler_matches_scalar_reference(scene, k, require_complete,
                                                  solo_after, monkeypatch):
    # solo_after=2: after two rounds the generators advance one at a time.
    monkeypatch.setattr(sim, "SOLO_AFTER", solo_after)
    con = (VisibilityConstraint(intrinsics=k) if require_complete == 0 else
           VisibilityConstraint(intrinsics=k, min_fraction=1.0, require_complete=2))
    seeds = [[require_complete, i] for i in range(120)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    points = luminaire_points(scene.luminaires, con.contour_samples)
    # One block of 100 and one of 20: rounds in lockstep over many generators.
    drawn = sample_poses(scene, rngs[:100], con, points) + sample_poses(
        scene, rngs[100:], con, points)
    attempts = []
    for seed, rng, got in zip(seeds, rngs, drawn):
        ref_rng = np.random.default_rng(seed)
        pose, n, reference = scalar_sample_pose(scene, ref_rng, con)
        attempts.append(n)
        assert np.array_equal(got.pose.rotation, pose.rotation)
        assert np.array_equal(got.pose.translation, pose.translation)
        assert got.attempts == n
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        expected = luminaire_visibility(scene.luminaires, pose, k, points=points)
        for a, b, (pixels, gm, fraction, complete, length) in zip(
                got.visibility, expected, reference):
            assert (a.luminaire_id, a.fraction, a.complete, a.contour_px) == (
                b.luminaire_id, b.fraction, b.complete, b.contour_px)
            assert (a.fraction, a.complete, a.contour_px) == (fraction, complete, length)
            for name, ref in (("pixels", pixels), ("center", gm[0]), ("mark", gm[1])):
                assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
                assert np.array_equal(getattr(a, name), ref, equal_nan=True)
                assert not getattr(a, name).flags.writeable
    # The case needs rejections to mean anything.
    assert max(attempts) > 3 and np.mean(attempts) > 1.5


@pytest.mark.parametrize("solo_after", [64, 3])
def test_sampler_exhausts_after_max_attempts(scene, k, solo_after, monkeypatch):
    monkeypatch.setattr(sim, "SOLO_AFTER", solo_after)
    con = VisibilityConstraint(intrinsics=k, min_fraction=1.5, max_attempts=7)
    rngs = [np.random.default_rng([9, i]) for i in range(3)]
    with pytest.raises(SamplingExhaustedError, match="in 7 attempts"):
        sample_poses(scene, rngs, con)
    # The first generator drew max_attempts candidates; the others stopped
    # when the block went one generator at a time.
    for i, draws in enumerate([7] + 2 * [min(7, solo_after)]):
        reference = np.random.default_rng([9, i])
        for _ in range(draws):
            reference.uniform(size=6)
        assert rngs[i].bit_generator.state == reference.bit_generator.state


def test_constraint_rejects_tilt_beyond_quarter_turn(k):
    with pytest.raises(ValueError):
        VisibilityConstraint(intrinsics=k, max_tilt=2.0)


# --- projection -----------------------------------------------------------------------

def test_clean_head_on_contour_is_pixel_circle(scene, k):
    lum = scene.luminaires[0]
    h = 2.0
    pose = make_pose(t=(*lum.center_w[:2], lum.center_w[2] - h))
    cap = capture(scene, k, pose)
    radius_px = k.f * lum.radius / (h * k.dx)
    dist = np.linalg.norm(cap.pixels[0] - np.array([k.u0, k.v0]), axis=1)
    assert np.abs(dist - radius_px).max() < 1e-9
    assert np.allclose(cap.center, [k.u0, k.v0])


def test_noise_statistics(scene, k):
    lum = scene.luminaires[0]
    pose = make_pose(t=(*lum.center_w[:2], 1.0))
    cap = capture(scene, k, pose, sigma=2.0, images=300, seed=42)
    assert cap.pixels.shape == (300, 360, 2)
    deltas = (cap.pixels - cap.clean_pixels).ravel()
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
    con = VisibilityConstraint(intrinsics=k)
    rng = np.random.default_rng(43)
    pose = sample_pose(scene, rng, con)
    flags = [(v.fraction, v.complete)
             for v in luminaire_visibility(scene.luminaires, pose, k)]
    assert flags == [(v.fraction, v.complete)
                     for v in luminaire_visibility(scene.luminaires, pose, k)]


# --- truncation ------------------------------------------------------------------------

def make_capture(scene, k, sigma=0.0, images=1, seed=0):
    return capture(scene, k, make_pose(t=(2.3, 2.2, 1.0)), sigma, images, seed)


def test_semicircle_keeps_exactly_half(scene, k):
    cap = make_capture(scene, k, sigma=1.0, images=3)
    cut = truncate_arc(cap, "semicircle", np.random.default_rng(1))
    assert len(cut.angles) == 180
    assert cut.pixels.shape == (3, 180, 2)
    assert cut.center is None and cut.mark is None
    assert cut.mode == "semicircle"
    # Contiguous modulo the circle: neighbor index gaps are all 1 except the seam.
    idx = [int(round(a / (2 * np.pi / 360))) for a in cut.angles]
    gaps = np.diff(idx) % 360
    assert (gaps == 1).all()
    # Every image of the burst keeps the same contour samples.
    assert np.array_equal(cut.pixels, cap.pixels[:, idx])


def test_superior_arc_fraction(scene, k):
    cap = make_capture(scene, k)
    cut = truncate_arc(cap, "superior_arc", start_index=10, arc_fraction=0.6)
    assert len(cut.angles) == 216
    assert np.array_equal(cut.angles, contour_angles(360)[10:226])


def test_complete_mode_is_identity(scene, k):
    cap = make_capture(scene, k)
    assert truncate_arc(cap, "complete") is cap


def test_semicircle_fits_same_ellipse(scene, k):
    cap = make_capture(scene, k)
    full = fit_ellipse(pixel_to_image(cap.pixels[0], k))
    cut = truncate_arc(cap, "semicircle", start_index=37)
    half = fit_ellipse(pixel_to_image(cut.pixels[0], k))
    assert np.allclose(
        [full.a, full.b, full.c, full.d, full.e],
        [half.a, half.b, half.c, half.d, half.e],
        rtol=1e-9, atol=1e-9,
    )


def test_truncation_too_short(scene, k):
    cap = capture(scene, k, make_pose(t=(2.3, 2.2, 1.0)), contour_samples=8)
    with pytest.raises(ArcTooShortError):
        truncate_arc(cap, "semicircle", start_index=0)


def test_image_bounds_mode_drops_outside_points(scene, k):
    # Tilt until the disc straddles the image edge.
    pose = None
    for theta in np.linspace(0.0, 1.0, 201):
        candidate = make_pose(theta=theta, t=(2.0, 2.0, 1.0))
        frac = luminaire_visibility(scene.luminaires, candidate, k)[0].fraction
        if 0.1 < frac < 1.0:
            pose = candidate
            break
    assert pose is not None
    vis = luminaire_visibility(scene.luminaires, pose, k)[0]
    cap = capture(scene, k, pose)
    cut = truncate_arc(cap, "image_bounds", intrinsics=k)
    assert len(cut.angles) == round(vis.fraction * 360)
    assert (cut.clean_pixels[:, 0] >= 0).all()
    assert (cut.clean_pixels[:, 0] <= k.width).all()


# --- averaging -------------------------------------------------------------------------

def test_average_of_identical_captures_matches_single_fit(scene, k):
    burst = make_capture(scene, k, sigma=0.0, images=20)
    obs = average_observations(burst, k)
    single = fit_ellipse(pixel_to_image(burst.pixels[0], k))
    assert np.allclose(
        [obs.ellipse.a, obs.ellipse.b, obs.ellipse.c, obs.ellipse.d, obs.ellipse.e],
        [single.a, single.b, single.c, single.d, single.e],
    )
    assert obs.complete


def test_averaging_shrinks_noise_as_sqrt_n(scene, k):
    residuals = []
    for seed in range(50):
        burst = make_capture(scene, k, sigma=2.0, images=20, seed=seed)
        obs = average_observations(burst, k)
        residuals.append(obs.contour_pixels - burst.clean_pixels)
    std = np.concatenate(residuals).ravel().std()
    assert abs(std - 2.0 / math.sqrt(20)) < 0.05


def test_burst_determinism(scene, k):
    a = make_capture(scene, k, sigma=2.0, images=3, seed=99)
    b = make_capture(scene, k, sigma=2.0, images=3, seed=99)
    assert np.array_equal(a.pixels, b.pixels)


def test_tilted_view_has_perspective_bias(scene, k):
    # At a 30-degree tilt the fitted ellipse center must differ from the true
    # projected center; that gap is exactly what the arcs-only solver accepts.
    cap = capture(scene, k, make_pose(phi=math.radians(30), t=(2.0, 3.2, 1.2)))
    e = fit_ellipse(pixel_to_image(cap.pixels[0], k))
    center_fit = image_to_pixel(ellipse_centers(e.coefficients[None])[0][0], k)
    gap = np.linalg.norm(center_fit - cap.center)
    assert gap > 0.05  # pixels


# --- the burst array against the per-image reference ----------------------------------

def reference_observation(lum, pose, k, mode, rng, sigma=2.0, n_img=20, n=360):
    """The per-image capture path the burst array replaced, kept as a reference.

    One luminaire projected on its own, 20 separate image arrays, each
    truncated on its own, averaged as a list; the center and mark are the
    mean of one copy per image. Returns (pixels, angles, center, mark,
    ellipse coefficients).
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
    mean_pixels = np.mean(kept, axis=0)
    center = mark = None
    if mode == "complete":
        center = np.mean([gm[0].copy() for _ in range(n_img)], axis=0)
        mark = np.mean([gm[1].copy() for _ in range(n_img)], axis=0)
    e = fit_ellipse(pixel_to_image(mean_pixels, k))
    return mean_pixels, angles[keep], center, mark, (e.a, e.b, e.c, e.d, e.e)


@pytest.mark.parametrize("mode", ARC_MODES)
def test_burst_matches_per_image_reference_bit_for_bit(scene, k, mode):
    con = VisibilityConstraint(intrinsics=k)
    for sample in range(25):
        rng = np.random.default_rng([ARC_MODES.index(mode), sample])
        pose = sample_pose(scene, rng, con)
        ranked = sorted(luminaire_visibility(scene.luminaires, pose, k),
                        key=lambda v: -v.contour_px)
        for vis in ranked[:2]:
            ref_rng = copy.deepcopy(rng)
            lum = scene.luminaire_map()[vis.luminaire_id]
            ref = reference_observation(lum, pose, k, mode, ref_rng)
            start = (int(rng.integers(360))
                     if mode in ("semicircle", "superior_arc") else None)
            burst = project_luminaire_burst(vis, NoiseModel(sigma=2.0), 20, rng)
            burst = truncate_arc(burst, mode, start_index=start, intrinsics=k)
            obs = average_observations(burst, k)
            e = obs.ellipse
            assert np.array_equal(obs.contour_pixels, ref[0])
            assert np.array_equal(obs.contour_angles, ref[1])
            if mode == "complete":
                assert np.array_equal(obs.center_proj, ref[2])
                assert np.array_equal(obs.mark_proj, ref[3])
            else:
                assert obs.center_proj is None and obs.mark_proj is None
            assert np.array_equal([e.a, e.b, e.c, e.d, e.e], ref[4])
            assert ref_rng.bit_generator.state == rng.bit_generator.state


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
