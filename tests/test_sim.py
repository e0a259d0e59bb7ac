"""Scene sampling, visibility, and the capture of one observation per
luminaire: projection, averaged pixel noise, arc truncation and the fit."""

import copy
import dataclasses
import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from arcpose import sim
from arcpose.conic import ellipse_centers, fit_ellipses
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
    pixel_to_image,
    rotations_from_angles,
)
from arcpose.sim import (
    ARC_MODES,
    Scene,
    _in_bounds,
    _project_points_pixel,
    capture_poses,
    classify,
    contour_angles,
    luminaire_points,
    sample_poses,
    scene_from_dict,
    scene_to_dict,
    default_intrinsics,
    default_scene,
)
from arcpose.harness import ExperimentConfig
from arcpose.solver import LuminaireInfo

from conftest import capture_like_run, make_pose
from oracles import (
    classify_rows,
    image_to_pixel,
    project_to_image,
    rank_pair,
    rotation_scalar,
    world_to_camera,
)


@pytest.fixture
def scene():
    return default_scene()


@pytest.fixture
def k():
    return default_intrinsics()


class View(NamedTuple):
    """One luminaire's clean projection from one pose, as `classify` gives
    it, with the share of its contour pixels inside the image."""

    luminaire_id: str
    fraction: float
    complete: bool
    contour_px: float
    pixels: np.ndarray
    center: np.ndarray
    mark: np.ndarray


def visibility_at(scene, pose, k, contour_samples=360):
    """Every luminaire's `View` from one pose, classified as a block of one."""
    points = luminaire_points(scene.luminaires, contour_samples)
    pixels, gm, complete, lengths = classify(
        pose.rotation[None], pose.translation[None], k, points)
    return tuple(View(lum.id, float(_in_bounds(pixels[0, i], k).mean()),
                      bool(complete[0, i]), float(lengths[0, i]), pixels[0, i],
                      gm[0, i, 0], gm[0, i, 1])
                 for i, lum in enumerate(scene.luminaires))


def capture_row(vis, mode, noise_px, k, rng, arc_fraction=0.6):
    """`sim.capture` of the one luminaire `vis`."""
    return sim.capture(vis.pixels[None], np.stack([vis.center, vis.mark])[None],
                       [vis.luminaire_id], [mode], noise_px, k, [rng], arc_fraction,
                       [vis.complete])


def capture_observation(vis, mode, noise_px, k, rng, arc_fraction=0.6):
    """`capture_row`, raising its error, and the row's kept contour pixels."""
    cap = capture_row(vis, mode, noise_px, k, rng, arc_fraction)
    error = cap.error(0)
    if error is not None:
        raise error
    return cap, cap.pixels[0, :cap.count[0]]


def capture(scene, k, pose, mode="complete", noise_px=0.0, seed=0, lum=0,
            contour_samples=360):
    """The `capture_observation` of scene luminaire `lum` seen from `pose`."""
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


_CENTER = np.array([2.0, 2.0, 3.0])


@pytest.mark.parametrize("build,message", [
    (lambda k: dataclasses.replace(k, f="0.4"), "intrinsics f must be a finite number, got '0.4'"),
    (lambda k: dataclasses.replace(k, width=640.5), "intrinsics width must be an int, got 640.5"),
    (lambda k: dataclasses.replace(k, f=math.inf), "intrinsics f must be a finite number, got inf"),
    (lambda k: LuminaireInfo("L1", _CENTER, "0.1"),
     "luminaire 'L1' radius must be a finite number, got '0.1'"),
    (lambda k: LuminaireInfo("L1", _CENTER, radius=None),
     "luminaire 'L1' radius must be a finite number, got None"),
    (lambda k: LuminaireInfo("L1", [1, 2, 3], math.inf),
     "luminaire 'L1' radius must be a finite number, got inf"),
    (lambda k: LuminaireInfo("L1", _CENTER[:2], 0.1),
     "luminaire 'L1' center must be a (3) array of finite numbers, got array([2., 2.])"),
    (lambda k: LuminaireInfo("L1", ["2", "2", "3"], 0.1),
     "luminaire 'L1' center must be a (3) array of finite numbers, got ['2', '2', '3']"),
    (lambda k: LuminaireInfo(5, [True, 2, 3], 0.1), "luminaire id must be a string, got 5"),
    (lambda k: LuminaireInfo("L1", [True, 2, 3], 0.1),
     "luminaire 'L1' center must be a (3) array of finite numbers, got [True, 2, 3]"),
    (lambda k: LuminaireInfo("L1", [1, 2, None], 0.1),
     "luminaire 'L1' center must be a (3) array of finite numbers, got [1, 2, None]"),
    (lambda k: LuminaireInfo("L1", {"a": 1}, 0.1),
     "luminaire 'L1' center must be a (3) array of finite numbers, got {'a': 1}"),
    (lambda k: LuminaireInfo("L1", "abc", 0.1),
     "luminaire 'L1' center must be a (3) array of finite numbers, got 'abc'"),
    (lambda k: Scene(room=("8", 6, 3), luminaires=()),
     "scene room must be a (3) array of finite numbers, got ('8', 6, 3)"),
    (lambda k: Scene(room=(8, 6), luminaires=()),
     "scene room must be a (3) array of finite numbers, got (8, 6)"),
    (lambda k: ExperimentConfig(samples=np.float64(5.0)), "samples must be an int, got 5.0"),
    (lambda k: ExperimentConfig(seed=np.bool_(True)), "seed must be an int, got True"),
    (lambda k: ExperimentConfig(sigma=np.float64("nan")), "sigma must be a finite number, got nan"),
], ids=["text_f", "fractional_width", "infinite_f", "text_radius", "null_radius",
        "infinite_radius", "short_center", "text_center", "int_id", "bool_in_center",
        "null_in_center", "object_center", "string_center", "text_room", "short_room",
        "numpy_float_samples", "numpy_bool_seed", "numpy_nan_sigma"])
def test_value_classes_refuse_a_wrong_typed_field_by_name(k, build, message):
    # Each would fail a comparison or an unpacking with a bare TypeError or
    # ValueError, or construct: a text center was read as its numbers, a
    # boolean as 1, a null as NaN and an infinite radius or focal length as is.
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        build(k)


def test_value_classes_read_numpy_numbers_as_python_numbers(k):
    # A NumPy number counts as its Python value and is stored as one, so no
    # float32 or int64 reaches the kernels or the manifest.
    cfg = ExperimentConfig(samples=np.int64(3), sigma=np.float32(0.5), radius=np.int64(1))
    assert (cfg.samples, cfg.sigma, cfg.radius) == (3, 0.5, 1.0)
    assert (type(cfg.samples), type(cfg.sigma), type(cfg.radius)) == (int, float, float)
    intrinsics = dataclasses.replace(k, f=np.float32(0.5), width=np.uint16(640))
    assert type(intrinsics.f) is float and type(intrinsics.width) is int
    lum = LuminaireInfo(np.str_("L1"), (np.float64(2), np.int64(2), 3), np.float32(0.25))
    assert type(lum.id) is str and lum.center_w.tolist() == [2.0, 2.0, 3.0]
    assert type(lum.radius) is float and lum.radius == 0.25


def test_scene_refuses_a_repeated_luminaire_id():
    # `luminaire_map` would keep one of the two without a word.
    first, second = default_scene().luminaires[:2]
    twin = LuminaireInfo(first.id, second.center_w, second.radius)
    with pytest.raises(InvalidConfigError, match="repeated luminaire id 'L1'"):
        Scene(room=(8.0, 6.0, 3.0), luminaires=(first, twin))


@pytest.mark.parametrize("luminaires", [("L1", "L2"), iter(default_scene().luminaires),
                                        default_scene().luminaires[0]],
                         ids=["ids", "iterator", "one_luminaire"])
def test_scene_refuses_luminaires_that_are_no_list_by_name(luminaires):
    # Ids in place of luminaires once raised a bare AttributeError, one
    # luminaire a bare TypeError, and an iterator was drained into the scene.
    with pytest.raises(InvalidConfigError,
                       match="scene luminaires must be a list or tuple of LuminaireInfo"):
        Scene(room=(8.0, 6.0, 3.0), luminaires=luminaires)


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
    """The rotations and translations `sample_poses` draws with the scene's
    360-point contours."""
    rotations, translations, _ = sample_poses(scene, rngs, k,
                                              luminaire_points(scene.luminaires, 360), complete)
    return rotations, translations


def test_sample_pose_postcondition(scene, k):
    rngs = [np.random.default_rng([40, i]) for i in range(200)]
    rotations, translations = draw_poses(scene, k, rngs)
    pixels, *_ = classify(rotations, translations, k, luminaire_points(scene.luminaires, 360))
    fractions = _in_bounds(pixels, k).mean(axis=2)
    assert ((fractions >= sim.MIN_FRACTION).sum(axis=1) >= 2).all()
    x, y, z = translations.T
    assert ((0 <= x) & (x <= 8) & (0 <= y) & (y <= 6) & (0.5 <= z) & (z <= 2.0)).all()


def test_sample_pose_require_complete(scene, k):
    rngs = [np.random.default_rng([41, i]) for i in range(50)]
    _, _, complete, _ = classify(*draw_poses(scene, k, rngs, complete=True), k,
                                 luminaire_points(scene.luminaires, 360))
    assert (complete.sum(axis=1) >= 2).all()


def test_classify_matches_row_by_row_oracle(scene, k):
    # Tilts up to 80 degrees, with half the cameras within 30 cm of a wall
    # and half just under a luminaire, put luminaires across the image edge
    # and wholly or partly behind the camera. Every output must equal the
    # per-row oracle's bit for bit, NaN payloads and sign bits included.
    rng = np.random.default_rng(21)
    points = luminaire_points(scene.luminaires, 360)
    room = np.array(scene.room)
    tilt = math.radians(80.0)
    counts = np.zeros(3, dtype=int)
    for _ in range(60):
        rotations = rotations_from_angles(
            *rng.uniform(-1, 1, size=(3, 24)) * [[tilt], [tilt], [math.pi]])
        wall = rng.uniform([0, 0, 0.5], [*room[:2], 2.0], size=(12, 3))
        side, gap = rng.integers(2, size=12), rng.uniform(0, 0.3, size=12)  # x or y wall
        wall[np.arange(12), side] = np.where(rng.integers(2, size=12), room[side] - gap, gap)
        under = (points[1][rng.integers(len(scene.luminaires), size=12), :, 0]
                 + rng.uniform([-0.3, -0.3, -0.3], [0.3, 0.3, -0.05], size=(12, 3)))
        translations = np.concatenate([wall, under])
        got = classify(rotations, translations, k, points)
        for a, b in zip(got, classify_rows(rotations, translations, k, points)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # Projected rows kept whole (one contiguous sum), cut at the image
        # edge (a masked sum), and partly behind the camera.
        shown = ~sim.visibility_bounds(rotations, translations, k, points)[1]
        pixels = got[0][shown]
        inside = _in_bounds(pixels, k)
        whole = (inside & np.roll(inside, -1, axis=1)).all(axis=1)
        counts += [whole.sum(), (~whole).sum(), np.isnan(pixels).any(axis=(1, 2)).sum()]
    assert (counts > 0).all()


def test_sample_pose_empty_scene(k):
    empty = Scene(room=(8.0, 6.0, 3.0), luminaires=())
    # No rings, center/mark pairs or radii, as `luminaire_points` lays them out.
    points = np.empty((0, 3, 360)), np.empty((0, 3, 2)), np.empty(0)
    with pytest.raises(SamplingExhaustedError):
        sample_poses(empty, [np.random.default_rng(0)], k, points, False)


def test_sample_pose_deterministic(scene, k):
    a = draw_poses(scene, k, [np.random.default_rng(7)])
    b = draw_poses(scene, k, [np.random.default_rng(7)])
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def scalar_sample_pose(scene, rng, k, complete, contour_samples=360):
    """The one-pose-at-a-time rejection loop the batched sampler replaced:
    a validated `EulerAngles` and `Pose` per attempt, and all rings
    projected alone. Returns the pose, its attempt count and the visibility
    fields of its projection (pixels, center and mark pixels, fraction,
    completeness and contour length per luminaire)."""
    length, width, _ = scene.room
    angles = contour_angles(contour_samples)
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
        pose = Pose(rotation=rotation_scalar(e.phi, e.theta, e.psi), translation=position)
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


@pytest.mark.parametrize("stream,complete,solo_after,offset,contour_samples",
                         [(0, False, 64, False, 360), (2, True, 64, False, 360),
                          (0, False, 2, False, 360), (3, False, 64, True, 360),
                          (4, True, 64, True, 360), (12, True, 64, False, 8)],
                         ids=["0-64", "2-64", "0-2", "offset", "offset-complete", "complete-8"])
def test_batched_sampler_matches_scalar_reference(scene, k, stream, complete, solo_after,
                                                  offset, contour_samples, monkeypatch):
    # solo_after=2: after two rounds the generators advance one at a time.
    # 8-point rings, stream 12: two straddling rings show every point, so
    # their center and mark are projected to decide.
    monkeypatch.setattr(sim, "SOLO_AFTER", solo_after)
    # A round projects its straddling luminaires four at a time.
    monkeypatch.setattr(sim, "STRADDLE_PIECE", 4)
    if offset:
        scene, k = offset_camera()
    seeds = [[stream, i] for i in range(120)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    points = luminaire_points(scene.luminaires, contour_samples)
    # Rounds in lockstep over 120 generators, then noise-free captures of a
    # block of 100 and one of 20, as the runner draws a group and captures
    # its blocks.
    rotations, translations, drawn_attempts = sample_poses(scene, rngs, k, points, complete)
    states = [rng.bit_generator.state for rng in rngs]
    scenario = ("complete", "complete") if complete else "mixed"
    rows = []  # per sample: its block's capture, its pair and its first row
    for block in (slice(0, 100), slice(100, 120)):
        cap, lum, _ = capture_poses(scene, rotations[block], translations[block], rngs[block],
                                    k, points, scenario, 0.0, 0.6)
        rows += [(cap, pair, 2 * j) for j, pair in enumerate(lum.tolist())]
    attempts = []
    for p, (seed, state, (cap, pair, row)) in enumerate(zip(seeds, states, rows)):
        ref_rng = np.random.default_rng(seed)
        pose, n, reference = scalar_sample_pose(scene, ref_rng, k, complete,
                                                contour_samples)
        attempts.append(n)
        assert np.array_equal(rotations[p], pose.rotation)
        assert np.array_equal(translations[p], pose.translation)
        assert drawn_attempts[p] == n
        assert state == ref_rng.bit_generator.state
        assert tuple(pair) == rank_pair(
            [length for *_, length in reference], [lum.id for lum in scene.luminaires],
            [whole for *_, whole, _ in reference], not complete)
        # The accepted pose's projection gives every luminaire's fraction,
        # completeness, length, center and mark.
        pixels, landmarks, whole, lengths = classify(rotations[p][None],
                                                     translations[p][None], k, points)
        for i, (_, gm, fraction, ref_whole, length) in enumerate(reference):
            assert (_in_bounds(pixels[0, i], k).mean(), whole[0, i], lengths[0, i]) == (
                fraction, ref_whole, length)
            assert np.array_equal(landmarks[0, i], gm, equal_nan=True)
        # The capture takes the pair's rows of that projection: noise-free,
        # a row keeps clean pixels, and a complete row the clean center and
        # mark (`mixed` captures a luminaire whole only when it is complete).
        for c, i in enumerate(pair):
            ref_pixels, gm, _, ref_whole, _ = reference[i]
            kept = cap.keep[row + c, :cap.count[row + c]]
            assert cap.luminaire[row + c] == scene.luminaires[i].id
            assert cap.complete[row + c] == (complete or ref_whole)
            assert np.array_equal(cap.pixels[row + c, :len(kept)], ref_pixels[kept],
                                  equal_nan=True)
            assert np.array_equal(cap.landmarks[row + c],
                                  gm if cap.complete[row + c] else np.full((2, 2), np.nan),
                                  equal_nan=True)
    assert len(attempts) == len(seeds)
    # The case needs rejections to mean anything.
    assert max(attempts) > 3 and np.mean(attempts) > 1.5


@pytest.mark.parametrize("contour_samples", [8, 360])
@pytest.mark.parametrize("complete", [False, True], ids=["mixed", "complete"])
@pytest.mark.parametrize("offset", [False, True], ids=["default", "offset"])
def test_sampler_projects_only_open_candidates(scene, k, contour_samples, complete, offset,
                                               monkeypatch):
    # A candidate with two luminaires wholly inside the image is accepted,
    # and one with fewer than two not wholly outside rejected, on the
    # closed-form bounds alone. `_inside` sees each straddling ring of the
    # candidates still open once and, with `complete`, the center and mark
    # of each such ring that shows whole.
    if offset:
        scene, k = offset_camera()
    points = luminaire_points(scene.luminaires, contour_samples)
    candidates, calls = [], {2: [], contour_samples: []}
    bounds, inside_of = sim.visibility_bounds, sim._inside

    def drawn(rotations, translations, *args):
        candidates.append((rotations, translations))
        return bounds(rotations, translations, *args)

    def projected(pts, rotation, translation, *args):
        # Which luminaire each row is, by its world points.
        every = points[0] if pts.shape[-1] == contour_samples else points[1]
        lum = [next(i for i, row in enumerate(every) if np.array_equal(row, p)) for p in pts]
        calls[pts.shape[-1]].append((rotation, translation, np.array(lum, dtype=int)))
        return inside_of(pts, rotation, translation, *args)

    monkeypatch.setattr(sim, "visibility_bounds", drawn)
    monkeypatch.setattr(sim, "_inside", projected)
    rngs = [np.random.default_rng([33, i]) for i in range(150)]
    sample_poses(scene, rngs, k, points, complete)
    monkeypatch.undo()

    def pairs(calls):
        """The (pose, luminaire) pairs of the calls, in a sortable form."""
        return sorted((r.ravel().tolist(), t.tolist(), i)
                      for rs, ts, lums in calls for r, t, i in zip(rs, ts, lums.tolist()))

    rotations, translations = (np.concatenate(a) for a in zip(*candidates))
    inside, outside = sim.visibility_bounds(rotations, translations, k, points)
    decided = (inside.sum(axis=1) >= 2) | ((~outside).sum(axis=1) < 2)
    # Both decisions occur, and some candidates stay open.
    assert (inside.sum(axis=1) >= 2).any() and ((~outside).sum(axis=1) < 2).any()
    assert not decided.all()
    p, lum = np.nonzero(~(inside | outside) & ~decided[:, None])
    straddlers = [(rotations[p], translations[p], lum)]
    assert pairs(calls[contour_samples]) == pairs(straddlers)
    whole = sim._inside(points[0][lum], rotations[p], translations[p], k).all(axis=1)
    shown_whole = [(rotations[p[whole]], translations[p[whole]], lum[whole])]
    assert pairs(calls[2]) == (pairs(shown_whole) if complete else [])
    if (contour_samples, offset) == (8, False):  # the default scene's 8-point rings
        assert whole.any()


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
    point that passes `_inside`: a luminaire put inside has all its points,
    center and mark in the image, one put outside no contour point. Returns
    both masks."""
    points = luminaire_points(scene.luminaires, contour_samples)
    inside, outside = sim.visibility_bounds(rotations, translations, k, points)
    assert not (inside & outside).any()
    for p in range(0, len(rotations), 25):
        rows = slice(p, p + 25)
        hits = np.count_nonzero(sim._inside(points[0], rotations[rows, None],
                                            translations[rows, None], k), axis=2)
        assert (hits[inside[rows]] == contour_samples).all()
        assert (hits[outside[rows]] == 0).all()
        # The disc meets the five half-spaces wherever its ring does, so a
        # luminaire put inside has its center and mark inside too.
        landmarks = sim._inside(points[1], rotations[rows, None], translations[rows, None], k)
        assert landmarks.all(axis=2)[inside[rows]].all()
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
    rotations = sim.rotations_from_angles(*angles.T)
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
    drawn = draw_poses(scene, k, rngs, complete=True)
    _, pairs, _ = capture_poses(scene, *drawn, rngs, k, luminaire_points(scene.luminaires, 360),
                                ("complete", "complete"), 0.0, 0.6)
    rotations, translations, tangent = [], [], []
    for r, t, pair in zip(*drawn, pairs.tolist()):
        for i in pair:
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
    cap, pixels = capture(scene, k, pose)
    radius_px = k.f * lum.radius / (h * k.dx)
    dist = np.linalg.norm(pixels - np.array([k.u0, k.v0]), axis=1)
    assert np.abs(dist - radius_px).max() < 1e-9
    assert np.allclose(cap.landmarks[0, 0], [k.u0, k.v0])


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
        capture_observation(vis, "complete", 2.0, k, rng)[1] - vis.pixels
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


def test_rows_outside_the_image_fail_and_draw_nothing(scene, k):
    # A luminaire that `visibility_bounds` left unprojected (all NaN) and
    # one projected wholly to the right of the image fail as not visible,
    # and draw nothing from their generators; a visible row beside them
    # captures as usual.
    vis = side_view(scene, k)
    beside = vis.pixels + [k.width + 10.0, 0.0]
    assert np.isfinite(beside).all()
    clean = np.stack([np.full_like(vis.pixels, np.nan), beside, vis.pixels])
    landmarks = np.stack([[vis.center, vis.mark]] * 3)
    fresh = np.random.default_rng(5).bit_generator.state
    for mode in ARC_MODES:
        rngs = [np.random.default_rng(5) for _ in range(3)]
        cap = sim.capture(clean, landmarks, ["L1", "L2", "L3"], [mode] * 3, 1.0, k, rngs, 0.6,
                          [False] * 3)
        for row, lum_id in enumerate(["L1", "L2"]):
            error = cap.error(row)
            assert isinstance(error, NotVisibleError)
            assert str(error) == f"luminaire {lum_id!r} does not project into the image"
            assert rngs[row].bit_generator.state == fresh
        assert cap.failure[2] == -1 and rngs[2].bit_generator.state != fresh


@pytest.mark.parametrize("mode", ARC_MODES)
def test_capture_completeness_flags_skip_only_bounds_tests(scene, k, mode):
    # `capture` trusts a row flagged whole to lie in the image; with
    # `classify`'s flags it equals, field by field, the capture that tests
    # every row point by point.
    rngs = [np.random.default_rng([23, i]) for i in range(40)]
    points = luminaire_points(scene.luminaires, 360)
    pixels, landmarks, whole, _ = classify(*draw_poses(scene, k, rngs), k, points)
    assert whole.any() and not whole.all()
    ids = [lum.id for lum in scene.luminaires] * len(rngs)
    caps = [sim.capture(pixels.reshape(-1, 360, 2), landmarks.reshape(-1, 2, 2), ids,
                        [mode] * len(ids), 1.0, k,
                        [np.random.default_rng([24, i]) for i in range(len(ids))], 0.6, flags)
            for flags in (whole.ravel(), np.zeros(whole.size, dtype=bool))]
    for field in dataclasses.fields(sim.Capture):
        a, b = (getattr(cap, field.name) for cap in caps)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_visibility_classification_ignores_noise(scene, k):
    # Classification runs on the clean projection, so the pair a pose
    # captures and how each row is cut cannot depend on sigma.
    rng = np.random.default_rng(43)
    drawn = draw_poses(scene, k, [rng])
    views = visibility_at(scene, Pose(drawn[0][0], drawn[1][0]), k)
    points = luminaire_points(scene.luminaires, 360)
    (clean, lum, _), (noisy, noisy_lum, _) = (
        capture_poses(scene, *drawn, [copy.deepcopy(rng)], k, points, "mixed", noise_px, 0.6)
        for noise_px in (0.0, 3.0))
    assert np.array_equal(lum, noisy_lum)
    for c, i in enumerate(lum[0].tolist()):
        assert clean.complete[c] == noisy.complete[c] == views[i].complete
        assert np.array_equal(clean.keep[c], noisy.keep[c])
        kept = clean.keep[c, :clean.count[c]]
        assert np.array_equal(clean.pixels[c, :len(kept)], views[i].pixels[kept])


# --- truncation ------------------------------------------------------------------------

def side_view(scene, k):
    """Luminaire L1 seen whole from a slightly off-axis pose."""
    return visibility_at(scene, make_pose(t=(2.3, 2.2, 1.0)), k)[0]


def test_semicircle_keeps_exactly_half(scene, k):
    vis = side_view(scene, k)
    rng = np.random.default_rng(0)
    start = int(copy.deepcopy(rng).integers(360))
    assert start + 180 > 360  # the kept span wraps the seam
    cap = capture_row(vis, "semicircle", 0.0, k, rng)
    assert cap.count[0] == 180
    assert not cap.complete[0]
    assert np.isnan(cap.landmarks[0]).all()
    idx = np.arange(start, start + 180) % 360
    assert np.array_equal(cap.keep[0], idx)
    assert np.array_equal(cap.pixels[0], vis.pixels[idx])


def test_superior_arc_fraction(scene, k):
    vis = side_view(scene, k)
    for fraction, span in ((0.6, 216), (0.25, 90)):
        rng = np.random.default_rng(1)
        start = int(copy.deepcopy(rng).integers(360))
        cap = capture_row(vis, "superior_arc", 0.0, k, rng, fraction)
        assert np.array_equal(cap.keep[0], np.arange(start, start + span) % 360)


def test_complete_mode_is_identity(scene, k):
    # Every contour point in order, and the center and mark as projected.
    vis = side_view(scene, k)
    cap = capture_row(vis, "complete", 0.0, k, np.random.default_rng(0))
    assert cap.complete[0]
    assert np.array_equal(cap.keep[0], np.arange(360))
    assert np.array_equal(cap.pixels[0], vis.pixels)
    assert np.array_equal(cap.landmarks[0], [vis.center, vis.mark])


def test_semicircle_fits_same_ellipse(scene, k):
    vis = side_view(scene, k)
    full = capture_observation(vis, "complete", 0.0, k, np.random.default_rng(0))[0]
    half = capture_observation(vis, "semicircle", 0.0, k, np.random.default_rng(5))[0]
    assert np.allclose(full.coefficients, half.coefficients, rtol=1e-9, atol=1e-9)


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
    _, pixels = capture(scene, k, pose, mode="image_bounds")
    assert len(pixels) == round(vis.fraction * 360)
    assert (pixels[:, 0] >= 0).all()
    assert (pixels[:, 0] <= k.width).all()


@pytest.mark.parametrize("mode", ARC_MODES)
def test_noise_level_keeps_stream_aligned(scene, k, mode):
    # One standard normal pair per contour point, after the start index of
    # the modes that draw one, whatever the noise level: noise and radius
    # sweeps stay paired sample for sample.
    vis = side_view(scene, k)
    rngs = [np.random.default_rng([11, ARC_MODES.index(mode)]) for _ in range(3)]
    clean = capture_row(vis, mode, 0.0, k, rngs[0])
    capture_row(vis, mode, 2.0, k, rngs[1])
    if mode in ("semicircle", "superior_arc"):
        rngs[2].integers(360)
    rngs[2].standard_normal((360, 2))
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]
    count = clean.count[0]
    assert np.array_equal(clean.pixels[0, :count], vis.pixels[clean.keep[0, :count]])


# --- averaging over the images of a location ----------------------------------------

def upright_view(scene, k):
    """Every luminaire seen whole, from the room center near the floor."""
    return visibility_at(scene, make_pose(t=(4.0, 3.0, 0.5)), k)


def capture_upright(cfg, vis, rng):
    """The harness's capture from the pose of `upright_view`, whose views
    are `vis`, and the clean pixels of its pair's two rows."""
    pose = make_pose(t=(4.0, 3.0, 0.5))
    cap, lum, _ = capture_like_run(cfg, pose.rotation[None], pose.translation[None], [rng])
    return cap, [vis[i].pixels for i in lum[0].tolist()]


def test_average_of_identical_captures_matches_single_fit(scene, k):
    # Noise-free images all read the clean contour, and so does their average.
    cfg = ExperimentConfig(sigma=0.0, images_per_location=20)
    cap, clean = capture_upright(cfg, upright_view(scene, k), np.random.default_rng(0))
    for row, pixels in enumerate(clean):
        single = fit_ellipses(pixel_to_image(pixels, k)[None], [len(pixels)])
        assert np.array_equal(cap.coefficients[row], single.coefficients[0])
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
    a, b = (capture_row(vis, "superior_arc", 2.0, k, np.random.default_rng(99))
            for _ in range(2))
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.keep, b.keep)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_tilted_view_has_perspective_bias(scene, k):
    # At a 30-degree tilt the fitted ellipse center must differ from the true
    # projected center; that gap is exactly what the arcs-only solver accepts.
    cap, _ = capture(scene, k, make_pose(phi=math.radians(30), t=(2.0, 3.2, 1.2)))
    center_fit = image_to_pixel(ellipse_centers(cap.coefficients)[0][0], k)
    gap = np.linalg.norm(center_fit - cap.landmarks[0, 0])
    assert gap > 0.05  # pixels


# --- the direct draw against the per-image reference ----------------------------------

def reference_observation(lum, pose, k, mode, rng, sigma=2.0, n_img=20, n=360):
    """The per-image capture path that `sim.capture` replaces, kept as a
    reference.

    One luminaire projected on its own, `n_img` separate noisy images, each
    truncated on its own, averaged as a list; every image reads the same
    clean center and mark. Returns (averaged pixels, angles, center, mark,
    clean pixels) of the kept points, with the kept contour indices in place
    of their angles.
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
    return np.mean(kept, axis=0), keep, center, mark, clean[keep]


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
    points = luminaire_points(scene.luminaires, 360)
    ids = [lum.id for lum in scene.luminaires]
    for sample in range(25):
        rng = np.random.default_rng([ARC_MODES.index(mode), sample])
        drawn = draw_poses(scene, k, [rng])
        pose = Pose(drawn[0][0], drawn[1][0])
        # The pair the runner captures, from the pose's clean projection.
        pixels, landmarks, whole, lengths = classify(*drawn, k, points)
        for i in rank_pair(lengths[0].tolist(), ids, whole[0].tolist(), True):
            lum = scene.luminaires[i]
            ref = reference_observation(lum, pose, k, mode, copy.deepcopy(rng))
            cap = sim.capture(pixels[0, i:i + 1], landmarks[0, i:i + 1], [lum.id],
                              [mode], 2.0 / math.sqrt(20), k, [rng], 0.6, whole[0, i:i + 1])
            count = cap.count[0]
            assert np.array_equal(cap.keep[0, :count], ref[1])
            if mode == "complete":
                assert np.array_equal(cap.landmarks[0], [ref[2], ref[3]])
            else:
                assert np.isnan(cap.landmarks[0]).all()
            noise.append(cap.pixels[0, :count] - ref[4])
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
