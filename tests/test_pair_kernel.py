"""The batched cone-to-pose kernel `solve_pairs`: batch-size invariance, per
row error isolation, and agreement with a scalar reference chain.

Rows come from seeded Monte Carlo samples of the harness's capture phase, so
they cover the arcs the experiments produce.
"""

import math

import numpy as np
import pytest

from arcpose.errors import (
    AmbiguousDisambiguationError,
    BehindCameraError,
    DegenerateConicError,
    DegenerateDirectionError,
    GimbalLockError,
    InconsistentInputError,
    LineParallelToPlaneError,
    NotAConeError,
    ParallelLineError,
)
from arcpose.frames import rot_x, rot_y, rot_z
from arcpose.harness import ExperimentConfig
from arcpose.sim import luminaire_points, sample_poses
from arcpose.solver import pair_inputs, solve_pairs

from oracles import capture_sample

SCENARIOS = ("mixed", "complete+semicircle", "superior_arc+superior_arc",
             "superior_arc+image_bounds")
FIELDS = ("rotation", "translation", "gap", "chosen_k", "psi_residual", "failure")


def captured_pairs(scenario, samples=40, seed=3):
    """(first, second, vpca) for the VPA pair and the OAVPA pair of each
    captured sample, plus the scene map and intrinsics."""
    cfg = ExperimentConfig(scenario=scenario, samples=samples, seed=seed)
    scene = cfg.effective_scene()
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    pairs = []
    for index in range(samples):
        rng = np.random.default_rng([seed, index])
        drawn, = sample_poses(scene, [rng], cfg.intrinsics, points,
                              cfg.scenario != "mixed")
        obs, (first, second) = capture_sample(cfg, drawn, rng)
        pairs.append((obs[first], obs[second], obs[first].complete))
        pairs.append((obs[0], obs[1], False))
    return pairs, scene.luminaire_map(), cfg.intrinsics


def one_row(first, second, lums, k, vpca):
    """The `pair_inputs` of two observations, as a batch of one."""
    landmarks = [first.center_proj, first.mark_proj] if vpca else np.zeros((2, 2))
    return pair_inputs([[first.ellipse.coefficients, second.ellipse.coefficients]],
                       [landmarks], [(lums[first.luminaire_id], lums[second.luminaire_id])],
                       k, [vpca])


def stack(rows):
    return {key: np.concatenate([np.asarray(r[key]) for r in rows]) for key in rows[0]}


def assert_row_equal(batch, row, one):
    for name in FIELDS:
        assert np.array_equal(getattr(batch, name)[row], getattr(one, name)[0],
                              equal_nan=True), name


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_batch_equals_batches_of_one(scenario):
    pairs, lums, k = captured_pairs(scenario)
    rows = [one_row(a, b, lums, k, vpca) for a, b, vpca in pairs]
    batch = solve_pairs(**stack(rows), f=k.f)
    assert (batch.failure < 0).mean() > 0.9
    for i, row in enumerate(rows):
        assert_row_equal(batch, i, solve_pairs(**row, f=k.f))


def test_failed_rows_are_isolated():
    pairs, lums, k = captured_pairs("mixed", samples=12)
    rows = [one_row(a, b, lums, k, vpca) for a, b, vpca in pairs]
    vpca_row = next(r for r in rows if r["vpca"][0])
    oavpa_row = next(r for r in rows if not r["vpca"][0])

    def variant(row, **changes):
        out = {key: np.array(value, dtype=float if key != "vpca" else bool)
               for key, value in row.items()}
        for key, value in changes.items():
            out[key] = value
        return out

    coeffs = np.asarray(vpca_row["coeffs"], float)
    nan = coeffs.copy()
    nan[0, 1, 2] = np.nan
    imaginary = coeffs.copy()
    imaginary[0, 0] = [1.0, 0.0, 1.0, 0.0, 0.0]  # x^2 + y^2 + 1 = 0: no cone
    twin = coeffs.copy()
    twin[0, 1] = twin[0, 0]  # both candidates tie with themselves
    vertical = np.array(oavpa_row["centers"], float)
    vertical[0, 1] = vertical[0, 0] + [0.0, 0.0, 0.5]
    bad = [
        (variant(vpca_row, coeffs=nan), NotAConeError),
        (variant(oavpa_row, coeffs=imaginary), NotAConeError),
        (variant(vpca_row, coeffs=twin), AmbiguousDisambiguationError),
        (variant(oavpa_row, centers=vertical), DegenerateDirectionError),
    ]
    # A mark far out along the image x-axis: on one side its ray meets the
    # tilted luminaire plane behind the camera.
    for sign in (1.0, -1.0):
        points = np.array(vpca_row["points"], float)
        points[0, 1] = [sign * 1e4, 0.0]
        row = variant(vpca_row, points=points)
        if isinstance(solve_pairs(**row, f=k.f).error(0), BehindCameraError):
            bad.append((row, BehindCameraError))
            break
    assert len(bad) == 5
    # A row that fails two checks reports the one that runs first.
    bad += [
        (variant(oavpa_row, coeffs=imaginary, centers=vertical), NotAConeError),
        (variant(bad[-1][0], coeffs=twin), AmbiguousDisambiguationError),
    ]

    mixed = rows[:8] + [row for row, _ in bad] + rows[8:]
    batch = solve_pairs(**stack(mixed), f=k.f)
    for i, row in enumerate(mixed):
        one = solve_pairs(**row, f=k.f)
        assert_row_equal(batch, i, one)
        if 8 <= i < 8 + len(bad):
            expected = bad[i - 8][1]
            assert isinstance(batch.error(i), expected)
            assert isinstance(one.error(0), expected)
        else:
            assert batch.error(i) is None


# --- the scalar chain the kernel replaced, kept here as its reference ----------

def ref_cone(e, f):
    a, b, c, d, ee = e
    q = np.array([[a * f * f, b * f * f / 2.0, d * f / 2.0],
                  [b * f * f / 2.0, c * f * f, ee * f / 2.0],
                  [d * f / 2.0, ee * f / 2.0, 1.0]])
    if np.sum(np.linalg.eigvalsh(q) < 0) == 2:
        q = -q
    w, v = np.linalg.eigh(q)
    if np.any(np.abs(w) <= 1e-10 * np.abs(w).sum()) or np.sum(w < 0) != 1:
        raise NotAConeError
    order = np.argsort(w)[::-1]
    lam = w[order]
    e1, _, e3 = v[:, order].T
    if e3[2] < 0:
        e3 = -e3
    if e1[np.argmax(np.abs(e1))] < 0:
        e1 = -e1
    r = np.column_stack([e1, np.cross(e3, e1), e3])
    kk = math.sqrt(max(0.0, (lam[0] - lam[1]) / (lam[1] - lam[2])))
    cands = []
    for ki in (kk, -kk):
        n = r @ np.array([ki, 0.0, -1.0]) / math.sqrt(ki * ki + 1.0)
        cands.append((ki, -n if n[2] > 0 else n))
    return lam, r, cands


def ref_lift(xy, lam, r, ki, radius, f):
    m = math.sqrt(-lam[0] / lam[2])
    if abs(m - abs(ki)) <= 1e-9 * m:
        raise ParallelLineError
    p1 = np.array([1 / (m - ki), 0.0, m / (m - ki)])
    p2 = np.array([-1 / (m + ki), 0.0, m / (m + ki)])
    b_led = 2.0 * radius / np.linalg.norm(p1 - p2)
    ray = r.T @ np.array([xy[0], xy[1], f])
    denom = ray[2] - ki * ray[0]
    if abs(denom) <= 1e-12 * np.linalg.norm(ray):
        raise LineParallelToPlaneError
    point = r @ ((b_led / denom) * ray)
    if point[2] <= 0:
        raise BehindCameraError
    return point


def ref_heading(g, h, phi, theta):
    g1, g2, g3 = g
    sp, cp, st, ct = math.sin(phi), math.cos(phi), math.sin(theta), math.cos(theta)
    a = np.array([[g1 * ct, g2 * ct],
                  [g2 * cp + g1 * sp * st, -g1 * cp + g2 * sp * st],
                  [-g2 * sp + g1 * cp * st, g1 * sp + g2 * cp * st]])
    c = np.array([-g3 * st, g3 * sp * ct, g3 * cp * ct])
    sol = np.linalg.lstsq(a, h - c, rcond=None)[0]
    if math.hypot(*sol) < 1e-12:
        raise InconsistentInputError
    cs = sol / math.hypot(*sol)
    return math.atan2(cs[1], cs[0]), float(np.linalg.norm(a @ cs - (h - c)))


def ref_solve(row, f):
    """Pose (R, t) of one `pair_inputs` row by the scalar chain."""
    vpca = bool(row["vpca"][0])
    coeffs, centers = np.asarray(row["coeffs"])[0], np.asarray(row["centers"])[0]
    radius = np.asarray(row["radius"])[0]
    (lam_a, r_a, cand_a), (lam_b, r_b, cand_b) = (ref_cone(e, f) for e in coeffs)
    ranked = sorted((np.linalg.norm(na - nb), i, j)
                    for i, (_, na) in enumerate(cand_a) for j, (_, nb) in enumerate(cand_b))
    (d0, i, j), (d1, si, sj) = ranked[:2]
    if d1 - d0 < 1e-6 and not (
            np.linalg.norm(cand_a[i][1] - cand_a[si][1]) <= 1e-6
            and np.linalg.norm(cand_b[j][1] - cand_b[sj][1]) <= 1e-6):
        raise AmbiguousDisambiguationError
    if vpca:
        pts = np.asarray(row["points"])[0]
        lifted = [ref_lift(p, lam_a, r_a, cand_a[i][0], radius[0], f) for p in pts]
        world = [centers[0], np.asarray(row["marks"])[0]]
    else:
        lifted = []
        for (lam, r, cand, pick), e, rad in zip(
                ((lam_a, r_a, cand_a, i), (lam_b, r_b, cand_b, j)), coeffs, radius):
            a, b, c, d, ee = e
            den = 4.0 * a * c - b * b
            if abs(den) < 1e-14 * max(a * a, c * c, 1.0):
                raise DegenerateConicError
            xy = [(b * ee - 2.0 * c * d) / den, (b * d - 2.0 * a * ee) / den]
            lifted.append(ref_lift(xy, lam, r, cand[pick][0], rad, f))
        world = [centers[0], centers[1]]
    n = cand_a[i][1] / np.linalg.norm(cand_a[i][1])
    if abs(n[0]) >= 1.0 - 1e-9:
        raise GimbalLockError
    theta, phi = math.asin(n[0]), math.atan2(-n[1], -n[2])
    g = world[1] - world[0]
    g = g / np.linalg.norm(g)
    if not vpca and g[0] ** 2 + g[1] ** 2 < 1e-18:
        raise DegenerateDirectionError
    h = lifted[1] - lifted[0]
    psi, residual = ref_heading(g, h / np.linalg.norm(h), phi, theta)
    if vpca and residual > 1e-3:
        raise InconsistentInputError
    rot = rot_z(psi) @ rot_y(theta) @ rot_x(phi)
    t = 0.5 * ((world[0] - rot @ lifted[0]) + (world[1] - rot @ lifted[1]))
    return rot, t


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_kernel_matches_scalar_reference(scenario):
    pairs, lums, k = captured_pairs(scenario, samples=25, seed=11)
    rows = [one_row(a, b, lums, k, vpca) for a, b, vpca in pairs]
    sol = solve_pairs(**stack(rows), f=k.f)
    for i, row in enumerate(rows):
        try:
            rot, t = ref_solve(row, k.f)
        except Exception as exc:  # the reference raises the class alone
            assert type(sol.error(i)) is type(exc)
            continue
        assert sol.error(i) is None
        assert np.abs(sol.translation[i] - t).max() <= 1e-12
        # For small angles, |R1 - R2| (Frobenius) is sqrt(2) times the angle.
        assert np.linalg.norm(sol.rotation[i] - rot) / math.sqrt(2) <= 1e-12
