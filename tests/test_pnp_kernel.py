"""The batched Gauss-Newton PnP kernel `pnp_solve`: a row's result does not
depend on the rows solved with it, and a bad row fails by name without
touching the others.

Rows are the harness's four contour correspondences of seeded Monte Carlo
samples (seed 2, 40 samples: one of them runs all three heading restarts).
"""

import numpy as np

from arcpose.harness import ExperimentConfig, _capture_sample, _pnp_inputs
from arcpose.sim import luminaire_points, sample_poses
from arcpose.solver import PNP_CHECKS, pnp_solve

FIELDS = ("rotation", "translation", "rms_px", "iterations", "above_plane", "failure")


def captured_rows(samples=40, seed=2):
    """world (N, 4, 3), pixels (N, 4, 2) and the intrinsics of the PNP rows
    the harness builds for the first `samples` samples."""
    cfg = ExperimentConfig(samples=samples, seed=seed)
    scene = cfg.effective_scene()
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    rows = []
    for index in range(samples):
        rng = np.random.default_rng([seed, index])
        drawn, = sample_poses(scene, [rng], cfg.intrinsics, points, False)
        rows.append(_pnp_inputs(_capture_sample(cfg, drawn.visibility, rng),
                                scene.luminaire_map()))
    return (np.concatenate([r["world"] for r in rows]),
            np.concatenate([r["pixels"] for r in rows]), cfg.intrinsics)


def assert_rows_equal(a, rows_a, b, rows_b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name)[rows_a], getattr(b, name)[rows_b],
                              equal_nan=True), name


def test_rows_do_not_depend_on_the_batch():
    world, pixels, k = captured_rows()
    whole = pnp_solve(world, pixels, k)
    assert (whole.failure < 0).all()
    for i in range(len(world)):
        assert_rows_equal(whole, [i], pnp_solve(world[i:i + 1], pixels[i:i + 1], k), [0])
    for start in (0, 10):
        part = slice(start, start + 30)
        assert_rows_equal(whole, part, pnp_solve(world[part], pixels[part], k),
                          slice(None))


def test_bad_rows_fail_by_name_and_leave_the_others():
    world, pixels, k = captured_rows(samples=6)
    good = pnp_solve(world, pixels, k)
    nan_world, inf_pixels = world[0].copy(), pixels[1].copy()
    nan_world[2, 0] = np.nan
    inf_pixels[3, 1] = np.inf
    line = world[2].copy()
    line[:, 0], line[:, 1] = [1.0, 2.0, 3.0, 4.0], 2.0
    line_nan = line.copy()
    line_nan[0, 2] = np.nan
    not_finite, collinear = "correspondences are not finite", "world points are collinear"
    # (world, pixels, the good row it must equal or the error it must name)
    batch = [
        (world[0], pixels[0], 0), (nan_world, pixels[0], not_finite),
        (world[1], pixels[1], 1), (world[2], pixels[2], 2),
        (world[1], inf_pixels, not_finite), (line, pixels[2], collinear),
        (world[3], pixels[3], 3), (world[4], pixels[4], 4),
        # A row failing two checks reports the one that runs first.
        (line_nan, pixels[2], not_finite), (world[5], pixels[5], 5),
    ]
    sol = pnp_solve(np.array([w for w, _, _ in batch]),
                    np.array([p for _, p, _ in batch]), k)
    for row, (_, _, expected) in enumerate(batch):
        if isinstance(expected, str):
            error = sol.error(row)
            assert isinstance(error, ValueError) and str(error) == expected
            assert PNP_CHECKS[sol.failure[row]][1] == expected
        else:
            assert_rows_equal(sol, [row], good, [expected])

    few = pnp_solve(world[:, :3], pixels[:, :3], k)
    assert (few.failure == 0).all()
    assert str(few.error(0)) == "need at least 4 correspondences"
