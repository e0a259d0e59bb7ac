"""The batched Gauss-Newton PnP kernel `pnp_solve`: its attempts run in a
fixed schedule and each row keeps its best, a row's result does not depend
on the rows solved with it, and a bad row fails by name without touching the
others.

Rows are the harness's four contour correspondences of seeded Monte Carlo
samples (seed 2, 40 samples). No row of them restarts, so the schedule test
swaps two pixels of one row to make it run all three heading restarts.
"""

import numpy as np

from arcpose import solver
from arcpose.harness import ExperimentConfig, _pnp_inputs, run_monte_carlo
from arcpose.sim import contour_angles, luminaire_points, sample_poses
from arcpose.solver import PNP_CHECKS, PNP_RESTART_RMS, pnp_solve

from conftest import capture_like_run

FIELDS = ("rotation", "translation", "rms_px", "iterations", "above_plane", "failure")


def captured_samples(samples=40, seed=2):
    """The config, the run's `luminaire_points` and, per sample, the scene
    indices of its pair and its capture, as the harness captures its first
    `samples` samples."""
    cfg = ExperimentConfig(samples=samples, seed=seed)
    scene = cfg.effective_scene()
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    out = []
    for index in range(samples):
        rng = np.random.default_rng([seed, index])
        rotations, translations, _ = sample_poses(scene, [rng], cfg.intrinsics, points, False)
        cap, lum, _ = capture_like_run(cfg, rotations, translations, [rng])
        out.append((lum, cap))
    return cfg, points, out


def captured_rows(samples=40, seed=2):
    """world (N, 4, 3), pixels (N, 4, 2) and the intrinsics of the PNP rows
    the harness builds for the first `samples` samples."""
    cfg, (rings, _, _), captured = captured_samples(samples, seed)
    rows = [_pnp_inputs(cap, [0], lum.ravel(), rings) for lum, cap in captured]
    return (np.concatenate([r["world"] for r in rows]),
            np.concatenate([r["pixels"] for r in rows]), cfg.intrinsics)


def test_world_points_are_circle_points_of_the_kept_angles():
    # The rows gathered from the run's rings, against one
    # `LuminaireInfo.circle_points` call per point at the contour angle of
    # its kept index, and the pixel at that index, taken row by row.
    cfg, (rings, _, _), captured = captured_samples()
    lums = cfg.effective_scene().luminaires
    angles = contour_angles(cfg.contour_samples)
    for pair, cap in captured:
        got = _pnp_inputs(cap, [0], pair.ravel(), rings)
        world, pixels = [], []
        for row, lum in enumerate(pair[0].tolist()):
            n = cap.count[row]
            shift = row * (n // 8)
            for idx in ((n // 4 + shift) % n, (3 * n // 4 + shift) % n):
                world.append(lums[lum].circle_points(angles[cap.keep[row, idx]])[0])
                pixels.append(cap.pixels[row, idx])
        assert np.array_equal(got["world"], np.reshape(world, (1, 4, 3)))
        assert np.array_equal(got["pixels"], np.reshape(pixels, (1, 4, 2)))


def assert_rows_equal(a, rows_a, b, rows_b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name)[rows_a], getattr(b, name)[rows_b],
                              equal_nan=True), name


def test_attempts_run_in_schedule_and_each_row_keeps_its_best(monkeypatch):
    # One Gauss-Newton call runs every row's upright init, then the
    # homography init of each row that has one. Then, for the heading turns
    # +90, +180 and +270 degrees in turn, one call retries from the upright
    # pose so turned each row whose best so far is above the plane or has an
    # RMS over PNP_RESTART_RMS. A later attempt is the best when it is below
    # the plane and the best is not, or on the same side with a lower cost.
    world, pixels, k = captured_rows()
    # With the pixels of its first two points swapped, no attempt fits row 0
    # to PNP_RESTART_RMS, so it runs all three restarts.
    pixels[0, [0, 1]] = pixels[0, [1, 0]]
    calls = []
    gauss_newton = solver._gauss_newton

    def spy(x, lane_world, lane_pixels, k):
        out = gauss_newton(x, lane_world, lane_pixels, k)
        calls.append((x.copy(), np.concatenate([lane_world, lane_pixels], axis=2), out))
        return out

    monkeypatch.setattr(solver, "_gauss_newton", spy)
    sol = pnp_solve(world, pixels, k)
    n, p = world.shape[:2]
    row_of = {a.tobytes(): i for i, a in enumerate(np.concatenate([world, pixels], axis=2))}
    assert len(row_of) == n
    centroid = world.mean(axis=1)
    upright = np.zeros((n, 6))
    upright[:, 3:] = centroid - [0.0, 0.0, 2.0]
    centered = world - centroid[:, None]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    h_init, has_h = solver._homography_inits(pixels, centroid, centered, svals, vt, k)
    ceiling = world[:, :, 2].min(axis=1)

    best = [None] * n  # (above the plane, cost, x, iterations) of each row
    for turn, (x0, lanes, (x, cost, iters)) in enumerate(calls):
        rows = [row_of[a.tobytes()] for a in lanes]
        if turn == 0:
            assert rows == list(range(n)) + np.flatnonzero(has_h).tolist()
            assert np.array_equal(x0, np.concatenate([upright, h_init[has_h]]))
        else:
            assert rows == [i for i, (above, cost, _, _) in enumerate(best)
                            if above or not np.sqrt(cost / (2 * p)) <= PNP_RESTART_RMS]
            assert np.array_equal(np.delete(x0, 2, axis=1), np.delete(upright[rows], 2, axis=1))
            assert np.allclose(np.exp(1j * x0[:, 2]), 1j ** turn)
        for lane, i in enumerate(rows):
            attempt = (x[lane, 5] >= ceiling[i], cost[lane], x[lane], iters[lane])
            if best[i] is None or attempt[0] < best[i][0] or (
                    attempt[0] == best[i][0] and attempt[1] < best[i][1]):
                best[i] = attempt
    assert len(calls) == 4  # one row runs all three restarts
    assert np.array_equal(sol.iterations, [b[3] for b in best])
    assert np.array_equal(sol.translation, [b[2][3:] for b in best])
    assert np.array_equal(sol.rms_px, [np.sqrt(b[1] / (2 * p)) for b in best])
    assert np.array_equal(sol.above_plane, [b[0] for b in best])


def test_homography_inits_put_every_point_in_front_of_the_camera():
    # A decomposition that puts a point at or behind the depth the projection
    # clamps to is no candidate; every candidate puts all points in front.
    world, pixels, k = captured_rows()
    centroid = world.mean(axis=1)
    centered = world - centroid[:, None]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    h_init, has_h = solver._homography_inits(pixels, centroid, centered, svals, vt, k)
    depth = solver._camera_frame(np.where(np.isfinite(h_init), h_init, 0.0), world)[2][..., 2]
    in_front = (depth > 1e-6).all(axis=1)
    assert in_front[has_h].all()
    dropped = np.isfinite(h_init).all(axis=1) & ~has_h
    assert dropped.sum() >= 5 and not in_front[dropped].any()


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


def conditioned_jacobians(rng, lanes, max_cond):
    """(lanes, 8, 6) Jacobians whose condition numbers spread log-uniformly
    from 1 to `max_cond`, and (lanes, 8) residuals."""
    u = np.linalg.qr(rng.normal(size=(lanes, 8, 6)))[0]
    v = np.linalg.qr(rng.normal(size=(lanes, 6, 6)))[0]
    cond = np.logspace(0, np.log10(max_cond), lanes)
    s = cond[:, None] ** -np.linspace(0.0, 1.0, 6)
    return (u * s[:, None]) @ v, rng.normal(size=(lanes, 8)), cond


def qr_steps(jac, res):
    """The undamped steps (M, 6) of `solver._qr_model`, R6 @ step = -c, NaN
    where a lane is rank deficient, and the cost reductions |c|^2 (M,) the
    model predicts."""
    r6t, c, singular = solver._qr_model(np.concatenate([jac, res[:, :, None]], axis=2))
    steps = np.full(c.shape, np.nan)
    for i in np.flatnonzero(~singular):
        steps[i] = np.linalg.solve(np.triu(r6t[i].T), -c[i])
    return steps, (c * c).sum(axis=1)


def test_steps_are_least_squares_solutions():
    jac, res, cond = conditioned_jacobians(np.random.default_rng(5), 200, 1e6)
    assert np.allclose(np.linalg.cond(jac), cond, rtol=1e-6)
    steps, _ = qr_steps(jac, res)
    for i in range(len(jac)):
        np.testing.assert_allclose(steps[i], np.linalg.lstsq(jac[i], -res[i], rcond=None)[0],
                                   rtol=1e-8, atol=0)


def test_gains_are_the_cost_less_the_least_squares_residual():
    # The reduction the Gauss-Newton model predicts for the full step: the
    # cost |res|^2 less the least-squares residual |jac @ step + res|^2.
    jac, res, _ = conditioned_jacobians(np.random.default_rng(5), 200, 1e6)
    _, gains = qr_steps(jac, res)
    for i in range(len(jac)):
        left = np.linalg.lstsq(jac[i], -res[i], rcond=None)[1][0]
        np.testing.assert_allclose(gains[i], res[i] @ res[i] - left, rtol=1e-8, atol=0)


def test_a_rank_deficient_lane_gets_no_step_and_leaves_the_others():
    jac, res, _ = conditioned_jacobians(np.random.default_rng(6), 20, 1e3)
    dependent = jac.copy()
    dependent[7, :, 5] = 2.0 * dependent[7, :, 4]
    steps, gains = qr_steps(dependent, res)
    assert not np.isfinite(steps[7]).any()
    others = np.arange(20) != 7
    alone = qr_steps(jac[others], res[others])
    assert np.array_equal(steps[others], alone[0]) and np.array_equal(gains[others], alone[1])


def test_damped_steps_tend_to_least_squares_steps():
    # (JᵀJ + λD) s = -Jᵀr is the Gauss-Newton normal equation as λ -> 0. The
    # normal equations square the condition number, so it stays at 1e3.
    jac, res, _ = conditioned_jacobians(np.random.default_rng(7), 50, 1e3)
    normal, scale, neg_grad, _ = solver._damped_model(jac, res, (res * res).sum(axis=1))
    lstsq = np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(jac, res)])
    errors = []
    for lam in (1e-6, 1e-10, 1e-14):
        steps = solver._damped_steps(normal, scale, neg_grad, np.full(len(jac), lam))
        errors.append((np.abs(steps - lstsq) / np.abs(lstsq).max(axis=1, keepdims=True)).max())
    assert errors[0] > 1e3 * errors[1] > 1e6 * errors[2] and errors[2] < 1e-8


def test_a_lane_cost_never_rises(monkeypatch):
    # The cost each lane stops at when its iterations are capped at 1, 2, ...:
    # a refused step leaves it, and a taken one strictly lowers it.
    world, pixels, k = captured_rows(samples=10)
    centroid = world.mean(axis=1)
    x0 = np.zeros((len(world), 6))
    x0[:, 3:] = centroid - [0.0, 0.0, 2.0]
    res = solver.pnp_residuals(x0, world, pixels, k)
    costs, iters = [(res * res).sum(axis=1)], np.zeros(len(world), int)
    while (iters == len(costs) - 1).any():
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", len(costs))
        _, cost, iters = solver._gauss_newton(x0, world, pixels, k)
        costs.append(cost)
    assert len(costs) > 20
    assert (np.diff(costs, axis=0) <= 0).all()


def test_noiseless_rows_solve_to_the_truth():
    records = run_monte_carlo(ExperimentConfig(samples=200, sigma=0.0, algorithms=("PNP",),
                                               seed=4))
    assert (records.error == "").all()
    assert records.e_loc_by_algorithm()["PNP"].max() <= 1e-9


def test_a_lane_restarted_where_it_converged_stops_at_once():
    # Noisy correspondences (sigma 2 px) leave every lane a positive cost. At
    # a converged lane's stop its model predicts a gain of at most _GAIN_TOL
    # of that cost, so a restart from there stops before any step.
    world, pixels, k = captured_rows(samples=10)
    x0 = np.zeros((len(world), 6))
    x0[:, 3:] = world.mean(axis=1) - [0.0, 0.0, 2.0]
    x, cost, iters = solver._gauss_newton(x0, world, pixels, k)
    rms = np.sqrt(cost / (2 * world.shape[1]))
    converged = (iters < solver._MAX_ITERATIONS) & (rms <= PNP_RESTART_RMS)
    assert converged.sum() >= 8 and (cost > 0).all() and (iters > 1).all()
    x, cost = x[converged], cost[converged]
    world, pixels = world[converged], pixels[converged]
    res = solver.pnp_residuals(x, world, pixels, k)
    _, gains = qr_steps(solver.pnp_jacobian(x, world, k), res)
    assert (gains <= solver._GAIN_TOL * cost).all()
    again = solver._gauss_newton(x, world, pixels, k)
    assert np.array_equal(again[0], x) and np.array_equal(again[1], cost)
    assert (again[2] == 1).all()


def test_gauss_newton_stops_a_rank_deficient_lane_where_it_started():
    # With every world point behind the camera the depths are clamped, so the
    # pixels do not depend on the camera's height: the Jacobian's t_z column
    # is zero.
    world, pixels, k = captured_rows(samples=3)
    x0 = np.zeros((len(world), 6))
    x0[:, 3:] = world.mean(axis=1) - [0.0, 0.0, 2.0]
    behind = world.copy()
    behind[0, :, 2] = x0[0, 5] - 1.0
    jac = solver.pnp_jacobian(x0[:1], behind[:1], k)
    assert not jac[0, :, 5].any()
    x, cost, iters = solver._gauss_newton(x0, behind, pixels, k)
    res = solver.pnp_residuals(x0[0], behind[0], pixels[0], k)
    assert np.array_equal(x[0], x0[0]) and cost[0] == (res * res).sum() and iters[0] == 1
    rest = solver._gauss_newton(x0[1:], world[1:], pixels[1:], k)
    for got, alone in zip((x, cost, iters), rest):
        assert np.array_equal(got[1:], alone)
