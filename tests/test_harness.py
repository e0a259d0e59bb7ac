"""Metrics, Monte Carlo runner, sweeps, summaries, and result files."""

import csv
import dataclasses
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from arcpose import cli, harness, sim
from arcpose.errors import ArcPoseError, InvalidConfigError, SamplingExhaustedError
from arcpose.frames import rotation_to_euler
from arcpose.harness import (
    DEFAULT_CDF_GRID,
    ExperimentConfig,
    ALGORITHMS,
    Records,
    config_from_dict,
    config_to_dict,
    e_loc_rows,
    e_pos_rows,
    read_records,
    run_monte_carlo,
    summarize,
    summarize_by_algorithm,
    sweep,
    sweep_configs,
    write_results,
)

from arcpose.sim import luminaire_points
from arcpose.solver import solve_pairs, solve_vpa

from conftest import BRANCH_ROTATIONS, branch_and_random_rotations, capture_like_run
from oracles import (
    capture_sample,
    e_loc_scalar,
    e_pos_scalar,
    record_rows,
    rotation_scalar,
    write_records,
)
from test_pair_kernel import one_row


# --- metrics ----------------------------------------------------------------------

def test_e_loc_hand_values():
    origin = [[0, 0, 0]] * 2
    assert e_loc_rows(origin, [[0, 0, 0], [0.06, 0.08, 0.0]]).tolist() == [
        0.0, pytest.approx(0.10)]
    assert e_loc_rows([[1, 2, 3]], [[4, 5, 6]]) == e_loc_rows([[4, 5, 6]], [[1, 2, 3]])


def test_e_pos_identity():
    r = rotation_scalar(0.3, -0.2, 1.1)[None]
    assert e_pos_rows(r, r)[0] == 0.0


def test_e_pos_quarter_turn():
    # ||(1,0,0,0) - (sqrt2/2,0,0,sqrt2/2)|| = sqrt(2 - sqrt2) = 0.765367...
    r = rotation_scalar(0, 0, math.pi / 2)
    assert e_pos_rows(np.eye(3)[None], r[None])[0] == pytest.approx(
        math.sqrt(2 - math.sqrt(2)), abs=1e-12)


def test_e_pos_representation_invariance():
    r1 = rotation_scalar(0.4, 0.1, -2.0)
    r2 = rotation_scalar(-0.1, 0.3, 2.9)
    e = rotation_to_euler(r1)
    rebuilt = rotation_scalar(e.phi, e.theta, e.psi)
    assert e_pos_rows(np.array([r1, rebuilt]), np.array([r2, r2])).tolist() == pytest.approx(
        [e_pos_scalar(r1, r2)] * 2, abs=1e-9)


def test_batched_metrics_match_scalar_definitions():
    rotations = branch_and_random_rotations()
    rng = np.random.default_rng(10)
    # Every rotation against every branch's, against a random one, and itself.
    pairs = [(a, b) for a in rotations[:len(BRANCH_ROTATIONS)] for b in rotations[:40]]
    pairs += list(zip(rotations, rng.permutation(rotations)))
    r_true, r_est = np.array(pairs).transpose(1, 0, 2, 3)
    # 2 ulp: the norms may sum in another order under another BLAS.
    np.testing.assert_array_max_ulp(
        e_pos_rows(r_true, r_est), [e_pos_scalar(a, b) for a, b in pairs], maxulp=2)
    assert (e_pos_rows(rotations, rotations) == 0.0).all()
    quarter = BRANCH_ROTATIONS["quarter_turn"]
    assert e_pos_rows(np.eye(3)[None], quarter[None])[0] == pytest.approx(
        math.sqrt(2 - math.sqrt(2)), abs=1e-12)
    truth, est = rng.uniform(-5, 5, size=(2, 1000, 3))
    np.testing.assert_array_max_ulp(
        e_loc_rows(truth, est), [e_loc_scalar(a, b) for a, b in zip(truth, est)], maxulp=2)


# --- config -----------------------------------------------------------------------

def test_config_defaults_mirror_protocol():
    cfg = ExperimentConfig()
    assert cfg.sigma == 2.0
    assert cfg.radius == 0.15
    assert cfg.samples == 10_000
    assert cfg.images_per_location == 20
    assert cfg.scenario == "mixed"


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(samples=0)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(algorithms=())
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(algorithms=("MAGIC",))
    # A repeated name would run every sample twice under one label.
    with pytest.raises(InvalidConfigError, match="repeated algorithm 'VPA'"):
        ExperimentConfig(algorithms=("VPA", "OAVPA", "VPA"))
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(sigma=-0.5)
    # Every JSON reader refuses a non-finite number; the config does too.
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidConfigError, match="sigma must be a finite number"):
            ExperimentConfig(sigma=bad)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(InvalidConfigError, match="radius must be a finite number"):
            ExperimentConfig(radius=bad)
    with pytest.raises(InvalidConfigError, match="radius must be positive, got 0.0"):
        ExperimentConfig(radius=0.0)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(images_per_location=0)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(scenario="bogus")


@pytest.mark.parametrize("name,value", [
    ("samples", 2.5), ("samples", True), ("images_per_location", 20.0),
    ("contour_samples", 8.5), ("contour_samples", False), ("seed", True), ("seed", 1.0),
])
def test_config_refuses_a_count_that_is_no_int_by_name(name, value):
    # A float count would fail deep in the runner, or run a ring of unevenly
    # spaced points; a bool is no count even though Python counts it an int.
    with pytest.raises(InvalidConfigError, match=f"{name} must be an int, got {value!r}"):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("sigma", "2"), ("sigma", True), ("sigma", None), ("radius", "0.1"), ("radius", False),
    ("arc_fraction", True), ("arc_fraction", "0.6"), ("arc_fraction", [0.6]),
])
def test_config_refuses_a_value_that_is_no_number_by_name(name, value):
    # A string would fail the range check with a bare TypeError, and a bool
    # would run as 1 and write a manifest that `config_from_dict` refuses.
    message = f"{name} must be a finite number, got {value!r}"
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name,kind,value", [
    ("scene", "Scene", "x"), ("scene", "Scene", None),
    ("scene", "Scene", {"room": [8, 6, 3], "luminaires": []}),
    ("intrinsics", "CameraIntrinsics", None), ("intrinsics", "CameraIntrinsics", "default"),
])
def test_config_refuses_a_scene_or_intrinsics_of_another_type_by_name(name, kind, value):
    # Either would construct and then fail inside the runner with a bare
    # AttributeError.
    message = f"{name} must be a {kind}, got {value!r}"
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        ExperimentConfig(**{name: value})


def test_config_takes_an_int_where_a_number_is_asked():
    cfg = ExperimentConfig(sigma=2, radius=None, arc_fraction=1)
    assert (cfg.sigma, cfg.radius, cfg.arc_fraction) == (2, None, 1)


@pytest.mark.parametrize("value", ["VPA", None, 5])
def test_config_refuses_a_bare_algorithm_string(value):
    # A string is a sequence of letters: "VPA" would read as 'V', 'P', 'A';
    # None and 5 would fail `tuple` with a bare TypeError.
    with pytest.raises(InvalidConfigError, match=f"algorithms must be a tuple, got {value!r}"):
        ExperimentConfig(algorithms=value)


def test_config_scenario_parsing():
    assert ExperimentConfig(scenario="complete+semicircle").scenario == (
        "complete", "semicircle",
    )
    assert ExperimentConfig(scenario=["semicircle", "semicircle"]).scenario == (
        "semicircle", "semicircle",
    )


def test_config_dict_round_trip():
    cfg = ExperimentConfig(samples=5, sigma=1.0, algorithms=("VPA", "PNP"), seed=9)
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert config_to_dict(back) == config_to_dict(cfg)


def test_config_rejects_unknown_field_by_name():
    with pytest.raises(InvalidConfigError, match="surprise"):
        config_from_dict({"surprise": 1})


def test_config_radius_override_rebuilds_scene():
    cfg = ExperimentConfig(radius=0.10)
    assert all(lum.radius == 0.10 for lum in cfg.effective_scene().luminaires)
    keep = ExperimentConfig(radius=None)
    assert all(lum.radius == 0.15 for lum in keep.effective_scene().luminaires)


# --- runner ------------------------------------------------------------------------

def test_zero_noise_vpca_run_is_exact():
    cfg = ExperimentConfig(
        samples=10, sigma=0.0, scenario=("complete", "semicircle"),
        algorithms=("VPCA",), seed=5,
    )
    records = run_monte_carlo(cfg)
    assert records.e_loc.shape == (10, 1)
    assert (records.error == "").all()
    assert records.e_loc.max() < 1e-6


def test_runner_is_deterministic():
    cfg = ExperimentConfig(samples=6, sigma=2.0, algorithms=("VPA",), seed=8)
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    assert np.array_equal(a.e_loc, b.e_loc, equal_nan=True)
    assert np.array_equal(a.e_pos, b.e_pos, equal_nan=True)
    assert (a.solver_tag == b.solver_tag).all()


def test_seed_beyond_64_bits_completes_and_repeats(tmp_path):
    # Seed 2**64 + 1 takes three 32-bit words in each sample's
    # `default_rng([seed, index])`; two runs write the same bytes.
    argv = ["run", "--samples", "30", "--seed", str(2**64 + 1), "--algorithms", "VPA,OAVPA"]
    for out in ("run", "again"):
        assert cli.main(argv + ["--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "run" / "records.csv").read_bytes()
            == (tmp_path / "again" / "records.csv").read_bytes())


def rows(records):
    """Records as records.csv writes them, plus the sampler's attempt count."""
    attempts = np.repeat(records.attempts, len(records.algorithms)).tolist()
    return [row + [n] for row, n in zip(record_rows(records), attempts)]


def test_runner_prefix_does_not_depend_on_run_length():
    # 30 samples end inside the second pose block; 60 run past it.
    algorithms = ("VPA", "OAVPA")
    short = run_monte_carlo(ExperimentConfig(samples=30, algorithms=algorithms, seed=4))
    long = run_monte_carlo(ExperimentConfig(samples=60, algorithms=algorithms, seed=4))
    head = rows(short)
    assert rows(long)[:len(head)] == head


def test_runner_records_do_not_depend_on_block_or_slice_size(monkeypatch):
    cfg = ExperimentConfig(samples=40, algorithms=("VPA", "VPCA", "OAVPA", "PNP"),
                           seed=9)
    default = run_monte_carlo(cfg)
    # (POSE_BLOCK, GROUP): (8, 8) draws and solves one block a group, (3, 9)
    # three, so that 40 samples end inside a block and inside a group,
    # (3, 10) ends each group inside a block, and (7, 5) has a group of fewer
    # samples than a block.
    for block, group in ((8, 8), (3, 9), (3, 10), (7, 5)):
        monkeypatch.setattr(harness, "POSE_BLOCK", block)
        monkeypatch.setattr(harness, "GROUP", group)
        grouped = run_monte_carlo(cfg)
        assert rows(grouped) == rows(default)
        # Poses agree bit for bit, not just to the 12 digits records.csv keeps.
        assert np.array_equal(default.truth_rotation, grouped.truth_rotation)
        assert np.array_equal(default.truth_translation, grouped.truth_translation)
        assert np.array_equal(default.rotation, grouped.rotation, equal_nan=True)
        assert np.array_equal(default.translation, grouped.translation, equal_nan=True)
    assert all(attempts >= 1 for *_, attempts in rows(default))


def test_group_whose_every_capture_fails(monkeypatch):
    # 1% arcs keep 4 of 360 contour points, too few to fit, so every kernel
    # solves a group of zero rows and every record fails with the capture.
    calls = []

    def counted(kernel, rows):
        def call(**args):
            calls.append((kernel.__name__, len(args[rows])))
            return kernel(**args)
        return call

    monkeypatch.setattr(harness, "solve_pairs", counted(harness.solve_pairs, "coeffs"))
    monkeypatch.setattr(harness, "pnp_solve", counted(harness.pnp_solve, "world"))
    cfg = ExperimentConfig(scenario="superior_arc+superior_arc", arc_fraction=0.01,
                           samples=30, algorithms=ALGORITHMS, seed=6)
    records = run_monte_carlo(cfg)
    assert sorted(calls) == [("pnp_solve", 0)] + [("solve_pairs", 0)] * 3
    assert (records.error == "ArcTooShortError").all()
    assert (records.solver_tag == "").all()
    for values in (records.e_loc, records.e_pos, records.rotation, records.translation):
        assert np.isnan(values).all()


def test_runner_rejects_a_solved_row_that_is_no_rotation(monkeypatch, tmp_path, capsys):
    # The kernel's rotations pass the `Pose` guard as a group: one skewed
    # rotation among them stops the run, as a bad `Pose` would.
    real = harness.solve_pairs

    def skewed(**args):
        sol = real(**args)
        rotation = sol.rotation.copy()
        rotation[np.flatnonzero(sol.failure < 0)[-1]] *= 1.001
        return dataclasses.replace(sol, rotation=rotation)

    monkeypatch.setattr(harness, "solve_pairs", skewed)
    message = "rotation matrix is not orthonormal with det +1"
    with pytest.raises(ValueError, match=message.replace("+", r"\+")):
        run_monte_carlo(ExperimentConfig(samples=30, seed=2))
    assert cli.main(["run", "--samples", "30", "--out", str(tmp_path / "o")]) == 1
    assert f"ValueError: {message}" in capsys.readouterr().err


def test_runner_propagates_sampling_exhaustion(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sim, "MIN_FRACTION", 1.5)
    monkeypatch.setattr(sim, "MAX_ATTEMPTS", 5)
    with pytest.raises(SamplingExhaustedError):
        run_monte_carlo(ExperimentConfig(samples=3, seed=1))
    # One draw over the generators of three blocks.
    samples = 2 * harness.POSE_BLOCK + 1
    with pytest.raises(SamplingExhaustedError, match="in 5 attempts"):
        run_monte_carlo(ExperimentConfig(samples=samples, seed=1))
    out = tmp_path / "o"
    assert cli.main(["run", "--samples", str(samples), "--out", str(out)]) == 1
    assert "SamplingExhaustedError: no pose passed" in capsys.readouterr().err


def reference_records(cfg):
    """Per sample: the error name of its capture, or the luminaire ids of
    the dispatcher's pair and, per algorithm, the error name or e_loc of a
    scalar solve; captured one luminaire at a time with the `lstsq` fit."""
    scene = cfg.effective_scene()
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    k = cfg.intrinsics
    out = []
    for index in range(cfg.samples):
        rng = np.random.default_rng([cfg.seed, index])
        rotations, translations, _ = sim.sample_poses(scene, [rng], k, points,
                                                      cfg.scenario != "mixed")
        try:
            obs, (first, second) = capture_sample(cfg, rotations, translations, rng)
        except (ArcPoseError, ValueError) as exc:
            out.append((type(exc).__name__, None, None))
            continue
        results = {}
        try:
            translation = solve_vpa(obs, scene.luminaire_map(), k).pose.translation
            results["VPA"] = e_loc_scalar(translations[0], translation)
        except (ArcPoseError, ValueError) as exc:
            results["VPA"] = type(exc).__name__
        sol = solve_pairs(**one_row(obs, 0, 1, False, scene.luminaire_map()), k=k)
        results["OAVPA"] = (type(sol.error(0)).__name__ if sol.error(0)
                            else e_loc_scalar(translations[0], sol.translation[0]))
        out.append((None, tuple(obs.luminaire[[first, second]].tolist()), results))
    return out


@pytest.mark.parametrize("scenario,arc_fraction", [
    ("mixed", 0.6), ("superior_arc+superior_arc", 0.6), ("complete+semicircle", 0.6),
    ("superior_arc+superior_arc", 0.03),  # 11-point arcs: some fits are no ellipse
])
def test_runner_matches_sample_by_sample_reference(scenario, arc_fraction):
    # The block capture and fit against one luminaire at a time with the
    # scalar fit: the same failures, pairs and statuses, and the same
    # locations to the last digits the fit's arithmetic moves.
    cfg = ExperimentConfig(scenario=scenario, samples=200, seed=13,
                           arc_fraction=arc_fraction, algorithms=("VPA", "OAVPA"))
    reference = reference_records(cfg)
    scene = cfg.effective_scene()
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    captured = []
    for start in range(0, cfg.samples, harness.POSE_BLOCK):
        rngs = [np.random.default_rng([cfg.seed, i])
                for i in range(start, min(start + harness.POSE_BLOCK, cfg.samples))]
        drawn = sim.sample_poses(scene, rngs, cfg.intrinsics, points, cfg.scenario != "mixed")
        cap, _, order = capture_like_run(cfg, *drawn[:2], rngs)
        for j in range(len(rngs)):
            rows = 2 * j + order[j]
            error = cap.error(2 * j) or cap.error(2 * j + 1)
            captured.append((type(error).__name__ if error else None,
                             None if error else tuple(cap.luminaire[rows].tolist())))
    assert captured == [ref[:2] for ref in reference]

    records = run_monte_carlo(cfg)
    assert (sum(ref[0] is not None for ref in reference) > 10) == (arc_fraction < 0.1)
    for s, (failure, _, results) in enumerate(reference):
        for a, alg in enumerate(records.algorithms):
            expected = failure or results[alg]
            if isinstance(expected, str):
                assert records.error[s, a] == expected
            else:
                # 1e-9 m, or 1e-9 relative for the short arcs' poses metres off.
                assert records.error[s, a] == ""
                assert abs(records.e_loc[s, a] - expected) <= 1e-9 * max(1.0, expected)


def test_runner_records_per_algorithm():
    cfg = ExperimentConfig(samples=4, sigma=1.0, algorithms=("VPA", "OAVPA"), seed=2)
    records = run_monte_carlo(cfg)
    assert records.algorithms == ("VPA", "OAVPA")
    assert records.e_loc.shape == records.error.shape == (4, 2)
    assert records.rotation.shape == (4, 2, 3, 3)
    assert records.translation.shape == (4, 2, 3)
    assert records.truth_rotation.shape == (4, 3, 3) and records.attempts.shape == (4,)
    # The table is read-only.
    with pytest.raises(ValueError):
        records.e_loc[0, 0] = 0.0


# --- aggregation --------------------------------------------------------------------

def fake_e_loc(errors_m, failed=0):
    """One algorithm's e_loc column: the given errors, then `failed` NaNs."""
    return np.array(list(errors_m) + [math.nan] * failed)


def test_summary_of_four_values():
    stats = summarize(fake_e_loc([0.01, 0.02, 0.03, 0.04]))
    assert stats.median == pytest.approx(0.025)
    assert DEFAULT_CDF_GRID[5] == 0.025
    assert stats.cdf_fraction[5] == pytest.approx(0.5)
    assert stats.n_success == 4 and stats.n_failed == 0


def test_summary_all_equal_records():
    stats = summarize(fake_e_loc([0.02] * 7))
    assert all(v == pytest.approx(0.02) for v in stats.percentiles.values())
    assert stats.std_err == 0.0


def test_summary_counts_failures_but_excludes_them():
    stats = summarize(fake_e_loc([0.01, 0.02], failed=3))
    assert stats.n_success == 2
    assert stats.n_failed == 3
    assert stats.mean == pytest.approx(0.015)


def test_summary_without_successes():
    stats = summarize(fake_e_loc([], failed=2))
    assert (stats.n_success, stats.n_failed) == (0, 2)
    assert stats.mean is None and stats.std_err is None and stats.median is None
    assert stats.percentiles == dict.fromkeys(harness.PERCENTILES)
    assert stats.cdf_fraction.size == 0
    assert summarize([]).n_failed == 0


def test_cdf_monotone_nondecreasing():
    fraction = summarize(fake_e_loc(np.random.default_rng(0).uniform(0, 0.3, 100))).cdf_fraction
    assert (np.diff(fraction) >= 0).all()
    assert fraction[-1] <= 1.0


# --- sweeps ------------------------------------------------------------------------

def test_single_value_sweep_equals_plain_run():
    cfg = ExperimentConfig(samples=5, sigma=2.0, algorithms=("VPA",), seed=3)
    swept = sweep(cfg, "noise", [2.0])[2.0]["VPA"]
    plain = summarize_by_algorithm(run_monte_carlo(cfg).e_loc_by_algorithm())["VPA"]
    assert swept.mean == plain.mean
    assert swept.percentiles == plain.percentiles


def test_sweep_validation():
    cfg = ExperimentConfig(samples=2)
    with pytest.raises(InvalidConfigError):
        sweep(cfg, "focal_length", [1, 2])
    with pytest.raises(InvalidConfigError):
        sweep(cfg, "noise", [2.0, 1.0])
    with pytest.raises(InvalidConfigError):
        sweep(cfg, "noise", [])
    with pytest.raises(InvalidConfigError):
        sweep(cfg, "noise", [0.0, 0.0])


@pytest.mark.parametrize("values", [[True, "2"], [0.5, None], "12", (np.bool_(True), 2.0)],
                         ids=["bool_and_text", "null", "text", "numpy_bool"])
def test_sweep_configs_refuses_a_value_that_is_no_number_by_name(values):
    # `float(v)` once ran a boolean as sigma 1.0 and the text "2" as 2.0.
    message = f"sigma sweep values must be a (N) array of finite numbers, got {values!r}"
    with pytest.raises(InvalidConfigError, match=re.escape(message)):
        sweep_configs(ExperimentConfig(samples=2), "noise", values)


def test_sweep_configs_reads_a_tuple_or_an_array_as_python_floats():
    cfg = ExperimentConfig(samples=2)
    for values in ((1, 2.5), np.array([1.0, 2.5]), [np.float32(1.0), np.int64(2) + 0.5]):
        configs = sweep_configs(cfg, "radius", values)
        assert list(configs) == [1.0, 2.5] and all(type(v) is float for v in configs)
        assert [c.radius for c in configs.values()] == [1.0, 2.5]


def test_noise_sweep_shares_poses():
    cfg = ExperimentConfig(samples=4, algorithms=("VPA",), seed=12)
    a = run_monte_carlo(replace(cfg, sigma=0.0))
    b = run_monte_carlo(replace(cfg, sigma=3.0))
    assert np.array_equal(a.truth_translation, b.truth_translation)


# --- serialization -----------------------------------------------------------------

def test_write_results_round_trip(tmp_path):
    cfg = ExperimentConfig(samples=5, sigma=1.0, algorithms=("VPA",), seed=4)
    records = run_monte_carlo(cfg)
    stats = summarize_by_algorithm(records.e_loc_by_algorithm())
    paths = write_results(records, stats, tmp_path / "out", cfg)

    with open(paths["records"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for s, row in enumerate(rows):
        assert int(row["sample_index"]) == s
        assert float(row["e_loc_m"]) == pytest.approx(records.e_loc[s, 0], rel=1e-11)
        assert float(row["truth_x"]) == pytest.approx(records.truth_translation[s, 0],
                                                      rel=1e-11)

    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["seed"] == 4
    assert manifest["config"]["sigma"] == 1.0
    attempts = records.attempts.tolist()
    assert manifest["pose_attempts"] == {"mean": np.mean(attempts),
                                         "max": max(attempts)}
    assert "code_version" in manifest

    with open(paths["cdf"], newline="") as fh:
        cdf_rows = list(csv.DictReader(fh))
    fracs = [float(r["fraction"]) for r in cdf_rows]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def hand_built_records():
    """A table with gimbal-locked truths and estimates, whose Euler angles
    are NaN, beside plain ones; a failed record shares a truth."""
    locked, plain, level = (rotation_scalar(*angles) for angles in (
        (0.3, math.pi / 2, 0.0), (0.1, -0.2, 3.0), (0.0, 0.0, 0.0)))
    nan_r, nan_t = np.full((3, 3), math.nan), [math.nan] * 3
    # A row per sample, a column per algorithm: VPA, PNP.
    return Records(
        algorithms=("VPA", "PNP"),
        truth_rotation=np.array([locked, plain, plain]),
        truth_translation=np.array([[1.0, 2.0, 1.5], [4.0, 3.0, 1.0], [4.0, 3.0, 1.0]]),
        attempts=np.array([1, 2, 1]),
        solver_tag=np.array([["VPCA", ""], ["OAVPA", ""], ["OAVPA", "PNP"]], dtype=object),
        error=np.array([["", "DegenerateConicError"], ["", "NonConvergenceError"], ["", ""]],
                       dtype=object),
        e_loc=np.array([[0.25, math.nan], [1.5e-13, math.nan], [3.0, 0.5]]),
        e_pos=np.array([[1e-3, math.nan], [0.0, math.nan], [-0.0, 0.125]]),
        rotation=np.array([[plain, nan_r], [locked, nan_r], [level, plain]]),
        translation=np.array([[[4.0, 3.0, 1.0], nan_t], [[1.0, 2.0, 1.5], nan_t],
                              [[-0.0, 0.0, 1.0], [4.0, 3.0, 1.0]]]))


# 11-point arcs: some captures fit no ellipse, and VPCA has no complete
# capture to solve.
SHORT_ARCS = ExperimentConfig(samples=60, scenario="superior_arc+superior_arc",
                              arc_fraction=0.03, algorithms=("VPCA", "OAVPA", "PNP"), seed=13)


@pytest.mark.parametrize("case", ["all_algorithms", "short_arcs", "hand_built"])
def test_records_csv_matches_value_at_a_time_writer(case, tmp_path):
    if case == "hand_built":
        cfg, records = ExperimentConfig(), hand_built_records()
    else:
        cfg = (ExperimentConfig(samples=60, algorithms=("VPA", "VPCA", "OAVPA", "PNP"), seed=9)
               if case == "all_algorithms" else SHORT_ARCS)
        records = run_monte_carlo(cfg)
    path = write_results(records, summarize_by_algorithm(records.e_loc_by_algorithm()),
                         tmp_path / "out", cfg)["records"]
    write_records(records, tmp_path / "reference.csv")
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # The rows each case stands for.
    rows = {(records.algorithms[a], records.solver_tag[s, a], records.error[s, a])
            for s, a in np.ndindex(records.error.shape)}
    if case == "hand_built":
        assert path.read_text().count("nan") == 9
    elif case == "all_algorithms":
        assert rows == {("VPA", "VPCA", ""), ("VPCA", "VPCA", ""),
                        ("OAVPA", "OAVPA", ""), ("PNP", "PNP", "")}
    else:
        # VPCA fails on arcs alone; a capture failure fails every algorithm.
        assert rows == {("VPCA", "", "NoCompleteCaptureError"), ("OAVPA", "OAVPA", ""),
                        ("PNP", "PNP", "")} | {
            (alg, "", "DegenerateConicError") for alg in cfg.algorithms}


def test_read_records_round_trips_e_loc(tmp_path, monkeypatch):
    # One PnP row also fails, with NonConvergenceError: the pixels of the first
    # row of each pnp_solve call are swapped for a bow tie 600 px wide, the
    # image of no pose of a convex ring of points in front of the camera.
    solve = harness.pnp_solve

    def bow_tie_first_row(world, pixels, k):
        pixels = pixels.copy()
        pixels[0] = pixels[0].mean(axis=0) + 300.0 * np.array([[-1, -1], [1, 1], [1, -1], [-1, 1]])
        return solve(world, pixels, k)

    monkeypatch.setattr(harness, "pnp_solve", bow_tie_first_row)
    cfg = replace(SHORT_ARCS, samples=120, algorithms=("VPA", "VPCA", "OAVPA", "PNP"))
    records = run_monte_carlo(cfg)
    assert {"DegenerateConicError", "NoCompleteCaptureError",
            "NonConvergenceError"} <= set(records.error.flat)
    stats = summarize_by_algorithm(records.e_loc_by_algorithm())
    read = read_records(write_results(records, stats, tmp_path / "out", cfg)["records"])
    assert list(read) == list(cfg.algorithms)
    for alg, e_loc in records.e_loc_by_algorithm().items():
        failed = np.isnan(e_loc)
        assert np.array_equal(np.isnan(read[alg]), failed)
        # records.csv keeps 12 significant digits.
        np.testing.assert_allclose(read[alg][~failed], e_loc[~failed], rtol=5e-12, atol=0)
    assert {alg: (s.n_success, s.n_failed) for alg, s in summarize_by_algorithm(read).items()} \
        == {alg: (s.n_success, s.n_failed) for alg, s in stats.items()}


def test_write_results_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(samples=4, sigma=2.0, algorithms=("VPA",), seed=6)
    stats = summarize_by_algorithm(run_monte_carlo(cfg).e_loc_by_algorithm())
    p1 = write_results(run_monte_carlo(cfg) and run_monte_carlo(cfg), stats,
                       tmp_path / "a", cfg)
    p2 = write_results(run_monte_carlo(cfg), stats, tmp_path / "b", cfg)
    assert p1["records"].read_bytes() == p2["records"].read_bytes()
    assert p1["cdf"].read_bytes() == p2["cdf"].read_bytes()


def test_write_results_unwritable_path(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = ExperimentConfig(samples=1, sigma=0.0, scenario=("complete", "semicircle"),
                           algorithms=("VPCA",), seed=1)
    records = run_monte_carlo(cfg)
    stats = summarize_by_algorithm(records.e_loc_by_algorithm())
    with pytest.raises(OSError):
        write_results(records, stats, blocker / "nested", cfg)
