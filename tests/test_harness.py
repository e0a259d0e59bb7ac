"""Metrics, Monte Carlo runner, sweeps, summaries, and result files."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from arcpose import harness, sim
from arcpose.errors import ArcPoseError, InvalidConfigError, SamplingExhaustedError
from arcpose.frames import EulerAngles, euler_to_rotation
from arcpose.harness import (
    DEFAULT_CDF_GRID,
    ExperimentConfig,
    ResultRecord,
    _capture_block,
    _record_row,
    config_from_dict,
    config_to_dict,
    e_loc,
    e_pos,
    run_monte_carlo,
    summarize,
    summarize_by_algorithm,
    sweep,
    write_results,
)

from arcpose.sim import luminaire_points
from arcpose.solver import solve_oavpa, solve_vpca

from conftest import make_pose
from oracles import capture_sample


# --- metrics ----------------------------------------------------------------------

def test_e_loc_hand_values():
    assert e_loc([0, 0, 0], [0, 0, 0]) == 0.0
    assert e_loc([0, 0, 0], [0.06, 0.08, 0.0]) == pytest.approx(0.10)
    assert e_loc([1, 2, 3], [4, 5, 6]) == e_loc([4, 5, 6], [1, 2, 3])


def test_e_pos_identity():
    r = euler_to_rotation(EulerAngles(0.3, -0.2, 1.1))
    assert e_pos(r, r) == 0.0


def test_e_pos_quarter_turn():
    # ||(1,0,0,0) - (sqrt2/2,0,0,sqrt2/2)|| = sqrt(2 - sqrt2) = 0.765367...
    r = euler_to_rotation(EulerAngles(0, 0, math.pi / 2))
    assert e_pos(np.eye(3), r) == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-12)


def test_e_pos_representation_invariance():
    from arcpose.frames import rotation_to_euler

    r1 = euler_to_rotation(EulerAngles(0.4, 0.1, -2.0))
    r2 = euler_to_rotation(EulerAngles(-0.1, 0.3, 2.9))
    rebuilt = euler_to_rotation(rotation_to_euler(r1))
    assert e_pos(r1, r2) == pytest.approx(e_pos(rebuilt, r2), abs=1e-9)


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
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(images_per_location=0)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(scenario="bogus")


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
    assert len(records) == 10
    assert all(r.ok for r in records)
    assert max(r.e_loc for r in records) < 1e-6


def test_runner_is_deterministic():
    cfg = ExperimentConfig(samples=6, sigma=2.0, algorithms=("VPA",), seed=8)
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    assert [(r.e_loc, r.e_pos, r.solver_tag) for r in a] == [
        (r.e_loc, r.e_pos, r.solver_tag) for r in b
    ]


def rows(records):
    """Records as records.csv writes them, plus the sampler's attempt count."""
    return [_record_row(r) + [r.attempts] for r in records]


def test_runner_prefix_does_not_depend_on_run_length():
    # 30 samples end inside the second pose block; 60 run past it.
    algorithms = ("VPA", "OAVPA")
    short = run_monte_carlo(ExperimentConfig(samples=30, algorithms=algorithms, seed=4))
    long = run_monte_carlo(ExperimentConfig(samples=60, algorithms=algorithms, seed=4))
    assert rows(long[:len(short)]) == rows(short)


def test_runner_records_do_not_depend_on_block_or_slice_size(monkeypatch):
    cfg = ExperimentConfig(samples=40, algorithms=("VPA", "VPCA", "OAVPA", "PNP"),
                           seed=9)
    default = run_monte_carlo(cfg)
    monkeypatch.setattr(harness, "POSE_BLOCK", 7)
    monkeypatch.setattr(harness, "SOLVE_SLICE", 5)
    sliced = run_monte_carlo(cfg)
    assert rows(sliced) == rows(default)
    # Poses agree bit for bit, not just to the 12 digits records.csv keeps.
    assert all(np.array_equal(a.estimate.rotation, b.estimate.rotation)
               and np.array_equal(a.estimate.translation, b.estimate.translation)
               for a, b in zip(default, sliced) if a.ok)
    assert all(attempts >= 1 for *_, attempts in rows(default))


def test_runner_propagates_sampling_exhaustion(monkeypatch):
    monkeypatch.setattr(sim, "MIN_FRACTION", 1.5)
    monkeypatch.setattr(sim, "MAX_ATTEMPTS", 5)
    with pytest.raises(SamplingExhaustedError):
        run_monte_carlo(ExperimentConfig(samples=3, seed=1))


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
        drawn, = sim.sample_poses(scene, [rng], k, points, cfg.scenario != "mixed")
        try:
            obs, (first, second) = capture_sample(cfg, drawn, rng)
        except (ArcPoseError, ValueError) as exc:
            out.append((type(exc).__name__, None, None))
            continue
        results = {}
        for alg, (a, b) in (("VPA", (first, second)), ("OAVPA", (0, 1))):
            solve = solve_vpca if alg == "VPA" and obs[a].complete else solve_oavpa
            try:
                pose = solve(obs[a], obs[b], scene.luminaires, k).pose
                results[alg] = e_loc(drawn.pose.translation, pose.translation)
            except (ArcPoseError, ValueError) as exc:
                results[alg] = type(exc).__name__
        out.append((None, (obs[first].luminaire_id, obs[second].luminaire_id), results))
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
        cap, pair = _capture_block(cfg, drawn, rngs)
        for j in range(len(drawn)):
            rows = 2 * j + pair[j]
            error = cap.error(2 * j) or cap.error(2 * j + 1)
            captured.append((type(error).__name__ if error else None,
                             None if error else tuple(cap.luminaire[rows].tolist())))
    assert captured == [ref[:2] for ref in reference]

    records = run_monte_carlo(cfg)
    assert (sum(ref[0] is not None for ref in reference) > 10) == (arc_fraction < 0.1)
    for (failure, _, results), pair in zip(reference, zip(records[::2], records[1::2])):
        for r in pair:
            expected = failure or results[r.algorithm]
            if isinstance(expected, str):
                assert r.error == expected
            else:
                # 1e-9 m, or 1e-9 relative for the short arcs' poses metres off.
                assert r.ok and abs(r.e_loc - expected) <= 1e-9 * max(1.0, expected)


def test_runner_records_per_algorithm():
    cfg = ExperimentConfig(samples=4, sigma=1.0, algorithms=("VPA", "OAVPA"), seed=2)
    records = run_monte_carlo(cfg)
    assert len(records) == 8
    assert {r.algorithm for r in records} == {"VPA", "OAVPA"}


# --- aggregation --------------------------------------------------------------------

def fake_records(errors_m, algorithm="VPA", failed=0):
    pose = make_pose(t=(0, 0, 1))
    records = [
        ResultRecord(
            sample_index=i, algorithm=algorithm, truth=pose, estimate=pose,
            solver_tag="VPCA", e_loc=e, e_pos=0.0,
        )
        for i, e in enumerate(errors_m)
    ]
    records += [
        ResultRecord(
            sample_index=len(errors_m) + j, algorithm=algorithm, truth=pose,
            error="DegenerateConicError",
        )
        for j in range(failed)
    ]
    return records


def test_summary_of_four_values():
    records = fake_records([0.01, 0.02, 0.03, 0.04])
    stats = summarize(records)
    assert stats.median == pytest.approx(0.025)
    assert DEFAULT_CDF_GRID[5] == 0.025
    assert stats.cdf_fraction[5] == pytest.approx(0.5)
    assert stats.n_success == 4 and stats.n_failed == 0


def test_summary_all_equal_records():
    stats = summarize(fake_records([0.02] * 7))
    assert all(v == pytest.approx(0.02) for v in stats.percentiles.values())
    assert stats.std_err == 0.0


def test_summary_counts_failures_but_excludes_them():
    stats = summarize(fake_records([0.01, 0.02], failed=3))
    assert stats.n_success == 2
    assert stats.n_failed == 3
    assert stats.mean == pytest.approx(0.015)


def test_summary_without_successes():
    stats = summarize(fake_records([], failed=2))
    assert (stats.n_success, stats.n_failed) == (0, 2)
    assert stats.mean is None and stats.std_err is None and stats.median is None
    assert stats.percentiles == dict.fromkeys(harness.PERCENTILES)
    assert stats.cdf_grid.size == 0 and stats.cdf_fraction.size == 0
    assert summarize([]).n_failed == 0


def test_cdf_monotone_nondecreasing():
    records = fake_records(list(np.random.default_rng(0).uniform(0, 0.3, 100)))
    fraction = summarize(records).cdf_fraction
    assert (np.diff(fraction) >= 0).all()
    assert fraction[-1] <= 1.0


# --- sweeps ------------------------------------------------------------------------

def test_single_value_sweep_equals_plain_run():
    cfg = ExperimentConfig(samples=5, sigma=2.0, algorithms=("VPA",), seed=3)
    swept = sweep(cfg, "noise", [2.0])[2.0]["VPA"]
    plain = summarize_by_algorithm(run_monte_carlo(cfg))["VPA"]
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


def test_noise_sweep_shares_poses():
    cfg = ExperimentConfig(samples=4, algorithms=("VPA",), seed=12)
    a = run_monte_carlo(replace(cfg, sigma=0.0))
    b = run_monte_carlo(replace(cfg, sigma=3.0))
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.truth.translation, rb.truth.translation)


# --- serialization -----------------------------------------------------------------

def test_write_results_round_trip(tmp_path):
    cfg = ExperimentConfig(samples=5, sigma=1.0, algorithms=("VPA",), seed=4)
    records = run_monte_carlo(cfg)
    stats = summarize_by_algorithm(records)
    paths = write_results(records, stats, tmp_path / "out", cfg)

    with open(paths["records"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row, rec in zip(rows, records):
        assert int(row["sample_index"]) == rec.sample_index
        assert float(row["e_loc_m"]) == pytest.approx(rec.e_loc, rel=1e-11)
        assert float(row["truth_x"]) == pytest.approx(rec.truth.translation[0], rel=1e-11)

    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["seed"] == 4
    assert manifest["config"]["sigma"] == 1.0
    attempts = [r.attempts for r in records]
    assert manifest["pose_attempts"] == {"mean": np.mean(attempts),
                                         "max": max(attempts)}
    assert "code_version" in manifest

    with open(paths["cdf"], newline="") as fh:
        cdf_rows = list(csv.DictReader(fh))
    fracs = [float(r["fraction"]) for r in cdf_rows]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_write_results_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(samples=4, sigma=2.0, algorithms=("VPA",), seed=6)
    stats = summarize_by_algorithm(run_monte_carlo(cfg))
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
    stats = summarize_by_algorithm(records)
    with pytest.raises(OSError):
        write_results(records, stats, blocker / "nested", cfg)
