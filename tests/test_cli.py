"""Command-line interface: parsing, exit codes, outputs."""

import csv
import json
from importlib import resources

import pytest

from arcpose.cli import main, observations_from_dict
from arcpose.errors import InvalidConfigError

# Ground truth of the bundled zero-noise fixture (generated by the simulator
# with seed 0; see data/fixture_observations.json).
FIXTURE_DEG = (26.669184326, -24.242201191, -161.272331617)
FIXTURE_T = (2.688936484, 0.901676801, 1.17550905)


def data_path(name: str) -> str:
    return str(resources.files("arcpose") / "data" / name)


def tiny_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "samples": 5,
        "sigma": 1.0,
        "algorithms": ["VPA"],
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# --- argument parsing ------------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(capsys):
    assert main(["run", "--config", "/nonexistent/config.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_help_mentions_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--seed", "--samples", "--sigma",
                 "--radius", "--arc-mode", "--algorithms"):
        assert flag in out


# --- solve -----------------------------------------------------------------------

def test_solve_fixture_recovers_pose(capsys):
    rc = main([
        "solve", data_path("fixture_scene.json"),
        data_path("fixture_observations.json"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "VPCA" in out
    values = {}
    for line in out.splitlines():
        for token in line.replace("rotation (deg):", "").replace(
                "location (m):", "").split():
            if "=" in token:
                key, _, val = token.partition("=")
                values[key] = float(val)
    assert values["phi"] == pytest.approx(FIXTURE_DEG[0], abs=1e-6)
    assert values["theta"] == pytest.approx(FIXTURE_DEG[1], abs=1e-6)
    assert values["psi"] == pytest.approx(FIXTURE_DEG[2], abs=1e-6)
    assert values["x"] == pytest.approx(FIXTURE_T[0], abs=1e-6)
    assert values["y"] == pytest.approx(FIXTURE_T[1], abs=1e-6)
    assert values["z"] == pytest.approx(FIXTURE_T[2], abs=1e-6)


def test_solve_csv_format_single_row(capsys):
    rc = main([
        "solve", data_path("fixture_scene.json"),
        data_path("fixture_observations.json"), "--format", "csv",
    ])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "VPCA"
    assert float(row[1]) == pytest.approx(FIXTURE_DEG[0], abs=1e-6)
    assert float(row[4]) == pytest.approx(FIXTURE_T[0], abs=1e-6)


def test_solve_single_observation_exits_1(tmp_path, capsys):
    data = json.loads((resources.files("arcpose") / "data" /
                       "fixture_observations.json").read_text())
    data["observations"] = data["observations"][:1]
    obs_path = tmp_path / "one.json"
    obs_path.write_text(json.dumps(data))
    rc = main(["solve", data_path("fixture_scene.json"), str(obs_path)])
    assert rc == 1
    assert "TooFewLuminaires" in capsys.readouterr().err


def test_solve_repeated_luminaire_id_exits_2(tmp_path, capsys):
    # Relabelling the complete L1 capture as L2 once solved to a pose 4 m off.
    data = json.loads((resources.files("arcpose") / "data" /
                       "fixture_observations.json").read_text())
    data["observations"][0]["luminaire_id"] = "L2"
    with pytest.raises(InvalidConfigError, match="'L2'"):
        observations_from_dict(data)
    obs_path = tmp_path / "repeated.json"
    obs_path.write_text(json.dumps(data))
    assert main(["solve", data_path("fixture_scene.json"), str(obs_path)]) == 2
    assert "'L2'" in capsys.readouterr().err


@pytest.mark.parametrize("patch, message", [
    ({"luminaire_id": None}, "observation 0: missing field 'luminaire_id'"),
    ({"center_proj": [float("nan"), 240.0]}, "observation 0 ('L1'): center_proj"),
    ({"contour_pixels": [[1.0, 2.0, 3.0]] * 20}, "observation 0 ('L1'): contour_pixels"),
    ({"contour_pixels": None, "ellipse": {"a": 1.0}}, "observation 0 ('L1'): bad ellipse"),
    (["x"], "observation 0 must be a JSON object"),
    ({"center_proj": None}, "observation 0 ('L1'): complete observation needs 'center_proj'"),
    ({"mark_proj": None}, "observation 0 ('L1'): complete observation needs 'mark_proj'"),
], ids=["missing_id", "nan_center", "three_columns", "bad_ellipse", "non_object",
        "complete_without_center", "complete_without_mark"])
def test_solve_malformed_observation_exits_2(tmp_path, capsys, patch, message):
    # Each of these once ended in a traceback or in an error that named
    # neither the field nor the observation. None deletes the field.
    data = json.loads((resources.files("arcpose") / "data" /
                       "fixture_observations.json").read_text())
    if isinstance(patch, dict):
        obs = data["observations"][0]
        obs.update(patch)
        for name in [n for n, v in patch.items() if v is None]:
            del obs[name]
    else:
        data["observations"][0] = patch
    with pytest.raises(InvalidConfigError) as exc:
        observations_from_dict(data)
    assert message in str(exc.value)
    obs_path = tmp_path / "malformed.json"
    obs_path.write_text(json.dumps(data))
    assert main(["solve", data_path("fixture_scene.json"), str(obs_path)]) == 2
    assert message in capsys.readouterr().err


# --- run -----------------------------------------------------------------------

def test_run_writes_outputs(tmp_path, capsys):
    rc = main(["run", "--config", tiny_config(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    for name in ("records.csv", "cdf.csv", "manifest.json"):
        assert (tmp_path / "out" / name).exists()
    out = capsys.readouterr().out
    assert "p90_cm" in out


def test_run_repeated_seed_identical_csv(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "records.csv").read_bytes() == (
        tmp_path / "b" / "records.csv").read_bytes()


def test_run_invalid_config_field_named(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"samples": 3, "bogus_field": 1}))
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "bogus_field" in capsys.readouterr().err


def test_run_overrides(tmp_path):
    rc = main(["run", "--config", tiny_config(tmp_path), "--samples", "2",
               "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["samples"] == 2
    assert manifest["seed"] == 3


def test_run_default_config_is_bundled(tmp_path):
    # defaults.json resolves from package data when not present on disk.
    rc = main(["run", "--config", "defaults.json", "--samples", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["sigma"] == 2.0


# --- sweeps and cdf ------------------------------------------------------------------

def test_sweep_noise_writes_summary(tmp_path, capsys):
    rc = main(["sweep-noise", "--config", tiny_config(tmp_path),
               "--sigma", "0,2", "--out", str(tmp_path / "s")])
    assert rc == 0
    with open(tmp_path / "s" / "sweep_noise.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["value"] for r in rows} == {"0", "2"}


def test_cdf_command_from_records(tmp_path, capsys):
    main(["run", "--config", tiny_config(tmp_path), "--out", str(tmp_path / "r")])
    capsys.readouterr()
    rc = main(["cdf", str(tmp_path / "r" / "records.csv"),
               "--out", str(tmp_path / "c")])
    assert rc == 0
    assert (tmp_path / "c" / "cdf.csv").exists()
    assert "p90" in capsys.readouterr().out


# --- scene-validate -------------------------------------------------------------------

def test_scene_validate_ok(capsys):
    assert main(["scene-validate", data_path("fixture_scene.json")]) == 0
    out = capsys.readouterr().out
    assert "4 luminaires ok" in out


def test_scene_validate_bad_scene(tmp_path, capsys):
    path = tmp_path / "bad_scene.json"
    path.write_text(json.dumps({"schema_version": 1, "room": [8, 6, 3],
                                "luminaires": [], "oops": True}))
    assert main(["scene-validate", str(path)]) == 2
    assert "oops" in capsys.readouterr().err
