"""Command-line interface: parsing, exit codes, outputs."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcpose import cli
from arcpose.cli import main, observations_from_dict
from arcpose.errors import ArcPoseError, InvalidConfigError
from arcpose.frames import CameraIntrinsics, read_numbers
from arcpose.harness import ExperimentConfig, config_from_dict, config_to_dict
from arcpose.sim import (
    Scene,
    default_intrinsics,
    default_scene,
    intrinsics_from_dict,
    scene_from_dict,
)
from arcpose.solver import LuminaireInfo, solve_vpa

# Ground truth of the bundled zero-noise fixture (generated by the simulator
# with seed 0; see data/fixture_observations.json).
FIXTURE_DEG = (26.669184326, -24.242201191, -161.272331617)
FIXTURE_T = (2.688936484, 0.901676801, 1.17550905)


def data_path(name: str) -> str:
    return str(resources.files("arcpose") / "data" / name)


def bundled(name: str):
    return json.loads((resources.files("arcpose") / "data" / name).read_text())


FIXTURE_LUMINAIRES = scene_from_dict(bundled("fixture_scene.json")).luminaire_map()


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


@pytest.mark.parametrize("argv", [
    ["run", "--config", "/no/such/dir/defaults.json"],
    ["solve", "fixture_scene.json", "/no/such/dir/fixture_observations.json"],
    ["scene-validate", "no_such_dir/fixture_scene.json"],
], ids=["run_config", "solve_observations", "scene_validate"])
def test_missing_path_does_not_fall_back_to_bundled_file(argv, tmp_path, capsys):
    # Only a bare file name is looked up among the bundled files; a path that
    # names a directory must exist, even when its file name is bundled.
    assert main(argv + (["--out", str(tmp_path / "o")] if argv[0] == "run" else [])) == 2
    assert "file not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [None, b"\xff\xfe{"], ids=["directory", "not_utf8"])
@pytest.mark.parametrize("command", ["scene-validate", "cdf", "run", "solve"])
def test_unreadable_input_file_exits_2_naming_it(command, content, tmp_path, capsys):
    # A directory, or bytes that are not UTF-8, where an input file belongs
    # is a configuration failure: exit code 2 and the path, no traceback.
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = {"scene-validate": ["scene-validate", str(path)],
            "cdf": ["cdf", str(path), "--out", str(tmp_path / "o")],
            "run": ["run", "--config", str(path), "--out", str(tmp_path / "o")],
            "solve": ["solve", data_path("fixture_scene.json"), str(path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, work, below", [
    ("run", "run_monte_carlo", ""), ("sweep-noise", "sweep", "x"),
    ("cdf", "summarize_by_algorithm", ""),
])
def test_unwritable_out_exits_2_naming_it_before_any_work(command, work, below, tmp_path,
                                                         monkeypatch, capsys):
    # An existing file at --out, or above it, is a configuration failure:
    # exit code 2 and the path, no traceback, and no experiment run first.
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / below if below else blocker
    records = tmp_path / "records.csv"
    records.write_text("sample_index,algorithm,solver_tag,status,error,e_loc_m\n"
                       "0,VPA,VPCA,ok,,0.01\n")
    cfg = tiny_config(tmp_path)
    argv = {"run": ["run", "--config", cfg],
            "sweep-noise": ["sweep-noise", "--config", cfg, "--sigma", "0"],
            "cdf": ["cdf", str(records)]}[command]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, refuse)
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("location", ["on_disk", "bundled"])
@pytest.mark.parametrize("command", ["scene-validate", "run", "solve"])
def test_non_json_input_file_exits_2_naming_it(command, location, tmp_path, monkeypatch,
                                               capsys):
    # A file that is not valid JSON is a configuration failure: exit code 2,
    # its path and the decoder's message, on disk or among the bundled files.
    path = tmp_path / "data" / "broken.json"
    path.parent.mkdir()
    path.write_text('{"samples": 3,')
    name = str(path) if location == "on_disk" else "broken.json"
    argv = {"scene-validate": ["scene-validate", name],
            "run": ["run", "--config", name, "--out", str(tmp_path / "o")],
            "solve": ["solve", data_path("fixture_scene.json"), name]}[command]
    if location == "bundled":
        # The package's data directory is tmp_path / "data", and the file is
        # not in the working directory.
        monkeypatch.setattr(cli.resources, "files", lambda package: tmp_path)
        monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON: Expecting property name")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_main_calls_do_not_share_flags(tmp_path):
    # The parser is built once per process; a run with every override set
    # must leave the next run at the defaults.
    assert main(["run", "--samples", "2", "--seed", "5", "--sigma", "0", "--radius", "0.1",
                 "--arc-mode", "complete+semicircle", "--algorithms", "VPCA",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--samples", "2", "--out", str(tmp_path / "b")]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    expected = config_to_dict(replace(ExperimentConfig(), samples=2))
    assert manifest["config"] == json.loads(json.dumps(expected))


@pytest.mark.parametrize("argv", [
    ["sweep-noise", "--samples", "2"], ["sweep-radius", "--seed", "1"],
    ["run", "-v", "--config", "defaults.json"], ["cdf", "records.csv"],
    ["solve", "scene.json", "obs.json", "--format", "csv"],
])
def test_cached_parser_parses_as_a_fresh_one(argv):
    fresh = cli._build_parser.__wrapped__()
    for other in (["sweep-noise", "--sigma", "1,2"], ["sweep-radius", "--radius", "0.1"],
                  ["run", "--seed", "9", "--samples", "4", "--arc-mode", "mixed"]):
        cli._build_parser().parse_args(other)
    assert vars(cli._build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


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


@pytest.mark.parametrize("field, value, error", [
    ("f", 2.375727087555405e307, "NotAConeError"),  # once LinAlgError from eigh
    ("dy", 721377100445297.0, "InconsistentInputError"),  # once a bare ValueError
    ("dx", 1e307, "LineParallelToPlaneError"),  # once an overflow RuntimeWarning
])
def test_solve_out_of_range_intrinsics_exits_1_by_name(tmp_path, capsys, field, value, error):
    # The fixture's luminaires given as their fitted ellipses, seen by a
    # camera whose intrinsics overflow the cone or the landmarks.
    data = bundled("fixture_observations.json")
    observations, _ = observations_from_dict(data)
    for item, row in zip(data["observations"], observations.coefficients.tolist()):
        del item["contour_pixels"]
        item["ellipse"] = dict(zip("abcde", row))
    data["intrinsics"][field] = value
    obs_path = tmp_path / "overflow.json"
    obs_path.write_text(json.dumps(data))
    assert main(["solve", data_path("fixture_scene.json"), str(obs_path)]) == 1
    assert capsys.readouterr().err.startswith(f"{error}: ")


@pytest.mark.parametrize("patch, message", [
    ({"luminaire_id": None}, "observation 0: missing field 'luminaire_id'"),
    ({"center_proj": [float("nan"), 240.0]}, "observation 0 ('L1'): center_proj"),
    ({"contour_pixels": [[1.0, 2.0, 3.0]] * 20}, "observation 0 ('L1'): contour_pixels"),
    ({"contour_pixels": None, "ellipse": {"a": 1.0}}, "observation 0 ('L1'): ellipse b"),
    (["x"], "observation 0 must be a JSON object"),
    ({"center_proj": None}, "observation 0 ('L1'): complete observation needs 'center_proj'"),
    ({"mark_proj": None}, "observation 0 ('L1'): complete observation needs 'mark_proj'"),
    ({"complete": "false"}, "observation 0 ('L1'): complete"),
    ({"luminaire_id": 1}, "observation 0: luminaire_id"),
    ({"contour_pixels": [["1", "2"]] * 20}, "observation 0 ('L1'): contour_pixels"),
    ({"center_proj": [True, False]}, "observation 0 ('L1'): center_proj"),
    # A boolean among numbers was once read as 1.
    ({"center_proj": [True, 240.0]}, "observation 0 ('L1'): center_proj"),
    ({"contour_pixels": [[True, 2.0]] + [[1.0, 2.0]] * 19}, "observation 0 ('L1'): contour_pixels"),
    ({"contour_pixels": [[1.0, 2.0]] * 19 + [3.0]}, "observation 0 ('L1'): contour_pixels"),
    ({"contour_pixels": [[10 ** 400, 2]] * 20}, "observation 0 ('L1'): contour_pixels"),
    ({"mark_proj": [10 ** 400, 240]}, "observation 0 ('L1'): mark_proj"),
], ids=["missing_id", "nan_center", "three_columns", "bad_ellipse", "non_object",
        "complete_without_center", "complete_without_mark", "text_complete",
        "int_id", "text_contour", "bool_center", "bool_in_center", "bool_in_contour",
        "number_row", "huge_int_contour", "huge_int_mark"])
def test_solve_malformed_observation_exits_2(tmp_path, capsys, patch, message):
    # Each of these was once accepted, or ended in a traceback or in an error
    # that named neither the field nor the observation. None deletes the field.
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


def test_records_do_not_depend_on_the_hash_seed(tmp_path):
    # Two processes that order str-keyed sets and dicts differently must write
    # the same records.csv byte for byte.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for hash_seed in ("1", "2"):
        subprocess.run([sys.executable, "-m", "arcpose.cli", "run", "--samples", "30",
                        "--seed", "11", "--algorithms", "VPA,VPCA,OAVPA,PNP",
                        "--out", str(tmp_path / hash_seed)], check=True, capture_output=True,
                       env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath))
    assert (tmp_path / "1" / "records.csv").read_bytes() == (
        tmp_path / "2" / "records.csv").read_bytes()


@pytest.mark.parametrize("config,field", [
    ({"samples": 3, "bogus_field": 1}, "bogus_field"),
    ({"sigma": None}, "sigma"),
    ({"scenario": 5}, "scenario"),
    ({"samples": "ten"}, "samples"),
    ({"samples": 2.5}, "samples"),
    ({"seed": True}, "seed"),
    ({"algorithms": 5}, "algorithms"),
    ({"intrinsics": dict(bundled("defaults.json")["intrinsics"], f=True)}, "intrinsics f"),
    ({"intrinsics": dict(bundled("defaults.json")["intrinsics"], width=640.5)},
     "intrinsics width"),
    ({"scene": dict(bundled("fixture_scene.json"), room="863")}, "room"),
], ids=["bogus_field", "null_sigma", "int_scenario", "text_samples", "float_samples",
        "bool_seed", "int_algorithms", "bool_f", "fractional_width", "text_room"])
def test_run_invalid_config_field_named(tmp_path, capsys, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,field", [
    (["run", "--sigma", "inf"], "sigma"),
    (["run", "--radius", "inf"], "radius"),
    (["sweep-noise", "--sigma", "0,inf"], "sigma"),
    (["sweep-radius", "--radius", "0.1,inf"], "radius"),
], ids=["run_sigma", "run_radius", "sweep_noise", "sweep_radius"])
def test_non_finite_sigma_or_radius_exits_2(tmp_path, capsys, argv, field):
    # An infinite sigma once failed every sample and exited 0; an infinite
    # radius exhausted the pose sampler. Both are refused before any run.
    rc = main(argv + ["--samples", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and "finite number" in err and "inf" in err
    assert not (tmp_path / "o").exists()


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


def test_run_repeated_algorithm_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", tiny_config(tmp_path), "--algorithms", "VPA,OAVPA,vpa",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "repeated algorithm 'VPA'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- sweeps and cdf ------------------------------------------------------------------

def test_sweep_noise_writes_summary(tmp_path, capsys):
    rc = main(["sweep-noise", "--config", tiny_config(tmp_path),
               "--sigma", "0,2", "--out", str(tmp_path / "s")])
    assert rc == 0
    with open(tmp_path / "s" / "sweep_noise.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["value"] for r in rows} == {"0", "2"}
    # One CSV format: CRLF line ends, as csv.writer gives records.csv.
    lines = (tmp_path / "s" / "sweep_noise.csv").read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + len(rows)
    assert all(line.endswith(b"\r\n") for line in lines)


@pytest.mark.parametrize("command,flag", [("sweep-noise", "--sigma"),
                                          ("sweep-radius", "--radius")])
def test_sweep_malformed_values_exit_2_naming_the_flag(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--samples", "3", flag, "0,abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "'0,abc'" in err


def test_sweep_radius_rows_match_plain_runs(tmp_path, capsys):
    cfg = tiny_config(tmp_path, algorithms=["VPA", "OAVPA"])
    assert main(["sweep-radius", "--config", cfg, "--radius", "0.1,0.15",
                 "--out", str(tmp_path / "s")]) == 0
    with open(tmp_path / "s" / "sweep_radius.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["parameter"], r["value"], r["algorithm"]) for r in rows] == [
        ("radius", "0.1", "OAVPA"), ("radius", "0.1", "VPA"),
        ("radius", "0.15", "OAVPA"), ("radius", "0.15", "VPA")]
    # Each row summarizes the plain run at that radius, as its manifest does.
    for radius in ("0.1", "0.15"):
        out = tmp_path / f"r{radius}"
        assert main(["run", "--config", cfg, "--radius", radius, "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        for row in (r for r in rows if r["value"] == radius):
            s = summary[row["algorithm"]]
            assert (int(row["n_success"]), int(row["n_failed"])) == (
                s["n_success"], s["n_failed"])
            assert float(row["mean_e_loc_m"]) == pytest.approx(s["mean_e_loc_m"], rel=1e-11)
            assert float(row["p90_m"]) == pytest.approx(s["percentiles_m"]["90"], rel=1e-11)
    capsys.readouterr()


def test_cdf_command_from_records(tmp_path, capsys):
    # The cdf command reproduces the run's cdf.csv and table from records.csv.
    cfg = tiny_config(tmp_path, algorithms=["VPA", "OAVPA"])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    run_table = capsys.readouterr().out.splitlines()[:-1]
    rc = main(["cdf", str(tmp_path / "r" / "records.csv"),
               "--out", str(tmp_path / "c")])
    assert rc == 0
    assert (tmp_path / "c" / "cdf.csv").read_bytes() == (
        tmp_path / "r" / "cdf.csv").read_bytes()
    cdf_table = capsys.readouterr().out.splitlines()[:-1]
    assert cdf_table == run_table and "p90_cm" in cdf_table[0]


def test_algorithm_without_success_is_reported(tmp_path, capsys):
    # No superior_arc pair is complete, so VPCA fails on every sample; that
    # once aborted the run and lost the OAVPA records.
    flags = ["--samples", "20", "--arc-mode", "superior_arc+superior_arc",
             "--algorithms", "VPCA,OAVPA", "--seed", "1"]
    assert main(["run", *flags, "--out", str(tmp_path / "r")]) == 0
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text(),
                          parse_constant=lambda name: pytest.fail(name))
    vpca = manifest["summary"]["VPCA"]
    assert (vpca["n_success"], vpca["n_failed"]) == (0, 20)
    assert vpca["mean_e_loc_m"] is None and vpca["std_err_m"] is None
    assert set(vpca["percentiles_m"].values()) == {None}
    assert manifest["summary"]["OAVPA"]["n_success"] == 20
    with open(tmp_path / "r" / "cdf.csv", newline="") as fh:
        assert {row["algorithm"] for row in csv.DictReader(fh)} == {"OAVPA"}
    capsys.readouterr()

    assert main(["cdf", str(tmp_path / "r" / "records.csv"),
                 "--out", str(tmp_path / "c")]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["VPCA", "0", "20"] + ["-"] * 8 in table
    assert (tmp_path / "c" / "cdf.csv").read_bytes() == (
        tmp_path / "r" / "cdf.csv").read_bytes()

    assert main(["sweep-noise", *flags, "--sigma", "0,2",
                 "--out", str(tmp_path / "s")]) == 0
    with open(tmp_path / "s" / "sweep_noise.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["algorithm"] == "VPCA"]
    assert [(r["value"], r["n_success"], r["n_failed"], r["p90_m"])
            for r in rows] == [("0", "0", "20", ""), ("2", "0", "20", "")]


def test_cdf_of_non_records_csv_names_missing_column(tmp_path, capsys):
    columns = ["sample_index", "algorithm", "status", "error", "e_loc_m"]
    for missing in ("algorithm", "status", "e_loc_m"):
        kept = [c for c in columns if c != missing]
        path = tmp_path / f"no_{missing}.csv"
        path.write_text(",".join(kept) + "\n" + ",".join("0" for _ in kept) + "\n")
        assert main(["cdf", str(path), "--out", str(tmp_path / "c")]) == 2
        assert missing in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "0,VPA,VPCA,ok,,nan",  # an ok NaN would read as a failure
    "0,VPA,VPCA,ok,,-1",
    "0,VPA,VPCA,ok,,inf",
    "0,VPA,VPCA,ok,,",
    "0,VPA,VPCA,weird,,0.01",
    "0,VPA,,,,",
    "x,VPA,VPCA,ok,,0.01",
])
def test_cdf_refuses_malformed_row_by_line(row, tmp_path, capsys):
    # Line 4 is bad; the lines before it are well formed.
    path = tmp_path / "records.csv"
    path.write_text("sample_index,algorithm,solver_tag,status,error,e_loc_m\n"
                    "0,VPA,VPCA,ok,,0.01\n1,VPA,,failed,DegenerateConicError,\n"
                    f"{row}\n")
    assert main(["cdf", str(path), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 4" in err and err.startswith("error: ")
    assert not (tmp_path / "c" / "cdf.csv").exists()


# --- scene-validate -------------------------------------------------------------------

def test_scene_validate_ok(capsys):
    assert main(["scene-validate", data_path("fixture_scene.json")]) == 0
    out = capsys.readouterr().out
    assert "4 luminaires ok" in out


@pytest.mark.parametrize("patch, message", [
    (lambda s: s.update(luminaires=[], oops=True), "oops"),
    (lambda s: s.update(room="863"), "scene room"),
    (lambda s: s["luminaires"][0].update(center="223"), "luminaire 'L1' center"),
    (lambda s: s["luminaires"][0].update(radius=True), "luminaire 'L1' radius"),
    # L3 relabelled L1 once passed, and `arcpose run` on it measured a mean
    # error of 52 cm against 2.5 cm.
    (lambda s: s["luminaires"][2].update(id="L1"), "repeated luminaire id 'L1'"),
    (lambda s: s.update(luminaires=[]), "at least 2"),
    (lambda s: s.update(luminaires=s["luminaires"][:1]), "at least 2"),
    # A boolean among numbers was once read as 1.
    (lambda s: s.update(room=[True, 6, 3]), "scene room"),
    (lambda s: s["luminaires"][0].update(center=[2, True, 3]), "luminaire 'L1' center"),
    (lambda s: s.update(room=[[8], 6, 3]), "scene room"),
    (lambda s: s["luminaires"][0].update(center=[10 ** 400, 2, 3]), "luminaire 'L1' center"),
], ids=["unknown_field", "text_room", "text_center", "bool_radius", "repeated_id",
        "no_luminaires", "one_luminaire", "bool_in_room", "bool_in_center", "list_in_room",
        "huge_int_center"])
def test_scene_validate_bad_scene(tmp_path, capsys, patch, message):
    scene = bundled("fixture_scene.json")
    patch(scene)
    path = tmp_path / "bad_scene.json"
    path.write_text(json.dumps(scene))
    assert main(["scene-validate", str(path)]) == 2
    assert message in capsys.readouterr().err


# --- every reader -------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


FINITE_NUMBERS = st.integers(-int(sys.float_info.max), int(sys.float_info.max)) | st.floats(
    allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.lists(FINITE_NUMBERS, min_size=2, max_size=2), min_size=1))
def test_read_numbers_matches_asarray(pairs):
    # The reader of contours gives the bytes NumPy gives for the same list.
    got = read_numbers(pairs, "pairs", (None, 2))
    want = np.asarray(pairs, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(None, 2), (2,), (3,)])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=JSON_VALUES)
def test_read_numbers_returns_array_or_raises_named_error(shape, value):
    try:
        arr = read_numbers(value, "value", shape)
    except InvalidConfigError:
        return
    assert arr.dtype == float and np.isfinite(arr).all()
    assert arr.shape == tuple(len(value) if n is None else n for n in shape)


NUMPY_SCALARS = (st.booleans().map(np.bool_) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                 | st.integers(0, 2 ** 16 - 1).map(np.uint16) | st.floats(width=32).map(np.float32)
                 | st.floats().map(np.float64))
FIELD_VALUES = (JSON_VALUES | NUMPY_SCALARS
                | st.lists(JSON_VALUES | NUMPY_SCALARS, max_size=4).map(tuple))
# Valid keyword arguments of each value class, and its numeric fields.
VALID_FIELDS = {
    CameraIntrinsics: asdict(default_intrinsics()),
    LuminaireInfo: {"id": "L1", "center_w": [2.0, 2.0, 3.0], "radius": 0.15},
    Scene: {"room": (8.0, 6.0, 3.0), "luminaires": default_scene().luminaires},
    ExperimentConfig: {},
}
NUMERIC_FIELDS = ([(CameraIntrinsics, name) for name in VALID_FIELDS[CameraIntrinsics]]
                  + [(LuminaireInfo, "center_w"), (LuminaireInfo, "radius"), (Scene, "room")]
                  + [(ExperimentConfig, name) for name in (
                      "sigma", "radius", "arc_fraction", "samples", "images_per_location",
                      "contour_samples", "seed")])


@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=FIELD_VALUES)
def test_value_classes_return_or_raise_invalid_config(cls, name, value):
    # Any JSON value, NumPy scalar or tuple in place of a numeric field of
    # `CameraIntrinsics`, `LuminaireInfo`, `Scene` or `ExperimentConfig` gives
    # an instance that holds the field as finite Python numbers, or
    # InvalidConfigError.
    try:
        got = getattr(cls(**{**VALID_FIELDS[cls], name: value}), name)
    except InvalidConfigError:
        return
    if got is None:  # a config's radius: the scene's own radii
        assert (cls, name) == (ExperimentConfig, "radius")
        return
    items = (got.tolist() if isinstance(got, np.ndarray)
             else list(got) if isinstance(got, tuple) else [got])
    assert all(type(item) in (int, float) and math.isfinite(item) for item in items)


def field_paths(value, path=()):
    """The path of `value`, of each field of its objects and of the first
    item of its lists, recursively."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from field_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from field_paths(value[0], path + (0,))


@pytest.mark.parametrize("reader, document, key", [
    (scene_from_dict, "fixture_scene.json", None),
    (intrinsics_from_dict, "fixture_observations.json", "intrinsics"),
    (observations_from_dict, "fixture_observations.json", None),
    (config_from_dict, "defaults.json", None),
], ids=["scene", "intrinsics", "observations", "config"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_returns_or_raises_named_error(reader, document, key, data):
    # Any JSON value, as the whole document or in place of one of its fields,
    # gives a result or an ArcPoseError: no other exception and no warning.
    # An observation file the reader accepts goes on to `solve_vpa` with the
    # fixture scene, which gives a finite pose or an ArcPoseError.
    doc = bundled(document)
    if key:
        doc = doc[key]
    path = data.draw(st.sampled_from(list(field_paths(doc))), label="path")
    value = data.draw(JSON_VALUES, label="value")
    if path:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        result = reader(doc)
        if reader is observations_from_dict:
            observations, k = result
            pose = solve_vpa(observations, FIXTURE_LUMINAIRES, k).pose
            assert np.isfinite(pose.rotation).all() and np.isfinite(pose.translation).all()
    except ArcPoseError:
        pass
