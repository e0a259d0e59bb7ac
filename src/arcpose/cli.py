"""Command-line interface for the positioning experiments.

Commands
    solve           one-shot pose estimate from a scene + observation file
    run             Monte Carlo experiment, writes records/cdf/manifest
    sweep-noise     experiment across pixel-noise levels
    sweep-radius    experiment across luminaire radii
    cdf             recompute CDF/percentiles from an existing records.csv
    scene-validate  parse and sanity-check a scene file

The CLI speaks degrees and prints meters; the library underneath works in
radians. Exit codes: 0 success, 1 solver/runtime failure, 2 usage or
configuration failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .conic import DISCRIMINANT_SLACK, fit_ellipses
from .errors import ArcPoseError, DegenerateConicError, InvalidConfigError
from .frames import CameraIntrinsics, pixel_to_image, read_numbers, rotation_to_euler
from .harness import (
    PERCENTILES,
    ExperimentConfig,
    _fmt,
    config_from_dict,
    config_to_dict,
    read_records,
    run_monte_carlo,
    summarize_by_algorithm,
    sweep,
    sweep_configs,
    write_cdf,
    write_results,
)
from .sim import (
    default_intrinsics,
    intrinsics_from_dict,
    read_object,
    read_text,
    scene_from_dict,
)
from .solver import Observations, contour_lengths, solve_vpa

OBSERVATION_SCHEMA_VERSION = 1


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        # A bare file name falls back to the files bundled with the package
        # (e.g. defaults.json); a path with a directory never does.
        p = resources.files("arcpose") / "data" / p.name
        if p.name != path or not p.is_file():
            raise FileNotFoundError(f"file not found: {path}")
    try:
        return json.loads(read_text(p))
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{p}: not valid JSON: {exc}") from exc


def observations_from_dict(data: dict) -> tuple[Observations, CameraIntrinsics]:
    """Parse an observation file: per luminaire, its fitted ellipse or its
    raw contour pixels. Every contour of the file is fitted in one
    `fit_ellipses` call and measured in one `contour_lengths` call; an
    ellipse given as coefficients has length 0."""
    read_object(data, ("schema_version", "intrinsics", "observations"), "observation file")
    version = read_numbers(data.get("schema_version", OBSERVATION_SCHEMA_VERSION),
                           "observation schema_version", kind=int)
    if version != OBSERVATION_SCHEMA_VERSION:
        raise InvalidConfigError(f"unsupported observation schema_version {version}")
    k = (default_intrinsics() if data.get("intrinsics") is None
         else intrinsics_from_dict(data["intrinsics"]))
    items = data.get("observations", [])
    if not isinstance(items, list):
        raise InvalidConfigError("observations must be a list")
    ids, coefficients, landmarks, complete, contours = [], [], [], [], {}
    for index, item in enumerate(items):
        where = f"observation {index}"
        read_object(item, ("luminaire_id", "ellipse", "contour_pixels",
                           "complete", "center_proj", "mark_proj"), where)
        if "luminaire_id" not in item:
            raise InvalidConfigError(f"{where}: missing field 'luminaire_id'")
        lum_id = item["luminaire_id"]  # `Observations` checks that it is a string
        ids.append(lum_id)
        where = f"observation {index} ({lum_id!r})"
        if ("ellipse" in item) == ("contour_pixels" in item):
            raise InvalidConfigError(f"{where} needs exactly one of ellipse/contour_pixels")
        if "ellipse" in item:
            coeffs = read_object(item["ellipse"], "abcde", f"{where}: ellipse")
            row = [read_numbers(coeffs.get(n), f"{where}: ellipse {n}") for n in "abcde"]
            a, b, c = row[:3]
            discriminant = b * b - 4.0 * a * c
            if not discriminant < DISCRIMINANT_SLACK:  # NaN once b * b or a * c overflows
                raise DegenerateConicError(
                    f"discriminant b^2-4ac = {discriminant:g} is not negative")
            coefficients.append(row)
        else:
            contours[index] = read_numbers(item["contour_pixels"],
                                           f"{where}: contour_pixels", (None, 2))
            coefficients.append([math.nan] * 5)
        complete.append(item.get("complete", False))
        if not isinstance(complete[-1], bool):
            raise InvalidConfigError(f"{where}: complete must be true or false")
        landmarks.append([])
        for name in ("center_proj", "mark_proj"):
            if item.get(name) is not None:
                landmarks[-1].append(read_numbers(item[name], f"{where}: {name}", (2,)))
            elif complete[-1]:
                raise InvalidConfigError(f"{where}: complete observation needs {name!r}")
            else:
                landmarks[-1].append((math.nan, math.nan))
    counts = [len(contours.get(index, ())) for index in range(len(ids))]
    points = np.zeros((len(ids), max(counts, default=0), 2))
    for index, contour in contours.items():
        points[index, :len(contour)] = contour
    if contours:  # the first contour whose fit fails is raised
        rows = list(contours)
        fits = fit_ellipses(pixel_to_image(points[rows], k), [counts[i] for i in rows])
        for j, index in enumerate(rows):
            if fits.error(j) is not None:
                raise fits.error(j)
            coefficients[index] = fits.coefficients[j]
    return Observations(luminaire=ids, coefficients=coefficients, landmarks=landmarks,
                        complete=complete, contour_px=contour_lengths(points, counts)), k


def _out_dir(path: str | None) -> Path:
    """The output directory `path` (default $ARCPOSE_OUT or ./results),
    made before any work; raises InvalidConfigError naming it when it cannot
    be made."""
    out = Path(path or os.environ.get("ARCPOSE_OUT", "results"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {out}: {exc}") from exc
    return out


def _float_list(text: str) -> list[float]:
    """A comma-separated list of numbers; argparse turns the error into a
    usage error (exit code 2) that names the flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


# Built once per process: a build costs about 1.5 ms, which every in-process
# `main` call paid, and parsing leaves the parser as it was.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcpose",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"arcpose {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="estimate a pose from one capture")
    p_solve.add_argument("scene", help="scene JSON file")
    p_solve.add_argument("observations", help="observation JSON file")
    p_solve.add_argument(
        "--format", choices=("text", "csv"), default="text",
        help="csv prints one row: algorithm,phi_deg,theta_deg,psi_deg,x_m,y_m,z_m",
    )

    def add_run_flags(p, sweep_flag: str | None = None):
        p.add_argument("--config", help="experiment config JSON (default: the bundled defaults.json)")
        p.add_argument("--out", default=None, help="output directory "
                       "(default $ARCPOSE_OUT or ./results)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        if sweep_flag != "sigma":
            p.add_argument("--sigma", type=float, default=None,
                           help="pixel noise standard deviation")
        if sweep_flag != "radius":
            p.add_argument("--radius", type=float, default=None,
                           help="luminaire radius in meters")
        p.add_argument("--arc-mode", default=None,
                       help="'mixed' or e.g. 'complete+semicircle'")
        p.add_argument("--algorithms", default=None,
                       help="comma-separated subset of VPA,VPCA,OAVPA,PNP")
        p.add_argument("-v", "--verbose", action="store_true")

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment")
    add_run_flags(p_run)

    p_sn = sub.add_parser("sweep-noise", help="experiment across noise levels")
    add_run_flags(p_sn, sweep_flag="sigma")
    p_sn.add_argument("--sigma", dest="sigmas", metavar="SIGMA", type=_float_list,
                      default="0,1,2,3,4", help="comma-separated noise levels in pixels")

    p_sr = sub.add_parser("sweep-radius", help="experiment across radii")
    add_run_flags(p_sr, sweep_flag="radius")
    p_sr.add_argument("--radius", dest="radii", metavar="RADIUS", type=_float_list,
                      default="0.06,0.08,0.10,0.12,0.14,0.16",
                      help="comma-separated radii in meters")

    p_cdf = sub.add_parser("cdf", help="CDF/percentiles from a records.csv")
    p_cdf.add_argument("records", help="records.csv from a previous run")
    p_cdf.add_argument("--out", default=None)

    p_sv = sub.add_parser("scene-validate", help="check a scene file")
    p_sv.add_argument("scene", help="scene JSON file")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = config_from_dict(_load_json(args.config))
    else:
        cfg = ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["samples"] = args.samples
    # A sweep command has no --sigma or --radius override for its parameter.
    if getattr(args, "sigma", None) is not None:
        overrides["sigma"] = args.sigma
    if getattr(args, "radius", None) is not None:
        overrides["radius"] = args.radius
    if args.arc_mode is not None:
        overrides["scenario"] = args.arc_mode
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(
            a.strip().upper() for a in args.algorithms.split(",") if a.strip()
        )
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _print_summary(stats_by_alg) -> None:
    header = ["algorithm", "n_ok", "n_fail", "mean_cm", "stderr_cm"] + [
        f"p{p}_cm" for p in PERCENTILES
    ]
    print("  ".join(f"{h:>10}" for h in header))
    for alg, s in sorted(stats_by_alg.items()):
        cm = [s.mean, s.std_err] + [s.percentiles[p] for p in PERCENTILES]
        row = [alg, s.n_success, s.n_failed]
        row += ["-" if v is None else f"{100 * v:.2f}" for v in cm]
        print("  ".join(f"{str(v):>10}" for v in row))


def cmd_solve(args) -> int:
    scene = scene_from_dict(_load_json(args.scene))
    observations, k = observations_from_dict(_load_json(args.observations))
    estimate = solve_vpa(observations, scene.luminaire_map(), k)
    e = rotation_to_euler(estimate.pose.rotation)
    t = estimate.pose.translation
    deg = [math.degrees(a) for a in (e.phi, e.theta, e.psi)]
    if args.format == "csv":
        print(",".join(
            [estimate.algorithm]
            + [f"{v:.12g}" for v in deg]
            + [f"{v:.12g}" for v in t]
        ))
    else:
        print(f"algorithm: {estimate.algorithm}")
        print(f"rotation (deg): phi={deg[0]:.6f} theta={deg[1]:.6f} psi={deg[2]:.6f}")
        print(f"location (m):   x={t[0]:.6f} y={t[1]:.6f} z={t[2]:.6f}")
    return 0


def _echo_config(args, cfg) -> None:
    if args.verbose:
        print(json.dumps(config_to_dict(cfg), indent=2), file=sys.stderr)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    _echo_config(args, cfg)
    out_dir = _out_dir(args.out)
    records = run_monte_carlo(cfg)
    stats = summarize_by_algorithm(records.e_loc_by_algorithm())
    paths = write_results(records, stats, out_dir, cfg)
    _print_summary(stats)
    print(f"wrote {paths['records']}, {paths['cdf']}, {paths['manifest']}")
    return 0


def cmd_sweep(args, parameter: str) -> int:
    cfg = _config_from_args(args)
    _echo_config(args, cfg)
    values = args.sigmas if parameter == "noise" else args.radii
    sweep_configs(cfg, parameter, values)  # a bad value makes no directory
    path = _out_dir(args.out) / f"sweep_{parameter}.csv"
    results = sweep(cfg, parameter, values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "value", "algorithm", "n_success", "n_failed",
                         "mean_e_loc_m", "std_err_m", "p90_m"])
        for value, by_alg in results.items():
            for alg, s in sorted(by_alg.items()):
                writer.writerow([_fmt(v) for v in (
                    parameter, value, alg, s.n_success, s.n_failed,
                    s.mean, s.std_err, s.percentiles[90])])
    for value, by_alg in results.items():
        print(f"--- {parameter} = {value:g}")
        _print_summary(by_alg)
    print(f"wrote {path}")
    return 0


def cmd_cdf(args) -> int:
    records = read_records(args.records)
    path = _out_dir(args.out) / "cdf.csv"
    stats = summarize_by_algorithm(records)
    write_cdf(stats, path)
    _print_summary(stats)
    print(f"wrote {path}")
    return 0


def cmd_scene_validate(args) -> int:
    scene = scene_from_dict(_load_json(args.scene))
    length, width, height = scene.room
    print(f"room: {length:g} x {width:g} x {height:g} m")
    for lum in scene.luminaires:
        c = lum.center_w
        print(f"  {lum.id}: center=({c[0]:g}, {c[1]:g}, {c[2]:g}) m "
              f"radius={lum.radius:g} m")
    print(f"{len(scene.luminaires)} luminaires ok")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep-noise":
            return cmd_sweep(args, "noise")
        if args.command == "sweep-radius":
            return cmd_sweep(args, "radius")
        if args.command == "cdf":
            return cmd_cdf(args)
        if args.command == "scene-validate":
            return cmd_scene_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except (InvalidConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArcPoseError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
