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
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .conic import EllipseCoeffs, fit_ellipse
from .errors import ArcPoseError, InvalidConfigError
from .frames import CameraIntrinsics, pixel_to_image, rotation_to_euler
from .harness import (
    PERCENTILES,
    config_from_dict,
    run_monte_carlo,
    summarize_by_algorithm,
    sweep,
    write_results,
)
from .sim import default_intrinsics, intrinsics_from_dict, scene_from_dict
from .solver import Observation, solve_vpa

OBSERVATION_SCHEMA_VERSION = 1


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        # Fall back to configs bundled with the package (e.g. defaults.json).
        bundled = resources.files("arcpose") / "data" / p.name
        if bundled.is_file():
            return json.loads(bundled.read_text())
        raise FileNotFoundError(f"file not found: {path}")
    return json.loads(p.read_text())


def _finite_pixels(value, name: str, where: str, contour: bool = False):
    """Pixel coordinates as a finite (2,) point or, for a contour, (N, 2) array."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if (
        arr is None
        or arr.ndim != (2 if contour else 1)
        or arr.shape[-1] != 2
        or not np.isfinite(arr).all()
    ):
        shape = "an (N, 2) array" if contour else "a [u, v] pair"
        raise InvalidConfigError(f"{where}: {name} must be {shape} of finite numbers")
    return arr


def observations_from_dict(data: dict) -> tuple[list[Observation], CameraIntrinsics]:
    """Parse an observation file: fitted ellipses or raw contour pixels."""
    if not isinstance(data, dict):
        raise InvalidConfigError("observation file must be a JSON object")
    unknown = set(data) - {"schema_version", "intrinsics", "observations"}
    if unknown:
        raise InvalidConfigError(f"unknown observation-file fields: {sorted(unknown)}")
    if data.get("schema_version", OBSERVATION_SCHEMA_VERSION) != OBSERVATION_SCHEMA_VERSION:
        raise InvalidConfigError("unsupported observation schema_version")
    k = (
        default_intrinsics() if data.get("intrinsics") is None
        else intrinsics_from_dict(data["intrinsics"])
    )
    observations = []
    seen_ids = set()
    for index, item in enumerate(data.get("observations", [])):
        where = f"observation {index}"
        if not isinstance(item, dict):
            raise InvalidConfigError(f"{where} must be a JSON object")
        extra = set(item) - {
            "luminaire_id", "ellipse", "contour_pixels",
            "complete", "center_proj", "mark_proj",
        }
        if extra:
            raise InvalidConfigError(
                f"{where}: unknown observation fields: {sorted(extra)}"
            )
        if "luminaire_id" not in item:
            raise InvalidConfigError(f"{where}: missing field 'luminaire_id'")
        lum_id = str(item["luminaire_id"])
        if lum_id in seen_ids:
            raise InvalidConfigError(f"repeated luminaire_id {lum_id!r}")
        seen_ids.add(lum_id)
        where = f"observation {index} ({lum_id!r})"
        if ("ellipse" in item) == ("contour_pixels" in item):
            raise InvalidConfigError(
                f"{where} needs exactly one of ellipse/contour_pixels"
            )
        contour = None
        if "ellipse" in item:
            try:
                ellipse = EllipseCoeffs(**item["ellipse"])
            except TypeError as exc:
                raise InvalidConfigError(f"{where}: bad ellipse: {exc}") from exc
        else:
            contour = _finite_pixels(item["contour_pixels"], "contour_pixels", where,
                                     contour=True)
            ellipse = fit_ellipse(pixel_to_image(contour, k))
        points = {
            name: _finite_pixels(item[name], name, where)
            for name in ("center_proj", "mark_proj")
            if item.get(name) is not None
        }
        complete = bool(item.get("complete", False))
        for name in ("center_proj", "mark_proj"):
            if complete and name not in points:
                raise InvalidConfigError(f"{where}: complete observation needs {name!r}")
        observations.append(
            Observation(
                luminaire_id=lum_id,
                ellipse=ellipse,
                complete=complete,
                center_proj=points.get("center_proj"),
                mark_proj=points.get("mark_proj"),
                contour_pixels=contour,
            )
        )
    return observations, k


def _default_out() -> str:
    return os.environ.get("ARCPOSE_OUT", "results")


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
        p.add_argument("-v", "--verbose", action="count", default=0)

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment")
    add_run_flags(p_run)

    p_sn = sub.add_parser("sweep-noise", help="experiment across noise levels")
    add_run_flags(p_sn, sweep_flag="sigma")
    p_sn.add_argument("--sigma", default="0,1,2,3,4",
                      help="comma-separated noise levels in pixels")

    p_sr = sub.add_parser("sweep-radius", help="experiment across radii")
    add_run_flags(p_sr, sweep_flag="radius")
    p_sr.add_argument("--radius", default="0.06,0.08,0.10,0.12,0.14,0.16",
                      help="comma-separated radii in meters")

    p_cdf = sub.add_parser("cdf", help="CDF/percentiles from a records.csv")
    p_cdf.add_argument("records", help="records.csv from a previous run")
    p_cdf.add_argument("--out", default=None)

    p_sv = sub.add_parser("scene-validate", help="check a scene file")
    p_sv.add_argument("scene", help="scene JSON file")
    return parser


def _config_from_args(args) -> "ExperimentConfig":
    from .harness import ExperimentConfig

    if args.config:
        cfg = config_from_dict(_load_json(args.config))
    else:
        cfg = ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["samples"] = args.samples
    if getattr(args, "sigma", None) is not None and isinstance(args.sigma, float):
        overrides["sigma"] = args.sigma
    if getattr(args, "radius", None) is not None and isinstance(args.radius, float):
        overrides["radius"] = args.radius
    if args.arc_mode is not None:
        overrides["scenario"] = args.arc_mode
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(
            a.strip().upper() for a in args.algorithms.split(",") if a.strip()
        )
    if overrides:
        import dataclasses

        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _print_summary(stats_by_alg) -> None:
    header = ["algorithm", "n_ok", "n_fail", "mean_cm", "stderr_cm"] + [
        f"p{p}_cm" for p in PERCENTILES
    ]
    print("  ".join(f"{h:>10}" for h in header))
    for alg, s in sorted(stats_by_alg.items()):
        row = [alg, s.n_success, s.n_failed,
               f"{100 * s.mean:.2f}", f"{100 * s.std_err:.2f}"]
        row += [f"{100 * s.percentiles[p]:.2f}" for p in PERCENTILES]
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
    if getattr(args, "verbose", 0):
        from .harness import config_to_dict

        print(json.dumps(config_to_dict(cfg), indent=2), file=sys.stderr)


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    _echo_config(args, cfg)
    records = run_monte_carlo(cfg)
    stats = summarize_by_algorithm(records)
    out_dir = args.out or _default_out()
    paths = write_results(records, stats, out_dir, cfg)
    _print_summary(stats)
    print(f"wrote {paths['records']}, {paths['cdf']}, {paths['manifest']}")
    return 0


def cmd_sweep(args, parameter: str) -> int:
    cfg = _config_from_args(args)
    _echo_config(args, cfg)
    values = [float(v) for v in str(args.sigma if parameter == "noise"
                                    else args.radius).split(",")]
    results = sweep(cfg, parameter, values)
    out_dir = Path(args.out or _default_out())
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"sweep_{parameter}.csv"
    with open(path, "w") as fh:
        fh.write("parameter,value,algorithm,n_success,n_failed,"
                 "mean_e_loc_m,std_err_m,p90_m\n")
        for value, by_alg in results.items():
            for alg, s in sorted(by_alg.items()):
                fh.write(
                    f"{parameter},{value:.12g},{alg},{s.n_success},{s.n_failed},"
                    f"{s.mean:.12g},{s.std_err:.12g},{s.percentiles[90]:.12g}\n"
                )
    for value, by_alg in results.items():
        print(f"--- {parameter} = {value:g}")
        _print_summary(by_alg)
    print(f"wrote {path}")
    return 0


def cmd_cdf(args) -> int:
    import csv as csv_mod

    from .harness import DEFAULT_CDF_GRID

    with open(args.records, newline="") as fh:
        rows = list(csv_mod.DictReader(fh))
    by_alg: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    for row in rows:
        alg = row["algorithm"]
        if row["status"] == "ok":
            by_alg.setdefault(alg, []).append(float(row["e_loc_m"]))
        else:
            failures[alg] = failures.get(alg, 0) + 1
    if not by_alg:
        print("no successful records", file=sys.stderr)
        return 1
    out_dir = Path(args.out or _default_out())
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "cdf.csv"
    with open(path, "w") as fh:
        fh.write("algorithm,e_loc_m,fraction\n")
        for alg, errs in sorted(by_alg.items()):
            errors = np.array(errs)
            for g in DEFAULT_CDF_GRID:
                fh.write(f"{alg},{g:.12g},{(errors <= g).mean():.12g}\n")
            pcts = "  ".join(
                f"p{p}={100 * np.percentile(errors, p):.2f}cm" for p in PERCENTILES
            )
            print(f"{alg}: n={errors.size} failed={failures.get(alg, 0)}  {pcts}")
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
    except (InvalidConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArcPoseError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
