"""Monte Carlo experiment runner, error metrics, and result serialization.

One *sample* is: draw a random pose, observe the two best-visible
luminaires (contour pixels with the noise left after averaging the
location's images, cut to arcs per the configured scenario, and their
fitted ellipses), and run every requested algorithm on the pair. Records
carry the per-sample errors; failures are recorded with the error name and
excluded from statistics (but counted).

Reproducibility contract: the per-sample random generator is derived from
(seed, sample_index) only, so identical configurations produce identical
records regardless of execution order, and configurations differing only in
noise level or radius share their pose streams sample-for-sample.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import (
    ArcPoseError,
    GimbalLockError,
    InvalidConfigError,
    NoSuccessfulRecordsError,
)
from .frames import (
    CameraIntrinsics,
    Pose,
    rotation_to_euler,
    rotation_to_quaternion,
)
from .sim import (
    ARC_MODES,
    Scene,
    capture_observation,
    default_intrinsics,
    default_scene,
    intrinsics_from_dict,
    luminaire_points,
    read_numbers,
    read_object,
    sample_poses,
    scene_from_dict,
    scene_to_dict,
)
from .solver import (
    LuminaireInfo,
    Observation,
    pair_inputs,
    pair_observations,
    pnp_solve,
    solve_pairs,
)

ALGORITHMS = ("VPA", "VPCA", "OAVPA", "PNP")
CONFIG_SCHEMA_VERSION = 1

PERCENTILES = (50, 78, 86, 90, 95, 97)
DEFAULT_CDF_GRID = np.round(np.linspace(0.0, 0.5, 101), 6)

# Samples whose poses `run_monte_carlo` draws together, and rows it hands
# one `solve_pairs` or `pnp_solve` call. Neither changes a record: each
# sample draws from its own generator and each kernel row is solved on its
# own. Blocks amortize the rejection sampler's per-round work; slices bound
# the kernels' temporaries (about 1 KB a pair row, 20 KB a PnP row) whatever
# the run length.
POSE_BLOCK = 24
SOLVE_SLICE = 1024

RECORD_COLUMNS = (
    "sample_index", "algorithm", "solver_tag", "status", "error",
    "e_loc_m", "e_pos",
    "truth_x", "truth_y", "truth_z", "truth_phi", "truth_theta", "truth_psi",
    "est_x", "est_y", "est_z", "est_phi", "est_theta", "est_psi",
)


# --- metrics ---------------------------------------------------------------------

def e_loc(truth, est) -> float:
    """Euclidean location error in meters."""
    return float(np.linalg.norm(np.asarray(truth, float) - np.asarray(est, float)))


def e_pos(r_true: np.ndarray, r_est: np.ndarray) -> float:
    """Relative quaternion distance between two rotations.

    Both quaternions are canonicalized to the same hemisphere first; for unit
    quaternions the denominator is 1.
    """
    q_true = rotation_to_quaternion(r_true)
    q_est = rotation_to_quaternion(r_est)
    return float(np.linalg.norm(q_true - q_est) / np.linalg.norm(q_est))


# --- configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte Carlo run needs; defaults mirror the standard
    simulation protocol (8x6x3 m room, sigma = 2 px, R = 15 cm, 20-image
    averaging, 10,000 samples)."""

    scene: Scene = field(default_factory=default_scene)
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    sigma: float = 2.0
    radius: float | None = 0.15
    scenario: str | tuple[str, str] = "mixed"
    samples: int = 10_000
    images_per_location: int = 20
    contour_samples: int = 360
    arc_fraction: float = 0.6
    algorithms: tuple[str, ...] = ("VPA",)
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidConfigError(f"samples must be >= 1, got {self.samples}")
        if self.images_per_location < 1:
            raise InvalidConfigError("images_per_location must be >= 1")
        if not self.sigma >= 0:
            raise InvalidConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.radius is not None and not self.radius > 0:
            raise InvalidConfigError(f"radius must be positive, got {self.radius}")
        if self.contour_samples < 8:
            raise InvalidConfigError("contour_samples must be >= 8")
        if not 0 < self.arc_fraction <= 1:
            raise InvalidConfigError("arc_fraction must lie in (0, 1]")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative int, got {self.seed}")
        algorithms = tuple(self.algorithms)
        if not algorithms:
            raise InvalidConfigError("algorithms must not be empty")
        for alg in algorithms:
            if alg not in ALGORITHMS:
                raise InvalidConfigError(
                    f"unknown algorithm {alg!r}; choose from {ALGORITHMS}"
                )
        object.__setattr__(self, "algorithms", algorithms)
        object.__setattr__(self, "scenario", _parse_scenario(self.scenario))

    def effective_scene(self) -> Scene:
        """The scene with the configured radius applied to every luminaire."""
        if self.radius is None:
            return self.scene
        lums = tuple(
            LuminaireInfo(id=lum.id, center_w=lum.center_w, radius=self.radius)
            for lum in self.scene.luminaires
        )
        return Scene(room=self.scene.room, luminaires=lums)


def _parse_scenario(scenario) -> str | tuple[str, str]:
    if scenario == "mixed":
        return "mixed"
    if isinstance(scenario, str):
        scenario = scenario.split("+")
    if (not isinstance(scenario, (list, tuple)) or len(scenario) != 2
            or any(m not in ARC_MODES for m in scenario)):
        raise InvalidConfigError(
            f"scenario must be 'mixed' or two of {ARC_MODES}, got {scenario!r}"
        )
    return tuple(scenario)


_CONFIG_FIELDS = {"schema_version"} | {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a configuration mapping, rejecting unknown fields by name."""
    read_object(data, _CONFIG_FIELDS, "config")
    version = read_numbers(data.get("schema_version", CONFIG_SCHEMA_VERSION),
                           "config schema_version", kind=int)
    if version != CONFIG_SCHEMA_VERSION:
        raise InvalidConfigError(f"unsupported config schema_version {version}")
    kwargs = {}
    if "scene" in data:
        kwargs["scene"] = scene_from_dict(data["scene"])
    if "intrinsics" in data:
        kwargs["intrinsics"] = intrinsics_from_dict(data["intrinsics"])
    for name in ("sigma", "radius", "arc_fraction"):
        if name in data:
            # A null radius keeps the scene's own radii.
            kwargs[name] = (None if name == "radius" and data[name] is None
                            else read_numbers(data[name], f"config field {name!r}"))
    for name in ("samples", "images_per_location", "contour_samples", "seed"):
        if name in data:
            kwargs[name] = read_numbers(data[name], f"config field {name!r}", kind=int)
    if "scenario" in data:
        kwargs["scenario"] = data["scenario"]
    if "algorithms" in data:
        if not isinstance(data["algorithms"], list):
            raise InvalidConfigError("config field 'algorithms' must be a list")
        kwargs["algorithms"] = tuple(data["algorithms"])
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    scenario = cfg.scenario if isinstance(cfg.scenario, str) else list(cfg.scenario)
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "scene": scene_to_dict(cfg.scene),
        "intrinsics": dataclasses.asdict(cfg.intrinsics),
        "sigma": cfg.sigma,
        "radius": cfg.radius,
        "scenario": scenario,
        "samples": cfg.samples,
        "images_per_location": cfg.images_per_location,
        "contour_samples": cfg.contour_samples,
        "arc_fraction": cfg.arc_fraction,
        "algorithms": list(cfg.algorithms),
        "seed": cfg.seed,
    }


# --- records ---------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRecord:
    """Outcome of one algorithm on one sample; no truth when read back."""

    sample_index: int
    algorithm: str
    truth: Pose | None
    estimate: Pose | None = None
    solver_tag: str | None = None
    e_loc: float | None = None
    e_pos: float | None = None
    error: str | None = None
    attempts: int | None = None  # pose-sampling draws of the sample

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate statistics of the successful records of one algorithm;
    None for each statistic when no record succeeded."""

    n_success: int
    n_failed: int
    mean: float | None
    std_err: float | None
    median: float | None
    percentiles: dict
    cdf_grid: np.ndarray
    cdf_fraction: np.ndarray


# --- the runner ------------------------------------------------------------------

def _pnp_inputs(observations, lum_map) -> dict:
    """The `pnp_solve` inputs (all but `k`) of one sample, as one-row arrays:
    four world points and their pixels, taken evenly from the two arcs (two
    per arc).

    The second arc's sample phase is shifted by an eighth of a turn;
    otherwise two complete circles would contribute two parallel diameters,
    which degenerate to four collinear points when the luminaire centers
    happen to be axis-aligned.
    """
    world, pixels = [], []
    for j, obs in enumerate(observations[:2]):
        lum = lum_map[obs.luminaire_id]
        n = obs.arc_length
        shift = j * (n // 8)
        for idx in ((n // 4 + shift) % n, (3 * n // 4 + shift) % n):
            world.append(lum.circle_points(obs.contour_angles[idx])[0])
            pixels.append(obs.contour_pixels[idx])
    return dict(world=np.array([world]), pixels=np.array([pixels]))


def _euler_or_nan(rotation) -> tuple[float, float, float]:
    try:
        e = rotation_to_euler(rotation)
        return e.phi, e.theta, e.psi
    except GimbalLockError:
        return math.nan, math.nan, math.nan


def run_monte_carlo(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run the configured experiment; one record per sample per algorithm.

    Two phases. Per block of `POSE_BLOCK` samples, draw the poses together
    (each from its own generator, which also draws that sample's noise);
    then per sample capture and fit the ellipses on the projection the pose
    was accepted on, and keep, per algorithm, the compact row its kernel
    solves: the `pair_inputs` of the pair a geometric algorithm solves, or
    PNP's four contour correspondences. Then `solve_pairs` and `pnp_solve`
    take every row of the run to a pose, `SOLVE_SLICE` rows per call.
    Records come out by sample, then in `cfg.algorithms` order.

    Solver failures never abort the run: the record carries the error class
    name and no metrics. Pose-sampling exhaustion does propagate, since a
    visibility test no pose passes would fail every remaining sample too.
    """
    scene = cfg.effective_scene()
    lum_map = scene.luminaire_map()
    # Explicit two-arc scenarios model occlusion on top of a fully visible
    # luminaire, so both chosen luminaires must project entirely into the
    # image; the truncation itself is the only loss.
    complete = cfg.scenario != "mixed"
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    k = cfg.intrinsics

    samples: list[list] = []  # per sample, its records in algorithm order
    # Per kernel, the (sample, slot, algorithm) of each row and the rows'
    # inputs, one array per argument.
    kernels = {solve_pairs: ([], {}), pnp_solve: ([], {})}
    for start in range(0, cfg.samples, POSE_BLOCK):
        indices = range(start, min(start + POSE_BLOCK, cfg.samples))
        rngs = [np.random.default_rng([cfg.seed, index]) for index in indices]
        drawn = sample_poses(scene, rngs, k, points, complete)
        for index, rng, sampled in zip(indices, rngs, drawn):
            sample = _Sample(index, sampled.pose, sampled.attempts)
            records = [None] * len(cfg.algorithms)
            samples.append(records)
            try:
                obs = _capture_sample(cfg, sampled.visibility, rng)
            except (ArcPoseError, ValueError) as exc:
                records[:] = [_failed(sample, alg, exc) for alg in cfg.algorithms]
                continue
            pair = pair_observations(obs)
            for slot, alg in enumerate(cfg.algorithms):
                first, second = (0, 1) if alg == "OAVPA" else pair
                vpca = alg != "OAVPA" and obs[first].complete
                if alg == "VPCA" and not vpca:
                    records[slot] = _failed(sample, alg, ValueError(
                        "no complete capture for the circle-and-arc solver"))
                    continue
                if alg == "PNP":
                    kernel, row = pnp_solve, _pnp_inputs(obs, lum_map)
                else:
                    kernel = solve_pairs
                    row = pair_inputs(obs[first], obs[second], lum_map, k, vpca)
                jobs, batch = kernels[kernel]
                for key, value in row.items():
                    if key not in batch:
                        shape = (cfg.samples * len(cfg.algorithms),) + value.shape[1:]
                        batch[key] = np.empty(shape, value.dtype)
                    batch[key][len(jobs)] = value[0]
                jobs.append((sample, slot, alg))
        # The block's projections go before the next block is drawn.
        del drawn, sampled

    for kernel, (jobs, batch) in kernels.items():
        for first in range(0, len(jobs), SOLVE_SLICE):
            rows = slice(first, min(first + SOLVE_SLICE, len(jobs)))
            args = {key: v[rows] for key, v in batch.items()}
            sol = kernel(**args, f=k.f) if kernel is solve_pairs else kernel(**args, k=k)
            for j, (sample, slot, alg) in enumerate(jobs[rows]):
                error = sol.error(j)
                tag = ("PNP" if kernel is pnp_solve
                       else "VPCA" if args["vpca"][j] else "OAVPA")
                samples[sample.index][slot] = (
                    _failed(sample, alg, error) if error is not None
                    else _solved(sample, alg, tag, Pose(rotation=sol.rotation[j],
                                                        translation=sol.translation[j]))
                )
    return [r for records in samples for r in records]


class _Sample(NamedTuple):
    """What every record of one sample carries."""

    index: int
    truth: Pose
    attempts: int


def _capture_sample(cfg, visibility, rng) -> list[Observation]:
    """Observe the two best-visible luminaires, given every luminaire's
    `Visibility` at the sample's pose. Each observation stands for the
    average of `cfg.images_per_location` images, so its pixel noise is
    sigma / sqrt(images)."""
    # Longest extractable contour first: the nearest luminaire carries the
    # most information. `mixed` pairs the best complete luminaire with the
    # best other one, as the dispatcher does; the explicit scenarios take the
    # best two.
    mixed = cfg.scenario == "mixed"
    chosen = [visibility[i] for i in pair_observations(visibility, mixed)]
    modes = (["complete" if v.complete else "image_bounds" for v in chosen] if mixed
             else list(cfg.scenario))
    noise_px = cfg.sigma / math.sqrt(cfg.images_per_location)
    return [capture_observation(vis, mode, noise_px, cfg.intrinsics, rng,
                                cfg.arc_fraction)
            for vis, mode in zip(chosen, modes)]


def _failed(sample: _Sample, alg, exc) -> ResultRecord:
    return ResultRecord(
        sample_index=sample.index, algorithm=alg, truth=sample.truth,
        error=type(exc).__name__, attempts=sample.attempts,
    )


def _solved(sample: _Sample, alg, tag, pose) -> ResultRecord:
    truth = sample.truth
    return ResultRecord(
        sample_index=sample.index,
        algorithm=alg,
        truth=truth,
        estimate=pose,
        solver_tag=tag,
        e_loc=e_loc(truth.translation, pose.translation),
        e_pos=e_pos(truth.rotation, pose.rotation),
        attempts=sample.attempts,
    )


# --- aggregation -----------------------------------------------------------------

def _summary(records) -> SummaryStats:
    """`summarize` that reports no success as n_success 0 with no CDF."""
    errors = np.array([r.e_loc for r in records if r.ok])
    n_failed = sum(1 for r in records if not r.ok)
    if errors.size == 0:
        return SummaryStats(0, n_failed, None, None, None, dict.fromkeys(PERCENTILES),
                            cdf_grid=np.empty(0), cdf_fraction=np.empty(0))
    std_err = (
        float(errors.std(ddof=1) / math.sqrt(errors.size)) if errors.size > 1 else 0.0
    )
    return SummaryStats(
        n_success=int(errors.size),
        n_failed=int(n_failed),
        mean=float(errors.mean()),
        std_err=std_err,
        median=float(np.median(errors)),
        percentiles={p: float(np.percentile(errors, p)) for p in PERCENTILES},
        cdf_grid=DEFAULT_CDF_GRID,
        cdf_fraction=(errors[None, :] <= DEFAULT_CDF_GRID[:, None]).mean(axis=1),
    )


def summarize(records) -> SummaryStats:
    """Aggregate the successful records; failures are counted separately and
    left out of the CDF, the share of successes with e_loc <= each point of
    `DEFAULT_CDF_GRID`. Raises NoSuccessfulRecordsError if no record
    succeeded."""
    stats = _summary(records)
    if stats.n_success == 0:
        raise NoSuccessfulRecordsError("no successful records")
    return stats


def summarize_by_algorithm(records) -> dict[str, SummaryStats]:
    """`summarize` per algorithm, except that an algorithm with no success is
    reported with n_success 0, its failure count and no statistics."""
    return {
        alg: _summary([r for r in records if r.algorithm == alg])
        for alg in sorted({r.algorithm for r in records})
    }


def sweep(cfg: ExperimentConfig, parameter: str, values) -> dict:
    """Re-run the experiment across noise levels or radii.

    Every value reuses the master seed, so the underlying pose stream is
    shared and the runs are pairwise comparable. Returns
    {value: {algorithm: SummaryStats}}.
    """
    if parameter not in ("noise", "radius"):
        raise InvalidConfigError(f"sweep parameter must be noise or radius, got {parameter!r}")
    values = [float(v) for v in values]
    if not values or sorted(values) != values:
        raise InvalidConfigError("sweep values must be nonempty and sorted ascending")
    out = {}
    for value in values:
        sub = dataclasses.replace(
            cfg, **({"sigma": value} if parameter == "noise" else {"radius": value})
        )
        out[value] = summarize_by_algorithm(run_monte_carlo(sub))
    return out


# --- serialization -----------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _record_row(r: ResultRecord) -> list[str]:
    tphi, ttheta, tpsi = _euler_or_nan(r.truth.rotation)
    if r.estimate is not None:
        ephi, etheta, epsi = _euler_or_nan(r.estimate.rotation)
        est_t = r.estimate.translation
    else:
        ephi = etheta = epsi = None
        est_t = (None, None, None)
    values = [
        r.sample_index, r.algorithm, r.solver_tag or "",
        "ok" if r.ok else "failed", r.error or "",
        r.e_loc, r.e_pos,
        r.truth.translation[0], r.truth.translation[1], r.truth.translation[2],
        tphi, ttheta, tpsi,
        est_t[0], est_t[1], est_t[2], ephi, etheta, epsi,
    ]
    return [_fmt(v) for v in values]


def write_results(records, stats_by_alg, out_dir, cfg: ExperimentConfig) -> dict:
    """Write records.csv, cdf.csv, and manifest.json under out_dir.

    Returns the paths written. CSV content is deterministic for a given
    records list; only the manifest carries a timestamp.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "cdf": out / "cdf.csv",
        "manifest": out / "manifest.json",
    }

    with open(paths["records"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow(_record_row(r))

    write_cdf(stats_by_alg, paths["cdf"])

    # Rejection-sampling draws per pose, once per sample.
    attempts = list({r.sample_index: r.attempts for r in records
                     if r.attempts is not None}.values())
    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
        "created_unix": time.time(),
        "pose_attempts": {
            "mean": float(np.mean(attempts)) if attempts else None,
            "max": max(attempts, default=None),
        },
        "summary": {
            alg: {
                "n_success": s.n_success,
                "n_failed": s.n_failed,
                "mean_e_loc_m": s.mean,
                "std_err_m": s.std_err,
                "percentiles_m": {str(p): v for p, v in s.percentiles.items()},
            }
            for alg, s in sorted(stats_by_alg.items())
        },
    }
    with open(paths["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def write_cdf(stats_by_alg, path) -> None:
    """Write cdf.csv: per algorithm in name order, one row per CDF point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "e_loc_m", "fraction"])
        for alg, stats in sorted(stats_by_alg.items()):
            for g, frac in zip(stats.cdf_grid, stats.cdf_fraction):
                writer.writerow([alg, _fmt(float(g)), _fmt(float(frac))])


_READ_COLUMNS = ("sample_index", "algorithm", "status", "error", "e_loc_m")


def read_records(path) -> list[ResultRecord]:
    """The records of a records.csv as far as aggregation reads them, with no
    truth. Raises InvalidConfigError naming a missing column or a bad line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _READ_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidConfigError(f"{path}: not a records file, missing {missing}")
        records = []
        for row in reader:
            ok = row["status"] == "ok"
            try:
                records.append(ResultRecord(
                    int(row["sample_index"]), row["algorithm"], None,
                    e_loc=float(row["e_loc_m"]) if ok else None,
                    error=None if ok else row["error"] or "failed"))
            except (TypeError, ValueError) as exc:
                raise InvalidConfigError(f"{path}: line {reader.line_num}: {exc}") from exc
    return records
