"""Monte Carlo experiment runner, error metrics, and result serialization.

One *sample* is: draw a random pose, capture the two best-visible luminaires
as bursts of noisy images, truncate arcs per the configured scenario, average
each burst into an observation, and run every requested algorithm on the
pair. Records carry the per-sample errors; failures are recorded with the
error name and excluded from statistics (but counted).

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
    NoiseModel,
    Scene,
    VisibilityConstraint,
    average_observations,
    default_intrinsics,
    default_scene,
    intrinsics_from_dict,
    luminaire_points,
    project_luminaire_burst,
    sample_poses,
    scene_from_dict,
    scene_to_dict,
    truncate_arc,
)
from .solver import (
    LuminaireInfo,
    Observation,
    pair_inputs,
    pair_observations,
    pnp_baseline,
    solve_pairs,
)

ALGORITHMS = ("VPA", "VPCA", "OAVPA", "PNP")
SCENARIO_MODES = ("complete", "semicircle", "superior_arc", "image_bounds")
CONFIG_SCHEMA_VERSION = 1

PERCENTILES = (50, 78, 86, 90, 95, 97)
DEFAULT_CDF_GRID = np.round(np.linspace(0.0, 0.5, 101), 6)

# Samples whose poses `run_monte_carlo` draws together, and pair rows it
# hands one `solve_pairs` call. Neither changes a record: each sample draws
# from its own generator and each kernel row is solved on its own. Blocks
# amortize the rejection sampler's per-round work; slices bound the kernel's
# temporaries (about 1 KB a row) whatever the run length.
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
        scenario = tuple(scenario.split("+"))
    scenario = tuple(scenario)
    if len(scenario) != 2 or any(m not in SCENARIO_MODES for m in scenario):
        raise InvalidConfigError(
            f"scenario must be 'mixed' or two of {SCENARIO_MODES}, got {scenario!r}"
        )
    return scenario


_CONFIG_FIELDS = {
    "schema_version", "scene", "intrinsics", "sigma", "radius", "scenario",
    "samples", "images_per_location", "contour_samples", "arc_fraction",
    "algorithms", "seed",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a configuration mapping, rejecting unknown fields by name."""
    if not isinstance(data, dict):
        raise InvalidConfigError("config must be a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise InvalidConfigError(f"unknown config fields: {sorted(unknown)}")
    version = data.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise InvalidConfigError(f"unsupported config schema_version {version!r}")
    kwargs = {}
    if "scene" in data:
        kwargs["scene"] = scene_from_dict(data["scene"])
    if "intrinsics" in data:
        kwargs["intrinsics"] = intrinsics_from_dict(data["intrinsics"])
    for name in ("sigma", "radius", "arc_fraction"):
        if name in data:
            kwargs[name] = None if data[name] is None else float(data[name])
    for name in ("samples", "images_per_location", "contour_samples", "seed"):
        if name in data:
            kwargs[name] = int(data[name])
    if "scenario" in data:
        kwargs["scenario"] = data["scenario"]
    if "algorithms" in data:
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
    """Outcome of one algorithm on one sample."""

    sample_index: int
    algorithm: str
    truth: Pose
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
    """Aggregate statistics of the successful records of one algorithm."""

    n_success: int
    n_failed: int
    mean: float
    std_err: float
    median: float
    percentiles: dict
    cdf_grid: np.ndarray
    cdf_fraction: np.ndarray


# --- the runner ------------------------------------------------------------------

def _constraint_for(cfg: ExperimentConfig) -> VisibilityConstraint:
    if cfg.scenario == "mixed":
        return VisibilityConstraint(
            intrinsics=cfg.intrinsics,
            min_visible=2,
            min_fraction=0.5,
            contour_samples=cfg.contour_samples,
        )
    # Explicit two-arc scenarios model occlusion on top of a fully visible
    # luminaire, so both chosen luminaires must project entirely into the
    # image; the truncation itself is the only loss.
    return VisibilityConstraint(
        intrinsics=cfg.intrinsics,
        min_visible=2,
        min_fraction=1.0,
        require_complete=2,
        contour_samples=cfg.contour_samples,
    )


def _pnp_correspondences(observations, lum_map) -> list[tuple]:
    """Four world/pixel pairs taken evenly from the two arcs (two per arc).

    The second arc's sample phase is shifted by an eighth of a turn;
    otherwise two complete circles would contribute two parallel diameters,
    which degenerate to four collinear points when the luminaire centers
    happen to be axis-aligned.
    """
    pairs = []
    for j, obs in enumerate(observations[:2]):
        lum = lum_map[obs.luminaire_id]
        n = obs.arc_length
        shift = j * (n // 8)
        for idx in ((n // 4 + shift) % n, (3 * n // 4 + shift) % n):
            world = lum.circle_points(obs.contour_angles[idx])[0]
            pairs.append((world, obs.contour_pixels[idx]))
    return pairs


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
    was accepted on, and keep, per geometric algorithm, the compact
    `pair_inputs` row of the pair it solves (PNP solves there, from the
    contour points). Then `solve_pairs` takes every row of the run from
    ellipse coefficients to pose, `SOLVE_SLICE` rows per call. Records come
    out by sample, then in `cfg.algorithms` order.

    Solver failures never abort the run: the record carries the error class
    name and no metrics. Pose-sampling exhaustion does propagate, since a
    constraint no pose can satisfy would fail every remaining sample too.
    """
    scene = cfg.effective_scene()
    lum_map = scene.luminaire_map()
    constraint = _constraint_for(cfg)
    noise = NoiseModel(sigma=cfg.sigma)
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    k = cfg.intrinsics

    samples: list[list] = []  # per sample, its records in algorithm order
    jobs = []  # (sample, slot, algorithm) of each batch row
    batch = {}  # the jobs' pair_inputs rows, one array per input
    for start in range(0, cfg.samples, POSE_BLOCK):
        indices = range(start, min(start + POSE_BLOCK, cfg.samples))
        rngs = [np.random.default_rng([cfg.seed, index]) for index in indices]
        drawn = sample_poses(scene, rngs, constraint, points)
        for index, rng, sampled in zip(indices, rngs, drawn):
            sample = _Sample(index, sampled.pose, sampled.attempts)
            records = [None] * len(cfg.algorithms)
            samples.append(records)
            try:
                obs = _capture_sample(cfg, sampled.visibility, noise, rng)
            except (ArcPoseError, ValueError) as exc:
                records[:] = [_failed(sample, alg, exc) for alg in cfg.algorithms]
                continue
            pair = pair_observations(obs)
            for slot, alg in enumerate(cfg.algorithms):
                first, second = (0, 1) if alg == "OAVPA" else pair
                vpca = alg != "OAVPA" and obs[first].complete
                if alg == "PNP":
                    records[slot] = _solve_pnp(sample, obs, lum_map, k)
                elif alg == "VPCA" and not vpca:
                    records[slot] = _failed(sample, alg, ValueError(
                        "no complete capture for the circle-and-arc solver"))
                else:
                    row = pair_inputs(obs[first], obs[second], lum_map, k, vpca)
                    for key, value in row.items():
                        if key not in batch:
                            shape = (cfg.samples * len(cfg.algorithms),) + value.shape[1:]
                            batch[key] = np.empty(shape, value.dtype)
                        batch[key][len(jobs)] = value[0]
                    jobs.append((sample, slot, alg))
        # The block's projections go before the next block is drawn.
        del drawn, sampled

    for first in range(0, len(jobs), SOLVE_SLICE):
        rows = slice(first, min(first + SOLVE_SLICE, len(jobs)))
        sol = solve_pairs(**{key: v[rows] for key, v in batch.items()}, f=k.f)
        for j, (sample, slot, alg) in enumerate(jobs[rows]):
            error = sol.error(j)
            tag = "VPCA" if batch["vpca"][first + j] else "OAVPA"
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


def _capture_sample(cfg, visibility, noise, rng) -> list[Observation]:
    """Project, truncate, and average the two best-visible luminaires, given
    every luminaire's `Visibility` at the sample's pose."""
    k = cfg.intrinsics
    # Longest extractable contour first: the nearest luminaire carries the
    # most information. `mixed` pairs the best complete luminaire with the
    # best other one, as the dispatcher does; the explicit scenarios take the
    # best two.
    mixed = cfg.scenario == "mixed"
    chosen = [visibility[i] for i in pair_observations(visibility, mixed)]
    modes = (["complete" if v.complete else "image_bounds" for v in chosen] if mixed
             else list(cfg.scenario))

    observations = []
    for vis, mode in zip(chosen, modes):
        start = (
            int(rng.integers(cfg.contour_samples))
            if mode in ("semicircle", "superior_arc")
            else None
        )
        burst = project_luminaire_burst(vis, noise, cfg.images_per_location, rng)
        if mode != "complete":
            burst = truncate_arc(
                burst, mode, start_index=start,
                arc_fraction=cfg.arc_fraction, intrinsics=k,
            )
        observations.append(average_observations(burst, k))
    return observations


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


def _solve_pnp(sample: _Sample, observations, lum_map, k) -> ResultRecord:
    try:
        estimate = pnp_baseline(_pnp_correspondences(observations, lum_map), k)
    except (ArcPoseError, ValueError, np.linalg.LinAlgError) as exc:
        return _failed(sample, "PNP", exc)
    return _solved(sample, "PNP", estimate.algorithm, estimate.pose)


# --- aggregation -----------------------------------------------------------------

def cdf(records, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of e_loc over the successful records.

    Returns (grid, fraction of successes with e_loc <= grid point). Failures
    are excluded from the denominator.
    """
    grid = DEFAULT_CDF_GRID if grid is None else np.asarray(grid, float)
    errors = np.array([r.e_loc for r in records if r.ok])
    if errors.size == 0:
        raise NoSuccessfulRecordsError("no successful records")
    fraction = (errors[None, :] <= grid[:, None]).mean(axis=1)
    return grid, fraction


def summarize(records, grid=None) -> SummaryStats:
    """Aggregate the successful records; failures are counted separately."""
    errors = np.array([r.e_loc for r in records if r.ok])
    n_failed = sum(1 for r in records if not r.ok)
    if errors.size == 0:
        raise NoSuccessfulRecordsError("no successful records")
    grid, fraction = cdf(records, grid)
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
        cdf_grid=grid,
        cdf_fraction=fraction,
    )


def summarize_by_algorithm(records, grid=None) -> dict[str, SummaryStats]:
    out = {}
    for alg in sorted({r.algorithm for r in records}):
        out[alg] = summarize([r for r in records if r.algorithm == alg], grid)
    return out


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

    with open(paths["cdf"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "e_loc_m", "fraction"])
        for alg, stats in sorted(stats_by_alg.items()):
            for g, frac in zip(stats.cdf_grid, stats.cdf_fraction):
                writer.writerow([alg, _fmt(float(g)), _fmt(float(frac))])

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
