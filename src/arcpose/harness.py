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
from .errors import GimbalLockError, InvalidConfigError
from .frames import (
    CameraIntrinsics,
    Pose,
    rotation_to_euler,
    rotation_to_quaternion,
)
from .sim import (
    ARC_MODES,
    Capture,
    Scene,
    capture,
    contour_angles,
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
    pair_inputs,
    pair_rows,
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
        for i, alg in enumerate(algorithms):
            if alg not in ALGORITHMS:
                raise InvalidConfigError(
                    f"unknown algorithm {alg!r}; choose from {ALGORITHMS}"
                )
            if alg in algorithms[:i]:
                raise InvalidConfigError(f"repeated algorithm {alg!r}")
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

def _pnp_inputs(cap: Capture, samples, lums, angles) -> dict:
    """The `pnp_solve` inputs (all but `k`) of the given samples of a block
    capture: per sample, four world points and their pixels, taken evenly
    from the arcs of its two rows (two per arc). `lums` are the luminaires
    of the capture's rows and `angles` the `contour_angles` of the contour.

    The second arc's sample phase is shifted by an eighth of a turn;
    otherwise two complete circles would contribute two parallel diameters,
    which degenerate to four collinear points when the luminaire centers
    happen to be axis-aligned.
    """
    world, pixels = [], []
    for row in (r for s in samples for r in (2 * s, 2 * s + 1)):
        n = cap.count[row]
        shift = row % 2 * (n // 8)
        for idx in ((n // 4 + shift) % n, (3 * n // 4 + shift) % n):
            world.append(lums[row].circle_points(angles[cap.keep[row, idx]])[0])
            pixels.append(cap.pixels[row, idx])
    return dict(world=np.reshape(world, (-1, 4, 3)), pixels=np.reshape(pixels, (-1, 4, 2)))


def _euler_or_nan(rotation) -> tuple[float, float, float]:
    try:
        e = rotation_to_euler(rotation)
        return e.phi, e.theta, e.psi
    except GimbalLockError:
        return math.nan, math.nan, math.nan


def run_monte_carlo(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run the configured experiment; one record per sample per algorithm.

    Two phases. Per block of `POSE_BLOCK` samples, draw the poses together
    (each from its own generator, which also draws that sample's noise),
    capture and fit the block's pairs at once on the projections the poses
    were accepted on (`_capture_block`), and keep, per algorithm, the
    compact rows its kernel solves: the pair a geometric algorithm solves,
    or PNP's four contour correspondences. Then `solve_pairs` and
    `pnp_solve` take every row of the run to a pose, `SOLVE_SLICE` rows per
    call. Records come out by sample, then in `cfg.algorithms` order.

    Solver failures never abort the run: the record carries the error class
    name and no metrics. Pose-sampling exhaustion does propagate, since a
    visibility test no pose passes would fail every remaining sample too.
    """
    scene = cfg.effective_scene()
    lums = scene.luminaires
    # Explicit two-arc scenarios model occlusion on top of a fully visible
    # luminaire, so both chosen luminaires must project entirely into the
    # image; the truncation itself is the only loss.
    complete = cfg.scenario != "mixed"
    points = luminaire_points(lums, cfg.contour_samples)
    angles = contour_angles(cfg.contour_samples)
    k = cfg.intrinsics

    samples: list[list] = []  # per sample, its records in algorithm order
    # Per kernel, the (sample, slot, algorithm) of each row, and the rows'
    # inputs as one array per argument and block.
    kernels = {solve_pairs: ([], []), pnp_solve: ([], [])}
    for start in range(0, cfg.samples, POSE_BLOCK):
        indices = range(start, min(start + POSE_BLOCK, cfg.samples))
        rngs = [np.random.default_rng([cfg.seed, index]) for index in indices]
        drawn = sample_poses(scene, rngs, k, points, complete)
        cap, pair = _capture_block(cfg, drawn, rngs)
        block = [_Sample(index, sampled.pose, sampled.attempts)
                 for index, sampled in zip(indices, drawn)]
        failed = (cap.failure >= 0).reshape(-1, 2)
        for j, sample in enumerate(block):
            samples.append([None] * len(cfg.algorithms))
            if failed[j].any():  # the first failure in capture order
                exc = cap.error(2 * j + int(not failed[j, 0]))
                samples[-1][:] = [_failed(sample, alg, exc) for alg in cfg.algorithms]
        ok = np.flatnonzero(~failed.any(axis=1))
        lum = np.array([sampled.pair for sampled in drawn]).ravel()  # per capture row
        for slot, alg in enumerate(cfg.algorithms):
            if alg == "PNP":
                kernel, rows = pnp_solve, ok
                inputs = _pnp_inputs(cap, ok, [lums[i] for i in lum], angles)
            else:
                both = 2 * ok[:, None] + (np.array([0, 1]) if alg == "OAVPA" else pair[ok])
                vpca = cap.complete[both[:, 0]] & (alg != "OAVPA")
                rows = ok
                if alg == "VPCA":
                    for j in ok[~vpca]:
                        samples[block[j].index][slot] = _failed(block[j], alg, ValueError(
                            "no complete capture for the circle-and-arc solver"))
                    rows, both, vpca = ok[vpca], both[vpca], vpca[vpca]
                kernel, inputs = solve_pairs, pair_inputs(
                    cap.coefficients[both], cap.landmarks[both[:, 0]],
                    [(lums[i], lums[j]) for i, j in lum[both].tolist()], k, vpca)
            kernels[kernel][0].extend((block[j], slot, alg) for j in rows)
            kernels[kernel][1].append(inputs)
        # The block's projections go before the next block is drawn.
        del drawn, cap

    for kernel, (jobs, blocks) in kernels.items():
        batch = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]} if jobs else {}
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


def _capture_block(cfg, drawn, rngs) -> tuple[Capture, np.ndarray]:
    """Capture the pair of every sampled pose in `drawn`, each with its
    generator in `rngs`: rows 2s and 2s + 1 of the capture are sample s's
    pair. Each observation stands for the average of
    `cfg.images_per_location` images, so its pixel noise is
    sigma / sqrt(images). `mixed` captures a complete luminaire whole and
    cuts another to the image; the explicit scenarios cut each to its mode.

    Also returns the pair the dispatcher solves per sample (P, 2), as 0/1
    offsets into its two rows: `pair_rows` on the noisy contour lengths,
    preferring a complete capture."""
    rows = [sampled.visibility[i] for sampled in drawn for i in sampled.pair]
    modes = (["complete" if vis.complete else "image_bounds" for vis in rows]
             if cfg.scenario == "mixed" else list(cfg.scenario) * len(drawn))
    noise_px = cfg.sigma / math.sqrt(cfg.images_per_location)
    cap = capture(rows, modes, noise_px, cfg.intrinsics,
                  [rng for rng in rngs for _ in range(2)], cfg.arc_fraction)
    ids = [vis.luminaire_id for vis in rows]
    pair = pair_rows(cap.contour_px.reshape(-1, 2).tolist(), list(zip(ids[::2], ids[1::2])),
                     cap.complete.reshape(-1, 2).tolist(), True)
    return cap, np.array(pair).reshape(-1, 2)


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

def summarize(records) -> SummaryStats:
    """Aggregate the successful records; failures are counted separately and
    left out of the CDF, the share of successes with e_loc <= each point of
    `DEFAULT_CDF_GRID`. With no success, n_success is 0 and every statistic
    is None, with an empty CDF."""
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


def summarize_by_algorithm(records) -> dict[str, SummaryStats]:
    """`summarize` per algorithm, in name order."""
    return {
        alg: summarize([r for r in records if r.algorithm == alg])
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
    if not values or any(a >= b for a, b in zip(values, values[1:])):
        raise InvalidConfigError("sweep values must be nonempty and strictly ascending")
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
