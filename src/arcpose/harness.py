"""Monte Carlo experiment runner, error metrics, and result serialization.

One *sample* is: draw a random pose, observe the two best-visible
luminaires (contour pixels with the noise left after averaging the
location's images, cut to arcs per the configured scenario, and their
fitted ellipses), and run every requested algorithm on the pair. A run's
records form one `Records` table, a row per sample and a column per
algorithm; failures are recorded with the error name and excluded from
statistics (but counted).

Reproducibility contract: the per-sample random generator is derived from
(seed, sample_index) only, so identical configurations produce identical
records regardless of execution order, and configurations differing only in
noise level or radius share their pose streams sample-for-sample.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidConfigError, NoCompleteCaptureError
from .frames import (
    CameraIntrinsics,
    check_rotations,
    euler_angles,
    read_numbers,
    rotations_to_quaternions,
)
from .sim import (
    ARC_MODES,
    Capture,
    Scene,
    capture_poses,
    default_intrinsics,
    default_scene,
    intrinsics_from_dict,
    luminaire_points,
    read_object,
    read_text,
    sample_poses,
    scene_from_dict,
    scene_to_dict,
)
from .solver import LuminaireInfo, pnp_solve, solve_pairs

ALGORITHMS = ("VPA", "VPCA", "OAVPA", "PNP")
CONFIG_SCHEMA_VERSION = 1

PERCENTILES = (50, 78, 86, 90, 95, 97)
DEFAULT_CDF_GRID = np.round(np.linspace(0.0, 0.5, 101), 6)

# Samples whose poses `run_monte_carlo` classifies, captures and fits
# together (a block), and samples whose poses it draws in one sampler pass
# and whose rows it hands one kernel call per algorithm (a group). Neither
# changes a record: each sample draws from its own generator and each kernel
# row is solved on its own. Blocks amortize the capture's and the fit's
# per-call work; a group takes about as many sampler rounds as its slowest
# sample takes candidates, and bounds the kernels' temporaries (about 1 KB a
# pair row, 6.7 KB a PnP row at the `tracemalloc` peak of a 1008-row call)
# whatever the run length.
POSE_BLOCK = 24
GROUP = 42 * POSE_BLOCK

RECORD_COLUMNS = (
    "sample_index", "algorithm", "solver_tag", "status", "error",
    "e_loc_m", "e_pos",
    "truth_x", "truth_y", "truth_z", "truth_phi", "truth_theta", "truth_psi",
    "est_x", "est_y", "est_z", "est_phi", "est_theta", "est_psi",
)


# --- metrics ---------------------------------------------------------------------

def e_loc_rows(truth, est) -> np.ndarray:
    """Euclidean location errors (N,) in meters of N locations (N, 3)."""
    d = np.asarray(truth, float) - np.asarray(est, float)
    # The stacked 1x3 @ 3x1 products sum as np.linalg.norm of each row does.
    return np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]


def e_pos_rows(r_true, r_est) -> np.ndarray:
    """Relative quaternion distances (N,) between N pairs of rotations
    (N, 3, 3).

    Both quaternions are canonicalized to the same hemisphere first; for unit
    quaternions the denominator is 1.
    """
    q_true = rotations_to_quaternions(r_true)
    q_est = rotations_to_quaternions(r_est)
    d = q_true - q_est
    return (np.sqrt(d[:, None, :] @ d[:, :, None])
            / np.sqrt(q_est[:, None, :] @ q_est[:, :, None]))[:, 0, 0]


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
        for name, kind in (("scene", Scene), ("intrinsics", CameraIntrinsics)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidConfigError(
                    f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name, kind in (("sigma", float), ("radius", float), ("arc_fraction", float),
                           ("samples", int), ("images_per_location", int),
                           ("contour_samples", int), ("seed", int)):
            value = getattr(self, name)
            if value is not None or name != "radius":  # None: the scene's own radii
                object.__setattr__(self, name, read_numbers(value, name, kind=kind))
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
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative int, got {self.seed}")
        try:  # a bare string would read as its letters: 'V', 'P', 'A'
            algorithms = tuple(None if isinstance(self.algorithms, str) else self.algorithms)
        except TypeError:
            raise InvalidConfigError(
                f"algorithms must be a tuple, got {self.algorithms!r}") from None
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
    kwargs = {name: value for name, value in data.items() if name != "schema_version"}
    if "scene" in data:
        kwargs["scene"] = scene_from_dict(data["scene"])
    if "intrinsics" in data:
        kwargs["intrinsics"] = intrinsics_from_dict(data["intrinsics"])
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
class Records:
    """A run's records as one read-only table, in sample, then algorithm
    order. Per sample: `truth_rotation` (S, 3, 3), `truth_translation`
    (S, 3) and pose-sampling draws `attempts` (S,). Per record of algorithm
    `algorithms[a]` on sample s, at [s, a]: `solver_tag`, `error` (class
    name, "" when ok), `e_loc`, `e_pos`, and the estimate's `rotation`
    (S, A, 3, 3) and `translation` (S, A, 3). A failed record has tag "" and
    NaN metrics and estimate."""

    algorithms: tuple[str, ...]
    truth_rotation: np.ndarray
    truth_translation: np.ndarray
    attempts: np.ndarray
    solver_tag: np.ndarray
    error: np.ndarray
    e_loc: np.ndarray
    e_pos: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def e_loc_by_algorithm(self) -> dict[str, np.ndarray]:
        """{algorithm: its `e_loc` column}, as `summarize_by_algorithm` takes."""
        return dict(zip(self.algorithms, self.e_loc.T))


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate statistics of the successful records of one algorithm;
    None for each statistic when no record succeeded. `cdf_fraction` holds
    the CDF at each point of `DEFAULT_CDF_GRID`, or nothing."""

    n_success: int
    n_failed: int
    mean: float | None
    std_err: float | None
    median: float | None
    percentiles: dict
    cdf_fraction: np.ndarray


# --- the runner ------------------------------------------------------------------

def _pnp_inputs(cap: Capture, samples, lum, rings) -> dict:
    """The `pnp_solve` inputs (all but `k`) of the given samples of a
    `capture_poses` capture: per sample, four world points and their
    pixels, taken evenly from the arcs of its two rows (two per arc). `lum`
    holds the scene index of each capture row, and `rings` the run's
    `luminaire_points` rings, from which the world points are gathered.

    The second arc's sample phase is shifted by an eighth of a turn;
    otherwise two complete circles would contribute two parallel diameters,
    which degenerate to four collinear points when the luminaire centers
    happen to be axis-aligned.
    """
    rows = (2 * np.asarray(samples, dtype=int)[:, None] + [0, 1]).ravel()
    n = cap.count[rows]
    shift = rows % 2 * (n // 8)
    at = rows[:, None], np.stack([(n // 4 + shift) % n, (3 * n // 4 + shift) % n], axis=1)
    world = rings[lum[rows][:, None], :, cap.keep[at]]
    return dict(world=world.reshape(-1, 4, 3), pixels=cap.pixels[at].reshape(-1, 4, 2))


def _error_names(rows) -> np.ndarray:
    """Each kernel row's error class name by its `CHECKS` code ("" if passed)."""
    return np.array([cls.__name__ for cls, _ in rows.CHECKS] + [""], dtype=object)[rows.failure]


def run_monte_carlo(cfg: ExperimentConfig) -> Records:
    """Run the configured experiment; one record per sample per algorithm.

    Per group of `GROUP` samples, draw the poses in one `sample_poses` call
    (each from its own generator, which later draws that sample's noise).
    Per block of `POSE_BLOCK` of them, capture and fit their pairs on the
    projections the poses were accepted on (`capture_poses`), and keep per
    algorithm the rows its kernel solves: the pair a geometric algorithm
    solves, or PNP's four contour correspondences. Then one `solve_pairs`
    or `pnp_solve` call per algorithm solves the group's rows, and every
    outcome is written into the `Records` table in place.

    Solver failures never abort the run: the record carries the error class
    name and no metrics. Pose-sampling exhaustion does propagate, since a
    visibility test no pose passes would fail every remaining sample too.
    """
    scene = cfg.effective_scene()
    # Explicit two-arc scenarios model occlusion on top of a fully visible
    # luminaire, so both chosen luminaires must project entirely into the
    # image; the truncation itself is the only loss.
    complete = cfg.scenario != "mixed"
    points = luminaire_points(scene.luminaires, cfg.contour_samples)
    rings, marks, radii = points
    centers = marks[:, :, 0]
    k = cfg.intrinsics
    # Each observation stands for the average of the location's images.
    noise_px = cfg.sigma / math.sqrt(cfg.images_per_location)

    shape = (cfg.samples, len(cfg.algorithms))
    truth_r, truth_t = np.empty((cfg.samples, 3, 3)), np.empty((cfg.samples, 3))
    attempts = np.empty(cfg.samples, dtype=int)
    tag, error = np.full((2, *shape), "", dtype=object)
    e_loc, e_pos = np.full((2, *shape), np.nan)
    rotation, translation = np.full((*shape, 3, 3), np.nan), np.full((*shape, 3), np.nan)

    for start in range(0, cfg.samples, GROUP):
        stop = min(start + GROUP, cfg.samples)
        rngs = [np.random.default_rng([cfg.seed, index]) for index in range(start, stop)]
        drawn = sample_poses(scene, rngs, k, points, complete)
        truth_r[start:stop], truth_t[start:stop], attempts[start:stop] = drawn
        # Per algorithm, per block: the sample index of each kernel row and
        # the rows' inputs as one array per argument.
        parts = [[] for _ in cfg.algorithms]
        for first in range(start, stop, POSE_BLOCK):
            at = slice(first - start, first - start + POSE_BLOCK)
            cap, lum, order = capture_poses(scene, drawn[0][at], drawn[1][at], rngs[at], k,
                                            points, cfg.scenario, noise_px, cfg.arc_fraction)
            # A lost capture fails every algorithm with its first failure in
            # capture order.
            names = _error_names(cap).reshape(-1, 2)
            error[first:first + len(names)] = np.where(names[:, :1] != "", names[:, :1],
                                                       names[:, 1:])
            ok = np.flatnonzero((names == "").all(axis=1))
            lum = lum.ravel()  # per capture row
            for slot, alg in enumerate(cfg.algorithms):
                rows = ok
                if alg == "PNP":
                    inputs = _pnp_inputs(cap, ok, lum, rings)
                else:
                    both = 2 * ok[:, None] + (np.array([0, 1]) if alg == "OAVPA" else order[ok])
                    vpca = cap.complete[both[:, 0]] & (alg != "OAVPA")
                    if alg == "VPCA":
                        error[first + ok[~vpca], slot] = NoCompleteCaptureError.__name__
                        rows, both, vpca = ok[vpca], both[vpca], vpca[vpca]
                    inputs = dict(coeffs=cap.coefficients[both], vpca=vpca, radius=radii[lum[both]],
                                  landmarks=cap.landmarks[both[:, 0]], centers=centers[lum[both]])
                parts[slot].append((first + rows, inputs))
            # The block's capture goes before the next block is captured.
            del cap

        for slot, alg in enumerate(cfg.algorithms):
            index = np.concatenate([rows for rows, _ in parts[slot]])
            args = {key: np.concatenate([inputs[key] for _, inputs in parts[slot]])
                    for key in parts[slot][0][1]}
            sol = (pnp_solve if alg == "PNP" else solve_pairs)(**args, k=k)
            # The solved rows pass the `Pose` guard and are scored at once.
            solved = sol.failure < 0
            check_rotations(sol.rotation[solved])
            error[index, slot] = _error_names(sol)
            at = index[solved], slot
            tag[at] = ("PNP" if alg == "PNP"
                       else np.where(args["vpca"][solved], "VPCA", "OAVPA"))
            rotation[at], translation[at] = sol.rotation[solved], sol.translation[solved]
            e_loc[at] = e_loc_rows(truth_t[at[0]], sol.translation[solved])
            e_pos[at] = e_pos_rows(truth_r[at[0]], sol.rotation[solved])
    return Records(cfg.algorithms, truth_r, truth_t, attempts, tag, error, e_loc, e_pos,
                   rotation, translation)


# --- aggregation -----------------------------------------------------------------

def summarize(e_loc) -> SummaryStats:
    """Aggregate one algorithm's `e_loc` column, where NaN marks a failed
    record: failures are counted separately and left out of the CDF, the
    share of successes with e_loc <= each point of `DEFAULT_CDF_GRID`. With
    no success, n_success is 0 and every statistic is None, with an empty
    CDF."""
    e_loc = np.asarray(e_loc, dtype=float)
    errors = e_loc[~np.isnan(e_loc)]
    n_failed = e_loc.size - errors.size
    if errors.size == 0:
        return SummaryStats(0, n_failed, None, None, None, dict.fromkeys(PERCENTILES),
                            cdf_fraction=np.empty(0))
    std_err = (
        float(errors.std(ddof=1) / math.sqrt(errors.size)) if errors.size > 1 else 0.0
    )
    return SummaryStats(
        n_success=int(errors.size),
        n_failed=n_failed,
        mean=float(errors.mean()),
        std_err=std_err,
        median=float(np.median(errors)),
        percentiles=dict(zip(PERCENTILES, np.percentile(errors, PERCENTILES).tolist())),
        cdf_fraction=(errors[None, :] <= DEFAULT_CDF_GRID[:, None]).mean(axis=1),
    )


def summarize_by_algorithm(e_loc_by_algorithm) -> dict[str, SummaryStats]:
    """`summarize` of each {algorithm: e_loc} column, in name order."""
    return {alg: summarize(e_loc) for alg, e_loc in sorted(e_loc_by_algorithm.items())}


def sweep_configs(cfg: ExperimentConfig, parameter: str, values) -> dict:
    """{value: config} of a sweep across noise levels or radii: `cfg` with
    its sigma or radius set to each value. Raises InvalidConfigError for a
    bad parameter, for values that are no finite numbers or not strictly
    ascending, or for the first value whose configuration fails its checks."""
    if parameter not in ("noise", "radius"):
        raise InvalidConfigError(f"sweep parameter must be noise or radius, got {parameter!r}")
    name = "sigma" if parameter == "noise" else "radius"
    values = read_numbers(values, f"{name} sweep values", (None,)).tolist()
    if not values or any(a >= b for a, b in zip(values, values[1:])):
        raise InvalidConfigError("sweep values must be nonempty and strictly ascending")
    return {value: dataclasses.replace(cfg, **{name: value}) for value in values}


def sweep(cfg: ExperimentConfig, parameter: str, values) -> dict:
    """Re-run the experiment across noise levels or radii.

    Every value reuses the master seed, so the underlying pose stream is
    shared and the runs are pairwise comparable. Every value's configuration
    is checked (`sweep_configs`) before the first run. Returns
    {value: {algorithm: SummaryStats}}.
    """
    return {value: summarize_by_algorithm(run_monte_carlo(sub).e_loc_by_algorithm())
            for value, sub in sweep_configs(cfg, parameter, values).items()}


# --- serialization -----------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # NaN formats as "nan"
        return f"{value:.12g}"
    return str(value)


# One records.csv line per record, as csv.writer writes them (no field needs
# quoting): the sample, algorithm, tag, status and error, then 14 floats
# at 12 significant digits, or empty cells where a failed record has none.
_TRUTH_CELLS = ",".join(["{:.12g}"] * 6)
_SOLVED_ROW = "{},{},{},ok,,{:.12g},{:.12g},{}," + _TRUTH_CELLS + "\r\n"
_FAILED_ROW = "{},{},{},failed,{},,,{},,,,,,\r\n"
_NO_ANGLES = (math.nan,) * 3


def _write_records(fh, records: Records) -> None:
    """The records.csv lines of `records`; the truth cells are formatted
    once per sample."""
    for s, (t, r, *row) in enumerate(zip(
            records.truth_translation.tolist(), records.truth_rotation.tolist(),
            records.solver_tag.tolist(), records.error.tolist(), records.e_loc.tolist(),
            records.e_pos.tolist(), records.translation.tolist(), records.rotation.tolist())):
        cells = _TRUTH_CELLS.format(*t, *euler_angles(r) or _NO_ANGLES)
        for alg, tag, error, loc, pos, est_t, est_r in zip(records.algorithms, *row):
            if error:
                fh.write(_FAILED_ROW.format(s, alg, tag, error, cells))
            else:
                fh.write(_SOLVED_ROW.format(s, alg, tag, loc, pos, cells, *est_t,
                                            *euler_angles(est_r) or _NO_ANGLES))


def write_results(records: Records, stats_by_alg, out_dir, cfg: ExperimentConfig) -> dict:
    """Write records.csv, cdf.csv, and manifest.json under out_dir.

    Returns the paths written. CSV content is deterministic for a given
    records table; only the manifest carries a timestamp.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out / "records.csv",
        "cdf": out / "cdf.csv",
        "manifest": out / "manifest.json",
    }

    with open(paths["records"], "w", newline="") as fh:
        csv.writer(fh).writerow(RECORD_COLUMNS)
        _write_records(fh, records)

    write_cdf(stats_by_alg, paths["cdf"])

    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
        "created_unix": time.time(),
        # Rejection-sampling draws per pose.
        "pose_attempts": {
            "mean": float(records.attempts.mean()),
            "max": int(records.attempts.max()),
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
            for g, frac in zip(DEFAULT_CDF_GRID, stats.cdf_fraction):
                writer.writerow([alg, _fmt(float(g)), _fmt(float(frac))])


_READ_COLUMNS = ("sample_index", "algorithm", "status", "error", "e_loc_m")


def read_records(path) -> dict[str, np.ndarray]:
    """The {algorithm: e_loc} of a records.csv, NaN where a record failed.
    Raises InvalidConfigError naming a file `read_text` cannot read, a
    missing column, or the line of a status other than ok or failed or of
    an ok e_loc_m that is not a finite number >= 0."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    missing = [c for c in _READ_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise InvalidConfigError(f"{path}: not a records file, missing {missing}")
    e_loc = {}
    for row in reader:
        status, cell = row["status"], row["e_loc_m"]
        try:
            int(row["sample_index"])
            value = float(cell) if status == "ok" else math.nan
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(f"{path}: line {reader.line_num}: {exc}") from exc
        if not (status == "failed" or status == "ok" and 0 <= value < math.inf):
            raise InvalidConfigError(
                f"{path}: line {reader.line_num}: status {status!r}, e_loc_m {cell!r}; "
                "a record is failed, or ok with a finite e_loc_m >= 0")
        e_loc.setdefault(row["algorithm"], []).append(value)
    return {alg: np.array(values) for alg, values in e_loc.items()}
