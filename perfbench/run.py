"""The arcpose benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/arcpose` of that checkout and nothing else. `--trace 0` prints every
end-to-end metric, `--trace 1` runs the traced measurement and prints every
per-layer metric. Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: `attempted` counts samples (or frames) and `failed` those whose
output fails a check. A solver rejection that arcpose records instead of a
pose is a correct output; it is printed as `fail_rate`. Outputs go under
`.bench_build/perfbench/` in the checkout. The command exits 1 when an
output check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hostspeed
from checks import fixture_solve
from layers import METRICS
from layers import per_layer as layer_metrics
from tracer import Tracer
from workloads import WORKLOADS

# Environment the measurement runs under; `__main__` re-executes the process
# with it when it is not already set (NumPy reads the BLAS variables once, at
# import). One caller and no extra threads: BLAS gets one thread unless the
# caller chose otherwise. With random string hashing, dict and set layouts
# differ per process, and one seed's throughput differed by up to 12% between
# processes, so the hash seed is fixed.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_ENV = {"PYTHONHASHSEED": "0", **{var: "1" for var in BLAS_THREAD_VARS}}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("solve_us_p50", "us"),
    ("solve_us_p99", "us"),
    ("e_loc_p90_cm", "cm"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkUnavailable(Exception):
    """The checkout does not hold a program this benchmark can run."""


def load_env(workload: str, seed: int) -> SimpleNamespace:
    package = SRC / "arcpose"
    if not (package / "__init__.py").is_file():
        raise BenchmarkUnavailable(f"no arcpose package under {SRC}")
    sys.path.insert(0, str(SRC))
    arcpose = importlib.import_module("arcpose")
    if Path(arcpose.__file__).resolve().parent != package.resolve():
        raise BenchmarkUnavailable(f"arcpose imported from {arcpose.__file__}, not {package}")
    mods = {name: importlib.import_module(f"arcpose.{name}")
            for name in ("cli", "solver", "sim", "frames", "harness", "errors")}
    out = ROOT / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    data = package / "data"
    defaults = data / "defaults.json"
    config = mods["harness"].config_from_dict(json.loads(defaults.read_text()))
    return SimpleNamespace(
        **mods, ArcPoseError=mods["errors"].ArcPoseError, data=data,
        defaults=defaults, out=out,
        luminaires=config.effective_scene().luminaire_map(),
    )


def setup_probe(args) -> None:
    """Child side of a set-up measurement: import, warm up, report the time."""
    env = load_env(args.workload, args.seed)
    try:
        WORKLOADS[args.workload].warm_up(env, args.seed)
        ready = time.monotonic()
        calibration = statistics.median(hostspeed.measure() for _ in range(3))
        print(repr(ready), repr(calibration))
    finally:
        shutil.rmtree(env.out, ignore_errors=True)


def measure_setup(args) -> list[tuple[float, float]]:
    """Seconds from process start to the first timed operation, once per
    fresh interpreter, started one at a time; each with the calibration time
    the interpreter measured right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        ready, calibration = (float(v) for v in done.stdout.split()[-2:])
        times.append((ready - start, calibration))
    return times


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, float), q))


def scales(units) -> list[float]:
    """Per-unit factor to the reference host speed, from the calibration
    slices around each unit."""
    return [hostspeed.scale(c) for c in hostspeed.smoothed([c for *_, c in units])]


def end_to_end(m, setup) -> tuple[dict, dict]:
    """Scaled metrics and, for the report, the same figures unscaled."""
    factors = scales(m.units)
    rate = [n / s / f for (s, n, _), f in zip(m.units, factors)]
    raw_rate = [n / s for s, n, _ in m.units]
    if m.latencies:
        # A frame's latency is the median of its repeated solves, so that a
        # host hiccup during one solve does not set the tail.
        per_frame, raw_frame = defaultdict(list), defaultdict(list)
        for times, f in zip(m.latencies, factors):
            for frame, t in times:
                per_frame[frame].append(t * f * 1e6)
                raw_frame[frame].append(t * 1e6)
        per_op = [statistics.median(v) for v in per_frame.values()]
        raw_op = [statistics.median(v) for v in raw_frame.values()]
    else:
        per_op = [s / n * f * 1e6 for (s, n, _), f in zip(m.units, factors)]
        raw_op = [s / n * 1e6 for s, n, _ in m.units]
    scaled = {
        "setup_s": statistics.median(t * hostspeed.scale(c) for t, c in setup),
        "samples_per_s": statistics.median(rate),
        "solve_us_p50": percentile(per_op, 50),
        "solve_us_p99": percentile(per_op, 99),
        "e_loc_p90_cm": 100.0 * percentile(m.errors_m, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = dict(scaled, setup_s=statistics.median(t for t, _ in setup),
               samples_per_s=statistics.median(raw_rate),
               solve_us_p50=percentile(raw_op, 50), solve_us_p99=percentile(raw_op, 99))
    return scaled, raw


def layer_values(m, tracer) -> dict:
    def rate(units):
        return statistics.median(n / s / f for (s, n, _), f in zip(units, scales(units)))

    overhead = 100.0 * (rate(m.units) / rate(m.traced_units) - 1.0)
    scale = statistics.median(scales(m.traced_units))
    samples = sum(n for _, n, _ in m.traced_units)
    return layer_metrics(tracer, scale, samples, len(m.traced_units),
                  m.bytes_per_record, overhead)


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var, "") for var in ("PYTHONHASHSEED", *BLAS_THREAD_VARS)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        env = load_env(args.workload, args.seed)
    except BenchmarkUnavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        setup = None if args.trace else measure_setup(args)
        workload.warm_up(env, args.seed)
        tracer = Tracer() if args.trace else None
        m = workload.measure(env, args.seed, args.seconds, tracer)
        ok, detail = fixture_solve(env)
        m.checks["fixture_pose"] = (ok, detail)
        if tracer is not None:
            tracer.write(env.out.parent / f"spans-{args.workload}-{args.seed}.csv")
    finally:
        shutil.rmtree(env.out, ignore_errors=True)

    info = environment(args)
    info["records_sha256"] = m.records_sha256
    info["calibration_ms"] = round(1e3 * statistics.median(c for *_, c in m.units), 4)
    for key, value in info.items():
        print(f"env  {key:24s} {value}")
    for name, (passed, text) in m.checks.items():
        print(f"check {name:23s} {'PASS' if passed else 'FAIL'}  {text}")
    rejected = sum(m.rejected.values())
    classes = ", ".join(f"{name} {n}" for name, n in sorted(m.rejected.items()))
    print(f"     {'fail_rate':24s} {rejected / m.attempted:.6g}  ({rejected} of "
          f"{m.attempted} rejected by the solver{': ' + classes if classes else ''})")

    if args.trace:
        values = layer_values(m, tracer)
        units = dict(METRICS)
        if tracer.missing:
            print(f"note  names not found, counted as zero calls: {', '.join(tracer.missing)}")
        for name, value in values.items():
            print(f"layer {name:40s} {value:14.4f} {units[name]}")
    else:
        scaled, raw = end_to_end(m, setup)
        units = dict(END_TO_END)
        for name, _ in END_TO_END:
            print(f"e2e  {name:24s} {scaled[name]:14.4f} {units[name]:5s}"
                  f" (unscaled {raw[name]:.4f})")
        values = scaled

    correct = all(passed for passed, _ in m.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    env = {**RUN_ENV, **os.environ, "PYTHONHASHSEED": "0"}
    if any(os.environ.get(key) != value for key, value in env.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
