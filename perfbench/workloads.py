"""The four workloads: three Monte Carlo runs through `arcpose run` and a
closed-loop stream of one-frame solves.

Every workload runs in one process with one caller. A run measures for at
least `seconds`; the Monte Carlo workloads also finish at least
`accuracy_chunks` chunks and the stream at least one pass over its frames,
so that the accuracy figures cover a fixed set of inputs at a given seed.
After each measured chunk (or block of frames) one host-speed calibration
slice is timed; see hostspeed.py.

In a traced run, measured chunks alternate untraced and traced. The traced
ones feed the per-layer table; comparing the two kinds gives the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import streamgen
from layers import PATCHES

# Chunk seeds: seed * SEED_STRIDE + chunk index; the last slot warms up.
SEED_STRIDE = 10_000


@dataclass
class Measurement:
    """What one run measured, before it is turned into metrics."""

    units: list = field(default_factory=list)        # (seconds, units, calibration_s)
    traced_units: list = field(default_factory=list)
    latencies: list = field(default_factory=list)    # per untraced block: (frame, seconds)
    attempted: int = 0
    failed: int = 0                                  # outputs that fail a check
    rejected: Counter = field(default_factory=Counter)  # error class -> count
    errors_m: list = field(default_factory=list)     # e_loc of the fixed input set
    checks: dict = field(default_factory=dict)       # name -> (ok, detail)
    records_sha256: str = ""
    bytes_per_record: float = 0.0


@dataclass(frozen=True)
class MonteCarlo:
    """`cli.main(["run", ...])` in chunks of `chunk` samples, each chunk with
    its own seed; the output goes to a directory inside the checkout."""

    flags: tuple
    chunk: int
    accuracy_chunks: int

    def _argv(self, env, seed, index, out, samples=None):
        return ["run", "--config", str(env.defaults), "--out", str(out),
                "--seed", str(seed * SEED_STRIDE + index),
                "--samples", str(samples or self.chunk), *self.flags]

    def _main(self, env, argv, tracer=None):
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return env.cli.main(argv)
            return tracer.call("cli.main", env.cli.main, argv)

    def warm_up(self, env, seed):
        argv = self._argv(env, seed, SEED_STRIDE - 1, env.out / "warmup", samples=2)
        if self._main(env, argv) != 0:
            raise RuntimeError("warm-up run failed")

    def measure(self, env, seed, seconds, tracer=None) -> Measurement:
        m = Measurement()
        out = env.out / "chunk"
        records = out / "records.csv"
        total_bytes = 0
        nonfinite = 0
        index = 0
        start = time.monotonic()
        while index < self.accuracy_chunks or time.monotonic() - start < seconds:
            traced = tracer is not None and index % 2 == 1
            argv = self._argv(env, seed, index, out)
            if traced:
                tracer.install(PATCHES)
            t0 = time.perf_counter()
            try:
                rc = self._main(env, argv, tracer if traced else None)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            calibration = hostspeed.measure()
            if rc != 0:
                raise RuntimeError(f"arcpose run exited {rc} on chunk {index}")
            (m.traced_units if traced else m.units).append(
                (elapsed, self.chunk, calibration))

            data = records.read_bytes()
            total_bytes += len(data)
            if index == 0:
                first = data
                m.records_sha256 = hashlib.sha256(data).hexdigest()
            for row in csv.DictReader(io.StringIO(data.decode())):
                m.attempted += 1
                if row["status"] != "ok":
                    m.rejected[row["error"]] += 1
                    continue
                e_loc, e_pos = float(row["e_loc_m"]), float(row["e_pos"])
                if not (math.isfinite(e_loc) and math.isfinite(e_pos)):
                    nonfinite += 1
                if index < self.accuracy_chunks:
                    m.errors_m.append(e_loc)
            index += 1

        m.bytes_per_record = total_bytes / max(m.attempted, 1)
        m.failed = nonfinite
        m.checks["finite_errors"] = (nonfinite == 0, f"{nonfinite} ok records "
                                     "with non-finite e_loc/e_pos")
        # Same seed, same chunk, fresh directory: records must not differ.
        again = env.out / "recheck"
        self._main(env, self._argv(env, seed, 0, again))
        same = (again / "records.csv").read_bytes() == first
        m.checks["deterministic_records"] = (same, "chunk 0 re-run at the same seed")
        return m


@dataclass(frozen=True)
class Stream:
    """A camera pipeline that waits for each pose: parse one observation-file
    mapping with `cli.observations_from_dict`, then `solver.solve_vpa`.

    Frames are made from the seed before timing starts and are cycled.
    """

    pool: int
    block: int

    def warm_up(self, env, seed):
        raw = json.loads((env.data / "fixture_observations.json").read_text())
        observations, k = env.cli.observations_from_dict(raw)
        env.solver.solve_vpa(observations, env.luminaires, k)

    def _solve(self, env, data):
        """The pose, or the name of the error class the solver rejected the
        frame with (the classes `arcpose run` records instead of a pose)."""
        try:
            observations, k = env.cli.observations_from_dict(data)
            return env.solver.solve_vpa(observations, env.luminaires, k)
        except (env.ArcPoseError, ValueError, np.linalg.LinAlgError) as exc:
            return type(exc).__name__

    def _row(self, env, index, estimate):
        if isinstance(estimate, str):
            return f"{index},{estimate}"
        e = env.frames.rotation_to_euler(estimate.pose.rotation)
        values = [*estimate.pose.translation, e.phi, e.theta, e.psi]
        return f"{index},ok," + ",".join(f"{float(v):.12g}" for v in values)

    def measure(self, env, seed, seconds, tracer=None) -> Measurement:
        m = Measurement()
        settings = streamgen.protocol(json.loads(env.defaults.read_text()))
        frames = streamgen.make_frames(settings, seed, self.pool)
        intrinsics = settings["intrinsics"]
        rows = []
        nonfinite = 0
        index = 0
        block = 0
        start = time.monotonic()
        while index < self.pool or time.monotonic() - start < seconds:
            traced = tracer is not None and block % 2 == 1
            if traced:
                tracer.install(PATCHES)
            times = []
            try:
                for _ in range(self.block):
                    frame = frames[index % self.pool]
                    data = streamgen.frame_dict(frame, intrinsics)
                    if traced:
                        tracer.new_trace()
                    t0 = time.perf_counter()
                    estimate = self._solve(env, data)
                    times.append((index % self.pool, time.perf_counter() - t0))
                    m.attempted += 1
                    if isinstance(estimate, str):
                        m.rejected[estimate] += 1
                    else:
                        err = float(np.linalg.norm(
                            estimate.pose.translation - frame.translation))
                        nonfinite += not math.isfinite(err)
                        if index < self.pool:
                            m.errors_m.append(err)
                    if index < self.pool:
                        rows.append(self._row(env, index, estimate))
                    index += 1
            finally:
                if traced:
                    tracer.uninstall()
            calibration = hostspeed.measure()
            (m.traced_units if traced else m.units).append(
                (sum(t for _, t in times), len(times), calibration))
            if not traced:
                m.latencies.append(times)
            block += 1

        table = "\n".join(rows) + "\n"
        m.records_sha256 = hashlib.sha256(table.encode()).hexdigest()
        m.failed = nonfinite
        m.checks["finite_errors"] = (nonfinite == 0, f"{nonfinite} frames with "
                                     "non-finite location error")
        repeat = [self._row(env, i, self._solve(env, streamgen.frame_dict(
            frames[i], intrinsics))) for i in range(min(50, self.pool))]
        m.checks["deterministic_records"] = (
            repeat == rows[:len(repeat)], "first frames solved again")
        return m


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mc_default": MonteCarlo(flags=(), chunk=100, accuracy_chunks=20),
    "mc_occluded": MonteCarlo(flags=("--arc-mode", "superior_arc+superior_arc"),
                              chunk=80, accuracy_chunks=25),
    "mc_pnp": MonteCarlo(flags=("--algorithms", "PNP"), chunk=30, accuracy_chunks=34),
    "solve_stream": Stream(pool=2000, block=200),
}
