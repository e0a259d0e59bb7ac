"""Smoke test: every workload, traced and untraced, on a few samples.

    python3 perfbench/smoke.py

Shrinks each workload to a handful of samples or frames, runs the benchmark
command in this process with `--seconds 0`, and checks that the last line
is a result whose outputs are correct and whose metrics are exactly the
ones BENCHMARK.json names, each with its unit. Exits 1 on the first
mismatch. Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "mc_default": dict(chunk=3, accuracy_chunks=2),
    "mc_occluded": dict(chunk=3, accuracy_chunks=2),
    "mc_pnp": dict(chunk=2, accuracy_chunks=2),
    "solve_stream": dict(pool=6, block=3),
}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        print(f"FAIL workloads {names} != {sorted(workloads.WORKLOADS)}")
        return 1
    for name in names:
        workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name],
                                                        **SMALL[name])
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                               "--trace", str(trace)])
            result = json.loads(out.getvalue().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if rc != 0 or not result["correct"]:
                problems.append(f"exit {rc}, correct={result['correct']}")
            if got != expected[trace]:
                problems.append(f"metrics {sorted(set(got) ^ set(expected[trace]))} "
                                "differ from BENCHMARK.json")
            if result["attempted"] < 1 or set(result) != {"correct", "attempted",
                                                          "failed", "metrics"}:
                problems.append("malformed result")
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={trace} "
                  f"attempted={result['attempted']} {'; '.join(problems)}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
