"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]
                                 [--seconds S] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, which is
the distance between the quartiles as a share of the median. `--out` writes
the same summary, with every run's values, as JSON. Run from the root of the
checkout; runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    env = dict(line.split(None, 2)[1:] for line in lines if line.startswith("env "))
    result["records_sha256"] = env.get("records_sha256", "")
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], **summary(values), "values": values}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "records_sha256": {str(s): r["records_sha256"] for s, r in zip(seeds, runs)},
            "metrics": metrics,
        }
        print(f"== {workload}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            mark = "" if bound is None else f"  bound {bound:g}" + (
                "  OVER/3" if s["spread"] is not None and s["spread"] > bound / 3 else "")
            print(f"  {name:42s} {s['median']:12.4f} {s['unit']:5s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {spread}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
