"""Run the benchmark over several seeds and summarize it as one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --traced 3 --out perfbench/baseline_seed.json
    python3 perfbench/collect.py --workloads fig3,chain7 --seeds 1-5

For every workload it makes one untraced run per seed and ``--traced``
traced runs, and records each end-to-end metric's values, median, quartiles
and spread (quartile distance over median, as ``statistics.quantiles``
gives them), the median of each per-layer metric, and the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its JSON result and the environment it printed."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--out", help="write the summary here as well as printing it")
    args = parser.parse_args(argv)

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        start = time.monotonic()
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        report["env"] = runs[-1][1]
        traced = [bench(workload, seed, spec["run_seconds"], 1)[0]
                  for seed in args.seeds[:args.traced]]
        results = [r for r, _ in runs] + traced
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry["end_to_end"][name] = dict(
                unit=metric["unit"], **summary([r["metrics"][name]["value"] for r, _ in runs])
            )
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [t["metrics"][name]["value"] for t in traced]
            known = [v for v in values if v is not None]
            entry["per_layer"][name] = {
                "unit": metric["unit"],
                "median": statistics.median(known) if known else None,
                "values": values,
            }
        entry["collect_s"] = time.monotonic() - start
        report["workloads"][workload] = entry
        for name, item in entry["end_to_end"].items():
            print(f"{workload} {name}: median {item['median']:.6g} {item['unit']}, "
                  f"spread {item['spread']:.4f}", flush=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
