"""wgqed benchmark: end-to-end metrics, or the per-layer split, of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (closed loop, one client; see README.md for why each was chosen):
``fig3``, ``fig4_n5``, ``chain7`` and ``fig5c-sweep``.  The seed only
shuffles the sweep's member order; the physics of every workload is fixed.

With ``--trace 0`` the run reports ``wall_s`` (median over repetitions of
the workload's public entry calls), ``setup_s`` (median over fresh
interpreters) and ``peak_rss_mb``.  With ``--trace 1`` it reports the
per-layer split of a traced pass and the tracing overhead.  Every member of
every pass is checked against ``reference.json``; the run prints
``failed_frac`` and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each measurement runs in a fresh child interpreter (``child.py``) with
BLAS and OpenMP pinned to one thread before numpy loads.  The script exits
non-zero, printing no result, when the package source or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median over this many fresh interpreters (the workload's own
# child is one of them).
SETUP_SAMPLES = 7
# A run, with all its children, ends well inside the three-minute limit.
RUN_DEADLINE_S = 170.0
PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """A child failed or the run exceeded its deadline."""


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run ``child.py`` in a fresh pinned interpreter and return its JSON."""
    # no bytecode cache: every child compiles wgqed, so setup_s does not
    # depend on what an earlier run left in the checkout
    env = dict(os.environ, **PINNED_THREADS, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {mode} child")
    # a session of its own, so sweep workers die with the child on timeout
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited with {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} child for {workload} printed no result") from exc


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        child = spawn("trace", workload, seed, seconds, deadline)
        metrics = child["metrics"]
    else:
        setups = [spawn("setup", workload, seed, seconds, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        child = spawn("run", workload, seed, seconds, deadline)
        setups.append(child["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(child["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    return {"workload": workload, "child": child, "metrics": metrics}


def report(result: dict) -> None:
    """Human-readable lines, then the JSON result line."""
    name, child, metrics = result["workload"], result["child"], result["metrics"]
    print("env " + json.dumps(child["env"], sort_keys=True))
    if "walls" in child:
        walls = ", ".join(f"{w:.4f}" for w in child["walls"])
        print(f"{name} passes {len(child['walls'])}: wall {walls} s")
    for metric, entry in metrics.items():
        value = entry["value"]
        shown = entry.get("reason") if value is None else f"{value:.6g}"
        print(f"{name} {metric} {shown} {entry['unit']}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"{name} failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} members)")
    for label, problems in child["problems"].items():
        print(f"{name} FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time budget for the repeated untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wgqed" / "__init__.py").is_file():
        print(f"error: no wgqed source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report(measure(name, args.seed, args.seconds, bool(args.trace)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # a child killed on timeout leaves its outputs behind
        shutil.rmtree(ROOT / ".perfbench_out", ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
