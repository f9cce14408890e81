"""One benchmark process: set-up, timed passes or a traced pass of one workload.

``run.py`` starts this script in a fresh interpreter with BLAS and OpenMP
pinned to one thread and ``PYTHONPATH`` set to the checkout's ``src``.  It
prints one JSON object as its last line of standard output.

Modes:

``setup``      time ``import wgqed``, preset expansion with overrides and one
               ``RhsEvaluator`` per member, then exit;
``run``        set up, then repeat the workload's untraced pass while the
               next repetition fits in ``--seconds``;
``trace``      set up, one untraced pass, then the per-layer split from a
               serial traced pass;
``reference``  one serial pass, printing every member's summary scalars and
               CSV sha256 (``make_reference.py`` collects these).

Every pass checks each member against ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("fig3", "fig4_n5", "chain7", "fig5c-sweep")
SWEEP = "fig5c-sweep"
SWEEP_WORKERS = 2
# chain7 runs the fig4 chain at n = 7 up to t = 10, after the pulse (mean 5,
# width 1.5) has passed, with a coarse step so one pass stays near 15 s.
CHAIN7_OVERRIDES = dict(
    n=7,
    gamma_r=(1.0,) * 7,
    gamma_l=(1.0,) * 7,
    delta=(0.0,) * 7,
    dt=0.02,
    t_end=10.0,
    sample_every=5,
    label="chain7",
)

# Absolute tolerance on the summary scalars.  It admits an integrator of equal
# accuracy and catches a dropped term.
TOLERANCE = 1e-6
POPULATION_KEYS = ("peak_p_one", "peak_p_two", "peak_p_excited", "min_p_ground")
CONCURRENCE_KEYS = ("c_max_all_pairs", "c_max_half_n")
# Sample times may move by one sampling interval where the maximum is flat;
# a survival window has two such ends.
SAMPLED_TIME_KEYS = {"t_at_c_max": 1, "survival_all_pairs": 2, "survival_half_n": 2}

POSITIVITY_WARNING = "reported state dipped below positivity tolerance"


def import_wgqed() -> None:
    import wgqed

    source = (ROOT / "src").resolve()
    if source not in Path(wgqed.__file__).resolve().parents:
        raise SystemExit(f"wgqed imported from {wgqed.__file__}, not from {source}")


def build(name: str, seed: int) -> list:
    """The workload's member configs: preset expansion plus overrides."""
    from wgqed import config, presets

    if name == "fig3":
        base, overrides = presets.expand_preset("fig3"), {}
    elif name == "fig4_n5":
        base, overrides = [c for c in presets.expand_preset("fig4") if c.label == "fig4_n5"], {}
    elif name == "chain7":
        base, overrides = presets.expand_preset("fig4")[:1], CHAIN7_OVERRIDES
    elif name == SWEEP:
        base, overrides = presets.expand_preset(SWEEP), {"dt": 0.01}
        random.Random(seed).shuffle(base)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return [config.apply_overrides(cfg, **overrides) for cfg in base]


def set_up(name: str, seed: int) -> tuple[list, float]:
    """Import, expand and build one RHS evaluator per member; returns the
    configs and the seconds it took."""
    start = time.perf_counter()
    import_wgqed()
    from wgqed import hierarchy

    configs = build(name, seed)
    for cfg in configs:
        hierarchy.RhsEvaluator(
            cfg.chain_params(), cfg.gaussian_pulse(), cfg.drive_mode(), rho21_hc=cfg.rho21_hc
        )
    return configs, time.perf_counter() - start


class Pass:
    """One run of every member of a workload, with its outputs and checks."""

    def __init__(self, name: str, configs: list, out_dir: Path, parallel: bool,
                 reference: dict) -> None:
        self.name, self.configs, self.out_dir = name, configs, out_dir
        self.workers = SWEEP_WORKERS if parallel else 1
        self.reference = reference
        self.results: dict[str, object] = {}
        self.problems: dict[str, list[str]] = {}
        self.member_s: list[float] = []
        self.positivity_warnings = 0
        self.wall = 0.0

    def execute(self) -> "Pass":
        from wgqed import runner

        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        out = str(self.out_dir)
        with warnings.catch_warnings(record=self.workers == 1) as caught:
            if self.workers > 1:
                # forked workers inherit this filter; other warnings still show
                warnings.filterwarnings("ignore", POSITIVITY_WARNING, RuntimeWarning)
            else:
                warnings.simplefilter("always")
            start = time.perf_counter()
            if self.workers > 1:
                try:
                    summaries = runner.run_many(self.configs, out_dir=out, jobs=self.workers)
                except Exception as exc:  # the sweep loses every member
                    summaries = [exc] * len(self.configs)
                self.results = {c.label: s for c, s in zip(self.configs, summaries)}
            else:
                for cfg in self.configs:
                    member_start = time.perf_counter()
                    try:
                        self.results[cfg.label] = runner.run(cfg, out_dir=out)[1]
                    except Exception as exc:
                        self.results[cfg.label] = exc
                    self.member_s.append(time.perf_counter() - member_start)
            raised = any(isinstance(r, BaseException) for r in self.results.values())
            if self.name == SWEEP and not raised:
                runner.emit_summary_csv(
                    self.configs,
                    [self.results[c.label] for c in self.configs],
                    str(self.out_dir / f"{SWEEP}_summary.csv"),
                )
            self.wall = time.perf_counter() - start
        for item in caught or ():
            if POSITIVITY_WARNING in str(item.message):
                self.positivity_warnings += 1
            else:
                warnings.showwarning(item.message, item.category, item.filename, item.lineno)
        self.problems = self.check()
        return self

    def check(self) -> dict[str, list[str]]:
        """Problems per failed member; empty when every member passes."""
        found = {}
        for cfg in self.configs:
            result = self.results.get(cfg.label)
            if isinstance(result, BaseException):
                found[cfg.label] = [f"raised {result!r}"]
            else:
                problems = check_member(cfg, result, self.out_dir, self.reference.get(cfg.label))
                if problems:
                    found[cfg.label] = problems
        if self.name == SWEEP and not (self.out_dir / f"{SWEEP}_summary.csv").is_file():
            found.setdefault("summary", []).append("sweep summary CSV not written")
        return found


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["members"]


def check_member(cfg, summary, out_dir: Path, ref: dict | None) -> list[str]:
    """Problems with one member's summary and files; empty when it passes."""
    if ref is None:
        return [f"no reference for {cfg.label}"]
    problems = []
    keys = list(POPULATION_KEYS)
    # below the tolerance the concurrence peak and its time are noise
    if ref["c_max_all_pairs"] > TOLERANCE:
        keys += CONCURRENCE_KEYS
    for key in keys:
        value = getattr(summary, key)
        if not abs(value - ref[key]) <= TOLERANCE:
            problems.append(f"{key} = {value!r}, reference {ref[key]!r}")
    if ref["c_max_all_pairs"] > TOLERANCE:
        interval = cfg.dt * cfg.sample_every
        for key, intervals in SAMPLED_TIME_KEYS.items():
            value = getattr(summary, key)
            if not abs(value - ref[key]) <= intervals * interval * (1 + 1e-9):
                problems.append(f"{key} = {value!r}, reference {ref[key]!r}")
    for suffix in (".csv", ".meta.json"):
        if not (out_dir / f"{cfg.label}{suffix}").is_file():
            problems.append(f"{cfg.label}{suffix} not written")
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError) as exc:
        blas = f"unknown ({exc!r})"
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb(workers: int) -> float:
    """High-water RSS of this process plus ``workers`` times that of its
    largest worker (an upper bound on their simultaneous sum), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * worker) / 1024.0


def tally(passes: list[Pass]) -> dict:
    """Members attempted and failed over ``passes``, with the problems found."""
    problems: dict[str, list[str]] = {}
    failed = 0
    for p in passes:
        failed += min(len(p.problems), len(p.configs))
        for label, items in p.problems.items():
            problems.setdefault(label, []).extend(items)
    return {
        "attempted": sum(len(p.configs) for p in passes),
        "failed": failed,
        "problems": problems,
    }


def mode_run(name, configs, setup_s, seconds, out_root) -> dict:
    parallel = name == SWEEP
    reference = load_reference()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(name, configs, out_root / "run", parallel, reference).execute())
        used = time.perf_counter() - start
        if used + max(p.wall for p in passes) > seconds:
            break
    return {
        "setup_s": setup_s,
        "walls": [p.wall for p in passes],
        "peak_rss_mb": peak_rss_mb(SWEEP_WORKERS if parallel else 1),
        **tally(passes),
    }


def mode_trace(name, configs, setup_tracer, out_root) -> dict:
    parallel = name == SWEEP
    reference = load_reference()
    cpu = cpu_seconds()
    main = Pass(name, configs, out_root / "main", parallel, reference).execute()
    cpu = cpu_seconds() - cpu
    identical = sum(
        1
        for cfg in configs
        if (main.out_dir / f"{cfg.label}.csv").is_file()
        and sha256(main.out_dir / f"{cfg.label}.csv")
        == reference.get(cfg.label, {}).get("csv_sha256")
    )
    csv_bytes = sum(path.stat().st_size for path in main.out_dir.glob("*.csv"))

    serial = main
    if parallel:
        serial = Pass(name, configs, out_root / "serial", False, reference).execute()
    layer = tracer.Tracer()
    layer.install()
    try:
        traced = Pass(name, configs, out_root / "traced", False, reference).execute()
    finally:
        layer.uninstall()

    metric = tracer.metric
    metrics = tracer.expand_metric(setup_tracer)
    metrics.update(tracer.layer_metrics(layer, traced.wall))
    metrics.update({
        "integrator.positivity_warnings": metric(traced.positivity_warnings, "count"),
        "runner.csv_bytes": metric(csv_bytes, "bytes"),
        "runner.csv_identical": metric(identical, "count"),
        "runner.member_s_p50": metric(statistics.median(serial.member_s), "s"),
        "runner.member_s_max": metric(max(serial.member_s), "s"),
        # serial member time over the worker time the untraced pass had
        "runner.parallel_eff": metric(sum(serial.member_s) / (main.workers * main.wall), "ratio"),
        "process.cpu_s": metric(cpu, "s"),
        "trace.overhead_frac": metric(traced.wall / serial.wall - 1.0, "ratio"),
    })
    passes = [main, traced] if serial is main else [main, serial, traced]
    return {"untraced_wall_s": main.wall, "metrics": metrics, **tally(passes)}


def mode_reference(name, configs, out_root) -> dict:
    p = Pass(name, configs, out_root / "reference", False, {}).execute()
    members = {}
    for cfg in configs:
        summary = p.results[cfg.label]
        if isinstance(summary, BaseException):
            raise SystemExit(f"{cfg.label} raised {summary!r}")
        members[cfg.label] = dict(
            asdict(summary), csv_sha256=sha256(p.out_dir / f"{cfg.label}.csv")
        )
    return {"members": members}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace", "reference"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    if args.workload != SWEEP:
        # Single-threaded passes stay on one core.  Left free, successive runs
        # land on whichever core is idle, and the cores of a shared host can
        # run at different speeds.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_tracer = tracer.Tracer()
    if args.mode == "trace":
        # config.* spans need the package loaded before hooking
        import_wgqed()
        setup_tracer.install()
    try:
        configs, setup_s = set_up(args.workload, args.seed)
    finally:
        setup_tracer.uninstall()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_root = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.mode == "run":
            result = mode_run(args.workload, configs, setup_s, args.seconds, out_root)
        elif args.mode == "trace":
            result = mode_trace(args.workload, configs, setup_tracer, out_root)
        else:
            result = mode_reference(args.workload, configs, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
