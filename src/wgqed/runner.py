"""Execute experiment configs: integrate, summarize, emit CSV and metadata."""

from __future__ import annotations

import json
import logging
import os
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .hierarchy import HierarchyState, RhsEvaluator
from .integrator import _TABLE_WIDTH, Trajectory, evolve, integrate
from .observables import max_concurrence, survival_time

POSITIVITY_WARN = -1e-7

# Anomalies are logged here as well as issued as RuntimeWarnings, which test
# configurations and benchmark harnesses may silence.  The NullHandler keeps
# Python's last-resort handler from printing each record beside the warning;
# applications attach their own handlers.
LOG = logging.getLogger("wgqed")
LOG.addHandler(logging.NullHandler())


@dataclass(frozen=True)
class RunSummary:
    """Scalar figures of merit of one completed trajectory."""

    label: str
    n: int
    c_max_all_pairs: float
    t_at_c_max: float
    c_max_half_n: float
    survival_all_pairs: float
    survival_half_n: float
    peak_p_one: float
    peak_p_two: float
    peak_p_excited: float
    min_p_ground: float
    max_trace_err: float
    max_herm_err: float
    min_eigenvalue: float


def summarize(traj: Trajectory, cfg: ExperimentConfig) -> RunSummary:
    c_all, t_at = max_concurrence(traj, "all-pairs")
    return RunSummary(
        label=cfg.label,
        n=traj.n_qubits,
        c_max_all_pairs=c_all,
        t_at_c_max=t_at,
        c_max_half_n=max_concurrence(traj, "half-n")[0],
        survival_all_pairs=survival_time(traj, cfg.threshold, "all-pairs"),
        survival_half_n=survival_time(traj, cfg.threshold, "half-n"),
        peak_p_one=float(traj.p_one.max()),
        peak_p_two=float(traj.p_two.max()),
        peak_p_excited=float(traj.p_excited.max()),
        min_p_ground=float(traj.p_ground.min()),
        max_trace_err=float(traj.trace_err.max()),
        max_herm_err=float(traj.herm_err.max()),
        min_eigenvalue=float(traj.min_eigenvalue.min()),
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(traj: Trajectory, path) -> None:
    """One row per sample, full double precision, comma separated, LF endings.

    ``columns`` declares the layout once, as (header, per-sample values) pairs.
    """
    columns = [("t", traj.times), ("P_G", traj.p_ground), ("P_1", traj.p_one), ("P_2", traj.p_two)]
    columns += [(f"P_e_{i + 1}", traj.p_excited[:, i]) for i in range(traj.n_qubits)]
    columns += [
        (f"C_pair_{i}_{j}", traj.pair_concurrence[:, k])
        for k, (i, j) in enumerate(traj.pair_labels)
    ]
    columns += [
        ("C_avg_allpairs", traj.c_avg_all_pairs),
        ("C_avg_halfN", traj.c_avg_half_n),
        ("pulse_intensity", traj.pulse_intensity),
        ("trace_err", traj.trace_err),
        ("herm_err", traj.herm_err),
    ]
    rows = zip(*(values.tolist() for _, values in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(name for name, _ in columns) + "\n")
        handle.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_metadata(cfg: ExperimentConfig, summary: RunSummary, path) -> None:
    payload = {
        "package": "wgqed",
        "version": __version__,
        "config": asdict(cfg),
        "summary": asdict(summary),
        "notes": list(cfg.notes),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run(cfg: ExperimentConfig, out_dir=None) -> tuple[Trajectory, RunSummary]:
    """Integrate one config; write CSV and a metadata sidecar when an output
    location is configured (explicit path wins over out_dir/label.csv)."""
    state0, params, pulse, config = _member(cfg)
    traj = integrate(state0, params, pulse, cfg.drive_mode(), config, rho21_hc=cfg.rho21_hc)
    summary = _finish(cfg, traj, out_dir)
    message = _positivity_warning(traj, cfg.label)
    if message is not None:
        _report(message)
    return traj, summary


def _member(cfg: ExperimentConfig) -> tuple:
    """``(state0, params, pulse, config)`` of one config, from the ground state."""
    state0 = HierarchyState.ground(cfg.n)
    return state0, cfg.chain_params(), cfg.gaussian_pulse(), cfg.integrator_config()


def _finish(cfg: ExperimentConfig, traj: Trajectory, out_dir) -> RunSummary:
    """Summarize a finished member and write its outputs."""
    summary = summarize(traj, cfg)
    target = cfg.path
    if target is None and out_dir is not None:
        target = os.path.join(out_dir, f"{cfg.label}.csv")
    if target is not None:
        os.makedirs(os.path.dirname(os.path.abspath(target)), exist_ok=True)
        emit_csv(traj, target)
        write_metadata(cfg, summary, f"{os.path.splitext(target)[0]}.meta.json")
    return summary


def _positivity_warning(traj: Trajectory, label: str) -> str | None:
    """The warning for a reported state that dipped below the positivity
    tolerance, naming the worst eigenvalue, its time and the member; None when
    the state stayed within it.  Positivity is monitored, never enforced."""
    worst = int(np.argmin(traj.min_eigenvalue))
    if traj.min_eigenvalue[worst] >= POSITIVITY_WARN:
        return None
    return (
        f"reported state dipped below positivity tolerance "
        f"(min eigenvalue {traj.min_eigenvalue[worst]:.3e} at t={traj.times[worst]:.6g}) "
        f"in {label}"
    )


def _report(message: str) -> None:
    """Log a positivity anomaly and issue it as a RuntimeWarning at the
    caller of the public function."""
    LOG.warning(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _run_batch(configs, out_dir) -> list[tuple[RunSummary | Exception, str | None]]:
    """Run one worker's members, each group of compatible ones as one stack.

    Each member's outputs are written as soon as it finishes.  Returns, per
    member, its summary or exception, and its positivity warning.  An
    exception carries its formatted traceback as a note, so it survives the
    trip back from a worker process.
    """
    results: list = [None] * len(configs)
    # evolve() steps each group, split by arithmetic and symmetry, as stacks
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.n, cfg.mode, cfg.rho21_hc, cfg.dt, cfg.sample_every), []).append(i)
    for indices in groups.values():
        first = configs[indices[0]]
        members = [_member(configs[i]) for i in indices]
        try:
            for j, outcome in evolve(members, first.drive_mode(), first.rho21_hc):
                i = indices[j]
                if isinstance(outcome, Exception):
                    results[i] = (outcome, None)
                    continue
                try:
                    summary = _finish(configs[i], outcome, out_dir)
                    results[i] = (summary, _positivity_warning(outcome, configs[i].label))
                except Exception as exc:
                    results[i] = (exc, None)
        except Exception as exc:  # the group's unfinished members share the error
            for i in indices:
                if results[i] is None:
                    results[i] = (exc, None)
    noted = set()
    for result, _ in results:
        if isinstance(result, Exception) and id(result) not in noted:
            noted.add(id(result))
            result.add_note("".join(traceback.format_exception(result)))
    return results


# The cost of a member in tenths of a stored real coefficient, fitted to
# one-core timings (BLAS 1 thread) of the preset members, whose tabulated
# maps have W <= 57.  A step through the four RHS stages costs a fixed part
# (as much as 2,700 real coefficients) plus each stored coefficient, a
# complex-arithmetic one at 1.6 times a real one; a step through a
# tabulated map (W <= 128 float64 entries) costs a fixed part (as much as
# 210 real coefficients) plus a tenth for each TABLE_ENTRIES of the 12 W^2
# entries its own W x W map is formed from; a sample costs SAMPLE_WEIGHT
# for each state of the sector basis.  Integers, so that members of equal
# cost tie exactly.
STEP_WEIGHT = 27_000
REAL_WEIGHT, COMPLEX_WEIGHT = 10, 16
TABLE_STEP_WEIGHT, TABLE_ENTRIES = 2_100, 13
SAMPLE_WEIGHT = 930


def _cost(cfg: ExperimentConfig) -> int:
    """A member's cost: its steps, priced by its coefficients or by its
    tabulated map, and its samples, priced by the size of its basis.  A
    member whose map would hold a non-finite entry is priced as
    tabulated."""
    system = RhsEvaluator(cfg.chain_params(), cfg.gaussian_pulse(), cfg.drive_mode(),
                          cfg.rho21_hc).system
    if system.width <= _TABLE_WIDTH:
        step = TABLE_STEP_WEIGHT + 12 * system.width**2 // TABLE_ENTRIES
    else:
        step = STEP_WEIGHT + (REAL_WEIGHT if system.real else COMPLEX_WEIGHT) * len(system.cols)
    config = cfg.integrator_config()
    samples = 1 + config.n_steps // config.sample_every
    return config.n_steps * step + samples * SAMPLE_WEIGHT * system.shape[1]


def _batches(configs, count: int) -> list[list[int]]:
    """Config indices split into ``count`` batches balanced by each member's
    :func:`_cost`; longest member first, each to the least loaded batch."""
    cost = [_cost(c) for c in configs]
    batches: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(range(len(configs)), key=lambda i: -cost[i]):
        b = min(range(count), key=lambda b: (loads[b], len(batches[b])))
        batches[b].append(i)
        loads[b] += cost[i]
    return [sorted(batch) for batch in batches]


SUMMARY_CONFIG_COLUMNS = (
    "label",
    "n",
    "gamma_r",
    "gamma_l",
    "delta",
    "spacing",
    "tbar",
    "width",
    "normalization",
    "mode",
    "dt",
    "t_end",
    "sample_every",
    "threshold",
)


def emit_summary_csv(configs, summaries, path) -> None:
    """One row per config: the echoed inputs followed by the summary metrics."""
    metric_cols = [f.name for f in fields(RunSummary)[2:]]  # all but label and n
    lines = [",".join(SUMMARY_CONFIG_COLUMNS + tuple(metric_cols))]
    for cfg, summary in zip(configs, summaries):
        row = []
        for col in SUMMARY_CONFIG_COLUMNS:
            value = getattr(cfg, col)
            if isinstance(value, tuple):
                row.append(";".join(_fmt(v) for v in value))
            elif isinstance(value, float):
                row.append(_fmt(value))
            else:
                row.append(str(value))
        row += [_fmt(getattr(summary, col)) for col in metric_cols]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def run_many(configs, out_dir=None, jobs: int = 1) -> list[RunSummary | Exception]:
    """Run a family of configs, optionally in parallel worker processes.

    The members are split into at most ``jobs`` batches, one per worker, and
    each batch steps its compatible members (same n, drive mode, rho21_hc, dt
    and sample_every) as one stack.  Every member's files are the ones
    :func:`run` writes.  Returns, in config order, each member's summary or
    the exception it raised: a failing member does not stop the others.
    Positivity warnings are issued here, in config order.
    """
    batches = _batches(configs, min(jobs, len(configs)))
    work = [[configs[i] for i in batch] for batch in batches]
    if len(batches) > 1:
        with ProcessPoolExecutor(max_workers=len(batches)) as pool:
            outcomes = list(pool.map(_run_batch, work, [out_dir] * len(batches)))
    else:
        outcomes = [_run_batch(batch, out_dir) for batch in work]
    results: list = [None] * len(configs)
    for batch, outcome in zip(batches, outcomes):
        for i, result in zip(batch, outcome):
            results[i] = result
    for _, message in results:
        if message is not None:
            _report(message)
    return [result for result, _ in results]
