"""Execute experiment configs: integrate, summarize, emit CSV and metadata."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .hierarchy import HierarchyState
from .integrator import Trajectory, evolve, integrate
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
        # tolist() made every value a Python float, whose repr is the cell
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


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


def _stack_key(cfg: ExperimentConfig) -> tuple:
    """Configs of one key step as one stack (``evolve`` splits it further)."""
    return (cfg.n, cfg.mode, cfg.rho21_hc, cfg.dt, cfg.sample_every)


def _units(configs, jobs: int) -> list[list[int]]:
    """Config indices in units of work, more qubits first, then more steps.

    Each group of one :func:`_stack_key` is dealt into ``min(jobs, size)``
    slices, longest member first, each to the slice with the fewest steps.
    """
    steps = [cfg.integrator_config().n_steps for cfg in configs]
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_stack_key(cfg), []).append(i)
    units = []
    for group in groups.values():
        slices: list[list[int]] = [[] for _ in range(min(jobs, len(group)))]
        loads = [0] * len(slices)
        for i in sorted(group, key=lambda i: -steps[i]):
            s = min(range(len(slices)), key=lambda s: (loads[s], len(slices[s])))
            slices[s].append(i)
            loads[s] += steps[i]
        units += [sorted(unit) for unit in slices]
    units.sort(key=lambda unit: (-configs[unit[0]].n, -sum(steps[i] for i in unit)))
    return units


def _run_unit(configs, out_dir) -> list[tuple[RunSummary | Exception, str | None]]:
    """Run one unit's members, which share a :func:`_stack_key`, as one stack.

    Each member's outputs are written as soon as it finishes.  Returns, per
    member, its summary or exception, and its positivity warning.  An
    exception carries its formatted traceback as a note, so it survives the
    trip back from a worker process.
    """
    results: list = [None] * len(configs)
    try:
        members = [_member(cfg) for cfg in configs]
        for i, outcome in evolve(members, configs[0].drive_mode(), configs[0].rho21_hc):
            if isinstance(outcome, Exception):
                results[i] = (outcome, None)
                continue
            try:
                summary = _finish(configs[i], outcome, out_dir)
                results[i] = (summary, _positivity_warning(outcome, configs[i].label))
            except Exception as exc:
                results[i] = (exc, None)
    except Exception as exc:  # the unit's unfinished members share the error
        results = [(exc, None) if result is None else result for result in results]
    noted = set()
    for result, _ in results:
        if isinstance(result, Exception) and id(result) not in noted:
            noted.add(id(result))
            result.add_note("".join(traceback.format_exception(result)))
    return results


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


def _pooled(work, out_dir, jobs: int) -> list:
    """:func:`_run_unit` of each unit of ``work`` in a pool of at most
    ``jobs`` workers.  A worker that dies breaks its pool, and every unit
    not yet finished in it gets ``BrokenProcessPool``.  Those units run once
    more, each in a fresh pool of its own, at most ``jobs`` at a time, so a
    unit that kills its worker again fails only itself and keeps the
    error.  Any other exception of a future fails only its own unit."""
    outcomes: list = [None] * len(work)

    def collect(futures: dict) -> list[int]:
        """Store the outcome of each unit's future; the units whose pool broke."""
        broken = []
        for u, future in futures.items():
            try:
                outcomes[u] = future.result()
            except Exception as exc:
                outcomes[u] = [(exc, None)] * len(work[u])
                if isinstance(exc, BrokenProcessPool):
                    broken.append(u)
        return broken

    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        broken = collect({u: pool.submit(_run_unit, members, out_dir)
                          for u, members in enumerate(work)})
    for first in range(0, len(broken), jobs):
        with contextlib.ExitStack() as stack:
            futures = {}
            for u in broken[first : first + jobs]:
                alone = stack.enter_context(ProcessPoolExecutor(max_workers=1))
                futures[u] = alone.submit(_run_unit, work[u], out_dir)
            collect(futures)
    return outcomes


def run_many(configs, out_dir=None, jobs: int = 1) -> list[RunSummary | Exception]:
    """Run a family of configs, optionally in parallel worker processes.

    Members that share a :func:`_stack_key` (n, drive mode, rho21_hc, dt and
    sample_every) are dealt into at most ``jobs`` units, balanced by their
    steps, and each unit steps as one stack.  The units, more qubits first,
    then more steps, go to whichever of at most ``jobs`` workers is free.
    Every member's files are the ones :func:`run` writes.  Returns, in config
    order, each member's summary or the exception it raised: a failing member
    does not stop the others, and a worker that dies fails only its own
    unit: every unit its pool left unfinished runs once more, each in a
    fresh pool of its own (:func:`_pooled`).  Positivity warnings are issued
    here, in config order.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be an integer of at least 1, got {jobs!r}")
    units = _units(configs, jobs)
    work = [[configs[i] for i in unit] for unit in units]
    if jobs > 1 and len(units) > 1:
        outcomes = _pooled(work, out_dir, jobs)
    else:
        outcomes = [_run_unit(members, out_dir) for members in work]
    results: list = [None] * len(configs)
    for unit, outcome in zip(units, outcomes):
        for i, result in zip(unit, outcome):
            results[i] = result
    for _, message in results:
        if message is not None:
            _report(message)
    return [result for result, _ in results]
