"""Execute experiment configs: integrate, summarize, emit CSV and metadata."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

from . import __version__
from .config import ExperimentConfig
from .hierarchy import HierarchyState
from .integrator import Trajectory, integrate
from .observables import max_concurrence, survival_time


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
    traj = integrate(
        HierarchyState.ground(cfg.n),
        cfg.chain_params(),
        cfg.gaussian_pulse(),
        cfg.drive_mode(),
        cfg.integrator_config(),
        rho21_hc=cfg.rho21_hc,
    )
    summary = summarize(traj, cfg)
    target = cfg.path
    if target is None and out_dir is not None:
        target = os.path.join(out_dir, f"{cfg.label}.csv")
    if target is not None:
        os.makedirs(os.path.dirname(os.path.abspath(target)), exist_ok=True)
        emit_csv(traj, target)
        write_metadata(cfg, summary, f"{os.path.splitext(target)[0]}.meta.json")
    return traj, summary


def _run_or_error(cfg: ExperimentConfig, out_dir) -> RunSummary | Exception:
    try:
        return run(cfg, out_dir)[1]
    except Exception as exc:
        return exc


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

    Returns, in config order, each member's summary or the exception it
    raised: a failing member does not stop the others.
    """
    if jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            return list(pool.map(_run_or_error, configs, [out_dir] * len(configs)))
    return [_run_or_error(cfg, out_dir) for cfg in configs]
