"""Command-line interface: run a config file or sweep a preset family."""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .integrator import IntegrationError
from .presets import expand_preset, list_presets
from .runner import RunSummary, emit_summary_csv, run, run_many


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dt", type=float, help="integrator step size")
    parser.add_argument("--t-end", type=float, dest="t_end", help="final time")
    parser.add_argument("--theta", type=float, help="survival-time threshold")
    parser.add_argument(
        "--pulse-norm", choices=("verbatim", "unit-l2"), dest="pulse_norm",
        help="pulse envelope normalization",
    )
    parser.add_argument(
        "--drive", choices=("none", "one-photon", "two-photon"),
        help="photon number of the input wavepacket",
    )


def _overridden(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    return apply_overrides(
        cfg,
        dt=args.dt,
        t_end=args.t_end,
        threshold=args.theta,
        normalization=args.pulse_norm,
        mode=args.drive,
    )


def _print_summary(summary: RunSummary) -> None:
    print(
        f"{summary.label}: C_max(all-pairs)={summary.c_max_all_pairs:.6g} "
        f"at t={summary.t_at_c_max:.4g}, survival={summary.survival_all_pairs:.6g}, "
        f"peak P_1={summary.peak_p_one:.6g}, peak P_e={summary.peak_p_excited:.6g}, "
        f"trace_err={summary.max_trace_err:.3g}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgqed",
        description="Two-photon driven qubit chains in a bi-directional waveguide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single config file")
    p_run.add_argument("--config", required=True, help="path to an INI config")
    p_run.add_argument("--out", help="output CSV path (overrides the config)")
    _add_override_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run a preset family and aggregate a summary")
    p_sweep.add_argument("id", help="preset identifier (see list-presets)")
    p_sweep.add_argument("--out", help="directory for CSV/metadata/summary files")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_override_flags(p_sweep)

    sub.add_parser("list-presets", help="show available presets")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name, desc in list_presets().items():
                print(f"{name:14s} {desc}")
            return 0

        if args.command == "run":
            cfg = _overridden(load_config(args.config), args)
            if args.out is not None:
                cfg = apply_overrides(cfg, path=args.out)
            _print_summary(run(cfg)[1])
            return 0

        # sweep
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        configs = [_overridden(cfg, args) for cfg in expand_preset(args.id)]
        results = run_many(configs, out_dir=args.out, jobs=args.jobs)
        for cfg, result in zip(configs, results):
            if isinstance(result, Exception):
                print(f"{cfg.label}: failed: {result}", file=sys.stderr)
                # the traceback, formatted where the member ran
                print("".join(getattr(result, "__notes__", ())), end="", file=sys.stderr)
            else:
                _print_summary(result)
        finished = [(cfg, r) for cfg, r in zip(configs, results) if isinstance(r, RunSummary)]
        if args.out is not None:
            path = os.path.join(args.out, f"{args.id}_summary.csv")
            emit_summary_csv([cfg for cfg, _ in finished], [r for _, r in finished], path)
            print(f"summary written to {path}")
        return 0 if len(finished) == len(configs) else 1
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
