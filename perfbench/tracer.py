"""Per-layer spans recorded around calls into wgqed's public functions.

The tracer replaces each hooked function (or method) with a timing wrapper
for the duration of a traced pass and restores the original afterwards; the
package itself is not modified.  A function imported by name into another
wgqed module (``from .integrator import integrate``) is replaced there too,
so the wrapper sees every call.

Each span keeps its call count, total time and self time.  Self time is the
total minus the time spent in hooked spans called from inside it, so
``integrator.integrate`` self time is what the integrator spends outside the
RK4 steps, the observables and the diagnostics.

A hook whose target does not exist, or that is never called, makes every
metric built on it ``None`` with a reason, never 0 s: a refactor that
renames or bypasses a layer shows up as a missing number.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span, module, attribute) for every hooked public name.
HOOKS = (
    ("config.expand_preset", "wgqed.presets", "expand_preset"),
    ("config.apply_overrides", "wgqed.config", "apply_overrides"),
    ("hierarchy.build", "wgqed.hierarchy", "RhsEvaluator.__init__"),
    ("hierarchy.rhs", "wgqed.hierarchy", "RhsEvaluator.__call__"),
    ("integrator.integrate", "wgqed.integrator", "integrate"),
    ("integrator.rk4_step", "wgqed.integrator", "rk4_step"),
    ("integrator.diagnostics", "wgqed.integrator", "diagnostics"),
    ("observables.populations", "wgqed.observables", "populations"),
    ("observables.pair_concurrences", "wgqed.observables", "pair_concurrences"),
    ("runner.summarize", "wgqed.runner", "summarize"),
    ("runner.emit_csv", "wgqed.runner", "emit_csv"),
    ("runner.write_metadata", "wgqed.runner", "write_metadata"),
)

# Matrix products per RHS call of the dense evaluator: two for the drift and
# two for each of the two collective jumps, on every evolved block, plus the
# drive commutators while the envelope is non-zero.
MATMULS_PER_BLOCK = 6
DRIVE_MATMULS = {"none": 0, "one-photon": 4, "two-photon": 10}


class Tracer:
    """Span registry; ``install`` hooks the package, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}
        self.rhs_flop = 0.0
        self.samples = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for span, module_name, attr in HOOKS:
            try:
                self._hook(span, module_name, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing[span] = f"{module_name}.{attr} not found"

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _hook(self, span: str, module_name: str, attr: str) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[name]
            targets = [(owner, name)]
        else:
            original = getattr(module, name)
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "wgqed"
                for key, value in list(vars(mod).items())
                if value is original
            ]
        extra = {
            "hierarchy.rhs": self._count_rhs_flop,
            "integrator.integrate": self._count_samples,
        }.get(span)
        wrapper = self._wrap(span, original, extra)
        for owner, key in targets:
            self._undo.append((owner, key, original))
            setattr(owner, key, wrapper)

    def _wrap(self, span, fn, extra):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children
                self.calls[span] += 1
                if stack:
                    stack[-1] += elapsed
            if extra is not None:
                # bookkeeping cost is charged to no layer
                start = clock()
                extra(args, result)
                if stack:
                    stack[-1] += clock() - start
            return result

        return wrapper

    def _count_rhs_flop(self, args, result) -> None:
        try:
            evaluator, t, blocks = args[:3]
            n_blocks, d = blocks.shape[0], blocks.shape[-1]
            matmuls = MATMULS_PER_BLOCK * n_blocks
            mode = evaluator.mode.value
            if DRIVE_MATMULS[mode] and evaluator.pulse.envelope(t) != 0.0:
                matmuls += DRIVE_MATMULS[mode]
            flop_per_mac = 8 if blocks.dtype.kind == "c" else 2
            self.rhs_flop += matmuls * flop_per_mac * float(d) ** 3
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.missing.setdefault("hierarchy.rhs_flop", f"cannot count RHS flop: {exc!r}")

    def _count_samples(self, args, result) -> None:
        try:
            self.samples += len(result)
        except TypeError as exc:
            self.missing.setdefault("integrator.samples", f"cannot count samples: {exc!r}")

    def need(self, *spans: str) -> str | None:
        """Why a metric built on ``spans`` cannot be reported, or None."""
        for span in spans:
            if span in self.missing:
                return self.missing[span]
            if self.calls[span] == 0:
                return f"{span} never called"
        return None


def metric(value, unit: str, reason: str | None = None) -> dict:
    if reason is not None:
        return {"value": None, "unit": unit, "reason": reason}
    return {"value": value, "unit": unit}


def expand_metric(setup: Tracer) -> dict:
    """``config.expand_s`` from the tracer that watched the workload set-up."""
    reason = setup.need("config.expand_preset", "config.apply_overrides")
    value = setup.total["config.expand_preset"] + setup.total["config.apply_overrides"]
    return {"config.expand_s": metric(value, "s", reason)}


def layer_metrics(tr: Tracer, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass that took ``traced_wall`` seconds."""
    total, self_time, calls = tr.total, tr.self_time, tr.calls
    rhs, step = "hierarchy.rhs", "integrator.rk4_step"
    pops, conc = "observables.populations", "observables.pair_concurrences"

    def ratio(a: float, b: float) -> float:
        return a / b if b else float("nan")

    flop_reason = tr.need(rhs) or tr.missing.get("hierarchy.rhs_flop")
    samples_reason = tr.need("integrator.integrate") or tr.missing.get("integrator.samples")
    sampling_s = total[pops] + total[conc]
    return {
        "hierarchy.build_s": metric(total["hierarchy.build"], "s", tr.need("hierarchy.build")),
        "hierarchy.rhs_calls": metric(calls[rhs], "count", tr.need(rhs)),
        "hierarchy.rhs_s": metric(total[rhs], "s", tr.need(rhs)),
        "hierarchy.rhs_us_per_call": metric(
            1e6 * ratio(total[rhs], calls[rhs]), "us", tr.need(rhs)
        ),
        "hierarchy.rhs_gflop": metric(tr.rhs_flop / 1e9, "GFLOP", flop_reason),
        "hierarchy.rhs_gflops": metric(
            ratio(tr.rhs_flop / 1e9, total[rhs]), "GFLOP/s", flop_reason
        ),
        "integrator.steps": metric(calls[step], "count", tr.need(step)),
        "integrator.step_self_s": metric(self_time[step], "s", tr.need(step)),
        "integrator.step_us": metric(1e6 * ratio(total[step], calls[step]), "us", tr.need(step)),
        "integrator.samples": metric(tr.samples, "count", samples_reason),
        "integrator.diagnostics_s": metric(
            total["integrator.diagnostics"], "s", tr.need("integrator.diagnostics")
        ),
        "integrator.sample_other_s": metric(
            self_time["integrator.integrate"], "s", tr.need("integrator.integrate")
        ),
        "observables.populations_s": metric(total[pops], "s", tr.need(pops)),
        "observables.populations_ms_per_sample": metric(
            1e3 * ratio(total[pops], calls[pops]), "ms", tr.need(pops)
        ),
        "observables.concurrence_s": metric(total[conc], "s", tr.need(conc)),
        "observables.share": metric(
            ratio(sampling_s, traced_wall), "ratio", tr.need(pops, conc)
        ),
        "runner.emit_csv_s": metric(
            total["runner.emit_csv"], "s", tr.need("runner.emit_csv")
        ),
        "runner.metadata_s": metric(
            total["runner.write_metadata"], "s", tr.need("runner.write_metadata")
        ),
        "runner.summarize_s": metric(
            total["runner.summarize"], "s", tr.need("runner.summarize")
        ),
    }
