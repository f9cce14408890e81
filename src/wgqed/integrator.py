"""Fixed-step classical Runge-Kutta order-4 propagation with sampling.

The integrator advances all evolved blocks simultaneously, samples the
observable bundle every ``sample_every`` steps, and tracks conservation
diagnostics (trace error, hermiticity deviation, smallest eigenvalue of the
reported state).  Positivity is monitored, never enforced: projecting back
onto the positive cone would mask transcription errors in the equations of
motion.  A trace error beyond 1e-6 aborts the run with the offending time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .hierarchy import (
    BLOCK_NAMES, UNIT_TRACE_BLOCKS, ChainParams, DriveMode, HierarchyState, RhsEvaluator,
)
from .observables import average_concurrence, full_diagonal, pair_concurrences, populations
from .operators import MAX_EXCITATIONS, all_pairs, excitation_bits, sector_basis
from .pulse import GaussianPulse

TRACE_ABORT = 1e-6
POSITIVITY_WARN = -1e-7


class IntegrationError(RuntimeError):
    """Raised when a hard invariant breaks during propagation."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, final time and sampling stride (times in units of 1/gamma)."""

    dt: float = 1e-3
    t_end: float = 15.0
    sample_every: int = 10

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be non-negative and finite, got {self.t_end}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")


@dataclass
class Diagnostics:
    """Conservation checks evaluated on a single state."""

    trace_err: float
    herm_err: float
    zero_block_trace: float
    min_eigenvalue: float


@dataclass
class Trajectory:
    """Sampled time series of populations, concurrences and diagnostics.

    ``pair_concurrence`` has one column per unordered qubit pair in the order
    given by ``pair_labels``; both average-concurrence normalizations are
    stored so either can be compared against published curves.
    """

    times: np.ndarray
    n_qubits: int
    pair_labels: list[tuple[int, int]]
    p_ground: np.ndarray
    p_one: np.ndarray
    p_two: np.ndarray
    p_total: np.ndarray
    p_excited: np.ndarray  # (n_samples, n_qubits)
    pair_concurrence: np.ndarray  # (n_samples, n_pairs)
    c_avg_all_pairs: np.ndarray
    c_avg_half_n: np.ndarray
    pulse_intensity: np.ndarray
    trace_err: np.ndarray
    herm_err: np.ndarray
    zero_block_trace: np.ndarray
    min_eigenvalue: np.ndarray
    states: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def c_avg(self, norm: str = "all-pairs") -> np.ndarray:
        if norm == "all-pairs":
            return self.c_avg_all_pairs
        if norm == "half-n":
            return self.c_avg_half_n
        raise ValueError(f"unknown pair normalization {norm!r}")


def rk4_step(state: np.ndarray, t: float, dt: float, rhs: Callable) -> np.ndarray:
    """One classical RK4 update of the stacked block array.

    ``rhs(t, state)`` must return the derivative with the same shape.  The
    result is checked for overflow; non-finite entries abort.
    """
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, state + (0.5 * dt) * k2)
    k4 = rhs(t + dt, state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError(f"non-finite state entries after step at t={t:.6g}")
    return out


def diagnostics(
    blocks: np.ndarray, n: int, mode: DriveMode = DriveMode.TWO_PHOTON
) -> Diagnostics:
    """Conservation checks on the evolved (mode.n_blocks, d, d) block stack of
    an n-qubit chain on the sector basis.

    Trace/hermiticity deviations of the unit-trace blocks, worst residual
    trace of the zero-trace blocks, and the smallest eigenvalue of the
    reported system state.  Every value is that of the zero-padded full
    blocks: for n > MAX_EXCITATIONS the dropped states count as exact zero
    eigenvalues.
    """
    trace_err = herm_err = zero_trace = 0.0
    for name, m in zip(BLOCK_NAMES, blocks):
        trace = full_diagonal(m, n).sum()
        if name in UNIT_TRACE_BLOCKS:
            trace_err = max(trace_err, abs(trace - 1.0))
            herm_err = max(herm_err, float(np.abs(m - m.conj().T).max()))
        else:
            zero_trace = max(zero_trace, abs(trace))
    reported = blocks[mode.n_blocks - 1]
    min_eig = np.linalg.eigvalsh(0.5 * (reported + reported.conj().T))[0]
    if n > MAX_EXCITATIONS:
        min_eig = min(min_eig, 0.0)
    return Diagnostics(
        trace_err=float(trace_err),
        herm_err=herm_err,
        zero_block_trace=float(zero_trace),
        min_eigenvalue=float(min_eig),
    )


def integrate(
    state0: HierarchyState,
    params: ChainParams,
    pulse: GaussianPulse,
    mode: DriveMode,
    config: IntegratorConfig,
    rho21_hc: bool = True,
    keep_states: bool = False,
) -> Trajectory:
    """Propagate from t = 0 to t_end and sample the observable bundle.

    Only the blocks the mode evolves are propagated; ``state0`` is read, never
    written.  It is refused when the excitations its blocks hold plus those
    the drive adds (``RhsEvaluator.drive_depth``) could leave the sector basis
    (:func:`~wgqed.operators.sector_basis`); from the ground state they never
    do.  Samples land at t = k * dt * sample_every (the initial state is
    always the first sample).  ``keep_states`` stores a copy of the reported
    block at each sample, on the sector basis.
    """
    if state0.n != params.n:
        raise ValueError("state and parameters disagree on the chain length")
    rhs = RhsEvaluator(params, pulse, mode, rho21_hc=rho21_hc)
    n = params.n
    work = np.ascontiguousarray(state0.blocks[: mode.n_blocks])
    held = excitation_bits(sector_basis(n), n).sum(axis=1)[
        np.any(work, axis=(0, 1)) | np.any(work, axis=(0, 2))
    ].max(initial=0)
    if min(n, held + rhs.drive_depth) > MAX_EXCITATIONS:
        raise ValueError(
            f"state0 holds up to {held} excitations and the drive adds up to "
            f"{rhs.drive_depth}: the evolution would populate states with more than "
            f"{MAX_EXCITATIONS} excitations, which the sector basis drops"
        )
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(1.0, config.t_end):
        n_steps = int(np.ceil(config.t_end / config.dt))

    if rhs.is_real and np.abs(work.imag).max() == 0.0:
        work = np.ascontiguousarray(work.real)

    n_samples = 1 + n_steps // config.sample_every
    pairs = all_pairs(n)
    shapes = {"p_excited": (n_samples, n), "pair_concurrence": (n_samples, len(pairs))}
    traj = Trajectory(
        n_qubits=n,
        pair_labels=pairs,
        states=[] if keep_states else None,
        **{
            f.name: np.zeros(shapes.get(f.name, n_samples))
            for f in fields(Trajectory)
            if f.name not in ("n_qubits", "pair_labels", "states")
        },
    )
    # the published pulse curves use the first qubit's right-going rate
    gamma_ref = float(params.gamma_r[0])

    def sample(k: int, t: float) -> None:
        # observables see complex blocks whatever the arithmetic dtype
        blocks = work.astype(complex, copy=False)
        rho = blocks[mode.n_blocks - 1]
        pops = populations(rho, n)
        pair_c = pair_concurrences(rho, n)
        diag = diagnostics(blocks, n, mode)
        if diag.trace_err > TRACE_ABORT:
            raise IntegrationError(
                f"trace deviation {diag.trace_err:.3e} exceeds {TRACE_ABORT:.0e} "
                f"at t={t:.6g}"
            )
        traj.times[k] = t
        traj.p_ground[k] = pops.p_ground
        traj.p_one[k] = pops.p_one
        traj.p_two[k] = pops.p_two
        traj.p_total[k] = pops.p_total
        traj.p_excited[k] = pops.p_excited
        traj.pair_concurrence[k] = pair_c
        traj.c_avg_all_pairs[k] = average_concurrence(pair_c, n, "all-pairs")
        traj.c_avg_half_n[k] = average_concurrence(pair_c, n, "half-n")
        if mode is not DriveMode.NONE:
            traj.pulse_intensity[k] = pulse.drive_intensity(gamma_ref, t)
        traj.trace_err[k] = diag.trace_err
        traj.herm_err[k] = diag.herm_err
        traj.zero_block_trace[k] = diag.zero_block_trace
        traj.min_eigenvalue[k] = diag.min_eigenvalue
        if keep_states:
            traj.states.append(rho.copy())

    sample(0, 0.0)
    for step in range(n_steps):
        t = step * config.dt
        work = rk4_step(work, t, config.dt, rhs)
        if (step + 1) % config.sample_every == 0:
            sample((step + 1) // config.sample_every, (step + 1) * config.dt)

    worst = int(np.argmin(traj.min_eigenvalue))
    if traj.min_eigenvalue[worst] < POSITIVITY_WARN:
        warnings.warn(
            f"reported state dipped below positivity tolerance "
            f"(min eigenvalue {traj.min_eigenvalue[worst]:.3e} at t={traj.times[worst]:.6g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return traj
