"""Fixed-step classical Runge-Kutta order-4 propagation with sampling.

The integrator advances all evolved blocks simultaneously, samples the
observable bundle every ``sample_every`` steps, and tracks conservation
diagnostics (trace error, hermiticity deviation, smallest eigenvalue of the
reported state).  Positivity is monitored, never enforced: projecting back
onto the positive cone would mask transcription errors in the equations of
motion.  A trace error beyond 1e-6 aborts the run with the offending time.

:func:`evolve` steps a group of chains that share n, step and sampling
stride as one stack through the same RK4 step, and samples the stack in one
pass: the observables and :func:`diagnostics` each run once on the
(members, ...) blocks of its live members, and each member's row is written
from the result.  A trace breach ends only its own member.
:func:`integrate` is that loop with one member.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .hierarchy import (
    BLOCK_NAMES, UNIT_TRACE_BLOCKS, ChainParams, DriveMode, HierarchyState, RhsEvaluator,
    _require_integer,
)
from .observables import average_concurrence, full_diagonal, pair_concurrences, populations
from .operators import MAX_EXCITATIONS, all_pairs
from .pulse import GaussianPulse

TRACE_ABORT = 1e-6


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
        _require_integer("sample_every", self.sample_every)
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")

    @property
    def n_steps(self) -> int:
        """Steps of size dt that reach t_end; the last one may overshoot it
        when dt does not divide t_end."""
        n_steps = int(round(self.t_end / self.dt))
        if abs(n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            n_steps = int(np.ceil(self.t_end / self.dt))
        return n_steps


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
    """One classical RK4 update of the state array (the entries vector of
    :class:`~wgqed.hierarchy.RhsEvaluator`, or any array ``rhs`` maps).

    ``rhs(t, state)`` must return the derivative with the same shape.  The
    result is checked for overflow; non-finite entries abort.
    """
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, state + (0.5 * dt) * k2)
    k4 = rhs(t + dt, state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
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

    For (..., n_blocks, d, d) blocks of several chains every field is an
    array over the leading axes, each value the one its chain alone gives;
    one chain gives floats.
    """
    blocks = np.asarray(blocks)
    names = BLOCK_NAMES[: blocks.shape[-3]]
    unit = [k for k, name in enumerate(names) if name in UNIT_TRACE_BLOCKS]
    other = [k for k, name in enumerate(names) if name not in UNIT_TRACE_BLOCKS]
    traces = full_diagonal(blocks, n).sum(axis=-1)
    # |trace - 1| and |trace| rounded as abs() of one complex scalar rounds them
    unit_traces, other_traces = traces.take(unit, axis=-1), traces.take(other, axis=-1)
    herm_err = np.zeros(blocks.shape[:-3])
    for k in unit:  # block by block: a gathered copy is slower from d = 64 on
        m = blocks[..., k, :, :]
        herm_err = np.maximum(herm_err, np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)))
    reported = blocks[..., mode.n_blocks - 1, :, :]
    min_eig = np.linalg.eigvalsh(0.5 * (reported + reported.conj().swapaxes(-1, -2)))[..., 0]
    if n > MAX_EXCITATIONS:
        min_eig = np.where(min_eig > 0.0, 0.0, min_eig)
    values = dict(
        trace_err=np.hypot(unit_traces.real - 1.0, unit_traces.imag).max(axis=-1, initial=0.0),
        herm_err=herm_err,
        zero_block_trace=np.hypot(other_traces.real, other_traces.imag).max(axis=-1, initial=0.0),
        min_eigenvalue=min_eig,
    )
    if blocks.ndim == 3:
        values = {name: float(value) for name, value in values.items()}
    return Diagnostics(**values)


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

    Only the blocks the mode evolves are propagated, as the entries vector of
    their reachable tiles (:class:`~wgqed.hierarchy.RhsEvaluator`); ``state0``
    is read, never written.  It is refused when the evolution from its tiles
    would leave the sector basis (:func:`~wgqed.operators.sector_basis`);
    from the ground state it never does.  Samples land at
    t = k * dt * sample_every (the initial state is always the first sample).
    ``keep_states`` stores a copy of the reported block at each sample, on
    the sector basis.
    """
    [(_, outcome)] = evolve([(state0, params, pulse, config)], mode, rho21_hc, keep_states)
    if isinstance(outcome, IntegrationError):
        raise outcome
    return outcome


def evolve(
    members, mode: DriveMode, rho21_hc: bool = True, keep_states: bool = False
) -> Iterator[tuple[int, Trajectory | IntegrationError]]:
    """:func:`integrate` for several chains at once.

    ``members`` is a sequence of ``(state0, params, pulse, config)``; the
    chains share n, and the configs share dt and sample_every, while rates,
    positions, pulses and t_end may differ.  Members whose evaluators share
    one system structure (the same reachable tiles and real or complex
    arithmetic) are stepped as one stack, member by member with the same
    arithmetic as alone, so each trajectory is bit for bit the one
    :func:`integrate` gives.  Yields ``(index into members, trajectory)`` as
    each member reaches its t_end, or ``(index, IntegrationError)`` as it
    breaks an invariant; a failing member leaves the stack and the others go on.
    """
    chains = [_Chain(i, *member, mode, rho21_hc, keep_states) for i, member in enumerate(members)]
    shared = {(c.n, c.config.dt, c.config.sample_every) for c in chains}
    if len(shared) > 1:
        raise ValueError(f"evolved members must share n, dt and sample_every, got {sorted(shared)}")
    stacks: dict[int, list[_Chain]] = {}
    for chain in chains:
        stacks.setdefault(id(chain.rhs.system), []).append(chain)
    del chains
    for stack in stacks.values():
        yield from _step_stack(stack)


class _Chain:
    """One member of an evolved stack: its evaluator, entries vector and
    trajectory, and the error that ends it early, if any."""

    def __init__(self, index, state0, params, pulse, config, mode, rho21_hc, keep_states):
        self.index, self.n, self.pulse, self.mode = index, params.n, pulse, mode
        self.config = config
        self.rhs = RhsEvaluator(params, pulse, mode, rho21_hc, state0)
        self.work = self.rhs.entries(state0.blocks)
        n = params.n
        self.n_steps = config.n_steps
        self.error: IntegrationError | None = None

        n_samples = 1 + self.n_steps // config.sample_every
        pairs = all_pairs(n)
        shapes = {"p_excited": (n_samples, n), "pair_concurrence": (n_samples, len(pairs))}
        self.traj = Trajectory(
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
        self.gamma_ref = float(params.gamma_r[0])


def _sample(chains: list[_Chain], k: int, t: float, x: np.ndarray) -> None:
    """Record sample ``k`` at time ``t`` of the (members, entries) array ``x``
    of ``chains``: one call each of the observables and the diagnostics for
    all of them, then each member's row.  A trace breach ends its member
    with that IntegrationError."""
    first = chains[0]
    n, mode = first.n, first.mode
    blocks = first.rhs.blocks(x)
    rho = blocks[:, mode.n_blocks - 1]
    pops = populations(rho, n)
    pair_c = pair_concurrences(rho, n)
    diag = diagnostics(blocks, n, mode)
    c_all = average_concurrence(pair_c, n, "all-pairs")
    c_half = average_concurrence(pair_c, n, "half-n")
    for j, chain in enumerate(chains):
        if diag.trace_err[j] > TRACE_ABORT:
            chain.error = IntegrationError(
                f"trace deviation {diag.trace_err[j]:.3e} exceeds {TRACE_ABORT:.0e} "
                f"at t={t:.6g}"
            )
            continue
        traj = chain.traj
        traj.times[k] = t
        traj.p_ground[k] = pops.p_ground[j]
        traj.p_one[k] = pops.p_one[j]
        traj.p_two[k] = pops.p_two[j]
        traj.p_total[k] = pops.p_total[j]
        traj.p_excited[k] = pops.p_excited[j]
        traj.pair_concurrence[k] = pair_c[j]
        traj.c_avg_all_pairs[k] = c_all[j]
        traj.c_avg_half_n[k] = c_half[j]
        if mode is not DriveMode.NONE:
            traj.pulse_intensity[k] = chain.pulse.drive_intensity(chain.gamma_ref, t)
        traj.trace_err[k] = diag.trace_err[j]
        traj.herm_err[k] = diag.herm_err[j]
        traj.zero_block_trace[k] = diag.zero_block_trace[j]
        traj.min_eigenvalue[k] = diag.min_eigenvalue[j]
        if traj.states is not None:
            traj.states.append(rho[j].copy())


def _step_stack(chains: list[_Chain]) -> Iterator[tuple[int, Trajectory | IntegrationError]]:
    """The stepping loop.  One chain steps its entries vector, so the
    evaluator sees exactly the single-chain shapes; several step a
    (members, entries) stack through the stacked evaluator."""
    stacked = len(chains) > 1
    rhs = RhsEvaluator.stack([c.rhs for c in chains]) if stacked else chains[0].rhs
    work = np.stack([c.work for c in chains]) if stacked else chains[0].work
    dt, sample_every = chains[0].config.dt, chains[0].config.sample_every
    _sample(chains, 0, 0.0, work if stacked else work[None])
    step = 0
    while True:
        keep = []
        for j, chain in enumerate(chains):
            if chain.error is None and chain.n_steps > step:
                keep.append(j)
            else:
                # the trajectory leaves with the member; the stack keeps no reference
                outcome, chain.traj, chain.work = chain.error or chain.traj, None, None
                yield chain.index, outcome
        if not keep:
            return
        if len(keep) < len(chains):
            chains = [chains[j] for j in keep]
            work, rhs = work[keep], rhs.take(keep)

        t = step * dt
        try:
            work = rk4_step(work, t, dt, rhs)
        except IntegrationError as exc:
            if not stacked:
                chains[0].error = exc
                continue
            # find the members that went non-finite: each steps alone on the
            # same arithmetic, and the others keep that result
            parts = []
            for j, chain in enumerate(chains):
                try:
                    parts.append(rk4_step(work[j : j + 1], t, dt, rhs.take([j])))
                except IntegrationError as member_exc:
                    chain.error = member_exc
                    parts.append(work[j : j + 1])
            work = np.concatenate(parts)
        step += 1
        if step % sample_every == 0:
            live = [j for j, chain in enumerate(chains) if chain.error is None]
            if live:  # members that went non-finite in this step are not sampled
                x = work if stacked else work[None]
                x = x if len(live) == len(chains) else x[live]
                _sample([chains[j] for j in live], step // sample_every, step * dt, x)
