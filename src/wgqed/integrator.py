"""Fixed-step classical Runge-Kutta order-4 propagation with sampling.

The integrator advances all evolved blocks simultaneously, samples the
observable bundle every ``sample_every`` steps, and tracks conservation
diagnostics (trace error, hermiticity deviation, smallest eigenvalue of the
reported state).  Positivity is monitored, never enforced: projecting back
onto the positive cone would mask transcription errors in the equations of
motion.  A trace error beyond 1e-6 aborts the run with the offending time.

:func:`evolve` steps a group of chains that share n, step and sampling
stride as one stack through the same RK4 step, and samples in chunks of
time: each sample instant only queues its live members' entries, and a
chunk of instants is evaluated at once, each row's values the ones it gives
alone.  A chunk reads its rows straight from the entries, one gather
of every evolved block's diagonal and one of the reported block alone, and
makes one call each of the observables and :func:`diagnostics` on all its
rows.  It ends when those would pass a fixed byte budget (about 400 samples
of a lone n = 2 chain, 18 at n = 5, 3 at n = 7, one from n = 8 on), and
before any member leaves the stack.  A trace breach, found when its chunk
is evaluated, ends only its own member, with the time of the breaching
sample; the member steps on for at most that chunk.  :func:`integrate` is
that loop with one member.

The system is linear, x' = (L0 + g(t) L1) x, so one RK4 step is a matrix
polynomial in the step's three envelope values a, b, c = g(t),
g(t + dt/2), g(t + dt): the sum of a^i b^j c^k C_ijk x over 12 monomials
(i, k <= 1, j <= 2).  A chain whose float64 entries vector is at most
``_TABLE_WIDTH`` = 128 wide (every symmetric chain, and asymmetric ones up
to n = 3) tabulates the stack of its C_ijk once, from the dense L0 and L1
of its own evaluator.  Each step's own W x W map M = sum a^i b^j c^k C_ijk
is formed a block of steps at a time, with one product of the block's
envelope weights and the stack, and the step is the one product M x:
about a tenth of the cost of the four RHS stages at W = 22.  Its first
step is also taken through the four stages, and a map that disagrees with
them is refused.  After it, the maps are applied a run at a time, from one
event to the next (a sample, a map-block edge or the nearest member's
n_steps), with one finiteness check per run.  Wider chains, and any whose
map holds a non-finite entry, step through the four RHS stages one step
at a time.  Every step goes through :func:`rk4_step`, alone or in a run.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .hierarchy import (
    BLOCK_NAMES, UNIT_TRACE_BLOCKS, ChainParams, DriveMode, HierarchyState, RhsEvaluator,
    _require_integer, _sector_moves,
)
from .observables import _checked_tables, average_concurrence, pair_concurrences, populations
from .operators import MAX_EXCITATIONS, all_pairs, sector_basis
from .pulse import GaussianPulse, drive_intensities

TRACE_ABORT = 1e-6

# Bytes of complex (d, d) reported blocks and (n_blocks, 2^n) diagonals that
# one sampling chunk may hold; a chunk holds at least one sample instant.
_CHUNK_BYTES = 256 * 1024


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


def rk4_step(
    state: np.ndarray, t: float, dt: float, rhs: Callable, table: np.ndarray | None = None,
) -> np.ndarray:
    """One classical RK4 update of the state array (the entries vector of
    :class:`~wgqed.hierarchy.RhsEvaluator`, or any array ``rhs`` maps), or
    a run of tabulated ones.

    ``rhs(t, state)`` must return the derivative with the same shape; the
    step is its four stages.  With a ``table`` (:meth:`_Table.run`), the
    steps are instead products, without a call of ``rhs``: a run of k
    consecutive steps' own maps, (k, W, W) of the chain or (k, members, W,
    W) of each member of a stack (:func:`_rk4_map`), applied to the state
    in turn.  The result is checked for overflow once; non-finite entries
    abort, naming ``t``, the time of the run's first step.  A non-finite
    entry stays non-finite through every later product (inf times an exact
    zero is NaN), so a run of k fails exactly when one of its steps would.
    """
    if table is None:
        out = _stages(state, t, dt, rhs)
    elif state.ndim == 1:
        out = state
        for step in table:
            out = step.dot(out)  # the same product as matmul's, with less overhead
    else:
        out = state
        for step in table:
            out = np.matmul(step, out[..., None]).reshape(state.shape)
    # a sum of squares is finite only when every entry is; only when it is
    # not (a non-finite state, or a finite one past about 1e154) is every
    # entry looked at
    if not cmath.isfinite(np.vdot(out, out)) and not np.isfinite(out).all():
        raise IntegrationError(f"non-finite state entries after step at t={t:.6g}")
    return out


def _stages(state: np.ndarray, t: float, dt: float, rhs: Callable) -> np.ndarray:
    """The four RHS stages of one RK4 step, unchecked."""
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, state + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, state + (0.5 * dt) * k2)
    k4 = rhs(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Chains whose float64 entries vector is at most this wide step through a
# tabulated RK4 map: below it one W x W product, with its share of forming
# that map from the 12 W^2 entries of the monomial stack, costs less than
# four RHS calls (a tenth at W = 22, a fifth at W = 57, about as much at
# W = 132, 3.4 times as much at W = 273; one core).  Every symmetric chain
# is below it.
_TABLE_WIDTH = 128
# Steps whose envelope weights are formed at once.
_TABLE_STEPS = 256
# Bytes of one member's maps formed at once (a power of two steps that
# divides _TABLE_STEPS; at least one step).
_MAP_BYTES = 64 * 1024
# The exponents (i, j, k) of the monomials a^i b^j c^k of one step's
# envelope values a, b, c = g(t), g(t + dt/2), g(t + dt).
_MONOMIALS = tuple(itertools.product(range(2), range(3), range(2)))
# Largest difference, relative to 1 + the largest |entry|, that a member's
# tabulated first step may have from its four RHS stages: rounding gives
# about 1e-13, a wrong map about 1e-6.
_TABLE_CHECK = 1e-8


def _rk4_map(l0: np.ndarray, l1: np.ndarray, dt: float) -> np.ndarray:
    """The (12, W^2) stack of the flattened matrices C_ijk, in the order of
    ``_MONOMIALS``, such that one RK4 step of size dt of
    x' = (L0 + g(t) L1) x maps x to sum_ijk a^i b^j c^k C_ijk x, a, b and c
    being g at the step's stage times t, t + dt/2 and t + dt: RK4's
    stability function with a time-dependent drive (Hairer, Norsett and
    Wanner, Solving ODEs I, IV.2), expanded as a polynomial in a, b, c with
    matrix coefficients, one stage at a time as the four RHS stages form
    it."""
    eye = np.eye(len(l0))
    one = {(0, 0, 0): eye}

    def derivative(stage: int, poly: dict) -> dict:
        """(L0 + g L1) poly, g the envelope at stage time ``stage``."""
        out: dict = {}
        for key, m in poly.items():
            up = tuple(p + (s == stage) for s, p in enumerate(key))
            out[key] = out.get(key, 0.0) + l0 @ m
            out[up] = out.get(up, 0.0) + l1 @ m
        return out

    def combine(*scaled: tuple[float, dict]) -> dict:
        out: dict = {}
        for scale, poly in scaled:
            for key, m in poly.items():
                out[key] = out.get(key, 0.0) + scale * m
        return out

    k1 = derivative(0, one)
    k2 = derivative(1, combine((1.0, one), (0.5 * dt, k1)))
    k3 = derivative(1, combine((1.0, one), (0.5 * dt, k2)))
    k4 = derivative(2, combine((1.0, one), (dt, k3)))
    step = combine((1.0, one), (dt / 6.0, combine((1.0, k1), (2.0, k2), (2.0, k3), (1.0, k4))))
    return np.stack([step[key].reshape(-1) for key in _MONOMIALS])


def _tabulated(rhs: RhsEvaluator, dt: float) -> np.ndarray | None:
    """The tabulated RK4 map of one chain's evaluator (:func:`_rk4_map`),
    or None when its entries vector is wider than ``_TABLE_WIDTH`` or the
    map holds a non-finite entry: then it steps through the four RHS
    stages."""
    if rhs.system.width > _TABLE_WIDTH:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        maps = _rk4_map(*rhs.linear_parts(), dt)
    return maps if np.isfinite(maps).all() else None


def _map_steps(width: int) -> int:
    """Steps whose W x W maps are formed at once: the largest power of two
    whose maps of one member fit ``_MAP_BYTES``, at least 1 and at most
    ``_TABLE_STEPS``.  It depends on W alone, so a member's maps are formed
    with the same shapes alone and in any stack."""
    span = _TABLE_STEPS
    while span > 1 and 8 * span * width * width > _MAP_BYTES:
        span //= 2
    return span


class _Table:
    """The tabulated RK4 maps of one chain, (12, W^2), or of each member of a
    stack, (members, 12, W^2), with one pulse per member.  Their envelope
    weights are formed for ``_TABLE_STEPS`` steps at a time, and from them
    each step's own W x W map, ``_map_steps(W)`` steps at a time, with one
    product (members, steps, 12) @ (members, 12, W^2).  Both blocks start at
    multiples of their length, so a member's maps do not depend on when it
    joined or who it steps with.  A run of steps (:meth:`run`) lies within
    one block of maps."""

    def __init__(self, maps: np.ndarray, pulses: list[GaussianPulse], dt: float):
        self.maps, self.pulses, self.dt = maps, pulses, dt
        self.width = math.isqrt(maps.shape[-1])
        self.span = _map_steps(self.width)
        self.first = self.start = -_TABLE_STEPS
        self.weights = self.steps = None

    def run(self, step: int, k: int) -> np.ndarray:
        """The ``table`` argument of :func:`rk4_step` for the ``k`` steps
        from ``step`` on, which must not pass the next multiple of
        ``span``: their maps, (k, W, W), or each member's, (k, members, W,
        W), of the envelope weights a^i b^j c^k at each step's stage
        times."""
        row = step - self.start
        if not 0 <= row < self.span:
            self._form(step)
            row = step - self.start
        return self.steps[row : row + k]

    def _form(self, step: int) -> None:
        """Form the maps of the ``span`` steps from the multiple of ``span``
        at or before ``step``, and the weights they need."""
        first = step - step % _TABLE_STEPS
        if first != self.first:
            self.first = first
            t = np.arange(first, first + _TABLE_STEPS) * self.dt
            a, b, c = (np.array([p.envelope(s) for p in self.pulses])
                       for s in (t, t + 0.5 * self.dt, t + self.dt))
            one = np.ones_like(a)
            # (pulses, steps, i, j, k): (a^i b^j) c^k, in the order of _MONOMIALS
            weights = (np.stack((one, a), axis=-1)[..., None, None]
                       * np.stack((one, b, b * b), axis=-1)[..., None, :, None]
                       * np.stack((one, c), axis=-1)[..., None, None, :])
            self.weights = weights.reshape(self.maps.shape[:-2] + (_TABLE_STEPS, -1))
        self.start = step - step % self.span
        row = self.start - first
        block = np.matmul(self.weights[..., row : row + self.span, :], self.maps)
        # (steps, [members,] W, W)
        self.steps = block.reshape(block.shape[:-1] + (self.width, self.width)).swapaxes(0, -3)

    def take(self, keep: list[int]) -> "_Table":
        """The table of the members at indices ``keep``."""
        out = _Table(self.maps[keep], [self.pulses[j] for j in keep], self.dt)
        if self.weights is not None:
            out.first, out.start = self.first, self.start
            out.weights, out.steps = self.weights[keep], self.steps[:, keep]
        return out


@functools.lru_cache(maxsize=None)
def _adapted_basis(n: int) -> np.ndarray:
    """(d, c) real orthonormal columns on the n-qubit sector basis that hold
    one copy of each spin multiplet it meets, c <= 10 at every n.

    A state that every permutation of the qubits leaves unchanged acts on
    each multiplet of total spin n/2 - k as the same matrix on every copy
    (Schur-Weyl duality), so its spectrum on the sector basis is that of its
    compression onto these columns.  Copy k is spanned by the normalized
    J+^(m-k) w_k, m = k ... min(3, n - k), from the lowest-weight state
    w_k = prod_{j<=k} (s+_{2j-1} - s+_{2j}) |g...g> of k singlets."""
    basis = sector_basis(n)
    d = len(basis)
    masks = 1 << np.arange(n - 1, -1, -1)
    # J+ on the sector basis, the transpose of the lowering moves
    image, state, _ = _sector_moves(n).low
    up = np.zeros((d, d))
    up[state, image] = 1.0
    columns = []
    for k in range(min(MAX_EXCITATIONS, n // 2) + 1):
        # integer entries, exact in float64, so each column is normalized
        # by one correctly rounded square root
        v = np.zeros(d)
        for choice in itertools.product((0, 1), repeat=k):
            state = sum(int(masks[2 * j + s]) for j, s in enumerate(choice))
            v[np.searchsorted(basis, state)] += (-1.0) ** sum(choice)
        for _ in range(k, min(MAX_EXCITATIONS, n - k) + 1):
            columns.append(v / np.sqrt(v @ v))
            v = up @ v
    out = np.stack(columns, axis=1)
    out.setflags(write=False)  # shared by every caller through the cache
    return out


def diagnostics(
    diagonals: np.ndarray, reported: np.ndarray, n: int, symmetric: bool = False
) -> Diagnostics:
    """Conservation checks on the evolved blocks of an n-qubit chain, from
    their (n_blocks, 2^n) diagonals on the full index
    (:func:`~wgqed.observables.full_diagonal`, zero on the states the sector
    basis drops) and the reported system state, (d, d) on the sector basis.

    Trace/hermiticity deviations of the unit-trace blocks, worst residual
    trace of the zero-trace blocks, and the smallest eigenvalue of the
    reported system state.  Every value is that of the zero-padded full
    blocks: for n > MAX_EXCITATIONS the dropped states count as exact zero
    eigenvalues.  The evaluator stores only the upper triangles of the
    unit-trace blocks and keeps their diagonals real, and a mirrored entry
    is by construction the exact conjugate of its stored transpose, so on
    the blocks it evolves only a diagonal entry can break hermiticity:
    ``herm_err`` is the largest |d - conj(d)| over the unit-trace blocks'
    diagonals, 0.0 by construction, while the test suite checks on its
    term-by-term oracle that the equations keep those blocks Hermitian.

    A ``symmetric`` reported state, one that every permutation of the
    qubits leaves exactly unchanged, has the spectrum of its at most
    10 x 10 compression onto one copy of each spin multiplet
    (:func:`_adapted_basis`), and from n = 3 on its smallest eigenvalue is
    taken from that; it agrees with the d x d spectrum's to rounding.

    For (..., n_blocks, 2^n) diagonals and (..., d, d) states of several
    chains every field is an array over the leading axes, each value the one
    its chain alone gives; one chain gives floats.  Any other shape raises a
    ``ValueError`` naming n and the expected size.
    """
    diagonals, reported = np.asarray(diagonals), np.asarray(reported)
    _checked_tables(reported, n)
    if diagonals.ndim < 2 or diagonals.shape[-1] != 2**n or \
            diagonals.shape[:-2] != reported.shape[:-2]:
        raise ValueError(
            f"the block diagonals of a {n}-qubit chain are (..., n_blocks, {2**n}) "
            f"with the leading axes of the reported state {reported.shape}, "
            f"got shape {diagonals.shape}"
        )
    names = BLOCK_NAMES[: diagonals.shape[-2]]
    unit = [k for k, name in enumerate(names) if name in UNIT_TRACE_BLOCKS]
    other = [k for k, name in enumerate(names) if name not in UNIT_TRACE_BLOCKS]
    # each trace deviation rounds as abs() of one complex scalar trace
    traces = diagonals.sum(axis=-1)
    unit_traces, other_traces = traces.take(unit, axis=-1), traces.take(other, axis=-1)
    trace_err = np.hypot(unit_traces.real - 1.0, unit_traces.imag).max(axis=-1, initial=0.0)
    zero_block_trace = np.hypot(other_traces.real, other_traces.imag).max(axis=-1, initial=0.0)
    unit_diagonals = diagonals.take(unit, axis=-2)
    herm_err = np.abs(unit_diagonals - unit_diagonals.conj()).max(axis=(-2, -1))
    if symmetric and n > 2:  # up to n = 2 the copies span the whole basis
        v = _adapted_basis(n)
        reported = v.T @ reported @ v
    # halved before the sum, so that no finite block overflows to inf, which
    # would stop eigvalsh for the whole stack
    min_eig = np.linalg.eigvalsh(0.5 * reported + 0.5 * reported.conj().swapaxes(-1, -2))[..., 0]
    if n > MAX_EXCITATIONS:
        min_eig = np.where(min_eig > 0.0, 0.0, min_eig)
    values = dict(
        trace_err=trace_err,
        herm_err=herm_err,
        zero_block_trace=zero_block_trace,
        min_eigenvalue=min_eig,
    )
    if diagonals.ndim == 2:
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
    one system structure (the same reachable tiles, real or complex
    arithmetic, and symmetry under permutations of the qubits) and that all
    step through a tabulated map or all through the RHS stages are stepped
    as one stack, member by member with the same arithmetic as alone, so
    each trajectory is bit for bit the one :func:`integrate` gives.  Samples
    are evaluated in chunks of time, and always before a member leaves the
    stack.  Yields ``(index into members, trajectory)`` as each member
    reaches its t_end, or ``(index, IntegrationError)`` as it breaks an
    invariant; a failing member leaves the stack and the others go on.  A
    trace breach is found only when its chunk is evaluated, so the member
    leaves then, with the time of the breaching sample, and may be yielded
    after members that reached their t_end in the meantime.  The breach is
    the error it reports even when its state went non-finite later in that
    chunk.
    """
    chains = [_Chain(i, *member, mode, rho21_hc, keep_states) for i, member in enumerate(members)]
    shared = {(c.n, c.config.dt, c.config.sample_every) for c in chains}
    if len(shared) > 1:
        raise ValueError(f"evolved members must share n, dt and sample_every, got {sorted(shared)}")
    stacks: dict[tuple[int, bool], list[_Chain]] = {}
    for chain in chains:
        stacks.setdefault((id(chain.rhs.system), chain.map is None), []).append(chain)
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
        self.map = _tabulated(self.rhs, config.dt)
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


class _Chunk:
    """Sample instants of a stack awaiting evaluation: the member, sample
    index and time of each queued row, and the entries rows."""

    def __init__(self, chain: _Chain):
        system = chain.rhs.system
        # what a row materializes: its reported block and padded diagonals
        row_bytes = 16 * (system.read[-1].size + system.diagonal.size)
        self.capacity = max(1, _CHUNK_BYTES // row_bytes)
        self.owners: list[_Chain] = []
        self.ks: list[int] = []
        self.ts: list[float] = []
        self.rows: list[np.ndarray] = []

    def record(self, chains: list[_Chain], k: int, t: float, x: np.ndarray) -> None:
        """Queue sample ``k`` at time ``t`` of the (members, entries) array
        ``x`` of ``chains``, and evaluate the chunk once another instant of
        as many rows would pass its budget.  Members with an error are not
        sampled.  When every member is live, ``x`` itself is queued: the
        stepping loop never writes a stepped array in place."""
        live = [j for j, chain in enumerate(chains) if chain.error is None]
        if live:
            self.owners += [chains[j] for j in live]
            self.ks += [k] * len(live)
            self.ts += [t] * len(live)
            self.rows.append(x if len(live) == len(chains) else x[live])
            if len(self.owners) + len(live) > self.capacity:
                self.flush()

    def flush(self) -> None:
        if self.owners:
            _sample(self.owners, self.ks, self.ts, np.concatenate(self.rows))
            self.owners, self.ks, self.ts, self.rows = [], [], [], []


def _sample(owners: list[_Chain], ks: list[int], ts: list[float], x: np.ndarray) -> None:
    """Evaluate the (rows, entries) array ``x``, in time order, row r being
    sample ``ks[r]`` at time ``ts[r]`` of ``owners[r]``, then write each
    member's rows into its trajectory through index arrays.  The owners
    share one system, and the rows are read straight from the entries
    (:meth:`~wgqed.hierarchy.RhsEvaluator.sampled`): the gathered diagonals
    of every evolved block, for the traces and ``herm_err``, and the
    reported block alone, for the smallest eigenvalue, the observables and
    ``keep_states``; then one call each of the diagnostics and the
    observables for all rows.  When the system is
    symmetric, every permutation of the qubits leaves every state
    unchanged, so every pair has the same concurrence: only pair (1, 2) is
    reduced and solved, and its value is repeated, bit for bit what all
    pairs give.  From n = 3 on the smallest eigenvalue then comes from one
    copy of each spin multiplet, at most 10 x 10 at any n, and agrees with
    the d x d one to rounding.

    The first row of a member that breaks the trace bound ends it with that
    IntegrationError, in place of a non-finite step found after it; the one
    diagnostics call finds it.  Rows of a member that has ended are not
    written; their reported blocks are zeroed after the diagnostics and
    before the observables, as its state may have grown past what they can
    take."""
    first = owners[0]
    n, mode, symmetric = first.n, first.mode, first.rhs.system.symmetric
    diagonals, rho = first.rhs.sampled(x)
    diag = diagnostics(diagonals, rho, n, symmetric)
    breached = set()
    for r in np.flatnonzero(diag.trace_err > TRACE_ABORT).tolist():
        chain = owners[r]
        if chain not in breached:
            breached.add(chain)
            chain.error = IntegrationError(
                f"trace deviation {diag.trace_err[r]:.3e} exceeds {TRACE_ABORT:.0e} "
                f"at t={ts[r]:.6g}"
            )
    rows_of: dict[_Chain, list[int]] = {}
    for r, chain in enumerate(owners):
        rows_of.setdefault(chain, []).append(r)
    ended = [r for chain, rows in rows_of.items() if chain.error is not None for r in rows]
    if ended:
        rho[ended] = 0.0
    pops = populations(rho, n)
    pair_c = pair_concurrences(rho, n, symmetric)
    c_all = average_concurrence(pair_c, n, "all-pairs")
    c_half = average_concurrence(pair_c, n, "half-n")
    if mode is not DriveMode.NONE:
        # each row's drive_intensity at its time, bit for bit
        intensity = drive_intensities([c.pulse for c in owners], [c.gamma_ref for c in owners], ts)
    for chain, rows in rows_of.items():
        if chain.error is not None:
            continue
        traj, k = chain.traj, np.array([ks[r] for r in rows])
        traj.times[k] = [ts[r] for r in rows]
        rows = np.array(rows)
        if mode is not DriveMode.NONE:
            traj.pulse_intensity[k] = intensity[rows]
        traj.p_ground[k] = pops.p_ground[rows]
        traj.p_one[k] = pops.p_one[rows]
        traj.p_two[k] = pops.p_two[rows]
        traj.p_total[k] = pops.p_total[rows]
        traj.p_excited[k] = pops.p_excited[rows]
        traj.pair_concurrence[k] = pair_c[rows]
        traj.c_avg_all_pairs[k] = c_all[rows]
        traj.c_avg_half_n[k] = c_half[rows]
        traj.trace_err[k] = diag.trace_err[rows]
        traj.herm_err[k] = diag.herm_err[rows]
        traj.zero_block_trace[k] = diag.zero_block_trace[rows]
        traj.min_eigenvalue[k] = diag.min_eigenvalue[rows]
        if traj.states is not None:
            traj.states.extend(rho[rows])


def _step_stack(chains: list[_Chain]) -> Iterator[tuple[int, Trajectory | IntegrationError]]:
    """The stepping loop.  One chain steps its entries vector, so the
    evaluator sees exactly the single-chain shapes; several step a
    (members, entries) stack through the stacked evaluator.  Tabulated
    members (all of the stack or none) step through their maps, each
    member's row with the same arithmetic as alone; the first step is also
    taken through the four RHS stages, and a member whose two results
    differ beyond ``_TABLE_CHECK`` raises a RuntimeError.  After it, the
    maps are applied a run at a time, from one event to the next (a
    sample, a map-block edge or the nearest member's n_steps), with one
    finiteness check per run; a run that fails is replayed a step at a
    time, so a step's error is reported as if every step were checked."""
    stacked = len(chains) > 1
    rhs = RhsEvaluator.stack([c.rhs for c in chains]) if stacked else chains[0].rhs
    work = np.stack([c.work for c in chains]) if stacked else chains[0].work
    table = None
    if chains[0].map is not None:
        maps = np.stack([c.map for c in chains]) if stacked else chains[0].map
        table = _Table(maps, [c.pulse for c in chains], chains[0].config.dt)
        for chain in chains:
            chain.map = None  # the table holds the maps
    dt, sample_every = chains[0].config.dt, chains[0].config.sample_every
    chunk = _Chunk(chains[0])
    chunk.record(chains, 0, 0.0, work if stacked else work[None])
    # the members are rescanned only when one can leave: after a sample is
    # recorded (its chunk may find a breach), after a step error, and at the
    # nearest member's n_steps.  Tabulated steps before ``single`` are taken
    # one at a time: the first, which is checked against its stages, and
    # those of a run that failed and is replayed.
    step = scan = 0
    single = 1
    while True:
        if step >= scan:
            if any(chain.error is not None or chain.n_steps <= step for chain in chains):
                # members leave with their samples evaluated; a breach found
                # in them ends its member here too
                chunk.flush()
                keep = []
                for j, chain in enumerate(chains):
                    if chain.error is None and chain.n_steps > step:
                        keep.append(j)
                    else:
                        # the trajectory leaves with the member; the stack
                        # keeps no reference
                        outcome, chain.traj, chain.work = chain.error or chain.traj, None, None
                        yield chain.index, outcome
                if not keep:
                    return
                chains = [chains[j] for j in keep]
                work, rhs = work[keep], rhs.take(keep)
                table = table and table.take(keep)
            scan = min(chain.n_steps for chain in chains)

        t = step * dt
        start = work
        k, tabulated = 1, None
        if table is not None:
            if step >= single:
                # run to the next event: a sample, a map-block edge or the
                # nearest member's n_steps
                k = min(scan, step - step % sample_every + sample_every,
                        step - step % table.span + table.span) - step
            tabulated = table.run(step, k)
        try:
            work = rk4_step(work, t, dt, rhs, tabulated)
        except IntegrationError as exc:
            if k > 1:
                # replay the run from its start one step at a time, so that
                # the error, its time and the members it ends are a step's
                single, work = step + k, start
                continue
            scan = step
            if not stacked:
                chains[0].error = exc
                continue
            # find the members that went non-finite: each steps alone on the
            # same arithmetic, and the others keep that result
            parts = []
            for j, chain in enumerate(chains):
                alone = None if tabulated is None else tabulated[:, j : j + 1]
                try:
                    parts.append(rk4_step(work[j : j + 1], t, dt, rhs.take([j]), alone))
                except IntegrationError as member_exc:
                    chain.error = member_exc
                    parts.append(work[j : j + 1])
            work = np.concatenate(parts)
        if step == 0 and table is not None:
            _check_table(chains, start, work, dt, rhs)
        step += k
        if step % sample_every == 0:
            chunk.record(chains, step // sample_every, step * dt, work if stacked else work[None])
            scan = step


def _check_table(chains: list[_Chain], x: np.ndarray, stepped: np.ndarray, dt: float,
                 rhs: RhsEvaluator) -> None:
    """Raise a RuntimeError when a live member's tabulated first step
    ``stepped`` of ``x`` differs from its four RHS stages by more than
    ``_TABLE_CHECK`` times 1 + the largest |entry| of the stages' result."""
    with np.errstate(all="ignore"):
        want = _stages(x, 0.0, dt, rhs).reshape(len(chains), -1)
        got = stepped.reshape(len(chains), -1)
        for j, chain in enumerate(chains):
            error = np.abs(got[j] - want[j]).max()
            if chain.error is None and not error <= _TABLE_CHECK * (1.0 + np.abs(want[j]).max()):
                raise RuntimeError(
                    f"the tabulated first step of member {chain.index} differs from its RHS "
                    f"stages by {error:.3e}"
                )
