"""Coupled master-equation hierarchy for a driven qubit chain.

The chain couples to the two counter-propagating continua of a lossless
waveguide.  A two-photon wavepacket enters from the left (right-moving
continuum); the opposite continuum starts in vacuum.  The joint state is
evolved through six coupled density-like blocks

    rho00, rho10, rho11, rho20, rho21, rho_s

indexed by how many input photons the bra/ket sides have consumed; rho_s is
the physical system state under the two-photon drive.  The conjugate blocks
rho01, rho02, rho12 are never stored: they are materialized on demand as
adjoints, which enforces rho21(t)^dag = rho12(t) by construction.

Every block evolves under the same Liouvillian, split into

* a coherent part  -i [H, .]  with H = sum_i delta_i |e_i><e_i|,
* a pure-decay part with per-qubit rate (gamma_iR + gamma_iL) / 2,
* a cooperative-decay part coupling qubit pairs through the shared continua,
  right-movers carrying each qubit's emission down the chain and left-movers
  up it, with propagation phases set by the positions d_i (in units of the
  emission wavelength); :class:`RhsEvaluator` builds the directional weights
  and phases and states their rule.

The drive enters through commutators with the collective raising operator,
scaled by sqrt(2 gamma_iR) g(t) on the two-photon rows and sqrt(gamma_iR) g(t)
on the one-photon rows.  Retardation between qubits is neglected; positions
enter only through the phases above.

From the ground state no block ever holds an entry with more than three
excited qubits, so every block lives on the sector basis of
:mod:`wgqed.operators` (the whole space for n <= 3).

All rates, times and detunings are measured in units of a reference decay
rate (set to 1).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .operators import MAX_QUBITS, excitation_bits, sector_basis
from .pulse import GaussianPulse, envelopes

# Block order is the lower-triangular hierarchy enumeration; prefix slices
# of this tuple are exactly the blocks each drive mode evolves, and the last
# block of each slice holds the physical system state.
BLOCK_NAMES = ("rho00", "rho10", "rho11", "rho20", "rho21", "rho_s")
# Blocks that start in the ground state and keep unit trace; the others stay traceless.
UNIT_TRACE_BLOCKS = ("rho00", "rho11", "rho_s")


class DriveMode(enum.Enum):
    """How many photons the input wavepacket carries."""

    NONE = "none"
    ONE_PHOTON = "one-photon"
    TWO_PHOTON = "two-photon"

    @property
    def n_blocks(self) -> int:
        return {DriveMode.NONE: 1, DriveMode.ONE_PHOTON: 3, DriveMode.TWO_PHOTON: 6}[self]


@dataclass
class ChainParams:
    """Physical parameters of the chain.

    A scalar or single value of any per-qubit field is broadcast to all
    qubits.  ``spacing`` is the inter-qubit separation in units of the
    emission wavelength; explicit ``positions`` (same units) override the
    uniform grid (i - 1) * spacing.
    """

    n: int
    gamma_r: np.ndarray = field(default=None)  # type: ignore[assignment]
    gamma_l: np.ndarray = field(default=None)  # type: ignore[assignment]
    delta: np.ndarray = field(default=None)  # type: ignore[assignment]
    spacing: float = 0.0
    positions: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(
                f"n = {self.n} is out of range: need at least one qubit, and at most "
                f"{MAX_QUBITS}, the checked range of the sector basis"
            )
        if not np.isfinite(self.spacing):
            raise ValueError(f"spacing must be finite, got {self.spacing}")
        self.gamma_r = self._per_qubit("gamma_r", self.gamma_r, 1.0)
        self.gamma_l = self._per_qubit("gamma_l", self.gamma_l, 1.0)
        self.delta = self._per_qubit("delta", self.delta, 0.0)
        self.positions = self._per_qubit(
            "positions", self.positions, self.spacing * np.arange(self.n, dtype=float)
        )
        for name in ("gamma_r", "gamma_l"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name}: decay rates must be non-negative")
        # Coincident positions are allowed: the idealized no-delay presets
        # place all qubits at phase distance zero.
        if np.any(np.diff(self.positions) < 0):
            raise ValueError("positions must be non-decreasing along the chain")

    def _per_qubit(self, name: str, value, default) -> np.ndarray:
        """``value`` (``default`` when None) as n finite floats, a single value
        broadcast to every qubit: the package's one per-qubit rule."""
        try:
            arr = np.array(default if value is None else value, dtype=float, ndmin=1)
        except (TypeError, ValueError):
            raise ValueError(f"{name}: expected numbers, got {value!r}") from None
        if arr.size == 1:
            arr = np.full(self.n, arr[0])
        if arr.shape != (self.n,):
            raise ValueError(f"{name} must be a scalar or length-{self.n} list, got {value!r}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite, got {value!r}")
        return arr


@dataclass
class HierarchyState:
    """The six jointly evolved blocks of an n-qubit chain, stacked as one
    (6, d, d) array on the sector basis (d = len(sector_basis(n)))."""

    n: int
    blocks: np.ndarray

    def __post_init__(self) -> None:
        d = len(sector_basis(self.n))
        b = np.asarray(self.blocks, dtype=complex)
        if b.shape != (len(BLOCK_NAMES), d, d):
            raise ValueError(
                f"a {self.n}-qubit state has {d} sector-basis states: expected shape "
                f"(6, {d}, {d}), got {b.shape}"
            )
        self.blocks = b

    @classmethod
    def ground(cls, n: int) -> "HierarchyState":
        """Initial condition: system, one- and zero-photon diagonal blocks in
        the collective ground state (basis index 0), cross blocks zero."""
        d = len(sector_basis(n))
        blocks = np.zeros((len(BLOCK_NAMES), d, d), dtype=complex)
        blocks[[BLOCK_NAMES.index(name) for name in UNIT_TRACE_BLOCKS], 0, 0] = 1.0
        return cls(n, blocks)


class RhsEvaluator:
    """Precomputed right-hand side acting on the stacked block array, with
    every block on the sector basis (:func:`~wgqed.operators.sector_basis`).

    The Liouvillian is applied as  A M + M A^dag + J_R M J_R^dag + J_L M J_L^dag
    with a drift matrix A collecting the coherent, pure-decay and directional
    cross-coupling parts, and collective emission operators
    J_dir = sum_i sqrt(gamma_i,dir) e^{i 2 pi d_i} sm_i.  This is algebraically
    identical to summing the single-qubit terms one by one, which the test
    suite's reference implementation (``tests/oracle.py``) does.

    The drive commutators are one stacked product X = g (S R - R S).  The
    sources S are [rho00, rho10, rho11, rho10^dag, rho21^dag] (the unstored
    rho01 and rho12 as adjoints), R stacks the matching weak or strong
    collective raising operators, the rows feeding the Hermitian targets get
    X + X^dag, and X is added to the targets [rho10, rho20, rho21, rho11,
    rho_s].  The one-photon drive uses the rows that feed rho10 and rho11.

    The operators are stored once, as float64 when all of them are real
    (``is_real``) and as complex128 otherwise.  Real operators applied to real
    blocks keep the arithmetic in float64, which roughly quadruples throughput
    on the larger chains; complex blocks promote them to complex.

    One evaluator maps the (n_blocks, d, d) blocks of one chain.
    :meth:`stack` joins evaluators that share mode, ``rho21_hc``, ``is_real``
    and basis into one whose operators carry a leading member axis and whose
    envelope is a vector over members; it maps (members, n_blocks, d, d)
    arrays, member by member with the same arithmetic.
    """

    # the operators :meth:`stack` and :meth:`take` carry along the member axis
    _MEMBER_ARRAYS = ("_a", "_a_h", "_jr", "_jr_h", "_jl", "_jl_h", "_bs", "_bw", "_raise")

    def __init__(
        self,
        params: ChainParams,
        pulse: GaussianPulse,
        mode: DriveMode = DriveMode.TWO_PHOTON,
        rho21_hc: bool = True,
    ) -> None:
        self.pulse = pulse
        self.mode = mode
        self.rho21_hc = rho21_hc
        n = params.n
        # Everything is built on the sector basis by bit arithmetic on the kept
        # indices; no 2^n x 2^n matrix is allocated.
        basis = sector_basis(n)
        d = len(basis)
        bits = excitation_bits(basis, n)
        masks = 1 << np.arange(n - 1, -1, -1)
        pos = np.full(2**n, -1)
        pos[basis] = np.arange(d)
        # excited[i]: kept states with qubit i + 1 excited; lowered[i]: their
        # images under sigma^-_{i+1}, which are kept too.
        excited = [np.flatnonzero(bits[:, i]) for i in range(n)]
        lowered = [pos[basis[e] ^ masks[i]] for i, e in enumerate(excited)]

        drift = np.zeros((d, d), dtype=complex)
        rate = 0.5 * (params.gamma_r + params.gamma_l)
        for i in range(n):
            drift[excited[i], excited[i]] -= 1j * params.delta[i] + rate[i]
        # Cooperative weights sqrt(gamma_iR gamma_jR) for i > j (right-movers) and
        # sqrt(gamma_iL gamma_jL) for i < j (left-movers), phases exp(-i 2 pi (d_i - d_j)).
        g_r, g_l, x = params.gamma_r, params.gamma_l, params.positions
        weight = np.sqrt(np.tril(np.outer(g_r, g_r), -1) + np.triu(np.outer(g_l, g_l), 1))
        phase = np.exp(-1j * (2.0 * np.pi * (x[:, None] - x)))
        for i, j in itertools.permutations(range(n), 2):
            # sigma^+_i sigma^-_j moves the excitation of qubit j to qubit i
            src = excited[j][bits[excited[j], i] == 0]
            drift[pos[basis[src] ^ masks[j] ^ masks[i]], src] -= weight[i, j] * phase[i, j]

        def collective(coeffs: np.ndarray) -> np.ndarray:
            """sum_i coeffs[i] sigma^-_{i+1} on the sector basis."""
            m = np.zeros((d, d), dtype=complex)
            for i in range(n):
                m[lowered[i], excited[i]] = coeffs[i]
            return m

        phases = np.exp(1j * 2.0 * np.pi * params.positions)
        jump_r = collective(np.sqrt(params.gamma_r) * phases)
        jump_l = collective(np.sqrt(params.gamma_l) * phases)
        # Collective raising operators entering the drive commutators.
        raise_strong = collective(np.sqrt(2.0 * params.gamma_r) * phases).T
        raise_weak = collective(np.sqrt(params.gamma_r) * phases).T

        mats = (drift, jump_r, jump_l, raise_strong, raise_weak)
        self.is_real = all(np.abs(m.imag).max() == 0.0 for m in mats)
        conv = (lambda m: np.ascontiguousarray(m.real)) if self.is_real else np.ascontiguousarray
        self._a = conv(drift)
        self._a_h = conv(drift.conj().T)
        self._jr = conv(jump_r)
        self._jr_h = conv(jump_r.conj().T)
        self._jl = conv(jump_l)
        self._jl_h = conv(jump_l.conj().T)
        self._bs = conv(raise_strong)
        self._bw = conv(raise_weak)

        # Drive rows: the blocks ``_direct``, then the adjoints of ``_adjoint``,
        # each with its raising operator; ``_hermitian`` rows get X + X^dag and
        # ``_order`` lists the rows in target order rho10, rho11[, rho20, rho21, rho_s].
        if mode is DriveMode.TWO_PHOTON:
            self._direct, self._adjoint, strong = slice(0, 3), [1, 4], (0, 1, 1, 0, 1)
            self._hermitian, self._order = slice(3 - rho21_hc, 5), [0, 3, 1, 2, 4]
        else:
            self._direct, self._adjoint, strong = slice(0, 1), [1], (0, 0)
            self._hermitian, self._order = slice(1, 2), [0, 1]
        self._raise = np.stack([(self._bw, self._bs)[k] for k in strong])

    @classmethod
    def stack(cls, members) -> "RhsEvaluator":
        """One evaluator stepping ``members`` together; their chains share the
        basis and they share mode, ``rho21_hc`` and ``is_real``.  Its
        ``pulse`` is None: each member keeps its own envelope."""
        if len({(m.mode, m.rho21_hc, m.is_real, m._a.shape) for m in members}) > 1:
            raise ValueError("stacked evaluators must share mode, rho21_hc, is_real and basis")
        out = cls.__new__(cls)
        out.__dict__.update(members[0].__dict__, pulse=None, _pulses=[m.pulse for m in members])
        for name in cls._MEMBER_ARRAYS:
            values = np.array([getattr(m, name) for m in members])
            # the (d, d) operators broadcast over the block axis
            setattr(out, name, values[:, None] if values.ndim == 3 else values)
        return out

    def take(self, keep) -> "RhsEvaluator":
        """The stacked evaluator of the members at indices ``keep``."""
        out = type(self).__new__(type(self))
        out.__dict__.update(self.__dict__, _pulses=[self._pulses[k] for k in keep])
        for name in self._MEMBER_ARRAYS:
            setattr(out, name, getattr(self, name)[keep])
        return out

    @property
    def drive_depth(self) -> int:
        """How many excitations the drive can add to the rows or columns of a
        block beyond the most the initial blocks hold: 0 undriven, 1 for one
        photon, 2 for two, and 3 when rho21 carries its conjugate term, which
        raises the columns of rho21 that feed the rows of rho_s."""
        if self.mode is DriveMode.TWO_PHOTON:
            return 2 + self.rho21_hc
        return 0 if self.mode is DriveMode.NONE else 1

    def __call__(self, t: float, blocks: np.ndarray) -> np.ndarray:
        """Derivative of the stacked (n_blocks, d, d) array, or of the
        (members, n_blocks, d, d) array of a stacked evaluator."""
        out = np.matmul(self._a, blocks)
        out += np.matmul(blocks, self._a_h)
        out += np.matmul(np.matmul(self._jr, blocks), self._jr_h)
        out += np.matmul(np.matmul(self._jl, blocks), self._jl_h)
        if self.mode is DriveMode.NONE:
            return out

        if self.pulse is not None:
            g = self.pulse.envelope(t)
        else:
            g = envelopes(self._pulses, t).reshape(-1, 1, 1, 1)
        if np.all(g != 0.0):
            self._add_drive(out, blocks, g, self._raise)
        elif np.any(g != 0.0):
            # a stack whose pulses have partly underflowed to 0: as alone, the
            # drive skips those members (adding 0 * X would not be a no-op
            # on their non-finite entries)
            live = np.flatnonzero(g)
            part = out[live]
            self._add_drive(part, blocks[live], g[live], self._raise[live])
            out[live] = part
        return out

    def _add_drive(self, out, blocks, g, raising) -> None:
        """Add the drive commutators with envelope ``g`` to ``out`` in place."""
        adjoints = blocks[..., self._adjoint, :, :].conj().swapaxes(-1, -2)
        sources = np.concatenate((blocks[..., self._direct, :, :], adjoints), axis=-3)
        x = np.matmul(sources, raising)
        x -= np.matmul(raising, sources)
        x *= g
        h = x[..., self._hermitian, :, :]
        h += h.conj().swapaxes(-1, -2)
        out[..., 1 : len(self._order) + 1, :, :] += x[..., self._order, :, :]
