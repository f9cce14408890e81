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
  emission wavelength); :func:`sector_operators` builds the directional
  weights and phases and states their rule.

The drive enters through commutators with the collective raising operator,
scaled by sqrt(2 gamma_iR) g(t) on the two-photon rows and sqrt(gamma_iR) g(t)
on the one-photon rows.  Retardation between qubits is neglected; positions
enter only through the phases above.

From the ground state no block ever holds an entry with more than three
excited qubits, so every block lives on the sector basis of
:mod:`wgqed.operators` (the whole space for n <= 3).  Within it, only the
tiles that the evolution can reach from the initial blocks ever move (a tile
being the entries of a block whose rows hold r excitations and columns c);
:class:`RhsEvaluator` finds them by a closure over the drift, the jumps and
the drive, 398 of the 4,056 block entries at n = 5 and 1,410 of 24,576 at
n = 7.  The unit-trace blocks rho00, rho11 and rho_s are Hermitian, so only
their upper triangles (row <= column) are stored; an entry below the
diagonal is read as the conjugate of its stored transpose.  That leaves 273
entries at n = 5 and 892 at n = 7.  When the operators and the initial
blocks are unchanged by every permutation of the qubits (equal rates both
ways, one detuning and one position for all), so are the blocks at every
time, and an entry depends only on its block and on how many qubits its row
excites, its column excites and both share: its orbit.  Such a chain
evolves one stored entry per orbit, 15 at n = 2, 19 at n = 3 and 22 from
n = 4 on.  The evolved entries form one vector under one sparse linear
system (real, or complex when detunings, positions or the initial blocks
make it so).  The Liouvillian and the unit-envelope drive share one
row-by-row layout, so a right-hand side call is one gather, one product and
one row sum.

All rates, times and detunings are measured in units of a reference decay
rate (set to 1).
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import MAX_EXCITATIONS, MAX_QUBITS, excitation_bits, sector_basis
from .pulse import GaussianPulse

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
        _require_integer("n", self.n)
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


def _require_integer(name: str, value) -> None:
    """Refuse a count given as anything but an integer (2.0 included)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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


# Drive rows: (target block, source block, whether the source enters as its
# adjoint, whether the raising operator is the strong two-photon one, whether
# the target gets X + X^dag), with None standing for ``rho21_hc``.  A drive
# mode uses the rows whose target block it evolves.
_DRIVE_ROWS = (
    (1, 0, False, False, False),  # rho10 <- rho00
    (2, 1, True, False, True),  # rho11 <- rho10^dag
    (3, 1, False, True, False),  # rho20 <- rho10
    (4, 2, False, True, None),  # rho21 <- rho11
    (5, 4, True, True, True),  # rho_s <- rho21^dag
)


def _drive_rows(mode: DriveMode, rho21_hc: bool) -> list[tuple]:
    return [
        (target, source, adjoint, strong, rho21_hc if hermitian is None else hermitian)
        for target, source, adjoint, strong, hermitian in _DRIVE_ROWS
        if target < mode.n_blocks
    ]


def _read_only(cached):
    """``cached``, an array or a nesting of tuples and lists of them, made
    read-only: a cache hands it to every caller."""
    if isinstance(cached, np.ndarray):
        cached.setflags(write=False)
    elif isinstance(cached, (tuple, list)):
        for item in cached:
            _read_only(item)
    return cached


class _Moves(NamedTuple):
    """Index tables of the n-qubit sector basis, by bit arithmetic on the kept
    indices."""

    # per qubit i, the kept states with qubit i + 1 excited
    excited: list[np.ndarray]
    # (image, state, i) of sigma^-_{i+1} on every kept state it does not annihilate
    low: tuple[np.ndarray, np.ndarray, np.ndarray]
    # (image, state, i, j) of sigma^+_{i+1} sigma^-_{j+1}, i != j, likewise
    hop: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=None)
def _sector_moves(n: int) -> _Moves:
    basis = sector_basis(n)
    bits = excitation_bits(basis, n)
    masks = 1 << np.arange(n - 1, -1, -1)
    pos = np.full(2**n, -1)
    pos[basis] = np.arange(len(basis))
    excited = [np.flatnonzero(bits[:, i]) for i in range(n)]
    qubit = np.repeat(np.arange(n), [len(e) for e in excited])
    state = np.concatenate(excited)
    low = (pos[basis[state] ^ masks[qubit]], state, qubit)
    # sigma^+_i sigma^-_j moves the excitation of qubit j to qubit i
    row, i = np.nonzero(bits[state] == 0)
    src, j = state[row], qubit[row]
    hop = (pos[basis[src] ^ masks[j] ^ masks[i]], src, i, j)
    return _read_only(_Moves(excited, low, hop))


@functools.lru_cache(maxsize=None)
def _qubit_permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sector-basis index maps of swapping qubits 1 and 2 and of moving
    every qubit one place along the cycle of all n, which together generate
    every permutation of the qubits."""
    basis = sector_basis(n)
    bits = excitation_bits(basis, n)
    masks = 1 << np.arange(n - 1, -1, -1)
    swap = np.arange(n)
    swap[:2] = swap[1::-1]
    return _read_only(tuple(
        np.searchsorted(basis, bits[:, order] @ masks) for order in (swap, np.roll(np.arange(n), 1))
    ))


@functools.lru_cache(maxsize=None)
def _orbit_leads(n: int) -> np.ndarray:
    """For each entry of a flattened (d, d) block on the n-qubit sector basis,
    the flat place of the first entry of its orbit under the permutations of
    the qubits.  The orbit of the entry (A, B), A and B read as sets of
    excited qubits, is named by |A|, |B| and |A & B|."""
    basis = sector_basis(n)
    count = excitation_bits(basis, n).sum(axis=1)
    both = excitation_bits((basis[:, None] & basis).ravel(), n).sum(axis=1)
    base = MAX_EXCITATIONS + 1
    return _read_only(_first((count[:, None] + base * count).ravel() + base**2 * both))


def _first(keys: np.ndarray) -> np.ndarray:
    """For each place of ``keys`` (small non-negative integers), the first
    place that holds the same key."""
    first = np.full(int(keys.max(initial=0)) + 1, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    return first[keys]


def _orbit_spreads(blocks: np.ndarray, n: int) -> list[float]:
    """Per block, the largest |difference| between an entry and the first
    entry of its orbit: 0.0 for each block of a state that every permutation
    of the qubits leaves unchanged, NaN where an entry is not finite.  Block
    by block, so that no copy of the whole stack is made."""
    lead = _orbit_leads(n)
    return [float(np.abs(m - m[lead]).max()) for m in blocks.reshape(len(blocks), -1)]


def sector_operators(params: ChainParams) -> tuple[np.ndarray, ...]:
    """The drift A, the collective jumps J_R and J_L and the strong and weak
    collective raising operators of a chain, dense (d, d) complex on the
    sector basis.  No 2^n x 2^n matrix is allocated."""
    n = params.n
    d = len(sector_basis(n))
    moves = _sector_moves(n)
    drift = np.zeros((d, d), dtype=complex)
    rate = 0.5 * (params.gamma_r + params.gamma_l)
    for i, excited in enumerate(moves.excited):
        drift[excited, excited] -= 1j * params.delta[i] + rate[i]
    # Cooperative weights sqrt(gamma_iR gamma_jR) for i > j (right-movers) and
    # sqrt(gamma_iL gamma_jL) for i < j (left-movers), phases exp(-i 2 pi (d_i - d_j)).
    g_r, g_l, x = params.gamma_r, params.gamma_l, params.positions
    weight = np.sqrt(np.tril(np.outer(g_r, g_r), -1) + np.triu(np.outer(g_l, g_l), 1))
    phase = np.exp(-1j * (2.0 * np.pi * (x[:, None] - x)))
    target, src, i, j = moves.hop
    drift[target, src] -= (weight * phase)[i, j]
    image, state, qubit = moves.low

    def collective(coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] sigma^-_{i+1} on the sector basis."""
        m = np.zeros((d, d), dtype=complex)
        m[image, state] = coeffs[qubit]
        return m

    phases = np.exp(1j * 2.0 * np.pi * params.positions)
    return (
        drift,
        collective(np.sqrt(params.gamma_r) * phases),
        collective(np.sqrt(params.gamma_l) * phases),
        collective(np.sqrt(2.0 * params.gamma_r) * phases).T,
        collective(np.sqrt(params.gamma_r) * phases).T,
    )


# Index arrays of the system build are int32: they are the bulk of its
# memory, and touching fresh memory is most of its cost.
_INDEX = np.int32


class _Pattern(NamedTuple):
    """Where a (d, d) operator may be non-zero, row by row: entries
    ptr[k]:ptr[k + 1] are those of row k, in column order."""

    ptr: np.ndarray
    row: np.ndarray
    col: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, d: int) -> "_Pattern":
        order = np.lexsort((cols, rows))
        rows, cols = rows[order].astype(_INDEX), cols[order].astype(_INDEX)
        return cls(np.searchsorted(rows, np.arange(d + 1)).astype(_INDEX), rows, cols)


@functools.lru_cache(maxsize=None)
def _patterns(n: int) -> tuple[_Pattern, _Pattern, _Pattern]:
    """The patterns of the drift's off-diagonal part, of the lowering
    operators J and of the raising operators J^T on the n-qubit sector basis,
    for any rates, detunings and positions."""
    d = len(sector_basis(n))
    moves = _sector_moves(n)
    target, src = moves.hop[:2]
    low, high = moves.low[:2]
    return _read_only((_Pattern.of(target, src, d), _Pattern.of(low, high, d),
                       _Pattern.of(high, low, d)))


def _factors(ops: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two tables f, g of the operator entries the system is assembled from:
    a term with factor indices (p, q) has the value
    f[p] conj(f[q]) + g[p] conj(g[q]).

    In the layout :func:`_factor_offsets` names, f holds 1, the drift's
    off-diagonal part on its pattern, J_R on the lowering pattern, the weak
    and strong raising operators transposed on the lowering pattern (for
    M R) and negated on the raising pattern (for -R M), then the drift's
    diagonal and ones; g holds J_L where f holds J_R, ones and the diagonal
    where f holds the diagonal and ones, and zeros elsewhere.  A term
    (diag_left + i, diag_right + j) so is A_ii + conj(A_jj), and a jump term
    J_R J_R^* + J_L J_L^*."""
    drift, jump_r, jump_l, raise_strong, raise_weak = ops
    a, low, high = _patterns(n)
    diagonal = np.diagonal(drift)
    ones = np.ones(len(diagonal))
    f = np.concatenate((
        [1.0],
        drift[a.row, a.col],
        jump_r[low.row, low.col],
        raise_weak[low.col, low.row],
        raise_strong[low.col, low.row],
        -raise_weak[high.row, high.col],
        -raise_strong[high.row, high.col],
        diagonal,
        ones,
    ))
    g = np.zeros_like(f)
    offset = _factor_offsets(n)
    g[offset["jump"] : offset["weak_t"]] = jump_l[low.row, low.col]
    g[offset["diag_left"] :] = np.concatenate((ones, diagonal))
    return f, g


def _factor_offsets(n: int) -> dict[str, int]:
    a, low, _ = _patterns(n)
    d = len(sector_basis(n))
    sizes = (1, len(a.col)) + (len(low.col),) * 5 + (d,)
    names = ("unit", "a", "jump", "weak_t", "strong_t", "-weak", "-strong", "diag_left",
             "diag_right")
    return dict(zip(names, itertools.accumulate(sizes, initial=0)))


def _row_terms(rows: np.ndarray, pattern: _Pattern) -> tuple[np.ndarray, np.ndarray]:
    """One term per stored entry of each pattern row in ``rows``: which of
    ``rows`` it belongs to, and its place in the pattern."""
    lo = pattern.ptr[rows]
    counts = pattern.ptr[rows + 1] - lo
    which = np.repeat(np.arange(len(rows), dtype=_INDEX), counts)
    skip = np.cumsum(counts, dtype=_INDEX) - counts - lo
    return which, np.arange(len(which), dtype=_INDEX) - np.repeat(skip, counts)


def _changes(sorted_values: np.ndarray) -> np.ndarray:
    """Where a sorted array starts a new value (True at 0)."""
    out = np.empty(len(sorted_values), dtype=bool)
    out[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=out[1:])
    return out


def _closure(tiles: frozenset, n: int, rows: list[tuple]) -> frozenset:
    """Every tile (block, r, c) that the evolution reaches from ``tiles``.

    The drift keeps a tile, a jump maps (r + 1, c + 1) to (r, c), and a drive
    row maps a tile of its source (transposed when the source enters as its
    adjoint) to (r, c - 1) through S R and to (r + 1, c) through R S, adding
    the transposes on a Hermitian target.  An entry outside these tiles
    starts at zero and stays exactly zero."""
    reached, frontier = set(tiles), list(tiles)
    while frontier:
        b, r, c = frontier.pop()
        new = [(b, r - 1, c - 1)] if r and c else []
        for target, source, adjoint, _, hermitian in rows:
            if source != b:
                continue
            sr, sc = (c, r) if adjoint else (r, c)
            x = [(sr, sc - 1)] * (sc > 0) + [(sr + 1, sc)] * (sr < n)
            new += [(target, xr, xc) for xr, xc in x]
            if hermitian:
                new += [(target, xc, xr) for xr, xc in x]
        for tile in new:
            if tile not in reached:
                reached.add(tile)
                frontier.append(tile)
    return frozenset(reached)


class _Terms(NamedTuple):
    """The terms of the system's coefficients, each an entry times
    f[p] conj(f[q]) + g[p] conj(g[q]) (:func:`_factors`): the terms from
    ``merge[k]`` on (up to the next) sum to the coefficient at place
    ``at[k]`` of the system's layout, and a one-term sum is its term bit for
    bit.  Real factors give real coefficients."""

    p: np.ndarray
    q: np.ndarray
    merge: np.ndarray
    at: np.ndarray

    def coefficients(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        coeffs = f[self.p] * f[self.q].conj() + g[self.p] * g[self.q].conj()
        return np.add.reduceat(coeffs, self.merge)


class _System(NamedTuple):
    """The right-hand side of one (n, mode, rho21_hc, initial tiles,
    arithmetic, symmetry) as a sparse system x' = L0 x + g(t) L1 x on the K
    evolved entries z, independent of rates, detunings, positions and pulse:
    L0 is the Liouvillian and L1 the unit-envelope drive.

    The unit-trace blocks (rho00, rho11, rho_s) are Hermitian, so of their
    reachable entries only those with row <= column are stored; a mirrored
    entry (row > column) is the conjugate of its stored transpose.  Every
    other reachable entry is stored.  ``read`` places every entry of the
    (n_blocks, d, d) blocks in [z, conj(z), 0]: an evolved entry reads its
    own place e, a mirrored entry K plus its stored transpose's place, and
    any other entry 2K, the zero.  ``diagonal`` holds the same places for
    each block's diagonal, padded with 2K to the full 2^n index.  The
    derivative of a diagonal entry of the unit-trace blocks is real; with
    complex arithmetic its imaginary part is rounding, set to zero in the
    float64 view at the places ``imag_diagonal`` names, so the blocks stay
    exactly Hermitian.

    The coefficients are laid out row by row, every row of L0 in order and,
    when the mode drives, every row of L1 after them, a row without drive
    terms holding one zero coefficient on its own entry: row k sums the
    coefficients from ``starts[k]`` on (up to the next start), each times
    the entry ``cols`` names.  The coefficients are real or, with complex
    arithmetic, complex; then a column K + e reads conj(z[e]): a term that
    reads a mirrored entry, or an adjoint source or an X^dag term, but not
    both.  Real arithmetic never names it, as conj(z) is z.

    A ``symmetric`` system is that of a chain whose operators and initial
    blocks every permutation of the qubits leaves unchanged.  Then so are
    the blocks at every time, and the entry (block, A, B), A and B read as
    sets of excited qubits, depends only on the block, |A|, |B| and
    |A & B|: its orbit.  Such a system evolves the first stored entry of
    each orbit: row k is that entry's row of the full system, in L0 and in
    L1, its terms in the same order, none merged, and the full system's
    ``read``, ``diagonal`` and ``cols`` are mapped through the slots
    [orbit, K + orbit, 2K], so that each reads the orbit of what it read.
    Any other system evolves every stored entry, each its own orbit."""

    tiles: frozenset
    real: bool
    symmetric: bool
    shape: tuple[int, int, int]  # (n_blocks, d, d)
    stored: np.ndarray  # flat (block, row, column) place of each evolved entry
    read: np.ndarray  # (n_blocks, d, d) places in [z, conj(z), 0]
    diagonal: np.ndarray  # (n_blocks, 2^n) places of the diagonals, padded
    imag_diagonal: np.ndarray  # float64 places of the diagonals' imaginary parts (complex)
    terms: _Terms  # L0 then, when the mode drives, L1
    cols: np.ndarray
    starts: np.ndarray

    @property
    def width(self) -> int:
        """Length of the float64 entries vector: K with real arithmetic, 2K
        with complex."""
        return len(self.stored) * (1 if self.real else 2)


@functools.lru_cache(maxsize=None)
def _system(
    n: int, mode: DriveMode, rho21_hc: bool, tiles: frozenset, real: bool, symmetric: bool
) -> _System:
    if symmetric:
        # the full system is built uncached: only the quotient steps
        return _read_only(
            _orbit_quotient(_system.__wrapped__(n, mode, rho21_hc, tiles, real, False), n)
        )
    drive_rows = _drive_rows(mode, rho21_hc)
    d, nb = len(sector_basis(n)), mode.n_blocks
    unit_blocks = [k for k, name in enumerate(BLOCK_NAMES[:nb]) if name in UNIT_TRACE_BLOCKS]
    # a mirrored entry reads its stored transpose, so that tile is reachable too
    tiles = _closure(tiles | {(b, c, r) for b, r, c in tiles if b in unit_blocks}, n, drive_rows)
    b, r, c = max(tiles, key=lambda tile: max(tile[1:]), default=(0, 0, 0))
    if max(r, c) > MAX_EXCITATIONS:
        raise ValueError(
            f"from state0 the evolution would populate states with more than "
            f"{MAX_EXCITATIONS} excitations ({max(r, c)} in {BLOCK_NAMES[b]}), which the "
            f"sector basis drops"
        )
    count = excitation_bits(sector_basis(n), n).sum(axis=1)
    occupied = np.zeros((nb, MAX_EXCITATIONS + 1, MAX_EXCITATIONS + 1), dtype=bool)
    for tile in tiles:
        occupied[tile] = True
    reached = np.flatnonzero(occupied[:, count[:, None], count]).astype(_INDEX)
    blocks, i, j = (x.astype(_INDEX) for x in np.unravel_index(reached, (nb, d, d)))
    mirrored = np.isin(blocks, unit_blocks) & (i > j)
    stored = reached[~mirrored]
    size = len(stored)
    read = np.full(nb * d * d, 2 * size, dtype=_INDEX)
    read[stored] = np.arange(size, dtype=_INDEX)
    read[reached[mirrored]] = size + read[(blocks[mirrored] * d + j[mirrored]) * d + i[mirrored]]
    # the gathered column of each entry: z[e], or conj(z[e]) from [z, conj(z)]
    # with complex arithmetic (real arithmetic reads z[e] for both); -1 for
    # an entry that is not reachable
    width = size * (1 if real else 2)
    columns = np.remainder(read, width, out=np.full_like(read, -1), where=read < 2 * size)
    blocks, i, j = blocks[~mirrored], i[~mirrored], j[~mirrored]
    imag_diagonal = 2 * np.flatnonzero(np.isin(blocks, unit_blocks) & (i == j)) + 1
    a, low, high = _patterns(n)
    off = _factor_offsets(n)
    unit = off["unit"]
    # A term is (target entry, flat index of its source entry, p, q); a
    # factor in row k and column l of its pattern moves the source row (or
    # column) from k to l.  The Liouvillian A M + M A^dag + J M J^dag (J = J_R,
    # J_L) acts on every block, the jumps only on the entries whose tile
    # (b, r + 1, c + 1) is reachable; no two of its terms share a source.
    # Every stored entry has its diagonal term (0 for |g><g|), so every row
    # of L0 is stored, in order.
    entries = np.arange(size, dtype=_INDEX)
    static = [(entries, stored, off["diag_left"] + i, off["diag_right"] + j)]
    which, pos = _row_terms(i, a)
    static.append((which, stored[which] + (a.col - a.row)[pos] * d, off["a"] + pos, unit))
    which, pos = _row_terms(j, a)
    static.append((which, stored[which] + (a.col - a.row)[pos], unit, off["a"] + pos))
    above = np.pad(occupied, ((0, 0), (0, 1), (0, 1)))[:, 1:, 1:]
    fed = np.flatnonzero(above[blocks, count[i], count[j]])
    first, left = _row_terms(i[fed], low)
    second, right = _row_terms(j[fed[first]], low)
    left, which = left[second], fed[first[second]]
    source = stored[which] + (low.col - low.row)[left] * d + (low.col - low.row)[right]
    static.append((which, source, off["jump"] + left, off["jump"] + right))

    terms, cols, starts = _static_part(static, columns, size)

    # Drive X = S R - R S from the source S (or its adjoint); a Hermitian
    # target also gets X^dag, whose (i, j) term is the conjugate of X's (j, i).
    # Each copy k is one (target, conjugated) pair.
    copies, at = [], []
    for target, source, adjoint, strong, hermitian in drive_rows:
        kind = "strong" if strong else "weak"
        for conj in (False, True)[: 1 + hermitian]:
            copies.append((source, adjoint, conj, off[f"{kind}_t"], off[f"-{kind}"]))
            at.append(np.flatnonzero(blocks == target))
    if copies:  # L1 follows L0, on every row
        source, adjoint, conj, right, left = (
            np.array(column, dtype=bool if k in (1, 2) else _INDEX)
            for k, column in enumerate(zip(*copies))
        )
        copy = np.repeat(np.arange(len(copies), dtype=_INDEX), [len(x) for x in at])
        at = np.concatenate(at)
        xi = np.where(conj[copy], j[at], i[at])
        xj = np.where(conj[copy], i[at], j[at])
        which, pos = _row_terms(xj, low)  # S R: S[xi, k] R[k, xj]
        which2, pos2 = _row_terms(xi, high)  # -R S: -R[xi, k] S[k, xj]
        copy = np.concatenate((copy[which], copy[which2]))
        si = np.concatenate((xi[which], high.col[pos2]))
        sj = np.concatenate((low.col[pos], xj[which2]))
        factor = np.concatenate((right[copy[: len(which)]] + pos, left[copy[len(which) :]] + pos2))
        flip = adjoint[copy]
        src = (source[copy] * d + np.where(flip, sj, si)) * d + np.where(flip, si, sj)
        live = columns[src] >= 0  # a source outside the reachable entries is zero
        copy, src = copy[live], src[live]
        # an adjoint source or an X^dag term, not both, reads conj(z[e]) from
        # column K + e, and conj(conj(z[e])) = z[e] for a mirrored source;
        # with real arithmetic every term reads z[e]
        antilinear = (adjoint[copy] != conj[copy]) & (not real)
        drive, drive_cols, drive_starts = _drive_part(
            np.concatenate((at[which], at[which2]))[live],
            src + read.size * antilinear,
            (columns[src] + size * antilinear) % (2 * size),
            np.where(conj[copy], unit, factor[live]),
            np.where(conj[copy], factor[live], unit),
            size, len(cols),
        )
        terms = _Terms(*(np.concatenate(both, dtype=_INDEX) for both in zip(terms, drive)))
        cols, starts = np.concatenate((cols, drive_cols)), np.concatenate((starts, drive_starts))
    # the gather clips its columns, so one outside the gathered entries
    # would read a wrong entry instead of failing
    if len(cols) and not (cols.min() >= 0 and cols.max() < width):
        raise ValueError(f"system columns span [{cols.min()}, {cols.max()}], outside the "
                         f"{width} gathered entries")
    read = read.reshape(nb, d, d)
    diagonal = np.full((nb, 2**n), 2 * size, dtype=_INDEX)
    diagonal[:, sector_basis(n)] = read.diagonal(axis1=1, axis2=2)
    return _read_only(
        _System(tiles, real, False, (nb, d, d), stored, read, diagonal, imag_diagonal, terms,
                cols, starts)
    )


def _orbit_quotient(full: _System, n: int) -> _System:
    """``full`` on the first stored entry of each orbit (see :class:`_System`)."""
    size, area = len(full.stored), full.shape[1] * full.shape[2]
    block, entry = np.divmod(full.stored, area)
    lead = _first(block * area + _orbit_leads(n)[entry])
    reps = np.flatnonzero(lead == np.arange(size))
    orbit = np.searchsorted(reps, lead)
    # the place in the quotient's [z, conj(z), 0] of each place in the full one's
    slots = np.concatenate((orbit, len(reps) + orbit, [2 * len(reps)])).astype(_INDEX)
    # the representatives' rows, L0 and then L1 (the mask repeated over
    # every row), with all their places
    rows = np.flatnonzero(np.resize(lead == np.arange(size), len(full.starts)))
    bounds = np.append(full.starts, len(full.cols))
    counts = bounds[rows + 1] - bounds[rows]
    starts = np.cumsum(counts) - counts
    kept = np.repeat(bounds[rows] - starts, counts) + np.arange(counts.sum())
    place = np.full(len(full.cols), -1)
    place[kept] = np.arange(len(kept))
    on_diagonal = np.zeros(size, dtype=bool)
    on_diagonal[full.imag_diagonal // 2] = True
    return full._replace(
        symmetric=True,
        stored=full.stored[reps],
        read=slots[full.read],
        diagonal=slots[full.diagonal],
        imag_diagonal=2 * np.flatnonzero(on_diagonal[reps]) + 1,
        terms=_kept_terms(full.terms, place),
        cols=slots[full.cols[kept]].astype(np.intp),
        starts=starts,
    )


def _kept_terms(terms: _Terms, place: np.ndarray) -> _Terms:
    """``terms`` of the coefficients whose places ``place`` maps to new ones
    (the others to -1), each summed from its own terms in their order."""
    counts = np.diff(terms.merge, append=len(terms.p))
    keep = np.flatnonzero(place[terms.at] >= 0)
    first, counts = terms.merge[keep], counts[keep]
    merge = np.cumsum(counts) - counts
    kept = np.repeat(first - merge, counts) + np.arange(counts.sum())
    return _Terms(terms.p[kept], terms.q[kept], merge, place[terms.at[keep]])


def _static_part(
    groups: list[tuple], columns: np.ndarray, size: int
) -> tuple[_Terms, np.ndarray, np.ndarray]:
    """L0 from term groups each ordered by target entry, laid out row by row
    without a sort: entry e's row holds the terms of each group in turn.
    Every entry has its diagonal term, so every row holds at least one.
    Each term is its own coefficient.  Returns the terms, their ``cols``
    (the ``columns`` of their source entries) and their ``starts``."""
    counts = [np.bincount(group[0], minlength=size) for group in groups]
    total = sum(counts)
    start = np.cumsum(total) - total
    cols, p, q = (np.empty(int(total.sum()), dtype=dtype) for dtype in (np.intp, _INDEX, _INDEX))
    offset = start.copy()
    for (e, source, gp, gq), c in zip(groups, counts):
        dest = (offset - np.cumsum(c) + c)[e] + np.arange(len(e))
        cols[dest], p[dest], q[dest] = columns[source], gp, gq
        offset += c
    each = np.arange(len(cols), dtype=_INDEX)
    return _Terms(p, q, each, each), cols, start


def _drive_part(
    e, source, col, p, q, size: int, offset: int
) -> tuple[_Terms, np.ndarray, np.ndarray]:
    """L1 from its terms (target entry, what it reads, column below 2
    ``size``, p, q), the terms of a row that read the same (flat source
    position, antilinear or not) merged once into one stored coefficient,
    the coefficients of a row in the order of what they read (a stable
    sort; np.unique would import numpy.ma, a tenth of the set-up time), laid
    out on every row from place ``offset`` on, a row without drive terms
    holding one zero coefficient on its own entry.  Terms that read a
    mirrored entry and its stored transpose name one column but stay apart.
    The terms follow L0's, one to each of its ``offset`` coefficients.
    Returns the terms, their ``cols`` and their ``starts``."""
    key = e.astype(np.int64) * (int(source.max(initial=0)) + 1) + source
    order = np.argsort(key, kind="stable")
    merge = np.flatnonzero(_changes(key[order]))
    rows = e[order[merge]]
    counts = np.bincount(rows, minlength=size)
    empty = counts == 0
    held = counts + empty
    starts = np.cumsum(held) - held
    # a coefficient's place is its row's start plus its rank within the row
    at = (starts - np.cumsum(counts) + counts)[rows] + np.arange(len(rows))
    cols = np.empty(int(held.sum()), dtype=np.intp)
    cols[at] = col[order[merge]]
    cols[starts[empty]] = np.flatnonzero(empty)
    return _Terms(p[order], q[order], merge + offset, at + offset), cols, starts + offset


class RhsEvaluator:
    """The right-hand side of the hierarchy as one sparse linear system on the
    stored reachable entries of the evolved blocks.

    Every block evolves under the Liouvillian  A M + M A^dag + J_R M J_R^dag +
    J_L M J_L^dag  with a drift matrix A collecting the coherent, pure-decay
    and directional cross-coupling parts, and collective emission operators
    J_dir = sum_i sqrt(gamma_i,dir) e^{i 2 pi d_i} sm_i (:func:`sector_operators`).
    The drive adds X = g(t) (S R - R S) from a source block S (rho00, rho10,
    rho11, or the unstored rho01 and rho12 as the adjoints of rho10 and rho21)
    with the weak or strong collective raising operator R, and X + X^dag on
    the Hermitian targets.  This is algebraically identical to summing the
    single-qubit terms one by one, which the test suite's reference
    implementation (``tests/oracle.py``) does.

    A tile (block, r, c) is the set of a block's entries whose row has r
    excited qubits and whose column has c.  Starting from the tiles the
    initial blocks occupy (the ground state by default, or those of
    ``state0``), the evaluator closes them under the drift, the jumps and the
    drive rows (``system.tiles``), and every entry outside that closure stays
    exactly zero.  The stored entries of the closure, in (block, row, column)
    order, are the state it evolves: every entry of rho10, rho20 and rho21,
    and the upper triangle (row <= column) of each Hermitian unit-trace
    block rho00, rho11 and rho_s.  :meth:`entries` gathers them from blocks
    (``system.stored``), refusing a unit-trace block that is not exactly
    Hermitian, and :meth:`blocks` and :meth:`sampled` read the blocks back
    from them through one table (``system.read``), each entry below the
    diagonal the conjugate of its stored transpose.  When the operators are
    real and so are the initial blocks (``system.real``), the entries vector is
    float64 and so are the coefficients; otherwise it is the float64 view of
    the complex entries z, the coefficients are complex, and the adjoint
    sources, the X^dag terms and the reads below the diagonal read conj(z)
    (all but a read that is both, which reads z).  A state whose closure
    passes three excitations is refused, as the sector basis drops those
    states.

    The derivative is L0 x + g(t) L1 x, with L0 the Liouvillian and L1 the
    unit-envelope drive, stored together by rows: every row of L0, then every
    row of L1, a row without drive terms holding one zero coefficient.  A
    call is one gather of the entries the coefficients name (from
    [z, conj(z)] with complex arithmetic) into the evaluator's own buffer,
    one product with the coefficients and one row sum (``np.add.reduceat``);
    the L1 half of the row sums is then scaled by g(t) and the L0 half added
    to it in place.  With complex arithmetic the imaginary parts of the
    unit-trace blocks' diagonal rows, rounding only, are then set to zero.
    The structure (which entries, rows and columns) depends only on (n,
    mode, rho21_hc, initial tiles, arithmetic, symmetry) and is shared
    through a cache; the coefficients are the chain's own.

    When each of the operators is exactly unchanged by the basis permutations
    of swapping qubits 1 and 2 and of the cycle of all n qubits, which
    generate every permutation, and so are the initial blocks, the system is
    symmetric (``system.symmetric``): it evolves the first stored entry of
    each orbit (block, |A|, |B|, |A & B|) of the stored entries (A and B the
    sets of excited qubits of the row and the column), and :meth:`blocks`
    reads each orbit's value into all its entries.  :meth:`entries` of a
    symmetric system refuses blocks that are not exactly constant on the
    orbits; an evaluator built from such a ``state0`` keeps every stored
    entry.

    One evaluator maps the entries vector of one chain.  :meth:`stack` joins
    evaluators that share the structure into one whose coefficients carry a
    leading member axis and whose envelope is a vector over members; it maps
    (members, entries) arrays, row by row with the same arithmetic.
    """

    def __init__(
        self,
        params: ChainParams,
        pulse: GaussianPulse,
        mode: DriveMode = DriveMode.TWO_PHOTON,
        rho21_hc: bool = True,
        state0: HierarchyState | None = None,
    ) -> None:
        self.pulse = pulse
        self.mode = mode
        self.n = n = params.n
        n_blocks = mode.n_blocks
        ops = sector_operators(params)
        f, g = _factors(ops, n)
        real = not (np.any(f.imag) or np.any(g.imag))
        if state0 is None:
            unit = [BLOCK_NAMES.index(name) for name in UNIT_TRACE_BLOCKS]
            tiles = frozenset((b, 0, 0) for b in unit if b < n_blocks)
            symmetric = True
        else:
            if state0.n != n:
                raise ValueError("state and parameters disagree on the chain length")
            held = state0.blocks[:n_blocks]
            count = excitation_bits(sector_basis(n), n).sum(axis=1)
            b, i, j = np.nonzero(held)
            tiles = frozenset(zip(b.tolist(), count[i].tolist(), count[j].tolist()))
            real = real and not np.any(held.imag)
            symmetric = all(spread == 0.0 for spread in _orbit_spreads(held, n))
        symmetric = symmetric and all(
            np.array_equal(op[np.ix_(p, p)], op) for p in _qubit_permutations(n) for op in ops
        )
        system = self.system = _system(n, mode, rho21_hc, tiles, real, symmetric)
        if real:
            f, g = f.real, g.real
        self._v = np.zeros(len(system.cols), dtype=f.dtype)
        self._v[system.terms.at] = system.terms.coefficients(f, g)
        self._allocate()

    def _allocate(self) -> None:
        """The evaluator's own gather buffers, shaped for its coefficients:
        the gathered terms and, with complex arithmetic, [z, conj(z)]."""
        self._terms = np.empty_like(self._v)
        self._both = None
        if not self.system.real:
            self._both = np.empty(self._v.shape[:-1] + (2 * len(self.system.stored),), complex)

    @classmethod
    def stack(cls, members) -> "RhsEvaluator":
        """One evaluator stepping ``members`` together; they share the system
        structure.  Its ``pulse`` is None: each member keeps its own envelope."""
        if len({id(m.system) for m in members}) > 1:
            raise ValueError(
                "stacked evaluators must share mode, rho21_hc, basis, initial tiles, arithmetic "
                "and symmetry"
            )
        out = cls.__new__(cls)
        out.__dict__.update(
            members[0].__dict__,
            pulse=None,
            _pulses=[m.pulse for m in members],
            _v=np.stack([m._v for m in members]),
        )
        out._allocate()
        return out

    def entries(self, blocks: np.ndarray) -> np.ndarray:
        """The entries vector of blocks on the sector basis (the evolved
        prefix of ``HierarchyState.blocks``, or all of them): the stored
        entries, the upper triangles of the unit-trace blocks among them,
        one per orbit on a symmetric system.  An evolved unit-trace block
        that is not exactly its conjugate transpose is refused, as its lower
        triangle would be dropped, and so, on a symmetric system, is an
        evolved block that is not exactly constant on the orbits."""
        blocks = np.asarray(blocks)
        system = self.system
        names = BLOCK_NAMES[: system.shape[0]]
        for k, name in enumerate(names):
            if name in UNIT_TRACE_BLOCKS:
                m = blocks[k]
                err = np.abs(m - m.conj().T).max()
                if not err == 0.0:
                    raise ValueError(
                        f"{name} is not Hermitian: largest |M - M^dag| is {err:.3e}; only "
                        f"the upper triangle of a unit-trace block is evolved"
                    )
        if system.symmetric:
            for name, spread in zip(names, _orbit_spreads(blocks[: len(names)], self.n)):
                if not spread == 0.0:
                    raise ValueError(
                        f"{name} is not symmetric under permutations of the qubits: largest "
                        f"spread on an orbit is {spread:.3e}; only one entry per orbit is evolved"
                    )
        x = blocks.reshape(-1)[system.stored]
        if system.real:
            return np.ascontiguousarray(x.real)
        return x.astype(complex).view(np.float64)

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """The complex (n_blocks, d, d) blocks of one entries vector, each
        stored entry the evolved entry of its orbit, the mirrored entries the
        conjugates of their stored transposes, zero outside the reachable
        entries; (members, n_blocks, d, d) for a (members, entries) array."""
        return self._readable(x).take(self.system.read, axis=-1)

    def sampled(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What sampling reads of one entries vector, bit for bit
        :func:`~wgqed.observables.full_diagonal` of :meth:`blocks` and its
        last block, without building the others: the complex diagonals of
        the evolved blocks on the full 2^n index, (n_blocks, 2^n), and the
        complex reported block, (d, d), each one ``take``; with a leading
        axis for a (members, entries) array."""
        readable = self._readable(x)
        system = self.system
        return readable.take(system.diagonal, axis=-1), readable.take(system.read[-1], axis=-1)

    def _readable(self, x: np.ndarray) -> np.ndarray:
        """The complex [z, conj(z), 0] that ``system.read`` and
        ``system.diagonal`` place every entry in, z the evolved entries of
        ``x``, along its last axis."""
        z = x if self.system.real else x.view(complex)
        size = z.shape[-1]
        out = np.zeros(z.shape[:-1] + (2 * size + 1,), dtype=complex)
        out[..., :size] = z
        # conjugated in the entries' own arithmetic: a real entry's mirror
        # gets +0.0, not -0.0, as its imaginary part
        out[..., size:-1] = np.conjugate(z)
        return out

    def linear_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """L0 and L1 of one chain as dense real (W, W) matrices on its
        float64 entries vector (W = K with real arithmetic, 2K with
        complex), so that the derivative is L0 x + g(t) L1 x up to rounding.
        Column m is the call's gather, product and row sum applied to the
        m-th unit vector, with the rows of the unit-trace blocks' imaginary
        diagonal parts zero; L1 is zero when the mode does not drive."""
        system = self.system
        width = system.width
        both = None if system.real else np.empty((width, 2 * len(system.stored)), complex)
        rows = self._row_sums(np.eye(width), np.empty((width,) + self._v.shape, self._v.dtype),
                              both)
        if self.mode is DriveMode.NONE:
            parts = (rows, np.zeros_like(rows))
        else:
            parts = np.split(rows, 2, axis=-1)
        out = []
        for part in parts:
            if not system.real:
                part = np.ascontiguousarray(part).view(np.float64)
                part[:, system.imag_diagonal] = 0.0
            out.append(part.T)
        return out[0], out[1]

    def _row_sums(self, x: np.ndarray, terms: np.ndarray, both: np.ndarray | None) -> np.ndarray:
        """L0 x and then, when the mode drives, L1 x, row for row: one gather
        of the entries the coefficients name into ``terms`` (from
        [z, conj(z)], held in ``both``, with complex arithmetic), one product
        with the coefficients and one row sum."""
        system = self.system
        if system.real:
            x.take(system.cols, axis=-1, out=terms, mode="clip")
        else:
            z = x.view(complex)
            both[..., : z.shape[-1]] = z
            np.conjugate(z, out=both[..., z.shape[-1] :])
            both.take(system.cols, axis=-1, out=terms, mode="clip")
        terms *= self._v
        return np.add.reduceat(terms, system.starts, axis=-1)

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        """Derivative of the entries vector, or of the (members, entries)
        array of a stacked evaluator."""
        system = self.system
        rows = out = self._row_sums(x, self._terms, self._both)
        if self.mode is not DriveMode.NONE:
            if self.pulse is not None:
                g = self.pulse.envelope(t)
            else:
                g = np.array([p.envelope(t) for p in self._pulses])[:, None]
            half = rows.shape[-1] // 2
            out = rows[..., half:]  # L1 x, row for row after L0 x
            out *= g
            out += rows[..., :half]
        if system.real:
            return out
        out = out.view(np.float64)
        out.T[system.imag_diagonal] = 0.0  # faster than out[..., imag_diagonal]
        return out
