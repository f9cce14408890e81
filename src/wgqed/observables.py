"""Populations and pairwise entanglement extracted from the system state.

Entanglement of a qubit pair is quantified by the Wootters concurrence,
C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l1 >= ... >= l4
the eigenvalues of rho (sy x sy) rho* (sy x sy).  The chain-level figure of
merit is the average of the pair concurrences over qubit pairs; two
normalizations are supported:

``all-pairs``
    divide by the number of unordered pairs N (N - 1) / 2 (default),

``half-n``
    divide by N / 2, the verbatim convention of some published curves.

For N = 2 both coincide with the plain two-qubit concurrence.

Every function taking an N-qubit state takes it on the sector basis of
:mod:`wgqed.operators` (the whole space for N <= 3); the values equal those
of the zero-padded full state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .operators import SIGMA_Y, all_pairs, excitation_bits, sector_basis

PAIR_NORMS = ("all-pairs", "half-n")

_SY_SY = np.kron(SIGMA_Y, SIGMA_Y)

# A spin-flip eigenvalue below this flags an invalid input state; every
# negative eigenvalue above it is clamped to zero.
EIG_INVALID = -1e-8


@dataclass(frozen=True)
class PopulationRecord:
    """Excitation-sector and per-qubit populations of one sampled state, or
    arrays of them over a stack of states (see :func:`populations`)."""

    p_ground: float
    p_one: float
    p_two: float
    p_excited: tuple[float, ...]
    p_total: float


@functools.lru_cache(maxsize=None)
def _population_masks(n: int) -> np.ndarray:
    """(3 + n, 2^n) masks over the full index: 0, 1 and 2 excitations, then
    the excitation bit of each qubit."""
    bits = excitation_bits(np.arange(2**n), n)
    sectors = [bits.sum(axis=1) == k for k in range(3)]
    masks = np.concatenate((sectors, bits.T)).astype(float)
    masks.setflags(write=False)  # shared by every caller through the cache
    return masks


@dataclass(frozen=True)
class _BasisTables:
    """Index tables of the n-qubit sector basis."""

    basis: np.ndarray  # computational index of each basis state
    pair_src: np.ndarray  # flat float64-view indices into the state
    pair_dst: np.ndarray  # flat float64-view indices into the (n_pairs, 4, 4) stack
    pair_stops: np.ndarray  # where each pair's indices end in pair_src and pair_dst


@functools.lru_cache(maxsize=None)
def _tables(n: int) -> _BasisTables:
    basis = sector_basis(n)
    d = len(basis)
    bits = excitation_bits(basis, n)
    pos = np.full(2**n, -1)
    pos[basis] = np.arange(d)
    masks = 1 << np.arange(n - 1, -1, -1)
    # Entry (a, b) of the reduced state of pair p sums rho[r, c] over kept
    # (r, c) that agree on every other qubit, with a and b the pair bits of r
    # and c.  Every such c is r with its two pair bits replaced.
    src, dst, stops = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], []
    for p, (i, j) in enumerate(all_pairs(n)):
        mi, mj = masks[i - 1], masks[j - 1]
        rest = basis & ~(mi | mj)
        a = 2 * bits[:, i - 1] + bits[:, j - 1]
        for b in range(4):
            c = pos[rest | (mi if b & 2 else 0) | (mj if b & 1 else 0)]
            kept = c >= 0
            src.append(np.flatnonzero(kept) * d + c[kept])
            dst.append(16 * p + 4 * a[kept] + b)
        stops.append(2 * sum(map(len, src)))
    src, dst, stops = np.concatenate(src), np.concatenate(dst), np.array(stops, dtype=int)
    # real and imaginary parts are scattered in one pass over the float64 view
    pair_src = np.stack([2 * src, 2 * src + 1], axis=1).ravel()
    pair_dst = np.stack([2 * dst, 2 * dst + 1], axis=1).ravel()
    for arr in (basis, pair_src, pair_dst, stops):
        arr.setflags(write=False)  # shared by every caller through the cache
    return _BasisTables(basis, pair_src, pair_dst, stops)


def _checked_tables(m: np.ndarray, n: int) -> _BasisTables:
    """The tables of an n-qubit state ``m``, which must be d x d on the basis
    (or a stack of such, with leading axes)."""
    tables = _tables(n)
    d = len(tables.basis)
    if m.shape[-2:] != (d, d):
        raise ValueError(
            f"a {n}-qubit state on the sector basis is {d} x {d}, got shape {m.shape}"
        )
    return tables


def full_diagonal(m: np.ndarray, n: int) -> np.ndarray:
    """Diagonal of an n-qubit state or block on the full 2^n index, zero on
    the states the sector basis drops; for a (..., d, d) stack, (..., 2^n).

    Sums over it round exactly as sums over the zero-padded full state's
    diagonal, so traces and populations do not depend on the basis.
    """
    m = np.asarray(m)
    basis = _checked_tables(m, n).basis
    diag = np.zeros(m.shape[:-2] + (2**n,), dtype=m.dtype)
    diag[..., basis] = m.diagonal(axis1=-2, axis2=-1)
    return diag


def populations(rho: np.ndarray, n: int) -> PopulationRecord:
    """Sector populations P_G, P_1, P_2 and per-qubit excited populations.

    Each is a sum of diagonal entries masked by the excitation bits of the
    basis index (qubit 1 is the most significant bit).  ``p_total`` is the
    full trace (the conserved total population).  For a single qubit P_2 is
    identically zero.

    For a (..., d, d) stack of states every field is an array over the
    leading axes (``p_excited`` with a last axis of qubits), each value the
    one its state alone gives; a single state gives floats.
    """
    diag = full_diagonal(rho, n)
    masks = _population_masks(n)
    # one row sum per mask, each along a contiguous 2^n row as for one state
    sums = (diag[..., None, :] * masks).sum(axis=-1).real
    total = diag.sum(axis=-1).real
    p_two = sums[..., 2] if n >= 2 else np.zeros_like(total)
    p_exc = sums[..., 3:]
    if diag.ndim == 1:
        return PopulationRecord(
            p_ground=float(sums[0]),
            p_one=float(sums[1]),
            p_two=float(p_two),
            p_excited=tuple(p_exc.tolist()),
            p_total=float(total),
        )
    return PopulationRecord(sums[..., 0], sums[..., 1], p_two, p_exc, total)


def pair_states(rho: np.ndarray, n: int, count: int | None = None) -> np.ndarray:
    """Reduced density matrices of every pair, stacked in ``all_pairs(n)``
    order as (n_pairs, 4, 4), or (..., n_pairs, 4, 4) for a stack of states;
    of the first ``count`` pairs only, when given.

    Each uses the pair basis ordering {|g_i g_j>, |g_i e_j>, |e_i g_j>,
    |e_i e_j>} (qubit i is the most-significant factor); traces are kept.
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    tables = _checked_tables(rho, n)
    if count is None:
        count = len(tables.pair_stops)
    stop = tables.pair_stops[count - 1] if count else 0
    lead, size = rho.shape[:-2], 32 * count
    flat = rho.reshape(-1, rho.shape[-1] ** 2).view(np.float64)
    # one scatter-add for all states, each in bins of its own and in the
    # order it has alone, so every bin sums in the same order; a pair's bins
    # sum in the same order whether the pairs before it are reduced or not
    bins = tables.pair_dst[:stop]
    if len(flat) > 1:
        bins = (bins + size * np.arange(len(flat))[:, None]).ravel()
    out = np.bincount(
        bins, weights=flat.take(tables.pair_src[:stop], axis=-1).ravel(),
        minlength=size * len(flat),
    )
    return out.view(complex).reshape(lead + (count, 4, 4))


def spin_flip(rho4: np.ndarray) -> np.ndarray:
    """The product rho (sy x sy) rho* (sy x sy) for a two-qubit state, or for
    each of a stack of them (shape (..., 4, 4)).

    Not itself a density matrix, but its eigenvalues are real and
    non-negative up to numerical noise.
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got {rho4.shape}")
    return rho4 @ _SY_SY @ rho4.conj() @ _SY_SY


def _wootters(eigs: np.ndarray) -> np.ndarray:
    """Concurrence from the spin-flip eigenvalues along the last axis,
    negative eigenvalues clamped to zero and the result to [0, 1]."""
    eigs = np.sort(np.clip(np.real(eigs), 0.0, None), axis=-1)[..., ::-1]
    roots = np.sqrt(eigs)
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    # the comparisons of max(c, 0.0) and min(c, 1.0), signed zeros included
    c = np.where(c < 0.0, 0.0, c)
    return np.where(c > 1.0, 1.0, c)


def concurrence_pair(rho4: np.ndarray, invalid_below: float | None = EIG_INVALID) -> float:
    """Wootters concurrence of a two-qubit density matrix, clamped to [0, 1].

    Spin-flip eigenvalues below ``invalid_below`` raise (the input is not a
    physical state); pass ``invalid_below=None`` to clamp unconditionally.
    The trajectory pipeline uses :func:`pair_concurrences`, which always
    clamps, because the evolved equations are not a completely positive map
    and small negative excursions are inherent to the model (positivity is
    monitored separately by the integrator).
    """
    eigs = np.real(np.linalg.eigvals(spin_flip(rho4)))
    if invalid_below is not None and eigs.min() < invalid_below:
        raise ValueError(
            f"spin-flip eigenvalue {eigs.min():.3e} below {invalid_below:.0e}; "
            "input is not a valid two-qubit density matrix"
        )
    return float(_wootters(eigs))


def pair_concurrences(rho: np.ndarray, n: int, symmetric: bool = False) -> np.ndarray:
    """Concurrence of every unordered qubit pair, in ``all_pairs(n)`` order,
    clamping negative spin-flip eigenvalues (see :func:`concurrence_pair`);
    (..., n_pairs) for a (..., d, d) stack of states.

    All pairs of all states are reduced in one scatter-add and their
    spin-flip spectra computed in one batched eigenvalue call.  A
    ``symmetric`` state, one that every permutation of the qubits leaves
    exactly unchanged, has one reduced state for every pair: then only pair
    (1, 2) is reduced, in the same order of additions, and its value
    repeated, so the result is bit for bit the one of all pairs.
    """
    n_pairs = n * (n - 1) // 2
    count = min(1, n_pairs) if symmetric else n_pairs
    c = _wootters(np.linalg.eigvals(spin_flip(pair_states(rho, n, count))))
    return c if count == n_pairs else np.repeat(c, n_pairs, axis=-1)


def average_concurrence(pair_values: np.ndarray, n: int, norm: str = "all-pairs") -> float:
    """Average precomputed pair concurrences under the given normalization;
    for (..., n_pairs) values of a stack of states, an array over the
    leading axes."""
    if norm not in PAIR_NORMS:
        raise ValueError(f"unknown pair normalization {norm!r}; expected {PAIR_NORMS}")
    values = np.asarray(pair_values)
    if n < 2:
        total = np.zeros(values.shape[:-1])
    else:
        divisor = n * (n - 1) / 2.0 if norm == "all-pairs" else n / 2.0
        total = values.sum(axis=-1) / divisor
    return float(total) if total.ndim == 0 else total


def max_concurrence(traj, norm: str = "all-pairs") -> tuple[float, float]:
    """Maximum sampled average concurrence and the time it occurs.

    Ties break toward the earliest sample.
    """
    values = traj.c_avg(norm)
    if len(values) == 0:
        raise ValueError("empty trajectory")
    idx = int(np.argmax(values))
    return float(values[idx]), float(traj.times[idx])


def survival_time(traj, theta: float = 0.05, norm: str = "all-pairs") -> float:
    """Width of the window where the average concurrence stays relevant.

    Returns t_last - t_first over samples with C(t) >= theta * C_max, or 0
    when the concurrence never rises above zero.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    values = traj.c_avg(norm)
    if len(values) == 0:
        raise ValueError("empty trajectory")
    c_max = float(np.max(values))
    if c_max <= 0.0:
        return 0.0
    above = np.nonzero(values >= theta * c_max)[0]
    return float(traj.times[above[-1]] - traj.times[above[0]])
