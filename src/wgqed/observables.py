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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SIGMA_Y, all_pairs, partial_trace_to_pair

PAIR_NORMS = ("all-pairs", "half-n")

_SY_SY = np.kron(SIGMA_Y, SIGMA_Y)

# A spin-flip eigenvalue below this flags an invalid input state; every
# negative eigenvalue above it is clamped to zero.
EIG_INVALID = -1e-8


@dataclass(frozen=True)
class PopulationRecord:
    """Excitation-sector and per-qubit populations of one sampled state."""

    p_ground: float
    p_one: float
    p_two: float
    p_excited: tuple[float, ...]
    p_total: float


def populations(rho: np.ndarray, n: int) -> PopulationRecord:
    """Sector populations P_G, P_1, P_2 and per-qubit excited populations.

    Each is a sum of diagonal entries masked by the excitation bits of the
    basis index (qubit 1 is the most significant bit).  ``p_total`` is the
    full trace (the conserved total population).  For a single qubit P_2 is
    identically zero.
    """
    rho = np.asarray(rho)
    diag = rho.diagonal()
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    count = bits.sum(axis=1)
    p_k = [float((diag * (count == k)).sum().real) for k in range(3)]
    p_exc = tuple(float((diag * bits[:, i]).sum().real) for i in range(n))
    return PopulationRecord(
        p_ground=p_k[0],
        p_one=p_k[1],
        p_two=p_k[2] if n >= 2 else 0.0,
        p_excited=p_exc,
        p_total=float(np.real(np.trace(rho))),
    )


def spin_flip(rho4: np.ndarray) -> np.ndarray:
    """The product rho (sy x sy) rho* (sy x sy) for a two-qubit state.

    Not itself a density matrix, but its eigenvalues are real and
    non-negative up to numerical noise.
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got {rho4.shape}")
    return rho4 @ _SY_SY @ rho4.conj() @ _SY_SY


def concurrence_pair(rho4: np.ndarray, invalid_below: float | None = EIG_INVALID) -> float:
    """Wootters concurrence of a two-qubit density matrix, clamped to [0, 1].

    Spin-flip eigenvalues below ``invalid_below`` raise (the input is not a
    physical state); pass ``invalid_below=None`` to clamp unconditionally.
    The trajectory pipeline does so because the evolved equations are not a
    completely positive map and small negative excursions are inherent to
    the model (positivity is monitored separately by the integrator).
    """
    eigs = np.linalg.eigvals(spin_flip(rho4))
    eigs = np.real(eigs)
    if invalid_below is not None and eigs.min() < invalid_below:
        raise ValueError(
            f"spin-flip eigenvalue {eigs.min():.3e} below {invalid_below:.0e}; "
            "input is not a valid two-qubit density matrix"
        )
    eigs = np.sort(np.clip(eigs, 0.0, None))[::-1]
    roots = np.sqrt(eigs)
    c = roots[0] - roots[1] - roots[2] - roots[3]
    return float(min(max(c, 0.0), 1.0))


def pair_concurrences(rho: np.ndarray, n: int) -> np.ndarray:
    """Concurrence of every unordered qubit pair, in ``all_pairs(n)`` order,
    clamping negative spin-flip eigenvalues (see :func:`concurrence_pair`)."""
    return np.array(
        [concurrence_pair(partial_trace_to_pair(rho, i, j, n), None) for i, j in all_pairs(n)]
    )


def average_concurrence(pair_values: np.ndarray, n: int, norm: str = "all-pairs") -> float:
    """Average precomputed pair concurrences under the given normalization."""
    if norm not in PAIR_NORMS:
        raise ValueError(f"unknown pair normalization {norm!r}; expected {PAIR_NORMS}")
    if n < 2:
        return 0.0
    total = float(np.sum(pair_values))
    divisor = n * (n - 1) / 2.0 if norm == "all-pairs" else n / 2.0
    return total / divisor


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
