"""Computational basis, excitation-sector basis and small state helpers.

Basis convention: each qubit has local basis (|g> = 0, |e> = 1) and qubit 1
is the most-significant bit, so the composite index of |g...g> is 0 and of
|e...e> is 2^N - 1.  Qubit indices are 1-based throughout.

The hierarchy is evolved on the *sector basis*: the ascending computational
indices with at most ``MAX_EXCITATIONS`` excited qubits.  For N <= 3 it is
the whole space.
"""

from __future__ import annotations

import itertools

import numpy as np

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# From the ground state the two-photon drive never populates more than 3
# excitations.  The drift conserves excitation number, the collective jumps
# lower it, and the drive raises the row sector of its source by one.  Every
# drive source (rho00, rho10, rho01, rho11, rho12) then has rows with at most
# 2 excitations, so only rho_s reaches 3, and rho_s is never a drive source.
# Entries with more excitations start at zero and stay exactly zero, so
# dropping those basis states is exact for every drive mode and rho21
# variant.  A prepared state whose blocks already hold r excitations reaches
# r + RhsEvaluator.drive_depth, so integrate refuses one for which that sum
# exceeds the bound (and n does too).
MAX_EXCITATIONS = 3

# The initial HierarchyState is dense: six 2^N x 2^N complex blocks, 6 * 4^N
# entries, about 100 MB at N = 10.
MAX_QUBITS = 10


def excitation_bits(states: np.ndarray, n: int) -> np.ndarray:
    """Excitation bits of computational indices: column i is qubit i + 1."""
    return (np.asarray(states)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def sector_basis(n: int) -> np.ndarray:
    """Ascending computational indices with at most MAX_EXCITATIONS excited
    qubits (2, 4, 8, 15, 26, 42, 64, 93, 130, 176 states for n = 1..10)."""
    states = np.arange(2**n)
    return states[excitation_bits(states, n).sum(axis=1) <= MAX_EXCITATIONS]


def state_basis(n: int, d: int) -> np.ndarray:
    """Basis indices of a d x d state of an n-qubit chain: the full space when
    d = 2^n, the sector basis when d is its size (the two coincide for n <= 3)."""
    if d == 2**n:
        return np.arange(d)
    basis = sector_basis(n)
    if d != len(basis):
        raise ValueError(
            f"a {n}-qubit state has dimension {2**n} (full space) or {len(basis)} "
            f"(at most {MAX_EXCITATIONS} excitations), got {d}"
        )
    return basis


def ground_state_density(n: int) -> np.ndarray:
    """Density matrix |g...g><g...g| for an n-qubit chain."""
    if n < 1:
        raise ValueError("need at least one qubit")
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered qubit pairs (i, j), i < j, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), 2))
