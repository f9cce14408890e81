"""Computational basis, excitation-sector basis and qubit pairs.

Basis convention: each qubit has local basis (|g> = 0, |e> = 1) and qubit 1
is the most-significant bit, so the composite index of |g...g> is 0 and of
|e...e> is 2^N - 1.  Qubit indices are 1-based throughout.

Every state of the package lives on the *sector basis*: the ascending
computational indices with at most ``MAX_EXCITATIONS`` excited qubits.  For
N <= 3 it is the whole space.
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
# variant.  For a prepared state RhsEvaluator closes the excitation tiles its
# blocks hold under the same rules, and integrate refuses one whose closure
# exceeds the bound.
MAX_EXCITATIONS = 3

# No state is stored on the full space (176 basis states at N = 10), but the
# basis and the index tables are still built by scanning all 2^N indices, and
# no run beyond N = 10 has been checked.
MAX_QUBITS = 10


def excitation_bits(states: np.ndarray, n: int) -> np.ndarray:
    """Excitation bits of computational indices: column i is qubit i + 1."""
    return (np.asarray(states)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def sector_basis(n: int) -> np.ndarray:
    """Ascending computational indices with at most MAX_EXCITATIONS excited
    qubits (2, 4, 8, 15, 26, 42, 64, 93, 130, 176 states for n = 1..10)."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n = {n} is out of range 1..{MAX_QUBITS}")
    states = np.arange(2**n)
    return states[excitation_bits(states, n).sum(axis=1) <= MAX_EXCITATIONS]


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered qubit pairs (i, j), i < j, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), 2))
