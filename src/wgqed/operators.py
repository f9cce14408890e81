"""Multi-qubit operator construction on the 2^N Hilbert space.

Basis convention: each qubit has local basis (|g> = 0, |e> = 1) and qubit 1
is the most-significant tensor factor, so the composite index of |g...g> is 0
and of |e...e> is 2^N - 1.  Qubit indices are 1-based throughout.

All functions return fresh dense complex arrays and never mutate their inputs.
"""

from __future__ import annotations

import itertools

import numpy as np

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# One einsum subscript letter per traced qubit in partial_trace_to_pair; the
# chain length is capped by this alphabet.
_TRACE_LETTERS = "abcdefghij"
MAX_QUBITS = len(_TRACE_LETTERS)


def _check_qubit_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"qubit index {i} out of range for a {n}-qubit chain")


def lowering_operator(i: int, n: int) -> np.ndarray:
    """Return |g><e| acting on qubit i of an n-qubit chain.

    Parameters
    ----------
    i : int
        Qubit index, 1-based.
    n : int
        Number of qubits in the chain.

    Returns
    -------
    np.ndarray
        Dense (2^n, 2^n) complex matrix I (x) ... (x) sigma_minus (x) ... (x) I.
    """
    _check_qubit_index(i, n)
    left = np.eye(2 ** (i - 1), dtype=complex)
    right = np.eye(2 ** (n - i), dtype=complex)
    return np.kron(np.kron(left, SIGMA_MINUS), right)


def raising_operator(i: int, n: int) -> np.ndarray:
    """Return |e><g| acting on qubit i (adjoint of the lowering operator)."""
    return dagger(lowering_operator(i, n))


def number_operator(i: int, n: int) -> np.ndarray:
    """Return the excited-state projector |e><e| on qubit i."""
    _check_qubit_index(i, n)
    left = np.eye(2 ** (i - 1), dtype=complex)
    right = np.eye(2 ** (n - i), dtype=complex)
    return np.kron(np.kron(left, np.diag([0.0, 1.0]).astype(complex)), right)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.conj().T.copy()


def ground_state_density(n: int) -> np.ndarray:
    """Density matrix |g...g><g...g| for an n-qubit chain."""
    if n < 1:
        raise ValueError("need at least one qubit")
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def partial_trace_to_pair(rho: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Reduced density matrix of qubits (i, j), tracing out the rest.

    The returned 4x4 matrix uses the pair basis ordering
    {|g_i g_j>, |g_i e_j>, |e_i g_j>, |e_i e_j>}, i.e. qubit i is the
    most-significant factor.  Trace is preserved.

    Parameters
    ----------
    rho : np.ndarray
        Density matrix of the full chain, shape (2^n, 2^n).
    i, j : int
        1-based qubit indices with i < j.
    n : int
        Chain length.
    """
    _check_qubit_index(i, n)
    _check_qubit_index(j, n)
    if not i < j:
        raise ValueError(f"pair indices must satisfy i < j, got ({i}, {j})")
    rho = np.asarray(rho)
    if rho.shape != (2**n, 2**n):
        raise ValueError(f"expected shape {(2**n, 2**n)}, got {rho.shape}")
    tensor = rho.reshape((2,) * (2 * n))
    # Axes 0..n-1 index the ket factors, n..2n-1 the bra factors.
    keep = (i - 1, j - 1)
    ket = list(_TRACE_LETTERS[:n])
    bra = list(_TRACE_LETTERS[:n])  # traced qubits share the same letter on both sides
    ket[keep[0]], ket[keep[1]] = "w", "x"
    bra[keep[0]], bra[keep[1]] = "y", "z"
    subscripts = "".join(ket) + "".join(bra) + "->wxyz"
    return np.einsum(subscripts, tensor).reshape(4, 4).copy()


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered qubit pairs (i, j), i < j, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), 2))
