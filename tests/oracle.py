"""Term-by-term reference right-hand side of the block hierarchy.

Each Liouvillian term and each drive coupling is built directly from the
single-qubit operators, exactly as the equations of motion are written.  The
production evaluator (:class:`wgqed.hierarchy.RhsEvaluator`) regroups the
same algebra into a few collective operators; the test suite checks the two
against each other, so this module must stay independent of that regrouping.

The excitation-sector projectors are the reference for the masked diagonal
sums that :func:`wgqed.observables.populations` uses.
"""

from __future__ import annotations

import numpy as np

from wgqed.hierarchy import BLOCK_NAMES, ChainParams, DriveMode, HierarchyState
from wgqed.operators import dagger, lowering_operator, number_operator, raising_operator
from wgqed.pulse import GaussianPulse


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def excitation_projector(k: int, n: int) -> np.ndarray:
    """Projector onto the span of basis states with exactly k excited qubits.

    The projectors for k = 0..n are mutually orthogonal, idempotent and sum
    to the identity.
    """
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} out of range 0..{n}")
    diag = np.array([bin(idx).count("1") == k for idx in range(2**n)], dtype=float)
    return np.diag(diag).astype(complex)


def coherent_term(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """-i [H, rho] with H = sum_i delta_i |e_i><e_i|."""
    rho = np.asarray(rho, dtype=complex)
    h = sum(
        params.delta[i - 1] * number_operator(i, params.n)
        for i in range(1, params.n + 1)
    )
    return -1j * commutator(h, rho)


def pure_decay_term(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """Independent decay of each qubit into both continua.

    Lindblad-form term with per-qubit rate (gamma_iR + gamma_iL) / 2.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for i in range(1, params.n + 1):
        sm = lowering_operator(i, params.n)
        sp = raising_operator(i, params.n)
        num = sp @ sm
        out -= params.gamma_rl[i - 1] * (num @ rho - 2.0 * sm @ rho @ sp + rho @ num)
    return out


def cooperative_decay_term(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """Waveguide-mediated cross-decay between distinct qubits.

    For each ordered pair (i, j) with directional weight w_ij (right-movers
    for i > j, left-movers for i < j) and phase phi_ij the contribution is

        -w_ij [ e^{-i phi_ij} (sp_i sm_j rho - sm_j rho sp_i)
              + e^{+i phi_ij} (rho sp_j sm_i - sm_i rho sp_j) ]

    i.e. the bracket plus its superoperator conjugate, which keeps the map
    trace-annihilating (each product term cancels by trace cyclicity) and
    hermiticity-preserving.  In the fully chiral limit (gamma_L = 0) only
    i > j pairs survive and the term reduces to the standard cascaded form.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    if params.n == 1:
        return out
    sm = [lowering_operator(i, params.n) for i in range(1, params.n + 1)]
    sp = [raising_operator(i, params.n) for i in range(1, params.n + 1)]
    for i in range(1, params.n + 1):
        for j in range(1, params.n + 1):
            if i == j:
                continue
            w = params.pair_weight(i, j)
            if w == 0.0:
                continue
            phase = np.exp(-1j * params.pair_phase(i, j))
            si, sj = sm[i - 1], sm[j - 1]
            pi_, pj = sp[i - 1], sp[j - 1]
            forward = phase * (pi_ @ sj @ rho - sj @ rho @ pi_)
            conjug = np.conj(phase) * (rho @ pj @ si - si @ rho @ pj)
            out -= w * (forward + conjug)
    return out


def liouvillian(rho: np.ndarray, params: ChainParams) -> np.ndarray:
    """Sum of coherent, pure-decay and cooperative-decay terms."""
    return (
        coherent_term(rho, params)
        + pure_decay_term(rho, params)
        + cooperative_decay_term(rho, params)
    )


def drive_coupling(
    src: np.ndarray,
    i: int,
    t: float,
    scale: float,
    params: ChainParams,
    pulse: GaussianPulse,
    include_hc: bool,
) -> np.ndarray:
    """Single-qubit drive term scale * e^{i 2 pi d_i} g(t) [src, sp_i].

    When ``include_hc`` is set the hermitian conjugate of the whole matrix is
    added, as appears on the rows that evolve hermitian blocks.
    """
    src = np.asarray(src, dtype=complex)
    sp = raising_operator(i, params.n)
    phase = np.exp(1j * 2.0 * np.pi * params.positions[i - 1])
    term = scale * phase * pulse.envelope(t) * commutator(src, sp)
    if include_hc:
        term = term + term.conj().T
    return term


def hierarchy_rhs(
    state: HierarchyState,
    t: float,
    params: ChainParams,
    pulse: GaussianPulse,
    mode: DriveMode = DriveMode.TWO_PHOTON,
    rho21_hc: bool = True,
) -> HierarchyState:
    """Time derivative of all blocks evolved in the given mode.

    Blocks the mode does not evolve get a zero derivative.  ``rho21_hc`` keeps
    the conjugate drive term on the rho21 row (the default); setting it False
    drops that term.
    """
    if state.n_qubits != params.n:
        raise ValueError(
            f"state is for {state.n_qubits} qubits, params for {params.n}"
        )
    out = np.zeros_like(state.blocks)
    n_evolved = mode.n_blocks
    for b in range(n_evolved):
        out[b] = liouvillian(state.blocks[b], params)

    if mode is DriveMode.NONE:
        return HierarchyState(out)

    strong = [np.sqrt(2.0 * g) for g in params.gamma_r]  # two-photon rows
    weak = [np.sqrt(g) for g in params.gamma_r]  # one-photon rows

    def drive(src: np.ndarray, scales, include_hc: bool) -> np.ndarray:
        total = np.zeros_like(src)
        for i in range(1, params.n + 1):
            total += drive_coupling(src, i, t, scales[i - 1], params, pulse, False)
        if include_hc:
            total = total + total.conj().T
        return total

    i10, i11 = BLOCK_NAMES.index("rho10"), BLOCK_NAMES.index("rho11")
    out[i10] += drive(state.block("rho00"), weak, include_hc=False)
    out[i11] += drive(dagger(state.block("rho10")), weak, include_hc=True)

    if mode is DriveMode.TWO_PHOTON:
        i20, i21, i_s = (BLOCK_NAMES.index(k) for k in ("rho20", "rho21", "rho_s"))
        out[i20] += drive(state.block("rho10"), strong, include_hc=False)
        out[i21] += drive(state.block("rho11"), strong, include_hc=rho21_hc)
        out[i_s] += drive(dagger(state.block("rho21")), strong, include_hc=True)
    return HierarchyState(out)
