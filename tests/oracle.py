"""Term-by-term reference right-hand side of the block hierarchy.

Each Liouvillian term and each drive coupling is built directly from the
single-qubit operators, exactly as the equations of motion are written.  The
production evaluator (:class:`wgqed.hierarchy.RhsEvaluator`) assembles the
same algebra into one sparse linear system on the entries it can reach;
the test suite checks the two against each other, so this module must stay
independent of that assembly.

The couplings are derived here, one qubit or ordered pair at a time, from the
equations in the README: the decay rate (gamma_iR + gamma_iL) / 2, the
directional weights sqrt(gamma_iR gamma_jR) (i > j) and sqrt(gamma_iL gamma_jL)
(i < j), and the phases exp(-i 2 pi (d_i - d_j)).  Of the production code this
module uses only the parameter containers (:class:`~wgqed.hierarchy.ChainParams`
for its per-qubit arrays ``gamma_r``, ``gamma_l``, ``delta`` and ``positions``,
:class:`~wgqed.hierarchy.DriveMode` for its block count), the block names
(``BLOCK_NAMES``) and the pulse envelope (:class:`~wgqed.pulse.GaussianPulse`).

Everything here works on the full 2^N space: the blocks are raw
(6, 2^N, 2^N) arrays, and the single-qubit operators are Kronecker products,
independent of the production code's bit arithmetic on the sector basis and
of its sparse assembly on the reachable tiles.  ``GROUND_TILES`` states the
tiles a ground-start evolution occupies, as measured, for the tests of the
production code's tile closure.
:func:`dense_operators` builds the evaluator's collective operators from them,
:func:`partial_trace_to_pair` is the reference for the batched pair
reduction, :func:`wootters_concurrence` for the batched concurrences, and the
excitation-sector projectors are the reference for the masked diagonal sums
that :func:`wgqed.observables.populations` uses.  :func:`symmetrized` makes
states that every permutation of the qubits leaves unchanged, and
:func:`one_photon_amplitudes` is the one-excitation amplitude ODE that the
one-photon hierarchy reduces to, at any n.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from wgqed.hierarchy import BLOCK_NAMES, ChainParams, DriveMode
from wgqed.pulse import GaussianPulse

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# One einsum subscript letter per qubit in partial_trace_to_pair.
_TRACE_LETTERS = "abcdefghij"


def _check_qubit_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"qubit index {i} out of range for a {n}-qubit chain")


def _frozen(build):
    """Cache ``build(i, n)``; its results are read-only, as every caller shares them."""

    @functools.lru_cache(maxsize=None)
    def cached(i: int, n: int) -> np.ndarray:
        _check_qubit_index(i, n)
        out = build(i, n)
        out.setflags(write=False)
        return out

    return functools.wraps(build)(cached)


@_frozen
def lowering_operator(i: int, n: int) -> np.ndarray:
    """Dense (2^n, 2^n) |g><e| on qubit i (1-based): I x ... x sigma_minus x ... x I."""
    left = np.eye(2 ** (i - 1), dtype=complex)
    right = np.eye(2 ** (n - i), dtype=complex)
    return np.kron(np.kron(left, SIGMA_MINUS), right)


@_frozen
def raising_operator(i: int, n: int) -> np.ndarray:
    """Return |e><g| acting on qubit i (adjoint of the lowering operator)."""
    return dagger(lowering_operator(i, n))


@_frozen
def number_operator(i: int, n: int) -> np.ndarray:
    """Return the excited-state projector |e><e| on qubit i."""
    left = np.eye(2 ** (i - 1), dtype=complex)
    right = np.eye(2 ** (n - i), dtype=complex)
    return np.kron(np.kron(left, np.diag([0.0, 1.0]).astype(complex)), right)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.conj().T.copy()


def partial_trace_to_pair(rho: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Reduced density matrix of qubits (i, j), i < j, of a full-space state,
    in the pair basis {|g_i g_j>, |g_i e_j>, |e_i g_j>, |e_i e_j>}."""
    _check_qubit_index(i, n)
    _check_qubit_index(j, n)
    if not i < j:
        raise ValueError(f"pair indices must satisfy i < j, got ({i}, {j})")
    rho = np.asarray(rho)
    if rho.shape != (2**n, 2**n):
        raise ValueError(f"expected shape {(2**n, 2**n)}, got {rho.shape}")
    tensor = rho.reshape((2,) * (2 * n))
    # Axes 0..n-1 index the ket factors, n..2n-1 the bra factors.
    ket = list(_TRACE_LETTERS[:n])
    bra = list(_TRACE_LETTERS[:n])  # traced qubits share the same letter on both sides
    ket[i - 1], ket[j - 1] = "w", "x"
    bra[i - 1], bra[j - 1] = "y", "z"
    subscripts = "".join(ket) + "".join(bra) + "->wxyz"
    return np.einsum(subscripts, tensor).reshape(4, 4).copy()


def decay_rate(params: ChainParams, i: int) -> float:
    """Pure-decay rate (gamma_iR + gamma_iL) / 2 of qubit i (1-based)."""
    return 0.5 * (params.gamma_r[i - 1] + params.gamma_l[i - 1])


def pair_coupling(params: ChainParams, i: int, j: int) -> tuple[float, complex]:
    """Weight and phase factor of the ordered pair (i, j), i != j, 1-based.

    Right-movers carry qubit j's emission to qubit i > j with weight
    sqrt(gamma_iR gamma_jR), left-movers to qubit i < j with weight
    sqrt(gamma_iL gamma_jL); the phase factor is exp(-i 2 pi (d_i - d_j)).
    """
    rates = params.gamma_r if i > j else params.gamma_l
    weight = np.sqrt(rates[i - 1] * rates[j - 1])
    phase = np.exp(-1j * (2.0 * np.pi * (params.positions[i - 1] - params.positions[j - 1])))
    return weight, phase


def dense_operators(params: ChainParams) -> tuple[np.ndarray, ...]:
    """The evaluator's drift, J_R, J_L and strong and weak collective raising
    operators on the full space, summed from the Kronecker-built operators."""
    n, d = params.n, 2**params.n
    drift = np.zeros((d, d), dtype=complex)
    for i in range(1, n + 1):
        drift -= (1j * params.delta[i - 1] + decay_rate(params, i)) * number_operator(i, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            w, phase = pair_coupling(params, i, j)
            drift -= w * phase * (raising_operator(i, n) @ lowering_operator(j, n))
    phases = np.exp(1j * 2.0 * np.pi * params.positions)

    def collective(rates, build):
        return sum(np.sqrt(rates[i]) * phases[i] * build(i + 1, n) for i in range(n))

    return (
        drift,
        collective(params.gamma_r, lowering_operator),
        collective(params.gamma_l, lowering_operator),
        collective(2.0 * params.gamma_r, raising_operator),
        collective(params.gamma_r, raising_operator),
    )


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
        out -= decay_rate(params, i) * (num @ rho - 2.0 * sm @ rho @ sp + rho @ num)
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
            w, phase = pair_coupling(params, i, j)
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


def wootters_concurrence(rho4: np.ndarray) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state,
    with l1 >= ... >= l4 the square roots of the eigenvalues of the hermitian
    sqrt(rho) rho~ sqrt(rho), rho~ = (sy x sy) rho* (sy x sy)."""
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    vals, vecs = np.linalg.eigh(rho4)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    eigs = np.linalg.eigvalsh(root @ flip @ rho4.conj() @ flip @ root)
    lam = np.sqrt(np.clip(eigs, 0.0, None))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# The tiles (r, c) of each block that the evolution from the ground state
# occupies, r being the excitation count of a tile's rows and c of its
# columns (ROADMAP item 2's measured occupancy for n >= 3).  Without the
# rho21 conjugate term rho21 keeps only (1, 0) and (2, 1), and rho_s only
# (0, 0), (1, 1) and (2, 2).
GROUND_TILES = {
    "rho00": {(0, 0)},
    "rho10": {(1, 0)},
    "rho11": {(0, 0), (1, 1)},
    "rho20": {(2, 0)},
    "rho21": {(0, 1), (1, 0), (1, 2), (2, 1)},
    "rho_s": {(0, 0), (1, 1), (2, 2), (2, 0), (0, 2), (3, 1), (1, 3)},
}
GROUND_TILES_WITHOUT_HC = {
    **GROUND_TILES, "rho21": {(1, 0), (2, 1)}, "rho_s": {(0, 0), (1, 1), (2, 2)}
}


def ground_tiles(mode: DriveMode, rho21_hc: bool = True) -> set[tuple[int, int, int]]:
    """(block index, r, c) of every tile the evolved blocks of ``mode`` occupy."""
    table = GROUND_TILES if rho21_hc else GROUND_TILES_WITHOUT_HC
    return {
        (b, r, c) for b, name in enumerate(BLOCK_NAMES[: mode.n_blocks]) for r, c in table[name]
    }


def tile_mask(tiles, n: int) -> np.ndarray:
    """The (6, 2^n, 2^n) mask of the full-space entries in ``tiles``."""
    count = np.array([bin(idx).count("1") for idx in range(2**n)])
    mask = np.zeros((len(BLOCK_NAMES), 2**n, 2**n), dtype=bool)
    for b, r, c in tiles:
        mask[b] |= np.outer(count == r, count == c)
    return mask


def ground_state_density(n: int) -> np.ndarray:
    """Density matrix |g...g><g...g| for an n-qubit chain on the full space."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def ground_blocks(n: int) -> np.ndarray:
    """The six blocks of the hierarchy's initial condition on the full space:
    rho00, rho11 and rho_s in the ground state, the cross blocks zero."""
    blocks = np.zeros((len(BLOCK_NAMES), 2**n, 2**n), dtype=complex)
    for name in ("rho00", "rho11", "rho_s"):
        blocks[BLOCK_NAMES.index(name)] = ground_state_density(n)
    return blocks


def hierarchy_rhs(
    blocks: np.ndarray,
    t: float,
    params: ChainParams,
    pulse: GaussianPulse,
    mode: DriveMode = DriveMode.TWO_PHOTON,
    rho21_hc: bool = True,
) -> np.ndarray:
    """Time derivative of the six full-space (6, 2^n, 2^n) blocks, in
    ``BLOCK_NAMES`` order, evolved in the given mode.

    Blocks the mode does not evolve get a zero derivative.  ``rho21_hc`` keeps
    the conjugate drive term on the rho21 row (the default); setting it False
    drops that term.
    """
    blocks = np.asarray(blocks, dtype=complex)
    d = 2**params.n
    if blocks.shape != (len(BLOCK_NAMES), d, d):
        raise ValueError(f"expected full-space blocks of shape (6, {d}, {d}), got {blocks.shape}")
    block = dict(zip(BLOCK_NAMES, blocks))
    out = np.zeros_like(blocks)
    for b in range(mode.n_blocks):
        out[b] = liouvillian(blocks[b], params)

    if mode is DriveMode.NONE:
        return out

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
    out[i10] += drive(block["rho00"], weak, include_hc=False)
    out[i11] += drive(dagger(block["rho10"]), weak, include_hc=True)

    if mode is DriveMode.TWO_PHOTON:
        i20, i21, i_s = (BLOCK_NAMES.index(k) for k in ("rho20", "rho21", "rho_s"))
        out[i20] += drive(block["rho10"], strong, include_hc=False)
        out[i21] += drive(block["rho11"], strong, include_hc=rho21_hc)
        out[i_s] += drive(dagger(block["rho21"]), strong, include_hc=True)
    return out


def symmetrized(blocks: np.ndarray, n: int) -> np.ndarray:
    """The mean of full-space (..., 2^n, 2^n) blocks over every permutation
    of the qubits.  On blocks of small integers every permutation leaves
    the mean exactly unchanged: an entry and its images sum the same
    integers, without rounding, before one division."""
    lead = blocks.ndim - 2
    tensor = blocks.reshape(blocks.shape[:lead] + (2,) * (2 * n))
    perms = list(itertools.permutations(range(n)))
    total = sum(
        tensor.transpose(
            tuple(range(lead)) + tuple(lead + p for p in perm) + tuple(lead + n + p for p in perm)
        )
        for perm in perms
    )
    return (total / len(perms)).reshape(blocks.shape)


def one_photon_amplitudes(
    params: ChainParams, pulse: GaussianPulse, dt: float, n_steps: int
) -> np.ndarray:
    """The amplitudes b_i of the one-excitation states |e_i>, one column per
    qubit, after each of ``n_steps`` RK4 steps of ``dt`` from b = 0 (row 0
    is t = 0).  They solve db/dt = A_1 b - g(t) r, with A_1 the drift on the
    one-excitation states and r_i = sqrt(gamma_iR) exp(i 2 pi d_i).  From
    the ground state the one-photon hierarchy keeps rho10 = |b><g| and
    rho11 = |b><b| + (1 - |b|^2) |g><g|, so P_e,i = |b_i|^2."""
    n = params.n
    a1 = np.diag([-(1j * params.delta[i - 1] + decay_rate(params, i)) for i in range(1, n + 1)])
    for i, j in itertools.permutations(range(1, n + 1), 2):
        weight, phase = pair_coupling(params, i, j)
        a1[i - 1, j - 1] = -weight * phase
    r = np.sqrt(params.gamma_r) * np.exp(1j * 2.0 * np.pi * params.positions)

    def rhs(t: float, b: np.ndarray) -> np.ndarray:
        return a1 @ b - pulse.envelope(t) * r

    b = np.zeros(n, dtype=complex)
    out = [b]
    for step in range(n_steps):
        t = step * dt
        k1 = rhs(t, b)
        k2 = rhs(t + 0.5 * dt, b + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, b + (0.5 * dt) * k2)
        k4 = rhs(t + dt, b + dt * k3)
        b = b + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(b)
    return np.array(out)
