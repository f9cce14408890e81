"""The sector basis and the tile closure against the dense full-space oracle.

The production code evolves and samples the hierarchy on the basis states
with at most three excitations, and evolves only the entries of the tiles
its closure reaches.  These tests check the selection rule and the closure
that make this exact on the term-by-term oracle, the evaluator's operators
against the Kronecker-built ones, and a whole short run against RK4 over the
oracle on the full space.
"""

import functools

import numpy as np
import pytest

from oracle import (
    dense_operators,
    excitation_projector,
    ground_blocks,
    ground_tiles,
    hierarchy_rhs,
    number_operator,
    one_photon_amplitudes,
    partial_trace_to_pair,
    tile_mask,
)
from wgqed.config import apply_overrides
from wgqed.hierarchy import (
    BLOCK_NAMES, UNIT_TRACE_BLOCKS, ChainParams, DriveMode, HierarchyState, RhsEvaluator,
    sector_operators,
)
from wgqed.integrator import IntegratorConfig, diagnostics, integrate, rk4_step
from wgqed.observables import average_concurrence, concurrence_pair, full_diagonal, pair_states
from wgqed.operators import all_pairs, excitation_bits, sector_basis
from wgqed.presets import PRESETS, expand_preset
from wgqed.pulse import GaussianPulse

# the whole pulse (mean 1, width 0.3) lies inside the window [0, 2]
PULSE = GaussianPulse(tbar=1.0, width=0.3)
CONFIG = IntegratorConfig(dt=4e-2, t_end=2.0, sample_every=5)
# complex arithmetic at n = 4, the float64 path at n = 5
CHAINS = {
    4: dict(delta=0.2, spacing=1 / 8),
    5: dict(gamma_r=[0.6, 0.8, 1.0, 1.2, 1.4], gamma_l=0.5),
}
RHO_S = BLOCK_NAMES.index("rho_s")


def excitations(n):
    return excitation_bits(np.arange(2**n), n).sum(axis=1)


def oracle_rk4(params, blocks, mode=DriveMode.TWO_PHOTON, rho21_hc=True):
    """RK4 over the oracle RHS on the full space: the state after every step."""

    def rhs(t, blocks):
        return hierarchy_rhs(blocks, t, params, PULSE, mode, rho21_hc)

    states = [blocks]
    for step in range(int(round(CONFIG.t_end / CONFIG.dt))):
        blocks = rk4_step(blocks, step * CONFIG.dt, CONFIG.dt, rhs)
        states.append(blocks)
    return states


@functools.lru_cache(maxsize=None)
def dense_run(n, rho21_hc=True):
    params = ChainParams(n=n, **CHAINS[n])
    return params, oracle_rk4(params, ground_blocks(n), rho21_hc=rho21_hc)


@pytest.mark.parametrize("rho21_hc", [True, False])
def test_selection_rule_is_exact(rho21_hc):
    # no entry in a row or column with more than 3 excitations ever leaves
    # 0.0; without the rho21 conjugate term rho_s stays within 2
    _, states = dense_run(4, rho21_hc)
    count = excitations(4)
    reached = 0
    for blocks in states:
        assert not np.any(blocks[:, count > 3, :]) and not np.any(blocks[:, :, count > 3])
        rho_s = blocks[RHO_S]
        if not rho21_hc:
            assert not np.any(rho_s[count > 2, :]) and not np.any(rho_s[:, count > 2])
        reached = max(reached, np.abs(rho_s[count == 3, :]).max())
    # the rule is not vacuous: the default equations do reach 3 excitations
    assert bool(reached > 1e-6) is rho21_hc


# the entries of a pair state in {gg, ge, eg, ee} outside its X shape
OFF_X = ([0, 0, 1, 1, 2, 2, 3, 3], [1, 2, 0, 3, 0, 3, 1, 2])


@pytest.mark.parametrize("preset", list(PRESETS))
def test_preset_members_keep_the_selection_rule_exactly(preset):
    # from the ground state every reported tile (r, c) has r - c even, and
    # rho_s never reaches the (3, 3) tile, so every pair state is an X
    # state; exact 0.0 on every sample through the pulse
    for cfg in expand_preset(preset):
        cfg = apply_overrides(cfg, dt=0.05, t_end=8.0, sample_every=4)
        n, mode = cfg.n, cfg.drive_mode()
        assert mode is DriveMode.TWO_PHOTON  # the reported block is rho_s
        traj = integrate(HierarchyState.ground(n), cfg.chain_params(), cfg.gaussian_pulse(),
                         mode, cfg.integrator_config(), cfg.rho21_hc, keep_states=True)
        states = np.array(traj.states)
        # the pulse did pass: one excitation, and two where there are two qubits
        assert traj.p_one.max() > 1e-3 and (n == 1 or traj.p_two.max() > 1e-6), cfg.label
        count = excitation_bits(sector_basis(n), n).sum(axis=1)
        odd = (count[:, None] - count) % 2 == 1
        assert np.all(states[:, odd] == 0.0), cfg.label
        three = count == 3
        assert np.all(states[:, three][:, :, three] == 0.0), cfg.label
        if n > 1:
            assert np.all(pair_states(states, n)[..., OFF_X[0], OFF_X[1]] == 0.0), cfg.label


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(delta=0.3, spacing=1 / 8), dict(gamma_r=0.4, gamma_l=0.0, spacing=0.2)],
)
def test_evaluator_operators_are_the_restricted_dense_ones(n, kwargs):
    # the drift, jumps and raising operators the evaluator assembles its
    # system from
    params = ChainParams(n=n, **kwargs)
    basis = sector_basis(n)
    want = [m[np.ix_(basis, basis)] for m in dense_operators(params)]
    real = all(np.abs(m.imag).max() == 0.0 for m in want)
    assert RhsEvaluator(params, PULSE).system.real is real
    got = sector_operators(params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("mode", list(DriveMode))
@pytest.mark.parametrize("rho21_hc", [True, False])
def test_ground_closure_is_the_occupancy_table(n, mode, rho21_hc):
    # 398 reachable entries at n = 5 and 1,410 at n = 7 for the default
    # equations, of which 273 and 892 are stored: the others lie below the
    # diagonal of a unit-trace block.  An asymmetric chain evolves every
    # stored entry, a symmetric one the 22 orbits of them at both n.
    for params, evolved in ((ChainParams(n=n, gamma_l=0.5), None), (ChainParams(n=n), 22)):
        fast = RhsEvaluator(params, PULSE, mode, rho21_hc)
        system = fast.system
        assert system.tiles == ground_tiles(mode, rho21_hc)
        assert system.symmetric is (evolved is not None)
        if mode is DriveMode.TWO_PHOTON and rho21_hc and n in (5, 7):
            stored, reachable = {5: (273, 398), 7: (892, 1410)}[n]
            # a stored entry reads z, a mirrored one conj(z), the others 0
            read, size = system.read, len(system.stored)
            assert ((read < size).sum(), (read < 2 * size).sum()) == (stored, reachable)
            assert len(fast.entries(HierarchyState.ground(n).blocks)) == (evolved or stored)


@pytest.mark.parametrize("n", [3, 7, 10])
@pytest.mark.parametrize(
    "kwargs, reduced",
    [(dict(), True), (dict(gamma_l=0.2), False), (dict(delta=0.2), True),
     (dict(delta=lambda n: np.linspace(0.0, 0.4, n)), False)],
)
def test_one_photon_populations_follow_the_amplitude_ode(n, kwargs, reduced):
    # one photon from the ground state puts P_e,i = |b_i|^2 and
    # C_ij = 2 |b_i b_j|, b from the n-dimensional amplitude ODE, an oracle
    # past the dense one's n = 5: on a symmetric chain (one entry per orbit,
    # one pair's spectrum), a chiral one, a uniformly detuned one (symmetric,
    # complex) and a non-uniformly detuned one (every entry, every pair).
    # The oracle steps 4 times finer; the difference is the hierarchy's RK4
    # error, at most 1.7e-10 in P_e.  A pair's concurrence is
    # 2 min(sqrt(P_i P_j), |rho_(ge,eg)|), which divides that error by
    # sqrt(P_i P_j): 6.1e-9 on the chiral chain.  pair_concurrences clamps
    # to [0, 1], so concurrences compare only where |b|^2 <= 1, as it is on
    # these chains at every sample.
    kwargs = {key: value(n) if callable(value) else value for key, value in kwargs.items()}
    params, pulse = ChainParams(n=n, **kwargs), GaussianPulse(5.0, 1.5)
    config = IntegratorConfig(dt=0.01, t_end=12.0, sample_every=25)
    assert RhsEvaluator(params, pulse, DriveMode.ONE_PHOTON).system.symmetric is reduced
    traj = integrate(HierarchyState.ground(n), params, pulse, DriveMode.ONE_PHOTON, config)
    b = one_photon_amplitudes(params, pulse, config.dt / 4, 4 * config.n_steps)
    b = b[:: 4 * config.sample_every]
    want = np.abs(b) ** 2
    assert want.max() > 3e-3  # the photon did excite the chain
    assert np.abs(traj.p_excited - want).max() < 1e-9
    assert (want.sum(axis=1) <= 1.0).all()
    pair_c = np.array([2 * np.abs(b[:, i - 1] * b[:, j - 1]) for i, j in all_pairs(n)]).T
    assert pair_c.max() > 1e-3
    assert np.abs(traj.pair_concurrence - pair_c).max() < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="verbatim drive raises with e^{+i 2 pi d_i}: in the gauge that maps positions to "
    "spacing 0 it carries e^{+i 4 pi d_i}, orthogonal to (1, ..., 1) at spacing 1/4, so the "
    "whole drive feeds the non-decaying dark states of the drift and |b|^2 grows to 21",
)
def test_one_photon_norm_stays_below_one_at_quarter_spacing():
    # one photon puts at most one excitation into the chain: P_1 = |b|^2 <= 1
    config = IntegratorConfig(dt=0.01, t_end=12.0, sample_every=25)
    traj = integrate(HierarchyState.ground(4), ChainParams(n=4, spacing=1 / 4),
                     GaussianPulse(5.0, 1.5), DriveMode.ONE_PHOTON, config)
    assert traj.p_one.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("mode", list(DriveMode))
def test_oracle_stays_on_the_closure(n, mode):
    # the term-by-term RHS of random states on the closure is exactly 0.0
    # outside it: the entries the evaluator drops never move
    rng = np.random.default_rng(n)
    params = ChainParams(n=n, **CHAINS[n])
    for rho21_hc in (True, False):
        mask = tile_mask(ground_tiles(mode, rho21_hc), n)
        blocks = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
        out = hierarchy_rhs(blocks * mask, 0.9, params, PULSE, mode, rho21_hc)
        assert np.all(out[~mask] == 0.0)


@pytest.mark.parametrize("n", [4, 5])
def test_integrate_matches_dense_oracle(n):
    params, states = dense_run(n)
    state0 = HierarchyState.ground(n)
    basis = sector_basis(n)
    assert np.array_equal(state0.blocks, ground_blocks(n)[:, basis[:, None], basis])
    state0.blocks.setflags(write=False)  # integrate only reads it
    traj = integrate(state0, params, PULSE, DriveMode.TWO_PHOTON, CONFIG, keep_states=True)
    samples = states[:: CONFIG.sample_every]
    assert len(traj) == len(samples)
    gamma_ref = float(params.gamma_r[0])
    columns = {name: [] for name in (
        "p_ground", "p_one", "p_two", "p_total", "p_excited", "pair_concurrence",
        "c_avg_all_pairs", "c_avg_half_n", "pulse_intensity", "trace_err", "herm_err",
        "zero_block_trace", "min_eigenvalue",
    )}
    for k, blocks in enumerate(samples):
        rho = blocks[RHO_S]
        sector = [np.trace(excitation_projector(m, n) @ rho).real for m in range(3)]
        pair_c = [concurrence_pair(partial_trace_to_pair(rho, i, j, n), None)
                  for i, j in all_pairs(n)]
        kept = blocks[:, basis[:, None], basis]
        diag = diagnostics(full_diagonal(kept, n), kept[RHO_S], n)
        # the oracle's unit-trace blocks are Hermitian to rounding, everywhere
        herm_err = max(np.abs(blocks[k] - blocks[k].conj().T).max()
                       for k, name in enumerate(BLOCK_NAMES) if name in UNIT_TRACE_BLOCKS)
        for name, value in (
            ("p_ground", sector[0]), ("p_one", sector[1]), ("p_two", sector[2]),
            ("p_total", np.trace(rho).real),
            ("p_excited", [np.trace(number_operator(i, n) @ rho).real
                           for i in range(1, n + 1)]),
            ("pair_concurrence", pair_c),
            ("c_avg_all_pairs", average_concurrence(pair_c, n, "all-pairs")),
            ("c_avg_half_n", average_concurrence(pair_c, n, "half-n")),
            ("pulse_intensity", PULSE.drive_intensity(gamma_ref, traj.times[k])),
            ("trace_err", diag.trace_err), ("herm_err", herm_err),
            ("zero_block_trace", diag.zero_block_trace),
            ("min_eigenvalue", np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]),
        ):
            columns[name].append(value)
        assert np.abs(traj.states[k] - rho[np.ix_(basis, basis)]).max() < 1e-10
    assert np.allclose(traj.times, CONFIG.dt * CONFIG.sample_every * np.arange(len(traj)))
    assert traj.c_avg_all_pairs.max() > 1e-4  # the pulse did entangle the chain
    for name, want in columns.items():
        assert np.abs(getattr(traj, name) - np.array(want)).max() < 1e-10, name


def test_state_outside_the_sector_basis_is_refused():
    # weight on |1111><1111| has no place on the 15-state basis of 4 qubits:
    # the full 16-state stack is refused as a shape
    blocks = ground_blocks(4)
    blocks[RHO_S][15, 15] = 1e-3
    with pytest.raises(ValueError, match=r"expected shape \(6, 15, 15\), got \(6, 16, 16\)"):
        HierarchyState(4, blocks)


@pytest.mark.parametrize(
    "mode, rho21_hc, reach",
    [(DriveMode.ONE_PHOTON, True, 2), (DriveMode.TWO_PHOTON, False, 3),
     (DriveMode.TWO_PHOTON, True, 4)],
)
def test_prepared_state_is_evolved_exactly_or_refused(mode, rho21_hc, reach):
    # qubit 1 starts excited: the evaluator's closure reaches as many
    # excitations as the oracle does, and integrate evolves the state exactly
    # when that stays within 3 and refuses it otherwise
    n, count, basis = 4, excitations(4), sector_basis(4)
    params = ChainParams(n=n)
    dense = ground_blocks(n)
    for name in ("rho00", "rho11", "rho_s"):
        block = dense[BLOCK_NAMES.index(name)]
        block[0, 0], block[8, 8] = 0.0, 1.0  # |eggg><eggg|
    state = HierarchyState(n, dense[:, basis[:, None], basis])
    states = [b[: mode.n_blocks] for b in oracle_rk4(params, dense, mode, rho21_hc)]
    assert max(count[np.any(b, axis=(0, 1)) | np.any(b, axis=(0, 2))].max() for b in states) == reach
    if reach > 3:
        with pytest.raises(ValueError, match="more than 3 excitations"):
            integrate(state, params, PULSE, mode, CONFIG, rho21_hc)
        return
    tiles = RhsEvaluator(params, PULSE, mode, rho21_hc, state).system.tiles
    assert max(max(r, c) for _, r, c in tiles) == reach
    traj = integrate(state, params, PULSE, mode, CONFIG, rho21_hc, keep_states=True)
    reported = mode.n_blocks - 1
    for k, blocks in enumerate(states[:: CONFIG.sample_every]):
        assert np.abs(traj.states[k] - blocks[reported][np.ix_(basis, basis)]).max() < 1e-10
    assert traj.p_two.max() > 1e-3  # the drive added to the prepared excitation
