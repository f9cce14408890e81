import re

import numpy as np
import pytest

from oracle import (
    coherent_term,
    cooperative_decay_term,
    dagger,
    drive_coupling,
    ground_state_density,
    ground_tiles,
    hierarchy_rhs,
    liouvillian,
    lowering_operator,
    pure_decay_term,
    raising_operator,
    symmetrized,
    tile_mask,
)
from wgqed.hierarchy import (
    BLOCK_NAMES, UNIT_TRACE_BLOCKS, ChainParams, DriveMode, HierarchyState, RhsEvaluator,
    sector_operators,
)
from wgqed.integrator import IntegratorConfig, integrate
from wgqed.observables import full_diagonal
from wgqed.operators import sector_basis
from wgqed.pulse import GaussianPulse


def random_state(rng, n):
    """Random full-space blocks, the oracle's input format (on the sector
    basis too for n <= 3)."""
    d = 2**n
    return rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))


def block(blocks, name):
    return blocks[BLOCK_NAMES.index(name)]


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


def random_prepared_state(rng, n):
    """``random_state`` with Hermitian unit-trace blocks, the only ones the
    evaluator takes: rho00, rho11 and rho_s from ``random_hermitian``."""
    s = random_state(rng, n)
    for name in UNIT_TRACE_BLOCKS:
        s[BLOCK_NAMES.index(name)] = random_hermitian(rng, 2**n)
    return s


def random_symmetric_state(rng, n):
    """Random full-space blocks that every permutation of the qubits leaves
    exactly unchanged, with Hermitian unit-trace blocks: small integers
    (Hermitian where they must be) averaged over the permutations."""
    d = 2**n
    s = rng.integers(-9, 10, (6, d, d)) + 1j * rng.integers(-9, 10, (6, d, d))
    for name in UNIT_TRACE_BLOCKS:
        k = BLOCK_NAMES.index(name)
        s[k] = s[k] + s[k].conj().T
    return symmetrized(s, n)


PULSE = GaussianPulse(tbar=1.0, width=0.7)


class TestChainParams:
    def test_scalar_broadcast_and_defaults(self):
        p = ChainParams(n=3, gamma_r=0.5)
        assert np.allclose(p.gamma_r, [0.5, 0.5, 0.5])
        assert np.allclose(p.gamma_l, 1.0)
        assert np.allclose(p.delta, 0.0)
        assert np.allclose(p.positions, 0.0)

    def test_uniform_grid_positions(self):
        p = ChainParams(n=4, spacing=0.25)
        assert np.allclose(p.positions, [0.0, 0.25, 0.5, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainParams(n=0)
        with pytest.raises(ValueError):
            ChainParams(n=2, gamma_r=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ChainParams(n=2, gamma_r=-0.1)
        with pytest.raises(ValueError):
            ChainParams(n=2, positions=[1.0, 0.5])
        with pytest.raises(ValueError, match="n = 11"):
            ChainParams(n=11)  # beyond operators.MAX_QUBITS
        for name, value in (("gamma_l", np.inf), ("delta", np.nan), ("spacing", np.inf)):
            with pytest.raises(ValueError, match=name):
                ChainParams(n=2, **{name: value})

    def test_directional_weights(self):
        # basis |gg>, |ge>, |eg>, |ee>: sp_2 sm_1 takes |eg> to |ge>
        drift = sector_operators(ChainParams(n=2, gamma_r=4.0, gamma_l=0.25))[0]
        assert drift[1, 2] == pytest.approx(-4.0)   # right-movers, i = 2 > j = 1
        assert drift[2, 1] == pytest.approx(-0.25)  # left-movers, i = 1 < j = 2


class TestCoherentTerm:
    def test_zero_detuning(self):
        rng = np.random.default_rng(0)
        p = ChainParams(n=2)
        assert np.allclose(coherent_term(random_hermitian(rng, 4), p), 0.0)

    def test_single_qubit_phase_rotation(self):
        p = ChainParams(n=1, delta=0.5)
        coherence = np.zeros((2, 2), dtype=complex)
        coherence[1, 0] = 1.0  # |e><g|
        out = coherent_term(coherence, p)
        assert np.allclose(out, -1j * 0.5 * coherence)

    def test_traceless(self):
        rng = np.random.default_rng(1)
        p = ChainParams(n=3, delta=[0.1, -0.4, 0.9])
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert abs(np.trace(coherent_term(m, p))) < 1e-12


class TestPureDecayTerm:
    def test_ground_state_dark(self):
        p = ChainParams(n=3)
        assert np.allclose(pure_decay_term(ground_state_density(3), p), 0.0)

    def test_single_qubit_rates(self):
        p = ChainParams(n=1)  # gamma_r = gamma_l = 1, prefactor 1
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = pure_decay_term(excited, p)
        expected = np.diag([2.0, -2.0]).astype(complex)
        assert np.allclose(out, expected)

    def test_traceless_on_hermitian(self):
        rng = np.random.default_rng(2)
        p = ChainParams(n=2, gamma_r=[0.3, 2.0], gamma_l=[1.1, 0.0])
        assert abs(np.trace(pure_decay_term(random_hermitian(rng, 4), p))) < 1e-12


class TestCooperativeDecayTerm:
    def test_single_qubit_zero(self):
        p = ChainParams(n=1)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(cooperative_decay_term(m, p), 0.0)

    def test_superradiant_and_dark_states(self):
        # equal rates, no phases: the symmetric single-excitation state decays
        # at twice the independent rate, the antisymmetric one is dark
        p = ChainParams(n=2)
        sym = np.zeros(4, dtype=complex)
        sym[1] = sym[2] = 1 / np.sqrt(2)
        anti = np.zeros(4, dtype=complex)
        anti[1], anti[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        rho_sym = np.outer(sym, sym.conj())
        rho_anti = np.outer(anti, anti.conj())
        total_sym = pure_decay_term(rho_sym, p) + cooperative_decay_term(rho_sym, p)
        total_anti = pure_decay_term(rho_anti, p) + cooperative_decay_term(rho_anti, p)
        # d<S|rho|S>/dt = -4 gamma_RL, everything recycled into the ground state
        assert total_sym[1, 1] == pytest.approx(-2.0)
        assert total_sym[0, 0] == pytest.approx(4.0)
        assert np.allclose(total_anti, 0.0, atol=1e-14)

    def test_traceless_for_any_input(self):
        rng = np.random.default_rng(4)
        p = ChainParams(n=3, gamma_r=[1.0, 0.5, 2.0], gamma_l=[0.2, 0.8, 0.1], spacing=0.37)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert abs(np.trace(cooperative_decay_term(m, p))) < 1e-12

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(5)
        p = ChainParams(n=2, gamma_r=2.0, gamma_l=0.3, spacing=0.21)
        h = random_hermitian(rng, 4)
        out = cooperative_decay_term(h, p)
        assert np.allclose(out, out.conj().T)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(cooperative_decay_term(m.conj().T, p),
                           cooperative_decay_term(m, p).conj().T)

    def test_chiral_limit_is_cascaded(self):
        # gamma_L = 0: only downstream (i > j) pairs contribute; compare
        # against the cascaded expression built by hand for three qubits
        rng = np.random.default_rng(6)
        gr = [1.3, 0.6, 2.1]
        p = ChainParams(n=3, gamma_r=gr, gamma_l=0.0, spacing=0.11)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        expected = np.zeros_like(m)
        for i in range(1, 4):
            for j in range(1, i):
                w = np.sqrt(gr[i - 1] * gr[j - 1])
                phase = np.exp(-1j * 2 * np.pi * (p.positions[i - 1] - p.positions[j - 1]))
                sp_i, sm_j = raising_operator(i, 3), lowering_operator(j, 3)
                sp_j, sm_i = raising_operator(j, 3), lowering_operator(i, 3)
                expected -= w * (
                    phase * (sp_i @ sm_j @ m - sm_j @ m @ sp_i)
                    + np.conj(phase) * (m @ sp_j @ sm_i - sm_i @ m @ sp_j)
                )
        assert np.allclose(cooperative_decay_term(m, p), expected, atol=1e-12)


class TestDriveCoupling:
    def test_zero_envelope(self):
        p = ChainParams(n=2)
        out = drive_coupling(ground_state_density(2), 1, 1e6, 1.0, p, PULSE, True)
        assert np.allclose(out, 0.0)

    def test_seeds_single_coherence_from_ground(self):
        p = ChainParams(n=2)
        g = PULSE.envelope(1.0)
        out = drive_coupling(ground_state_density(2), 1, 1.0, 1.0, p, PULSE, False)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 0] = -g  # -|e1 g2><g g| from [\rho00, sp_1]
        assert np.allclose(out, expected)

    def test_traceless(self):
        rng = np.random.default_rng(7)
        p = ChainParams(n=2, spacing=0.4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for hc in (False, True):
            out = drive_coupling(m, 2, 0.8, np.sqrt(2.0), p, PULSE, hc)
            assert abs(np.trace(out)) < 1e-12


class TestInitialState:
    def test_single_qubit(self):
        s = HierarchyState.ground(1)
        assert np.allclose(block(s.blocks, "rho_s"), np.diag([1.0, 0.0]))

    def test_three_qubits_single_entry(self):
        s = HierarchyState.ground(3)
        for name in ("rho00", "rho11", "rho_s"):
            m = block(s.blocks, name)
            assert m[0, 0] == 1.0
            assert np.count_nonzero(m) == 1
        for name in ("rho10", "rho20", "rho21"):
            assert np.count_nonzero(block(s.blocks, name)) == 0

    def test_shape_is_that_of_the_sector_basis(self):
        s = HierarchyState.ground(10)
        assert s.n == 10 and s.blocks.shape == (6, 176, 176)
        assert np.count_nonzero(s.blocks) == 3
        for n, shape in ((4, (6, 16, 16)), (4, (5, 15, 15)), (2, (6, 8, 8)), (7, (6, 64, 63))):
            with pytest.raises(ValueError, match=f"{n}-qubit state has"):
                HierarchyState(n, np.zeros(shape))
        assert HierarchyState(4, np.zeros((6, 15, 15))).blocks.dtype == complex

    def test_invariants_exact(self):
        s = HierarchyState.ground(2)
        for name in ("rho00", "rho11", "rho_s"):
            m = block(s.blocks, name)
            assert np.trace(m) == 1.0
            assert np.array_equal(m, m.conj().T)


class TestHierarchyRhs:
    def test_none_mode_is_bare_liouvillian(self):
        rng = np.random.default_rng(8)
        p = ChainParams(n=2, gamma_r=0.7, gamma_l=1.2, delta=0.3)
        s = random_state(rng, 2)
        out = hierarchy_rhs(s, 0.5, p, PULSE, DriveMode.NONE)
        assert np.allclose(block(out, "rho00"), liouvillian(block(s, "rho00"), p))
        for name in BLOCK_NAMES[1:]:
            assert np.allclose(block(out, name), 0.0)

    def test_all_blocks_traceless(self):
        rng = np.random.default_rng(9)
        p = ChainParams(n=2, spacing=0.15, delta=0.2)
        s = random_state(rng, 2)
        out = hierarchy_rhs(s, 0.9, p, PULSE, DriveMode.TWO_PHOTON)
        for name in BLOCK_NAMES:
            assert abs(np.trace(block(out, name))) < 1e-11

    def test_row_couplings_and_sources(self):
        # each driven row uses its documented source block, strength and
        # conjugate-term structure
        rng = np.random.default_rng(10)
        p = ChainParams(n=2, gamma_r=[0.8, 1.7], spacing=0.05)
        s = random_state(rng, 2)
        t = 1.2
        g = PULSE.envelope(t)
        out = hierarchy_rhs(s, t, p, PULSE, DriveMode.TWO_PHOTON)
        phases = np.exp(1j * 2 * np.pi * p.positions)
        b_strong = sum(
            np.sqrt(2 * p.gamma_r[i]) * phases[i] * raising_operator(i + 1, 2) for i in range(2)
        )
        b_weak = sum(
            np.sqrt(p.gamma_r[i]) * phases[i] * raising_operator(i + 1, 2) for i in range(2)
        )
        rho00, rho10, rho11, rho20, rho21, rho_s = s
        x10 = g * (rho00 @ b_weak - b_weak @ rho00)
        assert np.allclose(block(out, "rho10"), liouvillian(rho10, p) + x10)
        x20 = g * (rho10 @ b_strong - b_strong @ rho10)
        assert np.allclose(block(out, "rho20"), liouvillian(rho20, p) + x20)
        x11 = g * (dagger(rho10) @ b_weak - b_weak @ dagger(rho10))
        assert np.allclose(block(out, "rho11"), liouvillian(rho11, p) + x11 + x11.conj().T)
        x21 = g * (rho11 @ b_strong - b_strong @ rho11)
        assert np.allclose(block(out, "rho21"), liouvillian(rho21, p) + x21 + x21.conj().T)
        xs = g * (dagger(rho21) @ b_strong - b_strong @ dagger(rho21))
        assert np.allclose(block(out, "rho_s"), liouvillian(rho_s, p) + xs + xs.conj().T)

    def test_rho21_hc_flag_drops_conjugate_term(self):
        rng = np.random.default_rng(11)
        p = ChainParams(n=2)
        s = random_state(rng, 2)
        t = 1.0
        with_hc = hierarchy_rhs(s, t, p, PULSE, DriveMode.TWO_PHOTON, rho21_hc=True)
        without = hierarchy_rhs(s, t, p, PULSE, DriveMode.TWO_PHOTON, rho21_hc=False)
        g = PULSE.envelope(t)
        b_strong = sum(
            np.sqrt(2.0) * raising_operator(i, 2) for i in (1, 2)
        )
        rho11 = block(s, "rho11")
        x21 = g * (rho11 @ b_strong - b_strong @ rho11)
        assert np.allclose(block(with_hc, "rho21") - block(without, "rho21"), x21.conj().T)
        assert np.allclose(block(with_hc, "rho_s"), block(without, "rho_s"))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mode", list(DriveMode))
    def test_unit_trace_derivatives_are_hermitian(self, n, mode):
        # the evaluator stores only the upper triangles of rho00, rho11 and
        # rho_s, so their hermiticity is checked here on the equations: the
        # oracle's full derivative of Hermitian unit-trace blocks (the others
        # general) is Hermitian
        rng = np.random.default_rng(30 + n)
        cases = [
            dict(),
            dict(gamma_r=[0.4 + 0.3 * k for k in range(n)], gamma_l=0.0),  # chiral
            dict(gamma_l=0.6, delta=[0.3 * k - 0.2 for k in range(n)]),  # detuned
            dict(spacing=1 / 16),
        ]
        for kwargs in cases:
            p = ChainParams(n=n, **kwargs)
            for hc in (True, False):
                out = hierarchy_rhs(random_prepared_state(rng, n), 0.9, p, PULSE, mode, hc)
                for name in UNIT_TRACE_BLOCKS:
                    m = block(out, name)
                    assert np.abs(m - m.conj().T).max() < 1e-13

    def test_one_photon_mode_freezes_upper_blocks(self):
        rng = np.random.default_rng(12)
        p = ChainParams(n=2)
        s = random_state(rng, 2)
        one = hierarchy_rhs(s, 0.7, p, PULSE, DriveMode.ONE_PHOTON)
        two = hierarchy_rhs(s, 0.7, p, PULSE, DriveMode.TWO_PHOTON)
        for name in ("rho00", "rho10", "rho11"):
            assert np.allclose(block(one, name), block(two, name))
        for name in ("rho20", "rho21", "rho_s"):
            assert np.allclose(block(one, name), 0.0)


class TestFastEvaluator:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("mode", list(DriveMode))
    def test_matches_reference(self, n, mode):
        # random full-space states with Hermitian unit-trace blocks for
        # n <= 3; for n = 4, 5 such states on the tiles a ground-start run
        # occupies, which the oracle keeps (see test_sector.py), compared on
        # the sector basis
        rng = np.random.default_rng(n * 13 + 1)
        cases = [
            dict(),
            dict(gamma_r=[0.4 + 0.2 * k for k in range(n)], gamma_l=0.6, delta=0.3),
            dict(spacing=1 / 16),
            dict(gamma_l=0.0),
        ]
        basis = sector_basis(n)
        for kwargs in cases:
            p = ChainParams(n=n, **kwargs)
            for hc in (True, False):
                s = random_prepared_state(rng, n)
                if n > 3:
                    s *= tile_mask(ground_tiles(mode, hc), n)
                want = hierarchy_rhs(s, 0.9, p, PULSE, mode, rho21_hc=hc)
                s, want = (m[:, basis[:, None], basis] for m in (s, want))
                fast = RhsEvaluator(p, PULSE, mode, rho21_hc=hc, state0=HierarchyState(n, s))
                got = fast.blocks(fast(0.9, fast.entries(s)))
                assert np.abs(want[: mode.n_blocks] - got).max() < 1e-12

    def test_real_dtype_path_matches_complex(self):
        # real operators and real blocks step the float64 entries; blocks with
        # an imaginary part step the float64 view of the complex entries.
        # Of the 96 block entries, the 6 below the diagonal of each of the
        # three unit-trace blocks are not stored.
        p = ChainParams(n=2)
        pulse = GaussianPulse(tbar=1.0, width=0.5)
        rng = np.random.default_rng(21)
        prepared = random_prepared_state(rng, 2)
        blocks = prepared.real
        real = RhsEvaluator(p, pulse, state0=HierarchyState(2, blocks))
        promoted = RhsEvaluator(p, pulse, state0=HierarchyState(2, prepared))
        assert real.system.real and promoted.system.real is False
        x, y = real.entries(blocks), promoted.entries(blocks)
        assert x.dtype == y.dtype == np.float64 and (len(x), len(y)) == (78, 156)
        real_out = real.blocks(real(0.8, x))
        complex_out = promoted.blocks(promoted(0.8, y))
        assert np.abs(complex_out - real_out).max() < 1e-13
        want = hierarchy_rhs(blocks, 0.8, p, pulse, DriveMode.TWO_PHOTON)
        assert np.abs(want - real_out).max() < 1e-12

    @pytest.mark.parametrize("mode", list(DriveMode))
    @pytest.mark.parametrize("hc", [True, False])
    @pytest.mark.parametrize("n", [2, 4])
    def test_complex_arithmetic_keeps_the_real_layout(self, n, hc, mode):
        # a complex prepared state on the ground closure's tiles of a real
        # chain: its row starts are the real system's and every column is a
        # real one, as it is or + N for a term that reads conj(x): in L0 a
        # read of a mirrored entry, term for term, and in L1 also the
        # antilinear terms, which stay apart from the linear ones, so an L1
        # row names the set of the real row's columns, and at least one row
        # names one + N
        p = ChainParams(n=n, gamma_l=0.5)
        real = RhsEvaluator(p, PULSE, mode, hc).system
        rng = np.random.default_rng(n)
        size = len(real.stored)
        blocks = np.zeros((6,) + real.shape[1:], dtype=complex)
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        blocks[: len(real.read)] = np.concatenate((z, z.conj(), [0.0]))[real.read]
        system = RhsEvaluator(p, PULSE, mode, hc, HierarchyState(n, blocks)).system
        assert not system.real and system.tiles == real.tiles
        assert np.array_equal(system.stored, real.stored)
        assert np.array_equal(system.read, real.read)
        assert np.array_equal(system.starts[:size], real.starts[:size])
        if mode is DriveMode.NONE:
            assert np.array_equal(system.cols % size, real.cols)
            return

        def drive_rows(s):
            first = s.starts[size]
            return s.cols[:first], np.split(s.cols[first:], s.starts[size + 1:] - first)

        (got_static, got_rows), (want_static, want_rows) = drive_rows(system), drive_rows(real)
        assert np.array_equal(got_static % size, want_static)
        for got, want in zip(got_rows, want_rows, strict=True):
            assert np.array_equal(np.unique(got % size), np.unique(want))
        assert np.concatenate(got_rows).max() >= size

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("mode", list(DriveMode))
    @pytest.mark.parametrize(
        "kwargs, real", [(dict(), True), (dict(), False), (dict(delta=0.3, spacing=1 / 8), False)]
    )
    def test_entries_and_blocks_round_trip_bit_for_bit(self, n, mode, kwargs, real):
        # Hermitian unit-trace blocks, the others general, on the ground
        # closure's tiles of the mode (undriven, on every tile), real (real
        # arithmetic) or complex: entries keeps the upper triangles, and
        # blocks and sampled read each mirrored entry as the conjugate of its
        # stored transpose and zero off the tiles, the prepared blocks their
        # reference
        rng = np.random.default_rng(40 + n)
        basis = sector_basis(n)
        tiles = ground_tiles(mode)
        if mode is DriveMode.NONE:
            tiles = {(0, r, c) for r in range(4) for c in range(4)}
        mask = tile_mask(tiles, n)[:, basis[:, None], basis]
        prepared = random_prepared_state(rng, n)[:, basis[:, None], basis]
        b = np.where(mask, prepared.real if real else prepared, 0.0).astype(complex)
        fast = RhsEvaluator(ChainParams(n=n, **kwargs), PULSE, mode, state0=HierarchyState(n, b))
        assert fast.system.real is real
        b = b[: mode.n_blocks]
        x = fast.entries(b)
        assert fast.blocks(x).tobytes() == b.tobytes()
        # a stack of entries vectors reads the same way
        assert fast.blocks(np.stack([x, x]))[1].tobytes() == b.tobytes()
        # sampling gathers the diagonals and the reported block alone
        diagonals, reported = fast.sampled(np.stack([x, x]))
        assert diagonals[1].tobytes() == full_diagonal(b, n).tobytes()
        assert reported[1].tobytes() == b[-1].tobytes()
        assert fast.sampled(x)[0].tobytes() == diagonals[0].tobytes()
        assert fast.sampled(x)[1].tobytes() == reported[0].tobytes()

    def test_refuses_blocks_that_are_not_hermitian(self):
        # a unit-trace block that is not its conjugate transpose would lose
        # its lower triangle; the error names it and its largest |M - M^dag|
        p = ChainParams(n=2, delta=0.2)
        s = HierarchyState.ground(2)
        s.blocks[BLOCK_NAMES.index("rho11"), 1, 2] = 0.25
        fast = RhsEvaluator(p, PULSE, state0=s)
        with pytest.raises(ValueError, match=r"rho11 is not Hermitian.* 2\.500e-01"):
            fast.entries(s.blocks)
        s = HierarchyState.ground(2)
        s.blocks[BLOCK_NAMES.index("rho_s"), 3, 3] = 1e-300j
        with pytest.raises(ValueError, match=r"rho_s is not Hermitian.* 2\.000e-300"):
            fast.entries(s.blocks)
        # a block the mode does not evolve is not read; nor is a cross block
        s.blocks[BLOCK_NAMES.index("rho10"), 1, 0] = 0.5
        one = RhsEvaluator(p, PULSE, DriveMode.ONE_PHOTON, state0=s)
        assert len(one.entries(s.blocks)) == 2 * len(one.system.stored)

    def test_accepts_ground_and_hermitian_prepared_states(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 3):
            for s in (HierarchyState.ground(n), HierarchyState(n, random_prepared_state(rng, n))):
                fast = RhsEvaluator(ChainParams(n=n), PULSE, state0=s)
                x = fast.entries(s.blocks)
                assert np.array_equal(fast.blocks(x), s.blocks)

    def test_system_refuses_columns_outside_the_gather(self, monkeypatch):
        # the gather clips its columns, so a system that names one past the
        # gathered entries is refused when it is built
        from wgqed import hierarchy

        static_part = hierarchy._static_part

        def shifted(groups, index, size):
            part, cols, starts = static_part(groups, index, size)
            cols[-1] = bad
            return part, cols, starts

        monkeypatch.setattr(hierarchy, "_static_part", shifted)
        build = hierarchy._system.__wrapped__
        tiles = frozenset({(0, 0, 0)})  # one stored entry
        for bad, real, width in ((1, True, 1), (2, False, 2), (-1, False, 2)):
            with pytest.raises(ValueError, match=f"outside the {width} gathered entries"):
                build(2, DriveMode.NONE, True, tiles, real, False)

    def test_complex_required_for_detuning_and_phases(self):
        # 22 of the 25 reachable entries are stored, read as themselves; a
        # uniform detuning keeps the chain symmetric, so it evolves one entry
        # per orbit, 15
        for kwargs, evolved in ((dict(delta=0.5), 15), (dict(spacing=1 / 8), 22)):
            fast = RhsEvaluator(ChainParams(n=2, **kwargs), PULSE, DriveMode.TWO_PHOTON)
            system, size = fast.system, len(fast.system.stored)
            assert system.real is False and size == evolved
            assert ((system.read < size).sum(), (system.read < 2 * size).sum()) == (22, 25)
            x = fast.entries(HierarchyState.ground(2).blocks.real)
            assert x.dtype == np.float64 and len(x) == 2 * evolved

    @pytest.mark.parametrize("mode", [DriveMode.TWO_PHOTON, DriveMode.ONE_PHOTON, DriveMode.NONE])
    @pytest.mark.parametrize("hc", [True, False])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_stack_is_its_members_bit_for_bit(self, mode, hc, real, symmetric):
        # one member's pulse has underflowed to exactly 0 at t = 30 while the
        # others still drive.  Rows without drive terms hold a zero
        # coefficient; DriveMode.NONE has no drive rows at all, and evolves
        # rho00 on every tile from a prepared state.  Symmetric members
        # (equal rates both ways, a uniform detuning, a symmetric state)
        # evolve one entry per orbit.
        kwargs = dict() if real else dict(delta=0.3)
        if not (real or symmetric):
            kwargs["spacing"] = 1 / 8
        rng = np.random.default_rng(5)
        for n in (3, 5):
            state0 = HierarchyState.ground(n)
            if mode is DriveMode.NONE and symmetric:
                basis = sector_basis(n)
                state0.blocks[0] = random_symmetric_state(rng, n)[0, basis[:, None], basis].real
            elif mode is DriveMode.NONE:
                a = rng.standard_normal(state0.blocks[0].shape)
                state0.blocks[0] = a + a.T
            members = [
                RhsEvaluator(
                    ChainParams(n=n, gamma_r=r, gamma_l=r if symmetric else 0.5, **kwargs),
                    pulse, mode, hc, state0,
                )
                for r, pulse in [
                    (1.0, GaussianPulse(5.0, 0.5)),
                    (0.1, GaussianPulse(5.0, 3.0, "verbatim")),
                    (0.4, GaussianPulse(6.0, 2.0)),
                ]
            ]
            stack = RhsEvaluator.stack(members)
            system = stack.system
            assert system.real is real and stack.mode is mode and stack.pulse is None
            assert system.symmetric is symmetric
            size = len(system.stored)
            assert bool(size < (system.read < size).sum()) is symmetric
            x = rng.standard_normal((3, len(members[0].entries(state0.blocks))))
            x[:, 0] = -0.0
            for t in (0.7, 30.0, 200.0):
                assert [m.pulse.envelope(t) == 0.0 for m in members] == [t > 25, t > 100, t > 100]
                got = stack(t, x)
                for j, member in enumerate(members):
                    want = member(t, x[j])
                    assert got[j].tobytes() == want.tobytes()
                # restacking some members keeps their arithmetic
                fewer = RhsEvaluator.stack([members[2], members[0]])
                assert fewer(t, x[[2, 0]]).tobytes() == got[[2, 0]].tobytes()
            # an infinite entry of the undriven member spreads as it does alone
            x[0, 3] = np.inf
            with np.errstate(invalid="ignore"):
                alone = members[0](30.0, x[0])
                assert np.array_equal(stack(30.0, x)[0], alone, equal_nan=True)

    def test_stack_refuses_mixed_members(self):
        real = RhsEvaluator(ChainParams(n=2), PULSE)
        with pytest.raises(ValueError, match="share"):
            RhsEvaluator.stack([real, RhsEvaluator(ChainParams(n=2, delta=0.5), PULSE)])
        with pytest.raises(ValueError, match="share"):
            RhsEvaluator.stack([real, RhsEvaluator(ChainParams(n=3), PULSE)])


class TestOrbitQuotient:
    """A chain and initial blocks that every permutation of the qubits leaves
    unchanged evolve one stored entry per orbit (block, |A|, |B|, |A & B|)."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mode", list(DriveMode))
    @pytest.mark.parametrize("hc", [True, False])
    @pytest.mark.parametrize("kwargs, real", [(dict(), True), (dict(), False),
                                              (dict(delta=0.3), False)])
    def test_matches_reference(self, n, mode, hc, kwargs, real):
        # symmetric states, real or complex, on a resonant or a uniformly
        # detuned chain; for n = 4 on the tiles a ground-start run occupies,
        # or undriven on every tile of at most 3 excitations
        rng = np.random.default_rng(n)
        p = ChainParams(n=n, **kwargs)
        basis = sector_basis(n)
        s = random_symmetric_state(rng, n)
        if real:
            s = s.real.astype(complex)
        if n > 3:
            tiles = ground_tiles(mode, hc)
            if mode is DriveMode.NONE:
                tiles = {(0, r, c) for r in range(4) for c in range(4)}
            s *= tile_mask(tiles, n)
        want = hierarchy_rhs(s, 0.9, p, PULSE, mode, rho21_hc=hc)
        s, want = (m[:, basis[:, None], basis] for m in (s, want))
        fast = RhsEvaluator(p, PULSE, mode, rho21_hc=hc, state0=HierarchyState(n, s))
        system = fast.system
        assert system.symmetric and system.real is real
        assert len(system.stored) < (system.read < len(system.stored)).sum()
        x = fast(0.9, fast.entries(s))
        got = fast.blocks(x)
        assert np.abs(want[: mode.n_blocks] - got).max() < 1e-13
        # sampling reads each orbit's value into every entry of it
        diagonals, reported = fast.sampled(x)
        assert diagonals.tobytes() == full_diagonal(got, n).tobytes()
        assert reported.tobytes() == got[-1].tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(gamma_l=0.2), dict(spacing=1 / 8), dict(delta=(0, 0, 0.3)),
         dict(gamma_r=(1.0, 1.0, 0.9), gamma_l=(1.0, 1.0, 0.9))],
    )
    def test_asymmetric_chains_keep_every_entry(self, kwargs):
        # a chiral chain, a spacing, one detuned qubit, one different rate
        system = RhsEvaluator(ChainParams(n=3, **kwargs), PULSE).system
        symmetric = RhsEvaluator(ChainParams(n=3), PULSE).system
        size = len(system.stored)
        assert not system.symmetric and symmetric.symmetric
        # every stored entry reads its own place, and those are the entries
        # whose orbits the symmetric system reads
        assert np.array_equal(system.read.reshape(-1)[system.stored], np.arange(size))
        assert np.array_equal(np.flatnonzero(system.read < size), system.stored)
        assert system.tiles == symmetric.tiles
        assert np.array_equal(np.flatnonzero(symmetric.read < len(symmetric.stored)),
                              system.stored)

    def test_asymmetric_states_keep_every_entry_or_are_refused(self):
        # on a symmetric chain: qubit 1 excited, and a Hermitian rho_s whose
        # stored entries are constant on the orbits while its mirrored ones
        # are not (0.5j above the diagonal, -0.5j below).  Each one's own
        # evaluator keeps every entry, and the ground state's, one per
        # orbit, refuses it rather than averaging it.
        p = ChainParams(n=2)
        excited = HierarchyState.ground(2)
        for name in UNIT_TRACE_BLOCKS:
            block(excited.blocks, name)[[0, 2], [0, 2]] = 0.75, 0.25  # |eg><eg|
        coherent = HierarchyState.ground(2)
        block(coherent.blocks, "rho_s")[1, 2] = 0.5j  # |ge><eg|
        block(coherent.blocks, "rho_s")[2, 1] = -0.5j
        quotient = RhsEvaluator(p, PULSE)
        assert quotient.system.symmetric
        for s, name, spread in ((excited, "rho00", 0.25), (coherent, "rho_s", 1.0)):
            own = RhsEvaluator(p, PULSE, state0=s)
            assert not own.system.symmetric
            assert np.array_equal(own.blocks(own.entries(s.blocks)), s.blocks)
            message = (f"{name} is not symmetric under permutations of the qubits: largest "
                       f"spread on an orbit is {spread:.3e}")
            with pytest.raises(ValueError, match=re.escape(message)):
                quotient.entries(s.blocks)

    @pytest.mark.parametrize(
        "n, kwargs", [(3, dict(delta=0.5)), (4, dict()), (4, dict(gamma_r=0.1, gamma_l=0.1))]
    )
    def test_exchangeable_qubits_sample_alike_bit_for_bit(self, n, kwargs):
        # every qubit's population and every pair's concurrence are one
        # value, as each orbit is one evolved entry
        traj = integrate(HierarchyState.ground(n), ChainParams(n=n, **kwargs),
                         GaussianPulse(5.0, 1.5), DriveMode.TWO_PHOTON,
                         IntegratorConfig(dt=0.01, t_end=10.0, sample_every=10))
        assert traj.p_excited.max() > 1e-3
        assert np.array_equal(traj.p_excited, np.repeat(traj.p_excited[:, :1], n, axis=1))
        pairs = traj.pair_concurrence
        assert np.array_equal(pairs, np.repeat(pairs[:, :1], pairs.shape[1], axis=1))

    def test_symmetric_system_caches_only_its_quotient(self):
        # the full n = 7 system the quotient is mapped from is built
        # uncached, so the cache keeps one system per symmetric chain
        from wgqed import hierarchy

        hierarchy._system.cache_clear()
        first = RhsEvaluator(ChainParams(n=7), PULSE).system
        assert first.symmetric and hierarchy._system.cache_info().currsize == 1
        assert RhsEvaluator(ChainParams(n=7, gamma_r=0.5, gamma_l=0.5), PULSE).system is first
        assert hierarchy._system.cache_info().currsize == 1
        assert not RhsEvaluator(ChainParams(n=7, gamma_l=0.5), PULSE).system.symmetric
        assert hierarchy._system.cache_info().currsize == 2


class TestLinearParts:
    @pytest.mark.parametrize("mode", list(DriveMode))
    @pytest.mark.parametrize(
        "n, kwargs",
        [(1, dict()), (2, dict(delta=0.3)), (3, dict(gamma_l=0.5)),
         (3, dict(spacing=1 / 8)), (5, dict()), (5, dict(delta=0.2))],
    )
    def test_are_the_call(self, n, kwargs, mode):
        # L0 x + g L1 x is the derivative to rounding, on random entries,
        # with exact zeros on the imaginary parts of the unit-trace diagonals
        fast = RhsEvaluator(ChainParams(n=n, **kwargs), PULSE, mode)
        x = np.random.default_rng(n).standard_normal(fast.entries(HierarchyState.ground(n).blocks).size)
        l0, l1 = fast.linear_parts()
        assert l0.shape == l1.shape == (len(x), len(x)) and l0.dtype == l1.dtype == np.float64
        if mode is DriveMode.NONE:
            assert not l1.any()
        for t in (0.0, 0.9):
            want = fast(t, x)
            got = l0 @ x + PULSE.envelope(t) * (l1 @ x)
            assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
            if not fast.system.real:
                assert not got[fast.system.imag_diagonal].any()

