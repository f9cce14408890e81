import math
from dataclasses import fields

import numpy as np
import pytest

from wgqed import integrator
from wgqed.hierarchy import (
    BLOCK_NAMES, UNIT_TRACE_BLOCKS, ChainParams, DriveMode, HierarchyState, RhsEvaluator,
)
from wgqed.integrator import (
    Diagnostics,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    diagnostics,
    evolve,
    integrate,
    rk4_step,
)
from wgqed.observables import (
    average_concurrence,
    full_diagonal,
    pair_concurrences,
    pair_states,
    populations,
)
from wgqed.operators import excitation_bits, sector_basis
from wgqed.pulse import GaussianPulse

FAR_PULSE = GaussianPulse(tbar=1e9, width=1.5)


def _diagnose(blocks, n, mode=DriveMode.TWO_PHOTON, symmetric=False):
    """:func:`diagnostics` of a (..., n_blocks, d, d) block stack on the
    sector basis, its reported state the last block ``mode`` evolves."""
    blocks = np.asarray(blocks)
    reported = blocks[..., mode.n_blocks - 1, :, :]
    return diagnostics(full_diagonal(blocks, n), reported, n, symmetric)


def decayed_single_qubit_state(p_excited=0.7):
    s = HierarchyState.ground(1)
    prepared = np.diag([1.0 - p_excited, p_excited]).astype(complex)
    s.blocks[0] = prepared
    s.blocks[2] = prepared.copy()
    s.blocks[5] = prepared.copy()
    return s


def one_photon_excitation(times, gamma_r, gamma_l, pulse):
    """Closed-form a(t)^2 for a single qubit fed one photon in a unit-l2 pulse.

    da/dt = -kappa a - sqrt(gamma_r) g(t), a(0) = 0, kappa = (gamma_r + gamma_l) / 2.
    Completing the square gives a Gaussian integral; erfc of the negated
    arguments keeps the early-time difference accurate.
    """
    kappa, m, w = 0.5 * (gamma_r + gamma_l), pulse.tbar, pulse.width
    mu = m + kappa * w * w
    scale = math.sqrt(gamma_r) * (math.pi * w * w) ** -0.25 * w * math.sqrt(math.pi / 2)

    def x(s):
        return (s - mu) / (math.sqrt(2.0) * w)

    a = [
        -scale
        * math.exp(kappa * m + 0.5 * (kappa * w) ** 2 - kappa * t)
        * (math.erfc(-x(t)) - math.erfc(-x(0.0)))
        for t in times
    ]
    return np.square(a)


class TestRk4Step:
    def test_zero_rhs_leaves_state(self):
        state = np.arange(12.0).reshape(3, 2, 2)
        out = rk4_step(state, 0.0, 0.1, lambda t, s: np.zeros_like(s))
        assert np.array_equal(out, state)

    def test_single_step_error_order_dt5(self):
        # dx/dt = -x from x=1: one RK4 step has local error ~ dt^5 / 120
        dt = 0.1
        out = rk4_step(np.array(1.0), 0.0, dt, lambda t, x: -x)
        err = abs(float(out) - np.exp(-dt))
        assert 0.0 < err < 1e-7

    def test_global_error_ratio_sixteen(self):
        def solve(dt):
            x = np.array(1.0)
            steps = int(round(1.0 / dt))
            for k in range(steps):
                x = rk4_step(x, k * dt, dt, lambda t, v: -v)
            return abs(float(x) - np.exp(-1.0))

        ratio = solve(0.01) / solve(0.005)
        assert 14.0 < ratio < 18.0

    def test_nonfinite_aborts(self):
        with np.errstate(over="ignore"):
            with pytest.raises(IntegrationError):
                rk4_step(np.array(1e300), 0.0, 1.0, lambda t, x: x * 1e300)


class TestIntegrate:
    def test_zero_time_single_sample(self):
        traj = integrate(
            HierarchyState.ground(1),
            ChainParams(n=1),
            FAR_PULSE,
            DriveMode.TWO_PHOTON,
            IntegratorConfig(dt=1e-3, t_end=0.0),
        )
        assert len(traj) == 1
        assert traj.times[0] == 0.0
        assert traj.p_ground[0] == pytest.approx(1.0)

    def test_no_drive_matches_analytic_decay(self):
        # P_e(t) = P_e(0) exp(-(gamma_R + gamma_L) t), max error < 1e-8 at dt=1e-3
        traj = integrate(
            decayed_single_qubit_state(0.7),
            ChainParams(n=1),
            FAR_PULSE,
            DriveMode.TWO_PHOTON,
            IntegratorConfig(dt=1e-3, t_end=5.0),
        )
        analytic = 0.7 * np.exp(-2.0 * traj.times)
        assert np.abs(traj.p_excited[:, 0] - analytic).max() < 1e-8

    @pytest.mark.parametrize(
        "gamma_r,gamma_l,width", [(1.0, 1.0, 1.5), (5.0, 1.0, 0.8), (0.1, 0.1, 3.0)]
    )
    def test_one_photon_matches_analytic_amplitude(self, gamma_r, gamma_l, width):
        # at dt = 5e-3 the worst deviation is ~1e-10 (RK4 error); 1e-9 bounds it
        pulse = GaussianPulse(tbar=4.0 * width, width=width)
        traj = integrate(
            HierarchyState.ground(1),
            ChainParams(n=1, gamma_r=gamma_r, gamma_l=gamma_l),
            pulse,
            DriveMode.ONE_PHOTON,
            IntegratorConfig(dt=5e-3, t_end=8.0 * width, sample_every=4),
        )
        analytic = one_photon_excitation(traj.times, gamma_r, gamma_l, pulse)
        assert analytic.max() > 0.25
        assert np.abs(traj.p_excited[:, 0] - analytic).max() < 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_positions_are_a_gauge_without_drive(self, n):
        # undriven decay of |e g ... g>: the phases exp(+-i 2 pi d) of the
        # couplings cancel from populations and pair concurrences
        rates = dict(gamma_r=[1.0, 0.6, 1.4, 0.8][:n], gamma_l=[0.5, 1.2, 0.8, 1.1][:n])
        state = HierarchyState.ground(n)
        k = np.searchsorted(sector_basis(n), 1 << (n - 1))
        state.blocks[0, 0, 0], state.blocks[0, k, k] = 0.0, 1.0
        config = IntegratorConfig(dt=1e-2, t_end=4.0, sample_every=10)
        spaced, packed = (
            integrate(state, ChainParams(n, positions=positions, **rates), FAR_PULSE,
                      DriveMode.NONE, config)
            for positions in ((0.0, 0.13, 0.41, 0.9)[:n], 0.0)
        )
        for name in ("p_ground", "p_one", "p_two", "p_excited"):
            assert np.abs(getattr(spaced, name) - getattr(packed, name)).max() < 1e-12
        # sqrt(eps) noise from spin-flip eigenvalues near zero
        assert np.abs(spaced.pair_concurrence - packed.pair_concurrence).max() < 1e-7
        assert packed.pair_concurrence.max() >= 0.5

    def test_sample_spacing_uniform(self):
        traj = integrate(
            HierarchyState.ground(1),
            ChainParams(n=1),
            FAR_PULSE,
            DriveMode.NONE,
            IntegratorConfig(dt=1e-3, t_end=0.1, sample_every=20),
        )
        assert np.allclose(np.diff(traj.times), 0.02)

    def test_halving_dt_leaves_observables(self):
        pulse = GaussianPulse(tbar=1.0, width=0.5)
        p = ChainParams(n=2)

        def observables(dt, sample_every):
            traj = integrate(
                HierarchyState.ground(2), p, pulse, DriveMode.TWO_PHOTON,
                IntegratorConfig(dt=dt, t_end=2.0, sample_every=sample_every),
            )
            return np.column_stack(
                [traj.p_ground, traj.p_one, traj.p_two, traj.c_avg_all_pairs]
            )

        coarse = observables(2e-3, 5)
        fine = observables(1e-3, 10)
        assert np.abs(coarse - fine).max() < 1e-6

    def test_bitwise_deterministic(self):
        pulse = GaussianPulse(tbar=1.0, width=0.5)
        kwargs = dict(
            params=ChainParams(n=2),
            pulse=pulse,
            mode=DriveMode.TWO_PHOTON,
            config=IntegratorConfig(dt=1e-3, t_end=1.0),
        )
        # integrate only reads its initial state, which both runs share
        state0 = HierarchyState.ground(2)
        state0.blocks.setflags(write=False)
        a = integrate(state0, **kwargs)
        b = integrate(state0, **kwargs)
        assert np.array_equal(state0.blocks, HierarchyState.ground(2).blocks)
        assert np.array_equal(a.p_excited, b.p_excited)
        assert np.array_equal(a.c_avg_all_pairs, b.c_avg_all_pairs)

    def test_trace_breach_aborts_with_time(self):
        bad = HierarchyState.ground(1)
        bad.blocks[5][0, 0] = 1.0 + 1e-3
        with pytest.raises(IntegrationError, match="t=0"):
            integrate(
                bad, ChainParams(n=1), FAR_PULSE, DriveMode.TWO_PHOTON,
                IntegratorConfig(dt=1e-3, t_end=1.0),
            )

    def test_zero_drive_blocks_coincide(self):
        # with the pulse amplitude identically zero the three unit-trace
        # blocks obey the same undriven equation from identical initial data
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        state = HierarchyState.ground(2)
        for idx in (0, 2, 5):
            state.blocks[idx] = rho.copy()
        from wgqed.hierarchy import RhsEvaluator

        rhs = RhsEvaluator(ChainParams(n=2, gamma_l=0.4, delta=0.2), FAR_PULSE,
                           DriveMode.TWO_PHOTON, state0=state)
        x = rhs.entries(state.blocks)
        dt = 1e-3
        for k in range(2000):
            x = rk4_step(x, k * dt, dt, rhs)
        blocks = rhs.blocks(x)
        assert np.abs(blocks[0] - blocks[5]).max() < 1e-10
        assert np.abs(blocks[2] - blocks[5]).max() < 1e-10
        for idx in (1, 3, 4):
            assert np.abs(blocks[idx]).max() < 1e-14

    def test_refuses_a_state0_that_is_not_hermitian(self):
        # only the upper triangles of the unit-trace blocks are evolved, so a
        # prepared state whose rho_s is not Hermitian is refused, not folded
        state = decayed_single_qubit_state()
        state.blocks[BLOCK_NAMES.index("rho_s"), 0, 1] = 0.125
        params, config = ChainParams(n=1), IntegratorConfig(dt=1e-3, t_end=0.01)
        message = r"rho_s is not Hermitian: largest \|M - M\^dag\| is 1\.250e-01"
        with pytest.raises(ValueError, match=message):
            integrate(state, params, FAR_PULSE, DriveMode.TWO_PHOTON, config)
        members = [(s, params, FAR_PULSE, config) for s in (decayed_single_qubit_state(), state)]
        with pytest.raises(ValueError, match=message):
            list(evolve(members, DriveMode.TWO_PHOTON))
        assert state.blocks[BLOCK_NAMES.index("rho_s"), 0, 1] == 0.125  # never written

    def test_evolve_steps_a_stack_as_its_members(self):
        # members of different rates, pulses and lengths stepped as one stack
        # give each member's own trajectory bit for bit, and a member that
        # breaks the trace bound leaves with the error integrate raises; the
        # width-0.5 pulse underflows to 0 from t = 24.5 while the width-3 one
        # drives.  All three are symmetric chains, one system: evolve stacks
        # symmetric and asymmetric members apart.
        config = dict(dt=0.5, sample_every=2)
        members = [
            (ChainParams(n=3, gamma_r=0.1, gamma_l=0.1), GaussianPulse(5.0, 0.5), 30.0),
            (ChainParams(n=3), GaussianPulse(5.0, 1.5), 20.0),
            (ChainParams(n=3, gamma_r=0.3, gamma_l=0.3), GaussianPulse(5.0, 3.0), 28.0),
        ]
        assert len({id(RhsEvaluator(p, g).system) for p, g, _ in members}) == 1
        stack = [
            (HierarchyState.ground(3), p, g, IntegratorConfig(t_end=t, **config))
            for p, g, t in members
        ]
        outcomes = list(evolve(stack, DriveMode.TWO_PHOTON))
        assert [i for i, _ in outcomes] == [1, 2, 0]  # in the order they leave
        for i, outcome in outcomes:
            try:
                alone = integrate(*stack[i][:3], DriveMode.TWO_PHOTON, stack[i][3])
            except IntegrationError as exc:
                assert isinstance(outcome, IntegrationError) and str(outcome) == str(exc)
                assert str(exc).startswith("trace deviation")
                continue
            for f in fields(Trajectory):
                if f.name != "states":
                    assert np.asarray(getattr(outcome, f.name)).tobytes() == \
                        np.asarray(getattr(alone, f.name)).tobytes()
        assert isinstance(outcomes[0][1], IntegrationError)
        with pytest.raises(ValueError, match="share n, dt and sample_every"):
            list(evolve([stack[0], (HierarchyState.ground(2), ChainParams(n=2), FAR_PULSE,
                                    IntegratorConfig(**config))], DriveMode.TWO_PHOTON))

    def test_trace_breach_mid_stack_leaves_the_others_exact(self):
        # at dt = 0.5 rates of 5 make RK4 unstable, and the state grows about
        # 1e4-fold a step.  Its trace deviation, rounding on that state,
        # goes from below 1e-8 at t = 2 to above 1e-4 at t = 3, so the
        # breach is at t = 3 whatever the last bits; smaller rates do not
        # breach.  The middle member leaves at that sample, and its
        # neighbours, sampled in the same pass, keep integrate's trajectory
        config = IntegratorConfig(dt=0.5, t_end=20.0, sample_every=2)
        pulse = GaussianPulse(5.0, 1.5)
        chains = [ChainParams(n=3, gamma_r=0.1, gamma_l=0.1),
                  ChainParams(n=3, gamma_r=5.0, gamma_l=5.0),
                  ChainParams(n=3, gamma_r=0.3, gamma_l=0.1)]
        stack = [(HierarchyState.ground(3), p, pulse, config) for p in chains]
        outcomes = dict(evolve(stack, DriveMode.TWO_PHOTON, keep_states=True))
        with pytest.raises(IntegrationError) as alone:
            integrate(*stack[1][:3], DriveMode.TWO_PHOTON, config)
        before = integrate(*stack[1][:3], DriveMode.TWO_PHOTON,
                           IntegratorConfig(dt=0.5, t_end=2.0, sample_every=2))
        assert before.trace_err.max() < 1e-8
        message = str(alone.value)
        assert message.startswith("trace deviation") and message.endswith("at t=3")
        assert float(message.split()[2]) > 1e-4
        assert type(outcomes[1]) is IntegrationError and str(outcomes[1]) == message
        for i in (0, 2):
            want = integrate(*stack[i][:3], DriveMode.TWO_PHOTON, config, keep_states=True)
            for f in fields(Trajectory):
                got, ref = getattr(outcomes[i], f.name), getattr(want, f.name)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), f.name

    def test_trace_breach_is_reported_after_overflow_in_its_chunk(self, monkeypatch):
        # the chain of rates 5 breaches the trace bound at t = 3 and, stepped
        # on, goes non-finite at t = 42; with the whole run in one chunk the
        # breach is still what integrate and evolve report, and the
        # neighbours in its stack keep integrate's trajectories bit for bit
        monkeypatch.setattr(integrator, "_CHUNK_BYTES", 1 << 40)
        config = IntegratorConfig(dt=0.5, t_end=300.0, sample_every=2)
        pulse = GaussianPulse(5.0, 1.5)
        chains = [ChainParams(n=3, gamma_r=0.1, gamma_l=0.1),
                  ChainParams(n=3, gamma_r=5.0, gamma_l=5.0),
                  ChainParams(n=3, gamma_r=0.3, gamma_l=0.1)]
        stack = [(HierarchyState.ground(3), p, pulse, config) for p in chains]
        rhs = RhsEvaluator(chains[1], pulse, DriveMode.TWO_PHOTON)
        x = rhs.entries(HierarchyState.ground(3).blocks)
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationError, match="non-finite"):
                for k in range(config.n_steps):
                    x = rk4_step(x, k * config.dt, config.dt, rhs)
            with pytest.raises(IntegrationError) as alone:
                integrate(*stack[1][:3], DriveMode.TWO_PHOTON, config)
            outcomes = list(evolve(stack, DriveMode.TWO_PHOTON, keep_states=True))
        breach = str(alone.value)
        assert breach.startswith("trace deviation") and breach.endswith("exceeds 1e-06 at t=3")
        assert [i for i, _ in outcomes] == [1, 0, 2]
        assert type(outcomes[0][1]) is IntegrationError and str(outcomes[0][1]) == breach
        for i, outcome in outcomes[1:]:
            want = integrate(*stack[i][:3], DriveMode.TWO_PHOTON, config, keep_states=True)
            for f in fields(Trajectory):
                got, ref = getattr(outcome, f.name), getattr(want, f.name)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), f.name
        # yield order can shift: the breaching member leaves at the next
        # flush, here when a shorter member reaches its t_end at t = 20,
        # and so after it, although it breached first
        short = (HierarchyState.ground(3), chains[0], pulse,
                 IntegratorConfig(dt=0.5, t_end=20.0, sample_every=2))
        outcomes = list(evolve([short, stack[1]], DriveMode.TWO_PHOTON))
        assert [i for i, _ in outcomes] == [0, 1]
        assert str(outcomes[1][1]) == breach

    def test_non_finite_member_leaves_the_stack(self):
        # rates of 1e80 overflow in the second step; the other member goes on
        config = IntegratorConfig(dt=0.5, t_end=3.0, sample_every=2)
        pulse = GaussianPulse(5.0, 1.5)
        stack = [(HierarchyState.ground(2), ChainParams(n=2, gamma_r=r), pulse, config)
                 for r in (1e80, 0.2)]
        with np.errstate(all="ignore"):
            outcomes = dict(evolve(stack, DriveMode.TWO_PHOTON))
            with pytest.raises(IntegrationError) as alone:
                integrate(*stack[0][:3], DriveMode.TWO_PHOTON, config)
        assert str(outcomes[0]) == str(alone.value)
        assert str(alone.value) == "non-finite state entries after step at t=0.5"
        kept = integrate(*stack[1][:3], DriveMode.TWO_PHOTON, config)
        assert outcomes[1].p_excited.tobytes() == kept.p_excited.tobytes()

    def test_one_and_two_photon_lower_blocks_agree(self):
        pulse = GaussianPulse(tbar=1.0, width=0.5)
        p = ChainParams(n=2)
        from wgqed.hierarchy import RhsEvaluator
        from wgqed.integrator import rk4_step as step

        one = RhsEvaluator(p, pulse, DriveMode.ONE_PHOTON)
        two = RhsEvaluator(p, pulse, DriveMode.TWO_PHOTON)
        s1 = one.entries(HierarchyState.ground(2).blocks)
        s2 = two.entries(HierarchyState.ground(2).blocks)
        dt = 1e-3
        for k in range(500):
            s1 = step(s1, k * dt, dt, one)
            s2 = step(s2, k * dt, dt, two)
        assert np.abs(one.blocks(s1) - two.blocks(s2)[:3]).max() < 1e-10


class TestDiagnostics:
    def test_initial_state_clean(self):
        d = _diagnose(HierarchyState.ground(3).blocks, 3)
        assert d.trace_err == 0.0
        assert d.herm_err == 0.0
        assert d.zero_block_trace == 0.0
        assert abs(d.min_eigenvalue) < 1e-15

    def test_detects_corruption(self):
        # an evolved state can break hermiticity only on a unit-trace block's
        # diagonal: a mirrored entry is the conjugate of its stored transpose
        s = HierarchyState.ground(2)
        s.blocks[5][1, 1] = 0.1j
        d = _diagnose(s.blocks, 2)
        assert d.herm_err == pytest.approx(0.2)
        # an off-diagonal corruption never reaches sampling: entries() refuses it
        s = HierarchyState.ground(2)
        s.blocks[5][0, 1] = 0.1
        with pytest.raises(ValueError, match="rho_s is not Hermitian"):
            RhsEvaluator(ChainParams(n=2), FAR_PULSE, state0=s).entries(s.blocks)

    def test_sector_basis_counts_dropped_zero_eigenvalues(self):
        # a full-rank state on the 15-state basis of 4 qubits is rank 15 of 16
        blocks = np.zeros((6, 15, 15), dtype=complex)
        blocks[[0, 2, 5]] = np.eye(15) / 15
        assert _diagnose(blocks, 4).min_eigenvalue == 0.0
        assert _diagnose(blocks, 4).trace_err < 1e-15
        # 64 states are the sector basis of 7 qubits, not the full space of 6
        blocks = np.zeros((6, 64, 64), dtype=complex)
        blocks[[0, 2, 5]] = np.eye(64) / 64
        assert _diagnose(blocks, 7).min_eigenvalue == 0.0
        # the sector basis of 6 qubits has 42 states: its 2^6 = 64 wide
        # diagonals pass, its 64 x 64 reported state does not
        with pytest.raises(ValueError, match="42 x 42"):
            diagnostics(blocks.diagonal(axis1=-2, axis2=-1), blocks[-1], 6)
        small = np.zeros((6, 42, 42), dtype=complex)
        with pytest.raises(ValueError, match="64"):
            diagnostics(small.diagonal(axis1=-2, axis2=-1), small[-1], 6)
        with pytest.raises(ValueError, match="leading axes"):
            diagnostics(full_diagonal(np.stack([small] * 2), 6), small[-1], 6)
        full = HierarchyState.ground(3).blocks
        full[[0, 2, 5]] = np.eye(8) / 8
        assert _diagnose(full, 3).min_eigenvalue == pytest.approx(1 / 8)

    def test_finite_block_near_overflow_leaves_the_stack_whole(self):
        # sampling hands diagnostics the rows of a member that has just
        # breached the trace bound, which may have grown near the float
        # limit; its Hermitian part must stay finite, or eigvalsh refuses
        # the whole stack
        blocks = np.stack([HierarchyState.ground(2).blocks] * 2)
        blocks[1, 5] = 1e308 * np.eye(4)
        with np.errstate(all="ignore"):
            diag = _diagnose(blocks, 2)
        assert diag.min_eigenvalue[1] == 1e308
        alone = _diagnose(blocks[0], 2)
        for f in fields(Diagnostics):
            assert np.float64(getattr(alone, f.name)).tobytes() == getattr(diag, f.name)[0].tobytes()

    def test_reports_zero_block_trace(self):
        s = HierarchyState.ground(2)
        s.blocks[1][0, 0] = 1e-5
        assert _diagnose(s.blocks, 2).zero_block_trace == pytest.approx(1e-5)
        # a mode that evolves fewer blocks checks only those
        assert _diagnose(s.blocks[:1], 2, DriveMode.NONE).zero_block_trace == 0.0


def _sampled_blocks(n, mode, delta):
    """Blocks of an n-qubit chain after 40 driven RK4 steps, as ``mode``
    holds them: its lower blocks, then the reported two-photon state."""
    rhs = RhsEvaluator(ChainParams(n=n, gamma_l=0.4, delta=delta), GaussianPulse(0.5, 0.3))
    x = rhs.entries(HierarchyState.ground(n).blocks)
    for k in range(40):
        x = rk4_step(x, k * 0.02, 0.02, rhs)
    blocks = rhs.blocks(x)
    return blocks[list(range(mode.n_blocks - 1)) + [5]]


class TestStackedSampling:
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("mode", list(DriveMode))
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_stack_is_its_members_bit_for_bit(self, n, mode, members):
        # a detuned chain (complex arithmetic), a real one and an all-zero
        # member, whose pair states are all zero; bytes compare, so signed
        # zeros count
        detuned = _sampled_blocks(n, mode, 0.5)
        blocks = np.stack([detuned, _sampled_blocks(n, mode, 0.0), np.zeros_like(detuned)])
        blocks = blocks[:members]
        if mode is DriveMode.TWO_PHOTON:
            assert np.any(detuned.imag)
        rho = blocks[:, -1]
        pops, diag = populations(rho, n), _diagnose(blocks, n, mode)
        stacked = {
            "full_diagonal": full_diagonal(blocks, n),
            "pair_states": pair_states(rho, n),
            "pair_concurrences": pair_concurrences(rho, n),
            "all-pairs": average_concurrence(pair_concurrences(rho, n), n, "all-pairs"),
            "half-n": average_concurrence(pair_concurrences(rho, n), n, "half-n"),
        }
        for j in range(members):
            alone = populations(rho[j], n)
            for name in ("p_ground", "p_one", "p_two", "p_total"):
                assert type(getattr(alone, name)) is float
                assert np.float64(getattr(alone, name)).tobytes() == getattr(pops, name)[j].tobytes()
            assert type(alone.p_excited) is tuple
            assert np.array(alone.p_excited).tobytes() == pops.p_excited[j].tobytes()
            single = _diagnose(blocks[j], n, mode)
            # the trace checks round as abs() of each complex scalar trace
            traces = [full_diagonal(m, n).sum() for m in blocks[j]]
            unit = [k for k in range(len(traces)) if BLOCK_NAMES[k] in UNIT_TRACE_BLOCKS]
            assert single.trace_err == max([0.0] + [abs(traces[k] - 1.0) for k in unit])
            assert single.zero_block_trace == max(
                [0.0] + [abs(traces[k]) for k in range(len(traces)) if k not in unit]
            )
            for f in fields(Diagnostics):
                assert type(getattr(single, f.name)) is float
                assert np.float64(getattr(single, f.name)).tobytes() == \
                    getattr(diag, f.name)[j].tobytes(), f.name
            pair_c = pair_concurrences(rho[j], n)
            assert stacked["full_diagonal"][j].tobytes() == full_diagonal(blocks[j], n).tobytes()
            assert stacked["pair_states"][j].tobytes() == pair_states(rho[j], n).tobytes()
            assert stacked["pair_concurrences"][j].tobytes() == pair_c.tobytes()
            for norm in ("all-pairs", "half-n"):
                value = average_concurrence(pair_c, n, norm)
                assert type(value) is float
                assert np.float64(value).tobytes() == stacked[norm][j].tobytes()
        if members == 3:
            assert not np.any(stacked["pair_states"][2])


    @pytest.mark.parametrize("n", [2, 5])
    def test_trajectory_is_its_samples_one_at_a_time(self, n):
        # 173 samples, a prime count: every chunk length between 2 and 172
        # leaves a partial last chunk; each row of the trajectory is what the
        # observables give its kept state alone
        config = IntegratorConfig(dt=0.05, t_end=8.6, sample_every=1)
        traj = integrate(HierarchyState.ground(n), ChainParams(n=n, gamma_l=0.4, delta=0.2),
                         GaussianPulse(tbar=2.0, width=1.0), DriveMode.TWO_PHOTON, config,
                         keep_states=True)
        assert len(traj) == len(traj.states) == 173
        assert traj.c_avg_all_pairs.max() > 0.0
        for k, rho in enumerate(traj.states):
            pops = populations(rho, n)
            for name in ("p_ground", "p_one", "p_two", "p_total"):
                assert np.float64(getattr(pops, name)).tobytes() == \
                    getattr(traj, name)[k].tobytes(), name
            assert np.array(pops.p_excited).tobytes() == traj.p_excited[k].tobytes()
            pair_c = pair_concurrences(rho, n)
            assert pair_c.tobytes() == traj.pair_concurrence[k].tobytes()
            for norm in ("all-pairs", "half-n"):
                value = np.float64(average_concurrence(pair_c, n, norm))
                assert value.tobytes() == traj.c_avg(norm)[k].tobytes(), norm


def _symmetric_run(n, delta, mode):
    """A symmetric chain's trajectory and sampled states: resonant (real
    arithmetic) or uniformly detuned (complex)."""
    traj = integrate(HierarchyState.ground(n), ChainParams(n=n, delta=delta),
                     GaussianPulse(5.0, 1.5), mode,
                     IntegratorConfig(dt=0.02, t_end=12.0, sample_every=25), keep_states=True)
    assert RhsEvaluator(ChainParams(n=n, delta=delta), FAR_PULSE, mode).system.symmetric
    return traj, np.array(traj.states)


def _orbit_constant_states(rng, n, rows):
    """Random Hermitian (rows, d, d) states of unit spectral norm on the
    sector basis whose entry (A, B) depends only on |A|, |B| and |A & B|,
    so that every permutation of the qubits leaves them exactly unchanged;
    unlike a ground-start run they fill every spin multiplet."""
    bits = excitation_bits(sector_basis(n), n)
    count = bits.sum(axis=1)
    table = rng.standard_normal((rows, 4, 4, 4)) + 1j * rng.standard_normal((rows, 4, 4, 4))
    m = table[:, count[:, None], count, bits @ bits.T]
    m = 0.5 * m + 0.5 * m.conj().swapaxes(-1, -2)
    return m / np.linalg.norm(m, 2, axis=(-2, -1))[:, None, None]


def _clamped_minimum(states, n):
    """The smallest eigenvalue of each state's Hermitian part on the whole
    sector basis, at most 0.0 when the basis drops states (n > 3)."""
    low = np.linalg.eigvalsh(0.5 * states + 0.5 * states.conj().swapaxes(-1, -2))[:, 0]
    return np.minimum(low, 0.0) if n > 3 else low


class TestSymmetricSampling:
    """A symmetric chain reduces pair (1, 2) alone and takes the smallest
    eigenvalue from one copy of each spin multiplet."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_one_pair_is_every_pair_bit_for_bit(self, n, delta):
        # one-photon states are entangled at every n, two-photon ones at
        # small n
        modes = (DriveMode.ONE_PHOTON, DriveMode.TWO_PHOTON)
        states = np.concatenate([_symmetric_run(n, delta, mode)[1] for mode in modes])
        assert bool(np.any(states.imag)) is (delta != 0.0)
        one = pair_concurrences(states, n, symmetric=True)
        assert one.max() > 1e-3
        assert one.tobytes() == pair_concurrences(states, n).tobytes()
        assert pair_concurrences(states[0], n, symmetric=True).tobytes() == one[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_leading_pairs_reduce_as_among_all_pairs(self, n):
        # on any state, symmetric or not: pair (1, 2)'s bins sum in the
        # same order alone
        rng = np.random.default_rng(n)
        d = len(sector_basis(n))
        rho = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        every = pair_states(rho, n)
        for count in range(len(every[0]) + 1):
            assert pair_states(rho, n, count).tobytes() == every[:, :count].tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_adapted_basis_is_orthonormal_and_small(self, n):
        v = integrator._adapted_basis(n)
        d, c = v.shape
        assert d == len(sector_basis(n)) and c <= 10
        # spin n/2 - k meets m = k ... min(3, n - k) excitations, k <= min(3, n/2)
        assert c == sum(min(3, n - k) - k + 1 for k in range(min(3, n // 2) + 1))
        assert np.abs(v.T @ v - np.eye(c)).max() < 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_adapted_minimum_eigenvalue_is_the_full_one(self, n, delta):
        # on a symmetric chain's sampled states, which leave the positive
        # cone, and on their negations, whose smallest eigenvalue is minus
        # the largest
        traj, states = _symmetric_run(n, delta, DriveMode.TWO_PHOTON)
        if n > 1:
            assert traj.min_eigenvalue.min() < -1e-3
        assert np.abs(traj.min_eigenvalue - _clamped_minimum(states, n)).max() <= 1e-15
        negated = _diagnose(-states[:, None], n, DriveMode.NONE, symmetric=True)
        assert np.abs(negated.min_eigenvalue - _clamped_minimum(-states, n)).max() <= 1e-15

    @pytest.mark.parametrize("n", range(1, 11))
    def test_adapted_minimum_eigenvalue_on_every_multiplet(self, n):
        # unit-norm states spread over every spin multiplet; both signs
        states = _orbit_constant_states(np.random.default_rng(n), n, 6)
        for sign in (1.0, -1.0):
            got = _diagnose(sign * states[:, None], n, DriveMode.NONE, symmetric=True)
            assert np.abs(got.min_eigenvalue - _clamped_minimum(sign * states, n)).max() < 1e-14

    @pytest.mark.parametrize("n", [3, 5])
    def test_stack_is_its_members_bit_for_bit(self, n):
        blocks = _orbit_constant_states(np.random.default_rng(n), n, 3)[:, None]
        stacked = _diagnose(blocks, n, DriveMode.NONE, symmetric=True)
        pair_c = pair_concurrences(blocks[:, 0], n, symmetric=True)
        for j in range(3):
            alone = _diagnose(blocks[j], n, DriveMode.NONE, symmetric=True)
            for f in fields(Diagnostics):
                assert np.float64(getattr(alone, f.name)).tobytes() == \
                    getattr(stacked, f.name)[j].tobytes(), f.name
            assert pair_concurrences(blocks[j, 0], n, symmetric=True).tobytes() == \
                pair_c[j].tobytes()


def _scattered_sample(rhs, x, mode):
    """The sampled values of the (rows, entries) array ``x`` from the whole
    scattered block stack: :meth:`RhsEvaluator.blocks`, its padded
    diagonals, d x d hermiticity scans of the unit-trace blocks, and the
    smallest eigenvalue and the observables of its reported block."""
    n, symmetric = rhs.n, rhs.system.symmetric
    blocks = rhs.blocks(x)
    herm_err = np.zeros(len(x))
    for k, name in enumerate(BLOCK_NAMES[: mode.n_blocks]):
        if name in UNIT_TRACE_BLOCKS:
            scan = np.abs(blocks[:, k] - blocks[:, k].conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            herm_err = np.maximum(herm_err, scan)
    diag = _diagnose(blocks, n, mode, symmetric)
    rho = blocks[:, mode.n_blocks - 1]
    pops, pair_c = populations(rho, n), pair_concurrences(rho, n, symmetric)
    return dict(
        p_ground=pops.p_ground, p_one=pops.p_one, p_two=pops.p_two, p_total=pops.p_total,
        p_excited=pops.p_excited, pair_concurrence=pair_c,
        c_avg_all_pairs=average_concurrence(pair_c, n, "all-pairs"),
        c_avg_half_n=average_concurrence(pair_c, n, "half-n"),
        trace_err=diag.trace_err, herm_err=herm_err, zero_block_trace=diag.zero_block_trace,
        min_eigenvalue=diag.min_eigenvalue, states=rho,
    )


def _sampled_rows(rhs, state0, config):
    """The entries rows a lone chain samples, stepped as :func:`integrate`
    steps them: through its tabulated map when it has one."""
    x, rows = rhs.entries(state0.blocks), []
    table = integrator._tabulated(rhs, config.dt)
    if table is not None:
        table = integrator._Table(table, [rhs.pulse], config.dt)
    for step in range(config.n_steps + 1):
        if step % config.sample_every == 0:
            rows.append(x)
        if step < config.n_steps:
            x = rk4_step(x, step * config.dt, config.dt, rhs, table and table.at(step))
    return np.stack(rows)


def _prepared_symmetric_state(n):
    """Half ground state, half the one-excitation W state, in rho00: every
    permutation of the qubits leaves it unchanged, and without a drive it
    decays."""
    s = HierarchyState.ground(n)
    one = excitation_bits(sector_basis(n), n).sum(axis=1) == 1
    s.blocks[0, 0, 0] = 0.5
    s.blocks[0][np.ix_(one, one)] = 0.5 / n
    return s


_CHAINS = {
    "symmetric-real": dict(),
    "symmetric-complex": dict(delta=0.2),
    "asymmetric-real": dict(gamma_l=0.5),
    "asymmetric-complex": dict(gamma_l=0.5, delta=0.2),
}


class TestEntriesSampling:
    """Sampling gathers the diagonals and scatters only the reported block
    from the entries, bit for bit what the whole scattered stack gives."""

    @pytest.mark.parametrize("mode", list(DriveMode))
    @pytest.mark.parametrize("chain", list(_CHAINS))
    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_trajectory_is_the_scattered_blocks_bit_for_bit(self, n, chain, mode):
        params, pulse = ChainParams(n=n, **_CHAINS[chain]), GaussianPulse(1.0, 0.5)
        undriven = mode is DriveMode.NONE
        state0 = _prepared_symmetric_state(n) if undriven else HierarchyState.ground(n)
        config = IntegratorConfig(dt=0.05, t_end=3.0, sample_every=2)
        traj = integrate(state0, params, pulse, mode, config, keep_states=True)
        rhs = RhsEvaluator(params, pulse, mode, state0=state0)
        assert rhs.system.symmetric is chain.startswith("symmetric")
        assert rhs.system.real is chain.endswith("real")
        want = _scattered_sample(rhs, _sampled_rows(rhs, state0, config), mode)
        assert want["p_excited"].max() > 1e-3
        for name, value in want.items():
            assert np.asarray(getattr(traj, name)).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("chain", ["symmetric-real", "asymmetric-complex"])
    def test_ended_rows_leave_the_others_exact(self, chain):
        # the second member's rows grow by 1e200 from its second sample on,
        # which breaches the trace bound and ends it; its reported blocks are
        # zeroed before the observables, whose spin-flip products would
        # overflow on them, and the first member's rows, interleaved with
        # them, are what the scattered blocks give
        n, mode = 3, DriveMode.TWO_PHOTON
        params, pulse = ChainParams(n=n, **_CHAINS[chain]), GaussianPulse(1.0, 0.5)
        config = IntegratorConfig(dt=0.05, t_end=1.0, sample_every=5)
        chains = [
            integrator._Chain(j, HierarchyState.ground(n), params, pulse, config, mode, True, True)
            for j in range(2)
        ]
        rows = _sampled_rows(chains[0].rhs, HierarchyState.ground(n), config)[:3]
        grown = rows * np.array([1.0, 1e200, 1e200])[:, None]
        integrator._sample(
            [chains[0], chains[1]] * 3, [0, 0, 1, 1, 2, 2], [0.0, 0.0, 0.25, 0.25, 0.5, 0.5],
            np.stack([rows, grown], axis=1).reshape(6, -1),
        )
        assert str(chains[1].error).endswith("exceeds 1e-06 at t=0.25")
        assert not chains[1].traj.p_total.any() and not chains[1].traj.states
        want = _scattered_sample(chains[0].rhs, rows, mode)
        for name, value in want.items():
            got = np.asarray(getattr(chains[0].traj, name))[:3]
            assert got.tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("chain", ["symmetric-real", "asymmetric-complex"])
    def test_chunk_budget_leaves_the_bytes(self, monkeypatch, chain):
        # one row per chunk, or the whole run in one chunk, for a stack of
        # two members of different rates, pulses and lengths
        n = 4
        params = {
            "symmetric-real": [ChainParams(n=n), ChainParams(n=n, gamma_r=0.3, gamma_l=0.3)],
            "asymmetric-complex": [ChainParams(n=n, gamma_l=0.5, delta=0.2),
                                   ChainParams(n=n, gamma_r=1.5, gamma_l=0.3, delta=0.2)],
        }[chain]
        members = [
            (HierarchyState.ground(n), p, GaussianPulse(1.0, width),
             IntegratorConfig(dt=0.05, t_end=t_end, sample_every=3))
            for p, width, t_end in zip(params, (0.5, 1.0), (4.0, 3.0))
        ]
        assert len({id(RhsEvaluator(p, g).system) for _, p, g, _ in members}) == 1
        outcomes = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(integrator, "_CHUNK_BYTES", budget)
            outcomes.append(dict(evolve(members, DriveMode.TWO_PHOTON, keep_states=True)))
        for i in range(len(members)):
            for f in fields(Trajectory):
                one, whole = (np.asarray(getattr(o[i], f.name)) for o in outcomes)
                assert one.tobytes() == whole.tobytes(), f.name


    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_pulse_intensity_is_each_sample_drive_intensity(self, monkeypatch, budget):
        # a stack of members with their own pulses, normalizations, rates
        # and lengths, sampled a row per chunk or all in one chunk: each
        # row's pulse_intensity is the scalar drive_intensity at its time,
        # bit for bit; an undriven run reads 0
        monkeypatch.setattr(integrator, "_CHUNK_BYTES", budget)
        members = [
            (HierarchyState.ground(2), ChainParams(n=2, gamma_r=rate, gamma_l=rate), pulse,
             IntegratorConfig(dt=0.01, t_end=t_end, sample_every=3))
            for rate, pulse, t_end in (
                (1.0, GaussianPulse(2.0, 0.5), 6.0),
                (0.3, GaussianPulse(3.0, 1.5, "verbatim"), 9.0),
                (2.0, GaussianPulse(1.0, 0.25), 4.0),
            )
        ]
        outcomes = dict(evolve(members, DriveMode.TWO_PHOTON))
        for i, (_, params, pulse, config) in enumerate(members):
            traj = outcomes[i]
            assert len(traj) == 1 + config.n_steps // 3 and traj.pulse_intensity.max() > 0.01
            want = [pulse.drive_intensity(float(params.gamma_r[0]), t) for t in traj.times.tolist()]
            assert traj.pulse_intensity.tobytes() == np.array(want).tobytes()
        undriven = dict(evolve(members, DriveMode.NONE))
        assert not any(traj.pulse_intensity.any() for traj in undriven.values())


def _tabulated_stack(rhs, dt):
    """The :class:`integrator._Table` of one evaluator, or of a list of
    evaluators that share a system, each map from
    :func:`integrator._tabulated`."""
    if isinstance(rhs, RhsEvaluator):
        return integrator._Table(integrator._tabulated(rhs, dt), [rhs.pulse], dt)
    maps = [integrator._tabulated(r, dt) for r in rhs]
    assert all(m is not None for m in maps)
    return integrator._Table(np.stack(maps), [r.pulse for r in rhs], dt)


_MEMBER_RATES = ((1.0, 0.5), (0.3, 0.2), (2.0, 0.1))


class TestTabulatedStep:
    """Chains whose float64 entries are at most 128 wide step through one
    product with their tabulated RK4 map."""

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("chain", list(_CHAINS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_agrees_with_the_rhs_stages(self, n, chain, members):
        # every mode and both rho21_hc, through a pulse and past it; a
        # stack's rows are each member alone, bit for bit.  One qubit is
        # always symmetric.
        kwargs = _CHAINS[chain]
        dt, symmetric = 0.1, chain.startswith("symmetric") or n == 1
        params = [
            ChainParams(n=n, gamma_r=r, gamma_l=r if symmetric else l,
                        **{k: v for k, v in kwargs.items() if k == "delta"})
            for r, l in _MEMBER_RATES[:members]
        ]
        pulses = [GaussianPulse(1.0 + j, 0.5 + 0.25 * j) for j in range(members)]
        tabulated = 0
        for mode in DriveMode:
            state0 = _prepared_symmetric_state(n) if mode is DriveMode.NONE else \
                HierarchyState.ground(n)
            for hc in (True, False):
                alone = [RhsEvaluator(p, g, mode, hc, state0) for p, g in zip(params, pulses)]
                assert {r.system.symmetric for r in alone} == {symmetric}
                assert {r.system.real for r in alone} == {chain.endswith("real")}
                if integrator._tabulated(alone[0], dt) is None:
                    assert alone[0].entries(state0.blocks).size > 128
                    continue
                tabulated += 1
                rhs = RhsEvaluator.stack(alone) if members > 1 else alone[0]
                x = np.stack([r.entries(state0.blocks) for r in alone])
                x = x if members > 1 else x[0]
                table = _tabulated_stack(alone if members > 1 else alone[0], dt)
                singles = [_tabulated_stack(r, dt) for r in alone]
                for step in range(60):
                    t = step * dt
                    want = rk4_step(x, t, dt, rhs)
                    got = rk4_step(x, t, dt, rhs, table.at(step))
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                    for j, (r, single) in enumerate(zip(alone, singles)):
                        row = x[j] if members > 1 else x
                        mine = rk4_step(row, t, dt, r, single.at(step))
                        assert mine.tobytes() == (got[j] if members > 1 else got).tobytes()
                    x = want
                assert np.abs(x).max() > 1e-3
        assert tabulated >= (2 if n < 4 or symmetric else 1)

    @pytest.mark.parametrize("chain", ["symmetric-real", "asymmetric-complex"])
    def test_stack_rows_are_each_member_alone_across_blocks(self, chain):
        # 230, 330 and 480 steps: past the 256-step weight block and through
        # many map blocks.  The shortest member leaves the stack inside a map
        # block, where the table is taken, and the others step on; every
        # map and every trajectory is each member's alone, bit for bit
        n, kwargs, dt = 2, _CHAINS[chain], 0.02
        symmetric = chain.startswith("symmetric")
        members = [
            (HierarchyState.ground(n),
             ChainParams(n=n, gamma_r=r, gamma_l=r if symmetric else l,
                         **{k: v for k, v in kwargs.items() if k == "delta"}),
             GaussianPulse(2.0 + j, 0.5 + 0.25 * j),
             IntegratorConfig(dt=dt, t_end=t_end, sample_every=7))
            for j, ((r, l), t_end) in enumerate(zip(_MEMBER_RATES, (6.6, 4.6, 9.6)))
        ]
        alone = [RhsEvaluator(p, g) for _, p, g, _ in members]
        table = _tabulated_stack(alone, dt)
        singles = [_tabulated_stack(r, dt) for r in alone]
        span, leaves = table.span, members[1][3].n_steps
        assert span < 256 and leaves % span and 256 < members[2][3].n_steps
        kept = [0, 1, 2]
        for step in range(members[2][3].n_steps):
            if step == leaves:
                table, kept = table.take([0, 2]), [0, 2]
            maps = table.at(step)
            assert maps.shape == (len(kept),) + (alone[0].system.width,) * 2
            for row, j in enumerate(kept):
                assert maps[row].tobytes() == singles[j].at(step).tobytes()
        outcomes = dict(evolve(members, DriveMode.TWO_PHOTON, keep_states=True))
        assert [o.p_excited.max() > 1e-3 for o in outcomes.values()] == [True] * 3
        for i, member in enumerate(members):
            want = integrate(*member[:3], DriveMode.TWO_PHOTON, member[3], keep_states=True)
            for f in fields(Trajectory):
                got, ref = getattr(outcomes[i], f.name), getattr(want, f.name)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), f.name

    def test_global_error_falls_sixteen_fold_per_halving(self):
        # a driven, detuned chiral chain through the pulse: the tabulated
        # map is RK4, so its global error is O(dt^4)
        params, pulse = ChainParams(n=2, gamma_l=0.5, delta=0.3), GaussianPulse(2.0, 0.7)
        rhs = RhsEvaluator(params, pulse)
        assert not rhs.system.real and integrator._tabulated(rhs, 0.2) is not None

        def final(dt):
            config = IntegratorConfig(dt=dt, t_end=4.0, sample_every=int(round(4.0 / dt)))
            traj = integrate(HierarchyState.ground(2), params, pulse, DriveMode.TWO_PHOTON,
                             config, keep_states=True)
            return traj.states[-1]

        exact = final(0.2 / 64)
        errors = [np.abs(final(dt) - exact).max() for dt in (0.2, 0.1, 0.05)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14.0 < r < 18.0 for r in ratios), ratios

    def test_wide_and_non_finite_chains_step_through_the_stages(self):
        # an n = 4 chiral chain has 132 real entries, past the table's 128;
        # rates of 1e80 give a non-finite map.  Both are a manual loop of
        # the four RHS stages, bit for bit.
        params, pulse = ChainParams(n=4, gamma_r=5.0, gamma_l=1.0), GaussianPulse(1.0, 0.5)
        rhs = RhsEvaluator(params, pulse)
        assert len(rhs.system.stored) == 132 and rhs.system.real
        assert integrator._tabulated(rhs, 0.05) is None
        with np.errstate(all="ignore"):
            assert integrator._tabulated(RhsEvaluator(ChainParams(n=2, gamma_r=1e80), pulse),
                                         0.5) is None
        config = IntegratorConfig(dt=0.05, t_end=2.0, sample_every=4)
        traj = integrate(HierarchyState.ground(4), params, pulse, DriveMode.TWO_PHOTON, config,
                         keep_states=True)
        x = rhs.entries(HierarchyState.ground(4).blocks)
        for step in range(config.n_steps):
            if step % config.sample_every == 0:
                state = traj.states[step // config.sample_every]
                assert state.tobytes() == rhs.blocks(x)[-1].tobytes()
            x = rk4_step(x, step * config.dt, config.dt, rhs)
        assert traj.states[-1].tobytes() == rhs.blocks(x)[-1].tobytes()

    def test_first_step_is_checked_against_the_stages(self, monkeypatch):
        # the RHS is called on the first step alone, four times per stack,
        # and every step goes through rk4_step; a map off by 1e-6 is refused
        calls = {"rhs": 0, "step": 0}
        call, step = RhsEvaluator.__call__, integrator.rk4_step

        def counted_call(self, t, x):
            calls["rhs"] += 1
            return call(self, t, x)

        def counted_step(*args):
            calls["step"] += 1
            return step(*args)

        monkeypatch.setattr(RhsEvaluator, "__call__", counted_call)
        monkeypatch.setattr(integrator, "rk4_step", counted_step)
        config = IntegratorConfig(dt=0.05, t_end=2.0, sample_every=4)
        members = [(HierarchyState.ground(3), ChainParams(n=3, gamma_r=r, gamma_l=r),
                    GaussianPulse(1.0, 0.5), config) for r in (1.0, 0.5)]
        assert len(list(evolve(members, DriveMode.TWO_PHOTON))) == 2
        assert calls == {"rhs": 4, "step": 40}
        rk4_map = integrator._rk4_map
        monkeypatch.setattr(integrator, "_rk4_map", lambda *args: rk4_map(*args) * (1 + 1e-6))
        with pytest.raises(RuntimeError, match="first step of member 0 differs from its RHS"):
            list(evolve(members, DriveMode.TWO_PHOTON))


def test_trajectory_norm_selector():
    traj = Trajectory(
        times=np.array([0.0]),
        n_qubits=2,
        pair_labels=[(1, 2)],
        p_ground=np.array([1.0]),
        p_one=np.zeros(1),
        p_two=np.zeros(1),
        p_total=np.array([1.0]),
        p_excited=np.zeros((1, 2)),
        pair_concurrence=np.zeros((1, 1)),
        c_avg_all_pairs=np.zeros(1),
        c_avg_half_n=np.zeros(1),
        pulse_intensity=np.zeros(1),
        trace_err=np.zeros(1),
        herm_err=np.zeros(1),
        zero_block_trace=np.zeros(1),
        min_eigenvalue=np.zeros(1),
    )
    assert traj.c_avg("all-pairs") is traj.c_avg_all_pairs
    assert traj.c_avg("half-n") is traj.c_avg_half_n
    with pytest.raises(ValueError):
        traj.c_avg("bogus")
