import numpy as np
import pytest

from oracle import (
    excitation_projector,
    ground_state_density,
    number_operator,
    partial_trace_to_pair,
    wootters_concurrence,
)
from wgqed.observables import (
    average_concurrence,
    concurrence_pair,
    max_concurrence,
    pair_concurrences,
    pair_states,
    populations,
    spin_flip,
    survival_time,
)
from wgqed.operators import all_pairs, sector_basis


def bell_phi_plus(sign=1.0):
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = 1 / np.sqrt(2), sign / np.sqrt(2)
    return np.outer(v, v.conj())


def bell_psi_plus():
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def werner(p):
    return p * bell_phi_plus() + (1 - p) * np.eye(4) / 4.0


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_single_qubit_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def padded(rho, n):
    """A sector-basis state zero-padded to the full 2^n space."""
    basis = sector_basis(n)
    full = np.zeros((2**n, 2**n), dtype=complex)
    full[np.ix_(basis, basis)] = rho
    return full


def oracle_concurrences(rho, n):
    """Oracle pair concurrences of a sector-basis state, in all_pairs(n) order."""
    full = padded(rho, n)
    return np.array([
        wootters_concurrence(partial_trace_to_pair(full, i, j, n)) for i, j in all_pairs(n)
    ])


def restricted(full, n):
    """A full-space state with at most three excitations on the sector basis."""
    basis = sector_basis(n)
    return full[np.ix_(basis, basis)]


class FakeTrajectory:
    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self._values = np.asarray(values, dtype=float)

    def c_avg(self, norm="all-pairs"):
        return self._values


class TestPopulations:
    def test_ground_state(self):
        rec = populations(ground_state_density(3), 3)
        assert rec.p_ground == pytest.approx(1.0)
        assert rec.p_one == rec.p_two == 0.0
        assert rec.p_excited == (0.0, 0.0, 0.0)
        assert rec.p_total == pytest.approx(1.0)

    def test_symmetric_single_excitation(self):
        rec = populations(bell_psi_plus(), 2)
        assert rec.p_one == pytest.approx(1.0)
        assert rec.p_excited[0] == pytest.approx(0.5)
        assert rec.p_excited[1] == pytest.approx(0.5)

    def test_sectors_sum_to_trace(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 8)
        rec = populations(rho, 3)
        p3 = np.real(np.trace(
            np.diag([bin(i).count("1") == 3 for i in range(8)]).astype(complex) @ rho
        ))
        assert rec.p_ground + rec.p_one + rec.p_two + p3 == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_masked_sums_match_projector_oracle(self, n):
        # same products and summation order as trace(P @ rho): equal bits
        rng = np.random.default_rng(n)
        d = len(sector_basis(n))
        for rho in (random_density(rng, d), restricted(ground_state_density(n), n)):
            rec = populations(rho, n)
            full = padded(rho, n)
            sectors = [np.trace(excitation_projector(k, n) @ full).real for k in range(n + 1)]
            assert rec.p_ground == sectors[0] and rec.p_one == sectors[1]
            assert rec.p_two == (sectors[2] if n >= 2 else 0.0)
            assert rec.p_excited == tuple(
                np.trace(number_operator(i, n) @ full).real for i in range(1, n + 1)
            )

    def test_single_qubit_has_no_two_sector(self):
        rec = populations(np.diag([0.4, 0.6]).astype(complex), 1)
        assert rec.p_two == 0.0
        assert rec.p_one == pytest.approx(0.6)


class TestSpinFlip:
    def test_maximally_mixed(self):
        out = spin_flip(np.eye(4, dtype=complex) / 4.0)
        assert np.allclose(np.linalg.eigvals(out), 1 / 16)
        assert concurrence_pair(np.eye(4, dtype=complex) / 4.0) == 0.0

    def test_bell_state_invariant(self):
        rho = bell_phi_plus()
        out = spin_flip(rho)
        assert np.allclose(out, rho)
        eigs = np.sort(np.real(np.linalg.eigvals(out)))[::-1]
        assert np.allclose(eigs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            spin_flip(np.eye(8))


class TestConcurrence:
    def test_bell_states(self):
        assert concurrence_pair(bell_phi_plus()) == pytest.approx(1.0, abs=1e-10)
        assert concurrence_pair(bell_phi_plus(-1.0)) == pytest.approx(1.0, abs=1e-10)
        assert concurrence_pair(bell_psi_plus()) == pytest.approx(1.0, abs=1e-10)

    def test_product_states(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            assert concurrence_pair(rho) == pytest.approx(0.0, abs=1e-10)

    def test_werner_closed_form(self):
        # C(p) = max(0, (3p - 1) / 2) for Werner mixtures of a Bell state
        assert concurrence_pair(werner(0.5)) == pytest.approx(0.25, abs=1e-10)
        for p in np.linspace(0.0, 1.0, 11):
            expected = max(0.0, (3 * p - 1) / 2)
            assert concurrence_pair(werner(p)) == pytest.approx(expected, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(2)
        rho = werner(0.8)
        for _ in range(5):
            u = np.kron(random_single_qubit_unitary(rng), random_single_qubit_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence_pair(rotated) - concurrence_pair(rho)) < 1e-8

    def test_invalid_matrix_detected(self):
        bad = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)  # negative population
        with pytest.raises(ValueError):
            concurrence_pair(bad)
        # explicit opt-out clamps instead of raising
        concurrence_pair(bad, invalid_below=None)


class TestAveragePairwise:
    def test_two_qubits_equals_pair_value(self):
        rho = werner(0.9)
        c = concurrence_pair(rho)
        values = pair_concurrences(rho, 2)
        assert average_concurrence(values, 2, "all-pairs") == pytest.approx(c)
        assert average_concurrence(values, 2, "half-n") == pytest.approx(c)

    def test_ground_state_zero(self):
        for n in (2, 3, 4):
            rho = restricted(ground_state_density(n), n)
            assert average_concurrence(pair_concurrences(rho, n), n) == 0.0

    def test_one_entangled_pair_of_four_qubits(self):
        rho = np.kron(bell_phi_plus(), ground_state_density(2))
        values = pair_concurrences(restricted(rho, 4), 4)
        assert values[0] == pytest.approx(1.0, abs=1e-10)  # pair (1,2)
        assert np.allclose(values[1:], 0.0, atol=1e-10)
        assert average_concurrence(values, 4, "all-pairs") == pytest.approx(1 / 6, abs=1e-10)
        assert average_concurrence(values, 4, "half-n") == pytest.approx(1 / 2, abs=1e-10)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            average_concurrence(np.array([0.5]), 2, "bogus")


class TestSectorBasisInput:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pair_states_match_partial_trace_oracle(self, n):
        rng = np.random.default_rng(30 + n)
        rho = random_density(rng, len(sector_basis(n)))
        want = [partial_trace_to_pair(padded(rho, n), i, j, n) for i, j in all_pairs(n)]
        assert np.abs(pair_states(rho, n) - np.array(want)).max() < 1e-15

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_equals_zero_padded_full_state(self, n):
        rng = np.random.default_rng(40 + n)
        rho = random_density(rng, len(sector_basis(n)))
        full = padded(rho, n)
        want = [partial_trace_to_pair(full, i, j, n) for i, j in all_pairs(n)]
        assert np.abs(pair_states(rho, n) - np.array(want)).max() < 1e-15
        oracle_c = [wootters_concurrence(m) for m in want]
        assert np.abs(pair_concurrences(rho, n) - oracle_c).max() < 1e-12
        got = populations(rho, n)
        ref = {
            name: np.trace(excitation_projector(k, n) @ full).real
            for k, name in enumerate(("p_ground", "p_one", "p_two"))
        }
        ref["p_total"] = np.trace(full).real
        for name in ("p_ground", "p_one", "p_two", "p_total"):
            assert getattr(got, name) == pytest.approx(ref[name], abs=1e-15)
        ref_excited = [np.trace(number_operator(i, n) @ full).real for i in range(1, n + 1)]
        assert np.allclose(got.p_excited, ref_excited, atol=1e-15)

    @pytest.mark.parametrize("n, entangled", [(4, 5), (5, 1)])
    def test_concurrences_of_random_pure_states_match_oracle(self, n, entangled):
        # a pure state on the basis leaves some pairs entangled, unlike the
        # full-rank densities above, whose pair concurrences all vanish
        rng = np.random.default_rng(55 + n)
        d = len(sector_basis(n))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        want = oracle_concurrences(rho, n)
        assert np.count_nonzero(want > 0.01) == entangled
        assert np.abs(pair_concurrences(rho, n) - want).max() < 1e-12

    def test_w_state_concurrences_match_oracle(self):
        # every pair of the n-qubit W state has concurrence 2/n
        n, basis = 7, sector_basis(7)
        v = np.zeros(len(basis))
        v[np.searchsorted(basis, [1 << k for k in range(n)])] = 1 / np.sqrt(n)
        rho = np.outer(v, v)
        want = oracle_concurrences(rho, n)
        assert np.allclose(want, 2 / n, rtol=0, atol=1e-12)
        assert np.abs(pair_concurrences(rho, n) - want).max() < 1e-12

    def test_entangled_pair_in_a_seven_qubit_chain(self):
        # (|e_2 g_5> + |g_2 e_5>)/sqrt(2) with the other qubits in |g>
        n, basis = 7, sector_basis(7)
        v = np.zeros(len(basis), dtype=complex)
        v[np.searchsorted(basis, [1 << 5, 1 << 2])] = 1 / np.sqrt(2)
        values = pair_concurrences(np.outer(v, v.conj()), n)
        assert values[all_pairs(n).index((2, 5))] == pytest.approx(1.0, abs=1e-10)
        assert np.sum(values) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_other_dimensions(self):
        # the full 2^5 = 32 space is refused too: one input format
        for d in (16, 27, 32):
            with pytest.raises(ValueError, match="26 x 26"):
                populations(np.eye(d), 5)
            with pytest.raises(ValueError, match="26 x 26"):
                pair_concurrences(np.eye(d), 5)


class TestTrajectoryReductions:
    def test_max_of_constant_zero(self):
        traj = FakeTrajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert max_concurrence(traj) == (0.0, 0.0)

    def test_max_breaks_ties_early(self):
        traj = FakeTrajectory([0.0, 1.0, 2.0, 3.0], [0.1, 0.5, 0.5, 0.2])
        assert max_concurrence(traj) == (0.5, 1.0)

    def test_survival_of_zero_signal(self):
        traj = FakeTrajectory([0.0, 1.0], [0.0, 0.0])
        assert survival_time(traj) == 0.0

    def test_survival_boxcar(self):
        times = np.linspace(0.0, 10.0, 101)
        values = np.where((times >= 2.0) & (times <= 5.0), 1.0, 0.0)
        assert survival_time(FakeTrajectory(times, values), 0.05) == pytest.approx(3.0)

    def test_survival_threshold_validation(self):
        traj = FakeTrajectory([0.0], [1.0])
        with pytest.raises(ValueError):
            survival_time(traj, 0.0)
        with pytest.raises(ValueError):
            survival_time(traj, 1.0)

    def test_empty_trajectory_rejected(self):
        traj = FakeTrajectory([], [])
        with pytest.raises(ValueError):
            max_concurrence(traj)
