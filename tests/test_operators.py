import numpy as np
import pytest

from oracle import (
    commutator,
    dagger,
    excitation_projector,
    ground_state_density,
    lowering_operator,
    number_operator,
    partial_trace_to_pair,
    raising_operator,
)
from wgqed.operators import all_pairs, sector_basis


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_density(rng, d):
    a = random_matrix(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def sigma_z(i, n):
    """|e><e| - |g><g| on qubit i."""
    return 2.0 * number_operator(i, n) - np.eye(2**n)


class TestLowering:
    def test_single_qubit_matrix(self):
        m = lowering_operator(1, 1)
        # <g|M|e> = 1 is the only nonzero entry
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = 1.0
        assert np.array_equal(m, expected)

    def test_first_slot_of_two(self):
        m = lowering_operator(1, 2)
        e1g2 = np.zeros(4, dtype=complex)
        e1g2[2] = 1.0  # qubit 1 is the most significant factor
        out = m @ e1g2
        g1g2 = np.zeros(4, dtype=complex)
        g1g2[0] = 1.0
        assert np.allclose(out, g1g2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            lowering_operator(0, 2)
        with pytest.raises(ValueError):
            lowering_operator(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutator_algebra(self, n):
        # [sp_i, sm_j] = delta_ij sigma_z_i, checked entrywise for all pairs
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = commutator(dagger(lowering_operator(i, n)), lowering_operator(j, n))
                expected = sigma_z(i, n) if i == j else np.zeros((2**n, 2**n))
                assert np.allclose(lhs, expected, atol=1e-14)


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(4, dtype=complex)), np.eye(4))

    def test_lowering(self):
        m = dagger(lowering_operator(1, 1))
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 0] = 1.0  # <e|M|g> = 1
        assert np.array_equal(m, expected)

    def test_involution(self):
        rng = np.random.default_rng(7)
        for d in (2, 4, 8):
            m = random_matrix(rng, d)
            assert np.allclose(dagger(dagger(m)), m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dagger(np.zeros((2, 3)))


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 4)
        assert np.allclose(commutator(a, a), 0.0)

    def test_single_qubit_z(self):
        sp = raising_operator(1, 1)
        sm = lowering_operator(1, 1)
        assert np.allclose(commutator(sp, sm), sigma_z(1, 1))

    def test_traceless(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = random_matrix(rng, 8), random_matrix(rng, 8)
            assert abs(np.trace(commutator(a, b))) < 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(4))


def brute_force_pair_trace(rho, i, j, n):
    """Independent summation oracle: explicit loop over kept/traced bits."""
    others = [k for k in range(n) if k not in (i - 1, j - 1)]
    out = np.zeros((4, 4), dtype=complex)
    for a_i in range(2):
        for a_j in range(2):
            for b_i in range(2):
                for b_j in range(2):
                    acc = 0.0
                    for rest in range(2 ** len(others)):
                        bits_row = [0] * n
                        bits_col = [0] * n
                        bits_row[i - 1], bits_row[j - 1] = a_i, a_j
                        bits_col[i - 1], bits_col[j - 1] = b_i, b_j
                        for pos, k in enumerate(others):
                            bit = (rest >> pos) & 1
                            bits_row[k] = bits_col[k] = bit
                        row = int("".join(map(str, bits_row)), 2)
                        col = int("".join(map(str, bits_col)), 2)
                        acc += rho[row, col]
                    out[2 * a_i + a_j, 2 * b_i + b_j] = acc
    return out


class TestPartialTrace:
    def test_ground_state(self):
        for n in (2, 3, 4):
            rho = ground_state_density(n)
            for i, j in all_pairs(n):
                red = partial_trace_to_pair(rho, i, j, n)
                assert np.allclose(red, ground_state_density(2))

    def test_two_qubit_identity(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace_to_pair(rho, 1, 2, 2), rho)

    def test_three_qubit_hand_value(self):
        # Bell pair on qubits (1,2), qubit 3 in the ground state; reducing to
        # (1,3) must give (I/2) on qubit 1 tensored with |g><g| on qubit 3.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.kron(np.outer(bell, bell.conj()), ground_state_density(1))
        red = partial_trace_to_pair(rho, 1, 3, 3)
        expected = np.kron(0.5 * np.eye(2), np.diag([1.0, 0.0]))
        assert np.allclose(red, expected)
        assert np.allclose(red, brute_force_pair_trace(rho, 1, 3, 3))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force_on_random_states(self, n):
        rng = np.random.default_rng(n)
        rho = random_density(rng, 2**n)
        for i, j in all_pairs(n):
            fast = partial_trace_to_pair(rho, i, j, n)
            slow = brute_force_pair_trace(rho, i, j, n)
            assert np.allclose(fast, slow, atol=1e-12)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 16)
        red = partial_trace_to_pair(rho, 2, 4, 4)
        assert abs(np.trace(red) - np.trace(rho)) < 1e-12
        assert np.linalg.eigvalsh(red).min() > -1e-10

    def test_invalid_indices(self):
        rho = ground_state_density(3)
        with pytest.raises(ValueError):
            partial_trace_to_pair(rho, 2, 2, 3)
        with pytest.raises(ValueError):
            partial_trace_to_pair(rho, 3, 1, 3)


class TestExcitationProjector:
    def test_zero_excitations_two_qubits(self):
        assert np.allclose(excitation_projector(0, 2), ground_state_density(2))

    def test_single_sector_two_qubits(self):
        p = excitation_projector(1, 2)
        assert np.allclose(np.diag(p), [0, 1, 1, 0])
        assert abs(np.trace(p) - 2) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_completeness(self, n):
        total = sum(excitation_projector(k, n) for k in range(n + 1))
        assert np.allclose(total, np.eye(2**n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_idempotent_and_orthogonal(self, n):
        projectors = [excitation_projector(k, n) for k in range(n + 1)]
        for a, pa in enumerate(projectors):
            assert np.allclose(pa @ pa, pa)
            for pb in projectors[a + 1:]:
                assert np.allclose(pa @ pb, 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            excitation_projector(3, 2)


def test_number_operator_counts_excitation():
    n_op = number_operator(2, 3)
    state = np.zeros(8, dtype=complex)
    state[0b010] = 1.0  # qubit 2 excited
    assert abs(np.real(state.conj() @ n_op @ state) - 1.0) < 1e-14


class TestSectorBasis:
    def test_dimensions(self):
        dims = [len(sector_basis(n)) for n in range(1, 11)]
        assert dims == [2, 4, 8, 15, 26, 42, 64, 93, 130, 176]

    @pytest.mark.parametrize("n", [1, 3, 4, 7])
    def test_ascending_indices_with_at_most_three_excitations(self, n):
        basis = sector_basis(n)
        want = [b for b in range(2**n) if bin(b).count("1") <= 3]
        assert basis.tolist() == want

    @pytest.mark.parametrize("n", [0, 11, 40])
    def test_out_of_range_is_refused_before_the_scan(self, n):
        with pytest.raises(ValueError, match=f"n = {n} is out of range"):
            sector_basis(n)
