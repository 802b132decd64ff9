"""Dense linear-algebra helpers: products, exponentials, Gram checks."""

import numpy as np
import pytest
import scipy.linalg

from qpassage.linalg import (IDENTITY_2, SIGMA_MINUS, SIGMA_X, SIGMA_Z,
                             check_density_matrix, check_hermitian,
                             check_state_vector, completeness_defect, dagger,
                             embed_qubit_operator, expm_hermitian, gram_matrix,
                             kron, StateCheckError)

from qpassage.ancillary import SubspaceLayout, build_frame

from helpers import kron_oracle, random_schedule_set, taylor_expm, unitarity_defect

RNG = np.random.default_rng(20240901)


def random_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKron:
    def test_sigma_z_with_identity(self):
        assert np.array_equal(kron(SIGMA_Z, IDENTITY_2),
                              np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))

    def test_identity_case(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4, dtype=complex))

    def test_matches_elementwise_oracle(self):
        a = random_complex((3, 3))
        b = random_complex((2, 2))
        assert np.allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)

    def test_mixed_product_property(self):
        a, c = random_complex((3, 3)), random_complex((3, 3))
        b, d = random_complex((2, 2)), random_complex((2, 2))
        left = kron(a, b) @ kron(c, d)
        right = kron_oracle(a @ c, b @ d)
        assert np.allclose(left, right, atol=1e-12)

    def test_associativity_exact_for_integer_matrices(self):
        a = RNG.integers(-3, 4, size=(2, 2)).astype(complex)
        b = RNG.integers(-3, 4, size=(3, 3)).astype(complex)
        c = RNG.integers(-3, 4, size=(2, 2)).astype(complex)
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


class TestExpm:
    def test_pauli_x_quarter_turn(self):
        # exp(-i theta sx) = cos(theta) 1 - i sin(theta) sx at theta = pi/2
        got = expm_hermitian(SIGMA_X, -1j * np.pi / 2)
        assert np.allclose(got, -1j * SIGMA_X, atol=1e-14)

    def test_zero_matrix(self):
        assert np.allclose(expm_hermitian(np.zeros((5, 5)), 2.3 - 0.7j), np.eye(5), atol=1e-15)

    def test_anti_hermitian_gives_unitary_and_matches_taylor(self):
        h = random_complex((6, 6))
        h = h + dagger(h)
        got = expm_hermitian(h, 0.8j)  # exp(0.8 * (i h)), an anti-Hermitian exponent
        assert unitarity_defect(got) <= 1e-11
        ref = taylor_expm(1j * h, 0.8)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-12

    def test_hermitian_fast_path_agrees(self):
        h = random_complex((6, 6))
        h = h + dagger(h)
        assert np.allclose(expm_hermitian(h, -0.3j), scipy.linalg.expm(-0.3j * h), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.zeros((2, 3)), 1.0)


class TestChecks:
    def test_gram_of_orthonormal_columns_is_identity(self):
        q, _ = np.linalg.qr(random_complex((5, 5)))
        assert np.max(np.abs(gram_matrix(q) - np.eye(5))) <= 1e-12
        assert completeness_defect(q) <= 1e-12

    def test_completeness_of_a_frame_stack_is_its_worst_member(self):
        layout = SubspaceLayout(2, 3)
        schedules = random_schedule_set(np.random.default_rng(5), layout)
        times = np.linspace(0.1, 0.9, 4)  # four frames of dimension five
        vectors = build_frame(layout, schedules, times).vectors
        assert vectors.shape == (4, 5, 5)
        worst = max(completeness_defect(v) for v in vectors)
        assert completeness_defect(vectors) == worst <= 1e-12
        broken = vectors.copy()
        broken[2, :, 0] *= 1.5
        assert completeness_defect(broken) == completeness_defect(broken[2]) > 0.2

    def test_hermitian_check(self):
        h = random_complex((4, 4))
        h = h + dagger(h)
        check_hermitian(h)
        with pytest.raises(ValueError):
            check_hermitian(h + 1e-6 * random_complex((4, 4)))

    def test_state_and_density_checks(self):
        psi = random_complex(5)
        psi /= np.linalg.norm(psi)
        check_state_vector(psi)
        with pytest.raises(ValueError):
            check_state_vector(1.1 * psi)
        rho = np.outer(psi, psi.conj())
        check_density_matrix(rho)
        with pytest.raises(ValueError):
            check_density_matrix(1.5 * rho)
        with pytest.raises(ValueError):
            check_density_matrix(rho - 0.1 * np.eye(5) / 5 + 0.1 * np.diag([1, -1, 0, 0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0)])
    def test_nan_states_fail_the_checks(self, bad):
        with pytest.raises(StateCheckError, match="not normalized") as err:
            check_state_vector(np.array([bad, 0.0]))
        assert np.isnan(err.value.value)
        with pytest.raises(StateCheckError, match="not Hermitian") as err:
            check_density_matrix(np.diag([bad, 0.0]))
        assert np.isnan(err.value.value)
        coherent = np.full((2, 2), 0.5, dtype=complex)
        coherent[0, 1] = coherent[1, 0] = bad  # a nan off the diagonal leaves the trace at 1
        with pytest.raises(StateCheckError):
            check_density_matrix(coherent)

    def test_embed_qubit_operator(self):
        # basis order per qubit is (|e>, |g>), qubit 0 most significant,
        # so |egg> = 0b011 = 3 and |eeg> = 0b001 = 1
        lowered = embed_qubit_operator(SIGMA_MINUS, 3, 1)
        assert lowered[0b011, 0b001] == 1.0
        assert np.count_nonzero(lowered) == 4
