"""Dense linear-algebra helpers: products, exponentials, Gram checks."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qpassage.linalg import (DEGREE, IDENTITY_2, SIGMA_MINUS, THETA,
                             check_density_matrix, check_state_vector,
                             completeness_defect, dagger, embed_qubit_operator,
                             expm_hermitian, gram_matrix, kron, StateCheckError)

from qpassage import linalg
from qpassage.ancillary import SubspaceLayout, build_frame

from helpers import (SIGMA_X, SIGMA_Z, kron_oracle, random_schedule_set, taylor_expm,
                     unitarity_defect)

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


def _blocks(entries):
    """(n, 2, 2) Hermitian blocks from (h00, h11, Re h10, Im h10) rows."""
    top, bottom, re, im = np.asarray(entries, dtype=float).T
    h = np.empty((len(top), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = top, bottom
    h[:, 1, 0] = re + 1j * im
    h[:, 0, 1] = re - 1j * im
    return h


def _relative_errors(got, h, scales):
    """||got - expm(s h)||_F / ||expm(s h)||_F per block, the reference
    V e^(s lambda) V^dagger from `np.linalg.eigh`: `scipy.linalg.expm` can be
    1e-14 off on a 2 x 2 block, as far as the bound of the tests below."""
    lam, v = np.linalg.eigh(h)
    want = (v * np.exp(np.asarray(scales)[:, None] * lam)[:, None, :]) @ dagger(v)
    return np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))


def _unitarity(u):
    return np.max(np.abs(dagger(u) @ u - np.eye(u.shape[-1])), axis=(-2, -1))


_entry = st.floats(-5.0, 5.0, allow_nan=False)
_part = st.floats(-1.0, 1.0, allow_nan=False)


class TestTwoLevelExpm:
    """Two-level blocks take the closed form
    e^(s m) [cosh(s w) I + sinh(s w)/w (H - m I)]."""

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.tuples(_entry, _entry, _entry, _entry), min_size=1, max_size=8),
           time=st.floats(-2.0, 2.0, allow_nan=False))
    def test_imaginary_scale_matches_eigh_and_is_unitary(self, entries, time):
        h = _blocks(entries)
        got = expm_hermitian(h, -1j * time)
        assert np.all(_relative_errors(got, h, [-1j * time] * len(h)) <= 1e-14)
        assert np.all(_unitarity(got) <= 1e-15)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(_entry, _entry, _entry, _entry, _part, _part),
                         min_size=1, max_size=8))
    @example(rows=[(0.0,) * 6, (0.0,) * 6,
                   (4.066719527791298, -3.0, 4.0, 4.901994717579585, 1.0, 0.26880050373245123)])
    def test_an_array_of_scales_matches_eigh(self, rows):
        # rows: (h00, h11, Re h10, Im h10, Re s, Im s)
        h = _blocks([row[:4] for row in rows])
        scales = np.array([complex(*row[4:]) for row in rows])
        assert np.all(_relative_errors(expm_hermitian(h, scales), h, scales) <= 1e-14)

    def test_a_real_scale_matches_eigh(self):
        h = _blocks([[0.3, -1.2, 0.7, -0.4], [2.0, 2.0, 0.0, 0.0], [1.5, 0.5, 0.0, 2.5]])
        assert np.all(_relative_errors(expm_hermitian(h, 0.8), h, [0.8] * 3) <= 1e-14)

    @pytest.mark.parametrize("level", [0.0, 1.7, -40.0])
    def test_a_multiple_of_the_identity_is_a_phase(self, level):
        # w = 0: sinh(s w)/w is replaced by its limit s
        got = expm_hermitian(level * np.eye(2), -0.3j)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - np.exp(-0.3j * level) * np.eye(2))) <= 1e-15
        assert np.array_equal(expm_hermitian(np.zeros((3, 2, 2)), -0.3j),
                              np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_entries_near_1e_minus_300(self):
        # exp(s h) = I + s h to far below round-off; w^2 would underflow
        h = 1e-300 * _blocks([[0.3, -1.2, 0.7, -0.4], [1.0, 1.0, 2.0, 0.5]])
        got = expm_hermitian(h, -0.7j)
        assert np.max(np.abs(got - np.eye(2) - (-0.7j) * h)) <= 1e-15 * 1e-300 * 2.0
        assert np.all(_unitarity(got) <= 1e-15)

    def test_entries_near_1e150(self):
        h = 1e150 * _blocks([[0.3, -1.2, 0.7, -0.4], [1.0, 1.0, 2.0, 0.5]])
        scale = -1.3e-150j
        got = expm_hermitian(h, scale)
        assert np.all(_relative_errors(got, h, [scale] * 2) <= 1e-14)
        assert np.all(_unitarity(got) <= 1e-15)

    def test_the_closed_form_and_the_taylor_kernel_agree_at_two_levels(self):
        h = _blocks([[0.3, -1.2, 0.7, -0.4], [2.0, 2.0, 0.0, 0.0], [1.5, 0.5, 0.0, 2.5]])
        got = expm_hermitian(h, -0.1j)
        assert np.max(np.abs(got - linalg._taylor_expm(h, -0.1j))) <= 1e-15


def _hermitian(parts):
    """Hermitian blocks read from the lower triangle and the real diagonal
    of the complex stack parts[0] + i parts[1]."""
    x = parts[0] + 1j * parts[1]
    lower = np.tril(x, -1)
    h = lower + dagger(lower)
    h[..., range(x.shape[-1]), range(x.shape[-1])] = parts[0].diagonal(0, -2, -1)
    return h


@st.composite
def _stacks(draw, bound=2.0, blocks=st.integers(1, 4)):
    """(k, b, b) Hermitian stacks, b = 3 ... 8, entries in [-bound, bound]."""
    b, k = draw(st.integers(3, 8)), draw(blocks)
    return _hermitian(draw(arrays(float, (2, k, b, b),
                                  elements=st.floats(-bound, bound, allow_nan=False))))


def _norm_1(h):
    """||R||_1 of the real form R of each block, the norm the kernel scales by."""
    return np.max(np.sum(np.abs(h.real) + np.abs(h.imag), axis=-2), axis=-1)


class TestTaylorExpm:
    """Blocks of three or more levels take a degree-8 Taylor polynomial of
    their real form, scaled and squared per block above THETA."""

    def test_theta_is_where_the_tail_reaches_the_unit_round_off(self):
        tail = sum(THETA ** k / math.factorial(k) for k in range(DEGREE + 1, DEGREE + 30))
        assert 2.0 ** -53 <= tail <= 1.01 * 2.0 ** -53
        assert DEGREE == 8 and 0.0699 < THETA < 0.0701

    def test_no_size_calls_a_lapack_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expm_hermitian called an eigensolver")
        for name in ("eigh", "eig", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for size in range(1, 9):
            h = _hermitian(np.stack([np.eye(size), np.tri(size, k=-1)]))
            assert _unitarity(expm_hermitian(np.stack([h, 3.0 * h]), -0.5j)).max() <= 1e-13

    @settings(max_examples=150, deadline=None)
    @given(h=_stacks(), time=st.floats(-1.0, 1.0, allow_nan=False))
    def test_imaginary_scale_matches_eigh_and_is_unitary(self, h, time):
        got = expm_hermitian(h, -1j * time)
        assert np.all(_relative_errors(got, h, [-1j * time] * len(h)) <= 1e-12)
        assert np.all(_unitarity(got) <= 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(h=_stacks(), data=st.data())
    def test_real_and_complex_scales_match_eigh(self, h, data):
        parts = st.floats(-1.0, 1.0, allow_nan=False)
        real = data.draw(parts)
        assert np.all(_relative_errors(expm_hermitian(h, real), h, [real] * len(h)) <= 1e-12)
        scale = complex(data.draw(parts), data.draw(parts))
        assert np.all(_relative_errors(expm_hermitian(h, scale), h, [scale] * len(h)) <= 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(h=_stacks(), data=st.data())
    def test_an_array_of_scales_matches_eigh(self, h, data):
        parts = st.floats(-1.0, 1.0, allow_nan=False)
        scales = np.array([complex(data.draw(parts), data.draw(parts)) for _ in h])
        assert np.all(_relative_errors(expm_hermitian(h, scales), h, scales) <= 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(h=_stacks(bound=5.0), share=st.floats(-1.0, 1.0, allow_nan=False))
    def test_steps_below_theta_are_exact_to_round_off(self, h, share):
        # the protocols' regime: ||s H||_1 <= 1.8e-3, no squaring
        time = share * THETA / max(_norm_1(h).max(), 1.0)
        got = expm_hermitian(h, -1j * time)
        want = np.array([scipy.linalg.expm(-1j * time * block) for block in h])
        assert np.max(np.abs(got - want)) <= 4.5e-16
        assert np.all(_unitarity(got) <= 1e-15)

    @settings(max_examples=100, deadline=None)
    @given(h=_stacks(bound=5.0, blocks=st.integers(2, 5)), data=st.data())
    def test_a_blocks_bits_do_not_depend_on_its_stack(self, h, data):
        # the blocks straddle THETA, so some stacks take the squaring branch
        scale = -1j * data.draw(st.sampled_from([1e-4, 0.01, 0.3]))
        got = expm_hermitian(h, scale)
        for k, block in enumerate(h):
            assert np.array_equal(expm_hermitian(block, scale), got[k])
        assert np.array_equal(expm_hermitian(h[::-1], scale), got[::-1])
        wide = np.stack([h, 100.0 * h[::-1]], axis=1)  # (k, 2, b, b), squared in column 1
        assert np.array_equal(expm_hermitian(wide, scale)[:, 0], got)

    @settings(max_examples=100, deadline=None)
    @given(h=_stacks(), junk=st.data())
    def test_a_junk_upper_triangle_reads_as_the_hermitian_completion(self, h, junk):
        noise = junk.draw(arrays(float, (2,) + h.shape, elements=st.floats(-1e3, 1e3)))
        upper = np.triu(noise[0] + 1j * noise[1], 1) + 1j * noise[1] * np.eye(h.shape[-1])
        assert np.array_equal(expm_hermitian(h + upper, -0.37j), expm_hermitian(h, -0.37j))

    def test_blocks_above_theta_are_scaled_and_squared_on_their_own(self):
        b = 5
        level = 2.0 * THETA  # ||R||_1 / THETA = 2 exactly: one squaring
        h = np.stack([np.diag(np.linspace(-level, level, b)),
                      _hermitian(RNG.uniform(-3.0, 3.0, size=(2, b, b)))])
        got = expm_hermitian(h, -1j)
        assert np.max(np.abs(np.diagonal(got[0]) - np.exp(-1j * np.linspace(-level, level, b)))) <= 4.5e-16
        assert np.all(_relative_errors(got, h, [-1j] * 2) <= 1e-13)
        assert np.all(_unitarity(got) <= 1e-13)
        small = 1e-3 * h[1]
        assert np.array_equal(expm_hermitian(np.stack([small, h[1]]), -1j)[0],
                              expm_hermitian(small, -1j))

    @pytest.mark.parametrize("size", [3, 4, 8])
    def test_zero_blocks_give_the_identity(self, size):
        got = expm_hermitian(np.zeros((3, size, size)), 2.3 - 0.7j)
        assert np.array_equal(got, np.broadcast_to(np.eye(size), got.shape))
        assert expm_hermitian(np.zeros((0, size, size)), -1j).shape == (0, size, size)

    def test_entries_near_1e_minus_300(self):
        # exp(s h) = I + s h to far below round-off; h^2 underflows
        h = 1e-300 * _hermitian(RNG.uniform(-1.0, 1.0, size=(2, 3, 4, 4)))
        got = expm_hermitian(h, -0.7j)
        assert np.max(np.abs(got - np.eye(4) - (-0.7j) * h)) <= 1e-15 * 1e-300 * 2.0
        assert np.all(_unitarity(got) <= 1e-15)

    def test_entries_near_1e150(self):
        h = 1e150 * _hermitian(RNG.uniform(-1.0, 1.0, size=(2, 3, 4, 4)))
        scale = -1.3e-150j
        got = expm_hermitian(h, scale)
        assert np.all(_relative_errors(got, h, [scale] * 3) <= 1e-13)
        assert np.all(_unitarity(got) <= 1e-13)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(2, 0), (1, 1)])
    def test_a_non_finite_block_gives_nan_and_no_warning(self, value, where):
        h = _hermitian(RNG.uniform(-1.0, 1.0, size=(2, 3, 4, 4)))
        h[1][where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expm_hermitian(h, -0.2j)
            assert not np.isfinite(got[1]).any()
            assert np.array_equal(got[[0, 2]], expm_hermitian(h[[0, 2]], -0.2j))
            assert not np.isfinite(expm_hermitian(h[0], np.inf * 1j)).any()


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
