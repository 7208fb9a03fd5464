import cmath

import numpy as np
import pytest

from renyidpi import (
    DimensionMismatch,
    InvalidOrder,
    NonHermitian,
    NonSquare,
    NotPositiveDefinite,
    SpectralDecomposition,
    dagger,
    frobenius,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    matrix_power_psd,
    partial_trace,
    product_power,
    schatten_norm,
    trace_norm,
    vectorize,
)
from renyidpi.linalg import congruence_power, positive_eig
from helpers import nonhermitian_power, rand_pd

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestHermitianEig:
    def test_identity(self):
        sd = hermitian_eig(np.eye(2))
        np.testing.assert_allclose(sd.eigenvalues, [1.0, 1.0])
        v = sd.eigenvectors
        np.testing.assert_allclose(dagger(v) @ v, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        sd = hermitian_eig(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(sd.eigenvalues, [0.25, 0.75])

    def test_pauli_x(self):
        # Characteristic polynomial lambda^2 - 1 = 0 by hand.
        sd = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4, 8):
            m = rand_pd(rng, d)
            sd = hermitian_eig(m)
            assert frobenius(sd.apply(lambda w: w) - m) <= 1e-10 * d

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixPower:
    def test_diagonal_sqrt(self):
        out = matrix_power_psd(np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero_exponent(self):
        rng = np.random.default_rng(1)
        m = rand_pd(rng, 3)
        np.testing.assert_allclose(matrix_power_psd(m, 0.0), np.eye(3), atol=1e-14)

    def test_imaginary_exponent(self):
        # Scalar oracle: lambda^i = exp(i ln lambda).
        m = np.diag([np.e, np.e**2])
        out = matrix_power_psd(m, 1j)
        np.testing.assert_allclose(
            np.diag(out), [cmath.exp(1j), cmath.exp(2j)], atol=1e-13
        )

    def test_power_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rand_pd(rng, 3)
            s, t = rng.uniform(-1.5, 1.5, size=2)
            lhs = matrix_power_psd(m, s) @ matrix_power_psd(m, t)
            assert frobenius(lhs - matrix_power_psd(m, s + t)) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_power_psd(np.diag([1.0, -0.5]), 0.5)

    def test_array_exponents_stack_the_scalar_calls(self):
        rng = np.random.default_rng(6)
        zs = np.array([0.0, 0.3, -1.5, 0.5j, 0.5 + 1j, -0.7, 2.0])
        for d in (2, 3, 4):
            sd = hermitian_eig(rand_pd(rng, d))
            stack = sd.power(zs)
            assert stack.shape == (len(zs), d, d)
            for z, got in zip(zs, stack):
                assert frobenius(got - sd.power(complex(z))) <= 1e-14 * frobenius(got)
                if z.imag == 0.0:
                    # Re-Hermitized exactly, as the scalar call is.
                    assert np.array_equal(got, dagger(got))
            assert np.array_equal(stack[0], np.eye(d))


class TestStacks:
    """Stacked eigen-data: each slice equals the call on its matrix alone."""

    @staticmethod
    def stack(rng, n, d):
        return np.stack([rand_pd(rng, d) for _ in range(n)])

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_stacked_eig_and_norm_match_the_slices(self, d):
        rng = np.random.default_rng(40 + d)
        ms = self.stack(rng, 5, d)
        sd = hermitian_eig(ms)
        assert sd.eigenvalues.shape == (5, d) and sd.eigenvectors.shape == (5, d, d)
        norms = frobenius(ms)
        for k, m in enumerate(ms):
            one = hermitian_eig(m)
            assert np.array_equal(sd.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(sd.eigenvectors[k], one.eigenvectors)
            assert norms[k] == frobenius(m)

    def test_power_broadcasts_a_row_of_exponents_per_slice(self):
        rng = np.random.default_rng(41)
        sd = hermitian_eig(self.stack(rng, 3, 3))
        zs = np.array([[0.0, 0.3, 0.5j], [-1.5, 2.0, 0.5 + 1j], [0.5, -0.7, 0.0]])
        out = sd.power(zs)
        assert out.shape == (3, 3, 3, 3)
        for k in range(3):
            one = SpectralDecomposition(sd.eigenvalues[k], sd.eigenvectors[k])
            assert np.array_equal(sd.power(zs[:, 0])[k], one.power(zs[k, 0]))
            for j, z in enumerate(zs[k]):
                assert np.array_equal(out[k, j], one.power(z))
        assert np.array_equal(out[0, 0], np.eye(3))
        with pytest.raises(ValueError):
            sd.power(np.zeros(4))

    def test_matrix_and_product_power_over_orders(self):
        rng = np.random.default_rng(42)
        rho, sd = rand_pd(rng, 3), hermitian_eig(rand_pd(rng, 3))
        alphas = np.array([-0.9, 0.3, 0.5])
        zs = np.array([[1.0, 0.5j], [-2.0, 0.3], [0.0, 1.0 - 1j]])
        stack = product_power(rho, sd, alphas, zs)
        assert stack.shape == (3, 2, 3, 3)
        for k, alpha in enumerate(alphas):
            assert np.array_equal(stack[k], product_power(rho, sd, alpha, zs[k]))
        ms = self.stack(rng, 3, 3)
        powers = matrix_power_psd(ms, alphas)
        for k, alpha in enumerate(alphas):
            assert np.array_equal(powers[k], matrix_power_psd(ms[k], alpha))

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_product_power_and_trace_norm_of_a_stack(self, d):
        # Slice t of rho against slice t of sigma's eigen-data, over the
        # orders and a row of exponents per order.
        rng = np.random.default_rng(45 + d)
        rhos, sd = self.stack(rng, 4, d), hermitian_eig(self.stack(rng, 4, d))
        alphas = np.array([-0.9, 0.3, 0.5])
        zs = np.array([[1.0, 0.5j], [-2.0, 0.3], [0.0, 1.0 - 1j]])
        ms = np.stack([rand_complex(rng, d) for _ in range(4)])
        stack = product_power(rhos, sd, alphas, zs)
        single = product_power(rhos, sd, 0.5, 0.5j)
        norms = trace_norm(ms)
        assert stack.shape == (4, 3, 2, d, d) and single.shape == (4, d, d)
        assert norms.shape == (4,) and type(trace_norm(ms[0])) is float
        for t in range(4):
            one = SpectralDecomposition(sd.eigenvalues[t], sd.eigenvectors[t])
            assert np.array_equal(stack[t], product_power(rhos[t], one, alphas, zs))
            assert np.array_equal(single[t], product_power(rhos[t], one, 0.5, 0.5j))
            assert norms[t] == trace_norm(ms[t])
        with pytest.raises(DimensionMismatch):
            product_power(rhos[:3], sd, 0.5, 1.0)

    def test_stack_raises_when_one_slice_is_not_hermitian(self):
        rng = np.random.default_rng(43)
        ms = self.stack(rng, 4, 3)
        ms[2, 0, 1] += 1e-3
        with pytest.raises(NonHermitian, match="slice 2"):
            hermitian_eig(ms)
        with pytest.raises(NonHermitian, match="slice 2"):
            positive_eig(ms)

    def test_stack_raises_when_one_slice_is_below_the_floor(self):
        rng = np.random.default_rng(44)
        ms = self.stack(rng, 4, 3)
        ms[1] = np.diag([1.0, 0.5, 1e-12])
        with pytest.raises(NotPositiveDefinite, match="slice 1"):
            positive_eig(ms)
        with pytest.raises(NotPositiveDefinite, match="slice 1"):
            matrix_power_psd(ms, 0.5 * np.ones(4))
        hermitian_eig(ms)  # below the floor is still Hermitian


class TestProductPower:
    def test_equal_states_collapse(self):
        rng = np.random.default_rng(3)
        sigma = rand_pd(rng, 3)
        for alpha, z in ((0.4, 0.7), (-0.6, 2.0), (0.9, -1.0 + 0.5j)):
            out = product_power(sigma, hermitian_eig(sigma), alpha, z)
            expect = matrix_power_psd(sigma, (1.0 - alpha) * z)
            assert frobenius(out - expect) <= 1e-9

    def test_first_power_is_plain_product(self):
        rng = np.random.default_rng(4)
        rho, sigma = rand_pd(rng, 3), rand_pd(rng, 3)
        direct = rho @ matrix_power_psd(sigma, -0.3)
        assert frobenius(product_power(rho, hermitian_eig(sigma), 0.3, 1.0) - direct) <= 1e-10

    def test_diagonal_scalar_formula(self):
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.6, 0.1, 0.3])
        alpha, z = 0.35, -0.8
        out = product_power(np.diag(p), hermitian_eig(np.diag(q)), alpha, z)
        np.testing.assert_allclose(np.diag(out), (p * q**-alpha) ** z, atol=1e-12)

    def test_against_nonhermitian_eig(self):
        # Direct eigendecomposition of rho sigma^-alpha as an independent route.
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho, sigma = rand_pd(rng, 3), rand_pd(rng, 3)
            alpha, z = rng.uniform(-0.9, 0.9), rng.uniform(-2.0, 2.0)
            raw = rho @ matrix_power_psd(sigma, -alpha)
            expect = nonhermitian_power(raw, z)
            assert frobenius(product_power(rho, hermitian_eig(sigma), alpha, z) - expect) <= 1e-8

    def test_array_exponents_stack_the_scalar_calls(self):
        rng = np.random.default_rng(7)
        rho, sd = rand_pd(rng, 3), hermitian_eig(rand_pd(rng, 3))
        zs = np.array([0.0, 1.0, -2.5, 0.5j, 0.3 - 1j])
        for alpha in (0.4, -0.8):
            stack = product_power(rho, sd, alpha, zs)
            assert stack.shape == (len(zs), 3, 3)
            for z, got in zip(zs, stack):
                want = product_power(rho, sd, alpha, complex(z))
                assert frobenius(got - want) <= 1e-14 * frobenius(want)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionMismatch):
            product_power(np.eye(2), hermitian_eig(np.eye(3)), 0.5, 1.0)

    def test_rejects_sigma_below_floor(self):
        with pytest.raises(NotPositiveDefinite):
            product_power(np.eye(2), hermitian_eig(np.diag([1.0, 0.0])), 0.5, 1.0)


class TestCongruencePower:
    def test_stack_names_the_slice_below_the_floor(self):
        # inner x inner is diag(1, 1e-12) on slice 1 only.
        x = np.stack([np.eye(2), np.diag([1.0, 1e-12])]).astype(complex)
        inner, left = np.eye(2), np.diag([2.0, 3.0])
        with pytest.raises(NotPositiveDefinite, match=r"^slice 1: smallest eigenvalue 1\.000e-12"):
            congruence_power(x, inner, np.array([0.5, 0.5]), left, left)
        out = congruence_power(x[:1], inner, np.array([[0.5, 2.0]]), left, left)
        assert out.shape == (1, 2, 2, 2)
        np.testing.assert_allclose(out[0, 1], left @ left, atol=1e-14)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(6)
        a, b = rand_pd(rng, 2), rand_pd(rng, 3)
        b /= np.trace(b).real
        out = partial_trace(np.kron(a, b), (2, 3), "B")
        np.testing.assert_allclose(out, a, atol=1e-12)
        out_a = partial_trace(np.kron(a, b), (2, 3), "A")
        np.testing.assert_allclose(out_a, np.trace(a) * b, atol=1e-12)

    def test_bell_projector(self):
        # Expanding the Bell projector in the computational basis leaves I/2.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        proj = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace(proj, (2, 2), "B"), np.eye(2) / 2, atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(partial_trace(np.eye(4), (2, 2), "B"), 2 * np.eye(2), atol=1e-14)

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(7)
        m1, m2 = rand_complex(rng, 6), rand_complex(rng, 6)
        c = 0.7 - 0.2j
        lhs = partial_trace(m1 + c * m2, (2, 3), "B")
        rhs = partial_trace(m1, (2, 3), "B") + c * partial_trace(m2, (2, 3), "B")
        assert frobenius(lhs - rhs) <= 1e-12
        assert abs(np.trace(lhs) - np.trace(m1 + c * m2)) <= 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rand_pd(rng, 6, shift=0.0)
            out = partial_trace(m, (3, 2), "B")
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(6), (2, 2), "B")


class TestVectorize:
    def test_identity_amplitudes(self):
        np.testing.assert_allclose(vectorize(np.eye(2)), [1, 0, 0, 1], atol=1e-15)

    def test_inner_product_is_hs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = rand_complex(rng, 3), rand_complex(rng, 3)
            hs = np.trace(dagger(a) @ b)
            assert abs(np.vdot(vectorize(a), vectorize(b)) - hs) <= 1e-12

    def test_norm_is_frobenius(self):
        rng = np.random.default_rng(10)
        a = rand_complex(rng, 4)
        assert abs(np.linalg.norm(vectorize(a)) - frobenius(a)) <= 1e-12

    def test_round_trip(self):
        # Row-major: reshaping the vector gives the matrix back.
        rng = np.random.default_rng(11)
        a = rand_complex(rng, 3)
        np.testing.assert_array_equal(vectorize(a).reshape(3, 3), a)

    def test_rejects_bad_length(self):
        with pytest.raises(NonSquare):
            vectorize(np.ones(5))



class TestSchattenNorm:
    def test_frobenius_case(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_trace_norm_of_psd(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 1.0) == pytest.approx(7.0, abs=1e-12)

    def test_unitary(self):
        # All singular values of a unitary are 1.
        from renyidpi import random_isometry

        for p in (1.0, 2.0, 3.5):
            u = random_isometry(4, 4, 12)
            assert schatten_norm(u, p) == pytest.approx(4.0 ** (1.0 / p), abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidOrder):
            schatten_norm(np.eye(2), 0.5)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        m = rand_complex(rng, 3)
        back = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_shape_check(self):
        obj = matrix_to_json(np.eye(2))
        obj["re"] = [[1.0]]
        with pytest.raises(DimensionMismatch):
            matrix_from_json(obj)
