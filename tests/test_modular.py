import numpy as np
import pytest

from renyidpi import (
    CompressionIsometry,
    DEFAULT_T_GRID,
    DegenerateWeight,
    DensityMatrix,
    InvalidAlpha,
    NotPositiveDefinite,
    RelativeModularOperator,
    SingularResolvent,
    build_recoverable_triple,
    compressed_power_residual,
    compression_identity_residual,
    dagger,
    frobenius,
    jensen_commutator_norm,
    partial_trace_channel,
    petz_renyi,
    quadratic_form,
    quadratic_form_superop,
    random_density,
    resolvent_defect,
    stream,
    vectorize,
    weighted_modular_pair,
)
from helpers import diag_density, rand_probs


class TestModularAction:
    def test_zero_power(self):
        dop = RelativeModularOperator(random_density(3, 0), random_density(3, 1))
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(dop.apply_power(0.0, a), a, atol=1e-12)

    def test_equal_pair_fixes_identity(self):
        sigma = random_density(3, 3)
        dop = RelativeModularOperator(sigma, sigma)
        for z in (1.0, 0.5, -0.5):
            np.testing.assert_allclose(dop.apply_power(z, np.eye(3)), np.eye(3), atol=1e-11)

    def test_rank_one_scalar_action(self):
        # Delta^z |i><j| = q_i^z w_j^-z |i><j| on diagonal states.
        q = rand_probs(np.random.default_rng(4), 3)
        w = rand_probs(np.random.default_rng(5), 3)
        dop = RelativeModularOperator(diag_density(q), diag_density(w))
        z = 0.37
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = 1.0
                out = dop.apply_power(z, e)
                assert abs(out[i, j] - q[i] ** z * w[j] ** -z) <= 1e-12

    def test_matrix_routes_agree(self):
        dop = RelativeModularOperator(random_density(3, 6), random_density(3, 7))
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for z in (1.0, -0.5, 0.25):
            via_matrix = dop.matrix_power(z) @ vectorize(a)
            via_fn = dop.function_matrix(lambda x: x**z) @ vectorize(a)
            direct = vectorize(dop.apply_power(z, a))
            assert np.abs(via_matrix - direct).max() <= 1e-11
            assert np.abs(via_fn - direct).max() <= 1e-11

    def test_superop_matrix_positive_definite(self):
        dop = RelativeModularOperator(random_density(2, 9), random_density(2, 10))
        big = dop.matrix_power(1.0)
        assert frobenius(big - dagger(big)) <= 1e-12
        assert np.linalg.eigvalsh(big).min() > 0.0


class TestQuadraticForm:
    def test_all_equal_gives_one(self):
        rho = random_density(3, 11)
        assert quadratic_form(rho, rho, rho.matrix, 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_matches_petz_exponent(self):
        rho = random_density(3, 12)
        sigma = random_density(3, 13)
        for alpha in (0.3, -0.7):
            val = quadratic_form(rho, sigma, rho.matrix, alpha)
            assert np.log(val) / alpha == pytest.approx(petz_renyi(rho, sigma, alpha), abs=1e-11)

    def test_diagonal_scalar_sum(self):
        rng = np.random.default_rng(14)
        p, q, w = (rand_probs(rng, 3) for _ in range(3))
        alpha = 0.45
        expect = float(np.sum(p * q**-alpha * w**alpha))
        val = quadratic_form(diag_density(p), diag_density(q), np.diag(w), alpha)
        assert val == pytest.approx(expect, abs=1e-12)

    def test_superop_route_agrees(self):
        rho = random_density(3, 15)
        sigma = random_density(3, 16)
        omega = random_density(3, 17).matrix
        for alpha in (0.5, -0.25):
            direct = quadratic_form(rho, sigma, omega, alpha)
            brute = quadratic_form_superop(rho, sigma, omega, alpha)
            assert abs(direct - brute) <= 1e-10

    def test_rejects_bad_alpha(self):
        rho = random_density(2, 18)
        with pytest.raises(InvalidAlpha):
            quadratic_form(rho, rho, rho.matrix, 1.5)

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_omega_at_positive_alpha(self):
        # omega^alpha is continuous on positive semidefinite omega for
        # alpha > 0: a zero eigenvalue contributes 0 to the sum.
        rng = np.random.default_rng(19)
        p, q = rand_probs(rng, 3), rand_probs(rng, 3)
        w = np.array([0.7, 0.3, 0.0])
        for alpha in (0.1, 0.45, 0.9):
            expect = float(np.sum(p * q**-alpha * w**alpha))
            val = quadratic_form(diag_density(p), diag_density(q), np.diag(w), alpha)
            assert val == pytest.approx(expect, abs=1e-12)

    def test_below_floor_omega_at_negative_alpha(self):
        # omega^alpha needs omega^-1 for alpha < 0: the floor applies.
        rho, sigma = random_density(2, 20), random_density(2, 21)
        omega = np.diag([1.0 - 1e-12, 1e-12])
        assert quadratic_form(rho, sigma, omega, 0.5) > 0.0
        with pytest.raises(NotPositiveDefinite):
            quadratic_form(rho, sigma, omega, -0.5)

    def test_rejects_a_negative_eigenvalue_beyond_roundoff(self):
        rho = random_density(2, 22)
        with pytest.raises(NotPositiveDefinite):
            quadratic_form(rho, rho, np.diag([1.0 + 1e-6, -1e-6]), 0.5)


class TestCompression:
    def test_product_state_action(self):
        # On rho_A otimes rho_B the isometry acts as a -> a otimes rho_B^(1/2).
        rho_a = random_density(2, 20)
        rho_b = random_density(2, 21)
        rho_ab = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        ci = CompressionIsometry(rho_ab, 2, 2)
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = ci.matrix @ vectorize(a)
        np.testing.assert_allclose(out, vectorize(np.kron(a, rho_b.sqrt())), atol=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_columns_are_the_kronecker_images(self, dims):
        # Column k d_A + l is |(E_kl rho_A^(-1/2) otimes I_B) rho_AB^(1/2)>.
        d_a, d_b = dims
        for seed in range(5):
            rho_ab = random_density(d_a * d_b, stream(24, seed))
            ci = CompressionIsometry(rho_ab, d_a, d_b)
            r_a_mhalf = ci.rho_a.power(-0.5)
            units = np.eye(d_a * d_a, dtype=complex).reshape(-1, d_a, d_a)
            ref = np.column_stack([
                vectorize(np.kron(e @ r_a_mhalf, np.eye(d_b, dtype=complex)) @ rho_ab.sqrt())
                for e in units])
            assert np.array_equal(ci.matrix, ref)

    def test_maps_purification(self):
        rho_ab = random_density(6, 23)
        ci = CompressionIsometry(rho_ab, 2, 3)
        out = ci.matrix @ vectorize(ci.rho_a.sqrt())
        np.testing.assert_allclose(out, vectorize(rho_ab.sqrt()), atol=1e-10)

    def test_isometry_and_projector(self):
        for seed in range(5):
            ci = CompressionIsometry(random_density(4, seed), 2, 2)
            assert ci.isometry_residual() <= 1e-10
            p = ci.projector
            assert frobenius(p @ p - p) <= 1e-10
            assert frobenius(p - dagger(p)) <= 1e-12


class TestCompressionIdentity:
    def test_identity_weight(self):
        ci = CompressionIsometry(random_density(4, 30), 2, 2)
        sigma_ab = random_density(4, 31)
        assert compression_identity_residual(ci, sigma_ab, np.eye(2)) <= 1e-10

    def test_random_weights(self):
        rng = np.random.default_rng(32)
        for seed in range(10):
            ci = CompressionIsometry(random_density(4, stream(33, seed)), 2, 2)
            sigma_ab = random_density(4, stream(34, seed))
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert compression_identity_residual(ci, sigma_ab, a) <= 1e-9

    def test_product_states(self):
        rho_ab = DensityMatrix(np.kron(random_density(2, 35).matrix, random_density(2, 36).matrix))
        sigma_ab = DensityMatrix(np.kron(random_density(2, 37).matrix, random_density(2, 38).matrix))
        ci = CompressionIsometry(rho_ab, 2, 2)
        rng = np.random.default_rng(39)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert compression_identity_residual(ci, sigma_ab, a) <= 1e-10

    def test_rejects_singular_weight(self):
        ci = CompressionIsometry(random_density(4, 40), 2, 2)
        sigma_ab = random_density(4, 41)
        with pytest.raises(DegenerateWeight):
            compression_identity_residual(ci, sigma_ab, np.diag([1.0, 0.0]))


class TestJensenDiagnostics:
    def test_commutator_vanishes_on_recoverable(self):
        for kind in ("product", "blocked", "conjugated-product"):
            rho_ab, sigma_ab = build_recoverable_triple(kind, (2, 2), 50)
            ci = CompressionIsometry(rho_ab, 2, 2)
            dop = RelativeModularOperator(sigma_ab, rho_ab)
            assert jensen_commutator_norm(ci, dop) <= 1e-8

    def test_commutator_vanishes_on_equal_product_states(self):
        rho_ab = DensityMatrix(
            np.kron(random_density(2, 51).matrix, random_density(2, 151).matrix)
        )
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop = RelativeModularOperator(rho_ab, rho_ab)
        assert jensen_commutator_norm(ci, dop) <= 1e-8

    def test_commutator_strictly_stronger_than_saturation(self):
        # A generic entangled state paired with itself is perfectly
        # recoverable, yet the global commutator does not vanish: the
        # operator form of Jensen equality is stronger than saturation.
        from renyidpi import SaturationContext, full_report, recovery_error

        rho_ab = random_density(4, 51)
        assert recovery_error(rho_ab, rho_ab, partial_trace_channel(2, 2)) <= 1e-10
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop = RelativeModularOperator(rho_ab, rho_ab)
        assert jensen_commutator_norm(ci, dop) > 1e-2
        report = full_report(SaturationContext.build(rho_ab, rho_ab, (2, 2), 0.5), 0.5)
        assert report.saturated()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_commutator_matches_brute_force(self, dims):
        # Reference: the commutator of the materialized d^2 x d^2 matrices.
        dim = dims[0] * dims[1]
        for seed in range(3):
            rho_ab = random_density(dim, stream(57, seed, 0))
            sigma_ab = random_density(dim, stream(57, seed, 1))
            ci = CompressionIsometry(rho_ab, *dims)
            dop = RelativeModularOperator(sigma_ab, rho_ab)
            p, big = ci.projector, dop.matrix_power(1.0)
            brute = frobenius(p @ big - big @ p)
            assert abs(jensen_commutator_norm(ci, dop) - brute) <= 1e-12 * brute

    def test_commutator_positive_on_generic(self):
        rho_ab = random_density(4, 52)
        sigma_ab = random_density(4, 53)
        ci = CompressionIsometry(rho_ab, 2, 2)
        assert jensen_commutator_norm(ci, RelativeModularOperator(sigma_ab, rho_ab)) > 1e-4

    def test_compressed_power_t1_exact(self):
        rho_ab = random_density(4, 54)
        sigma_ab = random_density(4, 55)
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop = RelativeModularOperator(sigma_ab, rho_ab)
        assert compressed_power_residual(ci, dop, 1.0) == 0.0

    def test_compressed_power_on_recoverable(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 56)
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop = RelativeModularOperator(sigma_ab, rho_ab)
        for t in (0.25, 0.5, 0.75):
            assert compressed_power_residual(ci, dop, t) <= 1e-8

    def test_compressed_power_positive_on_generic(self):
        rho_ab = random_density(4, 57)
        sigma_ab = random_density(4, 58)
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop = RelativeModularOperator(sigma_ab, rho_ab)
        assert compressed_power_residual(ci, dop, 0.5) > 1e-6


class TestResolventDefect:
    def test_recoverable_triples(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 60)
        ci = CompressionIsometry(rho_ab, 2, 2)
        for alpha in (0.3, -0.5):
            dop_ab, dop_a = weighted_modular_pair(rho_ab, sigma_ab, partial_trace_channel(2, 2),
                                                  alpha)
            for t in (0.1, 1.0, 10.0):
                out = resolvent_defect(ci, dop_ab, dop_a, t)
                assert out.defect <= 1e-8
                assert out.min_eig >= -1e-10

    def test_generic_psd_with_positive_defect(self):
        rho_ab = random_density(4, 61)
        sigma_ab = random_density(4, 62)
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop_ab, dop_a = weighted_modular_pair(rho_ab, sigma_ab, partial_trace_channel(2, 2), 0.5)
        defects = []
        for t in DEFAULT_T_GRID:
            out = resolvent_defect(ci, dop_ab, dop_a, t)
            # Operator convexity makes X_t PSD unconditionally.
            assert out.min_eig >= -1e-10
            defects.append(out.defect)
        assert max(defects) > 1e-4

    def test_maximally_mixed(self):
        mm = DensityMatrix(np.eye(4) / 4)
        ci = CompressionIsometry(mm, 2, 2)
        dop_ab, dop_a = weighted_modular_pair(mm, mm, partial_trace_channel(2, 2), 0.3)
        out = resolvent_defect(ci, dop_ab, dop_a, 1.0)
        assert out.defect <= 1e-10

    def test_guards_small_t(self):
        rho_ab = random_density(4, 63)
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop_ab, dop_a = weighted_modular_pair(rho_ab, random_density(4, 64),
                                              partial_trace_channel(2, 2), 0.5)
        with pytest.raises(SingularResolvent):
            resolvent_defect(ci, dop_ab, dop_a, 1e-9)

    def test_weighted_pair_satisfies_compression_identity(self):
        # U* Delta_AB U = Delta_A holds exactly for the optimizer weights.
        rho_ab = random_density(4, 65)
        sigma_ab = random_density(4, 66)
        ci = CompressionIsometry(rho_ab, 2, 2)
        dop_ab, dop_a = weighted_modular_pair(rho_ab, sigma_ab, partial_trace_channel(2, 2), -0.4)
        u = ci.matrix
        resid = frobenius(dagger(u) @ dop_ab.matrix_power(1.0) @ u - dop_a.matrix_power(1.0))
        assert resid <= 1e-9
