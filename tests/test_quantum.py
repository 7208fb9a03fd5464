import numpy as np
import pytest

from renyidpi import (
    DensityMatrix,
    DimensionMismatch,
    KrausChannel,
    NonSquare,
    NotPositiveDefinite,
    canonical_purification,
    channel_from_json,
    channel_to_json,
    dagger,
    frobenius,
    herm_part,
    identity_channel,
    matrix_power_psd,
    partial_trace,
    partial_trace_channel,
    random_channel,
    random_density,
    stinespring_dilate,
    stream,
)

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(NotPositiveDefinite):
            DensityMatrix(np.diag([1.0, 0.0]))

    def test_rejects_a_stack(self):
        with pytest.raises(NonSquare):
            DensityMatrix(np.eye(2)[None] / 2)

    def test_cached_powers(self):
        rho = random_density(3, 0)
        np.testing.assert_allclose(rho.sqrt() @ rho.sqrt(), rho.matrix, atol=1e-12)
        np.testing.assert_allclose(rho.power(-1.0) @ rho.matrix, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("z", (0, 0.5, -0.3, 1j, 0.5 + 1j))
    def test_cached_power_is_matrix_power(self, z):
        rho = random_density(3, 4)
        assert np.array_equal(rho.power(z), matrix_power_psd(rho.matrix, z))
        assert rho.power(z) is rho.power(z)

    def test_cached_reduced_state(self):
        rho = random_density(6, 5)
        np.testing.assert_array_equal(rho.reduced((2, 3)).matrix,
                                      herm_part(partial_trace(rho.matrix, (2, 3), "B")))
        assert rho.reduced((2, 3)) is rho.reduced((2, 3))
        assert rho.reduced((3, 2)).dim == 3

    def test_immutable(self):
        rho = random_density(2, 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestChannelApply:
    def test_identity_channel(self):
        rho = random_density(3, 1)
        out = identity_channel(3).apply(rho.matrix)
        np.testing.assert_array_equal(out, rho.matrix)

    def test_partial_trace_on_product(self):
        rho_a = random_density(2, 2)
        rho_b = random_density(3, 3)
        ch = partial_trace_channel(2, 3)
        out = ch.apply(np.kron(rho_a.matrix, rho_b.matrix))
        np.testing.assert_allclose(out, rho_a.matrix, atol=1e-12)

    def test_depolarizing(self):
        # Conjugating by all four Paulis averages any qubit state to I/2.
        ch = KrausChannel(tuple(p / 2.0 for p in PAULIS))
        rho = random_density(2, 4)
        np.testing.assert_allclose(ch.apply(rho.matrix), np.eye(2) / 2, atol=1e-12)

    def test_trace_and_positivity_preserved(self):
        # 200 random (channel, state) pairs per dimension pair.
        for pair_index, (d_in, d_out) in enumerate(((2, 2), (3, 2), (2, 3))):
            rng = stream(50, pair_index)
            for trial in range(200):
                ch = random_channel(d_in, d_out, rng_seed=rng)
                rho = random_density(d_in, rng)
                out = ch.apply(rho.matrix)
                assert abs(np.trace(out).real - 1.0) <= 1e-11
                assert np.linalg.eigvalsh(0.5 * (out + dagger(out))).min() >= -1e-10

    def test_partial_trace_density_is_cached_reduced_state(self):
        rho = random_density(6, 9)
        ch = partial_trace_channel(2, 3)
        out = ch.apply_density(rho)
        assert out is rho.reduced((2, 3))
        assert np.array_equal(out.matrix, herm_part(ch.apply(rho.matrix)))
        generic = KrausChannel(ch.kraus_ops)
        assert np.array_equal(generic.apply_density(rho).matrix, out.matrix)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_partial_trace_kraus_family_is_exact(self, dims):
        d_a, d_b = dims
        ch = partial_trace_channel(d_a, d_b)
        assert len(ch.kraus_ops) == d_b
        for j, k in enumerate(ch.kraus_ops):
            assert np.array_equal(k, np.kron(np.eye(d_a), np.eye(d_b)[j:j + 1]))

    def test_partial_trace_channel_is_built_once_per_dims(self):
        ch = partial_trace_channel(2, 3)
        assert ch is partial_trace_channel(2, 3)
        assert ch is not partial_trace_channel(3, 2)
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 2.0
        assert ch.kraus_ops[0][0, 0] == 1.0

    def test_traced_dims_must_match_kraus_shapes(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(partial_trace_channel(2, 3).kraus_ops, traced_dims=(3, 2))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            identity_channel(2).apply(np.eye(3))

    def test_rejects_incomplete_family(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(2) * 0.5,))

    def test_rejects_stacked_operators(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(2)[None],))


class TestAdjoint:
    def test_unital(self):
        ch = random_channel(3, 2, rng_seed=5)
        out = ch.adjoint_apply(np.eye(2))
        assert frobenius(out - np.eye(3)) <= 1e-11

    def test_partial_trace_adjoint_embeds(self):
        # <a, Tr_B x> = <a otimes I, x> forces the adjoint to be a -> a otimes I.
        ch = partial_trace_channel(2, 3)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(ch.adjoint_apply(a), np.kron(a, np.eye(3)), atol=1e-13)

    def test_stack_maps_slice_by_slice(self):
        ch = random_channel(3, 2, rng_seed=10)
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        out = ch.adjoint_apply(stack)
        assert out.shape == (4, 3, 3)
        for a, got in zip(stack, out):
            assert frobenius(got - ch.adjoint_apply(a)) <= 1e-14 * frobenius(got)

    def test_duality_pairing(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            ch = random_channel(3, 2, rng_seed=stream(7, trial))
            rho = random_density(3, stream(8, trial))
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.trace(a @ ch.apply(rho.matrix))
            rhs = np.trace(ch.adjoint_apply(a) @ rho.matrix)
            assert abs(lhs - rhs) <= 1e-11


class TestStinespring:
    def test_identity_channel(self):
        v = stinespring_dilate(identity_channel(3))
        assert v.env_dim == 1
        np.testing.assert_allclose(v.isometry, np.eye(3), atol=1e-15)

    def test_partial_trace_channel(self):
        ch = partial_trace_channel(2, 3)
        v = stinespring_dilate(ch)
        assert v.env_dim == 3
        rho = random_density(6, 9)
        assert frobenius(v.apply(rho.matrix) - ch.apply(rho.matrix)) <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_dilation_is_the_kronecker_sum(self, dims):
        # V = sum_e K_e otimes |e>, and V^dagger (a otimes I_env) V, exactly.
        d_a, d_b = dims
        ch = random_channel(d_a * d_b, d_a, env_dim=d_b, rng_seed=stream(13, d_a, d_b))
        v = stinespring_dilate(ch)
        eye = np.eye(d_b)
        ref = sum(np.kron(k, eye[:, e:e + 1]) for e, k in enumerate(ch.kraus_ops))
        assert np.array_equal(v.isometry, ref)
        rng = np.random.default_rng(14)
        a = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        assert np.array_equal(v.adjoint_apply(a), dagger(ref) @ np.kron(a, eye) @ ref)

    def test_random_channel_identities(self):
        ch = random_channel(2, 2, env_dim=3, rng_seed=10)
        v = stinespring_dilate(ch)
        assert v.env_dim == 3
        assert frobenius(dagger(v.isometry) @ v.isometry - np.eye(2)) <= 1e-10
        rng = np.random.default_rng(11)
        rho = random_density(2, 12)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert frobenius(v.apply(rho.matrix) - ch.apply(rho.matrix)) <= 1e-10
        assert frobenius(v.adjoint_apply(a) - ch.adjoint_apply(a)) <= 1e-10


class TestRandomSampling:
    def test_density_determinism(self):
        a = random_density(4, 123)
        b = random_density(4, 123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_density_invariants(self):
        for seed in range(10):
            rho = random_density(4, seed)
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10
            assert rho.min_eig > 0.0

    def test_channel_determinism_and_completeness(self):
        a = random_channel(3, 2, rng_seed=99)
        b = random_channel(3, 2, rng_seed=99)
        for ka, kb in zip(a.kraus_ops, b.kraus_ops):
            np.testing.assert_array_equal(ka, kb)
        comp = sum(dagger(k) @ k for k in a.kraus_ops)
        assert frobenius(comp - np.eye(3)) <= 1e-10

    def test_trial_streams_differ(self):
        a = random_density(3, stream(5, 0))
        b = random_density(3, stream(5, 1))
        assert frobenius(a.matrix - b.matrix) > 1e-3


class TestPurification:
    def test_maximally_mixed_qubit(self):
        # vec((I/2)^(1/2)) = (1,0,0,1)/sqrt(2), the Bell state.
        rho = DensityMatrix(np.eye(2) / 2)
        psi = canonical_purification(rho)
        np.testing.assert_allclose(
            psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-14
        )

    def test_near_pure_state(self):
        eps = 1e-6
        rho = DensityMatrix(np.diag([1.0 - eps, eps]))
        psi = canonical_purification(rho)
        expect = np.zeros(4)
        expect[0] = 1.0
        assert np.linalg.norm(psi.amplitudes - expect) <= 2e-3

    def test_reduces_to_rho(self):
        rho = random_density(3, 77)
        psi = canonical_purification(rho)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(partial_trace(proj, (3, 3), "B"), rho.matrix, atol=1e-10)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


class TestChannelJson:
    def test_round_trip(self):
        ch = random_channel(2, 3, rng_seed=31)
        back = channel_from_json(channel_to_json(ch))
        assert back.in_dim == ch.in_dim and back.out_dim == ch.out_dim
        for ka, kb in zip(ch.kraus_ops, back.kraus_ops):
            np.testing.assert_array_equal(ka, kb)

    def test_rejects_contradictory_dims(self):
        obj = channel_to_json(identity_channel(2))
        obj["in_dim"] = 3
        with pytest.raises(DimensionMismatch):
            channel_from_json(obj)
