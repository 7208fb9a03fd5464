import numpy as np
import pytest

from renyidpi import (
    DensityMatrix,
    DimensionMismatch,
    KrausChannel,
    NonSquare,
    NotPositiveDefinite,
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
    vectorize,
)
from renyidpi.linalg import lift_b
from helpers import counting

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

    def test_array_powers_are_cached_read_only(self):
        rho = random_density(3, 4)
        z = np.array([[0.5, -0.3], [1j, 0.0]])
        got = rho.power(z)
        assert rho.power(z.copy()) is got and not got.flags.writeable
        assert np.array_equal(got, matrix_power_psd(rho.matrix, z))
        # The key holds shape and dtype as well as the bytes.
        assert rho.power(z.ravel()).shape == (4, 3, 3)
        assert rho.power(np.array([0.5, -0.3])) is not rho.power(np.array([0.5, -0.3], complex))
        assert not rho.power(0.5).flags.writeable

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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_partial_trace_adjoint_embeds(self, dims):
        # <a, Tr_B x> = <a otimes I, x> forces the adjoint to be a -> a otimes I:
        # lift_b, with the entries of the unmarked channel's Kraus sum.
        d_a, d_b = dims
        ch = partial_trace_channel(d_a, d_b)
        unmarked = KrausChannel(ch.kraus_ops)
        rng = np.random.default_rng(6)
        for shape in ((d_a, d_a), (10, 9, d_a, d_a)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = ch.adjoint_apply(a)
            assert np.array_equal(got, lift_b(a, d_b))
            assert np.array_equal(got, unmarked.adjoint_apply(a))

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
    # The canonical purification |rho^(1/2)> = vectorize(rho.sqrt()).

    def test_maximally_mixed_qubit(self):
        # vec((I/2)^(1/2)) = (1,0,0,1)/sqrt(2), the Bell state.
        rho = DensityMatrix(np.eye(2) / 2)
        psi = vectorize(rho.sqrt())
        np.testing.assert_allclose(
            psi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-14
        )

    def test_near_pure_state(self):
        eps = 1e-6
        rho = DensityMatrix(np.diag([1.0 - eps, eps]))
        psi = vectorize(rho.sqrt())
        expect = np.zeros(4)
        expect[0] = 1.0
        assert np.linalg.norm(psi - expect) <= 2e-3

    def test_reduces_to_rho(self):
        rho = random_density(3, 77)
        psi = vectorize(rho.sqrt())
        proj = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(proj, (3, 3), "B"), rho.matrix, atol=1e-10)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


class TestStacks:
    # A stack of T states or channels: each slice equals the one-state
    # call bit for bit.

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_stacked_draw_equals_per_generator_draws(self, d):
        stacked = random_density(d, [stream(9, t) for t in range(5)])
        assert stacked.batch == (5,) and stacked.min_eig.shape == (5,)
        for t in range(5):
            one = random_density(d, stream(9, t))
            assert np.array_equal(stacked.matrix[t], one.matrix)
            assert np.array_equal(stacked.spectral.eigenvectors[t], one.spectral.eigenvectors)
            assert np.array_equal(stacked.power(-0.3)[t], one.power(-0.3))
            assert np.array_equal(stacked.log()[t], one.log())
            assert np.array_equal(stacked.power(np.array([0.5, 1j]))[t],
                                  one.power(np.array([0.5, 1j])))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_stacked_channels_and_outputs(self, dims):
        d_a, d_b = dims
        rngs = [stream(10, t) for t in range(5)]
        rho = random_density(d_a * d_b, rngs)
        chs = random_channel(d_a * d_b, d_a, rng_seed=rngs)
        reduced = partial_trace_channel(d_a, d_b).apply_density(rho)
        out = chs.apply_density(rho)
        for t in range(5):
            rng = stream(10, t)
            one = random_density(d_a * d_b, rng)
            ch = random_channel(d_a * d_b, d_a, rng_seed=rng)
            assert all(np.array_equal(k[t], k1) for k, k1 in zip(chs.kraus_ops, ch.kraus_ops))
            assert np.array_equal(reduced.matrix[t], one.reduced(dims).matrix)
            assert np.array_equal(out.matrix[t], ch.apply_density(one).matrix)

    def test_stacks_need_the_named_constructors(self):
        with pytest.raises(NonSquare):
            DensityMatrix.stack(np.eye(2) / 2)
        with pytest.raises(DimensionMismatch):
            KrausChannel.stack((np.eye(2),))

    def test_stacks_go_through_the_constructor(self, monkeypatch):
        # A wrapper of DensityMatrix.__init__ sees every state, stacked or
        # not: random_density on generators, reduced states and stack.
        inits = counting(monkeypatch, DensityMatrix, "__init__")
        rho = random_density(4, [stream(11, t) for t in range(3)])
        rho.reduced((2, 2))
        DensityMatrix.stack(rho.matrix)
        assert len(inits) == 3

    def test_stack_errors_name_the_slice(self):
        states = np.array([np.eye(2) / 2, np.diag([1.0, 0.0])], dtype=complex)
        with pytest.raises(NotPositiveDefinite, match=r"^slice 1: density matrix has eigenvalue"):
            DensityMatrix.stack(states)
        with pytest.raises(ValueError, match=r"^slice 0: trace 2\.0 is not 1"):
            DensityMatrix.stack(2 * states[:1])

    def test_default_environment_admits_a_larger_input(self):
        # Tr_B on 2x3 maps dim 6 to dim 2: the isometry needs env >= 3,
        # while dim 4 to dim 2 keeps the full-rank default env = out_dim.
        wide = random_channel(6, 2, rng_seed=1)
        assert len(wide.kraus_ops) == 3
        assert frobenius(sum(dagger(k) @ k for k in wide.kraus_ops) - np.eye(6)) <= 1e-10
        assert len(random_channel(4, 2, rng_seed=1).kraus_ops) == 2
