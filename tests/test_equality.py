import dataclasses

import numpy as np
import pytest

from renyidpi import (
    CompressionIsometry,
    DensityMatrix,
    DimensionMismatch,
    InvalidAlpha,
    KrausChannel,
    NotPositiveDefinite,
    RECOVERABLE_KINDS,
    SATURATION_TOL,
    RelativeModularOperator,
    RenyiDpiError,
    SingularOutputState,
    alpha_recover,
    build_recoverable_triple,
    closed_form_optimizer,
    dagger,
    default_beta_grid,
    dpi_gap,
    frobenius,
    full_report,
    geometric_mean,
    herm_part,
    identity_channel,
    jensen_commutator_norm,
    mutual_implication_ok,
    necessary1_residual,
    necessary2_residual,
    partial_trace,
    partial_trace_channel,
    petz_beta_residual,
    petz_recover,
    petz_renyi,
    random_channel,
    random_density,
    random_isometry,
    recovery_error,
    sandwiched_renyi,
    stinespring_dilate,
    stream,
    t1_geo_residual,
    t1_residual,
    t3_residual,
    trace_norm,
    ResidualReport,
    SaturationContext,
)
from renyidpi import equality
from renyidpi.linalg import SpectralDecomposition
from renyidpi.cli import DEFAULT_ALPHA_GRID
from helpers import counting, nonhermitian_power, rand_pd

LAMBDAS = (-1.0, -0.5, 0.0, 1.0 / 3.0, 0.5, 1.0, 2.0)


def random_pair(dim, seed):
    return random_density(dim, stream(seed, 0)), random_density(dim, stream(seed, 1))


class TestEigensolveCount:
    def test_full_report_reuses_cached_eigen_data(self, monkeypatch):
        # The context evaluates every family over the whole alpha grid:
        # one batched eigensolve per factor and side, whatever the grid's
        # length, and full_report only assembles. Build included.
        rho, sigma = random_density(4, 11), random_density(4, 12)
        calls = counting(monkeypatch, np.linalg, "eigh")
        ctx = SaturationContext.build(rho, sigma, (2, 2), DEFAULT_ALPHA_GRID)
        for alpha in DEFAULT_ALPHA_GRID:
            full_report(ctx, alpha)
        assert len(calls) / len(DEFAULT_ALPHA_GRID) <= 1.5

    def test_families_share_their_powers(self, monkeypatch):
        # sigma^beta serves t3 and petz_beta on both sides, sigma_AB^alpha
        # t1_geo and alpha_recover, and sigma_A^-alpha dpi_gap and
        # alpha_recover: each stack is raised once per build.
        for d in (2, 4):
            rho, sigma = random_density(d * d, 11), random_density(d * d, 12)
            applies = counting(monkeypatch, SpectralDecomposition, "apply")
            SaturationContext.build(rho, sigma, (d, d), DEFAULT_ALPHA_GRID)
            assert len(applies) <= 31
            monkeypatch.undo()

    def test_recovery_error_reuses_the_reduced_state(self, monkeypatch):
        # The certificate of a recoverable triple builds Tr_B(sigma_AB)
        # once; every alpha-independent step of the context build,
        # recomputing the recovery error included, needs no further
        # eigensolve, so the build's eigensolves are exactly those of the
        # stacked per-order families called alone on an identical triple.
        dims, orders = (2, 2), (-0.5, 0.3, 0.9)
        rho_ab, sigma_ab = build_recoverable_triple("blocked", dims, 62)
        twin_rho, twin_sigma = build_recoverable_triple("blocked", dims, 62)
        calls = counting(monkeypatch, np.linalg, "eigh")
        ch = partial_trace_channel(*dims)
        ci = CompressionIsometry(rho_ab, *dims)
        jensen_commutator_norm(ci, RelativeModularOperator(sigma_ab, rho_ab))
        err = recovery_error(rho_ab, sigma_ab, ch)
        necessary2_residual(rho_ab, sigma_ab, ch)
        assert calls == []

        alphas = np.array(orders)
        betas = np.array([default_beta_grid(a) for a in orders])
        t3_residual(twin_rho, twin_sigma, ch, alphas, betas)
        petz_beta_residual(twin_rho, twin_sigma, ch, betas)
        t1_residual(twin_rho, twin_sigma, ch, alphas)
        t1_geo_residual(twin_rho, twin_sigma, ch, alphas)
        necessary1_residual(twin_rho, twin_sigma, ch, alphas)
        dpi_gap(twin_rho, twin_sigma, ch, alphas)
        families = len(calls)
        ctx = SaturationContext.build(rho_ab, sigma_ab, dims, orders)
        assert len(calls) - families == families
        assert ctx.recovery_error == err

    def test_no_superoperator_sized_kron_at_4x4(self, monkeypatch):
        # No np.kron at all: x otimes I_B is lift_b, the compression's
        # columns come from one lift_b over the unit matrices, and no
        # super-operator matrix (side 16^2 = 256) is materialized.
        krons = counting(monkeypatch, np, "kron")
        rho, sigma = random_density(16, 13), random_density(16, 14)
        full_report(SaturationContext.build(rho, sigma, (4, 4), 0.5), 0.5)
        assert krons == []


class TestVectorizedFamilies:
    BETAS = np.array([0.0, 0.7, -0.4, 0.5j, 0.5 + 1j, -1.0])

    @staticmethod
    def triples(dims):
        dim = dims[0] * dims[1]
        yield random_pair(dim, 60)
        for kind in ("product", "blocked", "conjugated-product"):
            yield build_recoverable_triple(kind, dims, 61)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_t3_array_matches_scalar_and_dilated(self, dims):
        ch = partial_trace_channel(*dims)
        for rho, sigma in self.triples(dims):
            for alpha in (-0.6, 0.4, 0.9):
                values = t3_residual(rho, sigma, ch, alpha, self.BETAS)
                assert values.shape == self.BETAS.shape
                for beta, value in zip(self.BETAS, values):
                    assert abs(value - t3_residual(rho, sigma, ch, alpha, beta)) <= 1e-12
                    assert abs(value - t3_residual(rho, sigma, stinespring_dilate(ch),
                                                   alpha, beta)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_petz_beta_array_matches_scalar_formula(self, dims):
        ch = partial_trace_channel(*dims)
        eye_b = np.eye(dims[1])
        for rho, sigma in self.triples(dims):
            rho_a = DensityMatrix(partial_trace(rho.matrix, dims, "B"))
            sigma_a = DensityMatrix(partial_trace(sigma.matrix, dims, "B"))
            values = petz_beta_residual(rho, sigma, ch, self.BETAS)
            assert values.shape == self.BETAS.shape
            for beta, value in zip(self.BETAS, values):
                beta = complex(beta)
                lhs = sigma.power(beta) @ rho.power(-beta)
                rhs = np.kron(sigma_a.power(beta) @ rho_a.power(-beta), eye_b)
                want = frobenius(lhs - rhs) / np.sqrt(rho.dim)
                assert abs(value - want) <= 1e-12
                assert abs(value - petz_beta_residual(rho, sigma, ch, beta)) <= 1e-12
            assert values[0] == 0.0

    def test_scalar_beta_gives_a_float(self):
        rho, sigma = random_pair(4, 62)
        ch = partial_trace_channel(2, 2)
        assert isinstance(t3_residual(rho, sigma, ch, 0.5, 0.5 + 1j), float)
        assert isinstance(petz_beta_residual(rho, sigma, ch, -0.5), float)


class TestOrderStacks:
    """Every order-dependent family over an array of orders equals its
    scalar calls bit for bit, and the context holds exactly those arrays."""

    ORDERS = (-1.0, -0.5, 0.3, 0.5, 0.9)
    FIXED_BETAS = (0.5 + 0j, -0.3 + 0j, 0.5j, 1.0 - 1j)

    @staticmethod
    def triples(dims):
        dim = dims[0] * dims[1]
        yield random_pair(dim, 70)
        for kind in RECOVERABLE_KINDS:
            yield build_recoverable_triple(kind, dims, 71)

    def test_one_order_gives_a_float(self):
        rho, sigma = random_pair(4, 72)
        ch = partial_trace_channel(2, 2)
        values = (t1_residual(rho, sigma, ch, 0.5),
                  t1_geo_residual(rho, sigma, ch, 0.5),
                  t3_residual(rho, sigma, ch, 0.5, 0.5j),
                  petz_beta_residual(rho, sigma, ch, 0.5j),
                  necessary2_residual(rho, sigma, ch))
        assert all(type(x) is float for x in values)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_array_of_orders_matches_scalar_calls(self, dims):
        alphas = np.array(self.ORDERS)
        ch = partial_trace_channel(*dims)
        grids = {
            "default": np.array([default_beta_grid(a) for a in self.ORDERS]),
            "fixed": np.array(self.FIXED_BETAS),
        }
        for rho, sigma in self.triples(dims):
            scalar = {
                "t1": lambda a: t1_residual(rho, sigma, ch, a),
                "t1_geo": lambda a: t1_geo_residual(rho, sigma, ch, a),
                "necessary1": lambda a: necessary1_residual(rho, sigma, ch, a),
                "dpi_gap": lambda a: dpi_gap(rho, sigma, ch, a),
                "sandwiched": lambda a: sandwiched_renyi(rho, sigma, a),
                "petz": lambda a: petz_renyi(rho, sigma, a),
            }
            stacked = {
                "t1": t1_residual(rho, sigma, ch, alphas),
                "t1_geo": t1_geo_residual(rho, sigma, ch, alphas),
                "necessary1": necessary1_residual(rho, sigma, ch, alphas),
                "dpi_gap": dpi_gap(rho, sigma, ch, alphas),
                "sandwiched": sandwiched_renyi(rho, sigma, alphas),
                "petz": petz_renyi(rho, sigma, alphas),
            }
            for name, values in stacked.items():
                want = np.array([scalar[name](a) for a in self.ORDERS])
                assert values.shape == alphas.shape and np.array_equal(values, want), name
            for grid in grids.values():
                t3 = t3_residual(rho, sigma, ch, alphas, grid)
                pb = petz_beta_residual(rho, sigma, ch, np.broadcast_to(grid, t3.shape))
                assert t3.shape == pb.shape == (len(alphas), grid.shape[-1])
                for i, alpha in enumerate(self.ORDERS):
                    row = grid[i] if grid.ndim == 2 else grid
                    assert np.array_equal(t3[i], t3_residual(rho, sigma, ch, alpha, row))
                    assert np.array_equal(pb[i], petz_beta_residual(rho, sigma, ch, row))
                    assert all(t3[i, j] == t3_residual(rho, sigma, ch, alpha, b)
                               for j, b in enumerate(row))

    @pytest.mark.parametrize("beta_grid", [None, FIXED_BETAS])
    def test_context_rows_are_the_scalar_reports(self, beta_grid):
        dims = (2, 3)
        ch = partial_trace_channel(*dims)
        for rho, sigma in self.triples(dims):
            ctx = SaturationContext.build(rho, sigma, dims, self.ORDERS, beta_grid)
            for alpha in self.ORDERS:
                report = full_report(ctx, alpha)
                grid = default_beta_grid(alpha) if beta_grid is None else beta_grid
                assert report.beta_grid == tuple(grid)
                assert report.t3_by_beta == tuple(t3_residual(rho, sigma, ch, alpha, grid))
                assert report.petz_beta_by_beta == tuple(petz_beta_residual(rho, sigma, ch, grid))
                assert report.residuals["t1"] == t1_residual(rho, sigma, ch, alpha)
                assert report.residuals["t1_geo"] == t1_geo_residual(rho, sigma, ch, alpha)
                assert report.residuals["necessary1"] == necessary1_residual(rho, sigma, ch, alpha)
                assert report.residuals["dpi_gap"] == max(dpi_gap(rho, sigma, ch, alpha), 0.0)

    def test_scalar_orders_give_floats(self):
        rho, sigma = random_pair(4, 72)
        ch = partial_trace_channel(2, 2)
        for value in (t1_residual(rho, sigma, ch, 0.5), t1_geo_residual(rho, sigma, ch, 0.5),
                      necessary1_residual(rho, sigma, ch, 0.5), dpi_gap(rho, sigma, ch, 0.5),
                      sandwiched_renyi(rho, sigma, np.float64(0.5))):
            assert isinstance(value, float)

    def test_eigensolves_do_not_grow_with_the_grid(self, monkeypatch):
        rho, sigma = random_pair(4, 73)
        rho.reduced((2, 2)), sigma.reduced((2, 2))
        calls = counting(monkeypatch, np.linalg, "eigh")
        SaturationContext.build(rho, sigma, (2, 2), 0.5)
        one = len(calls)
        SaturationContext.build(rho, sigma, (2, 2), DEFAULT_ALPHA_GRID)
        assert len(calls) - one == one

    @staticmethod
    def failing_triple():
        # At alpha < 0 the middle factor sigma^(-a/2) rho sigma^(-a/2) of
        # this commuting pair falls below the positivity floor; at alpha
        # > 0 it does not.
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.3 - 4e-10, 4e-10]).astype(complex))
        sigma = DensityMatrix(np.diag([0.4, 0.3, 0.3 - 1e-3, 1e-3]).astype(complex))
        return rho, sigma

    def test_a_failing_order_is_named_by_its_slice(self):
        # The context raises the error of the first family that fails,
        # from its one stacked call: the first failing order's slice of
        # the grid, then that order's scalar error.
        rho, sigma = self.failing_triple()
        ch = partial_trace_channel(2, 2)
        SaturationContext.build(rho, sigma, (2, 2), (0.3, 0.5))
        with pytest.raises(NotPositiveDefinite) as scalar:
            t3_residual(rho, sigma, ch, -0.5, default_beta_grid(-0.5))
        with pytest.raises(NotPositiveDefinite) as stacked:
            SaturationContext.build(rho, sigma, (2, 2), (0.5, -0.5, -1.0))
        assert str(stacked.value) == "slice 1: " + str(scalar.value)

    def test_a_failing_build_evaluates_each_family_once(self, monkeypatch):
        rho, sigma = self.failing_triple()
        rho.reduced((2, 2)), sigma.reduced((2, 2))
        # Counted on entry: the failing call returns nothing to record.
        t3_calls, t3 = [], equality.t3_residual
        monkeypatch.setattr(equality, "t3_residual",
                            lambda *args: t3_calls.append(args) or t3(*args))
        eigh_calls = counting(monkeypatch, np.linalg, "eigh")
        with pytest.raises(NotPositiveDefinite):
            SaturationContext.build(rho, sigma, (2, 2), (0.5, -0.5, -1.0))
        assert len(t3_calls) == 1
        assert len(eigh_calls) == 1

    def test_order_outside_the_grid_is_rejected(self):
        rho, sigma = random_pair(4, 74)
        ctx = SaturationContext.build(rho, sigma, (2, 2), (-0.5, 0.5))
        with pytest.raises(InvalidAlpha):
            full_report(ctx, 0.3)
        with pytest.raises(InvalidAlpha):
            full_report(ctx, 1.5)
        with pytest.raises(InvalidAlpha):
            SaturationContext.build(rho, sigma, (2, 2), (0.5, 0.0))


class TestTrialStacks:
    """Stacks of T triples: every diagnostic of the context, the
    recoverable triples with their certificates, and the recovery map
    equal the one-triple calls slice by slice, bit for bit."""

    FIELDS = [f.name for f in dataclasses.fields(SaturationContext)]

    @staticmethod
    def stacked_and_single(dims, seed):
        # (stacked pair, certificate or None, [(one pair, certificate or None)])
        # for T = 3 random pairs, then for one triple of each kind.
        dim = dims[0] * dims[1]
        rngs = [stream(seed, t) for t in range(3)]
        singles = []
        for t in range(3):
            rng = stream(seed, t)
            singles.append((random_density(dim, rng), random_density(dim, rng), None))
        yield (random_density(dim, rngs), random_density(dim, rngs), None), singles
        rngs = [stream(seed + 1, t) for t in range(3)]
        pair = build_recoverable_triple(list(RECOVERABLE_KINDS), dims, rngs)
        singles = [(*one, one.recovery_error) for one in (
            build_recoverable_triple(kind, dims, stream(seed + 1, t))
            for t, kind in enumerate(RECOVERABLE_KINDS))]
        yield (*pair, pair.recovery_error), singles

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_context_slices_equal_one_triple_builds(self, dims):
        for (rho, sigma, cert), singles in self.stacked_and_single(dims, 80):
            assert rho.batch == sigma.batch == (3,)
            for grid in (None, (0.5 + 0j, -0.3 + 0j, 0.5j)):
                ctx = SaturationContext.build(rho, sigma, dims, DEFAULT_ALPHA_GRID, grid, cert)
                assert ctx.t3.shape == (3, len(DEFAULT_ALPHA_GRID), 9 if grid is None else 3)
                for t, (one_rho, one_sigma, one_cert) in enumerate(singles):
                    assert np.array_equal(rho.matrix[t], one_rho.matrix)
                    assert np.array_equal(sigma.matrix[t], one_sigma.matrix)
                    one = SaturationContext.build(one_rho, one_sigma, dims, DEFAULT_ALPHA_GRID,
                                                  grid, one_cert)
                    view = ctx.trial(t)
                    for name in self.FIELDS:
                        assert np.array_equal(getattr(view, name), getattr(one, name)), name

    def test_recovery_map_on_a_stack(self):
        rngs = [stream(82, t) for t in range(3)]
        sigma = random_density(6, rngs)
        xs = np.stack([rand_pd(np.random.default_rng(t), 2) for t in range(3)])
        ch = partial_trace_channel(2, 3)
        orders = np.array(DEFAULT_ALPHA_GRID)
        stacked, one_order = alpha_recover(sigma, ch, orders, xs), alpha_recover(sigma, ch, 0.3, xs)
        assert stacked.shape == (3, len(orders), 6, 6) and one_order.shape == (3, 6, 6)
        for t in range(3):
            one = random_density(6, stream(82, t))
            assert np.array_equal(stacked[t], alpha_recover(one, ch, orders, xs[t]))
            assert np.array_equal(one_order[t], alpha_recover(one, ch, 0.3, xs[t]))
        with pytest.raises(DimensionMismatch):
            alpha_recover(sigma, ch, 0.3, xs[0])

    def test_a_failing_certificate_names_its_slice(self, monkeypatch):
        monkeypatch.setattr(equality, "recovery_error", lambda *args: np.array([0.0, 2e-9, 3e-9]))
        with pytest.raises(RenyiDpiError, match=r"^slice 1: recoverable-triple certificate "
                                                r"failed: recovery error 2\.000e-09$"):
            build_recoverable_triple(list(RECOVERABLE_KINDS), (2, 2),
                                     [stream(83, t) for t in range(3)])


class TestGeometricMean:
    def test_endpoint_weights(self):
        rng = np.random.default_rng(0)
        a, b = rand_pd(rng, 3), rand_pd(rng, 3)
        assert frobenius(geometric_mean(a, b, 0.0) - a) <= 1e-12
        assert frobenius(geometric_mean(a, b, 1.0) - b) <= 1e-10

    def test_commuting_scalar_case(self):
        out = geometric_mean(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 2.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = rand_pd(rng, 3)
        for lam in LAMBDAS:
            assert frobenius(geometric_mean(a, a, lam) - a) <= 1e-10

    def test_lemma_identities(self):
        # (1) swap symmetry, (2) inversion, (3) one-sided product forms;
        # the product forms are checked against a non-Hermitian
        # eigendecomposition oracle.
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = rand_pd(rng, 3), rand_pd(rng, 3)
            a_inv, b_inv = np.linalg.inv(a), np.linalg.inv(b)
            for lam in LAMBDAS:
                mean = geometric_mean(a, b, lam)
                assert frobenius(mean - geometric_mean(b, a, 1.0 - lam)) <= 1e-9
                assert frobenius(np.linalg.inv(mean) - geometric_mean(a_inv, b_inv, lam)) <= 1e-9
                assert frobenius(mean - a @ nonhermitian_power(a_inv @ b, lam)) <= 1e-9
                assert frobenius(mean - nonhermitian_power(a @ b_inv, 1.0 - lam) @ b) <= 1e-9

    def test_optimizer_is_geometric_mean(self):
        # a_*^-2 = Tr(Y^(1/(1-a))) * (rho #_(1/(1-a)) sigma^a).
        rho, sigma = random_pair(2, 3)
        for alpha in (0.4, -0.6):
            res = closed_form_optimizer(rho, sigma, alpha)
            a_star_sq = rho.power(-0.5) @ res.omega_star @ rho.power(-0.5)
            lhs = np.linalg.inv(a_star_sq)
            y = rho.sqrt() @ sigma.power(-alpha) @ rho.sqrt()
            normalizer = np.sum(np.linalg.eigvalsh(herm_part(y)) ** (1.0 / (1.0 - alpha)))
            mean = geometric_mean(rho.matrix, sigma.power(alpha), 1.0 / (1.0 - alpha))
            assert frobenius(lhs - normalizer * mean) <= 1e-9

    def test_rejects_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geometric_mean(np.eye(2), np.eye(3), 0.5)


class TestBetaGrid:
    def test_contents(self):
        grid = default_beta_grid(0.3)
        assert len(grid) == 9
        assert complex(-0.3) in grid and complex(-0.7) in grid and complex(0.7) in grid
        assert 0.5 + 1j in grid


class TestT1:
    def test_identity_channel(self):
        rho, sigma = random_pair(3, 4)
        assert t1_residual(rho, sigma, identity_channel(3), 0.5) <= 1e-10

    def test_recoverable_triple(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 5)
        ch = partial_trace_channel(2, 2)
        for alpha in (-0.9, -0.3, 0.3, 0.9):
            assert t1_residual(rho_ab, sigma_ab, ch, alpha) <= 1e-8

    def test_positive_alongside_gap_on_generic(self):
        rho, sigma = random_pair(4, 6)
        ch = partial_trace_channel(2, 2)
        assert t1_residual(rho, sigma, ch, 0.5) > 1e-4
        assert dpi_gap(rho, sigma, ch, 0.5) > 1e-4


class TestT1Geo:
    def test_equal_states(self):
        rho_ab = random_density(4, 7)
        assert t1_geo_residual(rho_ab, rho_ab, partial_trace_channel(2, 2), 0.5) <= 1e-9

    def test_recoverable_triple(self):
        rho_ab, sigma_ab = build_recoverable_triple("conjugated-product", (2, 2), 8)
        for alpha in (-0.7, 0.3, 0.7):
            assert t1_geo_residual(rho_ab, sigma_ab, partial_trace_channel(2, 2), alpha) <= 1e-8

    def test_positive_on_generic(self):
        rho, sigma = random_pair(4, 9)
        assert t1_geo_residual(rho, sigma, partial_trace_channel(2, 2), 0.4) > 1e-4

    def test_vanishes_with_t1(self):
        # The adjoint-channel form and the geometric-mean form are
        # invertible rearrangements of each other: they vanish together.
        rho_ab, sigma_ab = build_recoverable_triple("blocked", (2, 2), 10)
        ch = partial_trace_channel(2, 2)
        for alpha in (-0.5, 0.5):
            assert t1_residual(rho_ab, sigma_ab, ch, alpha) <= 1e-8
            assert t1_geo_residual(rho_ab, sigma_ab, ch, alpha) <= 1e-8


class TestT3:
    def test_equal_states_any_beta(self):
        rho = random_density(3, 11)
        ch = random_channel(3, 2, rng_seed=12)
        for beta in (0.3 + 0j, -1.0 + 0j, 0.5 + 1j):
            assert t3_residual(rho, rho, ch, 0.5, beta) <= 1e-10

    def test_perfect_recovery_beta(self):
        # beta = alpha - 1 is the perfect-recovery form of the condition.
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 13)
        ch = partial_trace_channel(2, 2)
        for alpha in (0.3, -0.5):
            assert t3_residual(rho_ab, sigma_ab, ch, alpha, alpha - 1.0) <= 1e-8

    def test_complex_beta_on_recoverable(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 14)
        ch = partial_trace_channel(2, 2)
        assert t3_residual(rho_ab, sigma_ab, ch, 0.4, 0.5 + 1j) <= 1e-8

    def test_full_grid_on_recoverable(self):
        rho_ab, sigma_ab = build_recoverable_triple("blocked", (2, 3), 15)
        ch = partial_trace_channel(2, 3)
        for alpha in (-0.9, 0.9):
            for beta in default_beta_grid(alpha):
                assert t3_residual(rho_ab, sigma_ab, ch, alpha, beta) <= 1e-8

    def test_beta_minus_alpha_matches_t1_zero_set(self):
        # Joint vanishing on saturating triples, joint positivity on generic.
        ch = partial_trace_channel(2, 2)
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 16)
        assert t3_residual(rho_ab, sigma_ab, ch, 0.5, -0.5) <= 1e-8
        assert t1_residual(rho_ab, sigma_ab, ch, 0.5) <= 1e-8
        rho, sigma = random_pair(4, 17)
        assert t3_residual(rho, sigma, ch, 0.5, -0.5) > 1e-5
        assert t1_residual(rho, sigma, ch, 0.5) > 1e-5

    def test_dilated_route_matches(self):
        # Every family, run on the Stinespring dilation, agrees with its
        # Kraus route.
        for seed in range(5):
            rho = random_density(3, stream(18, seed))
            sigma = random_density(3, stream(19, seed))
            ch = random_channel(3, 2, rng_seed=stream(20, seed))
            routes = (ch, stinespring_dilate(ch))
            for alpha in (0.3, -0.6):
                for beta in (-1.0 + 0j, 0.5 + 1j):
                    direct, dilated = (t3_residual(rho, sigma, c, alpha, beta) for c in routes)
                    assert abs(direct - dilated) <= 1e-9
                    direct, dilated = (petz_beta_residual(rho, sigma, c, beta) for c in routes)
                    assert abs(direct - dilated) <= 1e-9
                for family in (t1_geo_residual, necessary1_residual):
                    direct, dilated = (family(rho, sigma, c, alpha) for c in routes)
                    assert abs(direct - dilated) <= 1e-9
            for family in (necessary2_residual, recovery_error):
                direct, dilated = (family(rho, sigma, c) for c in routes)
                assert abs(direct - dilated) <= 1e-9


class TestPetzBeta:
    def test_equal_states(self):
        rho = random_density(4, 21)
        for beta in (0.5 + 0j, -1.0 + 0j, 1j):
            assert petz_beta_residual(rho, rho, partial_trace_channel(2, 2), beta) <= 1e-10

    def test_beta_zero_exact(self):
        rho, sigma = random_pair(4, 22)
        assert petz_beta_residual(rho, sigma, partial_trace_channel(2, 2), 0.0) == 0.0

    def test_recoverable_triple(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 23)
        for beta in (-0.5 + 0j, 1.0 + 0j, 0.5 + 1j):
            assert petz_beta_residual(rho_ab, sigma_ab, partial_trace_channel(2, 2), beta) <= 1e-8

    def test_positive_on_generic(self):
        rho, sigma = random_pair(4, 24)
        assert petz_beta_residual(rho, sigma, partial_trace_channel(2, 2), -0.5) > 1e-4


class TestPetzRecover:
    def test_fixed_point(self):
        sigma = random_density(3, 25)
        ch = random_channel(3, 2, rng_seed=26)
        out = petz_recover(sigma, ch, ch.apply(sigma.matrix))
        assert frobenius(out - sigma.matrix) <= 1e-10

    def test_product_case(self):
        # sigma_AB = sigma_A otimes tau under Tr_B recovers rho_A otimes tau.
        sigma_a = random_density(2, 27)
        tau = random_density(2, 28)
        rho_a = random_density(2, 29)
        sigma_ab = DensityMatrix(np.kron(sigma_a.matrix, tau.matrix))
        ch = partial_trace_channel(2, 2)
        out = petz_recover(sigma_ab, ch, rho_a.matrix)
        assert frobenius(out - np.kron(rho_a.matrix, tau.matrix)) <= 1e-10

    def test_recovers_on_saturating_triple(self):
        rho_ab, sigma_ab = build_recoverable_triple("conjugated-product", (2, 2), 30)
        ch = partial_trace_channel(2, 2)
        out = petz_recover(sigma_ab, ch, ch.apply(rho_ab.matrix))
        assert trace_norm(out - rho_ab.matrix) <= 1e-8

    def test_trace_preserving_on_domain(self):
        sigma = random_density(3, 31)
        ch = random_channel(3, 3, rng_seed=32)
        rng = np.random.default_rng(33)
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = petz_recover(sigma, ch, y)
        assert abs(np.trace(out) - np.trace(y)) <= 1e-11

    @pytest.mark.parametrize("recover", [
        petz_recover,
        lambda sigma, ch, y: alpha_recover(sigma, ch, 0.2, y),
        lambda sigma, ch, y: alpha_recover(sigma, ch, 0.5, y),
        lambda sigma, ch, y: alpha_recover(sigma, ch, -0.4, y),
    ], ids=["petz", "alpha=0.2", "alpha=0.5", "alpha=-0.4"])
    def test_singular_output_guard(self, recover):
        # A channel that replaces every input by |0><0| has a singular
        # output state.
        k0 = np.zeros((2, 2), dtype=complex)
        k0[0, 0] = 1.0
        k1 = np.zeros((2, 2), dtype=complex)
        k1[0, 1] = 1.0
        ch = KrausChannel((k0, k1))
        sigma = random_density(2, 34)
        with pytest.raises(SingularOutputState):
            recover(sigma, ch, np.eye(2) / 2)


class TestAlphaRecover:
    def test_half_is_petz(self):
        # petz_recover is alpha_recover at 1/2, so the reference is the
        # Petz map built here: np.kron for the adjoint of Tr_B, and powers
        # from a plain non-Hermitian eigendecomposition.
        sigma_ab = random_density(4, 35)
        ch = partial_trace_channel(2, 2)
        s_half = nonhermitian_power(sigma_ab.matrix, 0.5)
        pivot = nonhermitian_power(partial_trace(sigma_ab.matrix, (2, 2), "B"), -0.5)
        rng = np.random.default_rng(36)
        for _ in range(5):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            want = s_half @ np.kron(pivot @ x @ pivot, np.eye(2)) @ s_half
            assert frobenius(alpha_recover(sigma_ab, ch, 0.5, x) - want) <= 1e-10
            assert frobenius(petz_recover(sigma_ab, ch, x) - want) <= 1e-10

    @pytest.mark.parametrize("ch", [partial_trace_channel(2, 3), random_channel(4, 2, rng_seed=0)],
                             ids=["partial-trace", "random-channel"])
    def test_trace_preserving(self, ch):
        sigma = random_density(ch.in_dim, 37)
        rng = np.random.default_rng(38)
        for alpha in (0.2, 0.5, 0.8, -0.4):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            out = alpha_recover(sigma, ch, alpha, x)
            assert abs(np.trace(out) - np.trace(x)) <= 1e-11

    def test_recovers_on_saturating_triples(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 39)
        rho_a = DensityMatrix(partial_trace(rho_ab.matrix, (2, 2), "B"))
        for alpha in (0.2, 0.5, 0.8):
            out = alpha_recover(sigma_ab, partial_trace_channel(2, 2), alpha, rho_a.matrix)
            assert frobenius(out - rho_ab.matrix) <= 1e-8

    def test_positivity_at_half_only_probed(self):
        # At alpha = 1/2 the map is the Petz map, hence positive; away
        # from 1/2 the minimum output eigenvalue is recorded, not asserted.
        sigma_ab = random_density(4, 40)
        rng = np.random.default_rng(41)
        minima = {0.2: [], 0.5: [], 0.8: []}
        for _ in range(20):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = g @ dagger(g)
            for alpha in minima:
                out = alpha_recover(sigma_ab, partial_trace_channel(2, 2), alpha, x)
                minima[alpha].append(np.linalg.eigvalsh(0.5 * (out + dagger(out))).min())
        assert min(minima[0.5]) >= -1e-10


class TestNecessaryConditions:
    def test_necessary2_equal_states(self):
        rho = random_density(4, 42)
        assert necessary2_residual(rho, rho, partial_trace_channel(2, 2)) <= 1e-10

    def test_on_recoverable(self):
        rho_ab, sigma_ab = build_recoverable_triple("blocked", (2, 2), 43)
        assert necessary2_residual(rho_ab, sigma_ab, partial_trace_channel(2, 2)) <= 1e-8
        for alpha in (0.3, -0.5):
            assert necessary1_residual(rho_ab, sigma_ab, partial_trace_channel(2, 2), alpha) <= 1e-8

    def test_positive_on_generic(self):
        rho, sigma = random_pair(4, 44)
        assert necessary2_residual(rho, sigma, partial_trace_channel(2, 2)) > 1e-4


class TestOtherChannels:
    """The families on channels other than the marked Tr_B."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_every_condition_holds_under_a_unitary(self, d):
        # A unitary channel is reversible, so every pair saturates data
        # processing. Tempered states keep the residuals' operators
        # moderate: on untempered random_density pairs t3 reaches ~1e18 in
        # absolute terms at d = 4, roundoff of its large operators.
        alphas = np.array(DEFAULT_ALPHA_GRID)
        betas = np.array([default_beta_grid(a) for a in DEFAULT_ALPHA_GRID])
        for seed in range(20):
            rng = stream(seed)
            ch = KrausChannel((random_isometry(d, d, rng),))
            rho = DensityMatrix(equality._tempered_density(d, rng))
            sigma = DensityMatrix(equality._tempered_density(d, rng))
            residuals = (t1_residual(rho, sigma, ch, alphas),
                         t1_geo_residual(rho, sigma, ch, alphas),
                         t3_residual(rho, sigma, ch, alphas, betas),
                         petz_beta_residual(rho, sigma, ch, betas),
                         necessary1_residual(rho, sigma, ch, alphas),
                         necessary2_residual(rho, sigma, ch), recovery_error(rho, sigma, ch))
            assert all(np.max(r) <= SATURATION_TOL for r in residuals)
            assert np.max(np.abs(dpi_gap(rho, sigma, ch, alphas))) <= 1e-9

    def test_unmarked_partial_trace_gives_the_same_values(self):
        # The marked channel reads cached reduced states and lifts with
        # lift_b; its plain Kraus copy goes through the Kraus sums.
        marked = partial_trace_channel(2, 3)
        plain = KrausChannel(marked.kraus_ops)
        alphas = np.array(DEFAULT_ALPHA_GRID)
        betas = np.array([default_beta_grid(a) for a in DEFAULT_ALPHA_GRID])
        families = (lambda r, s, c: t1_residual(r, s, c, alphas),
                    lambda r, s, c: t1_geo_residual(r, s, c, alphas),
                    lambda r, s, c: t3_residual(r, s, c, alphas, betas),
                    lambda r, s, c: petz_beta_residual(r, s, c, betas),
                    lambda r, s, c: necessary1_residual(r, s, c, alphas),
                    necessary2_residual, recovery_error,
                    lambda r, s, c: dpi_gap(r, s, c, alphas))
        for rho, sigma in (random_pair(6, 80), random_pair(6, 81)):
            for family in families:
                want = np.asarray(family(rho, sigma, marked))
                got = np.asarray(family(rho, sigma, plain))
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), np.abs(got)))


class TestRecoverableTriples:
    def test_kinds_and_certificates(self):
        for kind in ("product", "blocked", "conjugated-product"):
            rho_ab, sigma_ab = build_recoverable_triple(kind, (2, 2), 45)
            assert recovery_error(rho_ab, sigma_ab, partial_trace_channel(2, 2)) <= 1e-9

    def test_blocked_weights_distinct(self):
        rho_ab, sigma_ab = build_recoverable_triple("blocked", (2, 2), 46)
        rho_a = partial_trace(rho_ab.matrix, (2, 2), "B")
        sigma_a = partial_trace(sigma_ab.matrix, (2, 2), "B")
        # Distinct classical weights: the block traces differ between
        # rho and sigma.
        assert abs(rho_a[0, 0].real - sigma_a[0, 0].real) > 1e-3

    def test_product_gap_vanishes_on_grid(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 47)
        ch = partial_trace_channel(2, 2)
        for alpha in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
            assert abs(dpi_gap(rho_ab, sigma_ab, ch, alpha)) <= 1e-9

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_recoverable_triple("haar", (2, 2), 0)

    def test_rejects_small_dims(self):
        with pytest.raises(DimensionMismatch):
            build_recoverable_triple("product", (1, 2), 0)


class TestFullReport:
    def test_recoverable_all_below_tolerance(self):
        rho_ab, sigma_ab = build_recoverable_triple("conjugated-product", (2, 2), 48)
        ctx = SaturationContext.build(rho_ab, sigma_ab, (2, 2), (-0.5, 0.5))
        for alpha in (-0.5, 0.5):
            report = full_report(ctx, alpha)
            assert report.max_residual() <= 1e-8
            assert report.saturated()
            assert mutual_implication_ok(report)

    def test_trivial_environment_is_identity_channel(self):
        # d_B = 1 turns the partial trace into the identity channel.
        rho, sigma = random_pair(3, 49)
        report = full_report(SaturationContext.build(rho, sigma, (3, 1), 0.4), 0.4)
        assert report.max_residual() <= 1e-9

    def test_generic_jointly_positive(self):
        rho, sigma = random_pair(4, 50)
        report = full_report(SaturationContext.build(rho, sigma, (2, 2), 0.5), 0.5)
        assert report.residuals["dpi_gap"] > 1e-4
        assert report.residuals["t3"] > 1e-4
        assert not report.saturated()
        assert mutual_implication_ok(report)

    def test_mutual_implication_detects_counterexamples(self):
        base = dict(t1=0.0, t1_geo=0.0, t3=1e-3, petz_beta=0.0, necessary1=0.0,
                    necessary2=0.0, commutator=0.0, dpi_gap=0.0)
        bad = ResidualReport(alpha=0.5, beta_grid=(1.0 + 0j,), residuals=base)
        assert not mutual_implication_ok(bad)
        base2 = dict(base, t3=0.0, dpi_gap=1e-3)
        bad2 = ResidualReport(alpha=0.5, beta_grid=(1.0 + 0j,), residuals=base2)
        assert not mutual_implication_ok(bad2)

    def test_report_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            ResidualReport(alpha=0.5, beta_grid=(), residuals={"t1": -1.0})

    def test_endpoint_alpha_exercised(self):
        # alpha = -1 sits at the closed end of the admissible range: the
        # machinery must run there, but no saturation equivalence is
        # asserted at the endpoint itself.
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 52)
        report = full_report(SaturationContext.build(rho_ab, sigma_ab, (2, 2), -1.0), -1.0)
        assert all(np.isfinite(v) for v in report.residuals.values())
        rho, sigma = random_pair(4, 53)
        generic = full_report(SaturationContext.build(rho, sigma, (2, 2), -1.0), -1.0)
        assert all(np.isfinite(v) for v in generic.residuals.values())
