import re

import numpy as np
import pytest

from renyidpi import (
    DensityMatrix,
    InvalidAlpha,
    NonConvergence,
    OptimizerConfig,
    QuadratureFailure,
    closed_form_optimizer,
    dpi_gap,
    frobenius,
    herm_part,
    identity_channel,
    integral_power_quadrature,
    integral_representation_check,
    matrix_power_psd,
    partial_trace_channel,
    petz_renyi,
    quadratic_form,
    random_channel,
    random_density,
    random_isometry,
    relative_entropy,
    sandwiched_renyi,
    schatten_norm,
    stream,
    trace_distance,
    variational_value,
    build_recoverable_triple,
)
from renyidpi.cli import DEFAULT_ALPHA_GRID
from renyidpi.divergence import _search_objective
from renyidpi.linalg import order_array
from helpers import classical_kl, classical_renyi, counting, diag_density, rand_probs

HALF_HALF = diag_density([0.5, 0.5])
QUARTER = diag_density([0.25, 0.75])


class TestRenyiOrder:
    # order_array is the one validator of the Renyi order alpha.

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.5, 2.0, np.nan, np.inf, -np.inf])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(InvalidAlpha):
            order_array(alpha)
        with pytest.raises(InvalidAlpha):
            order_array([0.5, alpha])

    def test_endpoint_allowed(self):
        assert order_array(-1.0) == -1.0
        np.testing.assert_array_equal(order_array((-1.0, 0.5)), [-1.0, 0.5])

    def test_one_order_and_a_grid(self):
        got = order_array(0.5)
        assert isinstance(got, np.float64) and got.shape == () and got == 0.5
        grid = order_array([0.1, -0.3])
        assert grid.shape == (2,) and grid.dtype == float

    def test_rejects_a_2d_array(self):
        want = "orders must form a 1-D array, got shape (1, 2)"
        with pytest.raises(InvalidAlpha, match=re.escape(want)):
            order_array([[0.1, 0.2]])

    def test_message_names_the_first_bad_entry(self):
        for order, bad in ((0, 0.0), ([0.5, 1.5, 0.0, 2.0], 1.5)):
            want = f"alpha must lie in [-1,0) or (0,1), got {bad}"
            with pytest.raises(InvalidAlpha, match=re.escape(want)):
                order_array(order)


class TestSandwiched:
    def test_equal_states(self):
        rho = random_density(3, 0)
        assert sandwiched_renyi(rho, rho, 0.5) == 0.0

    def test_known_two_point_value(self):
        # alpha = 1/2 means order n = 2: log sum p^2/q = log(4/3).
        val = sandwiched_renyi(HALF_HALF, QUARTER, 0.5)
        assert val == pytest.approx(np.log(4.0 / 3.0), abs=1e-12)

    def test_alpha_minus_one_is_order_half(self):
        rng = np.random.default_rng(1)
        p, q = rand_probs(rng, 3), rand_probs(rng, 3)
        val = sandwiched_renyi(diag_density(p), diag_density(q), -1.0)
        expect = -2.0 * np.log(np.sum(np.sqrt(p * q)))
        assert val == pytest.approx(expect, abs=1e-12)

    def test_classical_reduction(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            p, q = rand_probs(rng, 4), rand_probs(rng, 4)
            alpha = rng.choice([-0.9, -0.5, -0.2, 0.2, 0.5, 0.9])
            got = sandwiched_renyi(diag_density(p), diag_density(q), alpha)
            assert abs(got - classical_renyi(p, q, 1.0 / (1.0 - alpha))) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [0.999, -0.999])
    def test_finite_near_alpha_one(self, alpha):
        # Unscaled, w ** (1/(1-alpha)) overflows to inf at 0.999 on most of these.
        for seed in range(50):
            rho = random_density(2, stream(seed, 0))
            sigma = random_density(2, stream(seed, 1))
            assert np.isfinite(sandwiched_renyi(rho, sigma, alpha))
            assert np.isfinite(dpi_gap(rho, sigma, random_channel(2, 2, rng_seed=seed), alpha))

    @pytest.mark.parametrize("alpha", [0.999, 0.99, -0.999])
    def test_classical_reduction_near_alpha_one(self, alpha):
        # Log-domain classical Renyi divergence of order n: p**n overflows.
        rng = np.random.default_rng(3)
        n = 1.0 / (1.0 - alpha)
        for trial in range(20):
            p, q = rand_probs(rng, 3), rand_probs(rng, 3)
            expect = np.logaddexp.reduce(n * np.log(p) + (1.0 - n) * np.log(q)) / (n - 1.0)
            got = sandwiched_renyi(diag_density(p), diag_density(q), alpha)
            assert abs(got - expect) <= 1e-10


class TestPetz:
    def test_equal_states(self):
        rho = random_density(3, 3)
        assert petz_renyi(rho, rho, -0.4) == 0.0

    def test_diagonal_half(self):
        rng = np.random.default_rng(4)
        p, q = rand_probs(rng, 3), rand_probs(rng, 3)
        val = petz_renyi(diag_density(p), diag_density(q), 0.5)
        expect = 2.0 * np.log(np.sum(p**1.5 * q**-0.5))
        assert val == pytest.approx(expect, abs=1e-12)

    def test_classical_reduction(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            p, q = rand_probs(rng, 3), rand_probs(rng, 3)
            alpha = rng.choice([-0.8, -0.3, 0.3, 0.8])
            got = petz_renyi(diag_density(p), diag_density(q), alpha)
            assert abs(got - classical_renyi(p, q, 1.0 + alpha)) <= 1e-10

    def test_dominated_by_sandwiched(self):
        # The Petz value is the omega = rho point of the variational
        # problem whose optimum defines the sandwiched divergence, so at
        # equal parameter the sandwiched value dominates; inequality only.
        for seed in range(20):
            rho = random_density(3, stream(6, seed))
            sigma = random_density(3, stream(7, seed))
            for alpha in (-0.8, -0.4, 0.2, 0.5, 0.8):
                assert petz_renyi(rho, sigma, alpha) <= sandwiched_renyi(rho, sigma, alpha) + 1e-12


class TestRelativeEntropy:
    def test_known_value(self):
        val = relative_entropy(HALF_HALF, QUARTER)
        assert val == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-12)
        rng = np.random.default_rng(8)
        p, q = rand_probs(rng, 4), rand_probs(rng, 4)
        assert relative_entropy(diag_density(p), diag_density(q)) == pytest.approx(
            classical_kl(p, q), abs=1e-12
        )

    def test_nonnegative(self):
        for seed in range(10):
            rho = random_density(3, stream(9, seed))
            sigma = random_density(3, stream(10, seed))
            assert relative_entropy(rho, sigma) >= 0.0


def weighted_norm(rho, sigma, p):
    # The Araki-Masuda norm ||sigma^(1/p - 1/2) rho^(1/2)||_p, from singular values.
    return schatten_norm(sigma.power(1.0 / p - 0.5) @ rho.sqrt(), p)


class TestArakiMasuda:
    # The Araki-Masuda form of the sandwiched quantity: with p = 2/(1-alpha),
    # (alpha/2) D(rho||sigma) = log ||sigma^(-alpha/2) rho^(1/2)||_p. The
    # Schatten norm comes from singular values, a route independent of the
    # eigenvalues of rho^(1/2) sigma^-alpha rho^(1/2) that sandwiched_renyi
    # closes (Muller-Lennert, Dupuis, Szehr, Fehr and Tomamichel, J. Math.
    # Phys. 2013). The closed forms of the norm check the sandwiched
    # quantity at alpha = 1 - 2/p.

    def test_equal_states_unit_norm(self):
        rho = random_density(3, 13)
        for p in (1.5, 3.0, 7.0):
            assert weighted_norm(rho, rho, p) == pytest.approx(1.0, abs=1e-12)
            assert sandwiched_renyi(rho, rho, 1.0 - 2.0 / p) == 0.0

    def test_identity_reference(self):
        # sigma = I/d pulls out as a scalar.
        rho = random_density(3, 14)
        d = 3.0
        for p in (1.5, 4.0):
            alpha = 1.0 - 2.0 / p
            expect = d ** ((1.0 - 2.0 / p) / 2.0) * float(
                np.sum(rho.spectral.eigenvalues ** (p / 2.0)) ** (1.0 / p)
            )
            got = np.exp(0.5 * alpha * sandwiched_renyi(rho, DensityMatrix(np.eye(3) / 3), alpha))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_diagonal_formula(self):
        rng = np.random.default_rng(15)
        p_vec, q_vec = rand_probs(rng, 3), rand_probs(rng, 3)
        p = 3.0
        alpha = 1.0 - 2.0 / p
        expect = float(np.sum((p_vec * q_vec ** (2.0 / p - 1.0)) ** (p / 2.0)) ** (1.0 / p))
        got = sandwiched_renyi(diag_density(p_vec), diag_density(q_vec), alpha)
        assert np.exp(0.5 * alpha * got) == pytest.approx(expect, abs=1e-12)

    def test_consistent_with_sandwiched(self):
        for d in (2, 3, 4):
            for seed in range(20):
                rng = stream(seed)
                rho, sigma = random_density(d, rng), random_density(d, rng)
                for alpha in (-1.0, -0.7, -0.3, 0.3, 0.7, 0.9):
                    via_norm = np.log(weighted_norm(rho, sigma, 2.0 / (1.0 - alpha)))
                    got = 0.5 * alpha * sandwiched_renyi(rho, sigma, alpha)
                    assert abs(got - via_norm) <= 1e-12 * abs(via_norm)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1000.0, 2000.0])
    def test_finite_at_large_order(self, p):
        # Unscaled, w ** (p/2) overflows to inf on most of these pairs.
        for seed in range(50):
            rho = random_density(2, stream(seed, 0))
            sigma = random_density(2, stream(seed, 1))
            assert np.isfinite(sandwiched_renyi(rho, sigma, 1.0 - 2.0 / p))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 20.0, 1000.0])
    def test_diagonal_weighted_norm(self, p):
        # Classical weighted p-norm (sum_i p_i^(p/2) q_i^(1-p/2))^(1/p), in
        # the log domain so the reference itself cannot overflow.
        rng = np.random.default_rng(19)
        alpha = 1.0 - 2.0 / p
        for _ in range(10):
            p_vec, q_vec = rand_probs(rng, 3), rand_probs(rng, 3)
            log_terms = 0.5 * p * np.log(p_vec) + (1.0 - 0.5 * p) * np.log(q_vec)
            expect = np.logaddexp.reduce(log_terms) / p
            got = 0.5 * alpha * sandwiched_renyi(diag_density(p_vec), diag_density(q_vec), alpha)
            assert abs(got - expect) <= 1e-10

    def test_rejects_bad_orders(self):
        # p = 2 is alpha = 0, and p < 1 is alpha < -1.
        rho = random_density(2, 18)
        for p in (2.0, 0.5):
            with pytest.raises(InvalidAlpha):
                sandwiched_renyi(rho, rho, 1.0 - 2.0 / p)


class TestClosedFormOptimizer:
    def test_equal_states_fixed_point(self):
        rho = random_density(3, 19)
        res = closed_form_optimizer(rho, rho, 0.4)
        assert frobenius(res.omega_star - rho.matrix) <= 1e-10

    def test_diagonal_formula(self):
        rng = np.random.default_rng(20)
        p, q = rand_probs(rng, 3), rand_probs(rng, 3)
        alpha = 0.35
        raw = (p * q**-alpha) ** (1.0 / (1.0 - alpha))
        expect = raw / raw.sum()
        res = closed_form_optimizer(diag_density(p), diag_density(q), alpha)
        np.testing.assert_allclose(np.diag(res.omega_star).real, expect, atol=1e-12)

    def test_attained_value_matches_divergence(self):
        for seed in range(10):
            rho = random_density(3, stream(21, seed))
            sigma = random_density(3, stream(22, seed))
            for alpha in (-0.6, -0.3, 0.3, 0.6):
                res = closed_form_optimizer(rho, sigma, alpha)
                expect = np.exp(alpha * sandwiched_renyi(rho, sigma, alpha))
                assert abs(res.value - expect) <= 1e-9

    def test_omega_star_formula(self):
        rho = random_density(2, 23)
        sigma = random_density(2, 24)
        res = closed_form_optimizer(rho, sigma, 0.5)
        y_pow = matrix_power_psd(herm_part(rho.sqrt() @ sigma.power(-0.5) @ rho.sqrt()), 2.0)
        rebuilt = y_pow / np.trace(y_pow).real
        assert frobenius(res.omega_star - rebuilt) <= 1e-10

    def test_optimizer_below_the_input_floor(self):
        # The pair of variational-check's trial 0 at seed 1: at alpha =
        # 0.9, n = 10, omega_* is a genuine state below the 1e-10 floor.
        rng = stream(1, 0)
        rho, sigma = random_density(2, rng), random_density(2, rng)
        res = closed_form_optimizer(rho, sigma, 0.9)
        evals = np.linalg.eigvalsh(res.omega_star)
        assert frobenius(res.omega_star - herm_part(res.omega_star)) == 0.0
        assert abs(np.trace(res.omega_star).real - 1.0) <= 1e-12
        assert -1e-15 <= evals[0] < 1e-10
        assert np.isfinite(res.value)
        expect = np.exp(0.9 * sandwiched_renyi(rho, sigma, 0.9))
        assert abs(res.value - expect) <= 1e-9 * expect


def golden_section(fn, lo, hi, iters=200):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


class TestVariational:
    def test_equal_states(self):
        rho = random_density(2, 25)
        value, omega = variational_value(rho, rho, 0.4, OptimizerConfig(restarts=2, seed=0))
        assert value == pytest.approx(1.0, abs=1e-8)
        assert trace_distance(omega, rho.matrix) <= 1e-4

    def test_diagonal_against_scalar_oracle(self):
        # Independent route: golden-section search over the 2-simplex.
        rng = np.random.default_rng(26)
        p, q = rand_probs(rng, 2), rand_probs(rng, 2)
        rho, sigma = diag_density(p), diag_density(q)
        for alpha in (0.5, -0.5):
            sign = 1.0 if alpha > 0 else -1.0

            def scalar_form(w):
                omega = np.array([w, 1.0 - w])
                return sign * float(np.sum(p * q**-alpha * omega**alpha))

            w_star = golden_section(scalar_form, 1e-6, 1.0 - 1e-6)
            oracle = sign * scalar_form(w_star)
            value, _ = variational_value(rho, sigma, alpha, OptimizerConfig(restarts=3, seed=1))
            closed = closed_form_optimizer(rho, sigma, alpha).value
            assert abs(value - oracle) <= 1e-6
            assert abs(value - closed) <= 1e-6

    def test_matches_closed_form_and_unique(self):
        cfg = OptimizerConfig(restarts=4, seed=2)
        for seed in range(5):
            rho = random_density(2, stream(27, seed))
            sigma = random_density(2, stream(28, seed))
            for alpha in (0.3, -0.6):
                closed = closed_form_optimizer(rho, sigma, alpha)
                value, omega = variational_value(rho, sigma, alpha, cfg)
                assert abs(value - closed.value) <= 1e-6
                assert trace_distance(omega, closed.omega_star) <= 1e-4

    def test_random_probes_never_beat_optimum(self):
        rho = random_density(3, 29)
        sigma = random_density(3, 30)
        rng = stream(31)
        for alpha in (0.5, -0.5):
            best = closed_form_optimizer(rho, sigma, alpha).value
            for _ in range(100):
                omega = random_density(3, rng).matrix
                probe = quadratic_form(rho, sigma, omega, alpha)
                if alpha > 0:
                    assert probe <= best + 1e-9
                else:
                    assert probe >= best - 1e-9

    def test_rejects_tiny_alpha(self):
        rho = random_density(2, 32)
        with pytest.raises(InvalidAlpha):
            variational_value(rho, rho, 1e-4)


def scalar_search_score(y, alpha, g):
    # One G at a time, one eigensolve per G: the reference for the
    # stacked score.
    sign = 1.0 if alpha > 0 else -1.0
    w = g @ g.conj().T
    tr = np.trace(w).real
    if tr <= 0.0 or not np.isfinite(tr):
        return -np.inf
    evals, vecs = np.linalg.eigh(herm_part(w / tr))
    if evals.min() <= 0.0:
        return -np.inf
    diag = np.einsum("ij,jk,ki->i", vecs.conj().T, y, vecs).real
    return sign * float(np.sum(diag * evals**alpha))


def one_order_score(y, alpha, g):
    # Score of a stack of full-rank G's at one order, its eigenvalues
    # raised to a Python float: the bit-for-bit reference for each order's
    # block of a mixed stack.
    sign = 1.0 if alpha > 0 else -1.0
    w = np.einsum("nij,nkj->nik", g, g.conj())
    evals, vecs = np.linalg.eigh(w / np.einsum("nii->n", w).real[:, None, None])
    diag = np.einsum("nji,jk,nki->ni", vecs.conj(), y, vecs).real
    return sign * np.sum(diag * evals**alpha, axis=1)


class TestBatchedSearch:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stacked_score_matches_scalar_formula(self):
        # One stack holds the same G's twice, a block per order.
        rng = stream(63)
        alphas = np.array([0.6, -0.4])
        for d in (2, 3):
            rho, sigma = random_density(d, rng), random_density(d, rng)
            singular = np.diag([1.0] * (d - 1) + [0.0]).astype(complex)
            block = np.stack([np.eye(d, dtype=complex), singular, np.zeros((d, d), complex)]
                             + [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                                for _ in range(8)])
            gs, owner = np.concatenate([block, block]), np.repeat([0, 1], len(block))
            y = np.stack([herm_part(rho.sqrt() @ sigma.power(-a) @ rho.sqrt()) for a in alphas])
            _, score = _search_objective(y, alphas)
            got = score(gs, owner)
            want = np.array([scalar_search_score(y[k], alphas[k], g) for g, k in zip(gs, owner)])
            assert got.shape == (len(gs),)
            singular_rows = np.isin(np.arange(len(gs)) % len(block), (1, 2))
            assert np.all(np.isneginf(got[singular_rows]))
            assert np.all(np.isneginf(want[singular_rows]))
            np.testing.assert_allclose(got[~singular_rows], want[~singular_rows], rtol=1e-12)

    def test_mixed_stack_scores_bit_for_bit(self):
        # At alpha = 0.5 a scalar exponent is evaluated as a square root,
        # which an array of exponents does not reproduce bit for bit.
        rng = stream(72)
        alphas = np.array([0.5, -0.5, 0.9])
        rho, sigma = random_density(2, rng), random_density(2, rng)
        y = np.stack([herm_part(rho.sqrt() @ sigma.power(-a) @ rho.sqrt()) for a in alphas])
        gs = rng.standard_normal((3, 100, 2, 2)) + 1j * rng.standard_normal((3, 100, 2, 2))
        _, score = _search_objective(y, alphas)
        got = score(gs.reshape(-1, 2, 2), np.repeat([0, 1, 2], 100)).reshape(3, 100)
        for k, alpha in enumerate(alphas.tolist()):
            np.testing.assert_array_equal(got[k], one_order_score(y[k], alpha, gs[k]))

    def test_one_batched_eigensolve_per_poll(self, monkeypatch):
        # The opportunistic coordinate poll made ~3,000 eigensolves per
        # d=2 solve, one per probe. An array of orders polls every order
        # in the same eigensolve: the default grid takes about as many as
        # one order, where ten scalar calls take ~690.
        cfg = OptimizerConfig(restarts=4, seed=0)
        grid = np.array(DEFAULT_ALPHA_GRID)
        for seed in range(3):
            rho = random_density(2, stream(64, seed))
            sigma = random_density(2, stream(65, seed))
            for order in (0.5, -0.3, grid):
                calls = counting(monkeypatch, np.linalg, "eigh")
                variational_value(rho, sigma, order, cfg)
                monkeypatch.undo()
                assert len(calls) <= 150

    def test_poll_cap_raises_with_best_value(self):
        rho, sigma = random_density(2, 66), random_density(2, 67)
        cfg = OptimizerConfig(restarts=4, max_sweeps=1)
        bests = []
        for alpha in (0.4, -0.7):
            closed = closed_form_optimizer(rho, sigma, alpha).value
            with pytest.raises(NonConvergence) as info:
                variational_value(rho, sigma, alpha, cfg)
            best = info.value.best_value
            assert best is not None and np.isfinite(best)
            # One poll cannot beat the unique optimum.
            assert (best <= closed + 1e-12) if alpha > 0 else (best >= closed - 1e-12)
            bests.append(best)
        # An array of orders raises for its first order.
        with pytest.raises(NonConvergence) as info:
            variational_value(rho, sigma, np.array([0.4, -0.7]), cfg)
        assert info.value.best_value == bests[0]

    @pytest.mark.parametrize("orders", [[1e-4, 0.5], [0.5, -5e-4], [0.3, 0.7, 1e-4, -2e-4]])
    def test_array_rejects_tiny_alpha_anywhere(self, orders):
        first = next(a for a in orders if abs(a) < 1e-3)
        rho = random_density(2, 32)
        with pytest.raises(InvalidAlpha, match=f"got {first}$"):
            variational_value(rho, random_density(2, 33), np.array(orders))

    def test_empty_array_of_orders(self):
        rho, sigma = random_density(2, 32), random_density(2, 33)
        values, omegas = variational_value(rho, sigma, [])
        assert values.shape == (0,) and omegas.shape == (0, 2, 2)

    @pytest.mark.parametrize("d, restarts", [(2, 3), (3, 1)])
    def test_array_equals_scalar_calls_bit_for_bit(self, d, restarts):
        # The default grid holds alpha = +-0.5, where a scalar exponent is
        # evaluated as a square root.
        grid = np.array(DEFAULT_ALPHA_GRID)
        cfg = OptimizerConfig(restarts=restarts, seed=5)
        rho, sigma = random_density(d, stream(70, d)), random_density(d, stream(71, d))
        values, omegas = variational_value(rho, sigma, grid, cfg)
        assert values.shape == grid.shape and omegas.shape == grid.shape + (d, d)
        for alpha, value, omega in zip(grid.tolist(), values, omegas):
            want_value, want_omega = variational_value(rho, sigma, alpha, cfg)
            assert value == want_value
            np.testing.assert_array_equal(omega, want_omega)

    def test_matches_closed_form_at_d3(self):
        cfg = OptimizerConfig(restarts=4, seed=3)
        for seed in range(2):
            rho = random_density(3, stream(68, seed))
            sigma = random_density(3, stream(69, seed))
            for alpha in (-0.8, -0.2, 0.4, 0.7):
                closed = closed_form_optimizer(rho, sigma, alpha)
                value, omega = variational_value(rho, sigma, alpha, cfg)
                assert abs(value - closed.value) <= 1e-6
                assert trace_distance(omega, closed.omega_star) <= 1e-4


class TestDpiGap:
    def test_identity_channel_zero(self):
        rho = random_density(3, 33)
        sigma = random_density(3, 34)
        assert dpi_gap(rho, sigma, identity_channel(3), 0.5) == 0.0

    def test_recoverable_product(self):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), 35)
        ch = partial_trace_channel(2, 2)
        for alpha in (-0.9, -0.3, 0.3, 0.9):
            assert abs(dpi_gap(rho_ab, sigma_ab, ch, alpha)) <= 1e-9

    def test_nonnegative_on_random_triples(self):
        for seed in range(20):
            rho = random_density(4, stream(36, seed))
            sigma = random_density(4, stream(37, seed))
            ch = partial_trace_channel(2, 2) if seed % 2 == 0 else random_channel(4, 2, rng_seed=stream(38, seed))
            for alpha in (-0.7, -0.2, 0.2, 0.7):
                assert dpi_gap(rho, sigma, ch, alpha) >= -1e-9


class TestLimitConsistency:
    def test_richardson_bound(self):
        h = 1e-4
        big = 1e-2
        for seed in range(5):
            rho = random_density(3, stream(39, seed))
            sigma = random_density(3, stream(40, seed))
            d0 = relative_entropy(rho, sigma)

            def slope(hh):
                return (sandwiched_renyi(rho, sigma, hh) - d0) / hh

            # Two-step Richardson estimate of the alpha-slope at zero.
            c_plus = 2.0 * slope(big) - slope(2.0 * big)
            c_minus = 2.0 * slope(-big) - slope(-2.0 * big)
            c = 2.0 * max(abs(c_plus), abs(c_minus)) + 0.1
            assert abs(sandwiched_renyi(rho, sigma, h) - d0) <= c * h
            assert abs(sandwiched_renyi(rho, sigma, -h) - d0) <= c * h


def lifted_sandwiched(rho, sigma, v, alpha):
    """Sandwiched divergence of the singular lifted pair V rho V*, V sigma V*,
    evaluated through pseudo-powers on the common support."""
    big_rho = v @ rho.matrix @ v.conj().T
    big_sigma = v @ sigma.matrix @ v.conj().T
    w_s, u_s = np.linalg.eigh(herm_part(big_sigma))
    keep = w_s > 1e-12
    sig_pow = (u_s[:, keep] * w_s[keep] ** -alpha) @ u_s[:, keep].conj().T
    w_r, u_r = np.linalg.eigh(herm_part(big_rho))
    keep_r = w_r > 1e-12
    rho_half = (u_r[:, keep_r] * np.sqrt(w_r[keep_r])) @ u_r[:, keep_r].conj().T
    y = herm_part(rho_half @ sig_pow @ rho_half)
    evals = np.linalg.eigvalsh(y)
    evals = evals[evals > 1e-12]
    return (1.0 - alpha) / alpha * np.log(np.sum(evals ** (1.0 / (1.0 - alpha))))


class TestIsometryInvariance:
    def test_unitary_conjugation(self):
        rho = random_density(3, 41)
        sigma = random_density(3, 42)
        u = random_isometry(3, 3, 43)
        rho_u = DensityMatrix(u @ rho.matrix @ u.conj().T)
        sigma_u = DensityMatrix(u @ sigma.matrix @ u.conj().T)
        for alpha in (-0.8, -0.3, 0.3, 0.8):
            assert abs(
                sandwiched_renyi(rho_u, sigma_u, alpha) - sandwiched_renyi(rho, sigma, alpha)
            ) <= 1e-9

    def test_proper_isometry_lift(self):
        from renyidpi import random_isometry

        rho = random_density(2, 44)
        sigma = random_density(2, 45)
        v = random_isometry(6, 2, 46)
        for alpha in (-0.5, 0.5):
            lifted = lifted_sandwiched(rho, sigma, v, alpha)
            assert abs(lifted - sandwiched_renyi(rho, sigma, alpha)) <= 1e-9


class TestIntegralRepresentation:
    def test_scalar_one(self):
        out = integral_power_quadrature(np.array([[1.0 + 0j]]), 0.5)
        assert abs(out[0, 0] - 1.0) <= 1e-6

    def test_scalar_sqrt_two(self):
        out = integral_power_quadrature(np.array([[2.0 + 0j]]), 0.5)
        assert abs(out[0, 0] - np.sqrt(2.0)) <= 1e-6

    def test_diagonal_inverse_sqrt(self):
        m = np.diag([1.0, 2.0, 5.0]).astype(complex)
        out = integral_power_quadrature(m, -0.5)
        np.testing.assert_allclose(
            np.diag(out).real, [1.0, 2.0**-0.5, 5.0**-0.5], atol=1e-6
        )

    @pytest.mark.parametrize("alpha", [0.25, -0.25, 0.75, -0.75])
    def test_random_psd(self, alpha):
        for seed in range(5):
            m = random_density(3, stream(47, seed)).matrix * 3.0
            assert integral_representation_check(m, alpha) <= 1e-6

    def test_rejects_endpoint_alpha(self):
        with pytest.raises(InvalidAlpha):
            integral_power_quadrature(np.eye(2), -1.0)

    def test_seed_111_matrix(self):
        # Eigenvalues 5.1e-5 and 2.0: Gauss-Legendre left residuals up to 2.9e-4.
        m = random_density(2, stream(111, 1)).matrix * 2
        for alpha in DEFAULT_ALPHA_GRID:
            assert integral_representation_check(m, alpha) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.001, -0.001, 0.01, -0.01, 0.99, -0.99, 0.999, -0.999])
    def test_extreme_alpha_relative_error(self, alpha):
        for seed in range(5):
            m = random_density(3, stream(47, seed)).matrix * 3.0
            ref = matrix_power_psd(m, alpha)
            assert frobenius(integral_power_quadrature(m, alpha) - ref) <= 1e-12 * frobenius(ref)

    def test_grid_equals_scalar_calls_from_one_eigensolve(self, monkeypatch):
        m = random_density(3, stream(47, 1)).matrix * 3.0
        grid = np.array(DEFAULT_ALPHA_GRID)
        scalar = [integral_representation_check(m, alpha) for alpha in DEFAULT_ALPHA_GRID]
        eighs = counting(monkeypatch, np.linalg, "eigh")
        values = integral_representation_check(m, grid)
        assert values.shape == grid.shape and len(eighs) == 1
        assert values.tolist() == scalar

    def test_grid_raises_as_the_first_failing_order(self):
        # The quadrature runs first, order by order, with its own messages.
        with pytest.raises(InvalidAlpha, match="got -1.0"):
            integral_representation_check(np.eye(2), [0.5, -1.0])
        with pytest.raises(QuadratureFailure, match="not positive definite"):
            integral_representation_check(np.diag([1.0, 0.0]), [0.5, -1.0])

    def test_one_stacked_solve_per_call(self, monkeypatch):
        m = random_density(3, stream(47, 0)).matrix * 3.0
        solves = counting(monkeypatch, np.linalg, "solve")
        invs = counting(monkeypatch, np.linalg, "inv")
        eighs = counting(monkeypatch, np.linalg, "eigh")
        for calls, alpha in enumerate((0.3, -0.7), start=1):
            integral_power_quadrature(m, alpha)
            assert (len(solves), len(invs), len(eighs)) == (calls, 0, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e9])
    def test_ill_conditioned_finite_or_typed(self, cond):
        for d in (2, 3, 4):
            u = random_isometry(d, d, stream(48, d))
            m = (u * np.geomspace(1.0, 1.0 / cond, d)) @ u.conj().T
            for alpha in (-0.999, -0.5, -0.001, 0.001, 0.5, 0.999):
                try:
                    out = integral_power_quadrature(m, alpha)
                except QuadratureFailure:
                    continue
                assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("m, alpha", [
        (np.diag([1.0, -0.5]), 0.5),   # indefinite: gave -1.86 for the second entry
        (np.diag([1.0, 0.0]), -0.5),   # singular: gave 1.7e20 for an infinite power
    ])
    def test_rejects_input_that_is_not_positive_definite(self, m, alpha):
        with pytest.raises(QuadratureFailure):
            integral_power_quadrature(m, alpha)

    def test_singular_resolvent_is_typed(self):
        # At alpha = 0.999 the far nodes underflow e^u to 0, leaving m itself.
        with pytest.raises(QuadratureFailure):
            integral_power_quadrature(np.diag([1.0, 0.0]), 0.999)
