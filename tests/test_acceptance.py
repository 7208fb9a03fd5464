"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from renyidpi import (
    CompressionIsometry,
    DensityMatrix,
    OptimizerConfig,
    RelativeModularOperator,
    SaturationContext,
    alpha_recover,
    build_recoverable_triple,
    closed_form_optimizer,
    compressed_power_residual,
    compression_identity_residual,
    dagger,
    default_beta_grid,
    dpi_gap,
    frobenius,
    full_report,
    geometric_mean,
    integral_representation_check,
    jensen_commutator_norm,
    partial_trace,
    partial_trace_channel,
    petz_recover,
    petz_renyi,
    quadratic_form,
    random_channel,
    random_density,
    recovery_error,
    relative_entropy,
    sandwiched_renyi,
    stinespring_dilate,
    stream,
    t3_residual,
    trace_distance,
    variational_value,
)
from helpers import classical_renyi, nonhermitian_power, rand_pd, rand_probs, diag_density

ALPHA_GRID = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)


def _criterion(num: int, ok: bool, description: str, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dpi_nonnegativity():
    started = time.perf_counter()
    worst = np.inf
    for trial in range(200):
        rho = random_density(4, stream(1001, trial, 0))
        sigma = random_density(4, stream(1001, trial, 1))
        if trial % 2 == 0:
            ch = partial_trace_channel(2, 2)
        else:
            ch = random_channel(4, 2, rng_seed=stream(1001, trial, 2))
        for alpha in ALPHA_GRID:
            worst = min(worst, dpi_gap(rho, sigma, ch, alpha))
    elapsed = time.perf_counter() - started
    ok = worst >= -1e-9 and elapsed <= 120.0
    _criterion(1, ok, "DPI gap >= -1e-9 on 200 random triples x 10 alphas",
               f"min gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_classical_oracle():
    worst = 0.0
    for trial in range(50):
        rng = stream(1002, trial)
        p, q = rand_probs(rng, 4), rand_probs(rng, 4)
        rho, sigma = diag_density(p), diag_density(q)
        for alpha in ALPHA_GRID:
            d_sand = sandwiched_renyi(rho, sigma, alpha)
            d_petz = petz_renyi(rho, sigma, alpha)
            worst = max(worst, abs(d_sand - classical_renyi(p, q, 1.0 / (1.0 - alpha))))
            worst = max(worst, abs(d_petz - classical_renyi(p, q, 1.0 + alpha)))
    _criterion(2, worst <= 1e-10,
               "diagonal pairs match classical Renyi orders 1/(1-a) and 1+a",
               f"max |diff| {worst:.2e}")


def test_criterion_03_optimizer_correctness():
    # One search per trial over the four orders; the same 100 probe states
    # are tried at every order.
    worst_value, worst_dist, worst_beat = 0.0, 0.0, 0.0
    alphas = (-0.6, -0.3, 0.3, 0.6)
    for trial in range(20):
        rho = random_density(2, stream(1003, trial, 0))
        sigma = random_density(2, stream(1003, trial, 1))
        values, omegas = variational_value(rho, sigma, alphas, OptimizerConfig())
        probe_rng = stream(1003, trial, 2)
        probes = [random_density(2, probe_rng) for _ in range(100)]
        for alpha, value, omega in zip(alphas, values, omegas):
            closed = closed_form_optimizer(rho, sigma, alpha)
            worst_value = max(worst_value, abs(value - closed.value))
            worst_dist = max(
                worst_dist, trace_distance(DensityMatrix(omega).matrix, closed.omega_star.matrix)
            )
            for probe in probes:
                excess = quadratic_form(rho, sigma, probe, alpha) - closed.value
                worst_beat = max(worst_beat, excess if alpha > 0 else -excess)
    ok = worst_value <= 1e-6 and worst_dist <= 1e-4 and worst_beat <= 1e-9
    _criterion(3, ok, "variational optimizer matches the closed form",
               f"|dv| {worst_value:.2e}, dist {worst_dist:.2e}, best probe excess {worst_beat:.2e}")


def test_criterion_04_compression_identity():
    worst = 0.0
    for trial in range(50):
        rng = stream(1004, trial)
        rho_ab = random_density(4, rng)
        sigma_ab = random_density(4, rng)
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        ci = CompressionIsometry(rho_ab, 2, 2)
        worst = max(worst, compression_identity_residual(ci, sigma_ab, a))
    _criterion(4, worst <= 1e-9, "compression identity is unconditional",
               f"max residual {worst:.2e}")


def test_criterion_05_saturation_equivalence():
    dims_cycle = ((2, 2), (2, 3), (3, 2))
    worst_res, worst_gap, worst_rec, worst_comm, worst_power = 0.0, 0.0, 0.0, 0.0, 0.0
    for k, kind in enumerate(("product", "blocked", "conjugated-product")):
        for trial in range(10):
            dims = dims_cycle[trial % 3]
            rho_ab, sigma_ab = build_recoverable_triple(kind, dims, stream(1005, k, trial))
            ch = partial_trace_channel(*dims)
            ctx = SaturationContext.build(rho_ab, sigma_ab, dims, ALPHA_GRID)
            for alpha in ALPHA_GRID:
                report = full_report(ctx, alpha)
                worst_res = max(worst_res, report.max_residual())
                worst_gap = max(worst_gap, abs(dpi_gap(rho_ab, sigma_ab, ch, alpha)))
            worst_rec = max(worst_rec, recovery_error(rho_ab, sigma_ab, ch))
            ci = CompressionIsometry(rho_ab, *dims)
            dop = RelativeModularOperator(sigma_ab, rho_ab)
            worst_comm = max(worst_comm, jensen_commutator_norm(ci, dop))
            for t in (0.25, 0.5, 0.75):
                worst_power = max(worst_power, compressed_power_residual(ci, dop, t))
    ok = (worst_res <= 1e-8 and worst_gap <= 1e-9 and worst_rec <= 1e-8
          and worst_comm <= 1e-8 and worst_power <= 1e-8)
    _criterion(5, ok, "30 recoverable triples saturate every condition",
               f"res {worst_res:.2e}, gap {worst_gap:.2e}, recovery {worst_rec:.2e}, "
               f"comm {worst_comm:.2e}, power {worst_power:.2e}")


def test_criterion_06_converse_co_positivity():
    counterexamples = 0
    for trial in range(100):
        rho = random_density(4, stream(1006, trial, 0))
        sigma = random_density(4, stream(1006, trial, 1))
        if trial % 2 == 0:
            ch = partial_trace_channel(2, 2)
        else:
            ch = random_channel(4, 2, rng_seed=stream(1006, trial, 2))
        alpha = ALPHA_GRID[trial % len(ALPHA_GRID)]
        gap = dpi_gap(rho, sigma, ch, alpha)
        t3_max = max(t3_residual(rho, sigma, ch, alpha, b) for b in default_beta_grid(alpha))
        if gap > 1e-4 and t3_max <= 1e-6:
            counterexamples += 1
        if t3_max > 1e-6 and gap <= 1e-4:
            counterexamples += 1
    _criterion(6, counterexamples == 0,
               "gap and power-family residual vanish together on 100 generic triples",
               f"{counterexamples} counterexample rows")


def test_criterion_07_alpha_to_zero_limit():
    h = 1e-4
    big = 1e-2
    ok = True
    worst_ratio = 0.0
    for trial in range(20):
        rho = random_density(3, stream(1007, trial, 0))
        sigma = random_density(3, stream(1007, trial, 1))
        d0 = relative_entropy(rho, sigma)

        def slope(hh):
            return (sandwiched_renyi(rho, sigma, hh) - d0) / hh

        c_plus = 2.0 * slope(big) - slope(2.0 * big)
        c_minus = 2.0 * slope(-big) - slope(-2.0 * big)
        c = 2.0 * max(abs(c_plus), abs(c_minus)) + 0.1
        for sign in (1.0, -1.0):
            err = abs(sandwiched_renyi(rho, sigma, sign * h) - d0)
            worst_ratio = max(worst_ratio, err / (c * h))
            ok = ok and err <= c * h
    _criterion(7, ok, "alpha -> 0 limit reaches the relative entropy at Richardson rate",
               f"worst error / bound {worst_ratio:.3f}")


def test_criterion_08_geometric_mean_lemma():
    worst = 0.0
    for trial in range(50):
        rng = stream(1008, trial)
        a, b = rand_pd(rng, 3), rand_pd(rng, 3)
        a_inv, b_inv = np.linalg.inv(a), np.linalg.inv(b)
        for lam in (-1.0, -0.5, 0.0, 1.0 / 3.0, 0.5, 1.0, 2.0):
            mean = geometric_mean(a, b, lam)
            worst = max(worst, frobenius(mean - geometric_mean(b, a, 1.0 - lam)))
            worst = max(worst, frobenius(np.linalg.inv(mean) - geometric_mean(a_inv, b_inv, lam)))
            worst = max(worst, frobenius(mean - a @ nonhermitian_power(a_inv @ b, lam)))
            worst = max(worst, frobenius(mean - nonhermitian_power(a @ b_inv, 1.0 - lam) @ b))
    _criterion(8, worst <= 1e-9, "weighted geometric mean satisfies all three identities",
               f"max residual {worst:.2e}")


def test_criterion_09_integral_representations():
    worst = 0.0
    for trial in range(20):
        m = random_density(3, stream(1009, trial)).matrix * 3.0
        for alpha in (0.25, -0.25, 0.75, -0.75):
            worst = max(worst, integral_representation_check(m, alpha))
    _criterion(9, worst <= 1e-6, "quadrature power matches spectral power",
               f"max |diff| {worst:.2e}")


def test_criterion_10_alpha_family_recovery():
    ch = partial_trace_channel(2, 2)
    worst_half, worst_trace, worst_rec = 0.0, 0.0, 0.0
    minima = {0.2: np.inf, 0.8: np.inf}
    for trial in range(20):
        rng = stream(1010, trial)
        sigma_ab = random_density(4, rng)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = g @ dagger(g)
        via_family = alpha_recover(sigma_ab, ch, 0.5, x)
        worst_half = max(worst_half, frobenius(via_family - petz_recover(sigma_ab, ch, x)))
        for alpha in (0.2, 0.5, 0.8):
            out = alpha_recover(sigma_ab, ch, alpha, x)
            worst_trace = max(worst_trace, abs(np.trace(out) - np.trace(x)))
            if alpha != 0.5:
                minima[alpha] = min(
                    minima[alpha], float(np.linalg.eigvalsh(0.5 * (out + dagger(out))).min())
                )
    for trial in range(5):
        rho_ab, sigma_ab = build_recoverable_triple("product", (2, 2), stream(1010, 100, trial))
        rho_a = partial_trace(rho_ab.matrix, (2, 2), "B")
        for alpha in (0.2, 0.5, 0.8):
            out = alpha_recover(sigma_ab, ch, alpha, rho_a)
            worst_rec = max(worst_rec, frobenius(out - rho_ab.matrix))
    print(f"[criterion 10] reported positivity minima off alpha=1/2: "
          f"alpha=0.2 -> {minima[0.2]:.3e}, alpha=0.8 -> {minima[0.8]:.3e}")
    ok = worst_half <= 1e-10 and worst_trace <= 1e-11 and worst_rec <= 1e-8
    _criterion(10, ok, "power-family recovery map behaves per its contract",
               f"half-vs-petz {worst_half:.2e}, trace {worst_trace:.2e}, recovery {worst_rec:.2e}")


def test_criterion_11_stinespring_equivalence():
    worst = 0.0
    for trial in range(20):
        rho = random_density(3, stream(1011, trial, 0))
        sigma = random_density(3, stream(1011, trial, 1))
        ch = random_channel(3, 2, rng_seed=stream(1011, trial, 2))
        alpha = ALPHA_GRID[trial % len(ALPHA_GRID)]
        for beta in (complex(-alpha), 0.5 + 1j):
            direct = t3_residual(rho, sigma, ch, alpha, beta)
            dilated = t3_residual(rho, sigma, stinespring_dilate(ch), alpha, beta)
            worst = max(worst, abs(direct - dilated))
    _criterion(11, worst <= 1e-9, "direct and dilated channel routes agree",
               f"max |diff| {worst:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    from renyidpi.cli import ExperimentConfig, emit, run

    payloads = []
    for name in ("first.csv", "second.csv"):
        rows, _ = run(ExperimentConfig(scenario="dpi-scan", seed=2026, trials=10))
        path = tmp_path / name
        emit(rows, "csv", str(path))
        payloads.append(path.read_bytes())
    _criterion(12, payloads[0] == payloads[1], "fixed seed gives byte-identical CSV")
