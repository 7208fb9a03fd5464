"""Sandwiched and Petz Renyi divergences with their variational structure.

Closed forms run through Hermitian spectral calculus. The variational
route optimizes the modular quadratic form over states parameterized as
G G^dagger / Tr[G G^dagger] with a multi-restart coordinate pattern
search; the optimum is unique, so every restart lands on the same state.
Integral representations of the power function provide an independent
quadrature route to matrix powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    InvalidOrder,
    NonConvergence,
    QuadratureFailure,
)
from .linalg import (  # RenyiOrder is re-exported from here
    RenyiOrder,
    as_order,
    dagger,
    frobenius,
    herm_part,
    matrix_power_psd,
    vectorize,
)
from .modular import RelativeModularOperator, quadratic_form
from .quantum import DensityMatrix, KrausChannel, ginibre, stream

# Divergences of numerically identical states are returned as exact zeros
# to avoid log-of-(1 +- ulp) noise.
NEAR_EQUAL_TOL = 1e-12

# Working range for the variational search; closed forms accept the full
# [-1,0) u (0,1) interval.
ALPHA_VARIATIONAL_MIN = 1e-3


def _check_pair(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")


def _states_equal(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    return frobenius(rho.matrix - sigma.matrix) < NEAR_EQUAL_TOL


def sandwiched_renyi(rho: DensityMatrix, sigma: DensityMatrix, order) -> float:
    """Sandwiched Renyi divergence, in nats.

    ((1-alpha)/alpha) log Tr (rho^(1/2) sigma^-alpha rho^(1/2))^(1/(1-alpha)).
    On commuting inputs this is the classical Renyi divergence of order
    n = 1/(1-alpha).
    """
    order = as_order(order)
    _check_pair(rho, sigma)
    if _states_equal(rho, sigma):
        return 0.0
    a = order.alpha
    y = herm_part(rho.sqrt() @ sigma.power(-a) @ rho.sqrt())
    w = np.linalg.eigvalsh(y)
    return float((1.0 - a) / a * np.log(np.sum(w ** (1.0 / (1.0 - a)))))


def petz_renyi(rho: DensityMatrix, sigma: DensityMatrix, order) -> float:
    """Petz Renyi divergence (1/alpha) log Tr[rho^(1+alpha) sigma^-alpha].

    On commuting inputs this is the classical Renyi divergence of order
    1 + alpha.
    """
    order = as_order(order)
    _check_pair(rho, sigma)
    if _states_equal(rho, sigma):
        return 0.0
    a = order.alpha
    val = np.trace(rho.power(1.0 + a) @ sigma.power(-a)).real
    return float(np.log(val) / a)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy Tr[rho (log rho - log sigma)], in nats."""
    _check_pair(rho, sigma)
    if _states_equal(rho, sigma):
        return 0.0
    return float(np.trace(rho.matrix @ (rho.log() - sigma.log())).real)


def relative_entropy_modular(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Relative entropy through the modular route.

    Evaluates -<rho^(1/2)| log(Delta_{sigma,rho}) |rho^(1/2)> with the
    logarithm taken on the materialized super-operator matrix; serves as
    an independent cross-check of the direct formula.
    """
    _check_pair(rho, sigma)
    if _states_equal(rho, sigma):
        return 0.0
    dop = RelativeModularOperator(sigma, rho)
    vec = vectorize(rho.sqrt())
    return float(-np.real(np.vdot(vec, dop.log_matrix() @ vec)))


def araki_masuda_norm(rho: DensityMatrix, sigma: DensityMatrix, p: float) -> float:
    """Weighted p-norm || sigma^(1/p - 1/2) rho^(1/2) ||_p.

    The variational weighted norm collapses to this closed form; p = 2 is
    excluded because the two variational branches meet there.
    """
    p = float(p)
    if p < 1.0 or p == 2.0:
        raise InvalidOrder(f"order must lie in [1,2) or (2,inf), got {p}")
    _check_pair(rho, sigma)
    y = herm_part(rho.sqrt() @ sigma.power(2.0 / p - 1.0) @ rho.sqrt())
    w = np.linalg.eigvalsh(y)
    return float(np.sum(w ** (p / 2.0)) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Closed-form optimizer of the modular quadratic form.

    omega_star maximizes (alpha > 0) or minimizes (alpha < 0) the form;
    value is the attained optimum exp(alpha * divergence); normalizer is
    Tr Y^(p/2).
    """

    omega_star: DensityMatrix
    y: np.ndarray
    value: float
    normalizer: float


def closed_form_optimizer(rho: DensityMatrix, sigma: DensityMatrix, order) -> OptimizerResult:
    """Unique optimizer omega_* = Y^(p/2) / Tr Y^(p/2) with
    Y = rho^(1/2) sigma^-alpha rho^(1/2)."""
    order = as_order(order)
    _check_pair(rho, sigma)
    a = order.alpha
    y = herm_part(rho.sqrt() @ sigma.power(-a) @ rho.sqrt())
    y_pow = herm_part(matrix_power_psd(y, order.p / 2.0))
    normalizer = float(np.trace(y_pow).real)
    omega_star = DensityMatrix(y_pow / normalizer)
    value = quadratic_form(rho, sigma, omega_star, a)
    return OptimizerResult(omega_star=omega_star, y=y, value=value, normalizer=normalizer)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the coordinate pattern search over G."""

    restarts: int = 8
    initial_step: float = 0.25
    step_decay: float = 0.5
    min_step: float = 1e-7
    max_sweeps: int = 5000
    value_window: int = 50
    value_rtol: float = 1e-10
    seed: int = 0


def _search_objective(y: np.ndarray, alpha: float):
    # Score maximized by the search: sign(alpha) * Tr[Y omega^alpha].
    sign = 1.0 if alpha > 0 else -1.0

    def score(g: np.ndarray) -> float:
        w = g @ dagger(g)
        tr = np.trace(w).real
        if tr <= 0.0 or not np.isfinite(tr):
            return -np.inf
        evals, vecs = np.linalg.eigh(herm_part(w / tr))
        if evals.min() <= 0.0:
            return -np.inf
        diag = np.einsum("ij,jk,ki->i", dagger(vecs), y, vecs).real
        return sign * float(np.sum(diag * evals**alpha))

    return sign, score


def _pattern_search(score, g0: np.ndarray, cfg: OptimizerConfig) -> tuple[np.ndarray, float, bool]:
    d = g0.shape[0]
    x = np.concatenate([g0.real.reshape(-1), g0.imag.reshape(-1)])

    def to_g(vec):
        return vec[: d * d].reshape(d, d) + 1j * vec[d * d :].reshape(d, d)

    best = score(to_g(x))
    step = cfg.initial_step
    history = [best]
    converged = False
    for _ in range(cfg.max_sweeps):
        improved = False
        for i in range(len(x)):
            for s in (step, -step):
                x[i] += s
                trial = score(to_g(x))
                if trial > best:
                    best = trial
                    improved = True
                    break
                x[i] -= s
        if not improved:
            step *= cfg.step_decay
            if step < cfg.min_step:
                converged = True
                break
        history.append(best)
        if len(history) > cfg.value_window:
            old = history[-cfg.value_window - 1]
            if abs(best - old) < cfg.value_rtol * max(abs(best), 1.0):
                converged = True
                break
    return to_g(x), best, converged


def variational_value(rho: DensityMatrix, sigma: DensityMatrix, order,
                      cfg: OptimizerConfig | None = None) -> tuple[float, DensityMatrix]:
    """Optimize the modular quadratic form over omega numerically.

    Returns (attained value, optimizing state). The form is strictly
    concave (alpha > 0) or convex (alpha < 0) in omega, so the multi-
    restart search converges to the unique optimizer; a NonConvergence
    carrying the best value is raised if no restart settles.
    """
    order = as_order(order)
    _check_pair(rho, sigma)
    if abs(order.alpha) < ALPHA_VARIATIONAL_MIN:
        raise InvalidAlpha(
            f"variational search needs |alpha| >= {ALPHA_VARIATIONAL_MIN}, got {order.alpha}"
        )
    cfg = cfg or OptimizerConfig()
    a = order.alpha
    y = herm_part(rho.sqrt() @ sigma.power(-a) @ rho.sqrt())
    sign, score = _search_objective(y, a)
    rng = stream(cfg.seed)
    d = rho.dim
    best_g, best_score, any_converged = None, -np.inf, False
    for restart in range(max(cfg.restarts, 1)):
        g0 = np.eye(d, dtype=complex) if restart == 0 else ginibre(rng, d, d)
        g, val, converged = _pattern_search(score, g0, cfg)
        any_converged = any_converged or converged
        if val > best_score:
            best_score, best_g = val, g
    if best_g is None or not np.isfinite(best_score):
        raise NonConvergence("search produced no finite value", best_value=None)
    if not any_converged:
        raise NonConvergence(
            "no restart reached the step floor", best_value=sign * best_score
        )
    w = best_g @ dagger(best_g)
    omega_hat = DensityMatrix(w / np.trace(w).real)
    return sign * best_score, omega_hat


def dpi_gap(rho: DensityMatrix, sigma: DensityMatrix, ch: KrausChannel, order) -> float:
    """Data-processing gap D(rho||sigma) - D(ch rho||ch sigma), >= 0 up to roundoff."""
    order = as_order(order)
    _check_pair(rho, sigma)
    before = sandwiched_renyi(rho, sigma, order)
    after = sandwiched_renyi(ch.apply_density(rho), ch.apply_density(sigma), order)
    return before - after


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre node count per smooth piece of the power integral."""

    nodes: int = 200


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def integral_power_quadrature(m: np.ndarray, alpha: float,
                              cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Matrix power m^alpha via the resolvent integral representation.

    The half-line integral is split at t = 1 and each piece is mapped to
    (0,1) with a power-law substitution that absorbs the t^alpha endpoint
    singularity, leaving smooth integrands for Gauss-Legendre. Only
    resolvent solves appear, so the route is independent of the spectral
    power.
    """
    alpha = float(alpha)
    if not (-1.0 < alpha < 0.0 or 0.0 < alpha < 1.0):
        raise InvalidAlpha(f"integral representation needs alpha in (-1,0) or (0,1), got {alpha}")
    cfg = cfg or QuadratureConfig()
    m = herm_part(np.asarray(m, dtype=complex))
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    s, w = _gauss01(cfg.nodes)
    acc = np.zeros_like(m)
    if alpha > 0.0:
        # x^alpha = sin(pi a)/pi * int_0^inf t^(a-1) x (t+x)^-1 dt
        for si, wi in zip(s, w):
            t = si ** (1.0 / alpha)
            acc += (wi / alpha) * (m @ np.linalg.inv(t * eye + m))
        for si, wi in zip(s, w):
            v = si ** (1.0 / (1.0 - alpha))
            acc += (wi / (1.0 - alpha)) * (m @ np.linalg.inv(eye + v * m))
        acc *= np.sin(np.pi * alpha) / np.pi
    else:
        # x^alpha = -sin(pi a)/pi * int_0^inf t^a (t+x)^-1 dt
        for si, wi in zip(s, w):
            t = si ** (1.0 / (1.0 + alpha))
            acc += (wi / (1.0 + alpha)) * np.linalg.inv(t * eye + m)
        for si, wi in zip(s, w):
            v = si ** (-1.0 / alpha)
            acc += (wi / (-alpha)) * np.linalg.inv(eye + v * m)
        acc *= -np.sin(np.pi * alpha) / np.pi
    if not np.all(np.isfinite(acc)):
        raise QuadratureFailure("quadrature produced non-finite entries")
    return herm_part(acc)


def integral_representation_check(m: np.ndarray, alpha: float,
                                  cfg: QuadratureConfig | None = None) -> float:
    """Frobenius distance between the quadrature power and the spectral power."""
    quad = integral_power_quadrature(m, alpha, cfg)
    return frobenius(quad - matrix_power_psd(m, alpha))
