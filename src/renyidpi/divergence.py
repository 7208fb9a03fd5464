"""Sandwiched and Petz Renyi divergences with their variational structure.

Closed forms run through Hermitian spectral calculus. They take a pair of
states or a pair of stacks of T states (DensityMatrix.stack), and one
order or a 1-D array of n orders: a stack gives values of shape (T,) or
(T, n), each equal to the one-state call bit for bit. The variational
route optimizes the modular quadratic form over states parameterized as
G G^dagger / Tr[G G^dagger] with a complete-poll compass search whose
restarts run in lockstep, every poll of every restart scored by one
batched eigensolve; the optimum is unique, so every restart lands on the
same state. An array of orders tiles the restarts once per order and
searches them all in the same lockstep.
Integral representations of the power function provide an independent
quadrature route to matrix powers: the trapezoid rule in v after the
double-exponential substitution t = e^u, u = (pi/2) sinh v, with step
0.07 and a range derived from alpha, all resolvents in one stacked solve
(Hale, Higham and Trefethen 2008; Tatsuoka, Sogabe, Miyatake, Zhang 2021).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidAlpha, NonConvergence, QuadratureFailure
from .linalg import dagger, frobenius, herm_part, matrix_power_psd, order_array, unit_axes
from .modular import quadratic_form
from .quantum import DensityMatrix, KrausChannel, ginibre, stream

# Divergences of numerically identical states are returned as exact zeros
# to avoid log-of-(1 +- ulp) noise.
NEAR_EQUAL_TOL = 1e-12

# Working range for the variational search; closed forms accept the full
# [-1,0) u (0,1) interval.
ALPHA_VARIATIONAL_MIN = 1e-3

# Compass search schedule (see _pattern_search): the starting poll radius,
# its decay after a poll without improvement, the radius floor, and the
# window and relative tolerance of the stalled-score test.
SEARCH_INITIAL_STEP = 0.25
SEARCH_STEP_DECAY = 0.5
SEARCH_MIN_STEP = 1e-7
SEARCH_VALUE_WINDOW = 50
SEARCH_VALUE_RTOL = 1e-10

# Double-exponential rule of integral_power_quadrature: the trapezoid step
# in v, and the range cut where the integrand has decayed by e^-QUAD_TAIL.
QUAD_STEP = 0.07
QUAD_TAIL = 45.0


def _check_pair(rho: DensityMatrix, sigma: DensityMatrix):
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")
    if rho.batch != sigma.batch:
        raise DimensionMismatch(f"state stacks of shapes {rho.batch} and {sigma.batch} differ")


def _unless_equal(rho: DensityMatrix, sigma: DensityMatrix, shape, evaluate):
    # evaluate(), with exact zeros for numerically identical states, which
    # avoids log-of-(1 +- ulp) noise; shape is that of one pair's value.
    # One pair skips evaluate for them, a stack zeroes their slices.
    equal = frobenius(rho.matrix - sigma.matrix) < NEAR_EQUAL_TOL
    if not rho.batch:
        if equal:
            return np.zeros(shape) if shape else 0.0
        return evaluate()
    value = evaluate()
    if equal.any():
        value = np.where(equal.reshape(equal.shape + (1,) * len(shape)), 0.0, value)
    return value


def _middle_factor(rho: DensityMatrix, sigma: DensityMatrix, a) -> np.ndarray:
    # Y = rho^(1/2) sigma^-a rho^(1/2), hermitized; shape (*B, *A, d, d)
    # for states of batch B and orders of shape A.
    r = unit_axes(rho.sqrt(), np.ndim(a))
    return herm_part(r @ sigma.power(-a) @ r)


def sandwiched_renyi(rho: DensityMatrix, sigma: DensityMatrix, order):
    """Sandwiched Renyi divergence, in nats.

    ((1-alpha)/alpha) log Tr (rho^(1/2) sigma^-alpha rho^(1/2))^(1/(1-alpha)).
    On commuting inputs this is the classical Renyi divergence of order
    n = 1/(1-alpha). A 1-D array of orders gives the array of divergences
    from one batched eigensolve, each equal to the scalar call.
    """
    a = order_array(order)
    _check_pair(rho, sigma)

    def evaluate():
        w = np.maximum(np.linalg.eigvalsh(_middle_factor(rho, sigma, a)), 0.0)
        return _per_order(_sandwiched_from_spectrum, w, a, core=1)

    return _unless_equal(rho, sigma, a.shape, evaluate)


def _per_order(close, values, a, core=0):
    # Apply close(values, alpha) to each order's part of values, of shape
    # (*B, *A, *C) with len(C) = core, one order at a time with alpha a
    # Python float: numpy evaluates a scalar exponent of 2 or 1/2 as a
    # square or a square root, which an array of exponents does not
    # reproduce bit for bit. close maps (*B, *C) to (*B,); the result has
    # shape (*B, *A), a Python float for one state and one order.
    if not a.ndim:
        out = close(values, float(a))
        return out if np.ndim(out) else float(out)
    by_order = np.moveaxis(values, values.ndim - core - 1, 0)
    return np.stack([close(v, alpha) for v, alpha in zip(by_order, a.tolist())], axis=-1)


def _sandwiched_from_spectrum(w: np.ndarray, a: float):
    # ((1-a)/a) log sum w^n, n = 1/(1-a), over the clamped eigenvalues w of
    # rho^(1/2) sigma^-a rho^(1/2), the last axis; scaled by the top
    # eigenvalue, since w ** n overflows as alpha -> 1.
    n = 1.0 / (1.0 - a)
    top = w[..., -1]
    return (1.0 - a) / a * (n * np.log(top) + np.log(np.sum((w / top[..., None]) ** n, axis=-1)))


def petz_renyi(rho: DensityMatrix, sigma: DensityMatrix, order):
    """Petz Renyi divergence (1/alpha) log Tr[rho^(1+alpha) sigma^-alpha].

    On commuting inputs this is the classical Renyi divergence of order
    1 + alpha. A 1-D array of orders gives the array of divergences, each
    equal to the scalar call.
    """
    a = order_array(order)
    _check_pair(rho, sigma)

    def evaluate():
        val = np.trace(rho.power(1.0 + a) @ sigma.power(-a), axis1=-2, axis2=-1).real
        return _per_order(lambda v, alpha: np.log(v) / alpha, val, a)

    return _unless_equal(rho, sigma, a.shape, evaluate)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix):
    """Quantum relative entropy Tr[rho (log rho - log sigma)], in nats; an
    array over the slices for a stack."""
    _check_pair(rho, sigma)

    def evaluate():
        val = np.trace(rho.matrix @ (rho.log() - sigma.log()), axis1=-2, axis2=-1).real
        return val if rho.batch else float(val)

    return _unless_equal(rho, sigma, (), evaluate)


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Closed-form optimizer of the modular quadratic form.

    omega_star maximizes (alpha > 0) or minimizes (alpha < 0) the form: a
    Hermitian unit-trace positive semidefinite matrix, a computed state
    that no positivity floor applies to; value is the attained optimum
    exp(alpha * divergence).
    """

    omega_star: np.ndarray
    value: float


def closed_form_optimizer(rho: DensityMatrix, sigma: DensityMatrix, order) -> OptimizerResult:
    """Unique optimizer omega_* = Y^n / Tr Y^n with n = 1/(1-alpha) and
    Y = rho^(1/2) sigma^-alpha rho^(1/2).

    omega_* is a genuine state whose smallest eigenvalue may lie far below
    the 1e-10 input floor (y_i^n shrinks fast at alpha = 0.9, n = 10), so
    it is returned as a plain matrix, not as a DensityMatrix.
    """
    a = float(order_array(order))
    _check_pair(rho, sigma)
    y_pow = herm_part(matrix_power_psd(_middle_factor(rho, sigma, a), 1.0 / (1.0 - a)))
    omega_star = y_pow / np.trace(y_pow).real
    return OptimizerResult(omega_star=omega_star, value=quadratic_form(rho, sigma, omega_star, a))


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the complete-poll compass search over G.

    restarts      number of starting points: the identity, then Ginibre
                  draws from stream(seed); they run in lockstep.
    max_sweeps    cap on poll iterations.
    seed          seed of the restart stream.
    """

    restarts: int = 8
    max_sweeps: int = 5000
    seed: int = 0


def _search_objective(y: np.ndarray, alphas: np.ndarray):
    # Score maximized by the search, sign(alpha) * Tr[Y omega^alpha] with
    # omega = G G^dagger / Tr, for a stack of G's of shape (N, d, d) whose
    # rows belong to the orders owner (N,), nondecreasing indices into
    # alphas and into the (n, d, d) stack y: one batched eigensolve for
    # the whole stack, whatever its mix of orders. A G whose omega is not
    # positive definite scores -inf; it is masked before the power, so no
    # floating-point warning is raised.
    signs = np.where(alphas > 0, 1.0, -1.0)
    alpha_list = alphas.tolist()
    eye = np.eye(y.shape[-1])

    def score(g: np.ndarray, owner: np.ndarray) -> np.ndarray:
        w = np.einsum("nij,nkj->nik", g, g.conj())
        tr = np.einsum("nii->n", w).real
        ok = (tr > 0.0) & np.isfinite(tr)
        w = np.where(ok[:, None, None], w / np.where(ok, tr, 1.0)[:, None, None], eye)
        evals, vecs = np.linalg.eigh(w)
        ok &= evals[:, 0] > 0.0
        evals = np.where(ok[:, None], evals, 1.0)
        diag = np.einsum("nji,njk,nki->ni", vecs.conj(), y[owner], vecs).real
        # Each order's block of rows takes its power with a Python float
        # exponent, so that every score equals that of a one-order stack
        # bit for bit (see _per_order).
        bounds = np.searchsorted(owner, np.arange(len(alpha_list) + 1)).tolist()
        for alpha, lo, hi in zip(alpha_list, bounds, bounds[1:]):
            evals[lo:hi] **= alpha
        return np.where(ok, signs[owner] * np.sum(diag * evals, axis=1), -np.inf)

    return signs, score


def _pattern_search(score, g0: np.ndarray, owner: np.ndarray, cfg: OptimizerConfig
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Complete-poll compass search from each start in the stack g0, shape
    # (R, d, d), over the real and imaginary parts of the entries of G;
    # owner (R,), nondecreasing, is the order each start is scored at, and
    # the unconverged rows keep that order in every poll. Each poll scores
    # every +-step move of every unconverged restart in one call; a
    # restart takes its best strictly improving move, the first one on
    # ties, or else shrinks its step. Steps, moves and convergence are per
    # restart, so each restart follows the trajectory it has when
    # searched alone. Returns the final G's, their scores and the
    # converged flags.
    r, d = g0.shape[0], g0.shape[1]
    units = np.eye(d * d).reshape(d * d, d, d)
    units = np.concatenate([units, 1j * units])
    moves = np.stack([units, -units], axis=1).reshape(-1, d, d)
    g = g0.astype(complex)
    best = score(g, owner)
    step = np.full(r, SEARCH_INITIAL_STEP)
    converged = np.zeros(r, dtype=bool)
    history = [best.copy()]
    for _ in range(cfg.max_sweeps):
        idx = np.flatnonzero(~converged)
        if idx.size == 0:
            break
        trial = g[idx, None] + step[idx, None, None, None] * moves
        vals = score(trial.reshape(-1, d, d), np.repeat(owner[idx], len(moves)))
        vals = vals.reshape(idx.size, len(moves))
        pick = np.argmax(vals, axis=1)
        top = vals[np.arange(idx.size), pick]
        up = top > best[idx]
        g[idx[up]] = trial[up, pick[up]]
        best[idx[up]] = top[up]
        stuck = idx[~up]
        step[stuck] *= SEARCH_STEP_DECAY
        converged[stuck[step[stuck] < SEARCH_MIN_STEP]] = True
        history.append(best.copy())
        if len(history) > SEARCH_VALUE_WINDOW:
            old = history[-SEARCH_VALUE_WINDOW - 1]
            converged |= np.abs(best - old) < SEARCH_VALUE_RTOL * np.maximum(np.abs(best), 1.0)
    return g, best, converged


def check_variational_orders(alphas: np.ndarray) -> None:
    """Raise InvalidAlpha for the first of the validated alphas (a 1-D
    array) below the search's working range |alpha| >= ALPHA_VARIATIONAL_MIN."""
    tiny = np.abs(alphas) < ALPHA_VARIATIONAL_MIN
    if tiny.any():
        raise InvalidAlpha(
            f"variational search needs |alpha| >= {ALPHA_VARIATIONAL_MIN}, "
            f"got {float(alphas[tiny][0])}"
        )


def variational_value(rho: DensityMatrix, sigma: DensityMatrix, order,
                      cfg: OptimizerConfig | None = None):
    """Optimize the modular quadratic form over omega numerically.

    Returns (attained value, optimizing state). The state is G G^dagger
    / Tr of the best restart, a unit-trace positive semidefinite matrix
    with no positivity floor. The form is strictly concave (alpha > 0) or
    convex (alpha < 0) in omega, so the multi-restart search converges to
    the unique optimizer; a NonConvergence carrying the best value is
    raised if no restart settles.

    A 1-D array of n orders runs the restarts of every order in one
    lockstep search and returns (values (n,), omegas (n, d, d)); each
    value and omega equals the scalar call bit for bit. InvalidAlpha and
    NonConvergence name the first order that raises them.
    """
    a = order_array(order)
    _check_pair(rho, sigma)
    alphas = np.atleast_1d(a)
    check_variational_orders(alphas)
    cfg = cfg or OptimizerConfig()
    d = rho.dim
    y = _middle_factor(rho, sigma, a).reshape(-1, d, d)
    signs, score = _search_objective(y, alphas)
    rng = stream(cfg.seed)
    starts = [np.eye(d, dtype=complex)]
    starts += [ginibre(rng, d, d) for _ in range(max(cfg.restarts, 1) - 1)]
    n, r = alphas.size, len(starts)
    g, scores, converged = _pattern_search(score, np.tile(np.stack(starts), (n, 1, 1)),
                                           np.repeat(np.arange(n), r), cfg)
    g, scores, converged = (x.reshape((n, r) + x.shape[1:]) for x in (g, scores, converged))
    k = np.argmax(scores, axis=1)
    best = scores[np.arange(n), k]
    omegas = np.empty((n, d, d), dtype=complex)
    for j, x in enumerate(g[np.arange(n), k]):
        if not np.isfinite(best[j]):
            raise NonConvergence("search produced no finite value", best_value=None)
        if not converged[j].any():
            raise NonConvergence(
                "no restart reached the step floor", best_value=float(signs[j] * best[j])
            )
        w = x @ dagger(x)
        omegas[j] = w / np.trace(w).real
    if not a.ndim:
        return float(signs[0] * best[0]), omegas[0]
    return signs * best, omegas


def dpi_gap(rho: DensityMatrix, sigma: DensityMatrix, ch: KrausChannel, order):
    """Data-processing gap D(rho||sigma) - D(ch rho||ch sigma), >= 0 up to
    roundoff; an array of gaps for a 1-D array of orders. Stacks of T
    states, under one channel or a KrausChannel.stack of T, give the gaps
    of each slice, shape (T,) or (T, n)."""
    before = sandwiched_renyi(rho, sigma, order)
    after = sandwiched_renyi(ch.apply_density(rho), ch.apply_density(sigma), order)
    return before - after


def check_quadrature_order(alpha) -> float:
    """alpha as a float if it lies in the open domain (-1,0) u (0,1) of the
    integral representation; InvalidAlpha otherwise."""
    alpha = float(alpha)
    if not (-1.0 < alpha < 0.0 or 0.0 < alpha < 1.0):
        raise InvalidAlpha(f"integral representation needs alpha in (-1,0) or (0,1), got {alpha}")
    return alpha


def integral_power_quadrature(m: np.ndarray, alpha: float) -> np.ndarray:
    """Matrix power m^alpha via the resolvent integral representation.

    With t = e^u in the Stieltjes representations, b = alpha for alpha > 0
    and b = alpha + 1 for alpha < 0,
        m^alpha = sin(pi b)/pi * int e^(b u) (e^u I + m)^-1 r du,
    where r = m for alpha > 0 and r = I for alpha < 0. The double-
    exponential substitution u = (pi/2) sinh v is applied and the
    trapezoid rule with step QUAD_STEP runs over |v| <= asinh(QUAD_TAIL /
    (c pi/2)), c = min(b, 1-b) being the decay rate of the integrand in u:
    137 nodes at alpha = +-0.5, 315 at +-0.999. Every node is solved in
    one stacked np.linalg.solve of e^-max(u,0) (e^u I + m) X = r, whose
    entries stay bounded; the scale factor goes into log-domain weights,
    so nothing overflows. m must be positive definite: a Cholesky
    factorization of its Hermitian part checks that up front and raises
    QuadratureFailure otherwise. Only resolvent solves and that
    factorization appear, so the route is independent of the spectral
    power. Relative error is ~1e-14 for
    condition numbers up to 1e2, ~2e-10 at 1e5 and ~5e-6 at 1e9.
    References: Hale, Higham and Trefethen, SIAM J. Numer. Anal. 2008;
    Tatsuoka, Sogabe, Miyatake and Zhang, ETNA 2021.
    """
    alpha = check_quadrature_order(alpha)
    m = herm_part(np.asarray(m, dtype=complex))
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise QuadratureFailure(f"matrix is not positive definite: {exc}") from exc
    eye = np.eye(m.shape[0])
    b = alpha if alpha > 0.0 else alpha + 1.0
    k = np.ceil(np.arcsinh(QUAD_TAIL / (0.5 * np.pi * min(b, 1.0 - b))) / QUAD_STEP)
    v = QUAD_STEP * np.arange(-k, k + 1)
    u = 0.5 * np.pi * np.sinh(v)
    up = np.maximum(u, 0.0)
    resolvent = np.exp(u - up)[:, None, None] * eye + np.exp(-up)[:, None, None] * m
    rhs = np.broadcast_to(m if alpha > 0.0 else eye, resolvent.shape)
    log_w = np.log(0.5 * QUAD_STEP * np.sin(np.pi * b) * np.cosh(v)) + b * u - up
    try:
        x = np.linalg.solve(resolvent, rhs)
    except np.linalg.LinAlgError as exc:
        raise QuadratureFailure(f"singular resolvent: {exc}") from exc
    acc = np.einsum("n,nij->ij", np.exp(log_w), x)
    if not np.all(np.isfinite(acc)):
        raise QuadratureFailure("quadrature produced non-finite entries")
    return herm_part(acc)


def integral_representation_check(m: np.ndarray, alpha):
    """Frobenius distance between the quadrature power and the spectral power;
    for a 1-D array of orders, the array of distances, each equal to the scalar
    call. The quadrature runs order by order, then one eigensolve of m gives
    every spectral power."""
    alphas = np.asarray(alpha, dtype=float)
    quad = np.array([integral_power_quadrature(m, a) for a in alphas.ravel().tolist()])
    return frobenius(quad.reshape(alphas.shape + quad.shape[-2:]) - matrix_power_psd(m, alphas))
