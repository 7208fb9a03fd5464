"""Equality conditions for data-processing saturation and recovery maps.

Residual evaluators for the algebraic saturation conditions (the
geometric-mean form, the adjoint-channel form, the complex-power family,
and the simpler necessary conditions), the Petz recovery map and its
one-parameter power-family generalization, plus constructors for triples
that saturate the inequality by design.

Residuals are Frobenius norms divided by sqrt(dim) of the ambient space,
so tolerances are dimension stable.

Every order-dependent residual accepts one order or a 1-D array of
orders. An array of n orders runs each family once over the whole grid:
the powers are (n, ..., d, d) stacks from one batched eigensolve per
factor, and the result is an array over the orders (n, k for a beta
family) whose entries equal the scalar calls bit for bit; the scalar
call is the one-order case of the same code. SaturationContext.build
uses this to evaluate a triple's diagnostics over a scan's alpha grid
in one pass; a family failing there names the failing order by its
slice index in the grid. The geometric-mean, adjoint-channel and
complex-power forms raise their middle factors in linalg.congruence_power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    NotPositiveDefinite,
    RenyiDpiError,
    SingularOutputState,
)
from .linalg import (
    as_order,
    congruence_power,
    dagger,
    frobenius,
    herm_part,
    lift_b,
    order_array,
    positive_eig,
    product_power,
    trace_norm,
)
from .modular import (
    CompressionIsometry,
    RelativeModularOperator,
    jensen_commutator_norm,
)
from .quantum import (
    DensityMatrix,
    KrausChannel,
    ginibre,
    partial_trace_channel,
    random_unitary,
    stinespring_dilate,
    stream,
)
from .divergence import closed_form_optimizer, dpi_gap

SATURATION_TOL = 1e-8

# mutual_implication_ok counts a quantity at most IMPLICATION_GAP_TOL as
# vanished, and one above IMPLICATION_RESIDUAL_TOL as not.
IMPLICATION_GAP_TOL = 1e-9
IMPLICATION_RESIDUAL_TOL = 1e-7

# Spectra of constructed saturating triples are kept moderate (eigenvalue
# spread of a few) because the beta-grid conditions raise states to powers
# as large as 1/(alpha-1) ~ 10, which amplifies roundoff far beyond the
# saturation tolerance on wildly conditioned inputs.
TRIPLE_MIX = 1.0

RECOVERABLE_KINDS = ("product", "blocked", "conjugated-product")


def geometric_mean(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Weighted geometric mean a^(1/2) (a^(-1/2) b a^(-1/2))^lam a^(1/2).

    Defined for any real weight; both operands must be strictly positive.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    sd = positive_eig(a)
    a_half = sd.power(0.5)
    return herm_part(congruence_power(b, sd.power(-0.5), lam, a_half, a_half))


def default_beta_grid(alpha: float) -> tuple[complex, ...]:
    """Nine-point surrogate for 'all complex beta' in the power-family
    condition; includes every exponent the saturation analysis itself uses."""
    a = float(alpha)
    return (-1.0 + 0j, -0.5 + 0j, complex(-a), complex(a - 1.0), complex(1.0 - a),
            0.5 + 0j, 1.0 + 0j, 0.5j, 0.5 + 1j)


def _normalized(diff: np.ndarray):
    """Frobenius norm over sqrt(dim); per slice, as an array, for a stack."""
    return frobenius(diff) / np.sqrt(diff.shape[-1])


def _per_beta(out):
    # A beta family's residuals: the array, or a float for one beta.
    return out if np.ndim(out) else float(out)


def _order_betas(order, beta) -> tuple[np.ndarray, np.ndarray]:
    # Validated alphas, shape A = () or (n,), and the betas as an array of
    # shape (*A, *K): a 2-D beta array holds one row per order, anything
    # else is one grid shared by every order.
    alphas = order_array(order)
    betas = np.asarray(beta, dtype=complex)
    if alphas.ndim and betas.ndim < 2:
        betas = np.broadcast_to(betas, alphas.shape + betas.shape)
    return alphas, betas


def t1_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: KrausChannel, order):
    """Residual of the adjoint-channel saturation condition.

    sigma^(-a/2) (sigma^(-a/2) rho sigma^(-a/2))^(a/(1-a)) sigma^(-a/2)
    against the adjoint channel applied to the same expression in the
    output states; zero exactly at data-processing saturation. A 1-D
    array of orders gives the array of residuals.
    """
    a = order_array(order)
    power = a / (1.0 - a)

    def side(r: DensityMatrix, s: DensityMatrix) -> np.ndarray:
        s_m = s.power(-a / 2.0)
        return herm_part(congruence_power(r.matrix, s_m, power, s_m, s_m))

    lhs = side(rho, sigma)
    rhs = ch.adjoint_apply(side(ch.apply_density(rho), ch.apply_density(sigma)))
    return _normalized(lhs - rhs)


def t1_geo_residual(rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
                    dims: tuple[int, int], order):
    """Residual of the geometric-mean saturation condition for Tr_B.

    rho_A #_(1/(1-a)) sigma_A^a otimes I_B against the same mean on AB.
    The square roots of rho_A and rho_AB come from their cached eigen-data.
    A 1-D array of orders gives the array of residuals.
    """
    a = order_array(order)
    lam = 1.0 / (1.0 - a)

    def mean(r: DensityMatrix, s: DensityMatrix) -> np.ndarray:
        return herm_part(congruence_power(s.power(a), r.power(-0.5), lam, r.sqrt(), r.sqrt()))

    lhs = lift_b(mean(rho_ab.reduced(dims), sigma_ab.reduced(dims)), dims[1])
    return _normalized(lhs - mean(rho_ab, sigma_ab))


def _t3_family(rho: DensityMatrix, sigma: DensityMatrix, alphas: np.ndarray,
               betas: np.ndarray) -> np.ndarray:
    # Stack of sigma^beta (rho sigma^-a)^(beta/(a-1)) over the betas, shape
    # (*A, *K), from sigma's cached eigen-data; product_power diagonalizes
    # sigma^(-a/2) rho sigma^(-a/2) once per order, in one batched call.
    # The exponents are Python complex quotients: numpy's complex divide
    # multiplies by a reciprocal, which can move the last bit and with it
    # the argmax over roundoff-level residuals on saturating triples.
    den = np.broadcast_to((alphas - 1.0).reshape(alphas.shape + (1,) * (betas.ndim - alphas.ndim)),
                          betas.shape)
    z = np.array([b / d for b, d in zip(betas.ravel().tolist(), den.ravel().tolist())],
                 dtype=complex).reshape(betas.shape)
    return (sigma.spectral.power(betas)
            @ product_power(rho.matrix, sigma.spectral, alphas, z))


def t3_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: KrausChannel, order, beta):
    """Residual of the complex-power saturation family.

    sigma^beta (rho sigma^-a)^(beta/(a-1)) against the adjoint channel of
    the same expression in the output states; the full family over beta in
    C characterizes saturation, and beta = -alpha recovers the adjoint-
    channel condition of t1_residual. A 1-D array of betas gives the array
    of residuals; with a 1-D array of n orders, beta is either one grid
    for all of them or an (n, k) array with a row per order, and the
    result has shape (n, k). Each entry equals the scalar call.
    """
    alphas, betas = _order_betas(order, beta)
    lhs = _t3_family(rho, sigma, alphas, betas)
    out_r = ch.apply_density(rho)
    out_s = ch.apply_density(sigma)
    rhs = ch.adjoint_apply(_t3_family(out_r, out_s, alphas, betas))
    return _per_beta(_normalized(lhs - rhs))


def t3_residual_dilated(rho: DensityMatrix, sigma: DensityMatrix, ch: KrausChannel,
                        order, beta):
    """Same residual with the channel routed through its Stinespring dilation.

    The channel acts as Tr_env[V . V^dagger] and the adjoint as
    V^dagger (. otimes I_env) V, tracing the condition down to the
    partial-trace picture; the value agrees with the direct route to
    roundoff.
    """
    alphas, betas = _order_betas(order, beta)
    v = stinespring_dilate(ch)
    lhs = _t3_family(rho, sigma, alphas, betas)
    out_r = DensityMatrix(v.apply(rho.matrix))
    out_s = DensityMatrix(v.apply(sigma.matrix))
    rhs = v.adjoint_apply(_t3_family(out_r, out_s, alphas, betas))
    return _per_beta(_normalized(lhs - rhs))


def petz_beta_residual(rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
                       dims: tuple[int, int], beta):
    """Residual of sigma_AB^beta rho_AB^-beta = sigma_A^beta rho_A^-beta otimes I_B,
    the relative-entropy saturation family. An array of betas, of any
    shape (an (n, k) grid with a row per order, say), gives the array of
    residuals of that shape, each equal to the scalar call."""
    betas = np.asarray(beta, dtype=complex)
    rho_a = rho_ab.reduced(dims)
    sigma_a = sigma_ab.reduced(dims)
    lhs = sigma_ab.spectral.power(betas) @ rho_ab.spectral.power(-betas)
    rhs = lift_b(sigma_a.spectral.power(betas) @ rho_a.spectral.power(-betas), dims[1])
    return _per_beta(_normalized(lhs - rhs))


def petz_recover(sigma: DensityMatrix, ch: KrausChannel, y: np.ndarray) -> np.ndarray:
    """Petz recovery map sigma^(1/2) ch*(ch(sigma)^(-1/2) y ch(sigma)^(-1/2)) sigma^(1/2).

    Recovers sigma from ch(sigma) exactly, and recovers any rho from
    ch(rho) exactly when the data-processing inequality saturates.
    """
    try:
        pivot = ch.apply_density(sigma).power(-0.5)
    except NotPositiveDefinite as exc:
        raise SingularOutputState("channel output of sigma is below the positivity floor") from exc
    s_half = sigma.sqrt()
    return s_half @ ch.adjoint_apply(pivot @ np.asarray(y, dtype=complex) @ pivot) @ s_half


def alpha_recover(sigma_ab: DensityMatrix, dims: tuple[int, int], order,
                  x_a: np.ndarray) -> np.ndarray:
    """Power-family recovery map for Tr_B,

        sigma_AB^(1-a) (sigma_A^(a-1) x sigma_A^-a otimes I_B) sigma_AB^a.

    Trace preserving for every order; coincides with the Petz map at
    alpha = 1/2 but is not asserted to be positive elsewhere. A 1-D array
    of orders gives the stack of the maps' outputs.
    """
    a = order_array(order)
    sigma_a = sigma_ab.reduced(dims)
    x_a = np.asarray(x_a, dtype=complex)
    if x_a.shape != (dims[0], dims[0]):
        raise DimensionMismatch(f"input side {x_a.shape} does not match d_A {dims[0]}")
    inner = lift_b(sigma_a.power(a - 1.0) @ x_a @ sigma_a.power(-a), dims[1])
    return sigma_ab.power(1.0 - a) @ inner @ sigma_ab.power(a)


def necessary1_residual(rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
                        dims: tuple[int, int], order):
    """Perfect-recovery form of the power-family condition at beta = alpha - 1:
    the power-family map must send rho_A back to rho_AB. A 1-D array of
    orders gives the array of residuals."""
    rho_a = rho_ab.reduced(dims)
    recovered = alpha_recover(sigma_ab, dims, order, rho_a.matrix)
    return _normalized(recovered - rho_ab.matrix)


def necessary2_residual(rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
                        dims: tuple[int, int]) -> float:
    """Residual of sigma_A rho_A^-1 otimes I_B = sigma_AB rho_AB^-1, the
    beta = 1 - alpha corollary; necessary but possibly not sufficient."""
    rho_a = rho_ab.reduced(dims)
    sigma_a = sigma_ab.reduced(dims)
    lhs = lift_b(sigma_a.matrix @ rho_a.power(-1.0), dims[1])
    rhs = sigma_ab.matrix @ rho_ab.power(-1.0)
    return _normalized(lhs - rhs)


def recovery_error(rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
                   dims: tuple[int, int]) -> float:
    """Trace-norm error of Petz recovery from the reduced state,
    || R_{sigma,Tr_B}(rho_A) - rho_AB ||_1."""
    ch = partial_trace_channel(*dims)
    rho_a = rho_ab.reduced(dims)
    return trace_norm(petz_recover(sigma_ab, ch, rho_a.matrix) - rho_ab.matrix)


def weighted_modular_pair(rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
                          dims: tuple[int, int], order
                          ) -> tuple[RelativeModularOperator, RelativeModularOperator]:
    """Modular operators weighted by the optimizer a_*^2 on AB and on A.

    The A weight is rho_A^(1/2) a_*^2 rho_A^(1/2), which is exactly the
    closed-form optimizing state; the AB weight lifts a_*^2 otimes I_B
    through rho_AB^(1/2). Both weighted states have unit trace.
    """
    order = as_order(order)
    rho_a = rho_ab.reduced(dims)
    sigma_a = sigma_ab.reduced(dims)
    omega_a = closed_form_optimizer(rho_a, sigma_a, order).omega_star
    r_mhalf = rho_a.power(-0.5)
    a_star_sq = herm_part(r_mhalf @ omega_a.matrix @ r_mhalf)
    lifted = herm_part(
        rho_ab.sqrt() @ lift_b(a_star_sq, dims[1]) @ rho_ab.sqrt()
    )
    omega_ab = DensityMatrix(lifted / np.trace(lifted).real)
    return (RelativeModularOperator(sigma_ab, omega_ab),
            RelativeModularOperator(sigma_a, omega_a))


def _tempered_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Hermitized as a DensityMatrix stores it; the built pair is validated.
    g = ginibre(rng, dim, dim)
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    return herm_part((rho + TRIPLE_MIX * np.eye(dim) / dim) / (1.0 + TRIPLE_MIX))


def build_recoverable_triple(kind: str, dims: tuple[int, int], rng_seed
                             ) -> tuple[DensityMatrix, DensityMatrix]:
    """Construct (rho_AB, sigma_AB) that saturate data processing under Tr_B.

    Kinds:
      product             rho_A otimes tau and sigma_A otimes tau with a
                          shared environment state tau.
      blocked             block-diagonal marginals: two blocks embedded on
                          orthogonal subspaces of A with independent
                          (distinct) classical weights for rho and sigma,
                          all sharing one environment state. Distinct
                          per-block environments would still be
                          recoverable but break the Jensen commutation
                          [P, Delta] = 0, which is strictly stronger.
      conjugated-product  a product pair conjugated by U_A otimes I_B for
                          a Haar-random unitary on A.

    Every output is certified at construction: the Petz map rebuilds
    rho_AB from rho_A to within 1e-9.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 2 or d_b < 2:
        raise DimensionMismatch(f"dims must be at least 2, got {dims}")
    rng = stream(rng_seed)
    if kind in ("product", "conjugated-product"):
        tau = _tempered_density(d_b, rng)
        rho_ab = np.kron(_tempered_density(d_a, rng), tau)
        sigma_ab = np.kron(_tempered_density(d_a, rng), tau)
        if kind == "conjugated-product":
            u = lift_b(random_unitary(d_a, rng), d_b)
            rho_ab, sigma_ab = u @ rho_ab @ dagger(u), u @ sigma_ab @ dagger(u)
    elif kind == "blocked":
        sizes = (d_a - d_a // 2, d_a // 2)
        w = _block_weights(rng)
        v = _block_weights(rng)
        tau = _tempered_density(d_b, rng)
        rho_a = np.zeros((d_a, d_a), dtype=complex)
        sigma_a = np.zeros_like(rho_a)
        offset = 0
        for k, size in enumerate(sizes):
            sl = slice(offset, offset + size)
            rho_a[sl, sl] = w[k] * _tempered_density(size, rng)
            sigma_a[sl, sl] = v[k] * _tempered_density(size, rng)
            offset += size
        rho_ab = np.kron(rho_a, tau)
        sigma_ab = np.kron(sigma_a, tau)
    else:
        raise ValueError(f"kind must be one of {RECOVERABLE_KINDS}, got {kind!r}")
    pair = DensityMatrix(rho_ab), DensityMatrix(sigma_ab)
    cert = recovery_error(pair[0], pair[1], (d_a, d_b))
    if cert > 1e-9:
        raise RenyiDpiError(
            f"recoverable-triple certificate failed: recovery error {cert:.3e}"
        )
    return pair


def _block_weights(rng: np.random.Generator) -> tuple[float, float]:
    u = 0.5 + 0.3 * (rng.random() - 0.5)
    return (u, 1.0 - u)


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Named saturation residuals at one Renyi order.

    residuals holds one nonnegative scalar per condition; the beta-indexed
    families are aggregated as maxima over the grid, with the per-beta
    values kept alongside. The dpi_gap entry is clamped at zero since the
    inequality guarantees nonnegativity up to roundoff. The commutator
    entry is the Jensen commutator norm divided by the super-operator
    sqrt(dim), i.e. by d_A * d_B.
    """

    alpha: float
    beta_grid: tuple[complex, ...]
    residuals: dict[str, float]
    t3_by_beta: tuple[float, ...] = field(default_factory=tuple)
    petz_beta_by_beta: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name, value in self.residuals.items():
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"residual {name}={value!r} is not a nonnegative real")

    def max_residual(self) -> float:
        return max(self.residuals.values())

    def saturated(self, tol: float = SATURATION_TOL) -> bool:
        """Whether every saturation-equivalent condition sits below tol.

        The commutator entry is excluded from the judgment: it is
        strictly stronger than saturation and can be large on recoverable
        pairs without a common product structure.
        """
        return max(v for k, v in self.residuals.items() if k != "commutator") <= tol

    def to_json(self) -> dict:
        out = {
            "alpha": self.alpha,
            "beta_re": [b.real for b in self.beta_grid],
            "beta_im": [b.imag for b in self.beta_grid],
        }
        out.update({k: float(v) for k, v in self.residuals.items()})
        return out


@dataclass(frozen=True, eq=False)
class SaturationContext:
    """Every saturation diagnostic of one triple (rho_AB, sigma_AB, Tr_B)
    over a grid of orders, computed once by `build`.

    commutator is the Jensen commutator norm of the compression isometry
    divided by d_A * d_B, and recovery_error the Petz recovery error from
    the reduced state; these and necessary2 do not depend on the order.

    alphas is the order grid and betas its (n_alpha, n_beta) beta grid,
    one row per order. Each order-dependent family was evaluated once,
    stacked over the whole grid: t3 and petz_beta have shape
    (n_alpha, n_beta); t1, t1_geo, necessary1 and dpi_gap (unclamped)
    have shape (n_alpha,). Row i of every array belongs to alphas[i].
    """

    commutator: float
    recovery_error: float
    alphas: tuple[float, ...]
    betas: np.ndarray
    t3: np.ndarray
    petz_beta: np.ndarray
    t1: np.ndarray
    t1_geo: np.ndarray
    necessary1: np.ndarray
    necessary2: float
    dpi_gap: np.ndarray

    @classmethod
    def build(cls, rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
              dims: tuple[int, int], orders, beta_grid=None) -> "SaturationContext":
        """Diagnostics of the triple at each of `orders` (one order or a
        1-D sequence). beta_grid is one grid for every order; None takes
        default_beta_grid(alpha) for each order's row. Each family runs
        once over the whole grid, so an error is that of the first family
        that fails at any order; a stacked family's error names the first
        failing slice, and slice i is the order alphas[i]."""
        dims = (int(dims[0]), int(dims[1]))
        alphas = np.atleast_1d(order_array(orders))
        if beta_grid is None:
            betas = np.array([default_beta_grid(a) for a in alphas.tolist()], dtype=complex)
        else:
            grid = np.array([complex(b) for b in beta_grid], dtype=complex)
            betas = np.broadcast_to(grid, (len(alphas), len(grid)))
        ch = partial_trace_channel(*dims)
        ci = CompressionIsometry(rho_ab, *dims)
        commutator = jensen_commutator_norm(ci, RelativeModularOperator(sigma_ab, rho_ab))
        recovery = recovery_error(rho_ab, sigma_ab, dims)
        return cls(commutator=commutator / (dims[0] * dims[1]), recovery_error=recovery,
                   alphas=tuple(alphas.tolist()), betas=betas,
                   t3=t3_residual(rho_ab, sigma_ab, ch, alphas, betas),
                   petz_beta=petz_beta_residual(rho_ab, sigma_ab, dims, betas),
                   t1=t1_residual(rho_ab, sigma_ab, ch, alphas),
                   t1_geo=t1_geo_residual(rho_ab, sigma_ab, dims, alphas),
                   necessary1=necessary1_residual(rho_ab, sigma_ab, dims, alphas),
                   necessary2=necessary2_residual(rho_ab, sigma_ab, dims),
                   dpi_gap=dpi_gap(rho_ab, sigma_ab, ch, alphas))


def full_report(ctx: SaturationContext, order) -> ResidualReport:
    """All saturation diagnostics for a partial-trace triple at one order.

    Bundles the divergence gap with every equality-condition residual over
    the beta grid; on a saturating triple all entries sit at roundoff,
    and on a generic triple the gap and the residuals are jointly positive.
    The context evaluated everything over its order grid, so this only
    assembles the report of one of its orders; an order outside the grid
    raises InvalidAlpha.
    """
    alpha = as_order(order).alpha
    if alpha not in ctx.alphas:
        raise InvalidAlpha(f"alpha {alpha} is not on the context's order grid {ctx.alphas}")
    i = ctx.alphas.index(alpha)
    t3_vals = tuple(ctx.t3[i].tolist())
    pb_vals = tuple(ctx.petz_beta[i].tolist())
    residuals = {
        "t1": ctx.t1[i],
        "t1_geo": ctx.t1_geo[i],
        "t3": max(t3_vals),
        "petz_beta": max(pb_vals),
        "necessary1": ctx.necessary1[i],
        "necessary2": ctx.necessary2,
        "commutator": ctx.commutator,
        "dpi_gap": max(float(ctx.dpi_gap[i]), 0.0),
    }
    return ResidualReport(alpha=alpha, beta_grid=tuple(ctx.betas[i].tolist()),
                          residuals=residuals, t3_by_beta=t3_vals, petz_beta_by_beta=pb_vals)


def mutual_implication_ok(report: ResidualReport) -> bool:
    """Check that the gap and the power-family residuals vanish together.

    A vanishing gap must force every saturation-equivalent residual
    down, and a vanishing power family must force the gap down; either
    implication failing is a counterexample to the saturation
    equivalence. The commutator entry stays out of the check because it
    is strictly stronger than saturation.
    """
    gap = report.residuals["dpi_gap"]
    others = max(v for k, v in report.residuals.items()
                 if k not in ("dpi_gap", "commutator"))
    if gap <= IMPLICATION_GAP_TOL and others > IMPLICATION_RESIDUAL_TOL:
        return False
    if report.residuals["t3"] <= IMPLICATION_GAP_TOL and gap > IMPLICATION_RESIDUAL_TOL:
        return False
    return True
