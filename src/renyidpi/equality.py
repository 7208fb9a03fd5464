"""Equality conditions for data-processing saturation and recovery maps.

Residual evaluators for the algebraic saturation conditions (the
geometric-mean form, the adjoint-channel form, the complex-power family,
and the simpler necessary conditions), the power-family recovery map,
whose alpha = 1/2 member is the Petz map, plus constructors for triples
that saturate the inequality by design.

Every condition and both recovery maps take (rho, sigma, ch, ...) and use
ch only through apply_density and adjoint_apply. Which families
characterize saturation for channels other than Tr_B is not established
here; the recoverable triples and SaturationContext (its compression
isometry and Jensen commutator exist only for Tr_B) still take dims.

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

Each two-sided condition says that one function f of the pair is carried
back by the adjoint channel, f(rho, sigma) = N*(f(N(rho), N(sigma))), and
its residual is _condition_residual of that f: the adjoint-channel,
geometric-mean, complex-power, petz_beta and necessary2 families differ
only in f. necessary1 and recovery_error compare a recovered state,
alpha_recover of N(rho), with rho instead. Run on a channel's Stinespring
dilation, where N is Tr_env[V . V^dagger] and N* is V^dagger (. otimes
I_env) V, any family is an independent route that agrees with the Kraus
one to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    NotPositiveDefinite,
    RenyiDpiError,
    SingularOutputState,
)
from .linalg import (
    congruence_power,
    dagger,
    failing_slice,
    frobenius,
    herm_part,
    lift_b,
    order_array,
    positive_eig,
    product_power,
    trace_norm,
    unit_axes,
)
from .modular import (
    CompressionIsometry,
    RelativeModularOperator,
    jensen_commutator_norm,
)
from .quantum import (
    DensityMatrix,
    KrausChannel,
    StinespringIsometry,
    ginibre,
    partial_trace_channel,
    random_isometry,
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

# Every family's channel: anything with apply_density and adjoint_apply.
Channel = KrausChannel | StinespringIsometry


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


def _condition_residual(f, rho, sigma, ch):
    """Residual of the saturation condition f(rho, sigma) = ch*(f(ch(rho), ch(sigma))).

    The input side is evaluated first, so a failing input-side power
    raises before any output-side eigensolve. A float for one matrix f,
    the array of per-slice residuals for a stack.
    """
    lhs = f(rho, sigma)
    out = _normalized(lhs - ch.adjoint_apply(f(ch.apply_density(rho), ch.apply_density(sigma))))
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


def t1_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, order):
    """Residual of the adjoint-channel saturation condition.

    sigma^(-a/2) (sigma^(-a/2) rho sigma^(-a/2))^(a/(1-a)) sigma^(-a/2)
    against the adjoint channel applied to the same expression in the
    output states; zero exactly at data-processing saturation. A 1-D
    array of orders gives the array of residuals, and stacks of T states
    give shape (T,) or (T, n).
    """
    a = order_array(order)
    power = a / (1.0 - a)

    def side(r: DensityMatrix, s: DensityMatrix) -> np.ndarray:
        s_m = s.power(-a / 2.0)
        return herm_part(congruence_power(unit_axes(r.matrix, a.ndim), s_m,
                                          r.per_slice(power), s_m, s_m))

    return _condition_residual(side, rho, sigma, ch)


def t1_geo_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, order):
    """Residual of the geometric-mean saturation condition.

    rho #_(1/(1-a)) sigma^a against the adjoint channel of the same mean
    of the output states. The square roots of rho and ch(rho) come from
    their cached eigen-data. A 1-D array of orders gives the array of
    residuals, and stacks of T states give shape (T,) or (T, n).
    """
    a = order_array(order)
    lam = 1.0 / (1.0 - a)

    def mean(r: DensityMatrix, s: DensityMatrix) -> np.ndarray:
        r_half = unit_axes(r.sqrt(), a.ndim)
        return herm_part(congruence_power(s.power(a), unit_axes(r.power(-0.5), a.ndim),
                                          r.per_slice(lam), r_half, r_half))

    return _condition_residual(mean, rho, sigma, ch)


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
    return (sigma.power(betas)
            @ product_power(rho.matrix, sigma.spectral, alphas, z))


def t3_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, order, beta):
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
    return _condition_residual(lambda r, s: _t3_family(r, s, alphas, betas), rho, sigma, ch)


def petz_beta_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, beta):
    """Residual of sigma^beta rho^-beta = ch*(ch(sigma)^beta ch(rho)^-beta),
    the relative-entropy saturation family. An array of betas, of any
    shape (an (n, k) grid with a row per order, say), gives the array of
    residuals of that shape, each equal to the scalar call."""
    betas = np.asarray(beta, dtype=complex)
    return _condition_residual(lambda r, s: s.power(betas) @ r.power(-betas),
                               rho, sigma, ch)


def alpha_recover(sigma: DensityMatrix, ch: Channel, order, x: np.ndarray) -> np.ndarray:
    """Power-family recovery map

        sigma^(1-a) ch*(ch(sigma)^(a-1) x ch(sigma)^-a) sigma^a.

    Trace preserving for every order; at alpha = 1/2 it is the Petz map,
    and it is not asserted to be positive elsewhere. A 1-D array of orders
    gives the stack of the maps' outputs. A stack of T states sigma maps a
    (T, d, d) stack x slice by slice, with outputs of shape (T, d, d) or
    (T, n, d, d). Raises SingularOutputState when ch(sigma) is below the
    positivity floor.
    """
    a = order_array(order)
    try:
        out = ch.apply_density(sigma)
    except NotPositiveDefinite as exc:
        raise SingularOutputState("channel output of sigma is below the positivity floor") from exc
    x = np.asarray(x, dtype=complex)
    if x.shape != out.batch + (out.dim, out.dim):
        raise DimensionMismatch(f"input side {x.shape} does not match the output dim {out.dim}")
    inner = ch.adjoint_apply(out.power(a - 1.0) @ unit_axes(x, a.ndim) @ out.power(-a))
    return sigma.power(1.0 - a) @ inner @ sigma.power(a)


def petz_recover(sigma: DensityMatrix, ch: Channel, y: np.ndarray) -> np.ndarray:
    """Petz recovery map sigma^(1/2) ch*(ch(sigma)^(-1/2) y ch(sigma)^(-1/2)) sigma^(1/2),
    the power-family map at alpha = 1/2.

    Recovers sigma from ch(sigma) exactly, and recovers any rho from
    ch(rho) exactly when the data-processing inequality saturates.
    """
    return alpha_recover(sigma, ch, 0.5, y)


def necessary1_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, order):
    """Perfect-recovery form of the power-family condition at beta = alpha - 1:
    the power-family map must send ch(rho) back to rho. A 1-D array of
    orders gives the array of residuals, and stacks of T states give shape
    (T,) or (T, n)."""
    a = order_array(order)
    recovered = alpha_recover(sigma, ch, a, ch.apply_density(rho).matrix)
    return _normalized(recovered - unit_axes(rho.matrix, a.ndim))


def necessary2_residual(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel) -> float:
    """Residual of sigma rho^-1 = ch*(ch(sigma) ch(rho)^-1), the
    beta = 1 - alpha corollary; necessary but possibly not sufficient."""
    return _condition_residual(lambda r, s: s.matrix @ r.power(-1.0), rho, sigma, ch)


def recovery_error(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel):
    """Trace-norm error of Petz recovery from the channel output,
    || R_{sigma,ch}(ch(rho)) - rho ||_1; for stacks of T states, the (T,)
    array of the slices' errors from one batched SVD."""
    return trace_norm(petz_recover(sigma, ch, ch.apply_density(rho).matrix) - rho.matrix)


def weighted_modular_pair(rho: DensityMatrix, sigma: DensityMatrix, ch: Channel, order
                          ) -> tuple[RelativeModularOperator, RelativeModularOperator]:
    """Modular operators weighted by the optimizer a_*^2 on the input and
    on the output of ch.

    The output weight is ch(rho)^(1/2) a_*^2 ch(rho)^(1/2), which is
    exactly the closed-form optimizing state of the output pair; the
    input weight lifts ch*(a_*^2) through rho^(1/2). Both weighted states
    have unit trace.
    """
    order = float(order_array(order))
    rho_out = ch.apply_density(rho)
    sigma_out = ch.apply_density(sigma)
    # The modular operator needs omega_out^-1: the floor checks it here.
    omega_out = DensityMatrix(closed_form_optimizer(rho_out, sigma_out, order).omega_star)
    r_mhalf = rho_out.power(-0.5)
    a_star_sq = herm_part(r_mhalf @ omega_out.matrix @ r_mhalf)
    lifted = herm_part(rho.sqrt() @ ch.adjoint_apply(a_star_sq) @ rho.sqrt())
    omega_in = DensityMatrix(lifted / np.trace(lifted).real)
    return (RelativeModularOperator(sigma, omega_in),
            RelativeModularOperator(sigma_out, omega_out))


def _tempered_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Hermitized as a DensityMatrix stores it; the built pair is validated.
    g = ginibre(rng, dim, dim)
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    return herm_part((rho + TRIPLE_MIX * np.eye(dim) / dim) / (1.0 + TRIPLE_MIX))


@dataclass(frozen=True, eq=False)
class RecoverablePair:
    """A pair built to saturate data processing under Tr_B, with its
    certificate: recovery_error is the Petz recovery error from the
    reduced state (the (T,) array of the slices' errors for a stack of
    pairs). Unpacks as (rho_ab, sigma_ab)."""

    rho_ab: DensityMatrix
    sigma_ab: DensityMatrix
    recovery_error: float | np.ndarray

    def __iter__(self):
        return iter((self.rho_ab, self.sigma_ab))


def build_recoverable_triple(kind, dims: tuple[int, int], rng_seed) -> RecoverablePair:
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

    A sequence of T kinds with a list of T generators (or seeds) builds a
    stack of T pairs: pair t has kind t and draws from generator t alone,
    so it equals the one-pair build from that generator.

    Every output is certified at construction: the Petz map rebuilds
    rho_AB from rho_A to within 1e-9, and that recovery error is kept on
    the returned pair for SaturationContext.build. A stack is certified in
    one pass, and a failing certificate names its slice.
    """
    d_a, d_b = int(dims[0]), int(dims[1])
    if d_a < 2 or d_b < 2:
        raise DimensionMismatch(f"dims must be at least 2, got {dims}")
    if isinstance(kind, str):
        rho, sigma = map(DensityMatrix, _recoverable_matrices(kind, d_a, d_b, stream(rng_seed)))
    else:
        pairs = [_recoverable_matrices(k, d_a, d_b, stream(r))
                 for k, r in zip(kind, rng_seed, strict=True)]
        rho, sigma = (DensityMatrix.stack(np.array(side)) for side in zip(*pairs))
    cert = recovery_error(rho, sigma, partial_trace_channel(d_a, d_b))
    failed = failing_slice(cert > 1e-9)
    if failed:
        raise RenyiDpiError(f"{failed[0]}recoverable-triple certificate failed: "
                            f"recovery error {np.asarray(cert)[failed[1]]:.3e}")
    return RecoverablePair(rho, sigma, cert)


def _recoverable_matrices(kind: str, d_a: int, d_b: int,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # The matrices (rho_AB, sigma_AB) of one recoverable pair of this kind.
    if kind in ("product", "conjugated-product"):
        tau = _tempered_density(d_b, rng)
        rho_ab = np.kron(_tempered_density(d_a, rng), tau)
        sigma_ab = np.kron(_tempered_density(d_a, rng), tau)
        if kind == "conjugated-product":
            u = lift_b(random_isometry(d_a, d_a, rng), d_b)
            rho_ab, sigma_ab = u @ rho_ab @ dagger(u), u @ sigma_ab @ dagger(u)
        return rho_ab, sigma_ab
    if kind == "blocked":
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
        return np.kron(rho_a, tau), np.kron(sigma_a, tau)
    raise ValueError(f"kind must be one of {RECOVERABLE_KINDS}, got {kind!r}")


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


@dataclass(frozen=True, eq=False)
class SaturationContext:
    """Every saturation diagnostic of one triple (rho_AB, sigma_AB, Tr_B)
    over a grid of orders, computed once by `build`, which passes the one
    memoized partial_trace_channel to every family.

    commutator is the Jensen commutator norm of the compression isometry
    divided by d_A * d_B, and recovery_error the Petz recovery error from
    the reduced state; these and necessary2 do not depend on the order.

    alphas is the order grid and betas its (n_alpha, n_beta) beta grid,
    one row per order. Each order-dependent family was evaluated once,
    stacked over the whole grid: t3 and petz_beta have shape
    (n_alpha, n_beta); t1, t1_geo, necessary1 and dpi_gap (unclamped)
    have shape (n_alpha,). Row i of every array belongs to alphas[i].

    Built from stacks of T triples, every diagnostic leads with the trial
    axis T (commutator, recovery_error and necessary2 have shape (T,)),
    and trial(t) is the context of triple t, equal to its one-triple
    build.
    """

    commutator: float | np.ndarray
    recovery_error: float | np.ndarray
    alphas: tuple[float, ...]
    betas: np.ndarray
    t3: np.ndarray
    petz_beta: np.ndarray
    t1: np.ndarray
    t1_geo: np.ndarray
    necessary1: np.ndarray
    necessary2: float | np.ndarray
    dpi_gap: np.ndarray

    @classmethod
    def build(cls, rho_ab: DensityMatrix, sigma_ab: DensityMatrix,
              dims: tuple[int, int], orders, beta_grid=None,
              recovery=None) -> "SaturationContext":
        """Diagnostics of the triple at each of `orders` (one order or a
        1-D sequence). beta_grid is one grid for every order; None takes
        default_beta_grid(alpha) for each order's row. recovery is the
        triple's recovery_error when the caller already has it (a
        RecoverablePair's certificate); None computes it. Each family runs
        once over the whole grid, so an error is that of the first family
        that fails at any order; a stacked family's error names the first
        failing slice, and slice i is the order alphas[i] (slice (t, i)
        for stacks of triples, whose recovery is a (T,) array)."""
        if rho_ab.batch != sigma_ab.batch:
            raise DimensionMismatch(f"state stacks of shapes {rho_ab.batch} and "
                                    f"{sigma_ab.batch} differ")
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
        if recovery is None:
            recovery = recovery_error(rho_ab, sigma_ab, ch)
        return cls(commutator=commutator / (dims[0] * dims[1]), recovery_error=recovery,
                   alphas=tuple(alphas.tolist()), betas=betas,
                   t3=t3_residual(rho_ab, sigma_ab, ch, alphas, betas),
                   petz_beta=petz_beta_residual(rho_ab, sigma_ab, ch, betas),
                   t1=t1_residual(rho_ab, sigma_ab, ch, alphas),
                   t1_geo=t1_geo_residual(rho_ab, sigma_ab, ch, alphas),
                   necessary1=necessary1_residual(rho_ab, sigma_ab, ch, alphas),
                   necessary2=necessary2_residual(rho_ab, sigma_ab, ch),
                   dpi_gap=dpi_gap(rho_ab, sigma_ab, ch, alphas))

    def trial(self, t: int) -> "SaturationContext":
        """The context of triple t of a stacked build."""
        return replace(self, **{name: getattr(self, name)[t] for name in _PER_TRIAL})


# The SaturationContext fields that lead with the trial axis of a stack.
_PER_TRIAL = ("commutator", "recovery_error", "t3", "petz_beta", "t1", "t1_geo",
              "necessary1", "necessary2", "dpi_gap")


def full_report(ctx: SaturationContext, order) -> ResidualReport:
    """All saturation diagnostics for a partial-trace triple at one order.

    Bundles the divergence gap with every equality-condition residual over
    the beta grid; on a saturating triple all entries sit at roundoff,
    and on a generic triple the gap and the residuals are jointly positive.
    The context evaluated everything over its order grid, so this only
    assembles the report of one of its orders; an order outside the grid
    raises InvalidAlpha.
    """
    alpha = float(order_array(order))
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
