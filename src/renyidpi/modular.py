"""Relative modular super-operators and the partial-trace compression.

Super-operators on a d-dimensional system are materialized as d^2 x d^2
matrices acting on row-major vectorized operators. Spectral functions of
the modular operator are always evaluated through its Kronecker structure
sigma^z (x) transpose(omega^-z), never by diagonalizing the big matrix;
this keeps tiny eigenvalue ratios accurate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateWeight, DimensionMismatch, NotPositiveDefinite, SingularResolvent
from .linalg import (EPS_POS, SpectralDecomposition, dagger, frobenius, herm_part,
                     hermitian_eig, lift_b, order_array, positive_eig, vectorize)
from .quantum import DensityMatrix

# Eigenvalues of a compressed operator below this cutoff are treated as
# exact zeros of the range-of-P calculus and excluded from fractional
# powers.
POWER_CUT = 1e-12

RESOLVENT_T_MIN = 1e-8

# Default log grid standing in for "all t >= 0" in resolvent checks.
DEFAULT_T_GRID = tuple(np.logspace(-2.0, 2.0, 9))


class RelativeModularOperator:
    """Super-operator x -> sigma x omega^-1 for a strictly positive pair.

    Powers act as sigma^z x omega^-z. The pair's cached spectra drive all
    function evaluations.
    """

    def __init__(self, sigma: DensityMatrix, omega: DensityMatrix):
        if sigma.dim != omega.dim:
            raise DimensionMismatch(
                f"sigma dim {sigma.dim} differs from omega dim {omega.dim}"
            )
        self.sigma = sigma
        self.omega = omega
        self.dim = sigma.dim

    def apply_power(self, z: complex, a: np.ndarray) -> np.ndarray:
        """sigma^z a omega^-z; a stack of operands maps slice by slice."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"operand shape {a.shape} does not match dim {self.dim}"
            )
        return self.sigma.power(z) @ a @ self.omega.power(-z)

    def matrix_power(self, z: complex = 1.0) -> np.ndarray:
        """Super-operator matrix of the z-th power, kron(sigma^z, (omega^-z)^T)."""
        return np.kron(self.sigma.power(z), self.omega.power(-z).T)

    def function_matrix(self, fn) -> np.ndarray:
        """Super-operator matrix of fn applied to the modular spectrum.

        The eigenvalues are the ratios lambda_i(sigma)/mu_j(omega) with
        eigenvectors kron(w_i, conj(v_j)); fn is applied to the ratios
        directly, keeping full relative accuracy even when the ratios
        spread over many orders of magnitude.
        """
        lam = self.sigma.spectral.eigenvalues
        mu = self.omega.spectral.eigenvalues
        basis = np.kron(self.sigma.spectral.eigenvectors,
                        self.omega.spectral.eigenvectors.conj())
        ratios = np.outer(lam, 1.0 / mu).reshape(-1)
        return (basis * fn(ratios)) @ dagger(basis)

    def resolvent_matrix(self, t: float) -> np.ndarray:
        return self.function_matrix(lambda x: 1.0 / (x + t))


def _state_power(omega: np.ndarray, alpha: float) -> np.ndarray:
    # omega^alpha for a positive semidefinite omega. For alpha > 0 the
    # power is continuous there, so eigenvalues within -EPS_POS of 0 are
    # roundoff and clamp to 0; for alpha < 0 omega must pass the floor.
    if alpha < 0.0:
        return positive_eig(omega).power(alpha)
    sd = hermitian_eig(omega)
    low = float(sd.eigenvalues[0])
    if low < -EPS_POS:
        raise NotPositiveDefinite(f"omega has eigenvalue {low:.3e} below -{EPS_POS:.0e}")
    return SpectralDecomposition(np.maximum(sd.eigenvalues, 0.0), sd.eigenvectors).power(alpha)


def quadratic_form(rho: DensityMatrix, sigma: DensityMatrix, omega: np.ndarray,
                   alpha: float) -> float:
    """<rho^(1/2)| Delta_{sigma,omega}^-alpha |rho^(1/2)> for a Hermitian
    positive semidefinite matrix omega.

    Evaluates to Tr[rho^(1/2) sigma^-alpha rho^(1/2) omega^alpha], a
    positive real. For alpha > 0 omega may be singular; for alpha < 0 it
    must lie above the positivity floor, and NotPositiveDefinite is raised
    otherwise, as it is for an eigenvalue below -EPS_POS at any alpha.
    """
    alpha = float(order_array(alpha))
    if sigma.dim != rho.dim or np.shape(omega) != (rho.dim, rho.dim):
        raise DimensionMismatch("states live on different spaces")
    val = np.trace(rho.sqrt() @ sigma.power(-alpha) @ rho.sqrt() @ _state_power(omega, alpha))
    return float(val.real)


def quadratic_form_superop(rho: DensityMatrix, sigma: DensityMatrix,
                           omega: np.ndarray, alpha: float) -> float:
    """Same quadratic form through a brute-force eigendecomposition of the
    materialized super-operator matrix; cross-check route for tests. Delta
    needs omega^-1, so omega must pass DensityMatrix's floor."""
    alpha = float(order_array(alpha))
    dop = RelativeModularOperator(sigma, DensityMatrix(omega))
    big = herm_part(dop.matrix_power(1.0))
    w, v = np.linalg.eigh(big)
    vec = vectorize(rho.sqrt())
    coeff = dagger(v) @ vec
    return float(np.real(np.sum(np.abs(coeff) ** 2 * w**(-alpha))))


class CompressionIsometry:
    """The isometry U(a) = (a rho_A^{-1/2} otimes I_B) rho_AB^{1/2}.

    Maps operators on A into operators on AB; U^dagger U = I and
    U |rho_A^(1/2)> = |rho_AB^(1/2)>. The projector P = U U^dagger is the
    compression used in all Jensen-equality diagnostics.
    """

    def __init__(self, rho_ab: DensityMatrix, d_a: int, d_b: int):
        if rho_ab.dim != d_a * d_b:
            raise DimensionMismatch(
                f"state dim {rho_ab.dim} does not factor as {d_a} x {d_b}"
            )
        self.d_a, self.d_b = int(d_a), int(d_b)
        self.rho_ab = rho_ab
        self.rho_a = rho_ab.reduced((d_a, d_b))
        # Column k d_A + l is the row-major vector of
        # (E_kl rho_A^{-1/2} otimes I_B) rho_AB^{1/2}, E_kl the unit matrix.
        units = np.eye(d_a * d_a, dtype=complex).reshape(-1, d_a, d_a)
        images = lift_b(units @ self.rho_a.power(-0.5), d_b) @ rho_ab.sqrt()
        self.matrix = np.ascontiguousarray(images.reshape(d_a * d_a, -1).T)
        self.matrix.setflags(write=False)

    @property
    def projector(self) -> np.ndarray:
        return self.matrix @ dagger(self.matrix)

    def isometry_residual(self) -> float:
        u = self.matrix
        return frobenius(dagger(u) @ u - np.eye(self.d_a**2))


def compression_identity_residual(ci: CompressionIsometry, sigma_ab: DensityMatrix,
                                  a: np.ndarray) -> float:
    """Residual of U* Delta_AB U = Delta_A with matched |a|^2 weights.

    Both modular operators are taken at their first power; the equality is
    an unconditional identity, so the residual is roundoff for any states
    and any invertible a. The weighted states are normalized by their
    common trace, and the single numerically inverted weight is shared by
    both sides so its conditioning cancels from the difference.
    """
    if sigma_ab.dim != ci.rho_ab.dim:
        raise DimensionMismatch("sigma_AB does not match the compression's space")
    a = np.asarray(a, dtype=complex)
    if a.shape != (ci.d_a, ci.d_a):
        raise DimensionMismatch(f"weight side {a.shape} does not match d_A {ci.d_a}")
    w = herm_part(dagger(a) @ a)
    sd = hermitian_eig(w)
    if sd.eigenvalues.min() < 1e-8 * max(sd.eigenvalues.max(), 1e-300):
        raise DegenerateWeight("weight operator |a|^2 is singular beyond the floor")
    w_inv = herm_part(sd.apply(lambda x: 1.0 / x))
    # Both weighted states share the trace Tr[w rho_A].
    scale = float(np.trace(w @ ci.rho_a.matrix).real)
    r_ab_mhalf = ci.rho_ab.power(-0.5)
    r_a_mhalf = ci.rho_a.power(-0.5)
    om_ab_inv = scale * (r_ab_mhalf @ lift_b(w_inv, ci.d_b) @ r_ab_mhalf)
    om_a_inv = scale * (r_a_mhalf @ w_inv @ r_a_mhalf)
    sigma_a = sigma_ab.reduced((ci.d_a, ci.d_b)).matrix
    big = np.kron(sigma_ab.matrix, om_ab_inv.T)
    small = np.kron(sigma_a, om_a_inv.T)
    u = ci.matrix
    return frobenius(dagger(u) @ big @ u - small)


def jensen_commutator_norm(ci: CompressionIsometry, dop: RelativeModularOperator) -> float:
    """Frobenius norm of the global commutator [P, Delta].

    Vanishes exactly when the compression range is an invariant subspace
    of the modular operator, which is the operator form of Jensen
    equality. This is strictly stronger than data-processing saturation:
    product-structured recoverable pairs satisfy it, but recoverable
    pairs without a common product structure (for instance a generic
    entangled state paired with itself) do not.

    Neither d^2 x d^2 matrix is formed. Delta is Hermitian, so [P, Delta]
    splits into the blocks (1-P) Delta P and its negative adjoint, and
    ||[P, Delta]||_F = sqrt(2) ||Delta U - U (U^dagger Delta U)||_F, where
    column k of Delta U is sigma K_k omega^-1 for the operator K_k whose
    row-major vector is column k of U. The projection is subtracted
    before the norm is taken: the equal-valued difference of squares
    2(||Delta U||^2 - ||U^dagger Delta U||^2) cancels catastrophically
    exactly where the commutator vanishes.
    """
    if dop.dim != ci.rho_ab.dim:
        raise DimensionMismatch("modular operator does not act on the AB space")
    u = ci.matrix
    d = dop.dim
    delta_u = dop.apply_power(1.0, u.T.reshape(-1, d, d)).reshape(-1, d * d).T
    return np.sqrt(2.0) * frobenius(delta_u - u @ (dagger(u) @ delta_u))


def compressed_power_residual(ci: CompressionIsometry, dop: RelativeModularOperator,
                              t: float) -> float:
    """|| P Delta^t P - (P Delta P)^t ||_F with the power taken on range(P)."""
    if t < 0.0:
        raise ValueError(f"power t must be nonnegative, got {t}")
    if dop.dim != ci.rho_ab.dim:
        raise DimensionMismatch("modular operator does not act on the AB space")
    p = ci.projector
    if t == 1.0:
        return 0.0

    def on_range(w: np.ndarray) -> np.ndarray:
        f = np.zeros_like(w)
        pos = w > POWER_CUT
        f[pos] = w[pos] ** t
        return f

    lhs = p @ dop.matrix_power(t) @ p
    rhs = hermitian_eig(herm_part(p @ dop.matrix_power(1.0) @ p)).apply(on_range)
    return frobenius(lhs - rhs)


class ResolventDefect(NamedTuple):
    defect: float
    min_eig: float


def resolvent_defect(ci: CompressionIsometry, dop_ab: RelativeModularOperator,
                     dop_a: RelativeModularOperator, t: float) -> ResolventDefect:
    """Defect of the resolvent comparison operator on the purification
    |rho_A^(1/2)> = vectorize(ci.rho_a.sqrt()).

    X_t = U* (Delta_AB + t)^-1 U - (Delta_A + t)^-1 is positive
    semidefinite by operator convexity; its action on |rho_A^(1/2)>
    vanishes exactly when the data-processing inequality saturates.
    Returns (|| X_t |rho_A^(1/2)> ||, min eigenvalue of X_t).
    """
    if t <= RESOLVENT_T_MIN:
        raise SingularResolvent(f"resolvent shift t={t} is below {RESOLVENT_T_MIN:.0e}")
    if dop_ab.dim != ci.rho_ab.dim or dop_a.dim != ci.d_a:
        raise DimensionMismatch("modular operators do not match the compression")
    u = ci.matrix
    x = dagger(u) @ dop_ab.resolvent_matrix(t) @ u - dop_a.resolvent_matrix(t)
    defect = float(np.linalg.norm(x @ vectorize(ci.rho_a.sqrt())))
    min_eig = float(np.linalg.eigvalsh(herm_part(x)).min())
    return ResolventDefect(defect=defect, min_eig=min_eig)
