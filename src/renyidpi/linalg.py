"""Dense complex linear algebra primitives.

The validated Renyi order, Hermitian spectral calculus, principal matrix
powers, row-major vectorization, partial traces, and Schatten norms.
Everything here is a pure function over numpy arrays; dimensions are
desk scale (a few qubits), so no attempt is made at sparsity or blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    InvalidOrder,
    NonHermitian,
    NonSquare,
    NotPositiveDefinite,
)

# Strict-positivity floor for matrix powers with negative or fractional
# exponents.
EPS_POS = 1e-10

# Hermiticity tolerance, relative to the Frobenius norm of the input.
HERM_RTOL = 1e-10


@dataclass(frozen=True)
class RenyiOrder:
    """Renyi parameter alpha in [-1,0) u (0,1).

    Derived quantities: p = 2/(1-alpha) is the weighted-norm order and
    n = 1/(1-alpha) the conventional Renyi order of the sandwiched
    divergence on commuting inputs.
    """

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (-1.0 <= a < 0.0 or 0.0 < a < 1.0):
            raise InvalidAlpha(f"alpha must lie in [-1,0) or (0,1), got {a}")
        object.__setattr__(self, "alpha", a)

    @property
    def p(self) -> float:
        return 2.0 / (1.0 - self.alpha)

    @property
    def n(self) -> float:
        return 1.0 / (1.0 - self.alpha)


def as_order(order) -> RenyiOrder:
    if isinstance(order, RenyiOrder):
        return order
    return RenyiOrder(float(order))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2."""
    return 0.5 * (a + dagger(a))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-data of a Hermitian matrix: real ascending eigenvalues and a
    unitary whose columns are the matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Return V f(lambda) V^dagger for a scalar function fn."""
        v = self.eigenvectors
        return (v * fn(self.eigenvalues)) @ dagger(v)

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)

    def power(self, z) -> np.ndarray:
        """Principal power V diag(lambda^z) V^dagger with lambda^z = exp(z ln lambda).

        Complex exponents are allowed; the result is re-Hermitized when z
        is real, and z = 0 gives the identity. A 1-D array of exponents
        gives the stack of those powers, shape (len(z), d, d), each slice
        equal to the scalar call.
        """
        if isinstance(z, np.ndarray) and z.ndim:
            return self._power_stack(z)
        if complex(z) == 0.0:
            return np.eye(len(self.eigenvalues), dtype=complex)
        out = self.apply(lambda w: np.power(w.astype(complex), z))
        if complex(z).imag == 0.0:
            out = herm_part(out)
        return out

    def _power_stack(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if z.ndim != 1:
            raise ValueError(f"exponents must form a 1-D array, got shape {z.shape}")
        v = self.eigenvectors
        spectra = np.power(self.eigenvalues.astype(complex), z[:, None])
        out = (v * spectra[:, None, :]) @ dagger(v)
        real = z.imag == 0.0
        block = out[real]
        out[real] = 0.5 * (block + block.conj().swapaxes(-1, -2))
        out[z == 0.0] = np.eye(len(self.eigenvalues))
        return out


def hermitian_eig(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Raises NonSquare / NonHermitian when the input fails the shape or
    symmetry checks; the symmetry tolerance is HERM_RTOL relative to the
    Frobenius norm.
    """
    m = _as_square(m)
    scale = max(frobenius(m), 1.0)
    if frobenius(m - dagger(m)) > HERM_RTOL * scale:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def positive_eig(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a strictly positive Hermitian matrix.

    Raises NotPositiveDefinite when the smallest eigenvalue is below EPS_POS.
    """
    sd = hermitian_eig(m)
    if sd.eigenvalues.min() < EPS_POS:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {sd.eigenvalues.min():.3e} below floor {EPS_POS:.0e}"
        )
    return sd


def matrix_power_psd(m: np.ndarray, z) -> np.ndarray:
    """Principal power m^z of a strictly positive Hermitian matrix.

    See SpectralDecomposition.power for the exponent conventions; a 1-D
    array of exponents gives a stack of powers from one eigensolve.
    """
    return positive_eig(m).power(z)


def product_power(rho: np.ndarray, sigma: np.ndarray, alpha: float, z) -> np.ndarray:
    """Principal power (rho sigma^-alpha)^z for strictly positive rho, sigma.

    The product rho sigma^-alpha is not Hermitian, but it is similar to the
    positive matrix sigma^{-alpha/2} rho sigma^{-alpha/2}, so the power is
    evaluated as

        sigma^{alpha/2} (sigma^{-alpha/2} rho sigma^{-alpha/2})^z sigma^{-alpha/2}

    which avoids any non-normal eigenproblem. A 1-D array of exponents
    gives the stack of powers, with one eigensolve of the middle factor
    for all of them.
    """
    rho = _as_square(rho)
    sigma = _as_square(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    sd = positive_eig(sigma)
    s_half = sd.power(alpha / 2.0)
    s_mhalf = sd.power(-alpha / 2.0)
    mid = herm_part(s_mhalf @ rho @ s_mhalf)
    return s_half @ matrix_power_psd(mid, z) @ s_mhalf


def partial_trace(m: np.ndarray, dims: tuple[int, int], traced: str = "B") -> np.ndarray:
    """Partial trace over one factor of a bipartite operator.

    `dims` is (d_A, d_B) and `traced` names the subsystem that is traced
    out, "A" or "B".
    """
    m = _as_square(m)
    d_a, d_b = int(dims[0]), int(dims[1])
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix side {m.shape[0]} does not factor as {d_a} x {d_b}"
        )
    t = m.reshape(d_a, d_b, d_a, d_b)
    if traced == "B":
        return np.einsum("ijkj->ik", t)
    if traced == "A":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"traced must be 'A' or 'B', got {traced!r}")


def vectorize(a: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt vector |a> of a square matrix.

    Convention: |a> = (a otimes I) |I> with |I> = sum_j |j>|j> in the
    computational basis, i.e. row-major flattening. Under this map
    <a|b> = Tr[a^dagger b].
    """
    a = _as_square(a)
    return a.reshape(-1).copy()


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise NonSquare(f"length {len(v)} is not a perfect square")
    return v.reshape(d, d).copy()


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm, (sum_i s_i^p)^(1/p) over singular values."""
    if p < 1.0:
        raise InvalidOrder(f"Schatten order must satisfy p >= 1, got {p}")
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    return float(np.sum(s**p) ** (1.0 / p))


def trace_norm(m: np.ndarray) -> float:
    return schatten_norm(m, 1.0)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2) ||a - b||_1."""
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a matrix as {"rows", "cols", "re", "im"} with nested row-major lists."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise NonSquare(f"expected a 2-d array, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix exchange format produced by matrix_to_json."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionMismatch(
            f"payload shape {re.shape}/{im.shape} does not match header {(rows, cols)}"
        )
    m = re + 1j * im
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix payload has non-finite entries")
    return m
