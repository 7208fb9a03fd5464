"""Dense complex linear algebra primitives.

The validated Renyi order, Hermitian spectral calculus, principal matrix
powers, row-major vectorization, partial traces, and Schatten norms.
Everything here is a pure function over numpy arrays; dimensions are
desk scale (a few qubits), so no attempt is made at sparsity or blocking.

The spectral calculus also runs on stacks: a (*B, d, d) array of
Hermitian matrices is decomposed in one batched eigensolve, checked
slice by slice, and its powers broadcast an exponent array of shape
(*B, *K) to (*B, *K, d, d). Each slice equals the call on that slice
alone, bit for bit, because every batched kernel (eigh, matmul, the
dot products of the norm) runs the same LAPACK/BLAS call per slice.
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


def order_array(order):
    """Validated alphas of one order (a numpy float, shape ()) or of a 1-D
    sequence of orders (a float array, shape (n,)); each entry passes
    as_order."""
    if isinstance(order, (float, int, np.number, RenyiOrder)) or np.ndim(order) == 0:
        return np.float64(as_order(order).alpha)
    if np.ndim(order) > 1:
        raise InvalidAlpha(f"orders must form a 1-D array, got shape {np.shape(order)}")
    return np.array([as_order(a).alpha for a in order], dtype=float)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each slice for a stack of shape (..., n, m)."""
    return a.conj().swapaxes(-1, -2)


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2, slice by slice for a stack."""
    return 0.5 * (a + dagger(a))


def frobenius(a: np.ndarray):
    """Frobenius norm; per slice, as an array, for a stack (..., n, m).

    A stack's norms come from the same BLAS dot products of the real and
    imaginary parts that np.linalg.norm uses on one matrix, so each entry
    equals the norm of its slice bit for bit. One matrix or vector goes
    to np.linalg.norm itself: the stack route costs ~4 us more per call
    (7-8 us against 4 us at d = 2 to 16), and the one-matrix checks (every
    DensityMatrix construction, Hermiticity check and Kraus validation)
    make such a call each.
    """
    if getattr(a, "ndim", 0) <= 2:
        return float(np.linalg.norm(a))
    flat = a.reshape(-1, 1, a.shape[-2] * a.shape[-1])
    sq = np.matmul(flat.real, flat.real.swapaxes(-1, -2))
    if np.iscomplexobj(a):
        sq = sq + np.matmul(flat.imag, flat.imag.swapaxes(-1, -2))
    return np.sqrt(sq).reshape(a.shape[:-2])


def _failing_slice(bad):
    # For a check's outcome, a bool for one matrix or a bool array over a
    # stack: None when nothing failed, else the message prefix naming the
    # first failing slice (empty for one matrix, so its messages read as
    # before) and that slice's index.
    if not isinstance(bad, np.ndarray):
        return ("", ()) if bad else None
    if not bad.any():
        return None
    idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return f"slice {idx[0] if len(idx) == 1 else idx}: ", idx


def _as_stack(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _as_square(m: np.ndarray) -> np.ndarray:
    m = _as_stack(m)
    if m.ndim != 2:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def lift_b(x: np.ndarray, d_b: int) -> np.ndarray:
    """x otimes I_B for x of shape (..., d_A, d_A), slice by slice.

    Formed by broadcasting against the identity and one reshape, so a
    stack needs no per-slice np.kron; the entries equal np.kron's.
    """
    x = np.asarray(x, dtype=complex)
    d_a = x.shape[-1]
    out = x[..., :, None, :, None] * np.eye(int(d_b))[:, None, :]
    return out.reshape(x.shape[:-2] + (d_a * d_b, d_a * d_b))


def _lift(x: np.ndarray, k: int) -> np.ndarray:
    # Insert k unit axes before the matrix axes, so x broadcasts over a
    # (*B, *K, d, d) stack with len(K) = k.
    return x.reshape(x.shape[:-2] + (1,) * k + x.shape[-2:])


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-data of a Hermitian matrix, or of a stack of them: real
    ascending eigenvalues, shape (*B, d), and unitaries whose columns are
    the matching eigenvectors, shape (*B, d, d). B is () for one matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Return V f(lambda) V^dagger for an elementwise function fn.

        fn maps the (*B, d) eigenvalues to values of shape (*B, *K, d);
        the result is the (*B, *K, d, d) stack of the matching matrices.
        """
        f = fn(self.eigenvalues)
        v = self.eigenvectors
        if f.ndim > 1:
            v = _lift(v, f.ndim - self.eigenvalues.ndim)
            f = f[..., None, :]
        return (v * f) @ dagger(v)

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)

    def power(self, z) -> np.ndarray:
        """Principal power V diag(lambda^z) V^dagger with lambda^z = exp(z ln lambda).

        Complex exponents are allowed; a slice is re-Hermitized when its
        exponent is real, and z = 0 gives the identity. z has shape
        (*B, *K): a scalar or a 1-D array of exponents for one matrix, one
        row of exponents per slice for a stack. The result has shape
        (*B, *K, d, d), each slice equal to the scalar call on its matrix.
        """
        nb = self.eigenvalues.ndim - 1
        z = np.asarray(z, dtype=complex)
        if z.shape[:nb] != self.eigenvalues.shape[:-1]:
            raise ValueError(f"exponents of shape {z.shape} do not lead with the "
                             f"stack shape {self.eigenvalues.shape[:-1]}")
        # Unit axes in w for the exponent axes K.
        lead = self.eigenvalues.shape[:-1] + (1,) * (z.ndim - nb) + (-1,)
        out = self.apply(lambda w: np.power(w.reshape(lead).astype(complex), z[..., None]))
        exponents = z.ravel().tolist()
        real = [e.imag == 0.0 for e in exponents]
        if all(real):
            out = herm_part(out)
        elif any(real):
            out = np.where(np.reshape(real, z.shape + (1, 1)), herm_part(out), out)
        if 0j in exponents:
            out[z == 0.0] = np.eye(out.shape[-1])
        return out


def hermitian_eig(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of a (*B, d, d)
    stack of them in one batched eigensolve.

    Raises NonSquare / NonHermitian when the input fails the shape or
    symmetry checks; the symmetry tolerance is HERM_RTOL relative to the
    Frobenius norm, applied slice by slice, and a stack's message names
    the first failing slice.
    """
    m = _as_stack(m)
    failed = _failing_slice(frobenius(m - dagger(m)) > HERM_RTOL * np.maximum(frobenius(m), 1.0))
    if failed:
        raise NonHermitian(f"{failed[0]}matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def positive_eig(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a strictly positive Hermitian matrix, or
    of a stack of them.

    Raises NotPositiveDefinite when a smallest eigenvalue is below
    EPS_POS, naming the first such slice of a stack.
    """
    return _above_floor(hermitian_eig(m))


def _above_floor(sd: SpectralDecomposition) -> SpectralDecomposition:
    low = sd.eigenvalues.min(axis=-1)
    failed = _failing_slice(low < EPS_POS)
    if failed:
        raise NotPositiveDefinite(
            f"{failed[0]}smallest eigenvalue {low[failed[1]]:.3e} below floor {EPS_POS:.0e}"
        )
    return sd


def matrix_power_psd(m: np.ndarray, z) -> np.ndarray:
    """Principal power m^z of a strictly positive Hermitian matrix, or of
    each slice of a (*B, d, d) stack.

    See SpectralDecomposition.power for the exponent conventions: z has
    shape (*B, *K), and all the powers of one matrix come from its one
    eigensolve.
    """
    return positive_eig(m).power(z)


def congruence_power(x: np.ndarray, inner: np.ndarray, z, left: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """left herm_part(inner x inner)^z right for a Hermitian inner.

    The middle factor (stack) goes to matrix_power_psd, whose floor check
    names a failing slice. z has shape (*B, *K) for middle factors of
    shape (*B, d, d); left and right are lifted over the exponent axes K.
    """
    mid = herm_part(inner @ x @ inner)
    k = np.ndim(z) - (mid.ndim - 2)
    return _lift(left, k) @ matrix_power_psd(mid, z) @ _lift(right, k)


def product_power(rho: np.ndarray, sigma: SpectralDecomposition, alpha,
                  z) -> np.ndarray:
    """Principal power (rho sigma^-alpha)^z for strictly positive rho, sigma.

    sigma comes as its eigen-data (from positive_eig, or a DensityMatrix's
    cached spectral), so it is never decomposed again here; it must lie
    above the positivity floor. The product rho sigma^-alpha is not
    Hermitian, but it is similar to the positive matrix
    sigma^{-alpha/2} rho sigma^{-alpha/2}, so the power is evaluated as

        sigma^{alpha/2} (sigma^{-alpha/2} rho sigma^{-alpha/2})^z sigma^{-alpha/2}

    which avoids any non-normal eigenproblem. alpha is a scalar or a 1-D
    array of shape A, and z has shape (*A, *K); the result has shape
    (*A, *K, d, d), with one batched eigensolve of the middle factors for
    all of it.
    """
    rho = _as_square(rho)
    sd = _above_floor(sigma)
    if rho.shape[0] != len(sd.eigenvalues):
        raise DimensionMismatch(
            f"rho side {rho.shape[0]} and sigma side {len(sd.eigenvalues)} differ"
        )
    alpha = np.asarray(alpha, dtype=float)
    s_mhalf = sd.power(-alpha / 2.0)
    return congruence_power(rho, s_mhalf, z, sd.power(alpha / 2.0), s_mhalf)


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
