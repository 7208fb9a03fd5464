"""Density matrices and CPTP channels.

States are strictly positive throughout; near-singular random samples are
mixed toward the maximally mixed state. Channels are kept in Kraus
form with Stinespring dilations derived on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonSquare, NotPositiveDefinite
from .linalg import (
    EPS_POS,
    HERM_RTOL,
    dagger,
    frobenius,
    herm_part,
    hermitian_eig,
    lift_b,
    partial_trace,
)

TRACE_TOL = 1e-10
CHANNEL_TOL = 1e-10

# Random-state regularization: mix in delta * I/d whenever the smallest
# eigenvalue of a raw Ginibre sample falls below the trigger.
REG_TRIGGER = 1e-8
REG_DELTA = 1e-6


class DensityMatrix:
    """Strictly positive, unit-trace Hermitian matrix with cached eigen-data.

    Immutable after construction. Powers and reduced states are cached per
    instance, so every spectral function of a state reuses its one
    eigendecomposition.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonSquare(f"expected a square matrix, got shape {m.shape}")
        if frobenius(m - dagger(m)) > HERM_RTOL * max(frobenius(m), 1.0):
            hermitian_eig(m)  # raises with the precise reason
        # Decompose the hermitized matrix so the cached spectral data is a
        # pure function of the stored value (byte-equal states share it).
        stored = herm_part(m)
        spectral = hermitian_eig(stored)
        tr = float(np.sum(spectral.eigenvalues))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {TRACE_TOL:.0e}")
        min_eig = float(spectral.eigenvalues.min())
        if min_eig < EPS_POS:
            raise NotPositiveDefinite(
                f"density matrix has eigenvalue {min_eig:.3e} below floor {EPS_POS:.0e}"
            )
        self.matrix = stored
        self.matrix.setflags(write=False)
        self.spectral = spectral
        self.dim = int(self.matrix.shape[0])
        self.min_eig = min_eig
        self._pow_cache: dict[complex, np.ndarray] = {}
        self._reduced_cache: dict[tuple[int, int], DensityMatrix] = {}

    def power(self, z) -> np.ndarray:
        """Principal matrix power, cached per exponent.

        An array of exponents gives the stack of powers (see
        SpectralDecomposition.power); stacks are not cached.
        """
        if isinstance(z, np.ndarray) and z.ndim:
            return self.spectral.power(z)
        key = complex(z)
        got = self._pow_cache.get(key)
        if got is None:
            got = self._pow_cache[key] = self.spectral.power(key)
        return got

    def reduced(self, dims: tuple[int, int]) -> "DensityMatrix":
        """Reduced state Tr_B of a state on A (x) B with dims (d_A, d_B), cached per dims."""
        key = (int(dims[0]), int(dims[1]))
        got = self._reduced_cache.get(key)
        if got is None:
            got = self._reduced_cache[key] = DensityMatrix(partial_trace(self.matrix, key, "B"))
        return got

    def sqrt(self) -> np.ndarray:
        return self.power(0.5)

    def log(self) -> np.ndarray:
        return herm_part(self.spectral.apply(np.log))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, min_eig={self.min_eig:.3e})"


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map as a family of out_dim x in_dim Kraus operators.

    traced_dims is set only by partial_trace_channel: it marks the channel
    as Tr_B on a space with dims (d_A, d_B), so that apply_density returns
    the input state's cached reduced state instead of a new one, and
    adjoint_apply is lift_b.
    """

    kraus_ops: tuple[np.ndarray, ...]
    traced_dims: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.kraus_ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise DimensionMismatch("Kraus operators must be 2-d arrays of one shape")
        object.__setattr__(self, "kraus_ops", ops)
        comp = sum(dagger(k) @ k for k in ops)
        if frobenius(comp - np.eye(self.in_dim)) > CHANNEL_TOL:
            raise ValueError("Kraus family is not trace preserving within tolerance")
        if self.traced_dims is not None:
            d_a, d_b = self.traced_dims
            if (self.out_dim, self.in_dim) != (d_a, d_a * d_b):
                raise DimensionMismatch(f"Kraus shapes do not match Tr_B on dims {self.traced_dims}")

    @property
    def in_dim(self) -> int:
        return int(self.kraus_ops[0].shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.kraus_ops[0].shape[0])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action sum_i K_i rho K_i^dagger."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatch(
                f"state of side {rho.shape} does not match in_dim {self.in_dim}"
            )
        return sum(k @ rho @ dagger(k) for k in self.kraus_ops)

    def adjoint_apply(self, a: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt adjoint sum_i K_i^dagger a K_i (unital).

        A stack of observables, shape (*B, out_dim, out_dim), maps slice
        by slice. The adjoint of Tr_B is a -> a otimes I_B, which lift_b
        forms with the same entries as the Kraus sum.
        """
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.out_dim, self.out_dim):
            raise DimensionMismatch(
                f"observable of side {a.shape} does not match out_dim {self.out_dim}"
            )
        if self.traced_dims is not None:
            return lift_b(a, self.traced_dims[1])
        return sum(dagger(k) @ a @ k for k in self.kraus_ops)

    def apply_density(self, rho: DensityMatrix) -> DensityMatrix:
        if self.traced_dims is not None:
            return rho.reduced(self.traced_dims)
        return DensityMatrix(self.apply(rho.matrix))


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """Isometry V with channel action Tr_env[V rho V^dagger].

    The dilated space is ordered out (x) env, so the adjoint channel is
    a -> V^dagger (a otimes I_env) V.
    """

    isometry: np.ndarray
    out_dim: int
    env_dim: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        v = self.isometry
        return partial_trace(v @ rho @ dagger(v), (self.out_dim, self.env_dim), "B")

    def adjoint_apply(self, a: np.ndarray) -> np.ndarray:
        v = self.isometry
        return dagger(v) @ lift_b(a, self.env_dim) @ v

    def apply_density(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.apply(rho.matrix))


def stinespring_dilate(ch: KrausChannel) -> StinespringIsometry:
    """Stack the Kraus family into an isometry V = sum_e K_e otimes |e>."""
    env = len(ch.kraus_ops)
    v = np.stack(ch.kraus_ops, axis=1).reshape(ch.out_dim * env, ch.in_dim)
    if frobenius(dagger(v) @ v - np.eye(ch.in_dim)) > CHANNEL_TOL:
        raise ValueError("dilation failed the isometry check")
    return StinespringIsometry(isometry=v, out_dim=ch.out_dim, env_dim=env)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


@lru_cache(maxsize=None)
def partial_trace_channel(d_a: int, d_b: int) -> KrausChannel:
    """The channel Tr_B on A (x) B, with Kraus operators I_A otimes <j|.

    Built once per (d_A, d_B), with read-only Kraus arrays. Its
    apply_density returns the cached DensityMatrix.reduced state.
    """
    # Row i d_B + j of the identity on A (x) B is <i| otimes <j|.
    ops = np.eye(d_a * d_b, dtype=complex).reshape(d_a, d_b, -1).swapaxes(0, 1).copy()
    ops.setflags(write=False)
    return KrausChannel(tuple(ops), traced_dims=(int(d_a), int(d_b)))


def stream(seed, *key) -> np.random.Generator:
    """Seedable, splittable generator; trial streams derive from (seed, key)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex standard-normal matrix."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_density(dim: int, rng_seed) -> DensityMatrix:
    """Full-rank random state rho = G G^dagger / Tr from the Ginibre ensemble.

    Samples with a smallest eigenvalue below REG_TRIGGER are mixed with
    REG_DELTA * I/d.
    """
    rng = stream(rng_seed)
    g = ginibre(rng, dim, dim)
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    if float(np.linalg.eigvalsh(herm_part(rho)).min()) < REG_TRIGGER:
        rho = (1.0 - REG_DELTA) * rho + REG_DELTA * np.eye(dim) / dim
    return DensityMatrix(rho)


def _fix_phases(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Make the QR factor unique so samples are Haar distributed and
    # reproducible across runs.
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


def random_isometry(rows: int, cols: int, rng_seed) -> np.ndarray:
    """Haar-random isometry (orthonormal columns), rows >= cols, via
    phase-fixed QR of a Ginibre matrix; a Haar-random unitary at rows ==
    cols."""
    if rows < cols:
        raise DimensionMismatch(f"no isometry from dim {cols} into dim {rows}")
    rng = stream(rng_seed)
    q, r = np.linalg.qr(ginibre(rng, rows, cols))
    return _fix_phases(q, r)


def random_channel(in_dim: int, out_dim: int | None = None, env_dim: int | None = None,
                   rng_seed=0) -> KrausChannel:
    """Generic CPTP map from a Haar-random Stinespring isometry.

    env_dim defaults to out_dim, which produces full-rank channels.
    """
    out_dim = in_dim if out_dim is None else out_dim
    env_dim = out_dim if env_dim is None else env_dim
    v = random_isometry(out_dim * env_dim, in_dim, rng_seed)
    return KrausChannel(tuple(v.reshape(out_dim, env_dim, in_dim).swapaxes(0, 1)))
