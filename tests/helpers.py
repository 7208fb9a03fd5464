"""Shared oracles for the test suite: classical formulas, independent
eigendecomposition routes, and simple random samplers."""

import numpy as np

from renyidpi import DensityMatrix


def classical_renyi(p, q, n: float) -> float:
    """Classical Renyi divergence of order n between probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.log(np.sum(p**n * q ** (1.0 - n))) / (n - 1.0))


def classical_kl(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.sum(p * (np.log(p) - np.log(q))))


def rand_probs(rng: np.random.Generator, d: int, floor: float = 0.05) -> np.ndarray:
    """Strictly positive probability vector with entries bounded away from zero."""
    p = rng.random(d) + floor
    return p / p.sum()


def diag_density(p) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(p, dtype=complex)))


def rand_pd(rng: np.random.Generator, d: int, shift: float = 0.3) -> np.ndarray:
    """Random positive-definite matrix with eigenvalues of order one."""
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    return g @ g.conj().T + shift * np.eye(d)


def nonhermitian_power(m: np.ndarray, z: complex) -> np.ndarray:
    """Principal power of a diagonalizable matrix with positive spectrum,
    via a plain (non-Hermitian) eigendecomposition.

    Independent oracle for the similarity-based product powers.
    """
    w, v = np.linalg.eig(m)
    assert np.all(w.real > 0) and np.abs(w.imag).max() < 1e-8 * np.abs(w.real).max()
    return v @ np.diag(np.power(w.real.astype(complex), z)) @ np.linalg.inv(v)


def counting(monkeypatch, owner, name, record=lambda out: None) -> list:
    """Replace owner.name by a wrapper that appends record(result) per call."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(record(out))
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls
