"""Weighted families of pure pre-measurement states.

Two constructions cover the models in use: a quadrature discretization of
the uniform (Bloch-sphere) measure over superpositions of |0> and |1>, and
Monte Carlo draws from the unitarily invariant (Haar) measure on a
d-dimensional subspace.  States are stored as rows of one complex matrix so
downstream statistics can run vectorized over the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fock import StateVector

__all__ = [
    "Ensemble",
    "bloch_two_state_ensemble",
    "haar_ensemble",
    "expectation",
]


@dataclass(frozen=True)
class Ensemble:
    """Immutable weighted state family.

    ``states`` has one normalized state per row, supported on the first
    ``support_dim`` basis vectors (every later amplitude is exactly zero);
    ``weights`` are positive and sum to one.
    """

    kind: str
    support_dim: int
    states: np.ndarray
    weights: np.ndarray
    measure_kind: str
    seed: Optional[int] = None
    thetas: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if states.ndim != 2 or states.shape[0] != weights.size:
            raise ValueError("states and weights are inconsistent")
        if not 1 <= self.support_dim <= states.shape[1]:
            raise ValueError(f"support dimension {self.support_dim} outside [1, dim]")
        if np.any(states[:, self.support_dim :]):
            raise ValueError(f"states have amplitudes above level {self.support_dim - 1}")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        states.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.weights.size


def _bloch_states(thetas: np.ndarray, dim: int) -> np.ndarray:
    """Rows cos(t/2)|0> + sin(t/2)|1> for each polar angle t, in radians."""
    states = np.zeros((thetas.size, dim), dtype=complex)
    states[:, 0] = np.cos(thetas / 2.0)
    states[:, 1] = np.sin(thetas / 2.0)
    return states


def bloch_two_state_ensemble(nodes: int, dim: int) -> Ensemble:
    """Quadrature for the uniform measure over cos(t/2)|0> + e^{i phi} sin(t/2)|1>.

    Every quantity of interest for this family is independent of the azimuth,
    so phi is fixed to 0 and only the polar angle is discretized.  Nodes are
    Gauss-Legendre points in theta on [0, pi] with the sin(theta)/2 surface
    density absorbed into the weights; this keeps integrands of the form
    n log n regular at the poles, which node layouts in cos(theta) do not.
    """
    if nodes < 8:
        raise ValueError("at least 8 quadrature nodes are required")
    if dim < 4:
        raise ValueError("truncation dimension must be at least 4")
    x, w = np.polynomial.legendre.leggauss(nodes)
    thetas = (x + 1.0) * (np.pi / 2.0)
    weights = (np.pi / 2.0) * w * np.sin(thetas) / 2.0
    weights = weights / weights.sum()
    return Ensemble(
        kind="bloch_two_state",
        support_dim=2,
        states=_bloch_states(thetas, dim),
        weights=weights,
        measure_kind="quadrature",
        thetas=thetas,
    )


def haar_ensemble(d: int, n_samples: int, seed: int, dim: int) -> Ensemble:
    """Uniform (Haar) random pure states on the span of |0>, ..., |d-1>.

    Standard construction: i.i.d. complex Gaussian amplitudes, normalized.
    Deterministic for a given seed.
    """
    if not 2 <= d <= dim - 2:
        raise ValueError("support dimension must satisfy 2 <= d <= dim - 2")
    if n_samples < 10_000:
        raise ValueError("at least 10^4 samples are required")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal((n_samples, d))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    states = np.zeros((n_samples, dim), dtype=complex)
    states[:, :d] = raw
    weights = np.full(n_samples, 1.0 / n_samples)
    return Ensemble(
        kind="haar",
        support_dim=d,
        states=states,
        weights=weights,
        measure_kind="monte_carlo",
        seed=seed,
    )


def expectation(ensemble: Ensemble, f: Callable[[StateVector], float]) -> float:
    """Weighted average of f over the member states."""
    values = np.array([f(StateVector(row)) for row in ensemble.states], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand produced a non-finite value")
    return float(np.sum(ensemble.weights * values))
