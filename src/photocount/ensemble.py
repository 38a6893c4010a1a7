"""Weighted families of pure pre-measurement states.

Two constructions cover the models in use.  A quadrature discretization of
the uniform (Bloch-sphere) measure over superpositions of |0> and |1> is an
Ensemble: its states are rows of one complex matrix, so fidelities and
reversals can run vectorized over the whole family, and their number-level
populations |c_n|^2 are kept beside them for statistics of effects that are
diagonal in the number basis.  Monte Carlo draws from the unitarily
invariant (Haar) measure on a d-dimensional subspace feed only such
statistics (every effect is diagonal), so no state array is built:
haar_blocks streams the populations into metrics.batched_information,
which never holds them all, in the plain slices of block_bounds (BLOCK_ROWS
rows each, the last one shorter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .fock import read_only


# Rows per block of the one Monte Carlo loop (the Haar draw and the gains
# that metrics.streamed_information sums over it), so temporaries do not
# grow with the sample count: a block of d = 4 complex amplitudes is 1 MiB,
# near a core's L2 cache (2 MiB on a current Xeon), and larger blocks only
# raise peak memory.
BLOCK_ROWS = 16_384


def block_bounds(n_rows: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of BLOCK_ROWS rows that covers n_rows
    rows, in order; only the last block may be shorter."""
    return ((start, min(start + BLOCK_ROWS, n_rows)) for start in range(0, n_rows, BLOCK_ROWS))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Immutable weighted state family.

    ``states`` has one normalized state per row, supported on the first
    ``support_dim`` basis vectors (every later amplitude is exactly zero);
    ``weights`` are positive and sum to one.  ``populations`` holds |c_n|^2
    of each row over those ``support_dim`` levels; each row of it sums to
    one within the weights' 1e-12, so every amplitude is finite.
    ``amplitudes`` holds the same ``support_dim`` amplitudes level-major,
    one row per level (support_dim, n_samples), the form in which
    metrics.evaluate applies every operator to the family at once.  Both
    are read-only copies built once at construction.  Ensembles compare
    and hash by identity, since an array field has no single truth value.
    """

    support_dim: int
    states: np.ndarray
    weights: np.ndarray
    thetas: Optional[np.ndarray] = field(default=None, repr=False)
    populations: np.ndarray = field(init=False, repr=False)
    amplitudes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = read_only(self.states, complex)
        weights = read_only(self.weights, float)
        if states.ndim != 2 or states.shape[0] != weights.size:
            raise ValueError("states and weights are inconsistent")
        if not 1 <= self.support_dim <= states.shape[1]:
            raise ValueError(f"support dimension {self.support_dim} outside [1, dim]")
        if np.any(states[:, self.support_dim :]):
            raise ValueError(f"states have amplitudes above level {self.support_dim - 1}")
        # Written so that a NaN or infinite weight or amplitude fails them.
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to one")
        populations = np.abs(states[:, : self.support_dim])
        populations **= 2
        if not np.all(np.abs(populations.sum(axis=1) - 1.0) <= 1e-12):
            raise ValueError("states must have unit norm")
        amplitudes = states[:, : self.support_dim].T.copy()
        populations.setflags(write=False)
        amplitudes.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "populations", populations)
        object.__setattr__(self, "amplitudes", amplitudes)
        if self.thetas is not None:
            object.__setattr__(self, "thetas", read_only(self.thetas, float))

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


def check_bloch_family(nodes: int, dim: int) -> None:
    """Refuse what bloch_two_state_ensemble refuses, without building it."""
    if nodes < 8:
        raise ValueError("at least 8 quadrature nodes are required")
    if dim < 2:
        raise ValueError("truncation dimension must be at least 2")


def bloch_two_state_ensemble(nodes: int, dim: int) -> Ensemble:
    """Quadrature for the uniform measure over cos(t/2)|0> + e^{i phi} sin(t/2)|1>.

    Every quantity of interest for this family is independent of the azimuth,
    so phi is fixed to 0 and only the polar angle is discretized.  Nodes are
    Gauss-Legendre points in theta on [0, pi] with the sin(theta)/2 surface
    density absorbed into the weights; this keeps integrands of the form
    n log n regular at the poles, which node layouts in cos(theta) do not.
    """
    check_bloch_family(nodes, dim)
    x, w = np.polynomial.legendre.leggauss(nodes)
    thetas = (x + 1.0) * (np.pi / 2.0)
    weights = (np.pi / 2.0) * w * np.sin(thetas) / 2.0
    weights = weights / weights.sum()
    return Ensemble(support_dim=2, states=_bloch_states(thetas, dim), weights=weights, thetas=thetas)


def haar_blocks(d: int, n_samples: int, seed: int) -> Iterator[np.ndarray]:
    """Populations |c_n|^2 of uniform (Haar) random pure states on the span
    of |0>, ..., |d-1>, one row of d levels per sample, as consecutive
    blocks of the block_bounds(n_samples) rows.

    Standard construction: i.i.d. complex Gaussian amplitudes, normalized.
    Deterministic for a given seed: all real parts are drawn before all
    imaginary parts, row by row.  The real parts come from one
    default_rng(seed) and the imaginary parts from a second one on the same
    seed, first run past the n_samples * d real draws block by block, so
    the stream holds one block at a time and the amplitudes never exist for
    the whole family at once.  A model that reads them checks that d stays
    clear of its truncation edge (support_effects).  Raises ValueError for
    d < 2, fewer than 10^4 or more than 2^63 - 1 samples or a negative
    seed, at the call; nothing is drawn before the first block is asked
    for.
    """
    if d < 2:
        raise ValueError("support dimension must be at least 2")
    if n_samples < 10_000:
        raise ValueError("at least 10^4 samples are required")
    if n_samples > 2**63 - 1:  # streamed_information's batch edges are int64
        raise ValueError(f"n_samples = {n_samples} is above 2^63 - 1")
    if seed < 0:
        raise ValueError(f"seed = {seed} is negative")

    def blocks():
        real_rng, imag_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for start, stop in block_bounds(n_samples):
            imag_rng.standard_normal((stop - start, d))
        for start, stop in block_bounds(n_samples):
            block = np.empty((stop - start, d), dtype=complex)
            block.real = real_rng.standard_normal(block.shape)
            block.imag = imag_rng.standard_normal(block.shape)
            block /= np.linalg.norm(block, axis=1)[:, None]
            rows = np.abs(block)
            rows **= 2
            yield rows

    return blocks()
