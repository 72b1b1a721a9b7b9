"""Seeded state sampling: uniform [-1, 1]^d on Euclidean factors, [0, 2pi) on circles."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .graphs import PhaseSpace, StateIndex, TWO_PI


def check_count(count: int, name: str = "samples") -> None:
    """Refuse a negative number of samples or trials, which would otherwise certify on none."""
    if count < 0:
        raise PreconditionError(f"{name} must be non-negative, got {count}")


def sample_space(space: PhaseSpace, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform states of ``space`` as an array of shape ``shape + (dim,)``, drawn in C order."""
    low, high = (0.0, TWO_PI) if space.is_circle else (-1.0, 1.0)
    return rng.uniform(low, high, size=(*shape, space.dim))


def sample_state(index: StateIndex, rng: np.random.Generator) -> np.ndarray:
    """One draw per flat coordinate, in layout order: the same draws as ``sample_space`` node by node."""
    return sample_states(index, rng, 1)[0]


def sample_states(index: StateIndex, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` states as rows of one array: the same draws as ``count`` calls of ``sample_state``."""
    circ = index.circle_mask()
    return rng.uniform(np.where(circ, 0.0, -1.0), np.where(circ, TWO_PI, 1.0), size=(count, index.total_dim))
