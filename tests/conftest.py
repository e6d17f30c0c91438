"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end test (deselect with -m 'not slow')"
    )


@pytest.fixture
def paper_matrix() -> np.ndarray:
    """The 6×5 worked example of Figure 1 in the paper."""
    return np.array(
        [
            [1.2, 3.4, 5.6, 0.0, 2.3],
            [2.3, 0.0, 2.3, 4.5, 1.7],
            [1.2, 3.4, 2.3, 4.5, 0.0],
            [3.4, 0.0, 5.6, 0.0, 2.3],
            [2.3, 0.0, 2.3, 4.5, 0.0],
            [1.2, 3.4, 2.3, 4.5, 3.4],
        ]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_structured(
    rng: np.random.Generator,
    n: int = 60,
    m: int = 12,
    density: float = 0.6,
    pool: int = 5,
) -> np.ndarray:
    """A random matrix with repeated values (so grammars find rules)."""
    values = np.round(rng.uniform(0.5, 9.5, size=pool), 2)
    matrix = values[rng.integers(0, pool, size=(n, m))]
    matrix[rng.random((n, m)) >= density] = 0.0
    return matrix


@pytest.fixture
def structured_matrix(rng) -> np.ndarray:
    return make_structured(rng)
