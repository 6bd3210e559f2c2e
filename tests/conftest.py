import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return m / m.trace()


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def apply_map(sup, x: np.ndarray) -> np.ndarray:
    """A superoperator's map itself (not its exponential) on an n x n matrix."""
    return (sup.matrix @ x.flatten(order="F")).reshape(sup.dim, sup.dim, order="F")
