from contextlib import contextmanager
from unittest import mock

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from ctqwalk import Superoperator, build_graph


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


def bits(x) -> np.ndarray:
    """The float64 bit patterns of x, so that equality also tells -0.0 from 0.0."""
    return np.ascontiguousarray(x).view(np.uint64)


def apply_map(sup, x: np.ndarray) -> np.ndarray:
    """A superoperator's map itself (not its exponential) on an n x n matrix."""
    return (sup.matrix @ x.flatten(order="F")).reshape(sup.dim, sup.dim, order="F")


def expm_spy():
    """Patch that records each ``Superoperator._expm_matrix(generator, t)`` call."""
    return mock.patch.object(Superoperator, "_expm_matrix", autospec=True,
                             side_effect=Superoperator._expm_matrix)


@contextmanager
def forced_pade():
    """Send every superoperator to the Pade route, for states and K profiles
    alike, even one whose factorizations are already cached: states read
    ``Superoperator._eig``, K profiles ``_real_modes``. Yields an :func:`expm_spy`."""
    none = property(lambda self: None)
    with mock.patch.object(Superoperator, "_eig", none), \
            mock.patch.object(Superoperator, "_real_modes", none), expm_spy() as spy:
        yield spy


def expm_steps(spy) -> list[float]:
    """The times of the exponentials an :func:`expm_spy` saw."""
    return [c.args[1] for c in spy.call_args_list]


@st.composite
def connected_graphs(draw, max_sites=7):
    """A random spanning tree on 2..max_sites sites plus random extra edges."""
    n = draw(st.integers(2, max_sites))
    adj = np.zeros((n, n), dtype=int)
    for k in range(1, n):
        j = draw(st.integers(0, k - 1))
        adj[j, k] = adj[k, j] = 1
    pairs = list(itertools.combinations(range(n), 2))
    for j, k in draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))):
        adj[j, k] = adj[k, j] = 1
    return build_graph("custom", adjacency=adj)
