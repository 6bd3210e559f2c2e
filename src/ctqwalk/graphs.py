"""Graph topologies, Laplacians, and Hermitian spectral decompositions.

The walker lives on an undirected, unweighted graph. Its Laplacian
``L = D - A`` (degree matrix minus adjacency matrix) generates both the
quantum walk ``e^{-iLt}`` and the classical random walk ``e^{-Lt}``.
Laplacians are assembled in integer arithmetic so row sums are exactly
zero before the matrix is stored as floats.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import DEGENERACY_TOL, _as_readonly, _check_hermitian

TOPOLOGIES = ("cycle", "complete", "path", "custom")


@dataclass(frozen=True)
class Graph:
    """Immutable graph with its Laplacian.

    Attributes
    ----------
    n : int
        Vertex count.
    adjacency : np.ndarray
        Symmetric 0/1 integer matrix with zero diagonal.
    laplacian : np.ndarray
        Real symmetric matrix, ``diag(degrees) - adjacency``.
    degrees : np.ndarray
        Per-node degree vector.
    topology : str
        One of ``TOPOLOGIES``.
    connected : bool
        True iff the graph is connected (equivalently, the Laplacian's
        zero eigenvalue is simple). Disconnected graphs are accepted but
        flagged; operations whose math requires connectivity must check.
    """

    n: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    degrees: np.ndarray
    topology: str
    connected: bool

    @cached_property
    def spectrum(self) -> "SpectralDecomposition":
        """Spectral decomposition of the Laplacian at the default tolerance."""
        return spectral_decompose(self.laplacian)

    @property
    def fiedler_value(self) -> float:
        """Second-smallest Laplacian eigenvalue (positive iff connected)."""
        return float(self.spectrum.eigenvalues[1])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition of a Hermitian matrix with degeneracy grouping.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds orthonormal
    columns, and ``groups`` partitions the indices into maximal runs of
    eigenvalues closer than ``DEGENERACY_TOL``. Individual columns
    inside a degenerate group are decomposition-dependent; only the group
    projectors are basis-independent, so downstream code must consume
    :meth:`projector` rather than single degenerate columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    def projector(self, group_index: int) -> np.ndarray:
        """Orthogonal projector onto the eigenspace of one group."""
        cols = self.eigenvectors[:, list(self.groups[group_index])]
        return cols @ cols.conj().T

    def projectors(self) -> list[np.ndarray]:
        return [self.projector(g) for g in range(len(self.groups))]

    def group_eigenvalues(self) -> np.ndarray:
        """Representative (first) eigenvalue of each group."""
        return np.array([self.eigenvalues[g[0]] for g in self.groups])


def _connected(adjacency: np.ndarray) -> bool:
    # BFS on the integer adjacency matrix; exact, no spectral tolerance.
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        j = stack.pop()
        for k in np.nonzero(adjacency[j])[0]:
            if not seen[k]:
                seen[k] = True
                stack.append(int(k))
    return bool(seen.all())


def _validate_adjacency(adjacency: np.ndarray) -> np.ndarray:
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if not np.isin(a, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    a = a.astype(np.int64)
    if (a != a.T).any():
        raise ValueError("adjacency must be symmetric")
    if np.diagonal(a).any():
        raise ValueError("adjacency must have zero diagonal (no self loops)")
    return a


def build_graph(topology: str, n: int | None = None,
                adjacency: np.ndarray | None = None) -> Graph:
    """Construct a graph of the given topology.

    Parameters
    ----------
    topology : {"cycle", "complete", "path", "custom"}
        ``cycle`` joins j to (j+-1) mod n, ``complete`` joins all distinct
        pairs, ``path`` joins j to j+1 only. ``custom`` takes an explicit
        adjacency matrix (symmetric 0/1, zero diagonal).
    n : int, optional
        Vertex count (>= 2); inferred from ``adjacency`` for custom graphs.
    adjacency : np.ndarray, optional
        Required iff ``topology == "custom"``.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}, expected one of {TOPOLOGIES}")
    if topology == "custom":
        if adjacency is None:
            raise ValueError("custom topology requires an adjacency matrix")
        adj = _validate_adjacency(adjacency)
        if n is not None and n != adj.shape[0]:
            raise ValueError(f"n={n} does not match adjacency of size {adj.shape[0]}")
        n = adj.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
    else:
        if adjacency is not None:
            raise ValueError(f"{topology} topology does not take an adjacency matrix")
        if n is None or n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        adj = np.zeros((n, n), dtype=np.int64)
        if topology == "cycle":
            for j in range(n):
                k = (j + 1) % n
                adj[j, k] = adj[k, j] = 1
        elif topology == "complete":
            adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        elif topology == "path":
            for j in range(n - 1):
                adj[j, j + 1] = adj[j + 1, j] = 1

    degrees = adj.sum(axis=1)
    laplacian_int = np.diag(degrees) - adj  # exact integer row sums of 0
    connected = _connected(adj)
    if not connected:
        warnings.warn("graph is disconnected; spectral-gap based bounds do not apply",
                      stacklevel=2)
    return Graph(
        n=int(n),
        adjacency=_as_readonly(adj),
        laplacian=_as_readonly(laplacian_int.astype(np.float64)),
        degrees=_as_readonly(degrees),
        topology=topology,
        connected=connected,
    )


def read_edge_list(path: str | Path) -> np.ndarray:
    """Read a plain-text edge list ("j k" per line, 0-indexed) into an adjacency matrix.

    Blank lines and lines starting with ``#`` are skipped.
    """
    edges = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'j k', got {line!r}")
        j, k = int(parts[0]), int(parts[1])
        if j < 0 or k < 0:
            raise ValueError(f"{path}:{lineno}: negative vertex index")
        if j == k:
            raise ValueError(f"{path}:{lineno}: self loop {j}")
        edges.append((j, k))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    n = max(max(j, k) for j, k in edges) + 1
    adj = np.zeros((n, n), dtype=np.int64)
    for j, k in edges:
        adj[j, k] = adj[k, j] = 1
    return adj


def graph_from_edge_list(path: str | Path) -> Graph:
    return build_graph("custom", adjacency=read_edge_list(path))


def spectral_decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix and group degenerate eigenvalues.

    Eigenvalues are ascending; indices are chained into one group while
    consecutive eigenvalues differ by less than ``DEGENERACY_TOL``.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(_check_hermitian(matrix))

    groups: list[tuple[int, ...]] = []
    current = [0]
    for k in range(1, len(eigenvalues)):
        if eigenvalues[k] - eigenvalues[k - 1] < DEGENERACY_TOL:
            current.append(k)
        else:
            groups.append(tuple(current))
            current = [k]
    groups.append(tuple(current))

    return SpectralDecomposition(
        eigenvalues=_as_readonly(eigenvalues),
        eigenvectors=_as_readonly(eigenvectors),
        groups=tuple(groups),
    )
