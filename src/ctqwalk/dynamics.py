"""Quantum and classical propagators for walks on graphs.

Three named evolution models plus a fully custom one:

- ``unitary``: closed-system walk ``rho -> e^{-iLt} rho e^{iLt}``.
- ``site-dephasing``: Lindblad dynamics whose jump operators are the N
  site projectors at uniform rate gamma (decoherence in the position
  basis); off-diagonal elements decay at rate gamma while populations
  evolve coherently.
- ``energy-dephasing``: single jump operator equal to the Laplacian
  itself (decoherence in the energy basis); coherences between Laplacian
  eigenspaces decay as ``exp(-(gamma/2)(l-l')^2 t)`` and the exact
  solution is a double sum over eigenspace projectors.
- ``custom``: arbitrary (rate, operator) jump list.

Units: the hopping rate and hbar are both 1, so time and energy are
dimensionless. No operation mutates its inputs; propagation over a time
grid is safe to parallelize.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graphs import Graph, SpectralDecomposition
from .linalg import (HERMITICITY_TOL, PROB_TOL, SPECTRAL_MATCH_TOL, STATE_PSD_TOL,
                     STATIONARY_TOL, TRACE_TOL, Superoperator, _as_readonly,
                     _check_square, vectorize_lindblad)

MODEL_KINDS = ("unitary", "site-dephasing", "energy-dephasing", "custom")


def _hermitize(x: np.ndarray) -> np.ndarray:
    """Hermitian part of one matrix or of a stack of them (last two axes)."""
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated N x N density matrix (Hermitian, unit trace, PSD up to drift)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_square(self.matrix, "density matrix")
        defect = np.abs(m - m.conj().T).max()
        if defect > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -STATE_PSD_TOL:
            raise ValueError(f"density matrix not PSD (eigenvalue {lo:.3e})")
        object.__setattr__(self, "matrix", _as_readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrix)).copy()


@dataclass(frozen=True)
class ClassicalDistribution:
    """Probability vector over graph sites."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if p.min() < -PROB_TOL:
            raise ValueError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {p.sum():.15g}, not 1")
        object.__setattr__(self, "probs", _as_readonly(p))

    @property
    def dim(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class EvolutionModel:
    """Tagged choice of dynamics; use the classmethod constructors."""

    kind: str
    gamma: float = 0.0
    jumps: tuple[tuple[float, np.ndarray], ...] = ()

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if any(rate < 0 for rate, _ in self.jumps):
            raise ValueError("jump rates must be nonnegative")

    @classmethod
    def unitary(cls) -> "EvolutionModel":
        return cls(kind="unitary")

    @classmethod
    def site_dephasing(cls, gamma: float) -> "EvolutionModel":
        return cls(kind="site-dephasing", gamma=float(gamma))

    @classmethod
    def energy_dephasing(cls, gamma: float) -> "EvolutionModel":
        return cls(kind="energy-dephasing", gamma=float(gamma))

    @classmethod
    def custom(cls, jumps) -> "EvolutionModel":
        return cls(kind="custom",
                   jumps=tuple((float(rate), np.asarray(g, dtype=np.complex128))
                               for rate, g in jumps))


def localized_state(graph: Graph, node: int) -> DensityMatrix:
    """``|nu><nu|`` on the given graph."""
    if not 0 <= node < graph.n:
        raise ValueError(f"node {node} out of range for {graph.n} vertices")
    m = np.zeros((graph.n, graph.n), dtype=np.complex128)
    m[node, node] = 1.0
    return DensityMatrix(m)


def make_generator(graph: Graph, model: EvolutionModel) -> Superoperator:
    """Vectorized Lindblad generator ``-i[L, .] + D`` for the chosen model."""
    n = graph.n
    if model.kind == "unitary":
        jumps: list[tuple[float, np.ndarray]] = []
    elif model.kind == "site-dephasing":
        jumps = []
        for k in range(n):
            g = np.zeros((n, n))
            g[k, k] = 1.0
            jumps.append((model.gamma, g))
    elif model.kind == "energy-dephasing":
        jumps = [(model.gamma, graph.laplacian)]
    else:
        jumps = list(model.jumps)
    return vectorize_lindblad(graph.laplacian, jumps)


def propagate(generator: Superoperator, rho: DensityMatrix, t: float) -> DensityMatrix:
    """Evolve a state: devectorized ``e^{Lt} vec(rho)``, re-Hermitized."""
    if rho.dim != generator.dim:
        raise ValueError(
            f"state dim {rho.dim} does not match generator dim {generator.dim}")
    out = generator.expm_apply(t, rho.matrix)
    return DensityMatrix(_hermitize(out))


def _check_spectral_match(graph: Graph, spec: SpectralDecomposition) -> None:
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    if np.abs(recon - graph.laplacian).max() > SPECTRAL_MATCH_TOL:
        raise ValueError("spectral decomposition does not match graph Laplacian")


def propagate_energy_closed_form(graph: Graph, spec: SpectralDecomposition,
                                 gamma: float, rho0: DensityMatrix,
                                 t: float) -> DensityMatrix:
    """Exact energy-dephasing evolution from the eigenspace double sum.

    ``rho(t) = sum_{a,b} P_a rho0 P_b exp(-i(l_a-l_b)t - (gamma/2)(l_a-l_b)^2 t)``
    over eigenvalue groups; populations in the energy eigenbasis are left
    unchanged and cross-eigenspace coherences decay.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if rho0.dim != graph.n:
        raise ValueError(f"state dim {rho0.dim} does not match graph size {graph.n}")
    _check_spectral_match(graph, spec)
    out = _energy_sum(spec.projectors(), spec.group_eigenvalues(), gamma, rho0.matrix, t)
    return DensityMatrix(_hermitize(out))


def _energy_sum(projectors: list[np.ndarray], lam: np.ndarray, gamma: float,
                x: np.ndarray, t: float) -> np.ndarray:
    """``sum_{a,b} P_a x P_b exp(-i(l_a-l_b)t - (gamma/2)(l_a-l_b)^2 t)``."""
    out = np.zeros(np.shape(x), dtype=np.complex128)
    for a, pa in enumerate(projectors):
        left = pa @ x
        for b, pb in enumerate(projectors):
            gap = lam[a] - lam[b]
            phase = np.exp((-1j * gap - 0.5 * gamma * gap * gap) * t)
            out += phase * (left @ pb)
    return out


def classical_propagate(graph: Graph, node: int, t: float) -> ClassicalDistribution:
    """Classical random-walk distribution: column ``nu`` of ``e^{-Lt}``."""
    if not 0 <= node < graph.n:
        raise ValueError(f"node {node} out of range for {graph.n} vertices")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    spec = graph.spectrum
    u = spec.eigenvectors
    p = (u * np.exp(-spec.eigenvalues * t)) @ u.conj().T[:, node]
    return ClassicalDistribution(np.clip(np.real(p), 0.0, None))


def dephase_site(rho: DensityMatrix) -> DensityMatrix:
    """Project onto the site-basis diagonal (non-selective position measurement)."""
    return DensityMatrix(np.diag(np.diagonal(rho.matrix)))


class SpectralGap(NamedTuple):
    """Spectral gap of a generator; ``value`` is 0 when nothing decays."""

    value: float
    has_decay: bool
    stationary_dim: int


def spectral_gap(generator: Superoperator) -> SpectralGap:
    """Magnitude of the largest nonzero real part among generator eigenvalues.

    Eigenvalues with ``Re > -STATIONARY_TOL`` count as stationary/oscillatory
    (their multiplicity is reported, not assumed to be 1). If no
    eigenvalue decays (unitary case) the gap is 0 with ``has_decay=False``.
    """
    re = generator.eigenvalues.real
    stationary = int((re >= -STATIONARY_TOL).sum())
    decaying = re[re < -STATIONARY_TOL]
    if decaying.size == 0:
        return SpectralGap(0.0, False, stationary)
    return SpectralGap(float(-decaying.max()), True, stationary)


class Propagator:
    """Model-aware evolution engine for one (graph, model) pair.

    Chooses the cheapest exact route per model: spectral ``e^{-iLt}`` for
    unitary walks, the eigenspace closed form for energy dephasing, and
    the dense superoperator exponential for site dephasing and custom
    jump sets. Precomputed factorizations are reused across time points.
    It evolves one matrix per call, which is what single-time quantities
    such as ``dqc`` use; K(s, t) sweeps batch every s sample instead, in
    the Laplacian eigenbasis for unitary and energy-dephasing walks and
    through :attr:`generator` otherwise (see ``nonclassicality``).
    """

    def __init__(self, graph: Graph, model: EvolutionModel):
        self.graph = graph
        self.model = model
        self._unitary_data: tuple[np.ndarray, np.ndarray] | None = None
        self._energy_data: tuple[list[np.ndarray], np.ndarray] | None = None
        if model.kind == "unitary":
            w, u = np.linalg.eigh(graph.laplacian)
            self._unitary_data = (w, u)
        elif model.kind == "energy-dephasing":
            spec = graph.spectrum
            self._energy_data = (spec.projectors(), spec.group_eigenvalues())

    @cached_property
    def generator(self) -> Superoperator:
        return make_generator(self.graph, self.model)

    def evolve_matrix(self, x: np.ndarray, t: float) -> np.ndarray:
        """Apply ``e^{Lt}`` to an arbitrary n x n matrix (not only states)."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if self._unitary_data is not None:
            w, u = self._unitary_data
            ut = (u * np.exp(-1j * w * t)) @ u.conj().T
            return ut @ x @ ut.conj().T
        if self._energy_data is not None:
            projectors, lam = self._energy_data
            return _energy_sum(projectors, lam, self.model.gamma, x, t)
        return self.generator.expm_apply(t, x)

    def density(self, rho0: DensityMatrix, t: float) -> DensityMatrix:
        return DensityMatrix(_hermitize(self.evolve_matrix(rho0.matrix, t)))

