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

K(s, t) profiles read site populations from one kernel,
``linalg._Modes.advance``, over the modes of the model's provider: the
Laplacian eigenbasis (unitary, energy dephasing) or the superoperator's
real factorization (site dephasing, custom), whose Pade exponential steps
where that factorization is refused.

Units: the hopping rate and hbar are both 1, so time and energy are
dimensionless. No operation mutates its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graphs import Graph, SpectralDecomposition
from .linalg import (HERMITICITY_TOL, IMAG_TOL, PROB_TOL, STATE_PSD_TOL, STATIONARY_TOL,
                     TRACE_TOL, Superoperator, _as_readonly, _check_square, _check_time,
                     _Modes, hermitian_coords, vectorize_lindblad)

MODEL_KINDS = ("unitary", "site-dephasing", "energy-dephasing", "custom")


def _hermitize(x: np.ndarray) -> np.ndarray:
    """Hermitian part of one matrix or of a stack of them (last two axes)."""
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (Hermitian, unit trace, PSD up to drift).

    ``matrix`` is one N x N matrix or a (k, N, N) stack of states, such as
    the N start states of ``dqc`` at one time; every check holds for each.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_square(self.matrix, "density matrix", stack=True)
        defect = np.abs(m - m.conj().swapaxes(-1, -2)).max()
        if defect > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.3e})")
        tr = np.ravel(np.trace(m, axis1=-2, axis2=-1))
        tr = tr[np.abs(tr - 1.0).argmax()]
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -STATE_PSD_TOL:
            raise ValueError(f"density matrix not PSD (eigenvalue {lo:.3e})")
        object.__setattr__(self, "matrix", _as_readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrix, axis1=-2, axis2=-1)).copy()


@dataclass(frozen=True)
class ClassicalDistribution:
    """Probability vector over graph sites, or a (k, n) stack of them, such as
    the n start nodes' classical walks of ``dqc`` at one time; every check
    holds for each row."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim not in (1, 2):
            raise ValueError(f"probabilities must be one vector or a stack, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if p.min() < -PROB_TOL:
            raise ValueError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        total = np.ravel(p.sum(axis=-1))
        total = total[np.abs(total - 1.0).argmax()]
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total:.15g}, not 1")
        object.__setattr__(self, "probs", _as_readonly(p))

    @property
    def dim(self) -> int:
        return self.probs.shape[-1]


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
        if self.gamma != 0 and self.kind in ("unitary", "custom"):
            raise ValueError(f"a {self.kind} model takes no gamma, got {self.gamma}")
        if self.jumps and self.kind != "custom":
            raise ValueError(f"a {self.kind} model takes no jump list; use kind 'custom'")

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
    """Vectorized Lindblad generator ``-i[L, .] + D`` for the chosen model.

    Site dephasing is the coherent part plus ``-gamma`` on the diagonal entry
    of every coherence ``|x><y|``, x != y: the n site projectors as jumps
    touch nothing else. It is built so, without the 3n Kronecker products of
    :func:`vectorize_lindblad`'s jump sum, yet bit for bit equal to it: each
    coherence takes the ``-gamma/2`` of its two jumps in turn, and ``+ 0.0``
    turns each ``-0.0`` into ``+0.0`` as that sum does.
    """
    n = graph.n
    if model.kind == "site-dephasing":
        m = vectorize_lindblad(graph.laplacian).matrix + 0.0
        coherences = np.flatnonzero(np.arange(n * n) % (n + 1))
        half = model.gamma * -0.5
        m[coherences, coherences] = (m[coherences, coherences] + half) + half
        return Superoperator(n, m)
    if model.kind == "unitary":
        jumps: list[tuple[float, np.ndarray]] = []
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


def propagate_energy_closed_form(graph: Graph, gamma: float, rho0: DensityMatrix,
                                 t: float) -> DensityMatrix:
    """Exact energy-dephasing evolution from the eigenspace double sum.

    ``rho(t) = sum_{a,b} P_a rho0 P_b exp(-i(l_a-l_b)t - (gamma/2)(l_a-l_b)^2 t)``
    over the eigenvalue groups of ``graph.spectrum``; populations in the
    energy eigenbasis are left unchanged and cross-eigenspace coherences decay.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    _check_time(t)
    if rho0.dim != graph.n:
        raise ValueError(f"state dim {rho0.dim} does not match graph size {graph.n}")
    spec = graph.spectrum
    out = _energy_sum(spec.projectors(), spec.group_eigenvalues(), gamma, rho0.matrix, t)
    return DensityMatrix(_hermitize(out))


def _energy_phase(lam: np.ndarray, gamma: float, a: int, b: int, t: float) -> complex:
    """``exp(-i(l_a-l_b)t - (gamma/2)(l_a-l_b)^2 t)``, the (a, b) weight of the double sum."""
    gap = lam[a] - lam[b]
    return np.exp((-1j * gap - 0.5 * gamma * gap * gap) * t)


def _energy_sum(projectors: list[np.ndarray], lam: np.ndarray, gamma: float,
                x: np.ndarray, t: float) -> np.ndarray:
    """``sum_{a,b} P_a x P_b exp(-i(l_a-l_b)t - (gamma/2)(l_a-l_b)^2 t)``, for
    one matrix x or for each matrix of a (k, n, n) stack."""
    out = np.zeros(np.shape(x), dtype=np.complex128)
    for a, pa in enumerate(projectors):
        left = pa @ x
        for b, pb in enumerate(projectors):
            out += _energy_phase(lam, gamma, a, b, t) * (left @ pb)
    return out


def _energy_sum_sites(projectors: list[np.ndarray], lam: np.ndarray, gamma: float,
                      nodes: np.ndarray, t: float) -> np.ndarray:
    """:func:`_energy_sum` of ``|nu><nu|`` for each node nu, as a (k, n, n) stack.

    The projectors are real-valued, so in ``(P_a |nu><nu|) P_b`` every term of
    both products is an exact zero but one: it is the outer product of column
    nu of P_a with row nu of P_b. Summed in the same (a, b) order from zeros,
    that gives :func:`_energy_sum`'s bits, signs of zero included, without
    its 2 G^2 matrix products. Each outer product is formed when used: all
    G^2 of them at once would take G^2 n^3 complex numbers.
    """
    n = projectors[0].shape[0]
    out = np.zeros((len(nodes), n, n), dtype=np.complex128)
    rows = [pb[nodes, None, :] for pb in projectors]
    for a, pa in enumerate(projectors):
        col = pa[:, nodes].T[:, :, None]
        for b, row in enumerate(rows):
            out += _energy_phase(lam, gamma, a, b, t) * (col * row)
    return out


def _site_projector_nodes(x, n: int) -> np.ndarray | None:
    """The node nu of each matrix of x (one n x n or a (k, n, n) stack) when
    each is bitwise the complex ``|nu><nu|``, else None."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.complex128 and x.ndim in (2, 3)
            and x.shape[-2:] == (n, n)):
        return None
    stack = x.reshape(-1, n, n)
    sites = np.arange(n)
    nodes = stack[:, sites, sites].real.argmax(axis=1)
    want = np.zeros_like(stack)
    want[np.arange(len(stack)), nodes, nodes] = 1.0
    return nodes if want.tobytes() == stack.tobytes() else None


def classical_propagate(graph: Graph, node, t: float) -> ClassicalDistribution:
    """Classical random-walk distribution: column ``nu`` of ``e^{-Lt}``; for a
    sequence of nodes, the (k, n) stack of their columns.

    ``U e^{-lambda t}`` is formed once per call, and each column is its own
    matrix-vector product with it, the arithmetic a single node takes: one
    product with all columns at once would round differently.
    """
    nodes = np.atleast_1d(np.asarray(node))
    for nu in nodes:
        if not 0 <= nu < graph.n:
            raise ValueError(f"node {nu} out of range for {graph.n} vertices")
    _check_time(t)
    spec = graph.spectrum
    u = spec.eigenvectors
    scaled = u * np.exp(-spec.eigenvalues * t)
    rows = u.conj()  # row nu is column nu of U^H
    p = np.array([scaled @ rows[nu] for nu in nodes])
    bad = np.abs(np.imag(p)).max()
    if bad > IMAG_TOL:
        raise ArithmeticError(f"classical distribution has imaginary part {bad:.3e}")
    return ClassicalDistribution(np.real(p if np.ndim(node) else p[0]))


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
    """Evolution engine for one (graph, model) pair, and the one place where
    a model kind picks its route. Each factorization is built on first use.

    :meth:`evolve_matrix` applies ``e^{Lt}`` to one matrix or to a (k, n, n)
    stack (the ``dqc`` start states), each with the arithmetic it has on its
    own: spectral ``e^{-iLt}`` (unitary), the eigenspace closed form (energy
    dephasing; for site projectors, its outer-product form with the same
    bits) or the superoperator exponential (site dephasing, custom).
    :meth:`_populations` feeds K(s, t) profiles: the Laplacian eigenbasis for
    unitary and energy dephasing, the superoperator otherwise. The two
    superoperator routes factor the generator apart: states its complex
    eigendecomposition, behind the residual gate; K profiles the real one of
    its real form, behind its own residual or a population probe. Where a
    gate refuses, each takes the generator's one real Pade exponential.
    """

    def __init__(self, graph: Graph, model: EvolutionModel):
        self.graph = graph
        self.model = model

    @cached_property
    def generator(self) -> Superoperator:
        return make_generator(self.graph, self.model)

    @cached_property
    def _laplacian_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.graph.laplacian)

    @cached_property
    def _group_projectors(self) -> tuple[list[np.ndarray], np.ndarray]:
        spec = self.graph.spectrum
        return spec.projectors(), spec.group_eigenvalues()

    def evolve_matrix(self, x: np.ndarray, t: float) -> np.ndarray:
        """Apply ``e^{Lt}`` to an arbitrary n x n matrix (not only states) or to
        each matrix of a (k, n, n) stack.

        Under energy dephasing, an x whose every matrix is bitwise a site
        projector ``|nu><nu|`` (the ``dqc`` start states) takes the outer-product
        form :func:`_energy_sum_sites` of the double sum, with the bits of
        :func:`_energy_sum`, which any other x takes.
        """
        _check_time(t)
        if self.model.kind == "unitary":
            w, u = self._laplacian_eigh
            ut = (u * np.exp(-1j * w * t)) @ u.conj().T
            return ut @ x @ ut.conj().T
        if self.model.kind == "energy-dephasing":
            projectors, lam = self._group_projectors
            nodes = _site_projector_nodes(x, self.graph.n)
            if nodes is None:
                return _energy_sum(projectors, lam, self.model.gamma, x, t)
            out = _energy_sum_sites(projectors, lam, self.model.gamma, nodes, t)
            return out.reshape(np.shape(x))
        return self.generator.expm_apply(t, x)

    def density(self, rho0: DensityMatrix, t: float) -> DensityMatrix:
        """The state at time t, or the stack of them for a stack of start states."""
        return DensityMatrix(_hermitize(self.evolve_matrix(rho0.matrix, t)))

    @cached_property
    def _eigen_modes(self) -> _Modes:
        return _eigen_modes(self.graph.spectrum, self.model.gamma)

    def _populations(self, rho0: np.ndarray, s: np.ndarray):
        """``(p, act)`` of rho0 on the grid s from this model's population provider."""
        if self.model.kind in ("unitary", "energy-dephasing"):
            u = self.graph.spectrum.eigenvectors
            c = (u.conj().T @ rho0 @ u)[np.triu_indices(len(u))]
            return _mode_populations(self._eigen_modes, c.view(np.float64), s)
        return _superop_populations(self.generator, rho0, s)


# Population providers for K(s, t) profiles. Each maps rho0 and a uniform grid
# s = linspace(0, t, q) to ``(p, act)``: ``p[k]`` holds the site populations
# of e^{L s_k} rho0, and ``act(P)[k] = G(s_k) P[k]`` for a (q, n) stack P, with
# ``G(tau)[x, y] = <x| e^{L tau}(|y><y|) |x>``. Both providers build
# :class:`_Modes` and run :func:`_mode_populations` over them; only the Pade
# fallback steps otherwise. Both are real float64 by construction; the caller
# still checks the imaginary residue.

def _eigen_modes(spec: SpectralDecomposition, gamma: float) -> _Modes:
    """The Laplacian eigenbasis as modes: unitary (gamma = 0) or energy dephasing.

    Both act there as ``X -> X o Phi(tau)``, ``Phi_ab = exp((-i(l_a - l_b) -
    (gamma/2)(l_a - l_b)^2) tau)``, so both parts are ``diag U (X o Phi(s_k)) U^H``,
    with ``X = U^H rho0 U`` for p and ``X = U^H diag(P_k) U = (P @ M)_k`` for G,
    where ``M[y, (a, b)] = conj(U_ya) U_yb``. Group-representative eigenvalues
    make Phi constant on degenerate blocks, so only the group projectors matter.

    Both X are Hermitian and ``Phi_ba = conj(Phi_ab)``, so the (b, a) term of
    the diagonal is the conjugate of the (a, b) term: the sum runs over the
    P = n(n+1)/2 pairs a <= b, each off-diagonal one counting twice its real
    part (a weight that the read-out carries). As ``Re(z conj(w)) = Re z Re w
    + Im z Im w``, the modes are the pairs, with no real mode: the rates are
    the exponents of Phi, the coordinates of X its entries ``X_ab`` as (Re, Im)
    float views, ``sites`` the float view of M and ``read`` that of the
    weighted M, transposed. The coordinates of rho0 are ``(U^H rho0 U)[a, b]``.

    The tables of :func:`_exp_grid` drop entries below ``sqrt(tiny)`` (about
    1.5e-154) from their two factors. The rates have ``Re <= 0``, so a term it
    drops is below ``2 sqrt(tiny) |X_ab| max|U|^2``, where ``|X_ab| <= 1`` for
    p and ``|X_ab| <= max|P_k|`` for G.
    """
    u = spec.eigenvectors
    a, b = np.triu_indices(len(u))
    lam = np.repeat(spec.group_eigenvalues(), [len(g) for g in spec.groups])
    gap = lam[a] - lam[b]
    m = _as_readonly(u.conj()[:, a] * u[:, b])  # C-contiguous, for its float view
    # a transposed view: a C-ordered copy would change the gemm's summation order
    read = (m * np.where(a == b, 1.0, 2.0)).view(np.float64).T
    return _Modes(gap * (-1j - 0.5 * gamma * gap), np.empty(0), m.view(np.float64), read)


def _mode_populations(modes: _Modes, c: np.ndarray, s: np.ndarray):
    """``(p, act)`` of the mode coordinates c (float) on the grid s, in real arithmetic.

    ``p = (e^{ws} o c) @ read`` and ``G(s) P = (e^{ws} o (P @ sites)) @ read``:
    two real gemms around the tables, which scale each real mode and rotate
    each complex one (its (Re, Im) coordinate pair, read as one complex
    number). Each table is the product of a coarse and a fine table of
    :func:`_exp_grid`, with entries below ``sqrt(tiny)`` dropped from each: a
    term it drops from p is below ``sqrt(tiny) max|read| max|c|`` (about
    1.5e-154 times that), and likewise for G.
    """
    pair, real = (np.ascontiguousarray(_exp_grid(w, s).T)
                  for w in (modes.rates, modes.real_rates))
    p = modes.advance(np.tile(c, (len(s), 1)), pair, real)
    return p, lambda pops: modes.advance(pops @ modes.sites, pair, real)


def _profile_factors(generator: Superoperator, rho0: np.ndarray):
    """``(modes, c)``: the modes of :attr:`Superoperator._real_modes`, built on
    first use, with rho0's mode coordinates c; None if K profiles of rho0 may
    not read them.

    A factorization that its residual gate refused may still be accurate on
    the columns a profile reads: the n site projectors and rho0, on the
    population rows. It is accepted if at each probe step h its ``[G(h) |
    p(h)]`` is within ``PROB_TOL`` of the Pade exponential's. The generator
    caches the verdict on G with the factorization, so each call compares
    only the p(h) column.
    """
    factors = generator._real_modes
    if factors is None:
        return None
    modes, inv, probed = factors
    r0 = hermitian_coords(rho0)
    c = inv @ r0
    if probed and not modes.meets(
            c[None], {h: rows @ r0 for h, rows in generator._probe_rows.items()}):
        return None
    return modes, c


def _exp_grid(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``e^{w s_k}`` for each w and each s_k of a uniform grid ``s_k = k h``.

    With ``b = ceil(sqrt(q))`` and ``k = j b + i``, ``e^{w s_k} = e^{w s_{jb}}
    e^{w s_i}``: a coarse table of ceil(q/b) columns times a fine one of b,
    about ``2 sqrt(q)`` exponentials per w instead of q. Entries of either
    table below ``sqrt(tiny)`` (about 1.5e-154) in modulus are set to zero,
    so no product of two kept ones is subnormal, which is slow arithmetic.
    A dropped product is below ``sqrt(tiny)`` times its other factor, which
    is at most 1 where ``Re w <= 0``.
    """
    q = len(s)
    b = int(np.ceil(np.sqrt(q)))
    coarse, fine = np.exp(np.outer(w, s[::b])), np.exp(np.outer(w, s[:b]))
    for table in (coarse, fine):
        table[np.abs(table) < np.sqrt(np.finfo(float).tiny)] = 0
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(w), coarse.shape[1] * b)[:, :q]


def _superop_populations(generator: Superoperator, rho0: np.ndarray, s: np.ndarray):
    """Populations through the modes of :func:`_profile_factors`, by
    :func:`_mode_populations`. Where it refuses the factorization, the
    generator's one Pade exponential (``Superoperator._expm_matrix``, real in
    Hermitian coordinates, as for states) steps along the grid, carrying rho0
    and the n site projectors (the columns of G).
    """
    n = generator.dim
    factors = _profile_factors(generator, rho0)
    if factors is not None:
        return _mode_populations(*factors, s)

    step = generator._expm_matrix(s[1])
    b = np.zeros((n * n, n + 1))
    b[:n, :n] = np.eye(n)
    b[:, n] = hermitian_coords(rho0)
    top = np.empty((len(s), n, n + 1))  # [G(s_k) | p(s_k)]
    top[0] = b[:n]
    for k in range(1, len(s)):
        b = step @ b
        top[k] = b[:n]
    g = top[:, :, :n]
    return top[:, :, n], lambda pops: np.einsum("kxy,ky->kx", g, pops)
