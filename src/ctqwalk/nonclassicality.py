"""Single-time and multi-time nonclassicality quantifiers for walks.

Multi-time statistics come from projective position measurements composed
with the semigroup propagator between measurement times (for Markovian
open dynamics this is the regression rule; for unitary dynamics it is the
textbook projective-measurement formula). The central quantity is

    K(s, t) = (1/2) sum_x | sum_y P(x,t; y,s) - P(x,t) |,

the total-variation distance between the outcome distribution at time t
with a marginalized intermediate measurement at time s and the
undisturbed single-time distribution. Any classical stochastic process
has K = 0 (marginalizing an unread measurement changes nothing), so
K > 0 certifies genuinely nonclassical temporal correlations. K reads
only the site populations p at the two times,

    K(s, t) = (1/2) sum_x | p_x(t) - [G(t-s) p(s)]_x |,

with ``G(tau)[x, y] = <x| e^{L tau}(|y><y|) |x>`` the population transfer
matrix. Sweeps evaluate every s of the uniform grid ``linspace(0, t, points)``
at once, with one reduction fed by the population provider that
``dynamics.Propagator`` picks for the model: the Laplacian eigenbasis
(unitary and energy dephasing) or the superoperator (site dephasing and
custom jumps). Both advance their mode coordinates by one kernel,
``linalg._Modes.advance``, and a sweep maps its final times serially.
:func:`kolmogorov_k` instead propagates the full difference
``rho(s) - Delta rho(s)`` for one s. ``kbar`` averages K(s, t) uniformly
over s in [0, t] with composite Simpson quadrature.

The single-time benchmark ``dqc`` is one minus the best quantum fidelity
between the walker's state and the diagonal state of the classical random
walk generated by the same Laplacian. The best case runs over the start
node, and all n start nodes of one time are evolved and compared as one
(n, n, n) stack. Its diagonal classical states take :func:`fidelity`'s
diagonal route, bit for bit its general one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import (
    DensityMatrix,
    EvolutionModel,
    Propagator,
    _hermitize,
    _superop_populations,
    classical_propagate,
    localized_state,
    make_generator,
    spectral_gap,
)
from .graphs import Graph, SpectralDecomposition
from .linalg import (IMAG_TOL, PROB_TOL, PSD_TOL, STATE_PSD_TOL, Superoperator,
                     _check_hermitian, _check_time, fidelity_tol, hermitian_sqrt)

DEFAULT_QUAD_POINTS = 201


def _unit_interval(x, what: str, tol: float = PROB_TOL):
    """``x`` clipped to [0, 1]; beyond ``tol`` of rounding it is an error."""
    lo, hi = np.min(x), np.max(x)
    if not (lo >= -tol and hi <= 1.0 + tol):
        raise ArithmeticError(f"{what} leaves [0, 1]: values span [{lo:.17g}, {hi:.17g}]")
    return np.clip(x, 0.0, 1.0)


def _k_from_diagonal(diag: np.ndarray) -> np.ndarray:
    """K from measured diagonals (..., n): half their l1 norm, as for two distributions."""
    bad = np.abs(diag.imag).max()
    if bad > IMAG_TOL:
        raise ArithmeticError(f"measured diagonal has imaginary part {bad:.3e}")
    return _unit_interval(0.5 * np.abs(diag.real).sum(axis=-1), "K")


def _simpson_mean(vals: np.ndarray, t: float) -> float:
    """Composite-Simpson mean over [0, t] of samples on ``linspace(0, t, len(vals))``."""
    q = len(vals)
    w = np.ones(q)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = (t / (q - 1)) / 3.0 * np.dot(w, vals)
    return float(_unit_interval(integral / t, "mean of K"))


def _check_times(times) -> np.ndarray:
    """Final times as a float array; each must be finite and positive."""
    t = np.asarray(times, dtype=np.float64)
    if not np.all((0 < t) & (t < np.inf)):
        raise ValueError("times must be finite and positive")
    return t


def _check_quad_points(quad_points: int) -> int:
    q = int(quad_points)
    if q < 3 or q % 2 == 0:
        raise ValueError(f"quad_points must be odd and >= 3, got {quad_points}")
    return q


# ---------------------------------------------------------------------------
# Multi-time probabilities (regression rule)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementRecord:
    """Sequence of (time, site outcome) pairs with nondecreasing times."""

    times: tuple[float, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self):
        if len(self.times) == 0:
            raise ValueError("measurement record must be nonempty")
        if len(self.times) != len(self.outcomes):
            raise ValueError("times and outcomes must have equal length")
        for t in self.times:
            _check_time(t, "measurement time")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("measurement times must be nondecreasing")


def multi_time_prob(generator: Superoperator, rho0: DensityMatrix,
                    record: MeasurementRecord) -> float:
    """Joint probability of a sequence of site outcomes at given times.

    Alternates semigroup propagation over each interval with projection
    ``rho -> Pi_x rho Pi_x`` onto the measured site. A weight beyond
    ``PROB_TOL`` of [0, 1] raises ``ArithmeticError``.
    """
    n = generator.dim
    if rho0.dim != n:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {n}")
    if any(not 0 <= x < n for x in record.outcomes):
        raise ValueError(f"outcome out of range for {n} sites")
    x_mat = np.asarray(rho0.matrix, dtype=np.complex128)
    prev = 0.0
    weight = 0j
    for t_i, x_i in zip(record.times, record.outcomes):
        x_mat = generator.expm_apply(t_i - prev, x_mat)
        weight = x_mat[x_i, x_i]
        x_mat = np.zeros((n, n), dtype=np.complex128)
        x_mat[x_i, x_i] = weight
        prev = t_i
    if abs(weight.imag) > IMAG_TOL:
        raise ArithmeticError(f"joint probability has imaginary part {weight.imag:.3e}")
    return float(_unit_interval(weight.real, "joint probability"))


# ---------------------------------------------------------------------------
# Kolmogorov consistency violation K(s, t) and its time average
# ---------------------------------------------------------------------------

def kolmogorov_k(generator: Superoperator, rho0: DensityMatrix,
                 s: float, t: float) -> float:
    """Consistency violation K(s, t) for one intermediate time s <= t."""
    _check_time(s, "s")
    _check_time(t, "t")
    if not s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    rho_s = _hermitize(generator.expm_apply(s, rho0.matrix))
    delta = rho_s - np.diag(np.diagonal(rho_s))
    out = generator.expm_apply(t - s, delta)
    return float(_k_from_diagonal(np.diagonal(out)))


def _k_profile(populations, rho0_mat: np.ndarray, t: float, points: int) -> np.ndarray:
    """K(s_k, t) for every s_k in ``linspace(0, t, points)``, from a route's
    ``populations(rho0, s) -> (p, act)`` (``dynamics.Propagator._populations``).

    ``K(s_k, t) = (1/2) sum_x |p(t) - G(t - s_k) p(s_k)|_x``; on the uniform
    grid ``t - s_k = s_{points-1-k}``, so the second term is ``act`` on the
    reversed populations, reversed back.
    """
    p, act = populations(rho0_mat, np.linspace(0.0, t, points))
    return _k_from_diagonal(p[-1] - act(p[::-1])[::-1])


def kbar(generator: Superoperator, rho0: DensityMatrix, t: float,
         quad_points: int = DEFAULT_QUAD_POINTS) -> float:
    """Time average of K(s, t) over s in [0, t], composite Simpson."""
    _check_times(t)
    q = _check_quad_points(quad_points)
    profile = _k_profile(partial(_superop_populations, generator), rho0.matrix, t, q)
    return _simpson_mean(profile, t)


@dataclass(frozen=True)
class KbarCurve:
    """Time series of the averaged violation on an ascending grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")
        if not np.all((self.values >= 0) & (self.values <= 1)):
            raise ValueError("values must lie in [0, 1]")


def kbar_curve(graph: Graph, model: EvolutionModel, node: int,
               times: Sequence[float],
               quad_points: int = DEFAULT_QUAD_POINTS) -> KbarCurve:
    """Averaged violation on a grid of final times, one quadrature per point.

    One :class:`Propagator` serves the grid, so its factorization and tables
    are built by the first point and read by the rest.
    """
    q = _check_quad_points(quad_points)
    prop = Propagator(graph, model)
    rho0 = localized_state(graph, node).matrix
    t_arr = _check_times(list(times))
    values = [_simpson_mean(_k_profile(prop._populations, rho0, t, q), t) for t in t_arr]
    return KbarCurve(times=t_arr, values=np.array(values, dtype=np.float64))


def k_slice(graph: Graph, model: EvolutionModel, node: int, t: float,
            s_points: int) -> tuple[np.ndarray, np.ndarray]:
    """K(s, t) at fixed t over a uniform s grid with ``s_points`` intervals."""
    _check_times(t)
    if s_points < 1:
        raise ValueError("s_points must be >= 1")
    prop = Propagator(graph, model)
    rho0 = localized_state(graph, node).matrix
    return np.linspace(0.0, t, s_points + 1), _k_profile(prop._populations, rho0, t, s_points + 1)


# ---------------------------------------------------------------------------
# Quantum-classical dynamical distance
# ---------------------------------------------------------------------------

def fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float | np.ndarray:
    """Quantum fidelity ``[Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2``.

    For stacks of states it is the fidelity of each pair, as an array; each
    pair takes the same arithmetic as on its own. Where ``rho1`` is exactly
    diagonal (the classical states of ``dqc``), ``sqrt(rho1)`` is ``diag(sqrt
    p)`` and the product scales the rows and columns of ``rho2``: the bits of
    the eigendecomposition and the two matrix products, which every other
    ``rho1`` takes. Either way ``rho1`` must be Hermitian and PSD to
    ``PSD_TOL``. Eigenvalues of the product below ``-STATE_PSD_TOL``, the drift
    a state may carry, raise ``ArithmeticError``, and so does a value beyond
    :func:`~ctqwalk.linalg.fidelity_tol` of [0, 1], the rounding that square
    roots of near-zero eigenvalues allow; within those bounds both are clipped.
    """
    if rho1.dim != rho2.dim:
        raise ValueError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    m1, m2 = rho1.matrix, rho2.matrix
    diag = np.diagonal(m1, axis1=-2, axis2=-1)
    if np.count_nonzero(m1) == np.count_nonzero(diag):
        _check_hermitian(m1, stack=True)
        p = diag.real
        if p.min() < -PSD_TOL:
            raise ValueError(f"matrix is not PSD: smallest eigenvalue {p.min():.3e}")
        root = np.sqrt(np.clip(p, 0.0, None))
        product = root[..., :, None] * m2 * root[..., None, :]
    else:
        root = hermitian_sqrt(m1)
        product = root @ m2 @ root
    w = np.linalg.eigvalsh(product)
    if w.min() < -STATE_PSD_TOL:
        raise ArithmeticError(f"fidelity operator not PSD (eigenvalue {w.min():.3e})")
    # np.square, not ** 2: a scalar's ** 2 is pow(), which can round apart from a stack's x*x
    value = np.square(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1))
    value = _unit_interval(value, "fidelity", fidelity_tol(rho1.dim))
    return float(value) if value.ndim == 0 else value


def _start_states(graph: Graph, nodes: Sequence[int]) -> DensityMatrix:
    """``|nu><nu|`` for each node, as one (len(nodes), n, n) stack."""
    return DensityMatrix(np.array([localized_state(graph, nu).matrix for nu in nodes]))


def _dqc_distances(prop: Propagator, nodes: Sequence[int], starts: DensityMatrix,
                   t: float) -> np.ndarray:
    """``1 - F`` at time t for each start node, whose states ``starts`` holds:
    one stacked evolution, one stacked classical walk (``U e^{-lambda t}``
    formed once, one matrix-vector product per node), one stacked fidelity
    on its diagonal route."""
    rho_t = prop.density(starts, t)
    classical = np.zeros(rho_t.matrix.shape, dtype=np.complex128)
    sites = np.arange(prop.graph.n)
    classical[:, sites, sites] = classical_propagate(prop.graph, nodes, t).probs
    return 1.0 - fidelity(DensityMatrix(classical), rho_t)


def dqc_node(graph: Graph, model: EvolutionModel, node: int, t: float) -> float:
    """Distance 1 - F between the walker started at ``node`` and the
    diagonal state of the classical walk started at the same node."""
    starts = _start_states(graph, [node])
    return float(_dqc_distances(Propagator(graph, model), [node], starts, t)[0])


def dqc(graph: Graph, model: EvolutionModel, t: float) -> float:
    """Quantum-classical dynamical distance, best case over the start node."""
    return float(dqc_curve(graph, model, [t])[1][0])


def dqc_curve(graph: Graph, model: EvolutionModel,
              times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dqc` at each nonnegative time of a grid, as ``(times, values)``.

    One :class:`Propagator` serves the grid. Per time, the states of all n
    start nodes evolve as one (n, n, n) stack (under energy dephasing, as
    outer products of projector columns: the start states are site
    projectors), each node's classical walk is one column of ``e^{-Lt}``
    from one ``U e^{-lambda t}``, and one stacked fidelity compares them, on
    its diagonal route: the classical states are diagonal. Each node's
    arithmetic is the same as :func:`dqc_node` gives it on its own, so the
    values do not depend on the batching, and each route keeps the bits of
    the general one it replaces.
    """
    prop = Propagator(graph, model)
    nodes = range(graph.n)
    starts = _start_states(graph, nodes)
    t_arr = np.asarray(list(times), dtype=np.float64)
    values = np.array([_dqc_distances(prop, nodes, starts, t).min() for t in t_arr])
    return t_arr, values


# ---------------------------------------------------------------------------
# Closed-form short-time coefficients, asymptotics, and bounds
# ---------------------------------------------------------------------------

class ShortTimeCoeffs(NamedTuple):
    """Leading coefficients of the averaged violation, kbar ~ c2 t^2 + c3 t^3.

    ``cubic`` is None when no closed form exists (energy dephasing).
    """

    quadratic: float
    cubic: float | None


def _double_commutator(laplacian: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second power of the coherent part: -[L, [L, x]]."""
    inner = laplacian @ x - x @ laplacian
    return -(laplacian @ inner - inner @ laplacian)


def short_time_coeffs(graph: Graph, node: int,
                      model: EvolutionModel) -> ShortTimeCoeffs:
    """Predicted small-t expansion coefficients of the averaged violation.

    Unitary: (d/3, 0). Site dephasing: (d/3, -gamma d/6) -- the dissipator
    first touches populations at third order. Energy dephasing:
    ((1/12) sum_x |A_x + (gamma^2/4) B_x|, None) with
    ``A_x = <x| C^2 rho0 |x>`` and ``B_x = <x| C^2 (1-Delta) C^2 rho0 |x>``
    where C^2 is the squared coherent generator; decoherence enters already
    at second order because it acts in a basis unlike the measured one.
    """
    if not 0 <= node < graph.n:
        raise ValueError(f"node {node} out of range for {graph.n} vertices")
    degree = float(graph.degrees[node])
    if model.kind == "unitary":
        return ShortTimeCoeffs(degree / 3.0, 0.0)
    if model.kind == "site-dephasing":
        return ShortTimeCoeffs(degree / 3.0, -model.gamma * degree / 6.0)
    if model.kind == "energy-dephasing":
        rho0 = localized_state(graph, node).matrix
        m1 = _double_commutator(graph.laplacian, rho0)
        a = np.real(np.diagonal(m1))
        m2 = m1 - np.diag(np.diagonal(m1))
        b = np.real(np.diagonal(_double_commutator(graph.laplacian, m2)))
        c2 = float(np.abs(a + (model.gamma ** 2 / 4.0) * b).sum() / 12.0)
        return ShortTimeCoeffs(c2, None)
    raise ValueError(f"no short-time expansion for model kind {model.kind!r}")


def eigenspace_overlap_matrix(spec: SpectralDecomposition) -> np.ndarray:
    """Matrix ``F[x, y] = sum_groups |<x| P_g |y>|^2``.

    Symmetric and doubly stochastic (rows sum to 1 because the group
    projectors resolve the identity); it fixes the long-time behavior of
    the averaged violation under energy dephasing.
    """
    out = np.zeros((spec.eigenvectors.shape[0],) * 2)
    for g in range(len(spec.groups)):
        out += np.abs(spec.projector(g)) ** 2
    return out


def asymptotic_kbar_energy(graph: Graph, node: int) -> float:
    """Long-time limit of the averaged violation under energy dephasing.

    Equals ``(1/2) sum_x |(F - F^2)[x, node]|`` with F the eigenspace
    overlap matrix of ``graph.spectrum``; strictly positive whenever the
    Laplacian eigenvectors are delocalized over the sites, degenerate or not.
    """
    if not 0 <= node < graph.n:
        raise ValueError(f"node {node} out of range for {graph.n} vertices")
    f = eigenspace_overlap_matrix(graph.spectrum)
    return float(0.5 * np.abs((f - f @ f)[:, node]).sum())


def kbar_bound_site_dephasing(graph: Graph, gamma: float, t: float,
                              mu2: float | None = None) -> float:
    """Upper bound ``sqrt(N) (1 - e^{-mu2 t}) / (mu2 t)`` on the averaged
    violation under site dephasing on a connected graph.

    ``mu2`` is the spectral gap of the generator (computed here unless
    supplied). The bound decreases monotonically from sqrt(N) at t -> 0.
    """
    if not graph.connected:
        raise ValueError("bound requires a connected graph (unique stationary state)")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not 0 < t < np.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    if mu2 is not None and not 0 < mu2 < np.inf:
        raise ValueError(f"mu2 must be finite and positive, got {mu2}")
    if mu2 is None:
        gen = make_generator(graph, EvolutionModel.site_dephasing(gamma))
        gap = spectral_gap(gen)
        if not gap.has_decay:
            raise ValueError("generator has no decaying eigenvalue")
        mu2 = gap.value
    x = mu2 * t
    return float(np.sqrt(graph.n) * (-np.expm1(-x)) / x)


__all__ = [
    "DEFAULT_QUAD_POINTS",
    "MeasurementRecord",
    "KbarCurve",
    "ShortTimeCoeffs",
    "multi_time_prob",
    "kolmogorov_k",
    "kbar",
    "kbar_curve",
    "k_slice",
    "fidelity",
    "dqc",
    "dqc_node",
    "dqc_curve",
    "short_time_coeffs",
    "eigenspace_overlap_matrix",
    "asymptotic_kbar_energy",
    "kbar_bound_site_dephasing",
]
