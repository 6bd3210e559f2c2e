import itertools
from functools import cached_property, partial
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqwalk import (
    DensityMatrix,
    EvolutionModel,
    KbarCurve,
    MeasurementRecord,
    Propagator,
    Superoperator,
    asymptotic_kbar_energy,
    build_graph,
    classical_propagate,
    dqc,
    dqc_curve,
    dqc_node,
    eigenspace_overlap_matrix,
    fidelity,
    k_slice,
    kbar,
    kbar_bound_site_dephasing,
    kbar_curve,
    kolmogorov_k,
    localized_state,
    make_generator,
    multi_time_prob,
    propagate,
    short_time_coeffs,
    spectral_decompose,
)
import ctqwalk.dynamics
import ctqwalk.nonclassicality
from ctqwalk.dynamics import _profile_factors, _superop_populations
from ctqwalk.linalg import STATE_PSD_TOL, _Modes, fidelity_tol, hermitian_sqrt
from ctqwalk.nonclassicality import (_dqc_distances, _k_from_diagonal, _k_profile, _simpson_mean,
                                     _start_states)
from conftest import (apply_map, bits, connected_graphs, expm_spy, expm_steps, forced_pade,
                      random_density)


def _two_site_unitary():
    g = build_graph("cycle", 2)
    return g, make_generator(g, EvolutionModel.unitary())


# --- multi-time probabilities -------------------------------------------------

def test_record_validation():
    with pytest.raises(ValueError, match="nonempty"):
        MeasurementRecord(times=(), outcomes=())
    with pytest.raises(ValueError, match="nondecreasing"):
        MeasurementRecord(times=(1.0, 0.5), outcomes=(0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        MeasurementRecord(times=(-1.0,), outcomes=(0,))
    for bad in (np.nan, np.inf):  # at any position, not only the first
        with pytest.raises(ValueError, match="finite"):
            MeasurementRecord(times=(0.5, bad), outcomes=(0, 0))
    with pytest.raises(ValueError, match="equal length"):
        MeasurementRecord(times=(0.5,), outcomes=(0, 1))


def test_single_measurement_two_site_law():
    g, gen = _two_site_unitary()
    rho0 = localized_state(g, 1)
    for t in (0.3, 1.1, 2.0):
        p = multi_time_prob(gen, rho0, MeasurementRecord((t,), (1,)))
        assert abs(p - 0.5 * (1 + np.cos(2 * t))) < 1e-10


def test_repeated_measurement_is_projective():
    g = build_graph("cycle", 3)
    gen = make_generator(g, EvolutionModel.site_dephasing(0.4))
    rho0 = localized_state(g, 0)
    t = 0.9
    for x1 in range(3):
        p1 = multi_time_prob(gen, rho0, MeasurementRecord((t,), (x1,)))
        for x2 in range(3):
            p12 = multi_time_prob(gen, rho0, MeasurementRecord((t, t), (x1, x2)))
            expected = p1 if x2 == x1 else 0.0
            assert abs(p12 - expected) < 1e-12


def test_three_time_outcomes_sum_to_one():
    g = build_graph("cycle", 4)
    gen = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, 0)
    times = (0.4, 0.9, 1.7)
    total = sum(
        multi_time_prob(gen, rho0, MeasurementRecord(times, outcomes))
        for outcomes in itertools.product(range(4), repeat=3)
    )
    assert abs(total - 1.0) < 1e-10


def test_multi_time_prob_outside_the_unit_interval_raises():
    # a measured weight of 1.5 is an error, not a probability clamped to 1
    g, gen = _two_site_unitary()
    rho0 = localized_state(g, 0)
    record = MeasurementRecord((0.5,), (0,))
    with mock.patch.object(Superoperator, "expm_apply",
                           lambda self, t, x: np.diag([1.5, -0.5]).astype(complex)):
        with pytest.raises(ArithmeticError, match=r"\[0, 1\]"):
            multi_time_prob(gen, rho0, record)
    with mock.patch.object(Superoperator, "expm_apply",
                           lambda self, t, x: np.diag([1.0 + 1e-13, 0.0]).astype(complex)):
        assert multi_time_prob(gen, rho0, record) == 1.0
    with mock.patch.object(Superoperator, "expm_apply",
                           lambda self, t, x: np.diag([0.5 + 1e-6j, 0.5]).astype(complex)):
        with pytest.raises(ArithmeticError, match="imaginary"):
            multi_time_prob(gen, rho0, record)


def test_multi_time_outcome_range_check():
    g, gen = _two_site_unitary()
    with pytest.raises(ValueError, match="range"):
        multi_time_prob(gen, localized_state(g, 0), MeasurementRecord((1.0,), (2,)))


def test_one_time_probs_match_populations():
    g = build_graph("cycle", 4)
    gen = make_generator(g, EvolutionModel.site_dephasing(0.6))
    rho0 = localized_state(g, 2)
    p0 = propagate(gen, rho0, 0.0).populations()
    assert np.abs(p0 - np.eye(4)[2]).max() < 1e-12
    pt = propagate(gen, rho0, 1.2).populations()
    assert abs(pt.sum() - 1.0) < 1e-12
    singles = [multi_time_prob(gen, rho0, MeasurementRecord((1.2,), (x,)))
               for x in range(4)]
    assert np.abs(pt - singles).max() < 1e-10


# --- K(s, t) -------------------------------------------------------------------

def test_k_zero_at_boundaries_for_localized_states():
    g = build_graph("cycle", 5)
    for model in (EvolutionModel.unitary(), EvolutionModel.site_dephasing(0.7)):
        gen = make_generator(g, model)
        rho0 = localized_state(g, 0)
        assert kolmogorov_k(gen, rho0, 0.0, 1.3) == 0.0
        assert kolmogorov_k(gen, rho0, 1.3, 1.3) == 0.0


def test_two_site_k_closed_form():
    g, gen = _two_site_unitary()
    rho0 = localized_state(g, 1)
    assert abs(kolmogorov_k(gen, rho0, np.pi / 8, np.pi / 4) - 0.25) < 1e-12
    for s, t in [(0.2, 0.5), (0.7, 1.9), (1.0, 3.0)]:
        expected = 0.5 * abs(np.sin(2 * s) * np.sin(2 * (t - s)))
        assert abs(kolmogorov_k(gen, rho0, s, t) - expected) < 1e-10


def test_complete_graph_k_closed_form():
    n = 5
    g = build_graph("complete", n)
    gen = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, 0)

    def p_out(t):
        return (4.0 / n**2) * np.sin(n * t / 2) ** 2

    for s, t in [(0.3, 0.8), (0.5, 1.7), (1.1, 2.9)]:
        expected = (n - 1) * abs(
            p_out(t - s) + p_out(s) - n * p_out(t - s) * p_out(s) - p_out(t))
        assert abs(kolmogorov_k(gen, rho0, s, t) - expected) < 1e-10


def test_k_equals_explicit_marginalization():
    g = build_graph("path", 3)
    gen = make_generator(g, EvolutionModel.site_dephasing(0.5))
    rho0 = localized_state(g, 1)
    s, t = 0.6, 1.4
    total = 0.0
    pt = propagate(gen, rho0, t).populations()
    for x in range(3):
        marginal = sum(
            multi_time_prob(gen, rho0, MeasurementRecord((s, t), (y, x)))
            for y in range(3))
        total += abs(marginal - pt[x])
    assert abs(kolmogorov_k(gen, rho0, s, t) - 0.5 * total) < 1e-10


def test_k_rejects_reversed_times():
    g, gen = _two_site_unitary()
    with pytest.raises(ValueError):
        kolmogorov_k(gen, localized_state(g, 0), 1.0, 0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            kolmogorov_k(gen, localized_state(g, 0), bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            kolmogorov_k(gen, localized_state(g, 0), 0.5, bad)


def test_large_imaginary_parts_are_an_error_not_a_clip(rng):
    # a map that does not preserve Hermiticity leaves large imaginary
    # diagonals; that must raise rather than be silently clipped
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    broken = Superoperator(2, m)
    g = build_graph("cycle", 2)
    with pytest.raises(ArithmeticError, match="imaginary"):
        kolmogorov_k(broken, localized_state(g, 0), 0.5, 1.0)
    # K profiles read its real form on every route, the default one too
    with pytest.raises(ArithmeticError, match="Hermiticity"):
        kbar(broken, localized_state(g, 0), 1.0)
    # the Pade branch works in real Hermitian coordinates, which such a map has not
    with forced_pade():
        with pytest.raises(ArithmeticError, match="Hermiticity"):
            kbar(broken, localized_state(g, 0), 1.0)
        with pytest.raises(ArithmeticError, match="Hermiticity"):
            broken.expm_apply(0.5, np.eye(2))


# --- kbar ------------------------------------------------------------------------

def test_kbar_two_site_quarter():
    g, gen = _two_site_unitary()
    assert abs(kbar(gen, localized_state(g, 1), np.pi / 2) - 0.25) < 1e-8


@pytest.mark.parametrize("topology,n,node", [("cycle", 6, 0), ("complete", 6, 0),
                                             ("path", 3, 0), ("path", 3, 1)])
def test_kbar_short_time_scaling(topology, n, node):
    g = build_graph(topology, n)
    gen = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, node)
    t = 1e-3
    expected = g.degrees[node] / 3.0
    assert abs(kbar(gen, rho0, t) / t**2 - expected) < 1e-3 * expected


def test_kbar_quadrature_converged():
    g = build_graph("cycle", 4)
    gen = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, 0)
    coarse = kbar(gen, rho0, 1.0, quad_points=201)
    fine = kbar(gen, rho0, 1.0, quad_points=401)
    assert abs(coarse - fine) < 1e-6


def test_kbar_validation():
    g, gen = _two_site_unitary()
    rho0 = localized_state(g, 0)
    with pytest.raises(ValueError):
        kbar(gen, rho0, 0.0)
    with pytest.raises(ValueError, match="odd"):
        kbar(gen, rho0, 1.0, quad_points=10)
    with pytest.raises(ValueError, match="odd"):
        kbar(gen, rho0, 1.0, quad_points=1)
    # non-finite times are rejected, not swept into NaN values
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            kbar(gen, rho0, bad)
        with pytest.raises(ValueError, match="finite"):
            kbar_curve(g, EvolutionModel.unitary(), 0, [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            k_slice(g, EvolutionModel.unitary(), 0, bad, 4)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        KbarCurve(times=np.array([1.0, 2.0]), values=np.array([0.5, np.nan]))


def test_kbar_curve_vanishes_toward_t0():
    g = build_graph("cycle", 4)
    curve = kbar_curve(g, EvolutionModel.unitary(), 0, [1e-4, 1e-3])
    assert curve.values[0] < 1e-7
    assert curve.values[0] < curve.values[1]


def test_kbar_curve_matches_pointwise_kbar():
    g = build_graph("cycle", 3)
    model = EvolutionModel.site_dephasing(0.8)
    gen = make_generator(g, model)
    rho0 = localized_state(g, 0)
    times = [0.5, 1.0, 2.0]
    curve = kbar_curve(g, model, 0, times)
    for t, v in zip(curve.times, curve.values):
        assert abs(v - kbar(gen, rho0, t)) < 1e-12


def test_kbar_curve_builds_the_eigenbasis_pair_tables_once():
    modes = ctqwalk.dynamics._eigen_modes
    with mock.patch.object(ctqwalk.dynamics, "_eigen_modes", wraps=modes) as spy:
        kbar_curve(build_graph("cycle", 6), EvolutionModel.energy_dephasing(0.7), 0,
                   np.linspace(0.1, 3.0, 30))
    assert spy.call_count == 1


@pytest.mark.parametrize("topology", ["cycle", "complete"])
def test_site_dephasing_kbar_curve_runs_one_real_eigensolve(topology):
    # cycle-16 passes the real residual gate and complete-16 the probe; a
    # factorization the probe refused would step Pade, so either way the
    # complex eigendecomposition that states read is never needed
    g, model = build_graph(topology, 16), EvolutionModel.site_dephasing(1.0)
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
            mock.patch.object(ctqwalk.dynamics, "_profile_factors",
                              wraps=_profile_factors) as factors:
        kbar_curve(g, model, 0, np.linspace(0.5, 15.0, 30), quad_points=41)
    assert eig.call_count == 1 and eig.call_args.args[0].dtype == np.float64
    assert "_eig" not in vars(factors.call_args.args[0])


def test_site_dephasing_dqc_curve_never_builds_the_real_factorization():
    spy = mock.Mock(side_effect=Superoperator.__dict__["_real_modes"].func)
    counted = cached_property(spy)
    counted.__set_name__(Superoperator, "_real_modes")
    with mock.patch.object(Superoperator, "_real_modes", counted), \
            mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
        dqc_curve(build_graph("cycle", 16), EvolutionModel.site_dephasing(1.0),
                  np.linspace(0.1, 5.0, 10))
    assert spy.call_count == 0
    assert [c.args[0].dtype for c in eig.call_args_list] == [np.complex128]


def test_k_and_kbar_outside_the_unit_interval_raise():
    # K and its positive-weight means lie in [0, 1]: rounding within PROB_TOL
    # is clipped, anything further out is an error, not clamped
    with pytest.raises(ArithmeticError, match=r"\[0, 1\]"):
        _k_from_diagonal(np.array([[1.5, 1.0]]))
    with pytest.raises(ArithmeticError, match=r"\[0, 1\]"):
        _simpson_mean(np.full(5, 1.2), 1.0)
    assert _k_from_diagonal(np.array([[1.0, 1.0 + 1e-13]]))[0] == 1.0
    assert _simpson_mean(np.full(5, 1.0 + 1e-13), 1.0) == 1.0
    assert _simpson_mean(np.full(5, -1e-13), 1.0) == 0.0


def test_kbar_curve_model_routes_agree(rng):
    # n-space eigenbasis kernel vs superoperator route, K and kbar
    irregular = np.zeros((6, 6), dtype=int)
    for j, k in ((0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)):
        irregular[j, k] = irregular[k, j] = 1
    cases = [
        (build_graph("cycle", 4), 0),
        (build_graph("complete", 6), 0),  # 5-fold degenerate eigenvalue group
        (build_graph("path", 5), 0),      # nondegenerate spectrum
        (build_graph("path", 5), 2),
        (build_graph("custom", adjacency=irregular), 0),
        (build_graph("custom", adjacency=irregular), 5),
    ]
    times = [0.4, 1.1, 2.3]
    for g, node in cases:
        for model in (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(0.6)):
            gen = make_generator(g, model)
            rho0 = localized_state(g, node)
            curve = kbar_curve(g, model, node, times)
            for t, v in zip(curve.times, curve.values):
                assert abs(v - kbar(gen, rho0, t)) < 1e-10
            s_vals, k_vals = k_slice(g, model, node, 1.7, 12)
            for s, k in zip(s_vals, k_vals):
                assert abs(k - kolmogorov_k(gen, rho0, s, 1.7)) < 1e-10

    # superoperator spectral branch vs its Pade branch, forced on
    # well-conditioned generators, vs one-s-at-a-time kolmogorov_k
    hop = np.zeros((4, 4))
    hop[0, 1] = 1.0  # |0><1|: not Hermitian, so the dissipator is not a dephasing
    custom = EvolutionModel.custom([(0.8, hop), (0.3, np.diag([1.0, 0.0, 2.0, 0.0]))])
    cases = [
        (build_graph("cycle", 6), EvolutionModel.site_dephasing(1.0), 0),
        (build_graph("complete", 6), EvolutionModel.site_dephasing(50.0), 0),
        (build_graph("path", 5), EvolutionModel.site_dephasing(1.0), 2),
        (build_graph("cycle", 4), custom, 1),
    ]
    for g, model, node in cases:
        gen = make_generator(g, model)
        assert gen.spectral_factors() is not None
        rho0 = localized_state(g, node)
        mixed = DensityMatrix(random_density(rng, g.n))  # complex coherences
        s_vals, spectral = k_slice(g, model, node, 1.7, 12)
        curve = kbar_curve(g, model, node, times)
        with forced_pade() as spy:
            pade = k_slice(g, model, node, 1.7, 12)[1]
            pade_curve = kbar_curve(g, model, node, times)
            pade_mixed = kbar(gen, mixed, 1.7)  # gen's factorization is cached
        # each profile really stepped with the Pade exponential of its grid step
        assert expm_steps(spy) == [s_vals[1]] + [t / 200 for t in times] + [1.7 / 200]
        assert np.abs(pade - spectral).max() < 1e-10
        assert np.abs(pade_curve.values - curve.values).max() < 1e-10
        assert abs(pade_mixed - kbar(gen, mixed, 1.7)) < 1e-10
        for s, k in zip(s_vals, pade):
            assert abs(k - kolmogorov_k(gen, rho0, s, 1.7)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(g=connected_graphs(), data=st.data())
def test_routes_agree_on_random_connected_graphs(g, data):
    node = data.draw(st.integers(0, g.n - 1), label="node")
    t = data.draw(st.floats(0.1, 5.0), label="t")
    gamma = data.draw(st.floats(0.1, 2.0), label="gamma")
    rho0 = localized_state(g, node)
    models = (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(gamma),
              EvolutionModel.site_dephasing(gamma))
    # eigenbasis profile vs one-s-at-a-time K on the superoperator
    for model in models[:2]:
        s_vals, k_vals = k_slice(g, model, node, t, 8)
        gen = make_generator(g, model)
        ref = [kolmogorov_k(gen, rho0, s, t) for s in s_vals]
        assert np.abs(k_vals - ref).max() < 1e-10, model.kind
    # superoperator spectral profile vs the Pade profile, forced on
    spectral = k_slice(g, models[2], node, t, 8)[1]
    with forced_pade() as spy:
        s_vals, pade = k_slice(g, models[2], node, t, 8)
    assert expm_steps(spy) == [s_vals[1]]
    assert np.abs(spectral - pade).max() < 1e-10
    for model in models:
        tau = data.draw(st.floats(0.0, 10.0), label="tau")
        rho = Propagator(g, model).density(rho0, tau).matrix
        assert abs(np.trace(rho) - 1.0) < 1e-10, model.kind


def test_k_slice_profile():
    g = build_graph("cycle", 2)
    s_vals, k_vals = k_slice(g, EvolutionModel.unitary(), 1, np.pi / 2, 100)
    assert k_vals[0] < 1e-12 and k_vals[-1] < 1e-12
    peak = np.argmax(k_vals)
    assert abs(s_vals[peak] - np.pi / 4) < 0.02
    assert abs(k_vals[peak] - 0.5) < 1e-6
    # symmetric in s about t/2 for this model
    assert np.abs(k_vals - k_vals[::-1]).max() < 1e-10


def test_k_slice_meets_the_infinite_line_on_a_large_cycle():
    # on the infinite line p_x(s) = J_x(2s)^2 and G(tau)[x, y] = J_{x-y}(2 tau)^2,
    # so K(s, t) = (1/2) sum_x |p(t) - G(t - s) p(s)|_x; at t = 3 the walk on
    # cycle-64 has not reached the far side, so the two agree to rounding
    n, t = 64, 3.0
    s_vals, k_vals = k_slice(build_graph("cycle", n), EvolutionModel.unitary(), 0, t, 12)
    x = (np.arange(n) + n // 2) % n - n // 2  # signed distance from the start node
    line = []
    for s in s_vals:
        p_s, p_t = scipy.special.jv(x, 2 * s) ** 2, scipy.special.jv(x, 2 * t) ** 2
        g = scipy.special.jv(x[:, None] - x[None, :], 2 * (t - s)) ** 2
        line.append(0.5 * np.abs(p_t - g @ p_s).sum())
    assert np.abs(k_vals - line).max() < 1e-12
    assert k_vals[1:-1].min() > 0.01


# --- fidelity and dqc --------------------------------------------------------------

def test_fidelity_identical_states(rng):
    rho = DensityMatrix(random_density(rng, 4))
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_orthogonal_pure_states():
    g = build_graph("cycle", 3)
    assert fidelity(localized_state(g, 0), localized_state(g, 1)) < 1e-12


def test_fidelity_pure_against_diagonal(rng):
    p = rng.dirichlet(np.ones(4))
    diag = DensityMatrix(np.diag(p).astype(complex))
    g = build_graph("cycle", 4)
    for nu in range(4):
        assert abs(fidelity(diag, localized_state(g, nu)) - p[nu]) < 1e-10


def test_fidelity_symmetric(rng):
    a = DensityMatrix(random_density(rng, 5))
    b = DensityMatrix(random_density(rng, 5))
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10


def test_fidelity_dimension_mismatch(rng):
    a = DensityMatrix(random_density(rng, 3))
    b = DensityMatrix(random_density(rng, 4))
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(a, b)


def _unchecked(matrix) -> DensityMatrix:
    """A DensityMatrix holding ``matrix`` without its checks, to reach the
    checks that ``fidelity`` makes itself."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", np.asarray(matrix, dtype=complex))
    return rho


def _fidelity_by_eigh(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """The fidelity's general route for any rho1: eigh square root, two products."""
    root = hermitian_sqrt(rho1)
    w = np.linalg.eigvalsh(root @ rho2 @ root)
    return np.clip(np.square(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)), 0.0, 1.0)


@pytest.mark.parametrize("topology", ["cycle", "path", "complete"])
def test_diagonal_fidelity_is_the_eigh_route_bit_for_bit(topology):
    # a diagonal rho1 takes sqrt(p) and scales rows and columns; on the dqc
    # states of the benchmark grids (t = 0 and the small times whose
    # classical tails clip to 0 included) that gives the general route's bits
    g = build_graph(topology, 16)
    nodes = range(g.n)
    starts = _start_states(g, nodes)
    sites = np.arange(g.n)
    for model in (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(1.0),
                  EvolutionModel.site_dephasing(1.0)):
        prop = Propagator(g, model)
        for t in [0.0, 1e-3] + [k * 20.0 / 160 for k in range(1, 161, 23)]:
            rho_t = prop.density(starts, t)
            classical = np.zeros(rho_t.matrix.shape, dtype=complex)
            classical[:, sites, sites] = classical_propagate(g, nodes, t).probs
            ref = _fidelity_by_eigh(classical, rho_t.matrix)
            assert np.array_equal(bits(fidelity(DensityMatrix(classical), rho_t)), bits(ref))
            one = fidelity(DensityMatrix(classical[3]), DensityMatrix(rho_t.matrix[3]))
            assert np.array_equal(bits(one), bits(ref[3]))


def test_diagonal_fidelity_keeps_the_checks_of_the_square_root():
    rho2 = DensityMatrix(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError, match="not PSD"):
        fidelity(_unchecked(np.diag([1.0 + 1e-9, 0.0, -1e-9])), rho2)
    with pytest.raises(ValueError, match="not Hermitian"):
        fidelity(_unchecked(np.diag([0.5 + 1e-6j, 0.5, 0.0])), rho2)
    # within PSD_TOL a negative entry is clipped to zero, as the eigh route clips it
    edge = np.diag([0.5 + 5e-11, 0.5, -5e-11]).astype(complex)
    assert fidelity(_unchecked(edge), rho2) == _fidelity_by_eigh(edge, rho2.matrix)


@pytest.mark.parametrize("diagonal", [True, False])
def test_fidelity_raises_instead_of_clipping_far_out_of_range(rng, diagonal):
    rho1 = np.eye(4, dtype=complex) / 4 if diagonal else random_density(rng, 4)
    # an eigenvalue of sqrt(rho1) rho2 sqrt(rho1) far below -STATE_PSD_TOL
    w, u = np.linalg.eigh(random_density(rng, 4))
    w[0] = -100 * STATE_PSD_TOL
    negative = _unchecked((u * (w / w.sum())) @ u.conj().T)
    with pytest.raises(ArithmeticError, match="not PSD"):
        fidelity(DensityMatrix(rho1), negative)
    # a value past 1 by more than the square roots' rounding allows
    heavy = _unchecked(rho1 * (1 + 10 * fidelity_tol(4)))
    with pytest.raises(ArithmeticError, match=r"fidelity leaves \[0, 1\]"):
        fidelity(heavy, DensityMatrix(rho1))
    # inside both bounds the values are clipped as before
    assert fidelity(DensityMatrix(rho1), DensityMatrix(rho1)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_bound_covers_the_square_root_floor():
    # at t = 0 the unitary states' near-zero eigenvalues are rounding noise, and
    # their square roots carry the fidelity past 1 by about 3e-8 on 16 sites
    g = build_graph("cycle", 16)
    rho = Propagator(g, EvolutionModel.unitary()).density(_start_states(g, range(16)), 0.0)
    p = classical_propagate(g, range(16), 0.0).probs
    root = np.sqrt(p)
    w = np.linalg.eigvalsh(root[:, :, None] * rho.matrix * root[:, None, :])
    raw = np.square(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1))
    assert 1e-9 < raw.max() - 1.0 < fidelity_tol(16)
    classical = DensityMatrix(np.array([np.diag(q) for q in p]).astype(complex))
    assert np.array_equal(fidelity(classical, rho), np.minimum(raw, 1.0))


def test_dqc_zero_at_t0():
    g = build_graph("complete", 4)
    for model in (EvolutionModel.unitary(), EvolutionModel.site_dephasing(1.0)):
        assert dqc(g, model, 0.0) < 1e-8


@pytest.mark.parametrize("topology,n,node", [("cycle", 6, 0), ("complete", 6, 0),
                                             ("path", 3, 0), ("path", 3, 1)])
def test_dqc_short_time_linear_in_degree(topology, n, node):
    g = build_graph(topology, n)
    t = 1e-3
    value = dqc_node(g, EvolutionModel.unitary(), node, t)
    expected = g.degrees[node]
    assert abs(value / t - expected) < 0.01 * expected


def test_dqc_curve_pade_route_keeps_one_exponential():
    # cycle-2 site dephasing is exactly defective at gamma = 4, so dqc takes
    # the Pade exponential, one per time; a reused generator gives the bits of fresh ones
    g = build_graph("cycle", 2)
    model = EvolutionModel.site_dephasing(4.0)
    times = np.linspace(0.1, 2.0, 20)
    prop = Propagator(g, model)
    assert prop.generator.spectral_factors() is None
    nodes = range(g.n)
    starts = _start_states(g, nodes)
    swept = [_dqc_distances(prop, nodes, starts, t).min() for t in times]
    fresh = [dqc(g, model, t) for t in times]  # a new generator per time
    assert np.array_equal(swept, fresh)
    assert np.array_equal(dqc_curve(g, model, times)[1], fresh)


def test_fidelity_of_one_pair_is_its_stack_entry_bit_for_bit():
    # here a scalar's ** 2 (pow) and a stack's elementwise square round one ulp apart
    adj = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    g = build_graph("custom", adjacency=adj)
    model = EvolutionModel.energy_dephasing(1.6079671982175712)
    t = 2.153316726017431
    prop, nodes = Propagator(g, model), range(g.n)
    batched = _dqc_distances(prop, nodes, _start_states(g, nodes), t)
    single = [1.0 - fidelity(DensityMatrix(np.diag(classical_propagate(g, nu, t).probs)
                                           .astype(complex)),
                             prop.density(localized_state(g, nu), t)) for nu in nodes]
    assert np.array_equal(batched, single)


def _dqc_one_state_at_a_time(g, model, times):
    """dqc from 2-D states only: one Propagator.density and one fidelity per node."""
    prop = Propagator(g, model)
    return np.array([min(
        1.0 - fidelity(DensityMatrix(np.diag(classical_propagate(g, nu, t).probs)
                                     .astype(complex)),
                       prop.density(localized_state(g, nu), t))
        for nu in range(g.n)) for t in times])


def _dqc_dense_expm(g, model, times):
    """dqc from dense exponentials of the generator and of -L, sharing no kernel."""
    n, m = g.n, make_generator(g, model).matrix
    out = []
    for t in times:
        quantum, classical = scipy.linalg.expm(m * t), scipy.linalg.expm(-g.laplacian * t)
        best = 1.0
        for nu in range(n):
            rho = quantum[:, nu * (n + 1)].reshape((n, n), order="F")
            root = np.sqrt(np.clip(classical[:, nu], 0.0, None))
            w = np.linalg.eigvalsh(root[:, None] * (rho + rho.conj().T) / 2 * root[None, :])
            best = min(best, 1.0 - np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
        out.append(best)
    return np.array(out)


@settings(max_examples=25, deadline=None)
@given(g=connected_graphs(), data=st.data())
def test_batched_dqc_matches_one_state_at_a_time(g, data):
    # the batched dqc_curve takes each node's arithmetic unchanged, so it is
    # bitwise the loop over 2-D states, on every route; a dense expm agrees
    # to the ~1e-8 that square roots of near-zero eigenvalues allow
    times = data.draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3), label="times")
    gamma = data.draw(st.floats(0.1, 2.0), label="gamma")
    seed = data.draw(st.integers(0, 2**32 - 1), label="jump seed")
    re, im = np.random.default_rng(seed).standard_normal((2, g.n, g.n))
    jump = re + 1j * im
    models = [EvolutionModel.unitary(), EvolutionModel.energy_dephasing(gamma),
              EvolutionModel.site_dephasing(gamma), EvolutionModel.custom([(gamma, jump)])]
    for model in models:
        batched = dqc_curve(g, model, times)[1]
        assert np.array_equal(batched, _dqc_one_state_at_a_time(g, model, times)), model.kind
        assert np.abs(batched - _dqc_dense_expm(g, model, times)).max() < 1e-6, model.kind
    with forced_pade():
        pade = dqc_curve(g, models[2], times)[1]
        assert np.array_equal(pade, _dqc_one_state_at_a_time(g, models[2], times))
    assert np.abs(pade - _dqc_dense_expm(g, models[2], times)).max() < 1e-6


def test_energy_dqc_takes_the_outer_form_not_the_double_sum():
    # dqc's start states are site projectors, so its energy-dephasing states
    # never run _energy_sum's 2 G^2 products; the closed form, criterion 8's
    # independent oracle, still does
    g = build_graph("cycle", 6)
    model = EvolutionModel.energy_dephasing(0.9)
    energy_sum = ctqwalk.dynamics._energy_sum
    with mock.patch.object(ctqwalk.dynamics, "_energy_sum", wraps=energy_sum) as spy:
        values = dqc_curve(g, model, [0.0, 0.4, 3.0])[1]
        dqc_node(g, model, 2, 0.4)
        assert spy.call_count == 0
        ctqwalk.propagate_energy_closed_form(g, 0.9, localized_state(g, 2), 0.4)
        assert spy.call_count == 1
    assert np.array_equal(values, _dqc_one_state_at_a_time(g, model, [0.0, 0.4, 3.0]))


#: the square-root floor that dqc's fidelity route meets today on 12 sites (1e-8
#: and below): ROADMAP item 2's closed forms are to tighten these limits to 1e-12
_DQC_FLOOR = 2e-8


@pytest.mark.parametrize("topology", ["cycle", "complete", "path"])
def test_dqc_long_time_limits(topology):
    # unitary: the classical walk tends to I/N and F(I/N, pure) = 1/N;
    # energy dephasing: rho tends to sum_a P_a rho0 P_a, whose eigenvalues are
    # <nu|P_a|nu>; site dephasing: both tend to I/N
    g = build_graph(topology, 12)
    n, spec, gamma = g.n, g.spectrum, 1.0
    lam = spec.group_eigenvalues()
    t_classical = 25.0 / lam[1]
    t_energy = max(t_classical, 25.0 / (0.5 * gamma * np.diff(lam).min() ** 2))
    mu = ctqwalk.spectral_gap(make_generator(g, EvolutionModel.site_dephasing(gamma))).value
    t_site = max(t_classical, 25.0 / mu)
    overlap = max(sum(np.sqrt(p[nu, nu].real) for p in spec.projectors()) for nu in range(n))
    cases = [(EvolutionModel.unitary(), t_classical, 1.0 - 1.0 / n),
             (EvolutionModel.energy_dephasing(gamma), t_energy, 1.0 - overlap ** 2 / n),
             (EvolutionModel.site_dephasing(gamma), t_site, 0.0)]
    # (complete-12's computed zero eigenvalue, -4.7e-15, makes its classical
    # walk sum past 1 + PROB_TOL after t = 215; t_site is 150 there)
    for model, t, limit in cases:
        assert abs(dqc(g, model, t) - limit) < _DQC_FLOOR, model.kind


def _complete_sector_generator(n: int):
    """Complete-n site dephasing at gamma = 1 on the sector of node 0, as a 5 x 5 mp matrix.

    From node 0 the state stays in the span of |0><0|, sum_r |0><r|,
    sum_r |r><0|, sum_r |r><r| and sum_{r != r'} |r><r'| (r, r' != 0), so a
    5 x 5 exponential of the returned matrix, applied to (1, 0, 0, 0, 0),
    gives its coordinates (a, b, b*, c, d).
    """
    sup = make_generator(build_graph("complete", n), EvolutionModel.site_dephasing(1.0))
    basis = np.zeros((5, n, n), dtype=complex)
    basis[0, 0, 0] = basis[1, 0, 1:] = basis[2, 1:, 0] = 1.0
    basis[3, 1:, 1:] = np.eye(n - 1)
    basis[4, 1:, 1:] = 1.0 - np.eye(n - 1)
    images = np.array([apply_map(sup, b) for b in basis])
    gen = images[:, [0, 0, 1, 1, 1], [0, 1, 0, 1, 2]].T  # the coordinates of each image
    assert np.array_equal(np.tensordot(gen.T, basis, 1), images)  # the span is closed
    assert np.array_equal(gen, np.round(gen))  # and its entries are exact
    return mp.matrix([[mp.mpc(x.real, x.imag) for x in row] for row in gen])


def _complete_dqc_oracle(n: int, times) -> np.ndarray:
    """dqc on complete-n under site dephasing at gamma = 1, to 40 digits.

    The state from node 0 has sector coordinates (a, b, b*, c, d)
    (:func:`_complete_sector_generator`). The classical
    walk has p_0 = 1/n + (1 - 1/n) e^{-nt} and p_r = (1 - p_0)/(n - 1). Then
    sqrt(P) rho sqrt(P) has one 2 x 2 block on |0>, sum_r |r>/sqrt(n-1), whose
    root eigenvalues sum to sqrt(tr + 2 sqrt(det)), and the eigenvalue
    p_r (c - d) n - 2 times. Every node is equivalent, so dqc is 1 - F at node 0.
    """
    out = []
    with mp.workdps(40):
        gen = _complete_sector_generator(n)
        for t in times:
            t = mp.mpf(float(t))
            a, b, _, c, d = mp.expm(gen * t) * mp.matrix([1, 0, 0, 0, 0])
            p0 = mp.mpf(1) / n + (1 - mp.mpf(1) / n) * mp.exp(-n * t)
            pr = (1 - p0) / (n - 1)
            top, bottom = p0 * mp.re(a), pr * mp.re(c + (n - 2) * d)
            det = top * bottom - p0 * pr * (n - 1) * abs(b) ** 2
            roots = mp.sqrt(top + bottom + 2 * mp.sqrt(det)) + (n - 2) * mp.sqrt(pr * mp.re(c - d))
            out.append(float(1 - roots ** 2))
    return np.array(out)


def test_pade_route_dqc_meets_a_40_digit_oracle():
    # complete-16 at gamma = 1 takes the Pade route at every time
    g, model = build_graph("complete", 16), EvolutionModel.site_dephasing(1.0)
    assert make_generator(g, model).spectral_factors() is None
    times = np.linspace(2.0, 20.0, 10)
    values = dqc_curve(g, model, times)[1]
    assert np.abs(values - _complete_dqc_oracle(16, times)).max() < 1e-12


def _complete_k_oracle(n: int, t: float, s_points: int) -> np.ndarray:
    """K(s, t) from node 0 on complete-n under site dephasing at gamma = 1,
    to 40 digits, on ``linspace(0, t, s_points + 1)``.

    By symmetry p(s) = (a(s), c(s), ..., c(s)) with c = (1 - a)/(n - 1), and
    G(tau) has diagonal a(tau) and off-diagonal (1 - a(tau))/(n - 1), with
    a(tau) the return population of the sector exponential.
    """
    with mp.workdps(40):
        gen = _complete_sector_generator(n)
        step = mp.expm(gen * (mp.mpf(float(t)) / s_points))
        x, a = mp.matrix([1, 0, 0, 0, 0]), []
        for _ in range(s_points + 1):
            a.append(mp.re(x[0]))
            x = step * x
        out = []
        for k in range(s_points + 1):
            stay, a_s = a[s_points - k], a[k]  # t - s_k = s_{points-k}
            hop, c_s = (1 - stay) / (n - 1), (1 - a_s) / (n - 1)
            to_0 = stay * a_s + (n - 1) * hop * c_s
            to_r = hop * a_s + (stay + (n - 2) * hop) * c_s
            c_t = (1 - a[-1]) / (n - 1)
            out.append(float((abs(a[-1] - to_0) + (n - 1) * abs(c_t - to_r)) / 2))
    return np.array(out)


@pytest.mark.parametrize("topology,gamma", [("complete", 0.5), ("complete", 1.0),
                                            ("complete", 50.0), ("cycle", 1.0),
                                            ("path", 1.0)])
def test_probed_spectral_profiles_match_forced_pade(topology, gamma):
    # complete-16 at gamma = 0.5 and 1 fails the residual gate, so its
    # profiles take the factorization only through the population probe;
    # the others pass the gate and take it without probing. The real
    # factorization that profiles read agrees with one or two BLAS threads:
    # complete-16 residual 1e-4 to 2e-3 at gamma = 0.5 and 2e-6 to 3e-5 at 1,
    # site probe error at most 1.1e-13; 1e-13 to 2e-13 at 50, under the 1e-12 gate
    g, model = build_graph(topology, 16), EvolutionModel.site_dephasing(gamma)
    gen = make_generator(g, model)
    probed = gen.spectral_factors() is None
    assert probed == (topology == "complete" and gamma < 10)
    times = [0.3, 4.0, 25.0]
    with expm_spy() as spy:
        s_vals, spectral = k_slice(g, model, 0, 4.0, 16)
        curve = kbar_curve(g, model, 0, times, quad_points=41)
    # a probe takes two exponentials per generator, at its fixed steps, and no Pade step
    assert expm_steps(spy) == ([1.0, 10.0] * 2 if probed else [])
    with forced_pade() as spy:
        pade = k_slice(g, model, 0, 4.0, 16)[1]
        pade_curve = kbar_curve(g, model, 0, times, quad_points=41)
    assert expm_steps(spy) == [s_vals[1]] + [t / 40 for t in times]
    assert np.abs(spectral - pade).max() < 1e-12
    assert np.abs(curve.values - pade_curve.values).max() < 1e-12


def test_complete_graph_k_meets_a_40_digit_oracle_on_both_routes():
    g, model = build_graph("complete", 16), EvolutionModel.site_dephasing(1.0)
    assert make_generator(g, model).spectral_factors() is None  # the residual gate fails
    for t in (0.7, 3.0, 15.0):
        oracle = _complete_k_oracle(16, t, 12)
        assert np.abs(k_slice(g, model, 0, t, 12)[1] - oracle).max() < 1e-12
        with forced_pade():
            assert np.abs(k_slice(g, model, 0, t, 12)[1] - oracle).max() < 1e-12


def test_probe_sends_a_coherent_start_to_pade():
    # the full spectral propagator of complete-16 at gamma = 1 is ~1e-9 off;
    # the probe sees it in the coherent column (|0> + |1>)/sqrt2 and refuses
    g, model = build_graph("complete", 16), EvolutionModel.site_dephasing(1.0)
    gen = make_generator(g, model)
    psi = np.zeros(16)
    psi[:2] = np.sqrt(0.5)
    rho0 = DensityMatrix(np.outer(psi, psi).astype(complex))
    assert _profile_factors(gen, rho0.matrix) is None
    # refused by its own column (probe error 5e-9 to 1e-7 by BLAS thread
    # count), not by the cached site columns (7e-14 to 1e-13) nor node 0's (6e-14)
    modes, _, probed = gen._real_modes
    assert probed
    assert _profile_factors(gen, localized_state(g, 0).matrix)[0] is modes
    t, q = 3.0, 9
    profile = _k_profile(partial(_superop_populations, gen), rho0.matrix, t, q)
    with forced_pade():
        pade = _k_profile(partial(_superop_populations, gen), rho0.matrix, t, q)
        pade_mean = kbar(gen, rho0, t)
    assert np.array_equal(profile, pade)
    assert kbar(gen, rho0, t) == pade_mean
    ref = [kolmogorov_k(gen, rho0, s, t) for s in np.linspace(0.0, t, q)]
    assert np.abs(profile - ref).max() < 1e-10


def test_probe_compares_the_site_columns_once_per_generator():
    # complete-16 at gamma = 1 fails the residual gate (1e-6 to 3e-5 by BLAS
    # thread count) and meets the site probe at 7e-14 to 1e-13
    g, model = build_graph("complete", 16), EvolutionModel.site_dephasing(1.0)
    with mock.patch.object(_Modes, "meets", autospec=True, side_effect=_Modes.meets) as spy:
        kbar_curve(g, model, 0, np.linspace(0.5, 15.0, 30), quad_points=41)
    sites = [c for c in spy.call_args_list if len(c.args[1]) == g.n]
    # only a probed factorization compares site columns; the first point caches the verdict
    assert len(sites) == 1
    assert spy.call_count == 31  # and each of the 30 points compares its own column


@pytest.mark.parametrize("gamma", [1.05, 1.394])
def test_complete_graph_profiles_near_gamma_one_meet_pade(gamma):
    # the real factorization of complete-16 is ill-conditioned here (residual
    # 2e-7 to 4e-6 at gamma = 1.05); whether it meets the site probe depends
    # on BLAS rounding (gamma = 1.394 misses it on one thread), so only the
    # values are asserted: either route must meet the Pade exponential
    g, model = build_graph("complete", 16), EvolutionModel.site_dephasing(gamma)
    gen, rho0 = make_generator(g, model), localized_state(g, 0)
    profile = _k_profile(partial(_superop_populations, gen), rho0.matrix, 7.3, 201)
    mean = kbar(gen, rho0, 7.3)
    with forced_pade() as spy:
        pade = _k_profile(partial(_superop_populations, gen), rho0.matrix, 7.3, 201)
        pade_mean = kbar(gen, rho0, 7.3)
    assert expm_steps(spy) == pytest.approx([7.3 / 200] * 2)  # one grid step each
    assert np.abs(profile - pade).max() < 1e-12
    assert abs(mean - pade_mean) < 1e-12


def test_two_site_unitary_profiles_read_the_real_factors():
    # the complex eigenvectors of this normal generator are nearly parallel
    # (residual 5e-9), so states take Pade; the real ones pass their own gate
    g, gen = _two_site_unitary()
    with expm_spy() as spy:
        value = kbar(gen, localized_state(g, 1), np.pi / 2)
    assert expm_steps(spy) == []
    probed = gen._real_modes[2]
    assert not probed and gen.spectral_factors() is None
    assert abs(value - 0.25) < 1e-14


def test_long_time_profile_past_the_subnormal_range_matches_forced_pade():
    # at gamma = 50 the coherence modes of e^{ws} fall below 1e-308 by s = 20
    g, model = build_graph("complete", 16), EvolutionModel.site_dephasing(50.0)
    spectral = k_slice(g, model, 0, 20.0, 200)[1]
    with forced_pade():
        pade = k_slice(g, model, 0, 20.0, 200)[1]
    assert np.abs(spectral - pade).max() < 1e-12


def test_dqc_complete_graph_tail():
    n = 8
    g = build_graph("complete", n)
    ts = np.linspace(50.0, 60.0, 41)
    vals = [dqc(g, EvolutionModel.unitary(), float(t)) for t in ts]
    assert abs(np.mean(vals) - (1 - 1 / n)) < 0.02


# --- short-time coefficients ---------------------------------------------------------

@pytest.mark.parametrize("topology,n,node", [("cycle", 5, 0), ("complete", 4, 0),
                                             ("path", 3, 0), ("path", 3, 1),
                                             ("path", 4, 2)])
def test_coherent_double_commutator_diagonal_mass(topology, n, node):
    # sum_x |A_x| = 4 d_nu regardless of topology
    g = build_graph(topology, n)
    model = EvolutionModel.energy_dephasing(0.0)
    coeffs = short_time_coeffs(g, node, model)
    assert abs(coeffs.quadratic - g.degrees[node] / 3.0) < 1e-12


def test_short_time_coeffs_unitary_cycle():
    g = build_graph("cycle", 7)
    coeffs = short_time_coeffs(g, 0, EvolutionModel.unitary())
    assert coeffs.quadratic == pytest.approx(2.0 / 3.0)
    assert coeffs.cubic == 0.0


def test_short_time_coeffs_site_dephasing():
    g = build_graph("cycle", 5)
    coeffs = short_time_coeffs(g, 0, EvolutionModel.site_dephasing(1.4))
    assert coeffs.quadratic == pytest.approx(2.0 / 3.0)
    assert coeffs.cubic == pytest.approx(-1.4 * 2.0 / 6.0)


def test_short_time_coeffs_energy_dephasing_has_no_cubic():
    g = build_graph("complete", 4)
    coeffs = short_time_coeffs(g, 0, EvolutionModel.energy_dephasing(0.9))
    assert coeffs.cubic is None
    # this dissipator already shifts the quadratic coefficient
    assert abs(coeffs.quadratic - g.degrees[0] / 3.0) > 0.1


def test_short_time_coeffs_predict_kbar():
    # compare the predicted expansions against direct quadrature values
    g = build_graph("cycle", 5)
    t = 1e-3
    for model in (EvolutionModel.unitary(), EvolutionModel.site_dephasing(1.0),
                  EvolutionModel.energy_dephasing(1.0)):
        gen = make_generator(g, model)
        coeffs = short_time_coeffs(g, 0, model)
        predicted = coeffs.quadratic * t**2 + (coeffs.cubic or 0.0) * t**3
        measured = kbar(gen, localized_state(g, 0), t)
        assert abs(measured - predicted) < 2e-3 * predicted


# --- asymptotics and bounds -----------------------------------------------------------

def test_overlap_matrix_symmetric_doubly_stochastic():
    for topology, n in [("cycle", 6), ("complete", 5), ("path", 4)]:
        spec = spectral_decompose(build_graph(topology, n).laplacian)
        f = eigenspace_overlap_matrix(spec)
        assert np.abs(f - f.T).max() < 1e-10
        assert np.abs(f.sum(axis=0) - 1.0).max() < 1e-10
        assert np.abs(f.sum(axis=1) - 1.0).max() < 1e-10
        assert f.min() >= 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
def test_asymptotic_values_complete(n):
    g = build_graph("complete", n)
    value = asymptotic_kbar_energy(g, 0)
    assert abs(value - 2 * (n - 1) * (n - 2) / n**3) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10])
def test_asymptotic_values_cycle(n):
    g = build_graph("cycle", n)
    expected = (n - 1) ** 2 / n**3 if n % 2 else 2 * (n - 2) ** 2 / n**3
    assert abs(asymptotic_kbar_energy(g, 0) - expected) < 1e-12


def test_asymptotic_values_path3():
    g = build_graph("path", 3)
    assert abs(asymptotic_kbar_energy(g, 0) - 2 / 27) < 1e-12
    assert abs(asymptotic_kbar_energy(g, 1) - 4 / 27) < 1e-12
    assert abs(asymptotic_kbar_energy(g, 2) - 2 / 27) < 1e-12


def test_asymptotic_rejects_node_outside_the_graph():
    g = build_graph("path", 3)
    for node in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            asymptotic_kbar_energy(g, node)


@pytest.mark.parametrize("topology,n", [("complete", 4), ("cycle", 5), ("cycle", 6)])
def test_energy_dephasing_long_time_limit(topology, n):
    g = build_graph(topology, n)
    model = EvolutionModel.energy_dephasing(1.0)
    target = asymptotic_kbar_energy(g, 0)
    curve = kbar_curve(g, model, 0, [400.0], quad_points=801)
    assert abs(curve.values[0] - target) < 2e-2


def test_bound_small_time_limit():
    g = build_graph("cycle", 5)
    assert abs(kbar_bound_site_dephasing(g, 1.0, 1e-9) - np.sqrt(5)) < 1e-6
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            kbar_bound_site_dephasing(g, 1.0, bad)
    # a given gap or rate outside (0, inf) would read nan, 0 or a value above sqrt(N)
    cycle4 = build_graph("cycle", 4)
    for bad in (np.nan, 0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="mu2 must be finite and positive"):
            kbar_bound_site_dephasing(cycle4, 1.0, 2.0, mu2=bad)
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            kbar_bound_site_dephasing(cycle4, bad, 2.0, mu2=1.0)


def test_bound_monotone_decreasing():
    g = build_graph("cycle", 4)
    ts = np.linspace(0.2, 30.0, 40)
    vals = [kbar_bound_site_dephasing(g, 1.0, float(t)) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kbar_below_bound_cycle5():
    g = build_graph("cycle", 5)
    model = EvolutionModel.site_dephasing(1.0)
    gen = make_generator(g, model)
    rho0 = localized_state(g, 0)
    for t in (1.0, 5.0, 20.0):
        assert kbar(gen, rho0, t) <= kbar_bound_site_dephasing(g, 1.0, t) + 1e-8


def test_bound_refuses_disconnected_graph():
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.warns(UserWarning):
        g = build_graph("custom", adjacency=adj)
    with pytest.raises(ValueError, match="connected"):
        kbar_bound_site_dephasing(g, 1.0, 1.0)


@pytest.mark.parametrize("topology,n", [("cycle", 4), ("cycle", 6), ("complete", 4),
                                        ("complete", 6)])
def test_site_dephasing_suppresses_kbar(topology, n):
    g = build_graph(topology, n)
    model = EvolutionModel.site_dephasing(1.0)
    curve = kbar_curve(g, model, 0, [100.0])
    assert curve.values[0] < 0.05
    assert curve.values[0] <= kbar_bound_site_dephasing(g, 1.0, 100.0) + 1e-8


def test_pure_site_dephasing_keeps_diagonal_states_classical(rng):
    # jump operators = site projectors with no coherent part: diagonal
    # states do not evolve at all and no violation can appear
    from ctqwalk import vectorize_lindblad
    n = 4
    jumps = []
    for k in range(n):
        gmat = np.zeros((n, n))
        gmat[k, k] = 1.0
        jumps.append((2.5, gmat))
    sup = vectorize_lindblad(np.zeros((n, n)), jumps)
    p = rng.dirichlet(np.ones(n))
    rho0 = DensityMatrix(np.diag(p).astype(complex))
    for t in (0.5, 2.0):
        assert kbar(sup, rho0, t) < 1e-14
        for s in (0.1, 0.3 * t, t):
            assert kolmogorov_k(sup, rho0, s, t) < 1e-14


# --- randomized properties -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_k_stays_in_unit_interval(seed):
    rng = np.random.default_rng(1000 + seed)
    g = build_graph(("cycle", "complete", "path")[seed % 3], 4)
    model = (EvolutionModel.unitary(), EvolutionModel.site_dephasing(0.9),
             EvolutionModel.energy_dephasing(0.7))[seed % 3]
    gen = make_generator(g, model)
    rho0 = DensityMatrix(random_density(rng, 4))
    for _ in range(8):
        t = float(rng.uniform(0.05, 6.0))
        s = float(rng.uniform(0.0, t))
        assert 0.0 <= kolmogorov_k(gen, rho0, s, t) <= 1.0
    assert 0.0 <= kbar(gen, rho0, 2.0) <= 1.0


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_k_convex_in_initial_state(lam):
    rng = np.random.default_rng(77)
    g = build_graph("cycle", 4)
    gen = make_generator(g, EvolutionModel.site_dephasing(0.5))
    for _ in range(10):
        rho1 = random_density(rng, 4)
        rho2 = random_density(rng, 4)
        mix = DensityMatrix(lam * rho1 + (1 - lam) * rho2)
        s, t = sorted(rng.uniform(0.05, 3.0, size=2))
        k_mix = kolmogorov_k(gen, mix, float(s), float(t))
        k_split = (lam * kolmogorov_k(gen, DensityMatrix(rho1), float(s), float(t))
                   + (1 - lam) * kolmogorov_k(gen, DensityMatrix(rho2), float(s), float(t)))
        assert k_mix <= k_split + 1e-10


@pytest.mark.parametrize("topology", ["cycle", "complete"])
def test_translation_covariance(topology):
    n = 5
    g = build_graph(topology, n)
    model = EvolutionModel.site_dephasing(0.8)
    gen = make_generator(g, model)
    s, t = 0.4, 1.3
    k_ref = kolmogorov_k(gen, localized_state(g, 0), s, t)
    kbar_ref = kbar(gen, localized_state(g, 0), t)
    probs_ref = propagate(gen, localized_state(g, 0), t).populations()
    for nu in range(1, n):
        rho = localized_state(g, nu)
        assert abs(kolmogorov_k(gen, rho, s, t) - k_ref) < 1e-10
        assert abs(kbar(gen, rho, t) - kbar_ref) < 1e-10
        probs = propagate(gen, rho, t).populations()
        assert np.abs(np.roll(probs, -nu) - probs_ref).max() < 1e-10
