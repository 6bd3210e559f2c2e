import itertools

import numpy as np
import pytest
import scipy.linalg

from ctqwalk import (
    DensityMatrix,
    EvolutionModel,
    KbarCurve,
    MeasurementRecord,
    Propagator,
    Superoperator,
    asymptotic_kbar_energy,
    build_graph,
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
    one_time_probs,
    short_time_coeffs,
    spectral_decompose,
)
from ctqwalk.nonclassicality import _dqc_node
from conftest import random_density


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


def test_multi_time_outcome_range_check():
    g, gen = _two_site_unitary()
    with pytest.raises(ValueError, match="range"):
        multi_time_prob(gen, localized_state(g, 0), MeasurementRecord((1.0,), (2,)))


def test_one_time_probs_match_populations():
    g = build_graph("cycle", 4)
    gen = make_generator(g, EvolutionModel.site_dephasing(0.6))
    rho0 = localized_state(g, 2)
    p0 = one_time_probs(gen, rho0, 0.0)
    assert np.abs(p0.probs - np.eye(4)[2]).max() < 1e-12
    pt = one_time_probs(gen, rho0, 1.2)
    assert abs(pt.probs.sum() - 1.0) < 1e-12
    singles = [multi_time_prob(gen, rho0, MeasurementRecord((1.2,), (x,)))
               for x in range(4)]
    assert np.abs(pt.probs - singles).max() < 1e-10


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
    pt = one_time_probs(gen, rho0, t).probs
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


def test_large_imaginary_parts_are_an_error_not_a_clip(rng, monkeypatch):
    # a map that does not preserve Hermiticity leaves large imaginary
    # diagonals; that must raise rather than be silently clipped
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    broken = Superoperator(2, m)
    g = build_graph("cycle", 2)
    with pytest.raises(ArithmeticError, match="imaginary"):
        kolmogorov_k(broken, localized_state(g, 0), 0.5, 1.0)
    # the Pade branch works in real Hermitian coordinates, which such a map has not
    monkeypatch.setattr(Superoperator, "spectral_factors", lambda self: None)
    with pytest.raises(ArithmeticError, match="Hermiticity"):
        kbar(broken, localized_state(g, 0), 1.0)


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
        KbarCurve(times=np.array([1.0, 2.0]), values=np.array([0.5, np.nan]), quad_points=3)


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


def test_kbar_curve_threads_deterministic():
    times = np.linspace(0.2, 3.0, 12)
    for model in (EvolutionModel.site_dephasing(1.0), EvolutionModel.unitary(),
                  EvolutionModel.energy_dephasing(0.7)):
        # a fresh graph per call, so the pooled run starts with nothing cached
        serial = kbar_curve(build_graph("cycle", 5), model, 0, times, threads=1)
        pooled = kbar_curve(build_graph("cycle", 5), model, 0, times, threads=4)
        assert np.array_equal(serial.values, pooled.values), model.kind


def test_kbar_curve_model_routes_agree(rng, monkeypatch):
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
        with monkeypatch.context() as patched:
            patched.setattr(Superoperator, "spectral_factors", lambda self: None)
            pade = k_slice(g, model, node, 1.7, 12)[1]
            pade_curve = kbar_curve(g, model, node, times)
            pade_mixed = kbar(gen, mixed, 1.7)
        assert np.abs(pade - spectral).max() < 1e-10
        assert np.abs(pade_curve.values - curve.values).max() < 1e-10
        assert abs(pade_mixed - kbar(gen, mixed, 1.7)) < 1e-10
        for s, k in zip(s_vals, pade):
            assert abs(k - kolmogorov_k(gen, rho0, s, 1.7)) < 1e-10


def test_k_slice_profile():
    g = build_graph("cycle", 2)
    s_vals, k_vals = k_slice(g, EvolutionModel.unitary(), 1, np.pi / 2, 100)
    assert k_vals[0] < 1e-12 and k_vals[-1] < 1e-12
    peak = np.argmax(k_vals)
    assert abs(s_vals[peak] - np.pi / 4) < 0.02
    assert abs(k_vals[peak] - 0.5) < 1e-6
    # symmetric in s about t/2 for this model
    assert np.abs(k_vals - k_vals[::-1]).max() < 1e-10


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
    # the Pade exponential; only the one for the latest time may be kept
    g = build_graph("cycle", 2)
    model = EvolutionModel.site_dephasing(4.0)
    times = np.linspace(0.1, 2.0, 20)
    prop = Propagator(g, model)
    assert prop.generator.spectral_factors() is None
    swept = [min(_dqc_node(prop, nu, t) for nu in range(g.n)) for t in times]
    cached_t, cached = prop.generator._expm_last
    assert cached_t == times[-1]
    assert np.array_equal(cached, scipy.linalg.expm(prop.generator.matrix * times[-1]))
    fresh = [dqc(g, model, t) for t in times]  # a new generator per time
    assert np.array_equal(swept, fresh)
    assert np.array_equal(dqc_curve(g, model, times)[1], fresh)


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
    value = asymptotic_kbar_energy(g, g.spectrum, 0)
    assert abs(value - 2 * (n - 1) * (n - 2) / n**3) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10])
def test_asymptotic_values_cycle(n):
    g = build_graph("cycle", n)
    expected = (n - 1) ** 2 / n**3 if n % 2 else 2 * (n - 2) ** 2 / n**3
    assert abs(asymptotic_kbar_energy(g, g.spectrum, 0) - expected) < 1e-12


def test_asymptotic_values_path3():
    g = build_graph("path", 3)
    assert abs(asymptotic_kbar_energy(g, g.spectrum, 0) - 2 / 27) < 1e-12
    assert abs(asymptotic_kbar_energy(g, g.spectrum, 1) - 4 / 27) < 1e-12
    assert abs(asymptotic_kbar_energy(g, g.spectrum, 2) - 2 / 27) < 1e-12


def test_asymptotic_rejects_mismatched_spectrum():
    g = build_graph("complete", 4)
    wrong = spectral_decompose(build_graph("cycle", 4).laplacian)
    with pytest.raises(ValueError, match="does not match"):
        asymptotic_kbar_energy(g, wrong, 0)


@pytest.mark.parametrize("topology,n", [("complete", 4), ("cycle", 5), ("cycle", 6)])
def test_energy_dephasing_long_time_limit(topology, n):
    g = build_graph(topology, n)
    model = EvolutionModel.energy_dephasing(1.0)
    target = asymptotic_kbar_energy(g, g.spectrum, 0)
    curve = kbar_curve(g, model, 0, [400.0], quad_points=801)
    assert abs(curve.values[0] - target) < 2e-2


def test_bound_small_time_limit():
    g = build_graph("cycle", 5)
    assert abs(kbar_bound_site_dephasing(g, 1.0, 1e-9) - np.sqrt(5)) < 1e-6


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
    probs_ref = one_time_probs(gen, localized_state(g, 0), t).probs
    for nu in range(1, n):
        rho = localized_state(g, nu)
        assert abs(kolmogorov_k(gen, rho, s, t) - k_ref) < 1e-10
        assert abs(kbar(gen, rho, t) - kbar_ref) < 1e-10
        probs = one_time_probs(gen, rho, t).probs
        assert np.abs(np.roll(probs, -nu) - probs_ref).max() < 1e-10
