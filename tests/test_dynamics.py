import numpy as np
import pytest

from ctqwalk import (
    ClassicalDistribution,
    DensityMatrix,
    EvolutionModel,
    Propagator,
    build_graph,
    classical_propagate,
    dephase_site,
    expm_hermitian_generator,
    localized_state,
    make_generator,
    propagate,
    propagate_energy_closed_form,
    spectral_decompose,
    spectral_gap,
)
from conftest import random_density


def _models(gamma=0.8):
    lower = np.zeros((3, 3))
    lower[0, 1] = 1.0
    return [
        EvolutionModel.unitary(),
        EvolutionModel.site_dephasing(gamma),
        EvolutionModel.energy_dephasing(gamma),
        EvolutionModel.custom([(0.3, lower)]),
    ]


# --- state types -------------------------------------------------------------

def test_density_matrix_validation(rng):
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)) / 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.diag([bad, 1.0]))
    rho = DensityMatrix(random_density(rng, 4))
    assert rho.dim == 4
    assert abs(rho.populations().sum() - 1.0) < 1e-12


def test_classical_distribution_validation():
    with pytest.raises(ValueError, match="negative"):
        ClassicalDistribution([1.5, -0.5])
    with pytest.raises(ValueError, match="sum"):
        ClassicalDistribution([0.5, 0.4])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ClassicalDistribution([bad, 1.0])
    assert np.array_equal(ClassicalDistribution([0.25, 0.75]).probs, [0.25, 0.75])


def test_localized_state_examples():
    g = build_graph("cycle", 4)
    rho = localized_state(g, 0)
    assert rho.matrix[0, 0] == 1.0 and np.abs(rho.matrix).sum() == 1.0
    assert abs(np.trace(rho.matrix @ rho.matrix) - 1.0) < 1e-14  # pure
    for x in range(4):
        proj = np.zeros((4, 4))
        proj[x, x] = 1.0
        assert np.abs(proj @ rho.matrix - rho.matrix @ proj).max() == 0.0
    with pytest.raises(ValueError, match="range"):
        localized_state(g, 4)


def test_evolution_model_validation():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            EvolutionModel.site_dephasing(bad)
        with pytest.raises(ValueError, match="gamma"):
            EvolutionModel.energy_dephasing(bad)
    with pytest.raises(ValueError, match="kind"):
        EvolutionModel(kind="thermal")
    with pytest.raises(ValueError, match="rates"):
        EvolutionModel.custom([(-0.1, np.eye(2))])


# --- make_generator -----------------------------------------------------------

def test_unitary_generator_has_no_dissipator(rng):
    g = build_graph("cycle", 3)
    gen = make_generator(g, EvolutionModel.unitary())
    rho = random_density(rng, 3)
    lap = g.laplacian
    assert np.abs(gen.apply(rho) - (-1j) * (lap @ rho - rho @ lap)).max() < 1e-12


def test_site_dephasing_damps_coherences_at_rate_gamma():
    g = build_graph("cycle", 4)
    gamma = 1.7
    gen = make_generator(g, EvolutionModel.site_dephasing(gamma))
    gen_unitary = make_generator(g, EvolutionModel.unitary())
    offdiag = np.zeros((4, 4), dtype=complex)
    offdiag[1, 3] = 1.0
    dissipator_action = gen.apply(offdiag) - gen_unitary.apply(offdiag)
    assert np.abs(dissipator_action - (-gamma) * offdiag).max() < 1e-12


def test_energy_dephasing_preserves_eigenprojectors():
    g = build_graph("path", 3)
    gen = make_generator(g, EvolutionModel.energy_dephasing(0.9))
    spec = spectral_decompose(g.laplacian)
    for k in range(3):
        p = np.outer(spec.eigenvectors[:, k], spec.eigenvectors[:, k].conj())
        assert np.abs(gen.apply(p)).max() < 1e-12


# --- propagate ----------------------------------------------------------------

def test_propagate_t0_is_identity(rng):
    g = build_graph("cycle", 3)
    gen = make_generator(g, EvolutionModel.site_dephasing(1.0))
    rho = DensityMatrix(random_density(rng, 3))
    out = propagate(gen, rho, 0.0)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_propagate_two_site_populations():
    g = build_graph("cycle", 2)
    gen = make_generator(g, EvolutionModel.unitary())
    rho = localized_state(g, 1)
    for t in (0.2, 0.9, 2.5):
        out = propagate(gen, rho, t)
        assert abs(out.matrix[1, 1].real - 0.5 * (1 + np.cos(2 * t))) < 1e-12


def _rk4_lindblad_oracle(lap, gamma, rho0, t, steps=4000):
    # fixed-step 4th-order integrator of the master equation, independent
    # of the superoperator-exponential code path
    n = lap.shape[0]
    projs = [np.diag((np.arange(n) == k).astype(float)) for k in range(n)]

    def rhs(rho):
        out = -1j * (lap @ rho - rho @ lap)
        for p in projs:
            out += gamma * (p @ rho @ p - 0.5 * (p @ rho + rho @ p))
        return out

    rho = rho0.astype(complex).copy()
    h = t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def test_propagate_site_dephasing_matches_rk4_oracle():
    g = build_graph("cycle", 3)
    gen = make_generator(g, EvolutionModel.site_dephasing(1.0))
    rho0 = localized_state(g, 0)
    out = propagate(gen, rho0, 0.7)
    oracle = _rk4_lindblad_oracle(g.laplacian, 1.0, rho0.matrix, 0.7)
    assert np.abs(out.matrix - oracle).max() < 1e-8


def test_propagate_dimension_mismatch():
    gen = make_generator(build_graph("cycle", 3), EvolutionModel.unitary())
    rho = localized_state(build_graph("cycle", 4), 0)
    with pytest.raises(ValueError, match="match"):
        propagate(gen, rho, 1.0)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_propagate_outputs_valid_states_for_all_models(t):
    g = build_graph("path", 3)
    rho0 = localized_state(g, 1)
    for model in _models():
        out = propagate(make_generator(g, model), rho0, t)
        m = out.matrix  # DensityMatrix constructor enforced the invariants
        assert abs(m.trace() - 1.0) < 1e-10
        assert np.abs(m - m.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(m).min() > -1e-8


def test_unitary_populations_match_amplitudes():
    g = build_graph("cycle", 5)
    gen = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, 2)
    for t in (0.4, 1.7):
        out = propagate(gen, rho0, t)
        u = expm_hermitian_generator(g.laplacian, t)
        assert np.abs(out.populations() - np.abs(u[:, 2]) ** 2).max() < 1e-10


@pytest.mark.parametrize("kind", ["site-dephasing", "energy-dephasing"])
def test_zero_rate_dephasing_reduces_to_unitary(kind):
    g = build_graph("cycle", 4)
    model = EvolutionModel(kind=kind, gamma=0.0)
    rho0 = localized_state(g, 0)
    a = propagate(make_generator(g, model), rho0, 1.3)
    b = propagate(make_generator(g, EvolutionModel.unitary()), rho0, 1.3)
    assert np.abs(a.matrix - b.matrix).max() < 1e-10


# --- closed-form energy dephasing ----------------------------------------------

def test_energy_closed_form_gamma0_is_unitary():
    g = build_graph("cycle", 4)
    spec = spectral_decompose(g.laplacian)
    rho0 = localized_state(g, 1)
    a = propagate_energy_closed_form(g, spec, 0.0, rho0, 1.1)
    b = propagate(make_generator(g, EvolutionModel.unitary()), rho0, 1.1)
    assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_energy_closed_form_fixes_energy_diagonal_states():
    g = build_graph("path", 3)
    spec = spectral_decompose(g.laplacian)
    weights = np.array([0.5, 0.3, 0.2])
    rho0 = sum(w * np.outer(spec.eigenvectors[:, k], spec.eigenvectors[:, k].conj())
               for k, w in enumerate(weights))
    rho0 = DensityMatrix(rho0)
    out = propagate_energy_closed_form(g, spec, 0.7, rho0, 5.0)
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-10


def test_energy_closed_form_matches_superoperator():
    g = build_graph("complete", 4)
    spec = spectral_decompose(g.laplacian)
    rho0 = localized_state(g, 0)
    a = propagate_energy_closed_form(g, spec, 0.5, rho0, 1.3)
    b = propagate(make_generator(g, EvolutionModel.energy_dephasing(0.5)), rho0, 1.3)
    assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_energy_closed_form_rejects_mismatched_spectrum():
    g = build_graph("complete", 4)
    wrong = spectral_decompose(build_graph("cycle", 4).laplacian)
    with pytest.raises(ValueError, match="does not match"):
        propagate_energy_closed_form(g, wrong, 0.5, localized_state(g, 0), 1.0)


# --- classical walk -------------------------------------------------------------

def test_classical_t0_is_delta():
    g = build_graph("cycle", 5)
    p = classical_propagate(g, 3, 0.0)
    assert np.abs(p.probs - np.eye(5)[3]).max() < 1e-12


def test_classical_two_site_return_probability():
    g = build_graph("cycle", 2)
    for t in (0.1, 0.6, 2.0):
        p = classical_propagate(g, 1, t)
        assert abs(p.probs[1] - 0.5 * (1 + np.exp(-2 * t))) < 1e-12


# path-4 keeps the slowest relaxation time well inside t=50 at this tolerance
@pytest.mark.parametrize("topology,n", [("cycle", 5), ("complete", 4), ("path", 4)])
def test_classical_long_time_uniform(topology, n):
    g = build_graph(topology, n)
    p = classical_propagate(g, 0, 50.0)
    assert np.abs(p.probs - 1.0 / n).max() < 1e-8


def test_classical_is_normalized_and_nonnegative():
    g = build_graph("path", 4)
    for t in (0.05, 0.5, 5.0):
        p = classical_propagate(g, 2, t)
        assert p.probs.min() >= 0.0
        assert abs(p.probs.sum() - 1.0) < 1e-12


def test_classical_node_out_of_range():
    with pytest.raises(ValueError, match="range"):
        classical_propagate(build_graph("cycle", 3), 3, 1.0)


# --- dephase_site ----------------------------------------------------------------

def test_dephase_keeps_diagonal_states(rng):
    p = rng.dirichlet(np.ones(4))
    rho = DensityMatrix(np.diag(p).astype(complex))
    assert np.abs(dephase_site(rho).matrix - rho.matrix).max() < 1e-14


def test_dephase_plus_state_is_maximally_mixed():
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = dephase_site(DensityMatrix(plus))
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-14


def test_dephase_idempotent(rng):
    rho = DensityMatrix(random_density(rng, 5))
    once = dephase_site(rho)
    twice = dephase_site(once)
    assert np.abs(once.matrix - twice.matrix).max() == 0.0


# --- spectral gap -----------------------------------------------------------------

def test_unitary_generator_has_no_gap():
    gen = make_generator(build_graph("cycle", 4), EvolutionModel.unitary())
    gap = spectral_gap(gen)
    assert gap.value == 0.0
    assert not gap.has_decay
    assert gap.stationary_dim == 16


def test_strong_dephasing_gap_scaling():
    g = build_graph("cycle", 5)
    gen = make_generator(g, EvolutionModel.site_dephasing(50.0))
    gap = spectral_gap(gen)
    reference = 2.0 * g.fiedler_value / 50.0
    assert 0.9 * reference < gap.value < 1.1 * reference


def test_gap_matches_dense_eigensolve_oracle():
    g = build_graph("complete", 3)
    gen = make_generator(g, EvolutionModel.site_dephasing(1.0))
    w = np.linalg.eigvals(np.asarray(gen.matrix))
    decaying = w.real[w.real < -1e-10]
    assert abs(spectral_gap(gen).value - (-decaying.max())) < 1e-12


def test_gap_reports_stationary_multiplicity():
    g = build_graph("cycle", 3)
    gen = make_generator(g, EvolutionModel.energy_dephasing(1.0))
    gap = spectral_gap(gen)
    # one stationary population per eigenvalue group pair that never decays
    assert gap.has_decay
    assert gap.stationary_dim >= 3


# --- structural properties ---------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2])
def test_odd_coherent_powers_have_no_diagonal(m):
    g = build_graph("path", 4)
    lap = g.laplacian
    x = localized_state(g, 1).matrix
    for _ in range(2 * m + 1):
        x = -1j * (lap @ x - x @ lap)
    assert np.abs(np.diagonal(x).real).max() < 1e-12


@pytest.mark.parametrize("topology,n", [("cycle", 4), ("cycle", 7), ("complete", 5),
                                        ("complete", 8)])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_mixing_bound_weak_dephasing(topology, n, gamma):
    # ||rho(t) - I/N||_1 <= sqrt(N) exp(-mu2 t); the plain eigenvalue gap
    # only controls the transient on circulant topologies at moderate gamma
    # (measured overshoots: 1.9x on path-6 at gamma=1, 1.2x on the triangle
    # at gamma=5), hence the cycle/complete, gamma <= 1 sampling here
    g = build_graph(topology, n)
    gen = make_generator(g, EvolutionModel.site_dephasing(gamma))
    mu2 = spectral_gap(gen).value
    rho0 = localized_state(g, 0)
    for t in (0.1, 1.0, 5.0, 20.0):
        out = propagate(gen, rho0, t)
        dist = np.abs(np.linalg.eigvalsh(out.matrix - np.eye(n) / n)).sum()
        assert dist <= np.sqrt(n) * np.exp(-mu2 * t) + 1e-8


def test_propagator_dispatch_consistency():
    # model-specific fast routes must agree with the superoperator route
    g = build_graph("cycle", 4)
    for model in (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(0.7)):
        prop = Propagator(g, model)
        rho0 = localized_state(g, 1)
        fast = prop.density(rho0, 1.9)
        slow = propagate(make_generator(g, model), rho0, 1.9)
        assert np.abs(fast.matrix - slow.matrix).max() < 1e-10
