from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqwalk import (
    ClassicalDistribution,
    DensityMatrix,
    EvolutionModel,
    Graph,
    Propagator,
    Superoperator,
    build_graph,
    classical_propagate,
    localized_state,
    make_generator,
    propagate,
    propagate_energy_closed_form,
    spectral_decompose,
    spectral_gap,
    vectorize_lindblad,
)
import ctqwalk.dynamics
from ctqwalk.dynamics import (_energy_sum, _energy_sum_sites, _exp_grid, _profile_factors,
                              _superop_populations)
from ctqwalk.linalg import SuperoperatorSizeError, _Modes, hermitian_basis
from conftest import (apply_map, bits, connected_graphs, expm_steps, forced_pade,
                      random_density)


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
    # the stored matrix is a read-only copy; the caller's array stays writeable
    a = np.eye(2, dtype=np.complex128) / 2
    rho = DensityMatrix(a)
    assert a.flags.writeable and not rho.matrix.flags.writeable
    a[0, 0] = 0.0
    assert rho.matrix[0, 0] == 0.5


def test_density_matrix_stack_checks_each_state(rng):
    good = np.array([random_density(rng, 3) for _ in range(4)])
    rho = DensityMatrix(good)
    assert rho.dim == 3 and rho.matrix.shape == (4, 3, 3)
    assert np.array_equal(rho.populations(),
                          [DensityMatrix(m).populations() for m in good])
    bad_states = {"Hermitian": np.array([[1.0, 0.5], [0.0, 0.0]]), "trace": np.eye(3)[:2, :2],
                  "PSD": np.diag([1.5, -0.5]), "finite": np.diag([np.nan, 1.0])}
    for match, bad in bad_states.items():
        stack = np.array([np.eye(2) / 2] * 3, dtype=complex)
        stack[1] = bad  # one bad state among good ones
        with pytest.raises(ValueError, match=match):
            DensityMatrix(stack)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 2, 3)) / 2)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((1, 2, 2, 2)) / 2)


def test_classical_distribution_validation():
    with pytest.raises(ValueError, match="negative"):
        ClassicalDistribution([1.5, -0.5])
    with pytest.raises(ValueError, match="sum"):
        ClassicalDistribution([0.5, 0.4])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ClassicalDistribution([bad, 1.0])
    assert np.array_equal(ClassicalDistribution([0.25, 0.75]).probs, [0.25, 0.75])


def test_classical_distribution_checks_each_row_of_a_stack():
    stack = ClassicalDistribution([[0.25, 0.75], [1.0, 0.0]])
    assert stack.dim == 2 and np.array_equal(stack.probs, [[0.25, 0.75], [1.0, 0.0]])
    with pytest.raises(ValueError, match="sum"):
        ClassicalDistribution([[0.25, 0.75], [0.5, 0.4]])
    with pytest.raises(ValueError, match="negative"):
        ClassicalDistribution([[0.25, 0.75], [1.5, -0.5]])
    with pytest.raises(ValueError, match="one vector or a stack"):
        ClassicalDistribution(np.full((1, 2, 2), 0.5))


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


def test_evolution_model_rejects_fields_its_kind_does_not_read():
    # the eigenbasis route reads gamma and the generator ignores it for a
    # unitary kind, so a unitary model with a gamma would give two answers
    jump = ((1.0, np.eye(3)),)
    for kind in ("unitary", "custom"):
        with pytest.raises(ValueError, match="gamma"):
            EvolutionModel(kind=kind, gamma=2.0)
    for kind in ("unitary", "site-dephasing", "energy-dephasing"):
        with pytest.raises(ValueError, match="jump"):
            EvolutionModel(kind=kind, gamma=0.0, jumps=jump)
    assert EvolutionModel(kind="unitary", gamma=0.0) == EvolutionModel.unitary()
    assert EvolutionModel.custom(jump).gamma == 0.0


# --- make_generator -----------------------------------------------------------

def test_unitary_generator_has_no_dissipator(rng):
    g = build_graph("cycle", 3)
    gen = make_generator(g, EvolutionModel.unitary())
    rho = random_density(rng, 3)
    lap = g.laplacian
    assert np.abs(apply_map(gen, rho) - (-1j) * (lap @ rho - rho @ lap)).max() < 1e-12


def test_site_dephasing_damps_coherences_at_rate_gamma():
    g = build_graph("cycle", 4)
    gamma = 1.7
    gen = make_generator(g, EvolutionModel.site_dephasing(gamma))
    gen_unitary = make_generator(g, EvolutionModel.unitary())
    offdiag = np.zeros((4, 4), dtype=complex)
    offdiag[1, 3] = 1.0
    dissipator_action = apply_map(gen, offdiag) - apply_map(gen_unitary, offdiag)
    assert np.abs(dissipator_action - (-gamma) * offdiag).max() < 1e-12


def test_energy_dephasing_preserves_eigenprojectors():
    g = build_graph("path", 3)
    gen = make_generator(g, EvolutionModel.energy_dephasing(0.9))
    spec = spectral_decompose(g.laplacian)
    for k in range(3):
        p = np.outer(spec.eigenvectors[:, k], spec.eigenvectors[:, k].conj())
        assert np.abs(apply_map(gen, p)).max() < 1e-12


def _jump_list_site_dephasing(g: Graph, gamma: float) -> Superoperator:
    """Site dephasing as the general Lindblad sum over the n site projectors."""
    jumps = []
    for k in range(g.n):
        proj = np.zeros((g.n, g.n))
        proj[k, k] = 1.0
        jumps.append((gamma, proj))
    return vectorize_lindblad(g.laplacian, jumps)


@pytest.mark.parametrize("topology", ["cycle", "path", "complete"])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_site_dephasing_generator_is_the_jump_list_sum_bit_for_bit(topology, n):
    g = build_graph(topology, n)
    for gamma in (0.5, 1.0, 50.0, 1.0370370370370372):
        gen = make_generator(g, EvolutionModel.site_dephasing(gamma))
        ref = _jump_list_site_dephasing(g, gamma)
        assert np.array_equal(gen.matrix.view(np.uint64), ref.matrix.view(np.uint64))
        if n == 16:  # so the factorization, and with it every state, is unchanged
            for a, b in zip(gen._eig, ref._eig):
                assert np.array_equal(np.asarray(a).view(np.uint64),
                                      np.asarray(b).view(np.uint64))


def test_site_dephasing_generator_takes_only_the_coherent_krons():
    g = build_graph("cycle", 16)
    with mock.patch.object(np, "kron", wraps=np.kron) as spy:
        make_generator(g, EvolutionModel.site_dephasing(1.0))
    assert spy.call_count <= 2
    with pytest.raises(SuperoperatorSizeError):
        make_generator(build_graph("cycle", 33), EvolutionModel.site_dephasing(1.0))


# --- K-profile populations ----------------------------------------------------

@pytest.mark.parametrize("topology,gamma", [("cycle", 1.0), ("complete", 50.0)])
def test_exp_grid_meets_the_full_table(topology, gamma):
    tiny = np.finfo(float).tiny
    w = make_generator(build_graph(topology, 16), EvolutionModel.site_dephasing(gamma))._eig[0]
    for t in (0.2, 7.3, 20.0):
        for q in (3, 5, 201):
            s = np.linspace(0.0, t, q)
            exact, e = np.exp(np.outer(w, s)), _exp_grid(w, s)
            big, gone = np.abs(exact) >= 1e-150, np.abs(exact) < tiny
            assert (np.abs(e - exact)[big] <= 1e-13 * np.abs(exact[big])).all()
            assert (e[gone] == 0).all()
            assert (np.abs(e - exact)[~big] < 1e-150).all()
            assert not ((0 < np.abs(e)) & (np.abs(e) < tiny)).any()  # no subnormal survives


def test_superop_populations_never_exponentiate_the_full_table():
    g, q = build_graph("cycle", 16), 201
    gen = make_generator(g, EvolutionModel.site_dephasing(1.0))
    with mock.patch.object(np, "exp", wraps=np.exp) as spy:
        _superop_populations(gen, localized_state(g, 0).matrix, np.linspace(0.0, 7.3, q))
    sizes = [np.size(c.args[0]) for c in spy.call_args_list]
    assert sizes and sum(sizes) < g.n ** 2 * q / 4


def _complex_superop_populations(gen, rho0, s):
    """The superoperator provider in complex arithmetic over all n^2 modes of
    ``np.linalg.eig(gen.matrix)``, independent of the folded real one:
    ``p = V_d (e^{ws} o V^-1 vec rho0)`` and ``G(s) P = V_d (e^{ws} o V^-1[:, d] P)``."""
    d = np.arange(gen.dim) * (gen.dim + 1)
    w, v = np.linalg.eig(gen.matrix)
    vinv = np.linalg.inv(v)
    e = np.exp(np.outer(w, s))
    p = v[d] @ (e * (vinv @ rho0.flatten(order="F"))[:, None])
    return p.T, lambda pops: (v[d] @ (e * (vinv[:, d] @ pops.T))).T


def _rotation_map():
    """A two-site map that preserves Hermiticity and has no real eigenvalue:
    two decaying rotations in Hermitian coordinates."""
    r = np.zeros((4, 4))
    r[:2, :2] = [[-0.3, 1.2], [-1.2, -0.3]]
    r[2:, 2:] = [[-0.7, 0.4], [-0.4, -0.7]]
    t = hermitian_basis(2)
    return Superoperator(2, t @ r @ t.conj().T)


def test_superop_populations_meet_the_complex_formula(rng):
    irregular = np.zeros((6, 6), dtype=int)
    for j, k in ((0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)):
        irregular[j, k] = irregular[k, j] = 1
    hop = np.zeros((4, 4))
    hop[0, 1] = 1.0  # |0><1|, not Hermitian
    custom = EvolutionModel.custom([(0.8, hop), (0.3, np.diag([1.0, 0.0, 2.0, 0.0]))])
    cases = [(build_graph(topology, n), EvolutionModel.site_dephasing(gamma))
             for topology, n in (("cycle", 4), ("path", 5), ("complete", 6))
             for gamma in (0.5, 1.0, 50.0)]
    cases += [(build_graph("custom", adjacency=irregular), EvolutionModel.site_dephasing(1.0)),
              (build_graph("cycle", 4), custom)]
    projectors = [(2.5, np.diag(np.eye(4)[k])) for k in range(4)]
    no_pairs = vectorize_lindblad(np.zeros((4, 4)), projectors)  # pure dephasing: real spectrum
    gens = [make_generator(g, model) for g, model in cases] + [no_pairs, _rotation_map()]
    assert len(no_pairs._real_modes[0].rates) == 0 < len(no_pairs._real_modes[0].real_rates)
    assert len(gens[-1]._real_modes[0].real_rates) == 0 < len(gens[-1]._real_modes[0].rates)
    for gen in gens:
        n = gen.dim
        starts = [np.diag(np.eye(n)[0]).astype(complex), random_density(rng, n)]
        for t in (0.2, 7.3, 20.0):
            s = np.linspace(0.0, t, 201)
            stack = rng.random((len(s), n))
            for rho0 in starts:
                p, act = _superop_populations(gen, rho0, s)
                modes, _, probed = gen._real_modes
                assert _profile_factors(gen, rho0)[0] is modes
                # each passes its own residual gate, none probed: the largest
                # residual, complete-6 at gamma = 1, is 7e-15 against 1e-12
                assert not probed
                p_ref, act_ref = _complex_superop_populations(gen, rho0, s)
                assert p.dtype == act(stack).dtype == np.float64
                assert np.abs(p - p_ref).max() < 1e-12
                assert np.abs(act(stack) - act_ref(stack)).max() < 1e-12


def _unfolded_eigen_populations(spec, gamma, rho0, s):
    """The eigenbasis provider over all n^2 pairs in complex arithmetic: the
    (q, n, n) phase stack and the read-out ``M^H``, independent of the folded one."""
    u = spec.eigenvectors
    n, q = len(u), len(s)
    lam = np.repeat(spec.group_eigenvalues(), [len(g) for g in spec.groups])
    e = np.exp(-1j * np.multiply.outer(s, lam))
    phase = e[:, :, None] * e.conj()[:, None, :]
    phase = phase * np.exp(-np.multiply.outer(s, 0.5 * gamma * np.subtract.outer(lam, lam) ** 2))
    m = (u.conj()[:, :, None] * u[:, None, :]).reshape(n, n * n)

    def diagonals(x):
        return (x * phase).reshape(q, n * n) @ m.conj().T

    return (diagonals(u.conj().T @ rho0 @ u),
            lambda pops: diagonals((pops @ m).reshape(q, n, n)))


def test_eigen_populations_meet_the_unfolded_sum(rng):
    irregular = np.zeros((6, 6), dtype=int)
    for j, k in ((0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)):
        irregular[j, k] = irregular[k, j] = 1
    graphs = [build_graph("cycle", 4), build_graph("complete", 6),  # 5-fold degenerate
              build_graph("path", 5),  # nondegenerate
              build_graph("custom", adjacency=irregular)]
    for g in graphs:
        starts = [localized_state(g, 0).matrix, random_density(rng, g.n)]
        for gamma in (0.0, 0.6, 50.0):
            model = (EvolutionModel.energy_dephasing(gamma) if gamma
                     else EvolutionModel.unitary())
            prop = Propagator(g, model)
            for t in (0.2, 7.3, 20.0):
                s = np.linspace(0.0, t, 201)
                stack = rng.random((len(s), g.n))
                for rho0 in starts:
                    p, act = prop._populations(rho0, s)
                    p_ref, act_ref = _unfolded_eigen_populations(g.spectrum, gamma, rho0, s)
                    g_p = act(stack)
                    assert p.dtype == g_p.dtype == np.float64
                    assert np.abs(p - p_ref).max() < 1e-13
                    assert np.abs(g_p - act_ref(stack)).max() < 1e-13


def test_eigen_populations_exponentiate_only_the_pairs():
    g, q = build_graph("cycle", 16), 201
    pairs = g.n * (g.n + 1) // 2
    for model in (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(50.0)):
        prop = Propagator(g, model)
        prop._eigen_modes  # built before the spies start
        with mock.patch.object(ctqwalk.dynamics, "_exp_grid", wraps=_exp_grid) as grid, \
                mock.patch.object(np, "exp", wraps=np.exp) as exp:
            prop._populations(localized_state(g, 0).matrix, np.linspace(0.0, 7.3, q))
        # the pairs, and the empty table of the real modes the eigenbasis lacks
        assert [len(c.args[0]) for c in grid.call_args_list] == [pairs, 0]
        assert sum(np.size(c.args[0]) for c in exp.call_args_list) < g.n ** 2 * q / 4


def test_every_k_profile_provider_advances_modes_by_one_kernel():
    g, s = build_graph("cycle", 6), np.linspace(0.0, 3.0, 21)
    rho0 = localized_state(g, 0).matrix
    for model in (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(0.7),
                  EvolutionModel.site_dephasing(1.0)):
        prop = Propagator(g, model)
        with mock.patch.object(_Modes, "advance", autospec=True,
                               side_effect=_Modes.advance) as spy:
            p, act = prop._populations(rho0, s)
            act(p[::-1])
        # p and G each advance one coordinate row per grid point, and nothing else
        assert [c.args[1].shape[0] for c in spy.call_args_list] == [len(s)] * 2, model.kind


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
        u = scipy.linalg.expm(-1j * g.laplacian * t)
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
    rho0 = localized_state(g, 1)
    a = propagate_energy_closed_form(g, 0.0, rho0, 1.1)
    b = propagate(make_generator(g, EvolutionModel.unitary()), rho0, 1.1)
    assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_energy_closed_form_fixes_energy_diagonal_states():
    g = build_graph("path", 3)
    spec = spectral_decompose(g.laplacian)
    weights = np.array([0.5, 0.3, 0.2])
    rho0 = sum(w * np.outer(spec.eigenvectors[:, k], spec.eigenvectors[:, k].conj())
               for k, w in enumerate(weights))
    rho0 = DensityMatrix(rho0)
    out = propagate_energy_closed_form(g, 0.7, rho0, 5.0)
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-10


def test_energy_closed_form_matches_superoperator():
    g = build_graph("complete", 4)
    rho0 = localized_state(g, 0)
    a = propagate_energy_closed_form(g, 0.5, rho0, 1.3)
    b = propagate(make_generator(g, EvolutionModel.energy_dephasing(0.5)), rho0, 1.3)
    assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_energy_closed_form_validates_its_inputs():
    g = build_graph("cycle", 4)
    with pytest.raises(ValueError, match="nonnegative"):
        propagate_energy_closed_form(g, -0.5, localized_state(g, 0), 1.0)
    # a NaN or infinite rate is refused before the double sum runs
    with mock.patch.object(ctqwalk.dynamics, "_energy_sum") as energy_sum:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
                propagate_energy_closed_form(g, bad, localized_state(g, 0), 1.0)
    assert energy_sum.call_count == 0
    with pytest.raises(ValueError, match="does not match graph size"):
        propagate_energy_closed_form(g, 0.5, localized_state(build_graph("cycle", 3), 0), 1.0)


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


def test_classical_propagate_rejects_bad_columns_instead_of_clamping():
    # a spectrum whose e^{-Lt} column dips to -1e-6 (or carries 1e-6 imaginary
    # part) must raise, not be clipped into a distribution; eigenvalues 0 make
    # the column that of u u^H, so u is a Cholesky factor of the wanted matrix
    g = build_graph("path", 2)
    cases = {"negative probability": (ValueError, [[1 + 1e-6, -1e-6], [-1e-6, 1.0]]),
             "imaginary": (ArithmeticError, [[1.0, 1e-6j], [-1e-6j, 1.0]])}
    for match, (error, wanted) in cases.items():
        fake = mock.Mock(eigenvectors=np.linalg.cholesky(np.array(wanted, dtype=complex)),
                         eigenvalues=np.zeros(2))
        with mock.patch.object(Graph, "spectrum", new_callable=mock.PropertyMock,
                               return_value=fake):
            with pytest.raises(error, match=match):
                classical_propagate(g, 0, 1.0)


def test_classical_node_out_of_range():
    with pytest.raises(ValueError, match="range"):
        classical_propagate(build_graph("cycle", 3), 3, 1.0)
    with pytest.raises(ValueError, match="node 3 out of range"):
        classical_propagate(build_graph("cycle", 3), [0, 3, 1], 1.0)
    with pytest.raises(ValueError, match="node -1 out of range"):
        classical_propagate(build_graph("cycle", 3), range(-1, 2), 1.0)


@pytest.mark.parametrize("topology", ["cycle", "path", "complete"])
def test_stacked_classical_propagate_is_its_per_node_calls_bit_for_bit(topology):
    # e^{-lambda t} scales U once per call, but each column keeps its own
    # matrix-vector product: one product with all columns would round differently
    g = build_graph(topology, 16)
    for t in (0.0, 0.125, 1.3, 20.0):
        stack = classical_propagate(g, range(g.n), t).probs
        assert stack.shape == (g.n, g.n)
        assert np.array_equal(bits(stack),
                              bits([classical_propagate(g, nu, t).probs for nu in range(g.n)]))
        assert np.array_equal(bits(classical_propagate(g, [5, 2], t).probs), bits(stack[[5, 2]]))


# --- energy dephasing from site projectors -----------------------------------

def _assert_outer_form_is_energy_sum(g, gamma, t):
    spec = g.spectrum
    projectors, lam = spec.projectors(), spec.group_eigenvalues()
    nodes = np.arange(g.n)
    starts = np.zeros((g.n, g.n, g.n), dtype=complex)
    starts[nodes, nodes, nodes] = 1.0
    ref = _energy_sum(projectors, lam, gamma, starts, t)
    assert np.array_equal(bits(_energy_sum_sites(projectors, lam, gamma, nodes, t)), bits(ref))
    assert np.array_equal(bits(Propagator(g, EvolutionModel.energy_dephasing(gamma))
                                .evolve_matrix(starts, t)), bits(ref))


@pytest.mark.parametrize("topology", ["cycle", "path", "complete"])
def test_energy_outer_form_is_energy_sum_bit_for_bit(topology):
    # (P_a |nu><nu|) P_b is the outer product of column nu of P_a with row nu
    # of P_b; summed in the same (a, b) order it has the double sum's bits,
    # signs of zero included
    g = build_graph(topology, 16)
    for gamma in (0.0, 1.0, 3.7):
        for t in (0.0, 0.125, 1.3, 20.0):
            _assert_outer_form_is_energy_sum(g, gamma, t)


@settings(max_examples=40, deadline=None)
@given(g=connected_graphs(max_sites=9), gamma=st.floats(0.0, 5.0), t=st.floats(0.0, 50.0))
def test_energy_outer_form_is_energy_sum_on_random_graphs(g, gamma, t):
    _assert_outer_form_is_energy_sum(g, gamma, t)


def test_evolve_matrix_takes_the_outer_form_only_for_site_projectors(rng):
    g = build_graph("cycle", 5)
    prop = Propagator(g, EvolutionModel.energy_dephasing(0.8))
    spec = g.spectrum
    states = np.zeros((3, 5, 5), dtype=complex)
    states[[0, 1, 2], [4, 0, 4], [4, 0, 4]] = 1.0  # any nodes, repeats too
    with mock.patch.object(ctqwalk.dynamics, "_energy_sum", wraps=_energy_sum) as energy_sum:
        stack = prop.evolve_matrix(states, 0.9)
        one = prop.evolve_matrix(states[1], 0.9)
        assert energy_sum.call_count == 0
        ref = _energy_sum(spec.projectors(), spec.group_eigenvalues(), 0.8, states, 0.9)
        assert np.array_equal(bits(stack), bits(ref)) and np.array_equal(bits(one), bits(ref[1]))
        # anything else keeps the double sum: a mixed state, a site projector
        # scaled by a rounding, a real-typed one, and one with a stray -0.0 entry
        signed = states[0].copy()
        signed[1, 2] = -0.0
        others = [random_density(rng, 5), states[0] * (1 + 2 ** -52), states[0].real, signed]
        for x in others:
            prop.evolve_matrix(x, 0.9)
        assert energy_sum.call_count == len(others)


def test_times_must_be_finite_and_nonnegative():
    g = build_graph("cycle", 3)
    rho0 = localized_state(g, 0)
    for bad in (-0.5, np.nan, np.inf):
        for model in _models():
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Propagator(g, model).evolve_matrix(rho0.matrix, bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            classical_propagate(g, 0, bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            propagate_energy_closed_form(g, 0.5, rho0, bad)


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


def test_propagator_stack_is_each_state_on_its_own(rng):
    # a (k, n, n) stack gets each matrix's arithmetic unchanged, bit for bit,
    # for states, site projectors and non-Hermitian matrices, on every route
    g = build_graph("path", 3)
    stack = np.array([random_density(rng, 3), localized_state(g, 2).matrix,
                      rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
    for model in _models():
        prop = Propagator(g, model)
        for t in (0.0, 0.4, 2.5):
            out = prop.evolve_matrix(stack, t)
            assert out.shape == stack.shape
            for x, y in zip(stack, out):
                assert np.array_equal(prop.evolve_matrix(x, t), y), model.kind
        states = DensityMatrix(stack[:2])
        evolved = prop.density(states, 1.1)
        for x, y in zip(states.matrix, evolved.matrix):
            assert np.array_equal(prop.density(DensityMatrix(x), 1.1).matrix, y)
    with forced_pade() as spy:
        prop = Propagator(g, _models()[1])
        out = prop.evolve_matrix(stack, 0.4)
        for x, y in zip(stack, out):
            assert np.array_equal(prop.evolve_matrix(x, 0.4), y)
    assert expm_steps(spy) == [0.4] * 4


def test_propagator_dispatch_consistency():
    # model-specific fast routes must agree with the superoperator route
    g = build_graph("cycle", 4)
    for model in (EvolutionModel.unitary(), EvolutionModel.energy_dephasing(0.7)):
        prop = Propagator(g, model)
        rho0 = localized_state(g, 1)
        fast = prop.density(rho0, 1.9)
        slow = propagate(make_generator(g, model), rho0, 1.9)
        assert np.abs(fast.matrix - slow.matrix).max() < 1e-10
