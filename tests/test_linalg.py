import numpy as np
import pytest
import scipy.linalg

from ctqwalk import (
    EvolutionModel,
    Superoperator,
    build_graph,
    expm_hermitian_generator,
    hermitian_sqrt,
    make_generator,
    unvec,
    vec,
    vectorize_lindblad,
)
from ctqwalk.linalg import MAX_SUPEROPERATOR_DIM, hermitian_basis, hermitian_coords
from conftest import random_density, random_hermitian


# --- vec / unvec -----------------------------------------------------------

def test_vec_roundtrip(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(unvec(vec(m), 4), m)
    # real Hermitian coordinates: vec(X) = T r with T unitary and r real
    t = hermitian_basis(4)
    assert np.abs(t.conj().T @ t - np.eye(16)).max() < 1e-15
    h = random_hermitian(rng, 4)
    r = hermitian_coords(h)
    assert r.dtype == np.float64
    assert np.abs(t @ r - vec(h)).max() < 1e-15


def test_vec_column_stacking_convention(rng):
    # rho -> A rho B must correspond to kron(B.T, A)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = vec(a @ rho @ b)
    via_kron = np.kron(b.T, a) @ vec(rho)
    assert np.abs(direct - via_kron).max() < 1e-12


# --- expm_hermitian_generator ---------------------------------------------

def test_hermitian_generator_t0_identity(rng):
    h = random_hermitian(rng, 5)
    assert np.abs(expm_hermitian_generator(h, 0.0) - np.eye(5)).max() < 1e-14


def test_hermitian_generator_two_site_return_probability():
    lap = build_graph("cycle", 2).laplacian
    for t in np.linspace(0.0, 4.0, 23):
        amp = expm_hermitian_generator(lap, t)[1, 1]
        assert abs(abs(amp) ** 2 - 0.5 * (1 + np.cos(2 * t))) < 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_hermitian_generator_complete_graph_transitions(n):
    lap = build_graph("complete", n).laplacian
    for t in (0.3, 0.9, 2.2):
        u = expm_hermitian_generator(lap, t)
        p_out = (4.0 / n**2) * np.sin(n * t / 2) ** 2
        for x in range(n):
            for y in range(n):
                expected = 1 - (n - 1) * p_out if x == y else p_out
                assert abs(abs(u[x, y]) ** 2 - expected) < 1e-12


def test_hermitian_generator_unitarity(rng):
    h = random_hermitian(rng, 8)
    u = expm_hermitian_generator(h, 17.3)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


def test_hermitian_generator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        expm_hermitian_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError, match="square"):
        expm_hermitian_generator(np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError, match="finite"):
        expm_hermitian_generator(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)


# --- vectorize_lindblad / Superoperator ------------------------------------

def test_commutator_only_matches_direct(rng):
    h = random_hermitian(rng, 4)
    sup = vectorize_lindblad(h, [])
    rho = random_density(rng, 4)
    assert np.abs(sup.apply(rho) - (-1j) * (h @ rho - rho @ h)).max() < 1e-12


def test_site_dephasing_annihilates_diagonal_states():
    n = 4
    jumps = []
    for k in range(n):
        g = np.zeros((n, n))
        g[k, k] = 1.0
        jumps.append((0.7, g))
    sup = vectorize_lindblad(np.zeros((n, n)), jumps)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.abs(sup.apply(rho)).max() < 1e-14


def test_site_dephasing_generator_spectrum_structure():
    # dense eigensolve of the 9x9 generator matrix as the oracle
    g = build_graph("cycle", 3)
    sup = make_generator(g, EvolutionModel.site_dephasing(1.0))
    w = np.linalg.eigvals(sup.matrix)
    assert w.real.max() < 1e-10
    assert (np.abs(w) < 1e-10).sum() == 1


def test_vectorize_rejects_too_many_sites(monkeypatch):
    n = MAX_SUPEROPERATOR_DIM + 1

    def no_kron(*args):
        raise AssertionError("built a superoperator past the size limit")

    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(ValueError, match="limit is 32 sites"):
        vectorize_lindblad(np.zeros((n, n)))
    with pytest.raises(ValueError, match="limit"):
        make_generator(build_graph("cycle", n), EvolutionModel.site_dephasing(1.0))


def test_vectorize_rejects_mismatched_jump():
    with pytest.raises(ValueError, match="match"):
        vectorize_lindblad(np.zeros((3, 3)), [(1.0, np.zeros((2, 2)))])
    with pytest.raises(ValueError, match="nonnegative"):
        vectorize_lindblad(np.zeros((2, 2)), [(-1.0, np.zeros((2, 2)))])


def test_superoperator_preserves_trace(rng):
    g = build_graph("cycle", 4)
    sup = make_generator(g, EvolutionModel.site_dephasing(0.8))
    for _ in range(5):
        rho = random_density(rng, 4)
        out = sup.expm_apply(1.3, rho)
        assert abs(out.trace() - rho.trace()) < 1e-10
        # the generator itself is traceless in action, on any Hermitian input
        h = random_hermitian(rng, 4)
        assert abs(sup.apply(h).trace()) < 1e-10
        assert abs(sup.expm_apply(0.7, h).trace() - h.trace()) < 1e-10


def test_superoperator_preserves_hermiticity(rng):
    g = build_graph("path", 3)
    sup = make_generator(g, EvolutionModel.site_dephasing(0.5))
    rho = random_density(rng, 3)
    out = sup.expm_apply(2.1, rho)
    assert np.abs(out - out.conj().T).max() < 1e-10
    # hence a real matrix in Hermitian coordinates, with the same semigroup
    real = sup.real_form
    assert real.dtype == np.float64
    t = hermitian_basis(3)
    assert np.abs(t @ real @ t.conj().T - sup.matrix).max() < 1e-12
    stepped = t @ (scipy.linalg.expm(real * 2.1) @ hermitian_coords(rho))
    assert np.abs(stepped - vec(out)).max() < 1e-12


def test_semigroup_composition_law(rng):
    g = build_graph("cycle", 3)
    sup = make_generator(g, EvolutionModel.site_dephasing(1.2))
    rho = random_density(rng, 3)
    for _ in range(5):
        t = float(rng.uniform(0.5, 3.0))
        s = float(rng.uniform(0.0, t))
        one_shot = sup.expm_apply(t, rho)
        composed = sup.expm_apply(t - s, sup.expm_apply(s, rho))
        assert np.abs(one_shot - composed).max() < 1e-10


def test_superoperator_defective_point_falls_back_consistently():
    # the two-site site-dephasing generator is exactly defective at gamma=4;
    # the diagonalization gate must reject it and the Pade path must agree
    # with the spectral path just off the defect
    g = build_graph("cycle", 2)
    sup = make_generator(g, EvolutionModel.site_dephasing(4.0))
    assert sup.spectral_factors() is None
    near = make_generator(g, EvolutionModel.site_dephasing(4.0 + 1e-6))
    assert near.spectral_factors() is not None
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    out_a = sup.expm_apply(0.9, rho)
    out_b = near.expm_apply(0.9, rho)
    assert np.abs(out_a - out_b).max() < 1e-5


def test_superoperator_shape_and_time_validation():
    with pytest.raises(ValueError, match="must be"):
        Superoperator(2, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="finite"):
        Superoperator(1, np.array([[np.nan]]))
    sup = Superoperator(2, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="nonnegative"):
        sup.expm_apply(-0.1, np.eye(2))


# --- hermitian_sqrt ---------------------------------------------------------

def test_sqrt_identity():
    assert np.abs(hermitian_sqrt(np.eye(4)) - np.eye(4)).max() < 1e-14


def test_sqrt_diagonal():
    out = hermitian_sqrt(np.diag([4.0, 9.0]))
    assert np.abs(out - np.diag([2.0, 3.0])).max() < 1e-12


def test_sqrt_squares_back(rng):
    rho = random_density(rng, 6)
    root = hermitian_sqrt(rho)
    assert np.abs(root @ root - rho).max() < 1e-10
    assert np.abs(root - root.conj().T).max() < 1e-12


def test_sqrt_clips_tiny_negatives_but_rejects_real_ones():
    out = hermitian_sqrt(np.diag([1.0, -1e-12]))
    assert out[1, 1] == 0.0
    with pytest.raises(ValueError, match="PSD"):
        hermitian_sqrt(np.diag([1.0, -1e-6]))
