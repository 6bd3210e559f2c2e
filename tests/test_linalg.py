import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctqwalk import (
    EvolutionModel,
    Propagator,
    Superoperator,
    build_graph,
    hermitian_sqrt,
    make_generator,
    vec,
    vectorize_lindblad,
)
from ctqwalk.linalg import (MAX_SUPEROPERATOR_DIM, _hermitian_cols, _hermitian_rows,
                            hermitian_basis, hermitian_coords)
from conftest import apply_map, expm_steps, forced_pade, random_density, random_hermitian


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec: the column-stacked vector back as an n x n matrix."""
    return v.reshape(n, n, order="F")


def _site_projectors(n: int) -> np.ndarray:
    """``|y><y|`` for every site y, as one (n, n, n) stack."""
    return np.eye(n)[:, :, None] * np.eye(n)[:, None, :]


def _unitary_evolution(topology: str, n: int, t: float) -> np.ndarray:
    """``e^{-iLt} |y><y| e^{iLt}`` for every site y, from the unitary Propagator;
    entry ``[y, x, x]`` is the transition probability ``|<x| e^{-iLt} |y>|^2``."""
    prop = Propagator(build_graph(topology, n), EvolutionModel.unitary())
    return prop.evolve_matrix(_site_projectors(n), t)


# --- vec / column stacking ---------------------------------------------------

def test_vec_roundtrip(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(_unvec(vec(m), 4), m)
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


# --- the unitary walk e^{-iLt} (spectral route of Propagator) ------------

def test_hermitian_generator_t0_identity(rng):
    g = build_graph("cycle", 5)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    out = Propagator(g, EvolutionModel.unitary()).evolve_matrix(x, 0.0)
    assert np.abs(out - x).max() < 1e-14


def test_hermitian_generator_two_site_return_probability():
    for t in np.linspace(0.0, 4.0, 23):
        p_return = _unitary_evolution("cycle", 2, t)[1, 1, 1].real
        assert abs(p_return - 0.5 * (1 + np.cos(2 * t))) < 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_hermitian_generator_complete_graph_transitions(n):
    for t in (0.3, 0.9, 2.2):
        rho = _unitary_evolution("complete", n, t)
        p_out = (4.0 / n**2) * np.sin(n * t / 2) ** 2
        for y in range(n):
            for x in range(n):
                expected = 1 - (n - 1) * p_out if x == y else p_out
                assert abs(rho[y, x, x].real - expected) < 1e-12


def test_hermitian_generator_unitarity():
    # e^{-iLt} stays unitary at long t: each evolved site projector is still a
    # rank-one projector, and together they still resolve the identity
    rho = _unitary_evolution("cycle", 8, 17.3)
    assert np.abs(rho @ rho - rho).max() < 1e-12
    assert np.abs(rho.sum(axis=0) - np.eye(8)).max() < 1e-12


def test_hermitian_generator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        vectorize_lindblad(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        vectorize_lindblad(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        vectorize_lindblad(np.array([[np.nan, 0.0], [0.0, 0.0]]))


# --- vectorize_lindblad / Superoperator ------------------------------------

def test_commutator_only_matches_direct(rng):
    h = random_hermitian(rng, 4)
    sup = vectorize_lindblad(h, [])
    rho = random_density(rng, 4)
    assert np.abs(apply_map(sup, rho) - (-1j) * (h @ rho - rho @ h)).max() < 1e-12


def test_site_dephasing_annihilates_diagonal_states():
    n = 4
    jumps = []
    for k in range(n):
        g = np.zeros((n, n))
        g[k, k] = 1.0
        jumps.append((0.7, g))
    sup = vectorize_lindblad(np.zeros((n, n)), jumps)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.abs(apply_map(sup, rho)).max() < 1e-14


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
        assert abs(apply_map(sup, h).trace()) < 1e-10
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


def test_real_form_matches_the_dense_product(rng):
    # index-based T^H M T against the dense products it replaced, on a map
    # with complex entries everywhere (random Hamiltonian and jump)
    h = random_hermitian(rng, 4)
    jump = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sup = vectorize_lindblad(h, [(0.7, jump)])
    t = hermitian_basis(4)
    dense = t.conj().T @ sup.matrix @ t
    assert np.abs(sup.real_form - dense.real).max() < 1e-14
    assert np.abs(t @ sup.real_form @ t.conj().T - sup.matrix).max() < 1e-12
    # a map that does not preserve Hermiticity still has no real form
    with pytest.raises(ArithmeticError, match="Hermiticity"):
        Superoperator(2, np.diag([1.0, 1j, 0.0, 0.0])).real_form


def test_expm_apply_stack_is_each_matrix_on_its_own(rng):
    # each matrix of a stack takes its own products; a site projector takes a
    # column of V^{-1} (or of the Pade exponential), equal to the product.
    # The Pade route maps the Hermitian coordinates a + ib of X = A + iB
    # (A, B Hermitian) by the real e^{Rt}, R = real_form, one part at a time
    g = build_graph("cycle", 4)
    stack = np.array([random_density(rng, 4), np.diag([0.0, 0.0, 1.0, 0.0]),
                      rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))])
    for gamma in (0.8, 2.0):
        sup = make_generator(g, EvolutionModel.site_dephasing(gamma))
        w, v, vinv = sup.spectral_factors()
        out = sup.expm_apply(1.3, stack)
        for x, y in zip(stack, out):
            assert np.array_equal(sup.expm_apply(1.3, x), y)
            assert np.array_equal(_unvec(v @ (np.exp(w * 1.3) * (vinv @ vec(x))), 4), y)
    pade = make_generator(build_graph("cycle", 2), EvolutionModel.site_dephasing(4.0))
    assert pade.spectral_factors() is None
    mats = np.array([np.diag([1.0, 0.0]), [[0.5, 0.2j], [-0.2j, 0.5]],
                     [[0.3, 0.2 + 0.1j], [-0.4j, 0.7]]], dtype=complex)
    step = scipy.linalg.expm(pade.real_form * 0.9)
    for x, y in zip(mats, pade.expm_apply(0.9, mats)):
        assert np.array_equal(pade.expm_apply(0.9, x), y)
        c = _hermitian_rows(vec(x), 2)
        assert np.array_equal(
            _unvec(_hermitian_cols(step @ c.real + 1j * (step @ c.imag), 2), 2), y)
        dense = _unvec(scipy.linalg.expm(pade.matrix * 0.9) @ vec(x), 2)
        assert np.abs(dense - y).max() < 1e-14
    assert np.array_equal(pade.expm_apply(0.0, mats), mats)
    with pytest.raises(ValueError, match="2x2"):
        pade.expm_apply(0.9, np.eye(3))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 3.0),
       rates=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))
@example(n=4, seed=919, t=2.0, rates=[2.0, 1.0])  # its Hermitian input decays to 5.7e-4
def test_forced_pade_expm_apply_matches_the_complex_exponential(n, seed, t, rates):
    # random Lindblad maps with complex jumps, on Hermitian and non-Hermitian
    # inputs: the real-form Pade route against the complex dense exponential.
    # Both round at the scale of the input, so the bound scales with it too:
    # where the output decays far below it, 1e-12 of the output alone is
    # below their rounding (against a 40-digit mp.expm, seed 919 reads 1.2e-15
    # on the Pade route and 4.2e-16 on the dense one, for max|ref| = 5.7e-4)
    rng = np.random.default_rng(seed)
    jumps = [(rate, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
             for rate in rates]
    sup = vectorize_lindblad(random_hermitian(rng, n), jumps)
    stack = np.array([random_density(rng, n), random_hermitian(rng, n),
                      rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))])
    dense = scipy.linalg.expm(sup.matrix * t)
    with forced_pade() as spy:
        out = sup.expm_apply(t, stack)
    assert expm_steps(spy) == ([t] if t > 0 else [])
    for x, y in zip(stack, out):
        ref = _unvec(dense @ vec(x), n)
        assert np.abs(y - ref).max() <= 1e-12 * max(np.abs(ref).max(), np.abs(x).max())


_NO_SCIPY_UNTIL_PADE = """
import sys
from ctqwalk import (EvolutionModel, build_graph, dqc_curve, kbar, kbar_curve, localized_state,
                     make_generator)
graphs = [build_graph(t, 6) for t in ("cycle", "complete", "path")]
for g in graphs:
    g.spectrum
kbar_curve(graphs[0], EvolutionModel.unitary(), 0, [0.5, 1.0])
pool = "concurrent.futures" in sys.modules
from conftest import forced_pade  # here: unittest.mock loads concurrent.futures through asyncio
dqc_curve(graphs[1], EvolutionModel.energy_dephasing(0.6), [0.5, 1.0])
loaded = "scipy" in sys.modules
gen = make_generator(graphs[2], EvolutionModel.site_dephasing(1.0))
rho0 = localized_state(graphs[2], 0)
spectral = kbar(gen, rho0, 1.0)
with forced_pade() as spy:
    pade = kbar(gen, rho0, 1.0)
print(loaded, pool, spy.call_count > 0, abs(pade - spectral) < 1e-10)
"""


def test_scipy_is_imported_only_by_the_pade_route():
    # the n-space routes never load scipy; the Pade route imports it on first use.
    # A kbar sweep runs serially, so nothing loads concurrent.futures either
    tests = Path(__file__).resolve().parent
    src = Path(sys.modules["ctqwalk"].__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_UNTIL_PADE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "True", "True"]


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
    m = np.zeros((4, 4), dtype=np.complex128)
    sup = Superoperator(2, m)
    with pytest.raises(ValueError, match="nonnegative"):
        sup.expm_apply(-0.1, np.eye(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            sup.expm_apply(bad, np.eye(2))
    # the stored matrix is a read-only copy; the caller's array stays writeable
    assert m.flags.writeable and not sup.matrix.flags.writeable
    m[0, 0] = 1.0
    assert sup.matrix[0, 0] == 0.0


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


def test_sqrt_of_a_stack_is_each_root(rng):
    stack = np.array([random_density(rng, 5) for _ in range(3)] + [np.eye(5) / 5])
    roots = hermitian_sqrt(stack)
    for x, r in zip(stack, roots):
        assert np.array_equal(hermitian_sqrt(x), r)
    stack[1] = np.diag([1.0, 0.5, 0.5, -1e-6, -1.0])
    with pytest.raises(ValueError, match="PSD"):
        hermitian_sqrt(stack)
    stack[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_sqrt(stack)


def test_sqrt_clips_tiny_negatives_but_rejects_real_ones():
    out = hermitian_sqrt(np.diag([1.0, -1e-12]))
    assert out[1, 1] == 0.0
    with pytest.raises(ValueError, match="PSD"):
        hermitian_sqrt(np.diag([1.0, -1e-6]))
