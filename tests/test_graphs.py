import numpy as np
import pytest

from ctqwalk import build_graph, graph_from_edge_list, read_edge_list, spectral_decompose
from conftest import random_hermitian


def test_complete3_laplacian():
    g = build_graph("complete", 3)
    expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
    assert np.array_equal(g.laplacian, expected)
    assert np.array_equal(g.degrees, [2, 2, 2])


def test_cycle2_matches_complete2():
    expected = np.array([[1, -1], [-1, 1]], dtype=float)
    assert np.array_equal(build_graph("cycle", 2).laplacian, expected)
    assert np.array_equal(build_graph("complete", 2).laplacian, expected)


def test_path3_laplacian():
    g = build_graph("path", 3)
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(g.laplacian, expected)


def test_cycle_wraps_around():
    g = build_graph("cycle", 6)
    assert g.adjacency[0, 5] == 1 and g.adjacency[5, 0] == 1
    assert np.array_equal(g.degrees, [2] * 6)


@pytest.mark.parametrize("topology", ["cycle", "complete", "path"])
@pytest.mark.parametrize("n", [2, 3, 7, 16])
def test_row_sums_exactly_zero(topology, n):
    g = build_graph(topology, n)
    # integer assembly means the sums are exact zeros, not small floats
    assert (g.laplacian.sum(axis=1) == 0.0).all()
    assert (g.laplacian == g.laplacian.T).all()


def test_laplacian_psd_smallest_eigenvalue_zero():
    for topology in ("cycle", "complete", "path"):
        g = build_graph(topology, 6)
        w = np.linalg.eigvalsh(g.laplacian)
        assert abs(w[0]) < 1e-12
        assert w.min() > -1e-12


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_graph("cycle", 1)
    with pytest.raises(ValueError):
        build_graph("complete", 0)


def test_rejects_unknown_topology():
    with pytest.raises(ValueError):
        build_graph("torus", 4)


def test_custom_adjacency_validation():
    ok = np.array([[0, 1], [1, 0]])
    assert build_graph("custom", adjacency=ok).n == 2
    with pytest.raises(ValueError, match="symmetric"):
        build_graph("custom", adjacency=np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="diagonal"):
        build_graph("custom", adjacency=np.array([[1, 1], [1, 0]]))
    with pytest.raises(ValueError, match="0 or 1"):
        build_graph("custom", adjacency=np.array([[0, 2], [2, 0]]))
    with pytest.raises(ValueError):
        build_graph("custom")


def test_disconnected_custom_graph_flagged():
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.warns(UserWarning, match="disconnected"):
        g = build_graph("custom", adjacency=adj)
    assert not g.connected
    # disconnected iff the zero eigenvalue is not simple
    w = np.linalg.eigvalsh(g.laplacian)
    assert w[1] < 1e-12


def test_connected_zero_eigenvalue_simple():
    g = build_graph("cycle", 8)
    assert g.connected
    assert g.fiedler_value > 1e-8


def test_spectral_complete3():
    g = build_graph("complete", 3)
    spec = spectral_decompose(g.laplacian)
    assert np.allclose(spec.eigenvalues, [0, 3, 3], atol=1e-10)
    assert spec.groups == ((0,), (1, 2))


def test_spectral_cycle4():
    g = build_graph("cycle", 4)
    spec = spectral_decompose(g.laplacian)
    assert np.allclose(spec.eigenvalues, [0, 2, 2, 4], atol=1e-10)
    assert spec.groups == ((0,), (1, 2), (3,))


def test_spectral_path3_nondegenerate():
    g = build_graph("path", 3)
    spec = spectral_decompose(g.laplacian)
    assert np.allclose(spec.eigenvalues, [0, 1, 3], atol=1e-10)
    assert all(len(grp) == 1 for grp in spec.groups)


def test_cycle_eigenvalues_closed_form_all_sizes():
    # at n=2 the cycle degenerates to a single edge (complete graph), covered above
    for n in range(3, 65):
        spec = spectral_decompose(build_graph("cycle", n).laplacian)
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
        assert np.abs(spec.eigenvalues - expected).max() < 1e-10, f"n={n}"


def test_complete_eigenvalues_closed_form_all_sizes():
    for n in range(2, 65):
        spec = spectral_decompose(build_graph("complete", n).laplacian)
        expected = np.concatenate([[0.0], np.full(n - 1, float(n))])
        assert np.abs(spec.eigenvalues - expected).max() < 1e-10, f"n={n}"


@pytest.mark.parametrize("topology,n", [("cycle", 6), ("complete", 5), ("path", 4)])
def test_group_projectors_resolve_identity(topology, n):
    spec = spectral_decompose(build_graph(topology, n).laplacian)
    total = sum(spec.projectors())
    assert np.abs(total - np.eye(n)).max() < 1e-10
    for p in spec.projectors():
        assert np.abs(p @ p - p).max() < 1e-10  # idempotent


def test_spectral_reconstruction_random(rng):
    m = random_hermitian(rng, 7)
    spec = spectral_decompose(m)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.abs(recon - m).max() < 1e-10
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.abs(gram - np.eye(7)).max() < 1e-10
    assert (np.diff(spec.eigenvalues) >= 0).all()


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        spectral_decompose(np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            spectral_decompose(np.diag([bad, 1.0]))


def test_degeneracy_grouping_follows_tolerance():
    m = np.diag([0.0, 5e-9, 1.0])
    assert spectral_decompose(m).groups == ((0, 1), (2,))


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "graph.edges"
    path.write_text("# triangle plus a tail\n0 1\n1 2\n2 0\n2 3\n\n")
    adj = read_edge_list(path)
    assert adj.shape == (4, 4)
    g = graph_from_edge_list(path)
    assert g.connected
    assert np.array_equal(g.degrees, [2, 2, 3, 1])


def test_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    with pytest.raises(ValueError, match="self loop"):
        read_edge_list(bad)
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected"):
        read_edge_list(bad)
    bad.write_text("\n")
    with pytest.raises(ValueError, match="no edges"):
        read_edge_list(bad)


def test_fiedler_value_cycle5():
    g = build_graph("cycle", 5)
    assert abs(g.fiedler_value - (2 - 2 * np.cos(2 * np.pi / 5))) < 1e-12
