"""Nonclassicality of continuous-time quantum walks on graphs.

Quantifies how nonclassical a walk is in two complementary ways: a
single-time quantum-classical dynamical distance (fidelity of the
walker's state to the classical random walk's diagonal state) and a
multi-time Kolmogorov-consistency violation extracted from sequential
position measurements, for unitary dynamics and for Markovian dephasing
in the site or energy basis.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    SpectralDecomposition,
    build_graph,
    graph_from_edge_list,
    read_edge_list,
    spectral_decompose,
)
from .linalg import (
    Superoperator,
    hermitian_sqrt,
    vec,
    vectorize_lindblad,
)
from .dynamics import (
    ClassicalDistribution,
    DensityMatrix,
    EvolutionModel,
    Propagator,
    SpectralGap,
    classical_propagate,
    localized_state,
    make_generator,
    propagate,
    propagate_energy_closed_form,
    spectral_gap,
)
from .nonclassicality import (
    KbarCurve,
    MeasurementRecord,
    ShortTimeCoeffs,
    asymptotic_kbar_energy,
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
    multi_time_prob,
    short_time_coeffs,
)

__all__ = [
    "__version__",
    "Graph",
    "SpectralDecomposition",
    "build_graph",
    "graph_from_edge_list",
    "read_edge_list",
    "spectral_decompose",
    "Superoperator",
    "hermitian_sqrt",
    "vec",
    "vectorize_lindblad",
    "ClassicalDistribution",
    "DensityMatrix",
    "EvolutionModel",
    "Propagator",
    "SpectralGap",
    "classical_propagate",
    "localized_state",
    "make_generator",
    "propagate",
    "propagate_energy_closed_form",
    "spectral_gap",
    "KbarCurve",
    "MeasurementRecord",
    "ShortTimeCoeffs",
    "asymptotic_kbar_energy",
    "dqc",
    "dqc_curve",
    "dqc_node",
    "eigenspace_overlap_matrix",
    "fidelity",
    "k_slice",
    "kbar",
    "kbar_bound_site_dephasing",
    "kbar_curve",
    "kolmogorov_k",
    "multi_time_prob",
    "short_time_coeffs",
]
