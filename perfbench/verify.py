"""Correctness checks for sweep outputs.

Three kinds of check, all outside the timed region:

- every value is finite and in [0, 1];
- at seed 0, every value matches the committed reference to 1e-12;
- at any seed, spot checks against a second route: a direct route that
  exponentiates the Lindblad generator densely per time with
  ``scipy.linalg.expm`` (sharing no kernel with the program), the
  superoperator ``kbar`` for n-space sweeps, and the site-dephasing decay
  bound.
"""
from __future__ import annotations

import random

import numpy as np
import scipy.linalg

import ctqwalk
from sweeps import Sweep, model_of

#: committed reference values vs this run's outputs (seed 0)
REFERENCE_TOL = 1e-12
#: two routes for K and kbar; the seed's code agrees to ~1e-14
ROUTE_TOL = 1e-10
#: dqc takes square roots of eigenvalues near zero, which turns 1e-16
#: rounding in a rank-deficient state into ~1e-8 in the fidelity
DQC_ROUTE_TOL = 1e-6
#: quadrature points for the direct-route spot check of superoperator kbar
SMALL_Q = 9


def range_errors(values: np.ndarray) -> list[str]:
    if not np.isfinite(values).all():
        return ["non-finite value"]
    bad = np.flatnonzero((values < 0) | (values > 1))
    return [f"value {values[i]!r} at index {i} outside [0, 1]" for i in bad[:3]]


def compare(values: np.ndarray, expected, tol: float, what: str) -> list[str]:
    expected = np.asarray(expected, dtype=np.float64)
    if values.shape != expected.shape:
        return [f"{what}: {values.shape[0]} values, expected {expected.shape[0]}"]
    dev = np.abs(values - expected)
    if dev.max() <= tol:
        return []
    i = int(dev.argmax())
    return [f"{what}: index {i} is {values[i]!r}, expected {expected[i]!r} "
            f"(|diff| {dev[i]:.2e} > {tol:.0e})"]


# ---------------------------------------------------------------------------
# Direct route: dense expm of the generator, one per time
# ---------------------------------------------------------------------------

def _simpson(vals: np.ndarray, t: float) -> float:
    q = len(vals)
    w = np.ones(q)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((t / (q - 1)) / 3.0 * np.dot(w, vals) / t)


def direct_k(matrix: np.ndarray, n: int, node: int, s_values, t: float) -> np.ndarray:
    """K(s, t) for each s from dense exponentials of the generator matrix."""
    diag = np.arange(n) * (n + 1)
    v0 = np.zeros(n * n, dtype=np.complex128)
    v0[node * (n + 1)] = 1.0
    out = []
    for s in s_values:
        y = scipy.linalg.expm(matrix * s) @ v0
        y[diag] = 0.0
        z = scipy.linalg.expm(matrix * (t - s)) @ y
        out.append(0.5 * np.abs(z[diag].real).sum())
    return np.array(out)


def direct_profile(matrix: np.ndarray, n: int, node: int, t: float, q: int) -> np.ndarray:
    """K(s, t) on the q-point grid ``linspace(0, t, q)`` from dense exponentials.

    ``e^{M s_i}`` is computed once per grid point and also serves as
    ``e^{M (t - s_{q-1-i})}``; the two times differ by one rounding.
    """
    diag = np.arange(n) * (n + 1)
    start, measure = [], []  # e^{M s} vec(rho0), and the diagonal rows of e^{M s}
    for si in np.linspace(0.0, t, q):
        prop = scipy.linalg.expm(matrix * si)
        start.append(prop[:, node * (n + 1)].copy())
        measure.append(prop[diag, :].copy())
    vals = []
    for i in range(q):
        y = start[i]
        y[diag] = 0.0
        vals.append(0.5 * np.abs((measure[q - 1 - i] @ y).real).sum())
    return np.array(vals)


def direct_kbar(matrix: np.ndarray, n: int, node: int, t: float, q: int) -> float:
    """kbar(t) by Simpson's rule over :func:`direct_profile`."""
    return _simpson(direct_profile(matrix, n, node, t, q), t)


def direct_dqc(graph: ctqwalk.Graph, matrix: np.ndarray, t: float) -> float:
    """min over start nodes of 1 - F(classical diagonal state, quantum state)."""
    n = graph.n
    quantum = scipy.linalg.expm(matrix * t)
    classical = scipy.linalg.expm(-graph.laplacian * t)
    best = 1.0
    for nu in range(n):
        rho = quantum[:, nu * (n + 1)].reshape((n, n), order="F")
        rho = 0.5 * (rho + rho.conj().T)
        root = np.sqrt(np.clip(classical[:, nu], 0.0, None))
        w = np.linalg.eigvalsh(root[:, None] * rho * root[None, :])
        fid = min(float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2), 1.0)
        best = min(best, 1.0 - fid)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Spot checks at any seed
# ---------------------------------------------------------------------------

def spot_check(sweep: Sweep, graphs: dict, values: np.ndarray, seed: int) -> list[str]:
    """Cross-route checks on one or two points of a sweep's output."""
    graph = graphs[sweep.topology]
    model = model_of(sweep)
    gen = ctqwalk.make_generator(graph, model)
    rho0 = ctqwalk.localized_state(graph, sweep.node)
    grid = sweep.grid()
    i = random.Random(f"{seed}:{sweep.key}").randrange(1, len(grid))
    t = float(grid[i])
    errors = []
    if sweep.family == "dqc":
        errors += compare(values[i:i + 1], [direct_dqc(graph, gen.matrix, t)],
                          DQC_ROUTE_TOL, f"dqc at t={t:.6g} vs direct expm")
    elif sweep.command == "kst":
        idx = [1, i]
        direct = direct_k(gen.matrix, graph.n, sweep.node, grid[idx], sweep.t)
        errors += compare(values[idx], direct, ROUTE_TOL, "K(s, t) vs direct expm")
    elif sweep.model != "site-dephasing":
        superop = ctqwalk.kbar(gen, rho0, t, quad_points=sweep.quad_points)
        errors += compare(values[i:i + 1], [superop], ROUTE_TOL,
                          f"n-space kbar at t={t:.6g} vs superoperator kbar")
    else:
        small = ctqwalk.kbar(gen, rho0, t, quad_points=SMALL_Q)
        direct = direct_kbar(gen.matrix, graph.n, sweep.node, t, SMALL_Q)
        errors += compare(np.array([small]), [direct], ROUTE_TOL,
                          f"superoperator kbar (q={SMALL_Q}) at t={t:.6g} vs direct expm")
        if sweep.call.startswith("cli-"):
            lib = ctqwalk.kbar(gen, rho0, t, quad_points=sweep.quad_points)
            errors += compare(values[i:i + 1], [lib], ROUTE_TOL,
                              f"CLI kbar at t={t:.6g} vs library kbar")
        mu2 = ctqwalk.spectral_gap(gen).value
        bound = np.array([ctqwalk.kbar_bound_site_dephasing(graph, sweep.gamma, float(tt), mu2)
                          for tt in grid])
        over = np.flatnonzero(values > bound + REFERENCE_TOL)
        errors += [f"kbar {values[j]!r} at t={grid[j]:.6g} exceeds the decay bound "
                   f"{bound[j]!r}" for j in over[:3]]
    return [f"{sweep.key}: {e}" for e in errors]
