"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the test results.
"""
import itertools

import numpy as np
import scipy.special

from ctqwalk import (
    DensityMatrix,
    EvolutionModel,
    MeasurementRecord,
    asymptotic_kbar_energy,
    build_graph,
    classical_propagate,
    dqc,
    dqc_node,
    eigenspace_overlap_matrix,
    expm_hermitian_generator,
    kbar,
    kbar_bound_site_dephasing,
    kbar_curve,
    kolmogorov_k,
    localized_state,
    make_generator,
    multi_time_prob,
    one_time_probs,
    propagate,
    propagate_energy_closed_form,
    spectral_decompose,
    spectral_gap,
)
from conftest import random_density


def _report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else f"FAIL ({failures[0]})"
    print(f"\nACCEPTANCE {criterion}: {status}")
    assert not failures, f"criterion {criterion}: {failures}"


# -- 1. two-site closed forms ------------------------------------------------

def test_criterion_1_two_site_closed_forms():
    failures = []
    g = build_graph("cycle", 2)
    gen = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, 1)

    # K(s, t) against (1/2)|sin 2s sin 2(t-s)| on a 50x50 grid
    worst = 0.0
    for t in np.linspace(0.05, np.pi, 50):
        for frac in np.linspace(0.0, 1.0, 50):
            s = frac * t
            expected = 0.5 * abs(np.sin(2 * s) * np.sin(2 * (t - s)))
            worst = max(worst, abs(kolmogorov_k(gen, rho0, s, t) - expected))
    if worst > 1e-10:
        failures.append(f"K grid deviation {worst:.3e}")

    if abs(kbar(gen, rho0, np.pi / 2) - 0.25) > 1e-8:
        failures.append("kbar(pi/2) != 1/4")

    # t*: the signed quantum-classical occupation difference crosses zero
    # where e^{-2t} = cos 2t; bisection on library-computed distributions
    def occupation_diff(t):
        pq = one_time_probs(gen, rho0, t).probs[1]
        pc = classical_propagate(g, 1, t).probs[1]
        return pq - pc

    lo, hi = 0.4, 0.9
    if not occupation_diff(lo) > 0 > occupation_diff(hi):
        failures.append("no sign change in [0.4, 0.9]")
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if occupation_diff(mid) > 0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    if abs(np.exp(-2 * t_star) - np.cos(2 * t_star)) > 1e-6:
        failures.append("bracketed root does not satisfy e^{-2t}=cos 2t")

    # at t* the single-time distributions coincide ...
    pq = one_time_probs(gen, rho0, t_star).probs
    pc = classical_propagate(g, 1, t_star).probs
    if 0.5 * np.abs(pq - pc).sum() > 1e-7:
        failures.append("distributions differ at t*")
    # ... while two-time statistics stay nonclassical
    if not kbar(gen, rho0, t_star) > 0.05:
        failures.append("kbar(t*) <= 0.05")
    # the state-level distance stays positive at t* (the walker state is
    # pure and cannot have unit fidelity with the mixed classical state);
    # single-time classicality at t* lives at the distribution level
    if not dqc(g, EvolutionModel.unitary(), t_star) > 0.4:
        failures.append("state-level distance unexpectedly small at t*")

    _report("1 (two-site closed forms)", failures)


# -- 2. short-time universality ------------------------------------------------

def test_criterion_2_short_time_universality():
    failures = []
    t = 1e-3
    cases = [("cycle", 6, [0]), ("complete", 6, [0]), ("path", 3, [0, 1, 2])]
    for topology, n, nodes in cases:
        g = build_graph(topology, n)
        gen = make_generator(g, EvolutionModel.unitary())
        for node in nodes:
            d = float(g.degrees[node])
            kb = kbar(gen, localized_state(g, node), t)
            if abs(kb / t**2 - d / 3.0) > 1e-3 * (d / 3.0):
                failures.append(f"kbar/t^2 off at {topology}-{n} node {node}")
            dv = dqc_node(g, EvolutionModel.unitary(), node, t)
            if abs(dv / t - d) > 0.01 * d:
                failures.append(f"dqc/t off at {topology}-{n} node {node}")
    _report("2 (short-time universality)", failures)


# -- 3. complete-graph closed form ----------------------------------------------

def test_criterion_3_complete_graph_closed_form():
    failures = []
    rng = np.random.default_rng(2024)
    for n in (3, 5, 8):
        g = build_graph("complete", n)
        gen = make_generator(g, EvolutionModel.unitary())
        rho0 = localized_state(g, 0)

        def p_out(x):
            return (4.0 / n**2) * np.sin(n * x / 2) ** 2

        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, 3.0))
            s = float(rng.uniform(0.0, t))
            expected = (n - 1) * abs(
                p_out(t - s) + p_out(s) - n * p_out(t - s) * p_out(s) - p_out(t))
            worst = max(worst, abs(kolmogorov_k(gen, rho0, s, t) - expected))
        if worst > 1e-10:
            failures.append(f"N={n} deviation {worst:.3e}")
    _report("3 (complete-graph closed form)", failures)


# -- 4. Bessel limit --------------------------------------------------------------

def test_criterion_4_bessel_limit_on_large_cycle():
    failures = []
    n = 64
    g = build_graph("cycle", n)
    worst = 0.0
    for t in np.linspace(0.25, 3.0, 12):
        u = expm_hermitian_generator(g.laplacian, t)
        for d in range(-5, 6):
            p_exact = abs(u[d % n, 0]) ** 2
            p_limit = scipy.special.jv(d, 2 * t) ** 2
            worst = max(worst, abs(p_exact - p_limit))
    if worst > 2e-3:
        failures.append(f"deviation {worst:.3e}")
    _report("4 (Bessel limit)", failures)


# -- 5. site-dephasing short-time cubic correction ---------------------------------

def test_criterion_5_site_dephasing_cubic_coefficient():
    failures = []
    g = build_graph("cycle", 5)
    gen_u = make_generator(g, EvolutionModel.unitary())
    rho0 = localized_state(g, 0)
    ts = np.logspace(-3, -2, 12)
    kb_u = np.array([kbar(gen_u, rho0, float(t)) for t in ts])
    for gamma in (0.5, 1.0):
        gen_g = make_generator(g, EvolutionModel.site_dephasing(gamma))
        diff = kb_u - np.array([kbar(gen_g, rho0, float(t)) for t in ts])
        basis = np.vstack([ts**3, ts**4]).T
        coef, *_ = np.linalg.lstsq(basis, diff, rcond=None)
        predicted = gamma * g.degrees[0] / 6.0
        if abs(coef[0] - predicted) > 0.05 * predicted:
            failures.append(f"gamma={gamma}: fit {coef[0]:.5f} vs {predicted:.5f}")
    _report("5 (site-dephasing cubic correction)", failures)


# -- 6. spectral-gap bound ----------------------------------------------------------

def test_criterion_6_spectral_gap_bound():
    failures = []
    t_grid = np.logspace(np.log10(0.1), np.log10(100.0), 20)
    for topology in ("cycle", "complete"):
        for n in range(3, 9):
            g = build_graph(topology, n)
            for gamma in (0.5, 1.0, 5.0):
                model = EvolutionModel.site_dephasing(gamma)
                mu2 = spectral_gap(make_generator(g, model)).value
                curve = kbar_curve(g, model, 0, t_grid)
                bounds = np.array([
                    kbar_bound_site_dephasing(g, gamma, float(t), mu2=mu2)
                    for t in t_grid])
                excess = (curve.values - bounds).max()
                if excess > 1e-8:
                    failures.append(f"{topology}-{n} gamma={gamma}: excess {excess:.2e}")
            # strong dephasing: gap tracks 2*lambda_F/gamma
            gap50 = spectral_gap(
                make_generator(g, EvolutionModel.site_dephasing(50.0))).value
            ref = 2.0 * g.fiedler_value / 50.0
            if not 0.9 * ref <= gap50 <= 1.1 * ref:
                failures.append(f"{topology}-{n}: gap ratio {gap50 / ref:.3f}")
    _report("6 (spectral-gap bound)", failures)


# -- 7. energy-dephasing asymptotics --------------------------------------------------

def test_criterion_7_energy_dephasing_asymptotics():
    failures = []
    cases = []
    for n in range(3, 11):
        cases.append(("complete", n, 0, 2 * (n - 1) * (n - 2) / n**3))
        expected_cycle = (n - 1) ** 2 / n**3 if n % 2 else 2 * (n - 2) ** 2 / n**3
        cases.append(("cycle", n, 0, expected_cycle))
    cases += [("path", 3, 0, 2 / 27), ("path", 3, 1, 4 / 27), ("path", 3, 2, 2 / 27)]

    for topology, n, node, expected in cases:
        g = build_graph(topology, n)
        value = asymptotic_kbar_energy(g, g.spectrum, node)
        if abs(value - expected) > 1e-12:
            failures.append(f"{topology}-{n} node {node}: closed form off")
        direct = kbar_curve(g, EvolutionModel.energy_dephasing(1.0), node,
                            [400.0], quad_points=801).values[0]
        if abs(direct - expected) > 2e-2:
            failures.append(
                f"{topology}-{n} node {node}: kbar(400)={direct:.4f} vs {expected:.4f}")
    _report("7 (energy-dephasing asymptotics)", failures)


# -- 8. oracle equivalence -------------------------------------------------------------

def test_criterion_8_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(888)

    # closed-form energy propagation vs superoperator exponential
    worst_prop = 0.0
    for _ in range(50):
        topology = ("cycle", "complete", "path")[rng.integers(3)]
        n = int(rng.integers(3, 7))
        gamma = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.0, 5.0))
        g = build_graph(topology, n)
        spec = spectral_decompose(g.laplacian)
        rho0 = DensityMatrix(random_density(rng, n))
        a = propagate_energy_closed_form(g, spec, gamma, rho0, t)
        b = propagate(make_generator(g, EvolutionModel.energy_dephasing(gamma)),
                      rho0, t)
        worst_prop = max(worst_prop, np.abs(a.matrix - b.matrix).max())
    if worst_prop > 1e-10:
        failures.append(f"propagator mismatch {worst_prop:.3e}")

    # difference-form K vs explicit two-time regression sums
    worst_k = 0.0
    for _ in range(30):
        topology = ("cycle", "complete", "path")[rng.integers(3)]
        n = int(rng.integers(3, 6))
        g = build_graph(topology, n)
        model = (EvolutionModel.unitary(),
                 EvolutionModel.site_dephasing(float(rng.uniform(0.1, 2.0))),
                 EvolutionModel.energy_dephasing(float(rng.uniform(0.1, 2.0))),
                 )[rng.integers(3)]
        gen = make_generator(g, model)
        node = int(rng.integers(n))
        rho0 = localized_state(g, node)
        t = float(rng.uniform(0.1, 3.0))
        s = float(rng.uniform(0.0, t))
        p_single = one_time_probs(gen, rho0, t).probs
        k_sum = 0.0
        for x in range(n):
            marginal = sum(
                multi_time_prob(gen, rho0, MeasurementRecord((s, t), (y, x)))
                for y in range(n))
            k_sum += abs(marginal - p_single[x])
        worst_k = max(worst_k, abs(kolmogorov_k(gen, rho0, s, t) - 0.5 * k_sum))
    if worst_k > 1e-10:
        failures.append(f"K route mismatch {worst_k:.3e}")

    _report("8 (oracle equivalence)", failures)


# -- 9. randomized property suite --------------------------------------------------------

def test_criterion_9_property_suite():
    failures = []
    cases = 0
    rng = np.random.default_rng(4242)
    graphs = [build_graph("cycle", 4), build_graph("complete", 4),
              build_graph("path", 4)]
    models = [EvolutionModel.unitary(), EvolutionModel.site_dephasing(0.9),
              EvolutionModel.energy_dephasing(0.7),
              EvolutionModel.custom([(0.4, np.diag([1.0, -1.0, 0.5, 0.0]))])]

    # density-matrix invariants after propagation
    for g, model in itertools.product(graphs, models):
        gen = make_generator(g, model)
        for t in (0.1, 1.0, 10.0):
            for _ in range(2):
                rho0 = DensityMatrix(random_density(rng, 4))
                out = propagate(gen, rho0, t)
                m = out.matrix
                ok = (abs(m.trace() - 1) < 1e-10
                      and np.abs(m - m.conj().T).max() < 1e-10
                      and np.linalg.eigvalsh(m).min() > -1e-8)
                if not ok:
                    failures.append(f"state invariants {g.topology} {model.kind} t={t}")
                cases += 1

    # K in [0, 1] plus exact zeros at the boundaries for localized states
    for g, model in itertools.product(graphs, models[:3]):
        gen = make_generator(g, model)
        rho0 = DensityMatrix(random_density(rng, 4))
        for _ in range(6):
            t = float(rng.uniform(0.05, 5.0))
            s = float(rng.uniform(0.0, t))
            if not 0.0 <= kolmogorov_k(gen, rho0, s, t) <= 1.0:
                failures.append("K out of range")
            cases += 1
        loc = localized_state(g, int(rng.integers(4)))
        t = float(rng.uniform(0.5, 3.0))
        if kolmogorov_k(gen, loc, 0.0, t) > 1e-12 or \
           kolmogorov_k(gen, loc, t, t) > 1e-12:
            failures.append("K boundary values nonzero")
        cases += 2

    # convexity in the initial state
    g = graphs[0]
    gen = make_generator(g, EvolutionModel.site_dephasing(0.6))
    for lam in (0.25, 0.5, 0.75):
        for _ in range(10):
            rho1, rho2 = random_density(rng, 4), random_density(rng, 4)
            s, t = sorted(rng.uniform(0.05, 3.0, size=2))
            mix = kolmogorov_k(gen, DensityMatrix(lam * rho1 + (1 - lam) * rho2),
                               float(s), float(t))
            split = (lam * kolmogorov_k(gen, DensityMatrix(rho1), float(s), float(t))
                     + (1 - lam) * kolmogorov_k(gen, DensityMatrix(rho2),
                                                float(s), float(t)))
            if mix > split + 1e-10:
                failures.append("convexity violated")
            cases += 1

    # translation covariance on circulant graphs
    for topology in ("cycle", "complete"):
        g = build_graph(topology, 5)
        gen = make_generator(g, EvolutionModel.site_dephasing(0.8))
        refs = None
        for nu in range(5):
            rho = localized_state(g, nu)
            k_val = kolmogorov_k(gen, rho, 0.4, 1.3)
            kb_val = kbar(gen, rho, 1.3)
            probs = np.roll(one_time_probs(gen, rho, 1.3).probs, -nu)
            if refs is None:
                refs = (k_val, kb_val, probs)
            else:
                if (abs(k_val - refs[0]) > 1e-10 or abs(kb_val - refs[1]) > 1e-10
                        or np.abs(probs - refs[2]).max() > 1e-10):
                    failures.append(f"translation covariance broken on {topology}")
            cases += 3

    # overlap matrix is symmetric doubly stochastic
    for topology, n in (("cycle", 5), ("cycle", 6), ("complete", 4), ("path", 5)):
        spec = spectral_decompose(build_graph(topology, n).laplacian)
        f = eigenspace_overlap_matrix(spec)
        ok = (np.abs(f - f.T).max() < 1e-10
              and np.abs(f.sum(axis=1) - 1).max() < 1e-10
              and np.abs(f.sum(axis=0) - 1).max() < 1e-10)
        if not ok:
            failures.append(f"overlap matrix not doubly stochastic on {topology}-{n}")
        cases += 1

    if cases < 200:
        failures.append(f"only {cases} randomized cases")
    print(f"\n  property cases exercised: {cases}")
    _report("9 (property suite)", failures)


# -- figure-level qualitative checks --------------------------------------------------------

def test_figure_level_topology_trends():
    failures = []
    t_grid = np.linspace(0.25, 15.0, 60)

    max_complete_16 = kbar_curve(build_graph("complete", 16),
                                 EvolutionModel.unitary(), 0, t_grid).values.max()
    max_complete_4 = kbar_curve(build_graph("complete", 4),
                                EvolutionModel.unitary(), 0, t_grid).values.max()
    if not max_complete_16 < max_complete_4:
        failures.append("no suppression with N on complete graphs")

    cycle_32 = kbar_curve(build_graph("cycle", 32), EvolutionModel.unitary(), 0,
                          [15.0]).values[0]
    if not cycle_32 > 0.05:
        failures.append(f"cycle-32 kbar(15)={cycle_32:.3f} not persistent")

    _report("figures (topology trends)", failures)
