"""Measurement core: set-up, the closed sweep loop, probes and metrics.

``run_workload`` is the whole benchmark for one workload and seed. It
returns the result line (``correct``, ``attempted``, ``failed``,
``metrics``) plus a record with every sample, check and environment
detail. The untraced run (``trace=False``) gives the end-to-end metrics.
The traced run (``trace=True``) alternates untraced and traced copies of
each sweep, so that the tracing overhead is measured in the same process,
and gives the per-layer metrics.
"""
from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import ctqwalk
import sweeps as sw
import verify
from spans import LAYERS, Tracer

SETUP_REPS = 5

# Set-up as a user pays it: a fresh interpreter imports ctqwalk, builds the
# three workload graphs and computes their spectra.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import ctqwalk
if not ctqwalk.__file__.startswith(sys.argv[2]):
    raise SystemExit(f"ctqwalk imported from {ctqwalk.__file__}, not {sys.argv[2]}")
graphs = [ctqwalk.build_graph(t, int(sys.argv[1])) for t in ("cycle", "complete", "path")]
for g in graphs:
    g.spectrum
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"wall_s": "s", "kbar_pts_per_s": "1/s", "dqc_pts_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


class Unavailable(Exception):
    """A per-layer metric whose function is missing from the program."""


@dataclass
class Loop:
    """Samples of one run of the sweep loop."""

    times: dict[str, list[float]] = field(default_factory=dict)
    traced: dict[str, list[float]] = field(default_factory=dict)
    marks: list[tuple[str, dict, dict]] = field(default_factory=list)
    runs: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    first: dict[str, np.ndarray] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    bytes_out: dict[str, int] = field(default_factory=dict)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def measure_setup(src: Path, n: int, reps: int = SETUP_REPS) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(n), str(src)],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _check(loop: Loop, sweep: sw.Sweep, values: np.ndarray, reference: dict | None) -> list[str]:
    errors = verify.range_errors(values)
    if reference is not None:
        errors += verify.compare(values, reference[sweep.key]["values"],
                                 verify.REFERENCE_TOL, "vs committed reference")
    first = loop.first.setdefault(sweep.key, values)
    if first is not values:
        errors += verify.compare(values, first, verify.REFERENCE_TOL, "vs first run")
    return errors


def run_once(loop: Loop, sweep: sw.Sweep, graphs: dict, workdir: Path,
             reference: dict | None, tracer: Tracer | None = None) -> None:
    """One timed sweep, then its checks; a failure is recorded, not raised."""
    out = workdir / f"run-{sum(loop.runs.values())}.{sweep.fmt}"
    loop.runs[sweep.key] = loop.runs.get(sweep.key, 0) + 1
    if tracer is not None:
        tracer.install()
        lo = tracer.mark()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = sw.execute(sweep, graphs, str(out))
        else:
            with tracer.span(f"bench.{sweep.key}"):  # the root of this sweep's spans
                raw = sw.execute(sweep, graphs, str(out))
        dt = time.perf_counter() - t0
    except Exception as exc:  # a sweep that raises counts as failed; the run goes on
        loop.failed[sweep.key] = loop.failed.get(sweep.key, 0) + 1
        loop.errors.append(f"{sweep.key}: raised {type(exc).__name__}: {exc}")
        return
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        errors = _check(loop, sweep, sw.values_of(sweep, raw), reference)
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"output unreadable: {exc}"]
    if out.exists():
        loop.bytes_out[sweep.key] = out.stat().st_size
        out.unlink()
    if errors:
        loop.failed[sweep.key] = loop.failed.get(sweep.key, 0) + 1
        loop.errors += [f"{sweep.key}: {e}" for e in errors]
        return
    if tracer is None:
        loop.times.setdefault(sweep.key, []).append(dt)
    else:
        loop.traced.setdefault(sweep.key, []).append(dt)
        loop.marks.append((sweep.key, lo, tracer.mark()))


def sweep_loop(sweeps: list[sw.Sweep], graphs: dict, workdir: Path, seconds: float,
               reference: dict | None, tracer: Tracer | None = None) -> Loop:
    """Closed loop: one client runs the sweeps in order, one after another,
    until ``seconds`` have passed and every sweep has run. With a tracer,
    each sweep runs untraced and traced, alternating which goes first."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for sweep in sweeps:
            if time.perf_counter() >= deadline and all(s.key in loop.runs for s in sweeps):
                return loop
            variants = [None] if tracer is None else [None, tracer] if rounds % 2 else [tracer, None]
            for t in variants:
                run_once(loop, sweep, graphs, workdir, reference, t)
        rounds += 1


def _median_sum(samples: dict[str, list[float]], keys) -> float:
    return sum(statistics.median(samples[k]) for k in keys)


def _upper_quartile_sum(samples: dict[str, list[float]], keys) -> float:
    return sum(statistics.quantiles(samples[k], n=4, method="inclusive")[2]
               if len(samples[k]) > 1 else samples[k][0] for k in keys)


def end_to_end(sweeps: list[sw.Sweep], loop: Loop, setup: list[float]) -> dict:
    """wall_s is one pass over the workload, each sweep at the upper quartile
    of its run times; the rates divide values by the same times.

    The upper quartile rather than the median: on a shared host the machine
    alternates for seconds at a time between a fast and a slow speed (1.5x
    apart), and the median of a sweep's 3-5 runs follows whichever held for
    more of the run. The slow speed recurs in every run, so the upper
    quartile is far steadier from run to run (IQR/median 0.16 against 0.25
    on the worst metric, over the same ten runs).
    """
    keys = [s.key for s in sweeps]
    if any(k not in loop.times for k in keys):  # a sweep never passed its checks
        return {k: {"value": None, "unit": u} for k, u in END_TO_END_UNITS.items()}
    by_family = {f: [s for s in sweeps if s.family == f] for f in ("kbar", "dqc")}
    rate = {f: sum(s.n_values for s in ss) / _upper_quartile_sum(loop.times, [s.key for s in ss])
            for f, ss in by_family.items() if ss}
    values = {
        "wall_s": _upper_quartile_sum(loop.times, keys),
        "kbar_pts_per_s": rate.get("kbar"),
        "dqc_pts_per_s": rate.get("dqc"),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _timed(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def probes(graphs: dict, workdir: Path, tracer: Tracer) -> dict:
    """Kernel timings on fixed configurations, the same for every workload.

    Each is the median of a few calls, in seconds, or an ``Unavailable``
    when the public name it times is gone.
    """
    out: dict = {}
    cycle, complete = graphs["cycle"], graphs["complete"]
    n = cycle.n
    site = ctqwalk.EvolutionModel.site_dephasing(1.0)
    rho0 = ctqwalk.localized_state(cycle, 0)
    out["nonclassicality.k_profile_ms.nspace"] = _timed(lambda: ctqwalk.k_slice(
        cycle, ctqwalk.EvolutionModel.energy_dephasing(1.0), 0, sw.TMAX, sw.QUAD_POINTS - 1), 3)
    out["linalg.lindblad_s"] = _timed(lambda: ctqwalk.make_generator(cycle, site), 5)
    gens = [ctqwalk.make_generator(g, site) for g in (cycle, cycle, cycle, complete)]
    if not hasattr(gens[0], "spectral_factors"):
        err = Unavailable("Superoperator.spectral_factors is gone")
        for k in ("linalg.factor_s", "nonclassicality.k_profile_ms.spectral",
                  "nonclassicality.k_profile_ms.pade"):
            out[k] = err
    else:
        it = iter(gens[:3])
        out["linalg.factor_s"] = _timed(lambda: next(it).spectral_factors(), 3)
        gens[3].spectral_factors()
        out["nonclassicality.k_profile_ms.spectral"] = _timed(
            lambda: ctqwalk.kbar(gens[0], rho0, sw.TMAX, sw.QUAD_POINTS), 5)
        out["nonclassicality.k_profile_ms.pade"] = _timed(
            lambda: ctqwalk.kbar(gens[3], rho0, sw.TMAX, sw.QUAD_POINTS), 3)
    for k in [k for k in out if "k_profile_ms" in k and not isinstance(out[k], Exception)]:
        out[k] *= 1e3

    probe = sw.make_sweeps((sw.Row("cli-dqc", "cycle", "unitary", 0.0, 20),), 0, n=n)[0]
    main, render = [], []
    for i in range(3):
        tracer.install()
        lo = tracer.mark()
        try:
            sw.execute(probe, graphs, str(workdir / f"probe-{i}.csv"))
        finally:
            tracer.uninstall()
        st = tracer.stats(lo, tracer.mark())
        main.append(_span_total(tracer, st, "cli.main"))
        render.append(_span_total(tracer, st, "cli.SweepSeries.render"))
    out["cli.main_s"] = statistics.median(main)
    out["cli.render_s"] = (statistics.median(render) if tracer.has("cli.SweepSeries.render")
                           else Unavailable("cli.SweepSeries.render is gone"))
    return out


def _span_total(tracer: Tracer, st: dict, name: str) -> float:
    return float(st["total"][tracer.names.index(name)]) if tracer.has(name) else 0.0


def routes(sweeps: list[sw.Sweep], graphs: dict) -> dict:
    """Route and conditioning of each superoperator configuration of the workload."""
    spectral = pade = 0
    cond = 0.0
    for s in sweeps:
        if s.model != "site-dephasing":
            continue
        gen = ctqwalk.make_generator(graphs[s.topology], sw.model_of(s))
        if not hasattr(gen, "spectral_factors"):
            err = Unavailable("Superoperator.spectral_factors is gone")
            return dict.fromkeys(("linalg.route_spectral", "linalg.route_pade",
                                  "linalg.cond_v_max"), err)
        if gen.spectral_factors() is None:
            pade += 1
        else:
            spectral += 1
        cond = max(cond, float(np.linalg.cond(np.linalg.eig(gen.matrix)[1])))
    return {"linalg.route_spectral": spectral, "linalg.route_pade": pade,
            "linalg.cond_v_max": cond}


def tracemalloc_peak(sweeps: list[sw.Sweep], graphs: dict, workdir: Path) -> float:
    """Largest Python-heap peak of any one sweep, in MiB (numpy data included)."""
    peak = 0
    for s in sweeps:
        tracemalloc.start()
        try:
            sw.execute(s, graphs, str(workdir / f"mem.{s.fmt}"))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        except Exception:  # counted as failed by the timed runs of the same sweep
            pass
        finally:
            tracemalloc.stop()
    return peak / 2**20


def traced_setup(tracer: Tracer, n: int, reps: int = SETUP_REPS) -> dict:
    build, spectrum = [], []
    for _ in range(reps):
        tracer.install()
        lo = tracer.mark()
        try:
            sw.build_graphs(n)
        finally:
            tracer.uninstall()
        st = tracer.stats(lo, tracer.mark())
        build.append(_span_total(tracer, st, "graphs.build_graph"))
        spectrum.append(_span_total(tracer, st, "graphs.spectral_decompose"))
    return {"graphs.build_s": statistics.median(build),
            "graphs.spectrum_s": statistics.median(spectrum)}


def per_layer(sweeps: list[sw.Sweep], loop: Loop, tracer: Tracer) -> dict:
    """Per-pass figures from the traced sweeps: for each sweep the median over
    its traced runs, summed over the workload's sweeps."""
    per_key: dict[str, list[dict]] = {}
    for key, lo, hi in loop.marks:
        per_key.setdefault(key, []).append(tracer.stats(lo, hi))

    def per_pass(what: str, name: str) -> float:
        if not tracer.has(name):
            raise Unavailable(f"{name} is gone")
        i = tracer.names.index(name)
        return sum(statistics.median(float(st[what][i]) for st in per_key[s.key])
                   for s in sweeps)

    def per_call(name: str, scale: float) -> float:
        calls = per_pass("count", name)
        if calls == 0:
            raise Unavailable(f"{name} is not called by this workload")
        return per_pass("total", name) / calls * scale

    traced_wall = _median_sum(loop.traced, [s.key for s in sweeps])
    layer = tracer.layer_of()
    shares = {}
    for j, name in enumerate(LAYERS):
        own = sum(statistics.median(float(st["self"][layer == j].sum()) for st in per_key[s.key])
                  for s in sweeps)
        shares[f"{name}.wall_share"] = own / traced_wall
    dqc_values = sum(s.n_values for s in sweeps if s.family == "dqc")

    out = {}
    for name, fn in {
        "dynamics.propagator_s": lambda: per_call("dynamics.Propagator.__init__", 1.0),
        "dynamics.evolve_us": lambda: per_call("dynamics.Propagator.evolve_matrix", 1e6),
        "dynamics.classical_us": lambda: per_call("dynamics.classical_propagate", 1e6),
        "nonclassicality.fidelity_us": lambda: per_call("nonclassicality.fidelity", 1e6),
        "nonclassicality.dqc_point_ms":
            lambda: per_pass("total", "nonclassicality.dqc_curve") / dqc_values * 1e3,
    }.items():
        try:
            out[name] = fn()
        except Unavailable as exc:
            out[name] = exc
    out["nonclassicality.k_samples"] = sum(s.k_samples for s in sweeps)
    out["nonclassicality.dqc_states"] = sum(s.n_values * s.n for s in sweeps
                                            if s.family == "dqc")
    out["cli.bytes_out"] = sum(loop.bytes_out.get(s.key, 0) for s in sweeps)
    out["trace.overhead_frac"] = traced_wall / _median_sum(loop.times, [s.key for s in sweeps]) - 1
    out.update(shares)
    return out


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.spectrum_s": "s",
    "linalg.lindblad_s": "s", "linalg.factor_s": "s",
    "linalg.route_spectral": "count", "linalg.route_pade": "count", "linalg.cond_v_max": "1",
    "dynamics.propagator_s": "s", "dynamics.evolve_us": "us", "dynamics.classical_us": "us",
    "nonclassicality.fidelity_us": "us", "nonclassicality.dqc_point_ms": "ms",
    "nonclassicality.k_profile_ms.nspace": "ms", "nonclassicality.k_profile_ms.spectral": "ms",
    "nonclassicality.k_profile_ms.pade": "ms",
    "nonclassicality.k_samples": "count", "nonclassicality.dqc_states": "count",
    "cli.main_s": "s", "cli.render_s": "s", "cli.bytes_out": "B",
    "mem.tracemalloc_peak_mib": "MiB", "trace.overhead_frac": "frac",
    **{f"{layer}.wall_share": "frac" for layer in LAYERS},
}


def run_workload(sweeps: list[sw.Sweep], seed: int, seconds: float, trace: bool,
                 root: Path, reference: dict | None, out_dir: Path, tag: str) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    n = sweeps[0].n
    record: dict = {"environment": environment(), "seed": seed, "trace": trace,
                    "sweeps": [s.inputs() | {"key": s.key} for s in sweeps]}
    setup = measure_setup(root / "src", n)
    record["setup_s"] = setup
    graphs = sw.build_graphs(n)

    bad_inputs = [s.key for s in sweeps if reference is not None
                  and (reference.get(s.key) or {}).get("inputs") != s.inputs()]

    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        layer: dict = {}
        if trace:
            layer.update(traced_setup(tracer, n))
            layer.update(probes(graphs, workdir, tracer))
        # warm-up: a one- or two-point call of each sweep, outside the timed region
        for s in sweeps:
            warm = replace(s, steps=2) if s.call.startswith("cli-") else replace(s, times=s.times[:1])
            try:
                sw.execute(warm, graphs, str(workdir / f"warm.{s.fmt}"))
            except Exception:  # the timed runs raise too, and are counted as failed there
                pass
        t0 = time.perf_counter()
        if trace:  # slow under tracemalloc (5x on n-space sweeps), so inside the run's budget
            layer["mem.tracemalloc_peak_mib"] = tracemalloc_peak(sweeps, graphs, workdir)
        loop = sweep_loop(sweeps, graphs, workdir, seconds - (time.perf_counter() - t0),
                          None if bad_inputs else reference, tracer)
        record["loop_s"] = time.perf_counter() - t0
        for s in sweeps:
            if s.key in loop.first:
                try:
                    errs = verify.spot_check(s, graphs, loop.first[s.key], seed)
                except Exception as exc:  # a program defect shown by a check is a failure
                    errs = [f"{s.key}: spot check raised {type(exc).__name__}: {exc}"]
                if errs:
                    loop.failed[s.key] = loop.runs[s.key]
                    loop.errors += errs
        if trace:
            layer.update(routes(sweeps, graphs))
            if all(s.key in loop.traced and s.key in loop.times for s in sweeps):
                layer.update(per_layer(sweeps, loop, tracer))
    for key in bad_inputs:  # without a matching reference no run of the sweep is verified
        loop.failed[key] = loop.runs.get(key, 0)
        loop.errors.append(f"{key}: inputs differ from the committed reference")

    attempted = sum(loop.runs.values())
    failed = min(attempted, sum(loop.failed.values()))
    if trace:
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            v = layer.get(name, Unavailable("a sweep never passed its checks"))
            if isinstance(v, Exception):
                record.setdefault("unavailable", {})[name] = str(v)
                v = None
            metrics[name] = {"value": v, "unit": unit}
        record["spans"] = tracer.write(out_dir / f"spans-{tag}.json.gz", t0)
    else:
        metrics = end_to_end(sweeps, loop, setup)
    record.update(samples=loop.times, traced_samples=loop.traced, runs=loop.runs,
                  failed=loop.failed, errors=loop.errors, bytes_out=loop.bytes_out)
    result = {"correct": not loop.errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record
