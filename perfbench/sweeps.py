"""Workload definitions: the sweeps each workload runs, made from a seed.

A sweep is one call a user of ctqwalk makes: a library ``kbar_curve`` or
``dqc_curve`` over a time grid, or one ``ctqwalk`` command-line run that
writes a series file. A workload is a fixed list of sweeps, run one after
another by one client (closed loop).

Seed 0 gives the canonical inputs (node 0, the stated gamma, grid points
at ``k * tmax / count``). Any other seed moves the start node, scales gamma
by a factor in [0.9, 1.1] and shifts the grid by up to half a step, so the
program cannot be tuned to one input. Gamma stays pinned where the
superoperator route choice sits at a threshold (complete-16 at gamma 50):
there a 10% change flips the route and the sweep's cost by 10x, which
would measure the seed instead of the program.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import numpy as np

import ctqwalk
import ctqwalk.cli

N_SITES = 16
TMAX = 20.0
QUAD_POINTS = 201
KST_T = 5.0
TOPOLOGIES = ("cycle", "complete", "path")


@dataclass(frozen=True)
class Row:
    """One line of a workload table, before the seed is applied."""

    call: str        # "kbar_curve", "dqc_curve" or a CLI subcommand "cli-<cmd>"
    topology: str
    model: str
    gamma: float
    count: int       # grid points (library) or --steps (CLI)
    fmt: str = "csv"
    pin_gamma: bool = False


# Why each workload exists, and the change it is meant to isolate:
# - eigen-kbar: the n-space route (Propagator.evolve_matrix, 2q calls per
#   point), never a superoperator. Energy dephasing cost grows with the
#   number of eigenvalue groups (2, 9, 16 on complete, cycle, path), so an
#   eigenbasis kernel shows here. The dqc sweep gives the
#   n-space single-time route and the dqc_pts_per_s metric.
# - superop-kbar: site dephasing through linalg.Superoperator, on both
#   sides of the spectral/Pade route choice; an eigenbasis kernel for the
#   n-space models should leave it unchanged.
# - cli-dqc: the command line in-process, with CSV/JSON output, the
#   time-grid thread pool (default --threads) and dqc for every start node.
# Every sweep takes about 1-4 s: the host alternates between a fast and a
# slow speed for seconds at a time, and shorter sweeps land wholly in one
# of them, which makes the per-run figures jump. That is why the dqc
# sweeps have 160 points and the CLI kbar run 400 steps.
WORKLOADS: dict[str, tuple[Row, ...]] = {
    "eigen-kbar": (
        Row("kbar_curve", "cycle", "unitary", 0.0, 100),
        Row("kbar_curve", "complete", "energy-dephasing", 1.0, 100),
        Row("kbar_curve", "cycle", "energy-dephasing", 1.0, 10),
        Row("kbar_curve", "path", "energy-dephasing", 1.0, 4),
        Row("dqc_curve", "cycle", "energy-dephasing", 1.0, 160),
    ),
    "superop-kbar": (
        Row("kbar_curve", "cycle", "site-dephasing", 1.0, 100),
        Row("kbar_curve", "path", "site-dephasing", 1.0, 100),
        Row("kbar_curve", "complete", "site-dephasing", 50.0, 100, pin_gamma=True),
        Row("kbar_curve", "complete", "site-dephasing", 1.0, 30),
        Row("dqc_curve", "cycle", "site-dephasing", 1.0, 160),
    ),
    "cli-dqc": (
        Row("cli-dqc", "cycle", "unitary", 0.0, 200, "csv"),
        Row("cli-dqc", "path", "energy-dephasing", 1.0, 100, "json"),
        Row("cli-dqc", "complete", "site-dephasing", 1.0, 50, "csv"),
        Row("cli-kbar", "cycle", "site-dephasing", 1.0, 400, "json"),
        Row("cli-kst", "complete", "unitary", 0.0, 400, "csv"),
    ),
}


@dataclass(frozen=True)
class Sweep:
    """One sweep with every input fixed."""

    key: str
    call: str
    topology: str
    n: int
    model: str
    gamma: float
    node: int
    quad_points: int
    times: tuple[float, ...] = ()   # library grid
    steps: int = 0                  # CLI --steps
    tmax: float = 0.0               # CLI --tmax (dqc, kbar)
    t: float = 0.0                  # CLI --t (kst)
    fmt: str = "csv"

    @property
    def command(self) -> str:
        return self.call[len("cli-"):] if self.call.startswith("cli-") else ""

    @property
    def family(self) -> str:
        """``dqc`` for distance sweeps, ``kbar`` for kbar and K(s, t) sweeps."""
        return "dqc" if self.call in ("dqc_curve", "cli-dqc") else "kbar"

    def grid(self) -> np.ndarray:
        """The time (or, for kst, intermediate-time) grid of the output values."""
        if self.times:
            return np.array(self.times)
        if self.command == "kst":
            return np.linspace(0.0, self.t, self.steps + 1)
        full = np.linspace(0.0, self.tmax, self.steps + 1)
        return full if self.command == "dqc" else full[1:]

    @property
    def n_values(self) -> int:
        return len(self.times) if self.times else len(self.grid())

    @property
    def k_samples(self) -> int:
        """K(s, t) evaluations the sweep needs (q per kbar value, 1 per kst value)."""
        if self.command == "kst":
            return self.n_values
        return self.n_values * self.quad_points if self.family == "kbar" else 0

    def argv(self, out: str) -> list[str]:
        args = [self.command, "--graph", self.topology, "--n", str(self.n),
                "--model", self.model, "--steps", str(self.steps),
                "--quad-points", str(self.quad_points), "--format", self.fmt,
                "--out", out, "--no-timestamp"]
        if self.model != "unitary":
            args += ["--gamma", repr(self.gamma)]
        if self.command == "kst":
            args += ["--t", repr(self.t), "--node", str(self.node)]
        else:
            args += ["--tmax", repr(self.tmax)]
            if self.command == "kbar":
                args += ["--node", str(self.node)]
        return args

    def inputs(self) -> dict:
        """JSON form of the inputs, stored beside the reference values."""
        d = {"call": self.call, "topology": self.topology, "n": self.n,
             "model": self.model, "gamma": self.gamma, "node": self.node,
             "quad_points": self.quad_points}
        if self.times:
            d["times"] = list(self.times)
        else:
            d.update(steps=self.steps, tmax=self.tmax, t=self.t, fmt=self.fmt)
        return d


def make_sweeps(table: tuple[Row, ...], seed: int, n: int = N_SITES,
                quad_points: int = QUAD_POINTS, tmax: float = TMAX,
                kst_t: float = KST_T) -> list[Sweep]:
    """Apply a seed to a workload table (see the module docstring)."""
    rng = random.Random(seed)
    sweeps = []
    for row in table:
        node, scale, shift = rng.randrange(n), 0.9 + 0.2 * rng.random(), 0.5 * rng.random()
        if seed == 0:
            node, scale, shift = 0, 1.0, 0.0
        gamma = row.gamma if row.pin_gamma else row.gamma * scale
        common = dict(call=row.call, topology=row.topology, n=n, model=row.model,
                      gamma=gamma, node=node, quad_points=quad_points)
        key = f"{row.call}:{row.topology}-{n}:{row.model}:{row.gamma:g}"
        if row.call.startswith("cli-"):
            end = kst_t if row.call == "cli-kst" else tmax
            end -= shift * end / row.count
            sweeps.append(Sweep(key=key, steps=row.count, fmt=row.fmt,
                                tmax=0.0 if row.call == "cli-kst" else end,
                                t=end if row.call == "cli-kst" else 0.0, **common))
        else:
            times = tuple((k - shift) * tmax / row.count for k in range(1, row.count + 1))
            sweeps.append(Sweep(key=key, times=times, **common))
    if len({s.key for s in sweeps}) != len(sweeps):
        raise ValueError("sweep keys must be unique within a workload")
    return sweeps


def build_graphs(n: int) -> dict[str, ctqwalk.Graph]:
    """The workload graphs with their spectra computed (the set-up step)."""
    graphs = {topo: ctqwalk.build_graph(topo, n) for topo in TOPOLOGIES}
    for g in graphs.values():
        g.spectrum
    return graphs


def model_of(sweep: Sweep) -> ctqwalk.EvolutionModel:
    if sweep.model == "unitary":
        return ctqwalk.EvolutionModel.unitary()
    if sweep.model == "site-dephasing":
        return ctqwalk.EvolutionModel.site_dephasing(sweep.gamma)
    return ctqwalk.EvolutionModel.energy_dephasing(sweep.gamma)


def execute(sweep: Sweep, graphs: dict, out_path: str):
    """Run one sweep: the timed part. Returns what :func:`values_of` reads.

    Names are looked up on the modules at call time, so a tracer that
    replaces them sees every call. No thread-count argument is passed:
    library calls use their default and CLI runs the default ``--threads``.
    """
    if sweep.call == "kbar_curve":
        return ctqwalk.kbar_curve(graphs[sweep.topology], model_of(sweep), sweep.node,
                                  sweep.times, quad_points=sweep.quad_points).values
    if sweep.call == "dqc_curve":
        return ctqwalk.dqc_curve(graphs[sweep.topology], model_of(sweep), sweep.times)[1]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = ctqwalk.cli.main(sweep.argv(out_path))
    if code != 0:
        raise RuntimeError(f"ctqwalk {sweep.command} exited {code}: {err.getvalue().strip()}")
    return out_path


def values_of(sweep: Sweep, raw) -> np.ndarray:
    """The output values of a sweep; parses the series file of a CLI run."""
    if not sweep.call.startswith("cli-"):
        return np.asarray(raw, dtype=np.float64)
    with open(raw) as fh:
        text = fh.read()
    if sweep.fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    rows = np.array(rows, dtype=np.float64)
    if rows.shape[0] != sweep.n_values:
        raise ValueError(f"expected {sweep.n_values} rows, got {rows.shape[0]}")
    if np.abs(rows[:, 0] - sweep.grid()).max() > 1e-12 * max(sweep.tmax, sweep.t):
        raise ValueError("output grid differs from the requested grid")
    return rows[:, -1]
