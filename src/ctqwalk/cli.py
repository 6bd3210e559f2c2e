"""Command-line front end: parameter sweeps written as CSV or JSON.

Subcommands
-----------
kbar       time-averaged Kolmogorov violation over a time grid
kst        K(s, t) profile at fixed t over the intermediate time s
dqc        quantum-classical dynamical distance over a time grid
asymptote  long-time report (energy dephasing value / site dephasing bound)
gap        spectral gap report for the chosen generator

Flags override entries of an optional ``--config`` file (flat
``key=value`` lines). Output is deterministic: identical configurations
produce byte-identical files once the timestamp is suppressed with
``--no-timestamp``; numbers are written with 17 significant digits so
they re-parse to the computed doubles exactly.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import EvolutionModel, make_generator, spectral_gap
from .graphs import Graph, build_graph, graph_from_edge_list
from .linalg import SuperoperatorSizeError
from .nonclassicality import (
    asymptotic_kbar_energy,
    dqc_curve,
    k_slice,
    kbar_curve,
)

_MODELS = ("unitary", "site-dephasing", "energy-dephasing")
_DEFAULTS = {
    "model": "unitary",
    "gamma": 0.0,
    "node": 0,
    "steps": 200,
    "quad_points": 201,
    "format": "csv",
    "threads": max(1, os.cpu_count() or 1),
}


class CliError(Exception):
    """Invalid configuration; reported as a usage error (exit code 2), as is
    a graph too large for the superoperator the model needs."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    graph: str
    n: int | None
    model: str
    gamma: float
    node: int
    tmax: float | None
    steps: int
    t: float | None
    quad_points: int
    format: str
    out: str | None
    threads: int
    timestamp: bool

    def validate(self) -> None:
        if self.steps < 1:
            raise CliError(f"--steps must be >= 1, got {self.steps}")
        if self.quad_points < 3 or self.quad_points % 2 == 0:
            raise CliError(f"--quad-points must be odd and >= 3, got {self.quad_points}")
        if not 0 <= self.gamma < math.inf:
            raise CliError(f"--gamma must be finite and nonnegative, got {self.gamma}")
        if self.model not in _MODELS:
            raise CliError(f"--model must be one of {_MODELS}, got {self.model!r}")
        if self.threads < 1:
            raise CliError(f"--threads must be >= 1, got {self.threads}")
        if self.command in ("kbar", "dqc") and not 0 < (self.tmax or 0) < math.inf:
            raise CliError(f"--tmax must be finite and positive, got {self.tmax}")
        if self.command == "kst":
            if not 0 < (self.t or 0) < math.inf:
                raise CliError(f"--t must be finite and positive for kst, got {self.t}")
            if self.tmax is not None and not self.t <= self.tmax:
                raise CliError(f"--t {self.t} exceeds --tmax {self.tmax}")


@dataclass(frozen=True)
class SweepSeries:
    """Computed sweep plus the metadata needed to reproduce it."""

    meta: dict[str, str]
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"meta": self.meta, "rows": [list(r) for r in self.rows]}
        return json.dumps(payload, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _coerce(key: str, raw: str):
    if key in ("n", "node", "steps", "quad_points", "threads"):
        return int(raw)
    if key in ("gamma", "tmax", "t"):
        return float(raw)
    return raw


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_entries: dict[str, object] = {}
    if args.config is not None:
        for key, raw in _load_config_file(args.config).items():
            file_entries[key] = _coerce(key, raw)

    def pick(key: str, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_entries:
            return file_entries[key]
        return _DEFAULTS.get(key, default)

    graph = pick("graph")
    if graph is None:
        raise CliError("--graph is required")
    return RunConfig(
        command=args.command,
        graph=str(graph),
        n=pick("n"),
        model=str(pick("model")),
        gamma=float(pick("gamma")),
        node=int(pick("node")),
        tmax=pick("tmax"),
        steps=int(pick("steps")),
        t=pick("t"),
        quad_points=int(pick("quad_points")),
        format=str(pick("format")),
        out=pick("out"),
        threads=int(pick("threads")),
        timestamp=not args.no_timestamp,
    )


def _build_graph(config: RunConfig) -> Graph:
    if config.graph.startswith("file:"):
        return graph_from_edge_list(config.graph[len("file:"):])
    if config.graph not in ("cycle", "complete", "path"):
        raise CliError(f"--graph must be cycle|complete|path|file:PATH, got {config.graph!r}")
    if config.n is None or config.n < 2:
        raise CliError("--n must be >= 2 for named topologies")
    return build_graph(config.graph, config.n)


def _model(config: RunConfig) -> EvolutionModel:
    if config.model == "unitary":
        return EvolutionModel.unitary()
    if config.model == "site-dephasing":
        return EvolutionModel.site_dephasing(config.gamma)
    return EvolutionModel.energy_dephasing(config.gamma)


def _meta(config: RunConfig, graph: Graph) -> dict[str, str]:
    meta = {
        "command": config.command,
        "version": __version__,
        "graph": config.graph,
        "n": str(graph.n),
        "model": config.model,
        "gamma": format(config.gamma, ".17g"),
        "node": str(config.node),
        "steps": str(config.steps),
        "quad_points": str(config.quad_points),
    }
    if config.tmax is not None:
        meta["tmax"] = format(config.tmax, ".17g")
    if config.command == "kst":
        meta["t"] = format(config.t, ".17g")
    if config.timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def cmd_kbar(config: RunConfig) -> SweepSeries:
    graph = _build_graph(config)
    times = np.linspace(0.0, config.tmax, config.steps + 1)[1:]
    curve = kbar_curve(graph, _model(config), config.node, times,
                       quad_points=config.quad_points, threads=config.threads)
    rows = [(float(t), float(v)) for t, v in zip(curve.times, curve.values)]
    return SweepSeries(_meta(config, graph), ("t", "value"), rows)


def cmd_kst(config: RunConfig) -> SweepSeries:
    graph = _build_graph(config)
    s_values, values = k_slice(graph, _model(config), config.node,
                               config.t, config.steps)
    rows = [(float(s), float(config.t), float(v)) for s, v in zip(s_values, values)]
    return SweepSeries(_meta(config, graph), ("s", "t", "value"), rows)


def cmd_dqc(config: RunConfig) -> SweepSeries:
    graph = _build_graph(config)
    times = np.linspace(0.0, config.tmax, config.steps + 1)
    t_arr, values = dqc_curve(graph, _model(config), times)
    rows = [(float(t), float(v)) for t, v in zip(t_arr, values)]
    return SweepSeries(_meta(config, graph), ("t", "value"), rows)


def cmd_asymptote(config: RunConfig) -> list[str]:
    graph = _build_graph(config)
    if config.model == "energy-dephasing":
        value = asymptotic_kbar_energy(graph, graph.spectrum, config.node)
        return [f"asymptotic_kbar = {value:.17g}"]
    if config.model == "site-dephasing":
        if config.gamma <= 0:
            raise CliError("site-dephasing asymptote report requires --gamma > 0")
        gen = make_generator(graph, _model(config))
        gap = spectral_gap(gen)
        bound_scale = np.sqrt(graph.n)
        return [
            "asymptotic_kbar = 0 (site dephasing decays to zero)",
            f"mu2 = {gap.value:.17g}",
            f"sqrt_n = {bound_scale:.17g}",
            f"bound_at_t = sqrt_n*(1-exp(-mu2*t))/(mu2*t)",
        ]
    raise CliError("no asymptotic value is defined for the unitary model")


def cmd_gap(config: RunConfig) -> list[str]:
    graph = _build_graph(config)
    gen = make_generator(graph, _model(config))
    gap = spectral_gap(gen)
    fiedler = graph.fiedler_value
    lines = [
        f"mu2 = {gap.value:.17g}" + ("" if gap.has_decay else " (no decaying mode)"),
        f"stationary_dim = {gap.stationary_dim}",
        f"fiedler = {fiedler:.17g}",
    ]
    if config.model == "site-dephasing" and config.gamma > 0:
        ref = 2.0 * fiedler / config.gamma
        lines.append(f"ratio_mu2_to_2fiedler_over_gamma = {gap.value / ref:.17g}")
    return lines


def _write_series(series: SweepSeries, config: RunConfig) -> None:
    text = series.render(config.format)
    if config.out is None:
        sys.stdout.write(text)
    else:
        Path(config.out).write_text(text)
    values = [row[-1] for row in series.rows]
    target = config.out if config.out is not None else "<stdout>"
    print(f"wrote {len(series.rows)} rows to {target}: "
          f"final={values[-1]:.6g} max={max(values):.6g}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqwalk",
        description="Nonclassicality sweeps for continuous-time quantum walks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("kbar", "kst", "dqc", "asymptote", "gap"):
        p = sub.add_parser(name)
        p.add_argument("--graph", help="cycle|complete|path|file:PATH")
        p.add_argument("--n", type=int)
        p.add_argument("--model", choices=_MODELS)
        p.add_argument("--gamma", type=float)
        p.add_argument("--node", type=int)
        p.add_argument("--tmax", type=float)
        p.add_argument("--steps", type=int)
        if name == "kst":
            p.add_argument("--t", type=float)
        p.add_argument("--quad-points", type=int, dest="quad_points")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--threads", type=int)
        p.add_argument("--config")
        p.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "t"):
        args.t = None
    try:
        config = _merge_config(args)
        config.validate()
        if config.command == "kbar":
            _write_series(cmd_kbar(config), config)
        elif config.command == "kst":
            _write_series(cmd_kst(config), config)
        elif config.command == "dqc":
            _write_series(cmd_dqc(config), config)
        elif config.command == "asymptote":
            print("\n".join(cmd_asymptote(config)))
        elif config.command == "gap":
            print("\n".join(cmd_gap(config)))
    except (CliError, SuperoperatorSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
