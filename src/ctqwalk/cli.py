"""Command-line front end: parameter sweeps written as CSV or JSON.

Subcommands
-----------
kbar       time-averaged Kolmogorov violation over a time grid
kst        K(s, t) profile at fixed t over the intermediate time s
dqc        quantum-classical dynamical distance over a time grid
asymptote  long-time report (energy dephasing value / site dephasing bound)
gap        spectral gap report for the chosen generator

The parser of :func:`build_parser` is the one home of every flag's name,
type, choices and default. An optional ``--config`` file holds flat
``key=value`` lines whose keys are flag names; each line is read as the
flag ``--key value`` by that same parser, ahead of the command line, so
flags override the file and a bad or unknown entry is a usage error like
a bad flag. Output is deterministic: identical configurations produce
byte-identical files once the timestamp is suppressed with
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


class CliError(Exception):
    """Invalid configuration; reported as a usage error (exit code 2), as is
    a graph too large for the superoperator the model needs."""


def _validate(args: argparse.Namespace) -> None:
    if args.graph is None:
        raise CliError("--graph is required")
    if args.steps < 1:
        raise CliError(f"--steps must be >= 1, got {args.steps}")
    if args.quad_points < 3 or args.quad_points % 2 == 0:
        raise CliError(f"--quad-points must be odd and >= 3, got {args.quad_points}")
    if not 0 <= args.gamma < math.inf:
        raise CliError(f"--gamma must be finite and nonnegative, got {args.gamma}")
    if args.model not in _MODELS:
        raise CliError(f"--model must be one of {_MODELS}, got {args.model!r}")
    if args.threads < 1:
        raise CliError(f"--threads must be >= 1, got {args.threads}")
    if args.command in ("kbar", "dqc") and not 0 < (args.tmax or 0) < math.inf:
        raise CliError(f"--tmax must be finite and positive, got {args.tmax}")
    if args.command == "kst":
        if not 0 < (args.t or 0) < math.inf:
            raise CliError(f"--t must be finite and positive for kst, got {args.t}")
        if args.tmax is not None and not args.t <= args.tmax:
            raise CliError(f"--t {args.t} exceeds --tmax {args.tmax}")


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


def _config_flags(path: str) -> list[str]:
    """The entries of a ``key=value`` config file as ``--key=value`` flags.

    The one-token form keeps a value that starts with ``-`` a value.
    """
    flags = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _build_graph(args: argparse.Namespace) -> Graph:
    if args.graph.startswith("file:"):
        graph = graph_from_edge_list(args.graph[len("file:"):])
    elif args.graph not in ("cycle", "complete", "path"):
        raise CliError(f"--graph must be cycle|complete|path|file:PATH, got {args.graph!r}")
    elif args.n is None or args.n < 2:
        raise CliError("--n must be >= 2 for named topologies")
    else:
        graph = build_graph(args.graph, args.n)
    if args.command in ("kbar", "kst", "asymptote") and not 0 <= args.node < graph.n:
        raise CliError(f"--node must be in [0, {graph.n}), got {args.node}")
    return graph


def _model(args: argparse.Namespace) -> EvolutionModel:
    if args.model == "unitary":
        return EvolutionModel.unitary()
    if args.model == "site-dephasing":
        return EvolutionModel.site_dephasing(args.gamma)
    return EvolutionModel.energy_dephasing(args.gamma)


def _meta(args: argparse.Namespace, graph: Graph) -> dict[str, str]:
    meta = {
        "command": args.command,
        "version": __version__,
        "graph": args.graph,
        "n": str(graph.n),
        "model": args.model,
        "gamma": format(args.gamma, ".17g"),
        "node": str(args.node),
        "steps": str(args.steps),
        "quad_points": str(args.quad_points),
    }
    if args.tmax is not None:
        meta["tmax"] = format(args.tmax, ".17g")
    if args.command == "kst":
        meta["t"] = format(args.t, ".17g")
    if not args.no_timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def cmd_kbar(args: argparse.Namespace) -> SweepSeries:
    graph = _build_graph(args)
    times = np.linspace(0.0, args.tmax, args.steps + 1)[1:]
    curve = kbar_curve(graph, _model(args), args.node, times,
                       quad_points=args.quad_points, threads=args.threads)
    rows = [(float(t), float(v)) for t, v in zip(curve.times, curve.values)]
    return SweepSeries(_meta(args, graph), ("t", "value"), rows)


def cmd_kst(args: argparse.Namespace) -> SweepSeries:
    graph = _build_graph(args)
    s_values, values = k_slice(graph, _model(args), args.node, args.t, args.steps)
    rows = [(float(s), float(args.t), float(v)) for s, v in zip(s_values, values)]
    return SweepSeries(_meta(args, graph), ("s", "t", "value"), rows)


def cmd_dqc(args: argparse.Namespace) -> SweepSeries:
    graph = _build_graph(args)
    times = np.linspace(0.0, args.tmax, args.steps + 1)
    t_arr, values = dqc_curve(graph, _model(args), times)
    rows = [(float(t), float(v)) for t, v in zip(t_arr, values)]
    return SweepSeries(_meta(args, graph), ("t", "value"), rows)


def cmd_asymptote(args: argparse.Namespace) -> list[str]:
    graph = _build_graph(args)
    if args.model == "energy-dephasing":
        value = asymptotic_kbar_energy(graph, graph.spectrum, args.node)
        return [f"asymptotic_kbar = {value:.17g}"]
    if args.model == "site-dephasing":
        if args.gamma <= 0:
            raise CliError("site-dephasing asymptote report requires --gamma > 0")
        gen = make_generator(graph, _model(args))
        gap = spectral_gap(gen)
        bound_scale = np.sqrt(graph.n)
        return [
            "asymptotic_kbar = 0 (site dephasing decays to zero)",
            f"mu2 = {gap.value:.17g}",
            f"sqrt_n = {bound_scale:.17g}",
            f"bound_at_t = sqrt_n*(1-exp(-mu2*t))/(mu2*t)",
        ]
    raise CliError("no asymptotic value is defined for the unitary model")


def cmd_gap(args: argparse.Namespace) -> list[str]:
    graph = _build_graph(args)
    gen = make_generator(graph, _model(args))
    gap = spectral_gap(gen)
    fiedler = graph.fiedler_value
    lines = [
        f"mu2 = {gap.value:.17g}" + ("" if gap.has_decay else " (no decaying mode)"),
        f"stationary_dim = {gap.stationary_dim}",
        f"fiedler = {fiedler:.17g}",
    ]
    if args.model == "site-dephasing" and args.gamma > 0:
        ref = 2.0 * fiedler / args.gamma
        lines.append(f"ratio_mu2_to_2fiedler_over_gamma = {gap.value / ref:.17g}")
    return lines


def _write_series(series: SweepSeries, args: argparse.Namespace) -> None:
    text = series.render(args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    values = [row[-1] for row in series.rows]
    target = args.out if args.out is not None else "<stdout>"
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
        p.add_argument("--model", choices=_MODELS, default="unitary")
        p.add_argument("--gamma", type=float, default=0.0)
        p.add_argument("--node", type=int, default=0)
        p.add_argument("--tmax", type=float)
        p.add_argument("--steps", type=int, default=200)
        p.add_argument("--t", type=float, help="final time of the kst profile")
        p.add_argument("--quad-points", type=int, dest="quad_points", default=201)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out")
        p.add_argument("--threads", type=int, default=max(1, os.cpu_count() or 1))
        p.add_argument("--config", help="file of key=value lines, read as --key value")
        p.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # file entries first: argparse keeps the last value, so flags win
            args = parser.parse_args([args.command, *_config_flags(args.config), *argv[1:]])
        _validate(args)
        if args.command == "kbar":
            _write_series(cmd_kbar(args), args)
        elif args.command == "kst":
            _write_series(cmd_kst(args), args)
        elif args.command == "dqc":
            _write_series(cmd_dqc(args), args)
        elif args.command == "asymptote":
            print("\n".join(cmd_asymptote(args)))
        elif args.command == "gap":
            print("\n".join(cmd_gap(args)))
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
