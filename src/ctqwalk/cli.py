"""Command-line front end: parameter sweeps written as CSV or JSON.

Subcommands
-----------
kbar       time-averaged Kolmogorov violation over a time grid
kst        K(s, t) profile at fixed t over the intermediate time s
dqc        quantum-classical dynamical distance over a time grid
asymptote  long-time report (energy dephasing value / site dephasing bound)
gap        spectral gap report for the chosen generator

The parser of :func:`build_parser` is the whole command-line contract:
each subcommand declares only the flags it reads, each with its type,
range, choices, default and requiredness. An optional ``--config`` file
holds flat ``key=value`` lines whose keys are flag names of the command;
each line is read as the flag ``--key=value`` by that same parser, ahead
of the command line, so flags override the file and a bad, unknown or
abbreviated entry is a usage error like the same flag typed. Output is
deterministic: identical configurations produce byte-identical files once
the timestamp is suppressed with ``--no-timestamp``; numbers are written
with 17 significant digits so they re-parse to the computed doubles
exactly.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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


def _ranged(kind: type, ok: Callable[..., bool], requirement: str) -> Callable[[str], object]:
    """A ``type=`` callable for argparse: ``kind(text)``, which must satisfy ``ok``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" message
    return parse


_GRAPH = _ranged(str, lambda v: v in ("cycle", "complete", "path") or v.startswith("file:"),
                 "cycle|complete|path|file:PATH")
_COUNT = _ranged(int, lambda v: v >= 1, ">= 1")
_TIME = _ranged(float, lambda v: 0 < v < math.inf, "finite and positive")
_RATE = _ranged(float, lambda v: 0 <= v < math.inf, "finite and nonnegative")


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
        if args.n is not None and args.n != graph.n:
            raise CliError(f"--n {args.n} contradicts the {graph.n} vertices of {args.graph}")
    elif args.n is None:
        raise CliError("--n is required for named topologies")
    else:
        graph = build_graph(args.graph, args.n)
    if "node" in args and not args.node < graph.n:
        raise CliError(f"--node must be in [0, {graph.n}), got {args.node}")
    return graph


def _model(args: argparse.Namespace) -> EvolutionModel:
    """The model of ``--model`` and ``--gamma``; a unitary walk takes no gamma."""
    try:
        return EvolutionModel(kind=args.model, gamma=args.gamma)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _meta(args: argparse.Namespace, graph: Graph) -> dict[str, str]:
    """Command, version and the command's own flags, in a fixed key order."""
    values = vars(args) | {"n": graph.n}
    meta = {"command": args.command, "version": __version__}
    for key in ("graph", "n", "model", "gamma", "node", "steps", "quad_points", "tmax", "t"):
        if key in values:
            value = values[key]
            meta[key] = format(value, ".17g") if isinstance(value, float) else str(value)
    if not args.no_timestamp:
        meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def cmd_kbar(args: argparse.Namespace) -> SweepSeries:
    graph = _build_graph(args)
    times = np.linspace(0.0, args.tmax, args.steps + 1)[1:]
    curve = kbar_curve(graph, _model(args), args.node, times, quad_points=args.quad_points)
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
    model = _model(args)
    if args.model == "energy-dephasing":
        value = asymptotic_kbar_energy(graph, args.node)
        return [f"asymptotic_kbar = {value:.17g}"]
    if args.model == "site-dephasing":
        if args.gamma <= 0:
            raise CliError("site-dephasing asymptote report requires --gamma > 0")
        gen = make_generator(graph, model)
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
    common, node, tmax, final_t, series = (
        argparse.ArgumentParser(add_help=False, allow_abbrev=False) for _ in range(5))
    common.add_argument("--graph", type=_GRAPH, required=True,
                        help="cycle|complete|path|file:PATH")
    common.add_argument("--n", type=_ranged(int, lambda v: v >= 2, ">= 2"),
                        help="number of vertices; a file graph's own count if given")
    common.add_argument("--model", choices=_MODELS, default="unitary")
    common.add_argument("--gamma", type=_RATE, default=0.0)
    common.add_argument("--config", help="file of key=value lines, read as --key=value")
    node.add_argument("--node", type=_ranged(int, lambda v: v >= 0, ">= 0"), default=0)
    tmax.add_argument("--tmax", type=_TIME, required=True)
    final_t.add_argument("--t", type=_TIME, required=True, help="final time of the profile")
    series.add_argument("--steps", type=_COUNT, default=200)
    # Only kbar integrates; kst and dqc record --quad-points as metadata. They
    # keep it because perfbench/sweeps.py passes it to every series command,
    # and an unknown flag would end a benchmark run with no result.
    series.add_argument("--quad-points", dest="quad_points", default=201,
                        type=_ranged(int, lambda v: v >= 3 and v % 2 == 1, "odd and >= 3"))
    series.add_argument("--format", choices=("csv", "json"), default="csv")
    series.add_argument("--out")
    series.add_argument("--no-timestamp", action="store_true")

    parser = argparse.ArgumentParser(
        prog="ctqwalk", allow_abbrev=False,
        description="Nonclassicality sweeps for continuous-time quantum walks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, parents in (
            ("kbar", cmd_kbar, [common, node, tmax, series]),
            ("kst", cmd_kst, [common, node, final_t, series]),
            ("dqc", cmd_dqc, [common, tmax, series]),
            ("asymptote", cmd_asymptote, [common, node]),
            ("gap", cmd_gap, [common])):
        sub.add_parser(name, parents=parents, allow_abbrev=False).set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # --config is read first, so that required flags may come from the file
    pre = argparse.ArgumentParser(prog="ctqwalk", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    try:
        file_flags = [] if config is None else _config_flags(config)
        # file entries first: argparse keeps the last value, so flags win
        args = parser.parse_args([*argv[:1], *file_flags, *argv[1:]])
        result = args.run(args)
        if isinstance(result, SweepSeries):
            _write_series(result, args)
        else:
            print("\n".join(result))
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
