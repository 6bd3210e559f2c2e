import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ctqwalk.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usage_error(capsys, *argv):
    """argv that the parser rejects: SystemExit(2); returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


def _parse_csv(text):
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def test_kbar_csv_stdout(capsys):
    code, out, err = _run(capsys, "kbar", "--graph", "cycle", "--n", "4",
                          "--model", "unitary", "--tmax", "2.0", "--steps", "10",
                          "--no-timestamp")
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["t", "value"]
    assert meta["model"] == "unitary" and meta["n"] == "4"
    assert len(rows) == 10
    assert rows[0][0] == pytest.approx(0.2)
    assert all(0.0 <= v <= 1.0 for _, v in rows)
    assert "final=" in err and "max=" in err


def test_kbar_small_time_rows_scale_with_degree(capsys):
    code, out, _ = _run(capsys, "kbar", "--graph", "complete", "--n", "4",
                        "--model", "unitary", "--tmax", "20.0", "--steps", "200",
                        "--no-timestamp")
    assert code == 0
    _, _, rows = _parse_csv(out)
    degree = 3.0
    # leading quadratic law at the first row, improving as t decreases
    t0, v0 = rows[0]
    assert v0 == pytest.approx(degree * t0**2 / 3.0, rel=0.05)
    ratios = [abs(v / t**2 - degree / 3.0) for t, v in rows[:3]]
    assert ratios[0] < ratios[1] < ratios[2]


def test_kbar_energy_dephasing_reaches_asymptote(capsys):
    code, out, _ = _run(capsys, "kbar", "--graph", "path", "--n", "3",
                        "--model", "energy-dephasing", "--gamma", "2.0",
                        "--node", "1", "--tmax", "400.0", "--steps", "25",
                        "--no-timestamp")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert rows[-1][0] == 400.0
    assert abs(rows[-1][1] - 4 / 27) < 5e-3


def test_kbar_file_output_and_values_reparse_exactly(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    code, _, _ = _run(capsys, "kbar", "--graph", "complete", "--n", "3",
                      "--model", "site-dephasing", "--gamma", "0.5",
                      "--tmax", "1.0", "--steps", "5", "--out", str(out_path),
                      "--no-timestamp")
    assert code == 0
    meta, header, rows = _parse_csv(out_path.read_text())

    from ctqwalk import EvolutionModel, build_graph, kbar_curve
    g = build_graph("complete", 3)
    curve = kbar_curve(g, EvolutionModel.site_dephasing(0.5), 0,
                       np.linspace(0.0, 1.0, 6)[1:])
    for (t, v), t_ref, v_ref in zip(rows, curve.times, curve.values):
        assert t == t_ref  # 17 significant digits round-trip doubles exactly
        assert v == v_ref


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["kbar", "--graph", "cycle", "--n", "5", "--model", "energy-dephasing",
            "--gamma", "1.0", "--tmax", "3.0", "--steps", "6", "--no-timestamp"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_present_unless_suppressed(tmp_path, capsys):
    out_path = tmp_path / "ts.csv"
    assert main(["kbar", "--graph", "cycle", "--n", "3", "--tmax", "1.0",
                 "--steps", "3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert "# timestamp=" in out_path.read_text()


def test_json_format(capsys):
    code, out, _ = _run(capsys, "kbar", "--graph", "cycle", "--n", "3",
                        "--model", "unitary", "--tmax", "1.0", "--steps", "4",
                        "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "kbar"
    assert len(payload["rows"]) == 4
    assert all(len(row) == 2 for row in payload["rows"])


def test_kst_two_site_profile(capsys):
    t = np.pi / 2
    code, out, _ = _run(capsys, "kst", "--graph", "cycle", "--n", "2",
                        "--node", "1", "--t", str(t), "--steps", "100",
                        "--no-timestamp")
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header == ["s", "t", "value"]
    assert len(rows) == 101
    values = np.array([r[2] for r in rows])
    s_vals = np.array([r[0] for r in rows])
    assert values[0] < 1e-12
    assert abs(s_vals[np.argmax(values)] - np.pi / 4) < 0.02
    assert abs(values.max() - 0.5) < 1e-6


def test_kst_matches_complete_graph_closed_form(capsys):
    n, t = 5, 1.0
    code, out, _ = _run(capsys, "kst", "--graph", "complete", "--n", str(n),
                        "--t", str(t), "--steps", "40", "--no-timestamp")
    assert code == 0
    _, _, rows = _parse_csv(out)

    def p_out(x):
        return (4.0 / n**2) * np.sin(n * x / 2) ** 2

    for s, t_row, value in rows:
        assert t_row == t
        expected = (n - 1) * abs(
            p_out(t - s) + p_out(s) - n * p_out(t - s) * p_out(s) - p_out(t))
        assert abs(value - expected) < 1e-10


def test_dqc_series(capsys):
    code, out, _ = _run(capsys, "dqc", "--graph", "cycle", "--n", "2",
                        "--tmax", "2.0", "--steps", "20", "--no-timestamp")
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header == ["t", "value"]
    assert rows[0][0] == 0.0 and rows[0][1] < 1e-12
    assert all(0.0 <= v <= 1.0 for _, v in rows)
    # dqc minimises over every start node, so it declares and records no --node
    assert "node" not in _parse_csv(out)[0]


def test_dqc_complete_tail(capsys):
    code, out, _ = _run(capsys, "dqc", "--graph", "complete", "--n", "8",
                        "--tmax", "60.0", "--steps", "60", "--no-timestamp")
    assert code == 0
    _, _, rows = _parse_csv(out)
    tail = [v for t, v in rows if t >= 50.0]
    assert abs(np.mean(tail) - (1 - 1 / 8)) < 0.02


def test_asymptote_energy_dephasing(capsys):
    code, out, _ = _run(capsys, "asymptote", "--graph", "cycle", "--n", "5",
                        "--model", "energy-dephasing", "--gamma", "2.0")
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value - 16 / 125) < 1e-12


def test_asymptote_complete3(capsys):
    code, out, _ = _run(capsys, "asymptote", "--graph", "complete", "--n", "3",
                        "--model", "energy-dephasing", "--gamma", "1.0")
    assert code == 0
    assert abs(float(out.split("=")[1]) - 4 / 27) < 1e-12


def test_asymptote_site_dephasing_reports_bound(capsys):
    code, out, _ = _run(capsys, "asymptote", "--graph", "cycle", "--n", "4",
                        "--model", "site-dephasing", "--gamma", "1.0")
    assert code == 0
    assert "mu2 = " in out and "sqrt_n = " in out


def test_asymptote_refuses_unitary(capsys):
    code, _, err = _run(capsys, "asymptote", "--graph", "cycle", "--n", "4",
                        "--model", "unitary")
    assert code == 2
    assert "no asymptotic" in err


def test_unitary_model_takes_no_gamma(capsys):
    # a unitary walk has no rate: --gamma is refused, not run as the unitary
    # walk and recorded in the file as if it had been used
    commands = {"kbar": ("--tmax", "1", "--steps", "2"), "kst": ("--t", "1", "--steps", "2"),
                "dqc": ("--tmax", "1", "--steps", "2"), "asymptote": (), "gap": ()}
    for command, flags in commands.items():
        argv = (command, "--graph", "cycle", "--n", "4", "--model", "unitary", *flags)
        code, _, err = _run(capsys, *argv, "--gamma", "0.5")
        assert code == 2 and "takes no gamma" in err, command
        code, _, err = _run(capsys, *argv, "--gamma", "0")
        # the unitary walk has no long-time value to report, with or without gamma
        assert code == (2 if command == "asymptote" else 0), command
        assert "takes no gamma" not in err, command


def test_gap_strong_dephasing_ratio(capsys):
    code, out, _ = _run(capsys, "gap", "--graph", "cycle", "--n", "5",
                        "--model", "site-dephasing", "--gamma", "50.0")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert 0.9 < float(lines["ratio_mu2_to_2fiedler_over_gamma"]) < 1.1
    assert abs(float(lines["fiedler"]) - (2 - 2 * np.cos(2 * np.pi / 5))) < 1e-12


def test_gap_value_matches_library(capsys):
    code, out, _ = _run(capsys, "gap", "--graph", "complete", "--n", "3",
                        "--model", "site-dephasing", "--gamma", "1.0")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())

    from ctqwalk import EvolutionModel, build_graph, make_generator, spectral_gap
    gen = make_generator(build_graph("complete", 3), EvolutionModel.site_dephasing(1.0))
    assert float(lines["mu2"]) == spectral_gap(gen).value


def test_gap_unitary_flagged(capsys):
    code, out, _ = _run(capsys, "gap", "--graph", "cycle", "--n", "4",
                        "--model", "unitary")
    assert code == 0
    assert "no decaying mode" in out
    assert "mu2 = 0" in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "graph=cycle\n"
        "n=4\n"
        "model=site-dephasing\n"
        "gamma=1.0\n"
        "tmax=2.0\n"
        "steps=5\n"
        "quad-points=101\n")
    code, out, _ = _run(capsys, "kbar", "--config", str(cfg), "--no-timestamp")
    assert code == 0
    meta, _, rows = _parse_csv(out)
    assert meta["quad_points"] == "101" and len(rows) == 5

    # flags override config entries
    code, out, _ = _run(capsys, "kbar", "--config", str(cfg), "--steps", "3",
                        "--no-timestamp")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert len(rows) == 3

    # entries go through the command's own parser: a key the command does not
    # read (kbar has no --t), a bad value or an unknown key is a usage error
    for entry in ("t=1.5", "format=xml", "gama=1.0", "steps=abc"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + entry + "\n")
        assert "error" in _usage_error(capsys, "kbar", "--config", str(bad), "--no-timestamp")


def test_edge_list_graph(tmp_path, capsys):
    edges = tmp_path / "p3.edges"
    edges.write_text("0 1\n1 2\n")
    code, out, _ = _run(capsys, "asymptote", "--graph", f"file:{edges}",
                        "--model", "energy-dephasing", "--gamma", "1.0",
                        "--node", "1")
    assert code == 0
    assert abs(float(out.split("=")[1]) - 4 / 27) < 1e-12


def test_invalid_flags_exit_nonzero(tmp_path, capsys):
    # range, choice and requiredness are the parser's checks: SystemExit(2)
    for argv in (("kbar", "--graph", "cycle", "--n", "4", "--tmax", "0"),
                 ("kbar", "--graph", "cycle", "--n", "1", "--tmax", "1"),
                 ("kbar", "--graph", "cycle", "--n", "4", "--tmax", "1", "--quad-points", "10"),
                 ("kbar", "--graph", "cycle", "--n", "4", "--tmax", "1", "--gamma", "-1"),
                 ("kst", "--graph", "cycle", "--n", "4"),  # --t missing
                 ("kbar", "--graph", "cycle", "--n", "4"),  # --tmax missing
                 ("kbar", "--n", "4", "--tmax", "1"),  # --graph missing
                 ("kbar", "--graph", "moebius", "--n", "4", "--tmax", "1"),
                 ("kst", "--graph", "cycle", "--n", "4", "--node", "-1", "--t", "1")):
        assert "error" in _usage_error(capsys, *argv)
    # the checks that need the graph's size: main returns 2
    assert _run(capsys, "kbar", "--graph", "cycle", "--n", "4", "--node", "7",
                "--tmax", "1")[0] == 2
    assert _run(capsys, "asymptote", "--graph", "cycle", "--n", "4", "--node", "4",
                "--model", "energy-dephasing")[0] == 2
    assert _run(capsys, "gap", "--graph", "cycle")[0] == 2  # --n missing
    # --n may restate a file graph's vertex count, not contradict it
    edges = tmp_path / "p4.edges"
    edges.write_text("0 1\n1 2\n2 3\n")
    code, _, err = _run(capsys, "gap", "--graph", f"file:{edges}", "--n", "10")
    assert code == 2
    assert "--n 10 contradicts the 4 vertices" in err
    assert _run(capsys, "gap", "--graph", f"file:{edges}", "--n", "4")[0] == 0
    # non-finite values are usage errors, not NaN rows with exit code 0
    energy = ("--model", "energy-dephasing", "--steps", "2")
    for bad in ("nan", "inf"):
        _usage_error(capsys, "kbar", "--graph", "cycle", "--n", "4", *energy,
                     "--gamma", bad, "--tmax", "1")
        _usage_error(capsys, "kbar", "--graph", "cycle", "--n", "4", *energy,
                     "--gamma", "1", "--tmax", bad)
        _usage_error(capsys, "dqc", "--graph", "cycle", "--n", "4", "--tmax", bad)
        _usage_error(capsys, "kst", "--graph", "cycle", "--n", "4", "--t", bad)


_FLAGS = ("--graph", "--n", "--model", "--gamma", "--config", "--node", "--tmax",
          "--t", "--steps", "--quad-points", "--format", "--out", "--no-timestamp")
_SERIES = ("--steps", "--quad-points", "--format", "--out", "--no-timestamp")
_COMMON = ("--graph", "--n", "--model", "--gamma", "--config")
_DECLARED = {
    "kbar": _COMMON + ("--node", "--tmax") + _SERIES,
    "kst": _COMMON + ("--node", "--t") + _SERIES,
    "dqc": _COMMON + ("--tmax",) + _SERIES,
    "asymptote": _COMMON + ("--node",),
    "gap": _COMMON,
}


def test_each_command_declares_only_the_flags_it_reads(tmp_path, capsys):
    assert sum(map(len, _DECLARED.values())) == 46  # of 5 x 14 = 70 before
    config = tmp_path / "empty.cfg"
    config.write_text("# no entries\n")
    value = {"--graph": "cycle", "--n": "4", "--model": "energy-dephasing",
             "--gamma": "1", "--config": str(config), "--node": "1", "--tmax": "1",
             "--t": "1", "--steps": "2", "--quad-points": "3",
             "--format": "json", "--out": str(tmp_path / "out.json"), "--no-timestamp": None}

    def argv(command, flags):
        return [command, *(a for f in flags for a in (f, value[f]) if a is not None)]

    for command, declared in _DECLARED.items():
        assert _run(capsys, *argv(command, declared))[0] == 0, command
        for flag in set(_FLAGS) - set(declared):
            err = _usage_error(capsys, *argv(command, declared + (flag,)))
            assert f"unrecognized arguments: {flag}" in err, (command, flag)


def test_unread_and_abbreviated_flags_are_usage_errors(tmp_path, capsys):
    # dqc minimises over every start node and has no final time t
    _usage_error(capsys, "dqc", "--graph", "cycle", "--n", "4", "--node", "7",
                 "--t", "-3", "--tmax", "1", "--steps", "2")
    _usage_error(capsys, "gap", "--graph", "cycle", "--n", "4", "--tmax", "1")
    # a prefix of a flag name is not that flag, on the command line or in a file
    kbar = ("kbar", "--graph", "cycle", "--n", "4", "--tmax", "1", "--steps", "1")
    _usage_error(capsys, *kbar, "--quad", "51")
    for entry in ("quad=51", "gam=1"):
        cfg = tmp_path / "abbrev.cfg"
        cfg.write_text(entry + "\n")
        _usage_error(capsys, *kbar, "--config", str(cfg))


def _perfbench_module(monkeypatch, name="sweeps"):
    """perfbench/<name>.py, imported by path without writing bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_cli_runs_still_parse(tmp_path, monkeypatch, capsys):
    # the benchmark's harness does not catch argparse's SystemExit, so a flag
    # it passes that a command no longer declares would end its run
    sw = _perfbench_module(monkeypatch)
    table = tuple(dataclasses.replace(row, count=3) for row in sw.WORKLOADS["cli-dqc"])
    for seed in (0, 1):
        for sweep in sw.make_sweeps(table, seed):
            out = tmp_path / f"{seed}-{sweep.command}.{sweep.fmt}"
            assert main(sweep.argv(str(out))) == 0, sweep.key
            values = sw.values_of(sweep, str(out))
            assert values.shape == (sweep.n_values,) and np.isfinite(values).all()
    capsys.readouterr()


# Recomputes every 10th time of each seed-0 dqc sweep (each time is
# independent) and prints the deviations from reference.json, in a process
# whose BLAS is pinned to one thread as perfbench/run.py pins it: the
# site-dephasing eigensolve rounds differently on two threads, which moves
# dqc by about 5e-9 through its square roots of near-zero eigenvalues.
_REFERENCE_DQC = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import numpy as np
import ctqwalk, sweeps as sw, verify
reference = json.loads((root / "perfbench" / "reference.json").read_text())["workloads"]
graphs = {topo: ctqwalk.build_graph(topo, sw.N_SITES) for topo in sw.TOPOLOGIES}
errors, checked = [], 0
for workload, rows in sw.WORKLOADS.items():
    for sweep in sw.make_sweeps(rows, 0):
        if sweep.family != "dqc":
            continue
        grid = (np.array(sweep.times) if sweep.times
                else np.linspace(0.0, sweep.tmax, sweep.steps + 1))[::10]
        values = ctqwalk.dqc_curve(graphs[sweep.topology], sw.model_of(sweep), grid)[1]
        expected = reference[workload][sweep.key]["values"][::10]
        errors += verify.compare(values, expected, verify.REFERENCE_TOL, sweep.key)
        checked += len(grid)
print(json.dumps({"checked": checked, "errors": errors}))
"""


def test_dqc_meets_the_benchmark_reference():
    # a change of one ulp in a dqc state shows here as about 1e-8 against the
    # benchmark's 1e-12, not first in a benchmark run; perfbench is only read
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-B", "-c", _REFERENCE_DQC, str(root)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"checked": 16 + 16 + 21 + 11 + 6, "errors": []}


def test_benchmark_traced_call_sites_are_called(tmp_path, monkeypatch, capsys):
    # the benchmark's per-layer metrics divide span totals by these call
    # counts (harness.per_layer), so a workload that stops calling one of
    # them turns its metric into null; a short pass of every workload must
    # call each of them at least once
    sw = _perfbench_module(monkeypatch)
    spans = _perfbench_module(monkeypatch, "spans")
    names = ("dynamics.Propagator.__init__", "dynamics.Propagator.evolve_matrix",
             "dynamics.classical_propagate", "nonclassicality.fidelity",
             "nonclassicality.dqc_curve")
    graphs = sw.build_graphs(sw.N_SITES)
    for workload, rows in sw.WORKLOADS.items():
        short = tuple(dataclasses.replace(row, count=3 if row.call.startswith("cli-") else 2)
                      for row in rows)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for sweep in sw.make_sweeps(short, 0):
                sw.execute(sweep, graphs, str(tmp_path / f"{sweep.command}.{sweep.fmt}"))
        finally:
            tracer.uninstall()
        counts = tracer.stats({}, tracer.mark())["count"]
        for name in names:
            assert tracer.has(name) and counts[tracer.names.index(name)] > 0, (workload, name)
    capsys.readouterr()


def test_benchmark_library_names_resolve(monkeypatch):
    # perfbench reads these names from the package, and its traced run times
    # the layer functions listed here; a deleted one would end a benchmark run
    # with no result
    import ctqwalk

    names = set()
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        names.update(re.findall(r"\bctqwalk\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)",
                                path.read_text()))
    assert {"kbar_curve", "dqc_curve", "cli.main"} <= names
    names |= {"graphs.spectral_decompose", "linalg.Superoperator.spectral_factors",
              "dynamics.Propagator.__init__", "dynamics.Propagator.evolve_matrix",
              "dynamics.classical_propagate", "nonclassicality.fidelity",
              "nonclassicality.dqc_curve", "cli.SweepSeries.render"}
    names |= {".".join(entry) for entry in _perfbench_module(monkeypatch, "spans").INTERNAL}
    missing = []
    for dotted in sorted(names):
        obj = ctqwalk
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"ctqwalk.{dotted}")
    assert not missing


def test_exported_names_exist():
    import ctqwalk
    import ctqwalk.nonclassicality

    for module in (ctqwalk, ctqwalk.nonclassicality):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_superoperator_size_limit_is_a_usage_error(capsys):
    # 33 sites would need a 1089^2 superoperator; the n-space routes need none
    code, _, err = _run(capsys, "kbar", "--graph", "cycle", "--n", "33",
                        "--model", "site-dephasing", "--gamma", "1", "--tmax", "1",
                        "--steps", "1", "--quad-points", "3")
    assert code == 2
    assert "limit is 32 sites" in err
    assert _run(capsys, "gap", "--graph", "cycle", "--n", "33")[0] == 2
    assert _run(capsys, "kbar", "--graph", "cycle", "--n", "33", "--tmax", "1",
                "--steps", "1", "--quad-points", "3", "--no-timestamp")[0] == 0


def test_missing_edge_file_is_runtime_error(capsys):
    code, _, err = _run(capsys, "kbar", "--graph", "file:/nonexistent.edges",
                        "--tmax", "1.0")
    assert code == 1
    assert "error" in err
