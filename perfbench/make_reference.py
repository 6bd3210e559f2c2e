"""Regenerate ``reference.json``: the seed-0 outputs of every workload.

    python3 perfbench/make_reference.py

Runs each workload's seed-0 sweeps once and, before writing anything,
checks them against the direct route of ``verify.py`` (a dense
``scipy.linalg.expm`` of the Lindblad generator per time): every dqc and
K(s, t) value, and three points (first, middle, last) of every kbar
sweep; a kbar point costs q = 201 dense 256x256 exponentials. Aborts
without writing if any value differs by more than the route tolerance.
Regenerate only when the program's outputs are meant to change.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ctqwalk  # noqa: E402
import harness  # noqa: E402
import sweeps as sw  # noqa: E402
import verify  # noqa: E402


def direct_values(sweep: sw.Sweep, graph: ctqwalk.Graph, idx: list[int]) -> np.ndarray:
    matrix = ctqwalk.make_generator(graph, sw.model_of(sweep)).matrix
    grid = sweep.grid()
    if sweep.family == "dqc":
        return np.array([verify.direct_dqc(graph, matrix, float(grid[i])) for i in idx])
    if sweep.command == "kst":
        return verify.direct_profile(matrix, graph.n, sweep.node, sweep.t, sweep.steps + 1)[idx]
    return np.array([verify.direct_kbar(matrix, graph.n, sweep.node, float(grid[i]),
                                        sweep.quad_points) for i in idx])


def main() -> int:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    workloads, checked, failures = {}, {}, []
    for name, table in sw.WORKLOADS.items():
        sweeps = sw.make_sweeps(table, 0)
        graphs = sw.build_graphs(sweeps[0].n)
        workloads[name] = {}
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            for s in sweeps:
                values = sw.values_of(s, sw.execute(s, graphs, f"{tmp}/out.{s.fmt}"))
                last = s.n_values - 1
                idx = (list(range(s.n_values)) if s.family == "dqc" or s.command == "kst"
                       else sorted({0, last // 2, last}))
                tol = verify.DQC_ROUTE_TOL if s.family == "dqc" else verify.ROUTE_TOL
                direct = direct_values(s, graphs[s.topology], idx)
                dev = float(np.abs(values[idx] - direct).max())
                print(f"{name} {s.key}: {len(idx)} of {s.n_values} values vs direct expm, "
                      f"max |diff| {dev:.2e} (tol {tol:.0e})", flush=True)
                failures += verify.range_errors(values)
                if dev > tol:
                    failures.append(f"{s.key}: direct route differs by {dev:.2e}")
                checked[f"{name}/{s.key}"] = {"checked": len(idx), "max_abs_diff": dev}
                workloads[name][s.key] = {"inputs": s.inputs(), "values": values.tolist()}
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps({
        "about": "seed-0 outputs of each workload; see make_reference.py",
        "environment": harness.environment(),
        "direct_route_check": checked,
        "workloads": workloads,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
