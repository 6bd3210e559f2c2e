"""Self-test of the benchmark on a tiny configuration (4-site graphs).

    python3 perfbench/selftest.py

Checks that an untraced run emits every end-to-end metric and a traced
run every per-layer metric named in BENCHMARK.json, that a non-default
seed passes its spot checks, and that a reference with one value moved
by 1e-9 is reported as a failure rather than a pass. Exits 0 on success.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import sweeps as sw  # noqa: E402

TINY = (
    sw.Row("kbar_curve", "cycle", "unitary", 0.0, 3),
    sw.Row("kbar_curve", "complete", "site-dephasing", 1.0, 3),
    sw.Row("dqc_curve", "cycle", "energy-dephasing", 1.0, 3),
    sw.Row("cli-dqc", "path", "site-dephasing", 1.0, 3, "csv"),
    sw.Row("cli-kbar", "cycle", "energy-dephasing", 1.0, 3, "json"),
    sw.Row("cli-kst", "complete", "unitary", 0.0, 4, "csv"),
)


def tiny_sweeps(seed: int) -> list[sw.Sweep]:
    return sw.make_sweeps(TINY, seed, n=4, quad_points=11, tmax=2.0, kst_t=1.0)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    sweeps = tiny_sweeps(0)
    graphs = sw.build_graphs(4)
    reference = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for s in sweeps:
            values = sw.values_of(s, sw.execute(s, graphs, f"{tmp}/out.{s.fmt}"))
            reference[s.key] = {"inputs": s.inputs(), "values": values.tolist()}

    def run(seed, trace, ref):
        return harness.run_workload(tiny_sweeps(seed), seed, 0.2, trace, ROOT, ref,
                                    out_dir, f"selftest-{seed}-{int(trace)}")

    problems = []

    def expect(cond: bool, what: str) -> None:
        print(f"selftest: {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, record = run(0, trace, reference)
        expect(result["correct"] and result["failed"] == 0,
               f"trace={int(trace)}: clean run is correct {record['errors']}")
        for m in spec[section]:
            got = result["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"]
                   and isinstance(got["value"], (int, float)),
                   f"trace={int(trace)}: emits {m['name']} in {m['unit']}")
        expect(set(result["metrics"]) == {m["name"] for m in spec[section]},
               f"trace={int(trace)}: emits no metric beyond BENCHMARK.json")

    result, record = run(5, False, None)
    expect(result["correct"], f"seed 5 passes its spot checks {record['errors']}")

    perturbed = copy.deepcopy(reference)
    key = sweeps[1].key
    perturbed[key]["values"][1] += 1e-9
    result, record = run(0, False, perturbed)
    expect(not result["correct"] and result["failed"] >= 1
           and any(e.startswith(key) for e in record["errors"]),
           f"a reference value moved by 1e-9 is reported as failed ({result['failed']} "
           f"of {result['attempted']} sweeps)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
