"""Sweep benchmark for ctqwalk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ctqwalk is imported from its
``src/`` directory (nothing needs building or installing). Workloads are
defined in ``sweeps.py``: ``eigen-kbar``, ``superop-kbar`` and ``cli-dqc``.
One process runs one workload as a closed loop with one client, for
``--seconds`` of sweeps, with BLAS pinned to one thread.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (sweeps run), ``failed`` (sweeps that raised or failed a
check) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A readable report goes to standard
error; the full record (samples, checks, environment) and, for a traced
run, every span are written under ``.perfbench-out/``.

Exits 2 without a result when the checkout has no ``src/ctqwalk``.
"""
import os

# Pin BLAS before numpy is imported, here and in the set-up subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def _report(result: dict, record: dict, workload: str) -> None:
    env = record["environment"]
    print(f"workload {workload}, seed {record['seed']}, trace {int(record['trace'])}: "
          f"nproc={env['nproc']} os.cpu_count={env['os_cpu_count']} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"BLAS {env['blas']} (1 thread)", file=sys.stderr)
    samples = record["traced_samples"] if record["trace"] else record["samples"]
    for key, ts in samples.items():
        print(f"  {key:<48} n={len(ts):<3} min {min(ts):.4f} s  max {max(ts):.4f} s",
              file=sys.stderr)
    for name, m in result["metrics"].items():
        value = "unavailable" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value} {m['unit']}", file=sys.stderr)
    for name, why in record.get("unavailable", {}).items():
        print(f"  unavailable: {name}: {why}", file=sys.stderr)
    for err in record["errors"]:
        print(f"  FAILED {err}", file=sys.stderr)
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctqwalk" / "__init__.py").is_file():
        print(f"error: no ctqwalk sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctqwalk
    if Path(ctqwalk.__file__).resolve().parent != SRC / "ctqwalk":
        print(f"error: ctqwalk imported from {ctqwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import sweeps

    if args.workload not in sweeps.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(sweeps.WORKLOADS)}")
    reference = None
    if args.seed == 0:
        reference = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, record = harness.run_workload(
        sweeps.make_sweeps(sweeps.WORKLOADS[args.workload], args.seed), args.seed,
        args.seconds, bool(args.trace), ROOT, reference, out_dir, tag)
    (out_dir / f"record-{tag}.json").write_text(json.dumps(
        {"result": result, **record}, indent=1, default=float))
    _report(result, record, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
