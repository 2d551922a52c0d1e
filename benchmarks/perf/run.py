"""The repo's benchmark: four seeded workloads, checked answers, named metrics.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed 7]
                                   [--trace 0|1] [--json PATH]

Each workload runs in its own fresh child interpreter (``worker.py``) with
BLAS pinned to one thread, so the load never exceeds the two cores of the
host and ``peak_rss_mb`` is the workload's own.  Prints every metric by name
with its unit, per-workload and total wall time, and — as the last line — the
result object the benchmark contract asks for: with one workload its metrics
are the end-to-end ones (``--trace 0``) or the per-layer ones (``--trace 1``)
named in ``BENCHMARK.json``; with several, the same keyed
``<workload>/<metric>``.  Exits non-zero when any op failed.

The work of a run is fixed — nine rounds of a constant-size stream, about
``run_seconds`` on this host — so ``--seconds``, which the benchmark driver
passes, is accepted and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything the benchmark writes (temporary databases, traces) goes here.
OUT = HERE / "out"
#: The kill switch: a worker that runs longer than this is killed (the
#: contract allows a run 180 s).
WORKER_TIMEOUT_S = 170.0


def run_worker(workload: str, seed: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter; return its result object."""
    environment = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        environment[variable] = "1"
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)
    # Removed on every exit path, the kill switch's included.
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as scratch:
        command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(trace), "--scratch", scratch]
        finished = subprocess.run(command, env=environment, stdout=subprocess.PIPE,
                                  text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(finished.stdout.strip().splitlines()[-1])


def print_table(result: dict, contract: dict) -> None:
    gated = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    print(f"== {result['workload']}  (stream {result['checksum'][:12]}, "
          f"{result['rounds']} rounds, {result['wall_s']:.1f} s, "
          f"ops_attempted {result['attempted']}, ops_failed {result['failed']}, "
          f"plans {'/'.join(result['plans'])})")
    for name, metric in result["metrics"].items():
        bound = f"  [gated, bound {gated[name]:.0%}]" if name in gated else ""
        print(f"  {name:<34}{metric['value']:>14.4f} {metric['unit']}{bound}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def contract_line(results: list[dict], trace: int, contract: dict) -> dict:
    """The object the contract wants as the last line.  It must carry every
    per-layer name as a number, so — here only — a metric the workload did
    not measure reads 0; the table and ``--json`` leave it out."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    failed = sum(result["failed"] for result in results)
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": {metric["name"] if len(results) == 1
                    else f"{result['workload']}/{metric['name']}":
                    result["metrics"].get(metric["name"],
                                          {"value": 0.0, "unit": metric["unit"]})
                    for result in results for metric in wanted}}


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="accepted for the benchmark driver; the work of a run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None, help="write every result here")
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    results = [run_worker(workload, arguments.seed, arguments.trace)
               for workload in arguments.workload]
    for result in results:
        print_table(result, contract)
    print(f"total wall {time.perf_counter() - started:.1f} s: "
          + ", ".join(f"{result['workload']} {result['wall_s']:.1f} s" for result in results))
    if arguments.json is not None:
        arguments.json.write_text(json.dumps(
            {"seed": arguments.seed, "trace": arguments.trace,
             "workloads": {result["workload"]: result for result in results}},
            indent=1) + "\n", encoding="utf-8")
    line = contract_line(results, arguments.trace, contract)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
