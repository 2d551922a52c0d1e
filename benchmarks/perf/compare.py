"""Compare two ``run.py --json`` files against the benchmark's bounds.

    python3 benchmarks/perf/compare.py A.json B.json

One row per workload × end-to-end metric: both values, how much worse B is
than A as a share of A (negative: better), the bound, and a verdict:

- ``ok`` — within the bound;
- ``REGRESSED`` — worse by more than the bound;
- ``unresolved`` — either run saw more than 35 % steal, so the machine, not
  the code, may have moved the number;
- ``INVALID`` — the two sides did not measure the same thing: the workload
  is missing from one, an op failed, or the round or op counts differ.

Run it on two runs of one commit to check the benchmark itself, on parent and
change to check a PR.  Exits non-zero on any ``REGRESSED`` or ``INVALID`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
STEAL_LIMIT = 0.35
#: End-to-end metrics that only ``durable-rw`` reports.  The contract's
#: ``end_to_end`` list can hold only what every workload reports, so their
#: bounds live here.
DURABLE_ONLY = (
    {"name": "e2e.reopen_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "e2e.stored_bytes_per_user_byte", "unit": "ratio", "better": "lower",
     "bound": 0.02},
)


def invalid(old: dict | None, new: dict | None) -> str:
    """Why the two results of one workload cannot be compared, or ``""``."""
    if old is None or new is None:
        return "missing from " + ("A" if old is None else "B")
    if old["failed"] or new["failed"]:
        return f"ops failed: A {old['failed']}, B {new['failed']}"
    for key in ("rounds", "attempted"):
        if old[key] != new[key]:
            return f"{key} differ: A {old[key]}, B {new[key]}"
    return ""


def compare(before: dict, after: dict, contract: dict) -> list[tuple]:
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        old = before["workloads"].get(workload)
        new = after["workloads"].get(workload)
        if old is None and new is None:
            continue  # neither side ran it
        reason = invalid(old, new)
        if reason:
            rows.append((workload, reason, 0.0, 0.0, "", 0.0, 0.0, "INVALID"))
            continue
        noisy = max(run["metrics"]["machine.steal_share"]["value"]
                    for run in (old, new)) > STEAL_LIMIT
        for metric in (*contract["end_to_end"], *DURABLE_ONLY):
            if metric["name"] not in old["metrics"] and metric["name"] not in new["metrics"]:
                continue  # a durable-only metric on another workload
            a = old["metrics"][metric["name"]]["value"]
            b = new["metrics"][metric["name"]]["value"]
            if a <= 0:
                verdict, worse = "INVALID", 0.0
            else:
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                verdict = ("unresolved" if noisy else
                           "REGRESSED" if worse > metric["bound"] else "ok")
            rows.append((workload, metric["name"], a, b, metric["unit"], worse,
                         metric["bound"], verdict))
    return rows


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text(encoding="utf-8")) for path in paths)
    rows = compare(before, after, json.loads(CONTRACT.read_text(encoding="utf-8")))
    print(f"{'workload':<20}{'metric':<32}{'A':>12}{'B':>12} {'unit':<6}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for workload, name, a, b, unit, worse, bound, verdict in rows:
        print(f"{workload:<20}{name:<32}{a:>12.4f}{b:>12.4f} {unit:<6}"
              f"{worse:>+10.1%}{bound:>7.0%}  {verdict}")
    return 1 if any(row[-1] in ("REGRESSED", "INVALID") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
