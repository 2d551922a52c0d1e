"""Smoke test of the benchmark itself, at tiny sizes (R=2, well under 30 s).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

The sizes are passed in code (``workloads.TINY``): the benchmark has no flag
for them.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import programs  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, build_stream  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def server_child_finds_the_program(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def leftovers(scratch: Path) -> list[str]:
    """Server children still alive and temporary databases still on disk."""
    found = [str(path) for path in scratch.iterdir()]
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"server_child.py" in command:
                found.append(f"pid {entry.name}")
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, dict]:
    """Every workload once, traced, at tiny sizes."""
    scratch = tmp_path_factory.mktemp("scratch")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(ROOT / "src"))
        results = {workload: worker.measure(workload, 7, True, str(scratch), TINY)
                   for workload in WORKLOADS}
    assert leftovers(scratch) == []
    return results


def test_every_contract_metric_is_emitted_with_its_unit(traced):
    assert set(traced) == {workload["name"] for workload in CONTRACT["workloads"]}
    emitted_somewhere = set()
    for workload, result in traced.items():
        assert result["failed"] == 0 and result["attempted"] >= 1, result["failures"]
        metrics = result["metrics"]
        for name, unit in END_TO_END.items():
            assert metrics[name]["unit"] == unit and metrics[name]["value"] > 0, (workload, name)
        for name, metric in metrics.items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == {**END_TO_END, **PER_LAYER}[name], (workload, name)
            assert isinstance(metric["value"], float)
        emitted_somewhere |= set(metrics)
    assert emitted_somewhere == set(END_TO_END) | set(PER_LAYER)


def test_contract_line_holds_exactly_the_named_metrics(traced, monkeypatch, capsys):
    monkeypatch.setattr(run, "run_worker", lambda workload, seed, trace: traced[workload])
    for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
        assert run.main(["--workload", "durable-rw", "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == list(wanted)
        assert all(set(metric) == {"value", "unit"} for metric in last["metrics"].values())


def test_trace_files_are_well_formed(traced):
    for workload in traced:
        lines = (HERE / "out" / f"trace-{workload}.jsonl").read_text(encoding="utf-8")
        spans = [json.loads(line) for line in lines.splitlines()]
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        for span in spans:
            assert span["workload"] == workload and span["end_ns"] >= span["start_ns"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["op_id"] == span["op_id"]
                assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
        wall = max(span["end_ns"] for span in spans) - min(span["start_ns"] for span in spans)
        covered = sum(span["end_ns"] - span["start_ns"] for span in roots)
        assert 0.9 * wall <= covered <= wall
        # Self time partitions the covered time: nothing is counted twice.
        tracer = Tracer(workload)
        tracer.spans = spans
        assert sum(tracer.self_times_s().values()) == pytest.approx(covered / 1e9)


def test_compare_gates_every_row_and_refuses_what_it_cannot_compare(traced):
    traced = copy.deepcopy(traced)
    for result in traced.values():  # whatever the host did during the tiny runs
        result["metrics"]["machine.steal_share"]["value"] = 0.0

    def verdicts(after: dict) -> dict[tuple[str, str], str]:
        rows = compare.compare({"workloads": traced}, {"workloads": after}, CONTRACT)
        return {(row[0], row[1]): row[-1] for row in rows}

    same = verdicts(traced)
    assert set(same.values()) == {"ok"}
    assert ("durable-rw", "e2e.reopen_s") in same and ("served-read", "e2e.reopen_s") not in same
    slower = copy.deepcopy(traced)
    slower["served-read"]["metrics"]["op_p50_ms"]["value"] *= 2
    slower["durable-rw"]["metrics"]["e2e.stored_bytes_per_user_byte"]["value"] *= 1.03
    slower["embedded-index"]["failed"] = 1
    del slower["embedded-scan-join"]
    after = verdicts(slower)
    assert after[("served-read", "op_p50_ms")] == "REGRESSED"
    assert after[("durable-rw", "e2e.stored_bytes_per_user_byte")] == "REGRESSED"
    assert after[("embedded-index", "ops failed: A 0, B 1")] == "INVALID"
    assert after[("embedded-scan-join", "missing from B")] == "INVALID"


def test_streams_are_functions_of_the_seed():
    served, embedded = build_stream("served-read", 7, TINY), build_stream("embedded-index", 7, TINY)
    assert served.checksum() == embedded.checksum()
    for workload in WORKLOADS:
        again = build_stream(workload, 7, TINY)
        assert again.to_json() == build_stream(workload, 7, TINY).to_json()
        assert again.checksum() != build_stream(workload, 8, TINY).checksum()


@pytest.mark.parametrize("workload,program", [("served-read", programs.Served),
                                              ("durable-rw", programs.Durable)])
def test_an_aborted_run_leaves_nothing_behind(monkeypatch, tmp_path, workload, program):
    def abort(self, op):
        raise KeyboardInterrupt("injected")

    monkeypatch.setattr(program, "execute", abort)
    with pytest.raises(KeyboardInterrupt):
        rounds.run_rounds(build_stream(workload, 1, TINY), TINY, str(tmp_path))
    assert leftovers(tmp_path) == []
