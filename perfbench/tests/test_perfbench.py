"""The benchmark's own tests: a tiny smoke run per mode, and the output checkers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import spans
import worker
from workloads import BoundBatchWorkload, RelaySweepWorkload, ScanWorkload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = bench("scan", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


class BumpedScan(ScanWorkload):
    """Reports every valid estimated row with its Y11 bound just above the truth."""

    def run(self, op):
        point = super().run(op)
        if point.valid and not self.config.scenario_kind(op.scenario).asymptotic:
            truth = float(op.tables[0].yields[1, 1])
            point = dataclasses.replace(point, y11_bound=truth * (1.0 + 1e-9))
        return point


def test_scan_row_above_the_truth_counts_as_failed():
    work = BumpedScan(seed=3)
    work.prepare()
    timings, failed, problems = worker.run_ops(work, 0.0, max_ops=7)
    assert len(timings.raw) == 7
    # at the first distance all four estimated scenarios give valid rows
    assert failed == 4, problems
    assert all("above true" in p for p in problems)


def test_reference_seed_matches_the_recorded_rows():
    work = ScanWorkload(seed=0)
    work.prepare()
    _timings, failed, problems = worker.run_ops(work, 0.0, max_ops=14)
    assert failed == 0, problems
    op = work.next_op()
    while op.scenario != "H0":
        op = work.next_op()
    point = work.run(op)
    assert point.valid and work.check(op, point) == ""
    drifted = dataclasses.replace(point, rate=point.rate * (1.0 + 1e-9))
    assert "differs from reference" in work.check(op, drifted)


class PerturbedRelay(RelaySweepWorkload):
    """Returns tables with one Z yield cell moved by 1e-9."""

    def run(self, op):
        (table_z, table_x), point = super().run(op)
        yields = np.array(table_z.yields)
        yields[1, 2] += 1e-9
        return (dataclasses.replace(table_z, yields=yields), table_x), point


def test_relay_cell_off_the_oracle_counts_as_failed():
    work = PerturbedRelay(seed=3)
    _timings, failed, problems = worker.run_ops(work, 0.0, max_ops=1)
    assert failed == 1
    assert "(1,2) disagrees with the oracle" in problems[0]


class InflatedBounds(BoundBatchWorkload):
    """Reports every licensed Z bound at twice its value."""

    def run(self, op):
        bound_z, bound_x, e11 = super().run(op)
        if bound_z.conditions_ok:
            bound_z = dataclasses.replace(bound_z, value=2.0 * op.true_y11_z)
        return bound_z, bound_x, e11


def test_bound_above_the_truth_counts_as_failed():
    honest, inflated = BoundBatchWorkload(seed=3, files=8), InflatedBounds(seed=3, files=8)
    honest.prepare()
    inflated.prepare()
    assert worker.run_ops(honest, 0.0, max_ops=8)[1] == 0
    assert worker.run_ops(inflated, 0.0, max_ops=8)[1] == 8


def test_removed_function_reads_absent(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "decoy.gone", ("mdiqkd.decoy", "no_such_function"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = spans.layer_metrics(tracer, spans.cache_counters())
    assert metrics["decoy.gone.calls"] is None and metrics["decoy.gone.self_s"] is None
    assert metrics["decoy.y11_lower_bound.calls"] == 0


def test_import_split_counts_each_package_at_its_outermost_entry():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:       400 |        450 |       scipy",
        "import time:       500 |        950 |     scipy.stats",
        "import time:        10 |       1260 |   mdiqkd.optics",
        "import time:        10 |       1270 | mdiqkd",
    ])
    assert run.import_split(text) == pytest.approx({"numpy": 300e-6, "scipy": 950e-6})


@pytest.mark.parametrize("base,new,better,expect", [
    ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)], "lower",
     "improved"),
    ([10.0 + 0.01 * i for i in range(10)], [13.0 + 0.01 * i for i in range(10)], "lower",
     "regressed"),
    ([10.0 + 0.01 * i for i in range(10)], [10.05 + 0.01 * i for i in range(10)], "lower",
     "within bound"),
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, "lower", "unresolved"),
])
def test_compare_verdicts(base, new, better, expect):
    seeded = lambda values: list(enumerate(values))  # noqa: E731
    assert compare.verdict(seeded(base), seeded(new), better, 0.1).startswith(expect)
