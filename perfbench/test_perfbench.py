"""Tests of the benchmark itself: span arithmetic and the correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, GMQAOA, PER_LAYER, ROOT, Inputs, check_report, simulate, verify  # noqa: E402
from spans import layer_totals, self_times  # noqa: E402


def span(sid, parent, layer, start, end, report="r", counts=None):
    return {"id": sid, "parent": parent, "report": report, "name": layer, "layer": layer,
            "start": start, "end": end, "counts": counts or {}}


def test_self_time_subtracts_children_once_and_clips_overhang():
    spans = [
        span(0, None, "cli.self", 0.0, 10.0),
        span(1, 0, "oracle.closure", 1.0, 3.0),
        span(2, 0, "oracle.commutant", 2.0, 5.0),   # overlaps the closure span
        span(3, 2, "oracle.generators", 2.5, 3.5),  # grandchild: charged to span 2
        span(4, 0, "simulator.mc", 9.0, 12.0),      # sticks out of the report span
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.0, 1.0, 3.0])


def test_self_time_keeps_reports_apart():
    spans = [
        span(0, None, "cli.self", 0.0, 4.0, report="a"),
        span(0, None, "cli.self", 0.0, 4.0, report="b"),
        span(1, 0, "oracle.closure", 1.0, 2.0, report="b"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 1.0])


def test_layer_totals_sum_self_time_calls_and_counts():
    spans = [
        span(0, None, "cli.self", 0.0, 6.0),
        span(1, 0, "oracle.invariant_residual", 1.0, 2.0),
        span(2, 0, "oracle.invariant_residual", 2.0, 2.5),
        span(3, 0, "oracle.closure", 3.0, 5.0, counts={"oracle.closure_dim": 26}),
        span(0, None, "cli.self", 0.0, 3.0, report="s"),
        span(1, 0, "oracle.closure", 0.5, 1.0, report="s", counts={"oracle.closure_dim": 10}),
    ]
    totals = layer_totals(spans)
    assert totals["cli.self_s"] == pytest.approx(2.5 + 2.5)
    assert totals["oracle.invariant_residual_s"] == pytest.approx(1.5)
    assert totals["oracle.invariant_residual_calls"] == 2
    assert totals["oracle.closure_s"] == pytest.approx(2.5)
    assert totals["oracle.closure_dim"] == 36


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _cli(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([*GMQAOA, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    return done.returncode, done.stdout


@pytest.fixture(scope="module")
def inputs():
    return Inputs(ROOT)


@pytest.fixture(scope="module")
def grover_p3(inputs):
    report = verify(inputs, inputs.bundled("p3.graph"))
    return report, *_cli(report.argv)


def test_gate_passes_a_real_report_and_its_repeat(grover_p3):
    report, code, out = grover_p3
    assert check_report(report, code, out, None) is None
    assert check_report(report, code, out, out) is None


def test_gate_fails_a_mismatch_verdict(grover_p3):
    report, code, out = grover_p3
    doc = json.loads(out)
    doc["oracle"]["verdicts"]["commutant_dim"]["verdict"] = "mismatch"
    assert "mismatch" in check_report(report, code, json.dumps(doc).encode(), None)


def test_gate_fails_a_wrong_exit_code_or_broken_json(grover_p3):
    report, _, out = grover_p3
    assert check_report(report, 1, out, None) == "exit code 1"
    assert check_report(report, 0, out[: len(out) // 2], None) == "report is not JSON"


def test_gate_fails_a_repeat_that_differs(grover_p3):
    report, code, out = grover_p3
    repeat = out.replace(b'"dim": 10', b'"dim": 11', 1)
    assert repeat != out
    assert check_report(report, code, repeat, out) == "same-seed repeat is not byte-identical"


def test_gate_fails_a_spectrum_that_differs_from_the_cut_count(grover_p3):
    report, code, out = grover_p3
    doc = json.loads(out)
    doc["spectrum"]["levels"][0]["multiplicity"] += 1
    assert "spectrum" in check_report(report, code, json.dumps(doc).encode(), None)


def test_gate_fails_a_wrong_x_mixer_closure_dimension(inputs):
    report = verify(inputs, inputs.bundled("p4.graph"), mixer="x")
    code, out = _cli(report.argv)
    assert check_report(report, code, out, None) is None
    doc = json.loads(out)
    doc["oracle"]["closure"]["dimension"] = 15
    assert "closure dimension" in check_report(report, code, json.dumps(doc).encode(), None)


def test_gate_checks_the_monte_carlo_section(inputs):
    report = simulate(inputs, inputs.bundled("p3.graph"), depth=2, samples=16, seed=5)
    code, out = _cli(report.argv)
    assert check_report(report, code, out, None) is None
    doc = json.loads(out)
    doc["monte_carlo"]["mean"] = 99.0
    assert "outside" in check_report(report, code, json.dumps(doc).encode(), None)
    doc["monte_carlo"]["samples"] = 8
    assert "sample count" in check_report(report, code, json.dumps(doc).encode(), None)
