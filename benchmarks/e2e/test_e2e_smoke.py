"""Smoke test of the end-to-end benchmark: every workload, quick and traced.

Run from the repository root::

    python -m pytest benchmarks/e2e -q

Each workload runs once in a fresh interpreter with ``--quick --trace 1``
(small library shapes, one measured second), which exercises the whole
runner: set-up, every phase, the checks and the span breakdown.  One
untraced quick run checks the end-to-end report.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e.run import ROOT, WORKLOAD_NAMES, load_spec
from benchmarks.e2e.trace import self_times
from benchmarks.e2e.workloads import inputs_digest, make_problems

SPEC = load_spec()


def run_quick(name, trace, out):
    """(stdout, result document) of one quick run of workload ``name``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
         "--workload", name, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text())


def assert_reported(stdout, doc, metrics):
    """The last line is the result object, every metric is printed by
    name with its unit, and nothing failed."""
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert doc["failures"] == [] and doc["failure_causes"] == {}
    for m in metrics:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]]
                   and line.endswith(" " + m["unit"])
                   for line in stdout.splitlines()), m["name"]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """name -> (stdout, result document, spans) of one quick traced run."""
    runs = {}
    for name in WORKLOAD_NAMES:
        out = tmp_path_factory.mktemp(name) / "result.json"
        stdout, doc = run_quick(name, 1, out)
        spans_file = out.parent / f"{name}.spans.jsonl"
        spans = [json.loads(line) for line in
                 spans_file.read_text().splitlines()]
        runs[name] = (stdout, doc, spans)
    return runs


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_reported_and_nothing_fails(traced_runs, name):
    stdout, doc, _ = traced_runs[name]
    assert_reported(stdout, doc, SPEC["per_layer"])
    for m in SPEC["end_to_end"]:
        assert doc["e2e"][m["name"]] > 0, m["name"]
    assert doc["host"]["cpu_affinity"] >= 1
    assert doc["layers"]["trace.overhead"] > 0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    stdout, doc = run_quick("serve-small", 0, tmp_path / "result.json")
    assert_reported(stdout, doc, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in json.loads(
        stdout.strip().splitlines()[-1])["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_self_times_within_spans(traced_runs, name):
    _, _, spans = traced_runs[name]
    assert spans
    rows = [(s["sid"], s["name"], s["t0_ns"], s["t1_ns"], s["parent"])
            for s in spans]
    own = self_times([r + (None,) * 4 for r in rows])
    for sid, _, t0, t1, _ in rows:
        assert 0 <= own[sid] <= t1 - t0


def test_layer_invariants(traced_runs):
    square = traced_runs["gemm-square"][1]
    odd = traced_runs["gemm-odd-rect"][1]
    api = traced_runs["api-small"][1]
    assert square["detail"]["self_time_sum_ratio"] == pytest.approx(1.0,
                                                                    abs=0.05)
    assert square["layers"].get("core.peeling.fixup_calls", 0) == 0
    assert odd["layers"]["core.peeling.fixup_calls"] > 0
    assert api["layers"]["api.shm.leases_outstanding"] == 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seed_determines_inputs(name):
    def digest(seed):
        return inputs_digest(make_problems(name, seed, quick=True), seed)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
