"""The benchmark's output checks accept the reports of every workload, its
tracer finds every per-layer metric it declares, and a traced run ends with
a complete result line.

Each workload of ``perfbench/`` runs through the CLI at two master seeds,
and its report must pass the benchmark's own per-session and pooled
checks, so a change that breaks them shows here before a benchmark run.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from depqkd import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]


def import_perfbench(name):
    """A module of the benchmark, imported without writing bytecode into
    the benchmark's directory."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


def test_every_workload_passes_the_benchmark_output_checks(tmp_path):
    workloads = import_perfbench("workloads")
    out = tmp_path / "report.jsonl"
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 2):
            out.unlink(missing_ok=True)
            assert cli.main(workload.argv(seed) + ["--output", str(out)]) == 0
            checks = workloads.SessionChecks(workload, seed)
            _, failed, problems = checks.run(out.read_bytes())
            assert failed == 0 and problems == [], (workload.name, seed, problems)


def test_the_tracer_reports_every_declared_per_layer_metric(tmp_path):
    # The tracer reports a metric only for a public function that its layer
    # module defines, and a traced benchmark run with a metric absent still
    # exits 0.  The worker derives cli.main.self_ms from the two spans below
    # and adds trace.overhead itself.
    derived = {"cli.main.self_ms", "trace.overhead"}
    expected = [name for name in PER_LAYER if name not in derived]
    expected += ["cli.main.ms", "protocol.run_session.ms"]
    tracer = import_perfbench("tracer").Tracer()
    try:
        tracer.install()
        argv = ["run", "--pairs", "20", "--output", str(tmp_path / "report.jsonl")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert [name for name in expected if name not in metrics] == []


def test_a_traced_benchmark_run_ends_with_a_complete_result_line():
    # The benchmark's own command in its own process: its last line is the
    # result that is read, so it must be strict JSON, correct, and carry
    # every declared per-layer metric.
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    argv = ["perfbench/run.py", "--workload", "clean-key", "--trace", "1"]
    result = subprocess.run(
        [sys.executable, *argv, "--seconds", "0.2"],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1], parse_constant=reject)
    assert last["correct"] is True
    assert [name for name in PER_LAYER if name not in last["metrics"]] == []
