"""The benchmark's output checks accept the reports of every workload, and
its tracer finds every per-layer metric it declares.

Each workload of ``perfbench/`` runs through the CLI at two master seeds,
and its report must pass the benchmark's own per-session and pooled
checks, so a change that breaks them shows here before a benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

from depqkd import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")


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
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    derived = {"cli.main.self_ms", "trace.overhead"}
    expected = [m["name"] for m in declared if m["name"] not in derived]
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
