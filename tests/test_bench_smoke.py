"""The benchmark's output checks accept the reports of every workload.

Each workload of ``perfbench/`` runs through the CLI at two master seeds,
and its report must pass the benchmark's own per-session and pooled
checks, so a change that breaks them shows here before a benchmark run.
"""

import importlib
import sys
from pathlib import Path

from depqkd import cli

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def import_workloads():
    """The benchmark's ``workloads`` module, imported without writing
    bytecode into the benchmark's directory."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


def test_every_workload_passes_the_benchmark_output_checks(tmp_path):
    workloads = import_workloads()
    out = tmp_path / "report.jsonl"
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 2):
            out.unlink(missing_ok=True)
            assert cli.main(workload.argv(seed) + ["--output", str(out)]) == 0
            checks = workloads.SessionChecks(workload, seed)
            _, failed, problems = checks.run(out.read_bytes())
            assert failed == 0 and problems == [], (workload.name, seed, problems)
