"""One fresh benchmark process: set-up, then timed calls of the CLI.

``run.py`` starts this script with BLAS threads pinned to 1 and reads the
JSON object it prints last.  Set-up is the import of the package plus one
small warm-up session; numpy and the standard modules the package uses are
imported first, so set-up time is the package's own.  Each timed call is
``depqkd.cli.main(argv)`` writing its report to a scratch file; the report
is checked after the clock stops.

Times are reported at a reference machine speed.  The CPU speed of a shared
virtual machine can swing by a factor of two within seconds, so every timed
span is scaled by ``REFERENCE_S / c``, where ``c`` is the mean wall time of
:func:`calibrate` run right before and right after it.

The process also prints the digest of its warm-up report, so that
``run.py`` can require equal reports from processes with different hash
seeds.

Untraced, the process repeats timed calls, each with a fresh master seed
drawn from the benchmark seed, until the run length is used up.  Traced,
it makes each call twice, untraced and then traced: the two reports must
have equal digests.  Call 0 is traced once more at the end, and its exact
counts must repeat.
"""

from __future__ import annotations

import argparse
import dataclasses  # noqa: F401  (imported by the package; kept out of set-up)
import enum  # noqa: F401
import hashlib  # noqa: F401
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy  # noqa: F401

from tracer import COUNTS, Tracer
from workloads import WORKLOADS, SessionChecks, report_digest, round_seed

ROOT = Path(__file__).resolve().parents[1]

#: Nominal wall time of :func:`calibrate`; reported times are scaled to it.
REFERENCE_S = 0.030

_M = numpy.arange(4, dtype=complex) / 4


def calibrate() -> float:
    """Wall seconds of a fixed loop of small-array numpy calls and Python
    objects, the kind of work the simulator does per pair."""
    start = time.perf_counter()
    vec = numpy.full(16, 0.25, dtype=complex)
    kept = []
    for _ in range(1500):
        u = numpy.kron(_M.reshape(2, 2), numpy.eye(2)) @ vec.reshape(4, 4)
        cdf = numpy.cumsum(numpy.abs(u.reshape(16)) ** 2)
        kept.append((int(numpy.searchsorted(cdf, 0.5 * cdf[-1])), u))
    return time.perf_counter() - start


def _scaled(seconds: float, calibration_before: float, calibration_after: float) -> float:
    return seconds * 2 * REFERENCE_S / (calibration_before + calibration_after)


class Calls:
    """Runs timed calls of the CLI and tallies the sessions they check."""

    def __init__(self, cli, workload, scratch: Path) -> None:
        self.cli = cli
        self.w = workload
        self.out = scratch / f"{workload.name}.jsonl"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.raw_walls: list[float] = []
        self._calibration = calibrate()

    def call(self, master: int) -> tuple[float, bytes]:
        """Scaled seconds of one ``main`` call and the report it wrote."""
        self.out.unlink(missing_ok=True)
        argv = self.w.argv(master) + ["--output", str(self.out)]
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a session that raises counts as failed
            rc = repr(exc)
        wall = time.perf_counter() - start
        before, self._calibration = self._calibration, calibrate()
        self.raw_walls.append(wall)
        data = self.out.read_bytes() if self.out.exists() else b""
        self.attempted += self.w.sessions
        if rc != 0:
            self.failed += self.w.sessions
            self.problems.append(f"seed {master}: main returned {rc}")
        else:
            _, failed, problems = SessionChecks(self.w, master).run(data)
            self.failed += failed
            self.problems.extend(f"seed {master}: {p}" for p in problems)
        return _scaled(wall, before, self._calibration), data


def set_up(workload, scratch: Path):
    """Import the package and run one small session; returns (cli, scaled
    seconds, digest of the warm-up report)."""
    sys.path.insert(0, str(ROOT / "src"))
    calibrate()  # first call loads numpy's lazily imported parts
    before = calibrate()
    out = scratch / "warmup.jsonl"
    start = time.perf_counter()
    cli = importlib.import_module("depqkd.cli")
    rc = cli.main(workload.argv(0, warmup=True) + ["--output", str(out)])
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"warm-up session returned {rc}")
    setup_s = _scaled(elapsed, before, calibrate())
    return cli, setup_s, report_digest(out.read_bytes())


def untraced(calls: Calls, seed: int, seconds: float) -> dict:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, _ = calls.call(round_seed(seed, len(walls)))
        walls.append(wall)
    return {
        "us_per_pair": statistics.median(walls) * 1e6 / calls.w.requested_pairs,
        "raw_us_per_pair": statistics.median(calls.raw_walls) * 1e6 / calls.w.requested_pairs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": len(walls),
    }


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in COUNTS


def traced(calls: Calls, seed: int, seconds: float) -> dict:
    tracer = Tracer()

    def traced_call(master: int) -> tuple[float, bytes, dict]:
        tracer.install()
        tracer.reset()
        try:
            wall, data = calls.call(master)
        finally:
            tracer.uninstall()
        scale = wall / calls.raw_walls[-1]
        metrics = {
            k: v if _is_count(k) else v * scale for k, v in tracer.metrics().items()
        }
        # main's own work is what it does around the sessions it runs
        metrics.pop("cli.main.self_ms", None)
        if "cli.main.ms" in metrics and "protocol.run_session.ms" in metrics:
            metrics["cli.main.self_ms"] = (
                metrics["cli.main.ms"] - metrics["protocol.run_session.ms"]
            )
        return wall, data, metrics

    start = time.perf_counter()
    rounds, ratios = [], []
    while not rounds or time.perf_counter() - start < seconds:
        master = round_seed(seed, len(rounds))
        plain_wall, plain = calls.call(master)
        wall, data, metrics = traced_call(master)
        rounds.append(metrics)
        ratios.append(wall / plain_wall)
        if report_digest(data) != report_digest(plain):
            calls.problems.append(f"seed {master}: traced and untraced reports differ")
    _, _, again = traced_call(round_seed(seed, 0))
    unstable = sorted(k for k in again if _is_count(k) and again[k] != rounds[0][k])
    if unstable:
        calls.problems.append(f"counts differ between equal calls: {unstable}")
    metrics = {
        k: v if _is_count(k) else statistics.median(r[k] for r in rounds)
        for k, v in rounds[0].items()
    }
    metrics["trace.overhead"] = statistics.median(ratios)
    return {"layers": metrics, "calls": 2 * len(rounds) + 1}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    cli, setup_s, warmup_digest = set_up(workload, scratch)
    result: dict = {"setup_s": setup_s, "warmup_digest": warmup_digest}
    if not args.setup_only:
        calls = Calls(cli, workload, scratch)
        measure = traced if args.trace else untraced
        result.update(measure(calls, args.seed, args.seconds))
        result.update(
            attempted=calls.attempted, failed=calls.failed, problems=calls.problems
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
