"""depqkd benchmark: times whole sessions through the CLI, per workload.

    python3 perfbench/run.py --workload clean-key --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Without ``--workload`` every workload runs both ways
and a table of all metrics is printed.  The exit code is nonzero when any
output check fails.  Run from anywhere inside a checkout of the repository:
the package is imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Besides the package source, the output checks read the test suite's
#: independent reference enumerations.
SOURCES = (ROOT / "src" / "depqkd" / "__init__.py", ROOT / "tests" / "oracles.py")
SETUP_SAMPLES = 9

END_TO_END = {"us_per_pair": "us", "peak_rss_mb": "MB", "setup_s": "s"}

_PHASES = (
    "step1_prepare_and_encode", "insert_decoys", "transmit_b", "decoy_check",
    "wc_check", "step4_encode_a", "transmit_a", "step5_decode_and_sift", "run_session",
)
PER_LAYER = {
    **{f"protocol.{p}.self_ms": "ms" for p in _PHASES},
    **{
        f"{fn}.{kind}": "count" if kind == "calls" else "ms"
        for fn, kinds in (
            ("quantum.apply_local", ("calls", "ms")),
            ("quantum.partial_measure", ("calls", "ms")),
            ("channel.ir_attack_entangled", ("calls", "self_ms")),
            ("channel.ir_attack_decoy", ("calls", "ms")),
            ("channel.apply_loss", ("calls", "ms")),
            ("device.device_measure", ("calls", "ms")),
            ("device.measure_single", ("calls", "ms")),
            ("device.wavelength_convert_global", ("calls", "ms")),
            ("cli.main", ("self_ms",)),
            ("cli.derive_trial_seed", ("calls",)),
            ("cli.bits_to_hex", ("ms",)),
        )
        for kind in kinds
    },
    "quantum.draws": "count",
    "quantum.generators": "count",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # every worker gets its own hash seed, so iteration order that depends on
    # it shows as differing warm-up reports
    env.pop("PYTHONHASHSEED", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the result object the driver reads."""
    deadline = time.monotonic() + 2 * seconds + 60
    scratch = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--scratch", str(scratch)]
        # set-up time is only reported untraced; the traced run still starts
        # a second process to compare warm-up reports with
        setups = [
            _worker([*common, "--setup-only"], deadline)
            for _ in range(1 if trace else SETUP_SAMPLES - 1)
        ]
        out = _worker(
            [*common, "--seconds", str(seconds), "--trace", str(trace)], deadline
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    processes = setups + [out]
    if len({p["warmup_digest"] for p in processes}) != 1:
        out["problems"].append("warm-up reports differ between processes")
    if trace:
        values, units = out["layers"], PER_LAYER
    else:
        values = dict(out, setup_s=statistics.median(p["setup_s"] for p in processes))
        units = END_TO_END
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
        "absent": [name for name in units if name not in values],
        "problems": out["problems"],
        "calls": out["calls"],
        "raw_us_per_pair": out.get("raw_us_per_pair"),
    }


def describe(workload: str, trace: int, result: dict) -> list[str]:
    lines = [
        f"{workload} trace={trace}: {result['calls']} timed calls,"
        f" sessions attempted {result['attempted']} failed {result['failed']},"
        f" correct {result['correct']}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    lines += [f"  {name:42s} {'absent':>14s}" for name in result["absent"]]
    if result["raw_us_per_pair"]:
        lines.append(f"  {'(unscaled wall time per pair)':42s} {result['raw_us_per_pair']:14.6g} us")
    lines += [f"  check failed: {p}" for p in result["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    missing = [str(path) for path in SOURCES if not path.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="depqkd benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    compileall.compile_dir(ROOT / "src", quiet=1)
    runs = (
        [(args.workload, args.trace)]
        if args.workload
        else [(w, t) for w in WORKLOADS for t in (0, 1)]
    )
    all_ok = True
    for workload, trace in runs:
        try:
            result = measure(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(describe(workload, trace, result)), flush=True)
        all_ok &= result["correct"] and result["failed"] == 0
    if args.workload:
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({k: result[k] for k in keys}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
