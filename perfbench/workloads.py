"""The benchmark's workloads and the checks on the reports they produce.

An operation is one session, which is one JSONL report line.  Every
expected value comes from :mod:`expected` or from the documented output
contract, never from an earlier run of the program.  Statistical checks
accept a count or rate within ``Z`` standard deviations of its exact
expectation, so a correct program fails one with negligible probability.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import expected

Z = 6.0
SAMPLE_FRACTION = 0.1
DECOY_FRACTION = 0.1
THRESHOLD = 0.05
WARMUP_PAIRS = 100

REQUIRED_FIELDS = (
    "subcommand", "trial_index", "seed", "config", "decoy_qber", "wc_qber",
    "final_qber", "aborted", "key_len", "alice_key_hex", "bob_key_hex",
    "elapsed_ms",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    # every flag but --pairs, --trials and --seed, so that a changed
    # default cannot change the workload
    flags: dict
    pairs: int
    trials: int = 1
    losses: tuple[float, ...] = (0.0,)  # one sweep cell per value

    def argv(self, seed: int, warmup: bool = False) -> list[str]:
        pairs, trials = (WARMUP_PAIRS, 1) if warmup else (self.pairs, self.trials)
        flags = [a for kv in self.flags.items() for a in kv]
        return [self.subcommand, *flags, "--pairs", str(pairs), "--trials", str(trials),
                "--seed", str(seed)]

    @property
    def requested_pairs(self) -> int:
        return self.pairs * self.trials * len(self.losses)

    @property
    def sessions(self) -> int:
        return self.trials * len(self.losses)


_COMMON = {
    "--sample-fraction": str(SAMPLE_FRACTION),
    "--threshold": str(THRESHOLD),
    "--decoy-fraction": str(DECOY_FRACTION),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clean-key",
            "one large clean session runs all five steps on every pair:"
            " second encoding and joint measurement dominate",
            "run",
            {**_COMMON, "--check": "both", "--eve": "none", "--loss": "0"},
            pairs=20_000,
        ),
        Workload(
            "intercept-b-decoy",
            "random-basis attack on photon b with 0.85 decoys aborts at the"
            " decoy check: channel attack and decoy path, no steps 4-5",
            "run",
            {**_COMMON, "--check": "decoy", "--eve": "ir-random", "--eve-targets": "b",
             "--loss": "0", "--decoy-fraction": "0.85"},
            pairs=10_000,
        ),
        Workload(
            "intercept-a-sweep",
            "loss sweep of many 1000-pair sessions attacked on photon a after"
            " the converter check: per-session and transmit_a costs",
            "sweep",
            {"--param": "loss", "--values": "0,0.1,0.2", **_COMMON, "--check": "wc",
             "--eve": "ir-z", "--eve-targets": "a"},
            pairs=1000,
            trials=4,
            losses=(0.0, 0.1, 0.2),
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of one timed call, derived from the benchmark seed."""
    digest = hashlib.sha256(f"depqkd-bench:{seed}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def trial_seed(master: int, sweep_index: int, trial_index: int) -> int:
    """The documented per-trial seed rule, restated."""
    payload = b"".join(
        (v & ((1 << 64) - 1)).to_bytes(8, "big")
        for v in (master, sweep_index, trial_index)
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


# Timing fields come last in a report line, from elapsed_ms on.
_TIMINGS = re.compile(rb', "elapsed_ms":.*$', re.M)


def report_digest(data: bytes) -> str:
    """sha256 of a report with the timing fields stripped from every line."""
    return hashlib.sha256(_TIMINGS.sub(b"", data)).hexdigest()


def within(observed: float, n: float, p: float) -> bool:
    """Whether a count lies within Z binomial standard deviations of n*p."""
    return abs(observed - n * p) <= Z * math.sqrt(n * p * (1 - p)) + 1


def _key(hex_str: str, key_len: int) -> int:
    """Key bits as an integer; raises when the hex does not encode key_len
    bits zero-padded to a byte boundary."""
    if len(hex_str) != 2 * ((key_len + 7) // 8):
        raise ValueError(f"{len(hex_str)} hex digits for {key_len} bits")
    value = int(hex_str, 16) if hex_str else 0
    pad = 4 * len(hex_str) - key_len
    if value & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits")
    return value >> pad


class SessionChecks:
    """Checks one timed call's report: per line, then pooled over lines."""

    def __init__(self, workload: Workload, master_seed: int) -> None:
        self.w = workload
        self.master = master_seed

    def run(self, data: bytes) -> tuple[int, int, list[str]]:
        """(sessions attempted, sessions failed, problems)."""
        lines = data.decode().splitlines()
        problems: list[str] = []
        if len(lines) != self.w.sessions:
            problems.append(f"{len(lines)} report lines, expected {self.w.sessions}")
        kept = []
        for i, line in enumerate(lines):
            try:
                report, bad = self._line(i, json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                report, bad = None, [f"malformed report: {exc}"]
            if bad:
                problems.extend(f"session {i}: {b}" for b in bad)
            else:
                kept.append((i, report))
        pooled = self._pooled(kept)
        problems.extend(pooled)
        # a pooled check speaks for every session of the call
        failed = self.w.sessions - len(kept)
        if pooled or len(lines) > self.w.sessions:
            failed = self.w.sessions
        return self.w.sessions, failed, problems

    def _line(self, i: int, r: dict) -> tuple[dict, list[str]]:
        w = self.w
        missing = [f for f in REQUIRED_FIELDS if f not in r]
        if missing:
            return r, [f"missing fields {missing}"]
        sweep_index, trial_index = divmod(i, w.trials)
        bad = []
        if r["subcommand"] != w.subcommand or r["trial_index"] != trial_index:
            bad.append(f"subcommand/trial {r['subcommand']}/{r['trial_index']}")
        if r["seed"] != trial_seed(self.master, sweep_index, trial_index):
            bad.append("trial seed does not follow the derivation rule")
        cfg = r["config"]
        flags = w.flags
        echo = {
            "pairs": w.pairs,
            "check": flags["--check"],
            "eve": flags["--eve"],
            "eve_targets": flags.get("--eve-targets", "b"),
            "loss": w.losses[sweep_index],
            "decoy_fraction": float(flags["--decoy-fraction"]),
            "sample_fraction": SAMPLE_FRACTION,
            "threshold": THRESHOLD,
        }
        wrong = {k: cfg.get(k) for k, v in echo.items() if cfg.get(k) != v}
        if wrong:
            bad.append(f"config echo differs: {wrong}")
        n = r["key_len"]
        alice = _key(r["alice_key_hex"], n)
        bob = _key(r["bob_key_hex"], n)
        r["_wrong_bits"] = bin(alice ^ bob).count("1")
        if n % 3:
            bad.append(f"key_len {n} is not 3 bits per pair")
        qber = r["_wrong_bits"] / n if n else 0.0
        if abs(r["final_qber"] - qber) > 1e-12:
            bad.append(f"final_qber {r['final_qber']} but keys differ in {qber}")
        per_workload = {
            "clean-key": self._clean_key,
            "intercept-b-decoy": self._intercept_b_decoy,
            "intercept-a-sweep": self._intercept_a_sweep,
        }[w.name]
        return r, bad + per_workload(r)

    def _clean_key(self, r: dict) -> list[str]:
        # the device separates the eight states exactly (expected.DECODE is
        # built only if it does), so a clean session has no wrong bit
        bad = []
        if r["aborted"]:
            bad.append("clean session aborted")
        if (r["decoy_qber"], r["wc_qber"], r["final_qber"]) != (0.0, 0.0, 0.0):
            bad.append(f"nonzero error rate {r['decoy_qber']} {r['wc_qber']} {r['final_qber']}")
        if r["alice_key_hex"] != r["bob_key_hex"]:
            bad.append("keys differ")
        if not within(r["key_len"] // 3, self.w.pairs, 1 - SAMPLE_FRACTION):
            bad.append(f"{r['key_len'] // 3} key pairs of {self.w.pairs}")
        return bad

    def _intercept_b_decoy(self, r: dict) -> list[str]:
        bad = []
        if not r["aborted"] or r["key_len"] or r["alice_key_hex"] or r["bob_key_hex"]:
            bad.append("attacked session kept a key")
        if r["wc_qber"] is not None:
            bad.append("converter check ran in a decoy-only session")
        # decoys are binomial in pairs * 0.85 and half are compared; take the
        # low end of that count so the bound is conservative
        mean = self.w.pairs * 0.85 * 0.5
        compared = mean - Z * math.sqrt(mean)
        p = expected.IR_RANDOM_DECOY_QBER
        q = r["decoy_qber"]
        if q is None or abs(q - p) > Z * math.sqrt(p * (1 - p) / compared):
            bad.append(f"decoy_qber {q}, expected {p:.4f}")
        return bad

    def _intercept_a_sweep(self, r: dict) -> list[str]:
        bad = []
        if r["aborted"]:
            bad.append("session aborted, but the attack comes after the check")
        if r["wc_qber"] != 0.0 or r["decoy_qber"] is not None:
            bad.append(f"check error rates {r['decoy_qber']} {r['wc_qber']}")
        return bad

    def _pooled(self, kept: list[tuple[int, dict]]) -> list[str]:
        w = self.w
        if w.name != "intercept-a-sweep" or len(kept) != w.sessions:
            return []
        bad = []
        for cell, loss in enumerate(w.losses):
            key_pairs = sum(
                r["key_len"] // 3 for i, r in kept if i // w.trials == cell
            )
            p = (1 - SAMPLE_FRACTION) * (1 - loss) ** 2
            if not within(key_pairs, w.pairs * w.trials, p):
                bad.append(f"loss {loss}: {key_pairs} key pairs, expected ~{w.pairs * w.trials * p:.0f}")
        key_pairs = sum(r["key_len"] // 3 for _, r in kept)
        wrong = sum(r["_wrong_bits"] for _, r in kept)
        mean, var = expected.IR_Z_A_WRONG_BITS_MEAN, expected.IR_Z_A_WRONG_BITS_VAR
        if abs(wrong - key_pairs * mean) > Z * math.sqrt(key_pairs * var) + 1:
            bad.append(
                f"pooled final_qber {wrong / (3 * key_pairs):.4f},"
                f" expected {expected.IR_Z_A_KEY_QBER:.4f}"
            )
        return bad
