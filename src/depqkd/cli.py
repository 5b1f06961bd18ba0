"""Command line front end: table verification, single runs, and sweeps.

``run`` and ``sweep`` emit one JSON object per line and per trial with a
fixed field set, so output files diff cleanly and identical invocations
produce identical bytes except for the ``elapsed_ms`` timing field.  The
trials of one configuration run in batches of up to ``_BATCH_PAIRS`` pairs;
``elapsed_ms`` is the batch's wall time over its trials, and a batch's
lines are written together, in trial order, once it ends.

Per-trial seeds derive from the master seed as
``sha256(master || sweep_index || trial_index)`` over big-endian 64-bit
words, truncated to the first 8 digest bytes (big-endian).  ``run`` uses
sweep index 0.  The derivation is part of the output contract and must
not change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from functools import cache
from typing import Callable, Optional, TextIO

import numpy as np

from .channel import ChannelConfig, ConfigError, EveConfig, EveStrategy, EveTarget
from .device import decode, device_outcome_distribution, port_of
from .protocol import CheckStrategy, ProtocolConfig, run_sessions
from .quantum import Freq, Photon, Pol, apply_local, equal_up_to_global_phase
from .states import (
    DepLabel,
    ENCODING_TABLE,
    codeword_to_label,
    dep_basis,
    label_to_codeword,
)

_EVE_CHOICES = ("none", "ir-z", "ir-x", "ir-random")
_TARGET_CHOICES = ("b", "a", "both")
_CHECK_CHOICES = ("decoy", "wc", "both")

_DEFAULTS: dict[str, object] = {
    "pairs": 1000,
    "decoy_fraction": 0.1,
    "check": "decoy",
    "eve": "none",
    "eve_targets": "b",
    "loss": 0.0,
    "threshold": 0.05,
    "sample_fraction": 0.1,
    "seed": 0,
    "trials": 1,
}

#: Pairs per engine batch: the trials of a configuration run together, as
#: many as fit; a session larger than this runs alone.
_BATCH_PAIRS = 8192

_CONVERTERS: dict[str, Callable[[str], object]] = {
    "pairs": int,
    "decoy_fraction": float,
    "check": str,
    "eve": str,
    "eve_targets": str,
    "loss": float,
    "threshold": float,
    "sample_fraction": float,
    "seed": int,
    "trials": int,
}


def derive_trial_seed(master_seed: int, sweep_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed; see the module docstring for the rule."""
    payload = b"".join(
        (v & ((1 << 64) - 1)).to_bytes(8, "big")
        for v in (master_seed, sweep_index, trial_index)
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def bits_to_hex(bits) -> str:
    """Hex-encode a bit sequence (``bytes`` of 0/1 bytes, as in a
    :class:`~depqkd.protocol.RunReport`, or any sequence of 0/1 ints),
    first bit most significant, zero-padded at the tail to a whole number
    of bytes."""
    return np.packbits(np.frombuffer(bytes(bits), dtype=np.uint8)).tobytes().hex()


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairs", type=int, default=None, help="entangled pairs per trial")
    parser.add_argument(
        "--decoy-fraction",
        dest="decoy_fraction",
        type=float,
        default=None,
        help="mean check photons inserted per pair",
    )
    parser.add_argument("--check", choices=_CHECK_CHOICES, default=None, help="security check strategy")
    parser.add_argument("--eve", choices=_EVE_CHOICES, default=None, help="intercept-resend attacker basis policy")
    parser.add_argument(
        "--eve-targets",
        dest="eve_targets",
        choices=_TARGET_CHOICES,
        default=None,
        help="which transmissions the attacker intercepts",
    )
    parser.add_argument("--loss", type=float, default=None, help="per-photon loss probability")
    parser.add_argument("--threshold", type=float, default=None, help="abort threshold on check error rates")
    parser.add_argument(
        "--sample-fraction",
        dest="sample_fraction",
        type=float,
        default=None,
        help="fraction of stored pairs consumed by the converter check",
    )
    parser.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    parser.add_argument("--trials", type=int, default=None, help="independent trials per configuration")
    parser.add_argument("--output", default=None, help="write JSON lines here instead of stdout")
    parser.add_argument("--config", default=None, help="flat key=value config file; flags win")


# A value that starts like a negative number: "-3e-05", "-inf", or a sweep
# list such as "-0.1,0.2".  Python 3.11's argparse takes only "-3" and
# "-0.5" as values and reads the rest as options, so they would never reach
# the range checks.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line, without usage."""

    def error(self, message: str):
        raise ConfigError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="depqkd",
        description="Simulate two-step key distribution over doubly entangled photon pairs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser(
        "verify-tables",
        help="check the encoding table, codeword map, port routing, and state discrimination",
    )
    run_p = sub.add_parser("run", help="run one configuration for one or more trials")
    _add_run_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="run trials across a list of parameter values")
    _add_run_flags(sweep_p)
    for p in (run_p, sweep_p):
        p._negative_number_matcher = _NEGATIVE_VALUE
    sweep_p.add_argument("--param", required=True, help="parameter to sweep (a run flag name)")
    sweep_p.add_argument("--values", required=True, help="comma-separated values for the swept parameter")
    return parser


def _convert(key: str, raw: str) -> object:
    try:
        return _CONVERTERS[key](raw)
    except ValueError:
        kind = _CONVERTERS[key].__name__
        raise ConfigError(f"{key} must be {kind}, got {raw!r}") from None


def _read_config_file(path: str) -> dict[str, str]:
    """Raw values by setting name; either key spelling is accepted."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _effective_settings(args: argparse.Namespace) -> dict[str, object]:
    """Merge flag values, config-file values, and defaults (in that order)."""
    file_values = _read_config_file(args.config) if args.config else {}
    settings: dict[str, object] = {}
    for key, default in _DEFAULTS.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = flag_value
        elif key in file_values:
            settings[key] = _convert(key, file_values[key])
        else:
            settings[key] = default
    if settings["trials"] < 1:
        raise ConfigError(f"trials must be positive, got {settings['trials']}")
    return settings


def _config_from_settings(settings: dict[str, object]) -> ProtocolConfig:
    for key, allowed in (
        ("check", _CHECK_CHOICES), ("eve", _EVE_CHOICES), ("eve_targets", _TARGET_CHOICES)
    ):
        if settings[key] not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {settings[key]!r}")
    eve = None
    if settings["eve"] != "none":
        eve = EveConfig(
            strategy=EveStrategy(settings["eve"]),
            target=EveTarget(settings["eve_targets"]),
        )
    return ProtocolConfig(
        n_pairs=int(settings["pairs"]),
        seed=int(settings["seed"]),
        decoy_fraction=float(settings["decoy_fraction"]),
        check_strategy=CheckStrategy(settings["check"]),
        check_sample_fraction=float(settings["sample_fraction"]),
        qber_threshold=float(settings["threshold"]),
        channel=ChannelConfig(loss_probability=float(settings["loss"]), eve=eve),
    )


def _report_line(
    subcommand: str,
    trial_index: int,
    trial_seed: int,
    master_config: ProtocolConfig,
    report,
    elapsed_ms: float,
) -> str:
    line = {
        "subcommand": subcommand,
        "trial_index": trial_index,
        "seed": trial_seed,
        "config": master_config.to_dict(),
        "decoy_qber": report.decoy_qber,
        "wc_qber": report.wc_qber,
        "final_qber": report.final_qber,
        "aborted": report.aborted,
        "key_len": len(report.alice_key),
        "alice_key_hex": bits_to_hex(report.alice_key),
        "bob_key_hex": bits_to_hex(report.bob_key),
        "elapsed_ms": elapsed_ms,
    }
    return json.dumps(line)


def _run_trials(
    subcommand: str,
    base_config: ProtocolConfig,
    sweep_index: int,
    trials: int,
    out: TextIO,
) -> None:
    per_batch = max(1, _BATCH_PAIRS // base_config.n_pairs)
    for first in range(0, trials, per_batch):
        indices = range(first, min(first + per_batch, trials))
        seeds = [derive_trial_seed(base_config.seed, sweep_index, i) for i in indices]
        configs = [replace(base_config, seed=seed) for seed in seeds]
        start = time.perf_counter()
        try:
            reports = run_sessions(configs)
        except MemoryError:
            raise ConfigError(
                f"{base_config.n_pairs} pairs per trial do not fit in memory"
            ) from None
        elapsed_ms = (time.perf_counter() - start) * 1000.0 / len(configs)
        out.writelines(
            _report_line(subcommand, i, seed, base_config, report, elapsed_ms) + "\n"
            for i, seed, report in zip(indices, seeds, reports)
        )


_SWEEPABLE = {
    "pairs",
    "decoy-fraction",
    "check",
    "eve",
    "eve-targets",
    "loss",
    "threshold",
    "sample-fraction",
    "seed",
}


def _session_configs(args: argparse.Namespace) -> tuple[list[ProtocolConfig], int]:
    """Validated configuration of every sweep cell (the one cell of ``run``)
    and the number of trials per cell."""
    settings = _effective_settings(args)
    cells = [settings]
    if args.subcommand == "sweep":
        param = args.param.strip().lstrip("-")
        if param not in _SWEEPABLE:
            raise ConfigError(f"cannot sweep {param!r}; choose one of {sorted(_SWEEPABLE)}")
        raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
        if not raw_values:
            raise ConfigError("sweep needs at least one value")
        key = param.replace("-", "_")
        cells = [{**settings, key: _convert(key, v)} for v in raw_values]
    return [_config_from_settings(cell) for cell in cells], int(settings["trials"])


def run_table_verification() -> list[tuple[str, bool, str]]:
    """All verification rows as (name, passed, detail)."""
    rows: list[tuple[str, bool, str]] = []
    psi_plus = dep_basis(DepLabel.PSI_PLUS)

    for pair, label in ENCODING_TABLE.items():
        produced = apply_local(
            pair.op_b, Photon.B, apply_local(pair.op_a, Photon.A, psi_plus)
        )
        ok = equal_up_to_global_phase(produced, dep_basis(label), 1e-12)
        name = f"encoding {pair.op_a.value} (x) {pair.op_b.value} -> {label}"
        rows.append((name, ok, "closure up to global phase"))

    codewords = {label: label_to_codeword(label) for label in DepLabel}
    bijective = sorted(codewords.values()) == list(range(8)) and all(
        codeword_to_label(cw) is label for label, cw in codewords.items()
    )
    rows.append(("codeword map bijective", bijective, "8 states <-> 8 codewords"))

    expected_ports = {
        DepLabel.PHI_PLUS: (1, 2),
        DepLabel.PHI_MINUS: (1, 2),
        DepLabel.PSI_PLUS: (1, 4),
        DepLabel.PSI_MINUS: (1, 4),
        DepLabel.GAMMA_PLUS: (3, 2),
        DepLabel.GAMMA_MINUS: (3, 2),
        DepLabel.UPSILON_PLUS: (3, 4),
        DepLabel.UPSILON_MINUS: (3, 4),
    }
    for label, ports in expected_ports.items():
        state = dep_basis(label)
        seen_ports = set()
        routed = set()
        for idx, amp in enumerate(state.vec):
            if abs(amp) < 1e-12:
                continue
            mode_a, mode_b = divmod(idx, 4)
            routed.add(
                (
                    port_of(Photon.A, Pol(mode_a // 2), Freq(mode_a % 2)),
                    port_of(Photon.B, Pol(mode_b // 2), Freq(mode_b % 2)),
                )
            )
        for outcome, prob in device_outcome_distribution(state):
            if prob > 1e-12:
                seen_ports.add((outcome.port_a, outcome.port_b))
        ok = routed == {ports} and seen_ports == {ports}
        rows.append((f"ports {label} -> {ports}", ok, "routing and coincidences"))

    for label in DepLabel:
        state = dep_basis(label)
        decoded = {
            decode(outcome)[0]
            for outcome, prob in device_outcome_distribution(state)
            if prob > 1e-12
        }
        ok = decoded == {label}
        rows.append(
            (f"discrimination {label}", ok, "all coincidences decode to the state")
        )

    return rows


def cmd_verify_tables(out: TextIO) -> int:
    rows = run_table_verification()
    failures = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        out.write(f"{status} {name} ({detail})\n")
    out.write(
        "note: the duplicated key column in the second half of the operation "
        "table is treated as a typographical slip; both operation pairs that "
        "produce a state share that state's codeword.\n"
    )
    out.write(f"{len(rows) - failures}/{len(rows)} checks passed\n")
    return 0 if failures == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.subcommand == "verify-tables":
        return cmd_verify_tables(sys.stdout)
    try:
        configs, trials = _session_configs(args)
        # opened only once the settings are valid, so a rejected invocation
        # leaves an existing output file untouched
        with (
            open(args.output, "w", encoding="utf-8") if args.output
            else nullcontext(sys.stdout)
        ) as out:
            for sweep_index, config in enumerate(configs):
                _run_trials(args.subcommand, config, sweep_index, trials, out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
