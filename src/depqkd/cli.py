"""Command line front end: table verification, single runs, and sweeps.

``verify-tables`` prints the rows of :func:`depqkd.alphabet.table_checks`,
which are built beside the tables they check.

A closed stdout, such as a pipe into ``head``, is not an error: a command
stops writing and returns the code it has earned, the verdict of
``verify-tables`` and 0 for ``run`` and ``sweep``, with nothing on stderr.

``run`` and ``sweep`` emit one JSON object per line and per trial with a
fixed field set, so output files diff cleanly and identical invocations
produce identical bytes except for the ``elapsed_ms`` timing field.  The
sessions of a whole sweep, taken in (sweep index, trial index) order, run
in batches of up to ``_BATCH_PAIRS`` pairs, whatever setting the sweep
varies.  ``elapsed_ms`` is the batch's wall time shared in proportion to
its sessions' pairs, which may span several cells, and a batch's lines
are written together, in that order, once it ends.

Every setting but ``trials`` is a field of
:class:`~depqkd.protocol.ProtocolConfig`, which gives its name (the flag,
the config-file key and the key of the report's ``config`` echo), its
default, its help and, through the field's enum type, its choices.  The
flags come in field order, which is the order of the echo.

:func:`_parse_args` reads a well-formed ``run`` or ``sweep`` call from
``_FLAGS``, those settings and the CLI's own flags, and builds no parser.
The argparse tree of :func:`build_parser` is built only for any other
command line, such as ``--help``, ``verify-tables``, an abbreviated flag,
a negative value or an error, and it is the one source of help text,
error lines and abbreviations.

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
import os
import re
import struct
import sys
import time
from contextlib import nullcontext
from dataclasses import Field, fields
from enum import EnumMeta
from functools import cache
from typing import Callable, NamedTuple, Optional, TextIO, get_args, get_type_hints

import numpy as np

from .alphabet import table_checks
from .protocol import ConfigError, ProtocolConfig, run_sessions

#: Pairs per engine batch: consecutive sessions of a run or sweep run
#: together while their summed pairs fit; a session larger than this runs
#: alone.  The per-pair cost of a batch of 1,000-pair sessions levels off
#: between 16 and 32 sessions (README, "Engine and performance").
_BATCH_PAIRS = 16384


class _Setting(NamedTuple):
    """A flag of ``run`` and ``sweep``: its name, for a setting also in
    config files, errors and the report, the type its text is read as, its
    default, the value each allowed text stands for (None for any text the
    type reads) and its help."""

    key: str
    type: Callable[[str], object]
    default: object
    choices: Optional[dict[str, object]]
    help: str

    @property
    def flag(self) -> str:
        return self.key.replace("_", "-")


_HINTS = get_type_hints(ProtocolConfig)


def _setting(f: Field) -> _Setting:
    """The setting of a field of ProtocolConfig.  An enum field takes the
    value of one of its members, and an optional field also ``none``."""
    kind = _HINTS[f.name]
    args = get_args(kind) or (kind,)  # Optional[E] is Union[E, None]
    choices: dict[str, object] = {"none": None} if type(None) in args else {}
    for arg in args:
        if isinstance(arg, EnumMeta):
            choices.update((member.value, member) for member in arg)
    return _Setting(
        f.name, str if choices else kind, f.default, choices or None, f.metadata["help"]
    )


#: The settings a sweep can vary, by flag name: the fields of ProtocolConfig.
_SWEEPABLE = {
    setting.flag: setting for setting in map(_setting, fields(ProtocolConfig))
}
_SETTINGS = (
    *_SWEEPABLE.values(),
    _Setting("trials", int, 1, None, "independent trials per configuration"),
)
_KEYS = {setting.key for setting in _SETTINGS}
#: The flags of ``run`` that are no setting, text kept as given, and the
#: two that ``sweep`` adds and requires.
_OWN_FLAGS = (
    _Setting("output", str, None, None, "write JSON lines here instead of stdout"),
    _Setting("config", str, None, None, "flat key=value config file; flags win"),
)
_SWEEP_FLAGS = (
    _Setting("param", str, None, None, "parameter to sweep (a run flag name)"),
    _Setting(
        "values", str, None, None, "comma-separated values for the swept parameter"
    ),
)
#: The flags of each session subcommand, in the order its parser adds them.
_FLAGS = {
    subcommand: {f"--{setting.flag}": setting for setting in flags}
    for subcommand, flags in (
        ("run", (*_SETTINGS, *_OWN_FLAGS)),
        ("sweep", (*_SETTINGS, *_OWN_FLAGS, *_SWEEP_FLAGS)),
    )
}


# The three big-endian 64-bit words a trial seed is derived from.
_SEED_WORDS = struct.Struct(">QQQ")
_WORD_MASK = (1 << 64) - 1


def derive_trial_seed(master_seed: int, sweep_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed; see the module docstring for the rule."""
    payload = _SEED_WORDS.pack(
        master_seed & _WORD_MASK, sweep_index & _WORD_MASK, trial_index & _WORD_MASK
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def bits_to_hex(bits) -> str:
    """Hex-encode a bit sequence (``bytes`` of 0/1 bytes, as in a
    :class:`~depqkd.protocol.RunReport`, or any sequence of 0/1 ints),
    first bit most significant, zero-padded at the tail to a whole number
    of bytes."""
    return np.packbits(np.frombuffer(bytes(bits), dtype=np.uint8)).tobytes().hex()


def _add_session_flags(parser: argparse.ArgumentParser, subcommand: str) -> None:
    """Give ``parser`` the flags of ``subcommand``, ``run`` or ``sweep``."""
    for flag, setting in _FLAGS[subcommand].items():
        parser.add_argument(
            flag,
            type=setting.type,
            choices=setting.choices,
            required=setting in _SWEEP_FLAGS,
            help=setting.help,
        )
    parser._negative_number_matcher = _NEGATIVE_VALUE


# A value that starts like a negative number: "-3e-05", "-inf", or a sweep
# list such as "-0.1,0.2".  Python 3.11's argparse takes only "-3" and
# "-0.5" as values and reads the rest as options, so they would never reach
# the range checks.
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line, without usage."""

    def error(self, message: str):
        raise ConfigError(message)


_SESSION_HELP = {
    "run": "run one configuration for one or more trials",
    "sweep": "run trials across a list of parameter values",
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="depqkd",
        description=(
            "Simulate two-step key distribution over doubly entangled photon pairs."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser(
        "verify-tables",
        help=(
            "check the encoding table, codeword map, port routing,"
            " and state discrimination"
        ),
    )
    for name, text in _SESSION_HELP.items():
        _add_session_flags(sub.add_parser(name, help=text), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read from :data:`_FLAGS` alone
    for a well-formed ``run`` or ``sweep`` call: exact long flags, each
    with a value that does not start with ``-`` and that its type reads
    and its choices hold, the last of a repeated flag winning.

    A call runs one subcommand, so such a call builds no parser.  Any other
    argv, ``--help``, an abbreviation or a negative value among them, goes
    to the full tree of :func:`build_parser`, the one source of help,
    errors and abbreviations.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is not None:
        values = dict.fromkeys(setting.key for setting in flags.values())
        tokens = iter(argv[1:])
        for token in tokens:
            flag, eq, text = token.partition("=")
            setting = flags.get(flag)
            if not eq:
                text = next(tokens, "-")
            if setting is None or text.startswith("-"):
                break
            try:
                value = setting.type(text)
            except ValueError:
                break
            if setting.choices is not None and value not in setting.choices:
                break
            values[setting.key] = value
        else:
            if argv[0] == "run" or None not in (values["param"], values["values"]):
                return argparse.Namespace(subcommand=argv[0], **values)
    return build_parser().parse_args(argv)


def _convert(setting: _Setting, raw: str) -> object:
    """The value a setting's text stands for."""
    if setting.choices is not None:
        if raw not in setting.choices:
            raise ConfigError(
                f"{setting.key} must be one of {tuple(setting.choices)}, got {raw!r}"
            )
        return setting.choices[raw]
    try:
        return setting.type(raw)
    except ValueError:
        kind = setting.type.__name__
        raise ConfigError(f"{setting.key} must be {kind}, got {raw!r}") from None


def _read_config_file(path: str) -> dict[str, str]:
    """Raw values by setting name; either key spelling is accepted, a
    leading byte order mark is skipped, and a key may appear once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _effective_settings(args: argparse.Namespace) -> dict[str, object]:
    """Merge flag values, config-file values, and defaults (in that order)."""
    file_values = _read_config_file(args.config) if args.config is not None else {}
    settings: dict[str, object] = {}
    for setting in _SETTINGS:
        key = setting.key
        flag_value = getattr(args, key)
        if flag_value is not None:  # argparse has read it and checked its choice
            choices = setting.choices
            settings[key] = choices[flag_value] if choices else flag_value
        elif key in file_values:
            settings[key] = _convert(setting, file_values[key])
        else:
            settings[key] = setting.default
    trials = settings["trials"]
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    # derive_trial_seed works mod 2**64: trial 2**64 would replay trial 0
    if trials >= 1 << 64:
        raise ConfigError(f"trials must be less than 2**64, got {trials}")
    return settings


def _json_float(x: Optional[float]) -> str:
    """``json.dumps`` of an error rate or a time: ``null`` or the float's
    ``float.__repr__``, also for a ``float`` subclass such as ``np.float64``."""
    return "null" if x is None else float.__repr__(x)


def _report_line(
    subcommand: str,
    trial_index: int,
    trial_seed: int,
    config_echo: str,
    report,
    elapsed_ms: float,
) -> str:
    """The bytes ``json.dumps`` gives the report line, with the cell's
    ``config_echo`` (``json.dumps`` of its ``to_dict()``, encoded once per
    cell) placed after ``seed``."""
    return (
        f'{{"subcommand": "{subcommand}", "trial_index": {trial_index:d}, '
        f'"seed": {trial_seed:d}, "config": {config_echo}, '
        f'"decoy_qber": {_json_float(report.decoy_qber)}, '
        f'"wc_qber": {_json_float(report.wc_qber)}, '
        f'"final_qber": {_json_float(report.final_qber)}, '
        f'"aborted": {"true" if report.aborted else "false"}, '
        f'"key_len": {len(report.alice_key):d}, '
        f'"alice_key_hex": "{bits_to_hex(report.alice_key)}", '
        f'"bob_key_hex": "{bits_to_hex(report.bob_key)}", '
        f'"elapsed_ms": {_json_float(elapsed_ms)}}}'
    )


def _batches(cells: list[ProtocolConfig], trials: int):
    """Every trial of every sweep cell, in (sweep index, trial index) order,
    as lists of ``(sweep index, trial index, trial config)``, one list per
    engine batch."""
    batch: list[tuple[int, int, ProtocolConfig]] = []
    pairs = 0
    for sweep_index, cell in enumerate(cells):
        # the cell's settings but its seed, each trial's config validated anew
        settings = {key: value for key, value in vars(cell).items() if key != "seed"}
        for i in range(trials):
            if batch and pairs + cell.pairs > _BATCH_PAIRS:
                yield batch
                batch, pairs = [], 0
            seed = derive_trial_seed(cell.seed, sweep_index, i)
            batch.append((sweep_index, i, ProtocolConfig(**settings, seed=seed)))
            pairs += cell.pairs
    yield batch


def _run_trials(
    subcommand: str, cells: list[ProtocolConfig], trials: int, out: TextIO
) -> None:
    echoes = [json.dumps(cell.to_dict()) for cell in cells]
    for batch in _batches(cells, trials):
        configs = [config for _, _, config in batch]
        start = time.perf_counter()
        try:
            reports = run_sessions(configs)
        except MemoryError:
            raise ConfigError(
                f"{configs[0].pairs} pairs per trial do not fit in memory"
            ) from None
        # shared in proportion to pairs: k equal sessions get exactly 1/k each
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        pairs = sum(config.pairs for config in configs)
        out.writelines(
            _report_line(
                subcommand,
                i,
                config.seed,
                echoes[sweep_index],
                report,
                elapsed_ms / (pairs / config.pairs),
            )
            + "\n"
            for (sweep_index, i, config), report in zip(batch, reports)
        )


def _session_configs(args: argparse.Namespace) -> tuple[list[ProtocolConfig], int]:
    """Validated configuration of every sweep cell (the one cell of ``run``)
    and the number of trials per cell."""
    settings = _effective_settings(args)
    trials = settings.pop("trials")
    cells = [settings]
    if args.subcommand == "sweep":
        param = args.param.strip()
        swept = _SWEEPABLE.get(param.replace("_", "-"))
        if swept is None:
            raise ConfigError(
                f"cannot sweep {param!r}; choose one of {sorted(_SWEEPABLE)}"
            )
        raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
        if not raw_values:
            raise ConfigError("sweep needs at least one value")
        cells = [{**settings, swept.key: _convert(swept, v)} for v in raw_values]
    return [ProtocolConfig(**cell) for cell in cells], trials


def _verify_tables() -> tuple[int, list[str]]:
    """The exit code of ``verify-tables``, 0 when every row passes and 1
    otherwise, and the lines it prints.  The verdict is settled before any
    line is written."""
    rows = table_checks()
    passed = sum(ok for _, ok, _ in rows)
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name} ({detail})\n" for name, ok, detail in rows
    ]
    lines.append(
        "note: the duplicated key column in the second half of the operation "
        "table is treated as a typographical slip; both operation pairs that "
        "produce a state share that state's codeword.\n"
    )
    lines.append(f"{passed}/{len(rows)} checks passed\n")
    return (0 if passed == len(rows) else 1), lines


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code is not None else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code, out = 0, sys.stdout
    try:
        if args.subcommand == "verify-tables":
            code, lines = _verify_tables()
            out.writelines(lines)
            out.flush()
        else:
            configs, trials = _session_configs(args)
            # opened only once the settings are valid, so a rejected
            # invocation leaves an existing output file untouched
            with (
                open(args.output, "w", encoding="utf-8")
                if args.output is not None
                else nullcontext(out)
            ) as out:
                _run_trials(args.subcommand, configs, trials, out)
                out.flush()
    except BrokenPipeError:
        # A closed stdout is not an error: the reader took what it wanted.
        # The real stdout is pointed at the null device, so that the flush
        # at interpreter exit does not fail on what is still buffered.
        if out is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
