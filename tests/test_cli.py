"""Command line behavior: verification, runs, sweeps, config handling."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cli_parsing import parse_outcome
from depqkd import (
    CheckStrategy,
    EveStrategy,
    EveTarget,
    ProtocolConfig,
    run_session,
    run_sessions,
)
from depqkd import cli
from depqkd.cli import bits_to_hex, derive_trial_seed, main

SCHEMA = [
    "subcommand",
    "trial_index",
    "seed",
    "config",
    "decoy_qber",
    "wc_qber",
    "final_qber",
    "aborted",
    "key_len",
    "alice_key_hex",
    "bob_key_hex",
    "elapsed_ms",
]


def assert_parsed_as_by_the_top_level_parser(argv):
    # main reads a well-formed run or sweep from its flag table alone: the
    # same attributes, or the same error or help, as the whole parser
    expected = parse_outcome(cli.build_parser().parse_args, argv)
    assert parse_outcome(cli._parse_args, argv) == expected, argv


def run_cli(capsys, *argv):
    assert_parsed_as_by_the_top_level_parser(argv)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def strip_timing(line: str) -> str:
    head, sep, _ = line.partition(', "elapsed_ms"')
    assert sep, line
    return head


def test_bits_to_hex():
    assert bits_to_hex([]) == ""
    assert bits_to_hex([1, 0, 1]) == "a0"
    assert bits_to_hex([1] * 8) == "ff"
    assert bits_to_hex([0] * 9 + [1]) == "0040"
    assert bits_to_hex((0, 1, 1, 0, 1, 0, 0, 1)) == "69"


def loop_bits_to_hex(bits) -> str:
    """Reference: set each bit of the output bytes one at a time."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 0x80 >> (i % 8)
    return out.hex()


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 3, 30, 3 * 18_000])
def test_bits_to_hex_matches_the_bitwise_loop(length):
    rng = np.random.default_rng(length)
    bits = tuple(rng.integers(0, 2, size=length).tolist())
    assert bits_to_hex(bits) == loop_bits_to_hex(bits)
    assert bits_to_hex((1,) * length) == loop_bits_to_hex((1,) * length)


def test_report_keys_are_bytes_of_bits_and_hex_like_the_loop():
    # an attack on the second transmission leaves the two keys different
    config = ProtocolConfig(
        pairs=400, seed=8, threshold=0.3, eve=EveStrategy.Z, eve_targets=EveTarget.A
    )
    report = run_session(config)
    assert not report.aborted and report.alice_key != report.bob_key
    for key in (report.alice_key, report.bob_key):
        assert type(key) is bytes
        assert set(key) == {0, 1}
        assert len(key) == 3 * report.counts["key_pairs"]
        assert bits_to_hex(key) == loop_bits_to_hex(tuple(key))
    aborted = run_session(
        ProtocolConfig(pairs=200, decoy_fraction=0.5, eve=EveStrategy.RANDOM_ZX)
    )
    assert aborted.aborted and aborted.alice_key == b"" == aborted.bob_key
    assert bits_to_hex(aborted.alice_key) == ""


def test_trial_seed_derivation_is_the_documented_digest():
    payload = (11).to_bytes(8, "big") + (2).to_bytes(8, "big") + (5).to_bytes(8, "big")
    expected = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    assert derive_trial_seed(11, 2, 5) == expected
    seeds = {derive_trial_seed(0, s, t) for s in range(3) for t in range(3)}
    assert len(seeds) == 9
    assert derive_trial_seed(2**70 + 3, 0, 0) == derive_trial_seed(3, 0, 0)


def test_verify_tables_passes_and_documents_the_table_reading(capsys):
    code, out, err = run_cli(capsys, "verify-tables")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    pass_lines = [l for l in lines if l.startswith("PASS")]
    assert len(pass_lines) == 34
    assert not any(l.startswith("FAIL") for l in lines)
    assert lines[-1] == "34/34 checks passed"
    assert any("typographical slip" in l for l in lines)
    assert sum("encoding" in l for l in pass_lines) == 16
    assert sum(l.startswith("PASS ports") for l in pass_lines) == 8
    assert sum(l.startswith("PASS discrimination") for l in pass_lines) == 8


VERIFY_TABLES_STDOUT = """\
PASS encoding I (x) I -> Psi+ (closure up to global phase)
PASS encoding I (x) sigma_z -> Psi- (closure up to global phase)
PASS encoding I (x) sigma_x -> Phi+ (closure up to global phase)
PASS encoding I (x) i_sigma_y -> Phi- (closure up to global phase)
PASS encoding sigma_x (x) I -> Upsilon+ (closure up to global phase)
PASS encoding sigma_x (x) sigma_z -> Upsilon- (closure up to global phase)
PASS encoding sigma_x (x) sigma_x -> Gamma+ (closure up to global phase)
PASS encoding sigma_x (x) i_sigma_y -> Gamma- (closure up to global phase)
PASS encoding sigma_z (x) I -> Psi- (closure up to global phase)
PASS encoding sigma_z (x) sigma_z -> Psi+ (closure up to global phase)
PASS encoding sigma_z (x) sigma_x -> Phi- (closure up to global phase)
PASS encoding sigma_z (x) i_sigma_y -> Phi+ (closure up to global phase)
PASS encoding i_sigma_y (x) I -> Upsilon- (closure up to global phase)
PASS encoding i_sigma_y (x) sigma_z -> Upsilon+ (closure up to global phase)
PASS encoding i_sigma_y (x) sigma_x -> Gamma- (closure up to global phase)
PASS encoding i_sigma_y (x) i_sigma_y -> Gamma+ (closure up to global phase)
PASS codeword map bijective (8 states <-> 8 codewords)
PASS ports Phi+ -> (1, 2) (routing and coincidences)
PASS ports Phi- -> (1, 2) (routing and coincidences)
PASS ports Psi+ -> (1, 4) (routing and coincidences)
PASS ports Psi- -> (1, 4) (routing and coincidences)
PASS ports Gamma+ -> (3, 2) (routing and coincidences)
PASS ports Gamma- -> (3, 2) (routing and coincidences)
PASS ports Upsilon+ -> (3, 4) (routing and coincidences)
PASS ports Upsilon- -> (3, 4) (routing and coincidences)
PASS discrimination Phi+ (all coincidences decode to the state)
PASS discrimination Phi- (all coincidences decode to the state)
PASS discrimination Psi+ (all coincidences decode to the state)
PASS discrimination Psi- (all coincidences decode to the state)
PASS discrimination Gamma+ (all coincidences decode to the state)
PASS discrimination Gamma- (all coincidences decode to the state)
PASS discrimination Upsilon+ (all coincidences decode to the state)
PASS discrimination Upsilon- (all coincidences decode to the state)
PASS shipped tables equal the build (tables.bin byte for byte)
note: the duplicated key column in the second half of the operation table is \
treated as a typographical slip; both operation pairs that produce a state \
share that state's codeword.
34/34 checks passed
"""


def test_verify_tables_prints_exactly_its_pinned_bytes(capsys):
    code, out, err = run_cli(capsys, "verify-tables")
    assert (code, err) == (0, "")
    assert out == VERIFY_TABLES_STDOUT
    assert len(out.splitlines()) == 36


def test_verify_tables_fails_when_routing_is_broken(capsys, monkeypatch):
    from depqkd.device import PORT_MODES

    # port 3 collects port 1's modes, so both a ports collapse onto one
    monkeypatch.setitem(PORT_MODES, 3, PORT_MODES[1])
    code, out, _ = run_cli(capsys, "verify-tables")
    assert code == 1
    failing = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert failing
    assert all("ports" in l for l in failing)


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone, as under ``| head``: every write
    raises ``BrokenPipeError``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


SESSION_ARGV = [
    ["run", "--pairs", "20", "--trials", "3"],
    ["sweep", "--param", "loss", "--values", "0,0.2", "--pairs", "20"],
]


@pytest.mark.parametrize("argv", [["verify-tables"], *SESSION_ARGV])
def test_a_closed_stdout_ends_a_command_quietly(argv, capsys, monkeypatch):
    # not an error: nothing on stderr, and the code the command has
    # earned, the verdict of verify-tables and 0 for a run or a sweep
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_a_closed_stdout_keeps_the_verdict_of_verify_tables(capsys, monkeypatch):
    from depqkd.device import PORT_MODES

    monkeypatch.setitem(PORT_MODES, 3, PORT_MODES[1])
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["verify-tables"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["verify-tables"], *SESSION_ARGV])
def test_a_pipe_closed_at_once_ends_a_command_quietly(argv):
    # whichever side wins the race, the command exits 0 with an empty
    # stderr: no traceback, and no failed flush at interpreter exit
    src = str(Path(__file__).resolve().parents[1] / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "depqkd", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    process.stdout.close()
    _, err = process.communicate(timeout=120)
    assert process.returncode == 0
    assert err == b""


def test_run_emits_one_schema_line_per_trial(capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        "--pairs",
        "200",
        "--seed",
        "5",
        "--check",
        "both",
        "--decoy-fraction",
        "0.2",
        "--sample-fraction",
        "0.2",
    )
    assert code == 0
    assert err == ""
    (line,) = json_lines(out)
    assert list(line) == SCHEMA
    assert line["subcommand"] == "run"
    assert line["trial_index"] == 0
    assert line["seed"] == derive_trial_seed(5, 0, 0)
    assert line["config"]["pairs"] == 200
    assert line["config"]["seed"] == 5
    assert line["config"]["check"] == "both"
    assert line["decoy_qber"] == 0.0
    assert line["wc_qber"] == 0.0
    assert line["final_qber"] == 0.0
    assert line["aborted"] is False
    assert line["alice_key_hex"] == line["bob_key_hex"]
    assert line["key_len"] % 3 == 0
    assert len(line["alice_key_hex"]) == 2 * ((line["key_len"] + 7) // 8)
    assert line["elapsed_ms"] >= 0.0


def json_report_line(subcommand, trial_index, seed, config, report, elapsed_ms):
    """The report line as ``json.dumps`` gives it, from one ordered dict."""
    return json.dumps(
        {
            "subcommand": subcommand,
            "trial_index": trial_index,
            "seed": seed,
            "config": config,
            "decoy_qber": report.decoy_qber,
            "wc_qber": report.wc_qber,
            "final_qber": report.final_qber,
            "aborted": report.aborted,
            "key_len": len(report.alice_key),
            "alice_key_hex": bits_to_hex(report.alice_key),
            "bob_key_hex": bits_to_hex(report.bob_key),
            "elapsed_ms": elapsed_ms,
        }
    )


@pytest.mark.parametrize(
    "args",
    [
        ("run", "--trials", "6", "--check", "both", "--eve", "ir-random",
         "--decoy-fraction", "0.3", "--threshold", "0.3"),
        ("sweep", "--param", "eve", "--values", "none,ir-random", "--trials", "4",
         "--decoy-fraction", "0.5"),
    ],
)
def test_report_lines_are_the_bytes_json_dumps_gives(capsys, args):
    code, out, _ = run_cli(
        capsys, *args, "--pairs", "37", "--seed", str(2**63 + 7)
    )
    assert code == 0
    lines = out.splitlines()
    for line in lines:
        assert json.dumps(json.loads(line)) == line
    reports = json_lines(out)
    # null and float rates, aborted sessions with empty keys, keys that end
    # inside a byte, and seeds from 2**63 on
    assert any(r["wc_qber"] is None for r in reports)
    assert any(isinstance(r["decoy_qber"], float) for r in reports)
    assert any(r["aborted"] and r["key_len"] == 0 for r in reports)
    assert any(r["key_len"] % 8 for r in reports)
    assert any(r["seed"] >= 2**63 for r in reports)
    assert all(r["config"]["seed"] == 2**63 + 7 for r in reports)


class FakeReport:
    """The fields of a report that its line reads."""

    def __init__(self, decoy_qber, wc_qber, final_qber, aborted, alice_key, bob_key):
        self.decoy_qber, self.wc_qber, self.final_qber = decoy_qber, wc_qber, final_qber
        self.aborted, self.alice_key, self.bob_key = aborted, alice_key, bob_key


@pytest.mark.parametrize(
    "subcommand, trial_index, seed, report, elapsed_ms",
    [
        ("run", 0, 0, FakeReport(None, None, 0.0, True, b"", b""), 0.0),
        ("sweep", 17, 2**63,
         FakeReport(1e-05, None, 0.0, False, b"\1" * 5, b"\0" * 5), 1e-05),
        ("run", 3, 2**64 - 1,
         FakeReport(0.0, 1 / 3, 5e-324, False, b"\1\0\1", b"\1\1\1"), 1e16),
        # under numpy 2 the repr of a numpy float is "np.float64(0.1)", which
        # json does not print
        ("sweep", 2, 5, FakeReport(np.float64(0.1), np.float64(0.05), np.float64(0.0),
                                   False, b"\0" * 9, b"\0" * 9), np.float64(0.123)),
    ],
)
def test_report_line_matches_json_dumps_of_the_ordered_fields(
    subcommand, trial_index, seed, report, elapsed_ms
):
    config = ProtocolConfig(seed=seed, sample_fraction=1e-05).to_dict()
    line = cli._report_line(
        subcommand, trial_index, seed, json.dumps(config), report, elapsed_ms
    )
    assert line == json_report_line(
        subcommand, trial_index, seed, config, report, elapsed_ms
    )


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(),
        ProtocolConfig(seed=2**64 - 1, sample_fraction=1e-05, threshold=5e-324),
        # an int where a float is allowed, and numpy floats, print as json does
        ProtocolConfig(pairs=7, decoy_fraction=0, loss=1, sample_fraction=1),
        ProtocolConfig(decoy_fraction=np.float64(0.1), loss=np.float64(0.0)),
        ProtocolConfig(
            check=CheckStrategy.BOTH, eve=EveStrategy.RANDOM_ZX, eve_targets=EveTarget.A
        ),
    ],
)
def test_the_config_echo_is_the_bytes_json_dumps_gives(config):
    assert cli._config_echo(config) == json.dumps(config.to_dict())


def spy_on_batches(monkeypatch):
    """The sessions of each ``run_sessions`` call the CLI makes."""
    batches = []

    def spy(configs):
        batches.append(list(configs))
        return run_sessions(configs)

    monkeypatch.setattr(cli, "run_sessions", spy)
    return batches


def test_batching_the_trials_changes_no_report_byte(capsys, monkeypatch):
    batches = spy_on_batches(monkeypatch)
    # the cells of a sweep share batches whatever it varies; a batch ends
    # only where its summed pairs would pass the budget
    same = ((1, 10), (60, 5), (10_000, 1))  # one, two and ten trials per batch
    for param, values, budgets in (
        ("loss", "0,0.3", same),
        ("threshold", "0.1,0.4", same),
        ("eve", "ir-z,ir-x", same),
        ("check", "decoy,wc", same),
        # five 10-pair trials, then five 50-pair ones: a budget of 60 cuts
        # after the small ones, 100 holds them and one large trial, and
        # then two large trials per batch
        ("pairs", "10,50", ((1, 10), (60, 6), (100, 3), (10_000, 1))),
    ):
        args = (
            "sweep", "--param", param, "--values", values, "--trials", "5",
            "--pairs", "30", "--check", "both", "--eve", "ir-random",
            "--eve-targets", "both", "--threshold", "0.4", "--seed", "11",
        )
        outputs = []
        for budget, calls in budgets:
            monkeypatch.setattr(cli, "_BATCH_PAIRS", budget)
            batches.clear()
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            assert len(batches) == calls, (param, budget)
            outputs.append([strip_timing(line) for line in out.splitlines()])
        assert all(output == outputs[0] for output in outputs)
        assert [line["trial_index"] for line in json_lines(out)] == [0, 1, 2, 3, 4] * 2


def test_a_loss_sweep_runs_as_one_batch(capsys, monkeypatch):
    batches = spy_on_batches(monkeypatch)
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "loss", "--values", "0,0.1,0.2", "--trials", "4",
        "--pairs", "1000", "--check", "wc", "--eve", "ir-z", "--eve-targets", "a",
        "--seed", "3",
    )
    assert code == 0
    (batch,) = batches
    losses = [c.loss for c in batch]
    assert losses == [0.0] * 4 + [0.1] * 4 + [0.2] * 4
    # the lines of a batch share its time per session
    assert len({line["elapsed_ms"] for line in json_lines(out)}) == 1


def test_a_pairs_sweep_shares_its_batch_time_by_pairs(capsys, monkeypatch):
    batches = spy_on_batches(monkeypatch)
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "pairs", "--values", "100,300", "--seed", "3"
    )
    assert code == 0
    (batch,) = batches
    assert [c.pairs for c in batch] == [100, 300]
    small, large = (line["elapsed_ms"] for line in json_lines(out))
    assert small > 0.0 and large == pytest.approx(3 * small, rel=1e-12)


def test_run_is_reproducible_except_for_timing(capsys):
    args = ("run", "--pairs", "150", "--seed", "9", "--trials", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first != ""
    assert [strip_timing(l) for l in first.splitlines()] == [
        strip_timing(l) for l in second.splitlines()
    ]


def test_run_trials_use_derived_seeds(capsys):
    code, out, _ = run_cli(capsys, "run", "--pairs", "50", "--seed", "4", "--trials", "3")
    assert code == 0
    lines = json_lines(out)
    assert [l["trial_index"] for l in lines] == [0, 1, 2]
    assert [l["seed"] for l in lines] == [derive_trial_seed(4, 0, t) for t in range(3)]
    assert len({l["alice_key_hex"] for l in lines}) == 3


def test_run_reports_an_abort_under_attack(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--pairs",
        "3000",
        "--seed",
        "2",
        "--eve",
        "ir-random",
        "--decoy-fraction",
        "0.3",
    )
    assert code == 0
    (line,) = json_lines(out)
    assert line["aborted"] is True
    assert line["decoy_qber"] == pytest.approx(0.25, abs=0.05)
    assert line["key_len"] == 0
    assert line["alice_key_hex"] == ""
    assert line["config"]["eve"] == "ir-random"


def test_sweep_emits_a_line_per_value_and_trial(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--param",
        "loss",
        "--values",
        "0,0.1,0.3",
        "--pairs",
        "120",
        "--seed",
        "8",
        "--trials",
        "2",
    )
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 6
    assert [l["config"]["loss"] for l in lines] == [0.0, 0.0, 0.1, 0.1, 0.3, 0.3]
    assert [l["trial_index"] for l in lines] == [0, 1, 0, 1, 0, 1]
    assert all(l["subcommand"] == "sweep" for l in lines)
    expected_seeds = [
        derive_trial_seed(8, sweep, trial) for sweep in range(3) for trial in range(2)
    ]
    assert [l["seed"] for l in lines] == expected_seeds


def test_sweep_over_attacker_policies(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--param",
        "eve",
        "--values",
        "none,ir-z",
        "--pairs",
        "2500",
        "--decoy-fraction",
        "0.3",
        "--seed",
        "12",
    )
    assert code == 0
    clean, attacked = json_lines(out)
    assert clean["config"]["eve"] == "none"
    assert clean["aborted"] is False
    assert clean["decoy_qber"] == 0.0
    assert attacked["config"]["eve"] == "ir-z"
    assert attacked["aborted"] is True
    assert attacked["decoy_qber"] == pytest.approx(0.25, abs=0.05)


def test_sweep_rejects_unknown_parameters_and_empty_values(capsys):
    code, _, err = run_cli(capsys, "sweep", "--param", "bogus", "--values", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "sweep", "--param", "loss", "--values", " , ")
    assert code == 2
    assert "error:" in err


def test_sweep_takes_either_spelling_of_a_parameter(capsys):
    reports = []
    for param in ("decoy-fraction", "decoy_fraction"):
        code, out, err = run_cli(
            capsys, "sweep", f"--param={param}", "--values", "0,0.2",
            "--pairs", "50", "--seed", "4",
        )
        assert (code, err) == (0, "")
        assert [l["config"]["decoy_fraction"] for l in json_lines(out)] == [0.0, 0.2]
        reports.append([strip_timing(line) for line in out.splitlines()])
    assert reports[0] == reports[1]
    code, _, err = run_cli(capsys, "sweep", "--param", "eve_target", "--values", "a")
    assert code == 2
    assert err == (
        "error: cannot sweep 'eve_target'; choose one of ['check', 'decoy-fraction',"
        " 'eve', 'eve-targets', 'loss', 'pairs', 'sample-fraction', 'seed',"
        " 'threshold']\n"
    )


def test_a_parameter_spelled_as_a_flag_exits_with_code_two(capsys):
    # argparse reads "--param --loss" as a missing value, so "--param=--loss"
    # is refused as well rather than read as "loss"
    for spelling in (("--param=--loss",), ("--param", "--loss")):
        code, out, err = run_cli(capsys, "sweep", *spelling, "--values", "0.1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_usage_errors_exit_with_code_two(capsys):
    assert run_cli(capsys, "run", "--pairs", "notanint")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "run", "--eve", "ir-everything")[0] == 2


def test_invalid_settings_exit_with_code_two(capsys):
    code, _, err = run_cli(capsys, "run", "--pairs", "0")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "run", "--loss", "1.5")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv, config_text, message",
    [
        (("--pairs", "0"), None, "pairs must be positive, got 0"),
        (("--decoy-fraction", "1"), None, "decoy_fraction must lie in [0, 1), got 1.0"),
        (("--sample-fraction", "0"), None, "sample_fraction must lie in (0, 1], got 0.0"),
        (("--threshold", "1"), None, "threshold must lie in (0, 1), got 1.0"),
        (("--loss", "1.5"), None, "loss must lie in [0, 1], got 1.5"),
        (("--trials", "0"), None, "trials must be positive, got 0"),
        ((), "check = x\n", "check must be one of ('decoy', 'wc', 'both'), got 'x'"),
        (("--seed", "-1"), None, "seed must be an int in [0, 2**64), got -1"),
        (("--seed", str(2**64)), None, f"seed must be an int in [0, 2**64), got {2**64}"),
    ],
)
def test_each_validation_prints_its_exact_error_line(
    capsys, tmp_path, argv, config_text, message
):
    if config_text is not None:
        cfg = tmp_path / "session.cfg"
        cfg.write_text(config_text)
        argv = (*argv, "--config", str(cfg))
    assert run_cli(capsys, "run", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "subcommand", [("run",), ("sweep", "--param", "loss", "--values", "0,0.1")]
)
def test_a_trial_count_of_2_64_or_more_exits_two_before_any_session(
    capsys, monkeypatch, tmp_path, subcommand
):
    # derive_trial_seed reduces each index mod 2**64, so trial 2**64 would
    # replay the seed of trial 0; such a count is refused, not run
    batches = []
    monkeypatch.setattr(cli, "run_sessions", batches.append)
    cfg = tmp_path / "session.cfg"
    cfg.write_text(f"trials = {2**64}\n")
    for argv, trials in (
        (("--trials", str(2**64)), 2**64),
        (("--trials", str(2**70)), 2**70),
        (("--config", str(cfg)), 2**64),
    ):
        message = f"error: trials must be less than 2**64, got {trials}\n"
        assert run_cli(capsys, *subcommand, *argv) == (2, "", message)
    assert batches == []
    # the largest count still passes validation
    args = cli.build_parser().parse_args(["run", "--trials", str(2**64 - 1)])
    assert cli._session_configs(args)[1] == 2**64 - 1


def assert_one_error_line_naming(code, out, err, pairs):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(pairs) in lines[0]


def test_a_pair_count_numpy_cannot_address_exits_two(capsys):
    # past numpy's largest array size: rejected before anything is allocated
    code, out, err = run_cli(capsys, "run", "--pairs", str(10**20), "--check", "wc")
    assert_one_error_line_naming(code, out, err, 10**20)


def test_a_pair_count_that_runs_out_of_memory_exits_two(capsys, monkeypatch):
    def out_of_memory(configs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_sessions", out_of_memory)
    code, out, err = run_cli(capsys, "run", "--pairs", "123456", "--check", "wc")
    assert_one_error_line_naming(code, out, err, 123456)


@pytest.mark.parametrize(
    "subcommand", [("run",), ("sweep", "--param", "pairs", "--values", "20")]
)
@pytest.mark.parametrize(
    "flag, value",
    [("--loss", "-3e-05"), ("--threshold", "-1E-3"), ("--decoy-fraction", "-2e-1")],
)
def test_negative_exponent_values_reach_the_range_check(capsys, subcommand, flag, value):
    code, out, err = run_cli(capsys, *subcommand, flag, value)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(float(value)) in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("sweep", "--param", "loss", "--values", "-0.1,0.2"),
            "error: loss must lie in [0, 1], got -0.1",
        ),
        (("run", "--loss", "-inf"), "error: loss must lie in [0, 1], got -inf"),
        (("run", "--pairs", "notanint"), "error: argument --pairs: invalid int value"),
        (("run", "--eve", "ir-everything"), "error: argument --eve: invalid choice"),
        (("run", "--loss"), "error: argument --loss: expected one argument"),
        (("nonsense",), "error: argument subcommand: invalid choice"),
        (("run", "--no-such-flag"), "error: unrecognized arguments: --no-such-flag"),
        (
            ("sweep", "--values", "1"),
            "error: the following arguments are required: --param",
        ),
        (("run", "--output"), "error: argument --output: expected one argument"),
        # an empty path is no path: opening it fails before any session
        (("run", "--output", ""), "error: [Errno 2] No such file or directory: ''"),
        (("run", "--output="), "error: [Errno 2] No such file or directory: ''"),
        (("run", "--config", ""), "error: [Errno 2] No such file or directory: ''"),
    ],
)
def test_bad_command_lines_print_one_error_line_without_usage(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), err


def test_help_prints_usage_and_exits_zero(capsys):
    code, out, err = run_cli(capsys, "run", "--help")
    assert code == 0
    assert out.startswith("usage: depqkd run") and "--loss LOSS" in out
    assert err == ""


@pytest.mark.parametrize(
    "argv", [("--help",), ("run", "--help"), ("sweep", "--help"), ("-h",)]
)
def test_every_help_prints_the_bytes_of_the_top_level_parser(capsys, argv):
    expected = parse_outcome(cli.build_parser().parse_args, argv)
    assert expected[:2] == (SystemExit, (0,))
    assert expected[2].startswith("usage: depqkd")
    assert run_cli(capsys, *argv) == (0, expected[2], "")


def test_abbreviated_flags_keep_working(capsys):
    code, out, _ = run_cli(capsys, "run", "--pair", "4", "--check=wc", "--sam", "1")
    [line] = json_lines(out)
    assert code == 0
    assert line["config"]["pairs"] == 4 and line["config"]["sample_fraction"] == 1.0
    code, out, err = run_cli(capsys, "run", "--s", "4")  # --seed or --sample-fraction
    assert (code, out) == (2, "")
    assert err.startswith("error: ambiguous option: --s could match"), err


def readme_flag_table():
    """(flag, default) of each row of the flag table in README §CLI
    reference, a default without its backticks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(--[\w-]+)` \| ([^|]*) \|", section, re.M)
    return [(flag, default.strip().strip("`")) for flag, default in rows]


def test_the_readme_flag_table_lists_the_run_flags_and_their_defaults():
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices["run"]._actions
    flags = [action.option_strings[-1] for action in actions if action.dest != "help"]
    # one flag per field of the config, in field order, then the CLI's own
    assert flags == [
        *(f"--{f.name.replace('_', '-')}" for f in fields(ProtocolConfig)),
        "--trials", "--output", "--config",
    ]
    rows = readme_flag_table()
    assert [flag for flag, _ in rows] == flags
    settings = {f"--{setting.flag}": setting for setting in cli._SETTINGS}
    for flag, default in rows:
        if flag in settings:  # --output and --config are no settings
            setting = settings[flag]
            texts = {value: text for text, value in (setting.choices or {}).items()}
            assert default == str(texts.get(setting.default, setting.default)), flag


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "session.cfg"
    cfg.write_text(
        "# session settings\n"
        "pairs = 60\n"
        "decoy-fraction = 0.3\n"
        "eve = ir-z\n"
        "sample_fraction = 0.5\n"
        "\n"
    )
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "1")
    assert code == 0
    (line,) = json_lines(out)
    assert line["config"]["pairs"] == 60
    assert line["config"]["decoy_fraction"] == 0.3
    assert line["config"]["eve"] == "ir-z"
    assert line["config"]["sample_fraction"] == 0.5
    code, out, _ = run_cli(
        capsys, "run", "--config", str(cfg), "--seed", "1", "--pairs", "90", "--eve", "none"
    )
    assert code == 0
    (line,) = json_lines(out)
    assert line["config"]["pairs"] == 90
    assert line["config"]["eve"] == "none"
    assert line["config"]["decoy_fraction"] == 0.3


def test_every_config_echo_reads_back_as_a_config_file(capsys, tmp_path):
    # the echo's keys are the config file's keys, so an echo written out as a
    # file gives the same echo again; without an attacker it names the
    # targets "b" whatever was asked
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "eve", "--values", "none,ir-z,ir-random",
        "--eve-targets", "a", "--check", "both", "--loss", "0.1",
        "--sample-fraction", "1e-05", "--threshold", "0.5", "--decoy-fraction", "0",
        "--pairs", "20", "--seed", str(2**64 - 1),
    )
    assert code == 0
    echoes = [line["config"] for line in json_lines(out)]
    assert [echo["eve_targets"] for echo in echoes] == ["b", "a", "a"]
    cfg = tmp_path / "echo.cfg"
    for echo in echoes:
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in echo.items()))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert (code, err) == (0, "")
        (line,) = json_lines(out)
        assert list(line["config"].items()) == list(echo.items())


def test_a_negative_zero_echoes_as_zero(capsys, tmp_path):
    # -0 reads as the float -0.0, which json.dumps would echo as "-0.0";
    # each spelling gives the bytes of its zero up to the timing field
    cfg = tmp_path / "session.cfg"
    cfg.write_text("loss = -0\n")
    common = ("--pairs", "20", "--seed", "3")
    for argv, zero in (
        (("run", "--loss", "-0"), ("run", "--loss", "0")),
        (("run", "--loss=-0.0"), ("run", "--loss", "0")),
        (("run", "--decoy-fraction", "-0"), ("run", "--decoy-fraction", "0")),
        (("run", "--config", str(cfg)), ("run", "--loss", "0")),
        (
            ("sweep", "--param", "loss", "--values", "0,-0"),
            ("sweep", "--param", "loss", "--values", "0,0"),
        ),
    ):
        code, out, _ = run_cli(capsys, *argv, *common)
        assert code == 0 and '"loss": 0.0' in out and "-0.0" not in out
        expected = run_cli(capsys, *zero, *common)[1]
        assert list(map(strip_timing, out.splitlines())) == list(
            map(strip_timing, expected.splitlines())
        ), argv
    assert math.copysign(1.0, ProtocolConfig(loss=-0.0).loss) == 1.0
    assert math.copysign(1.0, ProtocolConfig(decoy_fraction=-0.0).decoy_fraction) == 1.0
    # an int keeps its type
    assert type(ProtocolConfig(loss=0).loss) is int


def test_config_file_problems_exit_with_code_two(capsys, tmp_path):
    missing = tmp_path / "absent.cfg"
    code, _, err = run_cli(capsys, "run", "--config", str(missing))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("pairs 60\n")
    code, _, err = run_cli(capsys, "run", "--config", str(bad))
    assert code == 2
    assert "error:" in err
    wrong = tmp_path / "wrong.cfg"
    wrong.write_text("eve = everything\n")
    code, _, err = run_cli(capsys, "run", "--config", str(wrong))
    assert code == 2
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"pairs = 60\n\xff\n")
    code, _, err = run_cli(capsys, "run", "--config", str(binary))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(binary) in err


def test_output_flag_writes_the_lines_to_a_file(capsys, tmp_path):
    target = tmp_path / "runs.jsonl"
    code, out, _ = run_cli(
        capsys, "run", "--pairs", "80", "--seed", "3", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    lines = [json.loads(l) for l in target.read_text().splitlines()]
    assert len(lines) == 1
    assert lines[0]["config"]["pairs"] == 80


def test_sweep_values_that_do_not_convert_exit_with_code_two(capsys):
    code, out, err = run_cli(capsys, "sweep", "--param", "pairs", "--values", "10,abc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, "sweep", "--param", "eve", "--values", "none,bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_config_file_values_that_do_not_convert_exit_with_code_two(capsys, tmp_path):
    cfg = tmp_path / "float.cfg"
    cfg.write_text("pairs = 1e3\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_config_file_keys_given_twice_exit_with_code_two(capsys, tmp_path):
    # a repeated key, in the same or the other spelling, names both lines
    cfg = tmp_path / "twice.cfg"
    for text, lineno, key in (
        ("pairs = 10\npairs = 20\n", 2, "pairs"),
        ("decoy-fraction = 0.2\n# note\ndecoy_fraction = 0.3\n", 3, "decoy_fraction"),
    ):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--pairs", "30")
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:{lineno}: key {key!r} repeats line 1\n"


def test_config_file_with_a_byte_order_mark_reads_its_first_key(capsys, tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"pairs = 60\ncheck = both\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for cfg in (plain, marked):
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--seed", "5")
        assert (code, err) == (0, "")
        (line,) = json_lines(out)
        assert line["config"]["pairs"] == 60
        reports.append(strip_timing(out))
    assert reports[0] == reports[1]


def test_config_file_unknown_keys_exit_with_code_two(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("pair = 5\n")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "pair" in err and err.startswith("error:")


def test_rejected_settings_leave_an_existing_output_file_untouched(capsys, tmp_path):
    target = tmp_path / "keep.txt"
    target.write_text("earlier results\n")
    code, _, err = run_cli(capsys, "run", "--loss", "2", "--output", str(target))
    assert code == 2
    assert err.startswith("error:")
    assert target.read_text() == "earlier results\n"
    code, _, _ = run_cli(
        capsys, "sweep", "--param", "loss", "--values", "0,2", "--pairs", "20",
        "--output", str(target),
    )
    assert code == 2
    assert target.read_text() == "earlier results\n"


def test_a_run_and_a_sweep_leave_numpy_ma_unimported():
    # numpy loads numpy.ma on first use of some functions (np.unique among
    # them), at several milliseconds of start-up; no session needs it
    script = """
import sys
from depqkd.cli import main
assert main(["run", "--pairs", "100", "--check", "both", "--eve", "ir-random",
             "--eve-targets", "both", "--threshold", "0.9"]) == 0
assert main(["sweep", "--param", "loss", "--values", "0,0.2", "--pairs", "100",
             "--check", "both", "--eve", "ir-z", "--eve-targets", "a"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "False"


def test_the_package_and_its_commands_leave_the_channel_module_unloaded():
    # channel.py is the scalar reference that only tests and the benchmark's
    # tracer call; the attacker's settings live in protocol.py
    script = """
import sys
import depqkd
from depqkd import cli
assert cli.main(["run", "--pairs", "20"]) == 0
assert cli.main(["sweep", "--param", "loss", "--values", "0,0.2",
                 "--pairs", "20"]) == 0
assert cli.main(["verify-tables"]) == 0
print("depqkd.channel" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "False"


def test_a_run_and_a_sweep_load_the_tables_and_build_no_state():
    # a session reads the shipped table file; the builder and the physics
    # it builds from (states.py, device.py) stay unloaded, and so do the
    # parser and the JSON encoder, which numpy does not load either
    script = """
import sys
from depqkd.cli import main
assert main(["run", "--pairs", "100", "--check", "both", "--eve", "ir-random",
             "--eve-targets", "both", "--threshold", "0.9"]) == 0
assert main(["sweep", "--param", "loss", "--values", "0,0.2", "--pairs", "100",
             "--check", "both", "--eve", "ir-z", "--eve-targets", "a"]) == 0
print([name for name in ("argparse", "gettext", "json") if name in sys.modules])
print(sorted(name for name in sys.modules if name.startswith("depqkd")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    *_, stdlib, loaded = result.stdout.splitlines()
    assert stdlib == "[]"
    for module in ("depqkd.alphabet", "depqkd.states", "depqkd.device"):
        assert repr(module) not in loaded
    assert "'depqkd.tables'" in loaded


def test_a_call_builds_only_the_records_and_the_parser_it_uses():
    # every process pays for the classes the package generates methods for
    # and the parsers a call builds: the CLI loads one dataclass, a
    # well-formed run or sweep builds no parser, and --help the whole tree
    script = """
import argparse, contextlib, dataclasses, io, json, os, sys
from depqkd import cli
found = sorted({
    f"{value.__module__}.{value.__qualname__}"
    for name, module in list(sys.modules.items())
    if name.split(".")[0] == "depqkd"
    for value in vars(module).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value)
})
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
parsers = []
for argv in (
    ["run", "--pairs", "20"],
    ["sweep", "--param", "loss", "--values", "0,0.2", "--pairs", "20"],
):
    assert cli.main(argv + ["--output", os.devnull]) == 0
    parsers.append(built[:])
    built.clear()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--help"])
print(json.dumps([found, parsers, code, out.getvalue()]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    found, parsers, code, usage = json.loads(result.stdout.splitlines()[-1])
    assert found == ["depqkd.protocol.ProtocolConfig"]
    assert parsers == [[], []]
    assert code == 0
    assert usage.startswith("usage: depqkd [-h] {verify-tables,run,sweep}")
