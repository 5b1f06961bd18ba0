"""Command line behavior: verification, runs, sweeps, config handling."""

import hashlib
import json

import numpy as np
import pytest

from depqkd import (
    ChannelConfig,
    EveConfig,
    EveStrategy,
    EveTarget,
    Pauli,
    ProtocolConfig,
    run_session,
)
from depqkd import cli
from depqkd.cli import bits_to_hex, derive_trial_seed, main
from depqkd.quantum import PAULI_MATRICES

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


def run_cli(capsys, *argv):
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
        n_pairs=400,
        seed=8,
        qber_threshold=0.3,
        channel=ChannelConfig(eve=EveConfig(EveStrategy.Z, EveTarget.A)),
    )
    report = run_session(config)
    assert not report.aborted and report.alice_key != report.bob_key
    for key in (report.alice_key, report.bob_key):
        assert type(key) is bytes
        assert set(key) == {0, 1}
        assert len(key) == 3 * report.counts["key_pairs"]
        assert bits_to_hex(key) == loop_bits_to_hex(tuple(key))
    aborted = run_session(
        ProtocolConfig(
            n_pairs=200,
            decoy_fraction=0.5,
            channel=ChannelConfig(eve=EveConfig(EveStrategy.RANDOM_ZX)),
        )
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
    assert len(pass_lines) == 33
    assert not any(l.startswith("FAIL") for l in lines)
    assert lines[-1] == "33/33 checks passed"
    assert any("typographical slip" in l for l in lines)
    assert sum("encoding" in l for l in pass_lines) == 16
    assert sum(l.startswith("PASS ports") for l in pass_lines) == 8
    assert sum(l.startswith("PASS discrimination") for l in pass_lines) == 8


def test_verify_tables_fails_when_routing_is_broken(capsys, monkeypatch):
    import depqkd.cli as cli_module
    from depqkd import Photon

    real_port_of = cli_module.port_of

    def broken(photon, pol, freq):
        if photon is Photon.A:
            return 1  # collapse both a ports onto one
        return real_port_of(photon, pol, freq)

    monkeypatch.setattr(cli_module, "port_of", broken)
    code, out, _ = run_cli(capsys, "verify-tables")
    assert code == 1
    failing = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert failing
    assert all("ports" in l for l in failing)


def test_verification_is_insensitive_to_the_internal_phase_convention(
    capsys, monkeypatch
):
    # the closure check compares states up to global phase, so flipping the
    # sign of one operation matrix must not fail it
    monkeypatch.setitem(PAULI_MATRICES, Pauli.IY, -PAULI_MATRICES[Pauli.IY])
    code, out, _ = run_cli(capsys, "verify-tables")
    assert code == 0
    assert "33/33 checks passed" in out


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


def test_batching_the_trials_changes_no_report_byte(capsys, monkeypatch):
    args = (
        "sweep", "--param", "loss", "--values", "0,0.3", "--trials", "5",
        "--pairs", "30", "--check", "both", "--eve", "ir-random",
        "--eve-targets", "both", "--threshold", "0.4", "--seed", "11",
    )
    outputs = []
    # one trial per batch, two per batch, and every trial of a cell at once
    for budget in (1, 60, 10_000):
        monkeypatch.setattr(cli, "_BATCH_PAIRS", budget)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        outputs.append([strip_timing(line) for line in out.splitlines()])
    assert outputs[0] == outputs[1] == outputs[2]
    assert [line["trial_index"] for line in json_lines(out)] == [0, 1, 2, 3, 4] * 2


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
            "error: loss probability must lie in [0, 1], got -0.1",
        ),
        (("run", "--loss", "-inf"), "error: loss probability must lie in [0, 1], got -inf"),
        (("run", "--pairs", "notanint"), "error: argument --pairs: invalid int value"),
        (("run", "--eve", "ir-everything"), "error: argument --eve: invalid choice"),
        (("run", "--loss"), "error: argument --loss: expected one argument"),
        (("nonsense",), "error: argument subcommand: invalid choice"),
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
