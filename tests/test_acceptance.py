"""Acceptance suite: one test per release criterion.

Each criterion asserts its stated tolerance and runtime budget and prints
one PASS or FAIL line (visible with ``pytest -s`` and in failure output).
Expected statistical values come from the independent enumeration and
dense-projector oracles in ``oracles.py``, not from the package itself.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from depqkd import CheckStrategy, EveStrategy, ProtocolConfig, run_session
from depqkd.alphabet import ALPHABET
from depqkd.cli import main
from depqkd.device import DEVICE_OUTCOMES, decode, device_probabilities
from depqkd.quantum import Pauli, Photon, SeededGenerator
from depqkd.states import (
    ENCODING_TABLE,
    DepLabel,
    Family,
    dep_basis,
    label_to_codeword,
)


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"PASS criterion {number}: {title} ({elapsed:.2f}s)")


def test_criterion_1_encoding_table_closure():
    # the states sessions sample: photon b's operation prepares a state of
    # the alphabet, and photon a's operation encodes it
    paulis = tuple(Pauli)
    with criterion(1, "all 16 operation pairs reproduce their tabulated state", 1.0):
        for pair, label in ENCODING_TABLE.items():
            prepared = ALPHABET.prepared[paulis.index(pair.op_b)]
            sid = ALPHABET.encoded[4 * prepared + paulis.index(pair.op_a)]
            produced = oracles.classify(ALPHABET.states[sid])
            assert produced == (label.family.value.lower(), label.sign), pair


def sample_counts(state, shots, g):
    """Outcome counts of ``shots`` device measurements, in outcome order:
    the same draws and counts as ``shots`` calls of ``device_measure``."""
    cdf = np.cumsum(device_probabilities(state))
    indices = np.searchsorted(cdf, g.uniforms(shots) * cdf[-1], side="right")
    return np.bincount(np.minimum(indices, len(cdf) - 1), minlength=len(cdf))


PORT_PAIR = {
    Family.PHI: (1, 2),
    Family.PSI: (1, 4),
    Family.GAMMA: (3, 2),
    Family.UPSILON: (3, 4),
}


def test_criterion_2_deterministic_discrimination_of_all_eight_states():
    with criterion(2, "10000 shots per state decode without a single mismatch", 5.0):
        shots = 10_000
        for stream, label in enumerate(DepLabel):
            counts = sample_counts(
                dep_basis(label), shots, SeededGenerator(1000, stream)
            )
            assert counts.sum() == shots
            hit = np.flatnonzero(counts)
            assert len(hit) == 2  # the two diagonal-analyzer branches
            for k in hit:
                outcome = DEVICE_OUTCOMES[k]
                assert (outcome.port_a, outcome.port_b) == PORT_PAIR[label.family]
                assert decode(outcome) == (label, label_to_codeword(label))
                assert counts[k] / shots == pytest.approx(0.5, abs=0.02)


def test_criterion_3_ideal_session_yields_identical_keys():
    with criterion(3, "clean 10000-pair session: zero error, equal keys", 10.0):
        config = ProtocolConfig(
            pairs=10_000,
            seed=606,
            decoy_fraction=0.1,
            check=CheckStrategy.BOTH,
            sample_fraction=0.1,
            threshold=0.05,
        )
        report = run_session(config)
        assert not report.aborted
        assert report.decoy_qber == 0.0
        assert report.wc_qber == 0.0
        assert report.final_qber == 0.0
        assert report.alice_key == report.bob_key
        assert len(report.alice_key) == 3 * report.counts["key_pairs"]
        assert report.counts["key_pairs"] > 0


def test_criterion_4_random_basis_attack_hits_the_decoy_check():
    with criterion(4, "decoy error rate 0.25 +/- 0.01 under a random-basis attack", 30.0):
        config = ProtocolConfig(
            pairs=120_000,
            seed=404,
            decoy_fraction=0.85,
            check=CheckStrategy.DECOY,
            threshold=0.05,
            eve=EveStrategy.RANDOM_ZX,
        )
        report = run_session(config)
        assert report.counts["decoys"] >= 100_000
        expected = oracles.decoy_expected_error_rates("RANDOM")["pooled"]
        assert report.decoy_qber == pytest.approx(expected, abs=0.01)
        assert report.aborted


def test_criterion_5_fixed_basis_attack_hits_the_converted_pair_check():
    with criterion(
        5, "converted-pair rates under an H/V attack: 0 matched-Z, 0.5 matched-X", 30.0
    ):
        config = ProtocolConfig(
            pairs=60_000,
            seed=505,
            check=CheckStrategy.WAVELENGTH_CONVERTER,
            sample_fraction=0.5,
            threshold=0.05,
            eve=EveStrategy.Z,
        )
        report = run_session(config)
        counts = report.counts
        expected = oracles.wc_expected_error_rates("Z")
        z_rate = counts["wc_z_errors"] / counts["wc_z_compared"]
        x_rate = counts["wc_x_errors"] / counts["wc_x_compared"]
        assert z_rate <= 0.005
        assert z_rate == pytest.approx(expected["z"], abs=0.005)
        assert x_rate == pytest.approx(expected["x"], abs=0.02)
        assert report.wc_qber == pytest.approx(expected["pooled"], abs=0.015)
        assert report.aborted


def test_criterion_6_attacks_always_leave_product_states():
    with criterion(6, "purity 1 +/- 1e-9 for both photons after every attack", 30.0):
        # every state an intercept can leave: each outcome of either photon
        # measured in either basis, from every state a session reaches
        for photon in (Photon.A, Photon.B):
            reached = np.unique(ALPHABET.collapsed[photon])
            reached = reached[reached >= 0]
            assert len(reached) == 32
            for sid in reached:
                for tag in ("a", "b"):
                    rho = oracles.reduced_density_matrix(ALPHABET.states[sid], tag)
                    assert oracles.purity(rho) == pytest.approx(1.0, abs=1e-9)


def test_criterion_7_device_sampling_matches_the_projector_oracle():
    with criterion(
        7, "sampled frequencies within TV 0.01 of oracle probabilities", 60.0
    ):
        rng = np.random.default_rng(2718)
        projectors = oracles.device_projectors()
        shots = 100_000
        for stream in range(20):
            vec = rng.normal(size=16) + 1j * rng.normal(size=16)
            state = vec / np.linalg.norm(vec)
            expected = np.array(
                [oracles.born_probability(state, proj) for _, proj in projectors]
            )
            counts = sample_counts(state, shots, SeededGenerator(3000, stream))
            observed = counts / shots
            assert oracles.tv_distance(observed, expected) <= 0.01


def test_criterion_8_reports_are_byte_identical_for_equal_seeds(tmp_path, capsys):
    with criterion(8, "identical invocations reproduce identical output bytes", 30.0):
        run_argv = [
            "run",
            "--pairs",
            "2000",
            "--seed",
            "31337",
            "--check",
            "both",
            "--decoy-fraction",
            "0.2",
            "--sample-fraction",
            "0.2",
            "--loss",
            "0.1",
            "--eve",
            "ir-random",
            "--trials",
            "3",
        ]
        sweep_argv = [
            "sweep",
            "--param",
            "eve",
            "--values",
            "none,ir-z,ir-x",
            "--pairs",
            "500",
            "--seed",
            "31337",
            "--trials",
            "2",
        ]

        def stable_bytes(path):
            kept = []
            for line in path.read_bytes().split(b"\n"):
                if not line:
                    continue
                head, sep, _ = line.partition(b', "elapsed_ms"')
                assert sep
                kept.append(head)
            return b"\n".join(kept)

        for name, argv in (("run", run_argv), ("sweep", sweep_argv)):
            first = tmp_path / f"{name}-first.jsonl"
            second = tmp_path / f"{name}-second.jsonl"
            assert main(argv + ["--output", str(first)]) == 0
            assert main(argv + ["--output", str(second)]) == 0
            assert stable_bytes(first) == stable_bytes(second)
            assert first.read_bytes()  # not trivially empty
            for line in first.read_text().splitlines():
                parsed = json.loads(line)
                assert set(parsed) >= {"seed", "config", "aborted", "elapsed_ms"}

        # verify-tables carries no timing field at all
        assert main(["verify-tables"]) == 0
        first_tables = capsys.readouterr().out
        assert main(["verify-tables"]) == 0
        assert capsys.readouterr().out == first_tables
