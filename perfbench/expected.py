"""Expected rates for the benchmark's output checks, by exact enumeration.

Nothing here imports the package under test.  The local measurement
vectors, the receiver's 16 dense projectors and the decoy enumeration come
from the test suite's independent references (``tests/oracles.py``); this
module adds the encoded pair states, derives the device outcome ->
codeword table from which outcomes each state can produce (not from the
package's decoder), and enumerates the key errors of an intercept-resend
attack on photon a.

Conventions (restated from the paper): a photon has four modes indexed
``2 * pol + freq``; a pair has 16 amplitudes indexed ``4 * mode_a +
mode_b``.  Encoding operations act on polarization only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402

I2 = np.eye(2)
PAULI = {
    "I": np.eye(2),
    "Z": np.diag([1.0, -1.0]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "IY": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}

# The source pair: a=(H,LOW) b=(V,LOW) plus a=(V,HIGH) b=(H,HIGH).
PSI_PLUS = oracles.pair_state("psi", +1)


def encoded_state(codeword: int) -> np.ndarray:
    """Pair state carrying a three-bit codeword.

    Bit 2 flips photon a's polarization, bit 1 flips photon b's, and bit 0
    adds the phase flip on photon b (the paper's operation table, first
    half; the second half yields the same states up to a global sign).
    """
    op_a = "X" if codeword & 4 else "I"
    op_b = ("I", "Z", "X", "IY")[codeword & 3]
    u = np.kron(np.kron(PAULI[op_a], I2), np.kron(PAULI[op_b], I2))
    return u @ PSI_PLUS


PROJECTORS = [proj for _outcome, proj in oracles.device_projectors()]


def outcome_distribution(vec: np.ndarray) -> np.ndarray:
    return np.array([oracles.born_probability(vec, p) for p in PROJECTORS])


def _decode_table() -> list[int]:
    """Codeword announced by each device outcome: the one state that can
    produce it.  Raises if the device does not separate the eight states."""
    owners: list[set[int]] = [set() for _ in PROJECTORS]
    for cw in range(8):
        for k, p in enumerate(outcome_distribution(encoded_state(cw))):
            if p > 1e-12:
                owners[k].add(cw)
    if any(len(o) != 1 for o in owners):
        raise RuntimeError(f"device outcomes do not identify states: {owners}")
    return [o.pop() for o in owners]


DECODE = _decode_table()


def key_bit_errors_ir_on_a(basis: str) -> dict[int, float]:
    """Distribution of wrong key bits per kept pair when an intercept-resend
    attacker measures every photon a in a fixed basis and resends the
    eigenstate it saw (codewords uniform)."""
    dist: dict[int, float] = {}
    for cw in range(8):
        state = encoded_state(cw)
        for _label, u in oracles.local_basis_vectors(basis):
            p_eve, post = oracles.collapse_a(state, u)
            if p_eve < 1e-15:
                continue
            for k, p_dev in enumerate(outcome_distribution(post)):
                if p_dev > 1e-15:
                    wrong = bin(cw ^ DECODE[k]).count("1")
                    dist[wrong] = dist.get(wrong, 0.0) + float(p_eve * p_dev) / 8
    return dist


_IR_Z_A = key_bit_errors_ir_on_a("Z")

#: Mean and variance of the wrong key bits of one kept pair under ``ir-z``
#: on photon a; the per-bit rate is the mean over 3.
IR_Z_A_WRONG_BITS_MEAN = sum(k * p for k, p in _IR_Z_A.items())
IR_Z_A_WRONG_BITS_VAR = (
    sum(k * k * p for k, p in _IR_Z_A.items()) - IR_Z_A_WRONG_BITS_MEAN**2
)
IR_Z_A_KEY_QBER = IR_Z_A_WRONG_BITS_MEAN / 3

#: Decoy-check error rate under ``ir-random`` (README attack table: 0.25).
IR_RANDOM_DECOY_QBER = oracles.decoy_expected_error_rates("RANDOM")["pooled"]

if __name__ == "__main__":
    print(f"decode table          {DECODE}")
    print(f"ir-z on a: key qber   {IR_Z_A_KEY_QBER} (wrong bits/pair {_IR_Z_A})")
    print(f"ir-random decoy qber  {IR_RANDOM_DECOY_QBER}")
