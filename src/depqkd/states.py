"""The eight doubly entangled pair states, the local-operation encoding
algebra, and the three-bit codeword map.

Every pair state superposes two product terms that correlate polarization
and frequency bin across the photons.  Applying one of the four
polarization operations to either photon permutes the eight states, so a
pair of local operations (one per photon, applied in different protocol
steps) selects one of them and thereby encodes three bits.

Exactly two operation pairs produce each state: left-multiplying both
local operations by the phase flip changes the joint state only by a
global sign.  The codeword is therefore a function of the produced state
alone, and both operation pairs share that state's codeword.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .quantum import Pauli, read_only


class Family(Enum):
    """Which polarization/frequency correlation pattern a pair state shows."""

    PHI = "Phi"
    PSI = "Psi"
    GAMMA = "Gamma"
    UPSILON = "Upsilon"


class DepLabel(Enum):
    """The eight distinguishable pair states: four families, two signs."""

    PHI_PLUS = (Family.PHI, +1)
    PHI_MINUS = (Family.PHI, -1)
    PSI_PLUS = (Family.PSI, +1)
    PSI_MINUS = (Family.PSI, -1)
    GAMMA_PLUS = (Family.GAMMA, +1)
    GAMMA_MINUS = (Family.GAMMA, -1)
    UPSILON_PLUS = (Family.UPSILON, +1)
    UPSILON_MINUS = (Family.UPSILON, -1)

    @property
    def family(self) -> Family:
        return self.value[0]

    @property
    def sign(self) -> int:
        return self.value[1]

    @classmethod
    def of(cls, family: Family, sign: int) -> "DepLabel":
        return _LABEL_BY_FAMILY_SIGN[(family, +1 if sign > 0 else -1)]

    def __str__(self) -> str:
        return f"{self.family.value}{'+' if self.sign > 0 else '-'}"


_LABEL_BY_FAMILY_SIGN = {
    (label.family, label.sign): label for label in DepLabel
}

# Joint indices of the two product terms of each family; the first index
# carries amplitude +1/sqrt(2), the second carries sign/sqrt(2).
#   PHI:     a=(H,LOW)  b=(H,LOW)   |  a=(V,HIGH) b=(V,HIGH)
#   PSI:     a=(H,LOW)  b=(V,LOW)   |  a=(V,HIGH) b=(H,HIGH)
#   GAMMA:   a=(V,LOW)  b=(H,LOW)   |  a=(H,HIGH) b=(V,HIGH)
#   UPSILON: a=(V,LOW)  b=(V,LOW)   |  a=(H,HIGH) b=(H,HIGH)
_SUPPORT: dict[Family, tuple[int, int]] = {
    Family.PHI: (0, 15),
    Family.PSI: (2, 13),
    Family.GAMMA: (8, 7),
    Family.UPSILON: (10, 5),
}


def _build_basis() -> dict[DepLabel, np.ndarray]:
    basis = {}
    for label in DepLabel:
        vec = np.zeros(16, dtype=complex)
        first, second = _SUPPORT[label.family]
        vec[first] = 1.0 / np.sqrt(2.0)
        vec[second] = label.sign / np.sqrt(2.0)
        basis[label] = read_only(vec)
    return basis


_BASIS = _build_basis()


def dep_basis(label: DepLabel) -> np.ndarray:
    """Normalized state vector of one of the eight pair states."""
    return _BASIS[label]


class EncodingPair(NamedTuple):
    """Local operations applied to photon a (second step) and photon b
    (first step) of one pair."""

    op_a: Pauli
    op_b: Pauli


# Which pair state each operation pair turns PSI+ into.  The second half
# is the first half with both operations left-multiplied by the phase
# flip; the produced state only changes by a global sign, which is why the
# two halves repeat the same eight states.
ENCODING_TABLE: dict[EncodingPair, DepLabel] = {
    EncodingPair(Pauli.I, Pauli.I): DepLabel.PSI_PLUS,
    EncodingPair(Pauli.I, Pauli.Z): DepLabel.PSI_MINUS,
    EncodingPair(Pauli.I, Pauli.X): DepLabel.PHI_PLUS,
    EncodingPair(Pauli.I, Pauli.IY): DepLabel.PHI_MINUS,
    EncodingPair(Pauli.X, Pauli.I): DepLabel.UPSILON_PLUS,
    EncodingPair(Pauli.X, Pauli.Z): DepLabel.UPSILON_MINUS,
    EncodingPair(Pauli.X, Pauli.X): DepLabel.GAMMA_PLUS,
    EncodingPair(Pauli.X, Pauli.IY): DepLabel.GAMMA_MINUS,
    EncodingPair(Pauli.Z, Pauli.I): DepLabel.PSI_MINUS,
    EncodingPair(Pauli.Z, Pauli.Z): DepLabel.PSI_PLUS,
    EncodingPair(Pauli.Z, Pauli.X): DepLabel.PHI_MINUS,
    EncodingPair(Pauli.Z, Pauli.IY): DepLabel.PHI_PLUS,
    EncodingPair(Pauli.IY, Pauli.I): DepLabel.UPSILON_MINUS,
    EncodingPair(Pauli.IY, Pauli.Z): DepLabel.UPSILON_PLUS,
    EncodingPair(Pauli.IY, Pauli.X): DepLabel.GAMMA_MINUS,
    EncodingPair(Pauli.IY, Pauli.IY): DepLabel.GAMMA_PLUS,
}

# Three-bit codeword of each state: bit 2 set for the families reached by
# flipping photon a, bit 1 set for those reached by flipping photon b,
# bit 0 set for the minus sign.
_CODEWORD: dict[DepLabel, int] = {
    DepLabel.PSI_PLUS: 0b000,
    DepLabel.PSI_MINUS: 0b001,
    DepLabel.PHI_PLUS: 0b010,
    DepLabel.PHI_MINUS: 0b011,
    DepLabel.UPSILON_PLUS: 0b100,
    DepLabel.UPSILON_MINUS: 0b101,
    DepLabel.GAMMA_PLUS: 0b110,
    DepLabel.GAMMA_MINUS: 0b111,
}

_LABEL_OF_CODEWORD = {cw: label for label, cw in _CODEWORD.items()}

# Left multiplication by the phase flip, as a label map (signs dropped).
_TIMES_Z = {Pauli.I: Pauli.Z, Pauli.Z: Pauli.I, Pauli.X: Pauli.IY, Pauli.IY: Pauli.X}


def partner_encoding(pair: EncodingPair) -> EncodingPair:
    """The other operation pair producing the same state."""
    return EncodingPair(_TIMES_Z[pair.op_a], _TIMES_Z[pair.op_b])


def label_to_codeword(label: DepLabel) -> int:
    """Three-bit codeword carried by a pair state."""
    return _CODEWORD[label]


def codeword_to_label(codeword: int) -> DepLabel:
    return _LABEL_OF_CODEWORD[codeword]


def encoding_choices(codeword: int) -> tuple[EncodingPair, EncodingPair]:
    """Both operation pairs realizing a codeword, in a fixed order.

    The pair whose photon-a operation is the identity or the bit flip comes
    first; its partner (both operations composed with the phase flip) comes
    second.
    """
    return _CHOICES[codeword]


def _build_choices() -> dict[int, tuple[EncodingPair, EncodingPair]]:
    choices: dict[int, tuple[EncodingPair, EncodingPair]] = {}
    for pair, label in ENCODING_TABLE.items():
        if pair.op_a in (Pauli.I, Pauli.X):
            choices[_CODEWORD[label]] = (pair, partner_encoding(pair))
    return choices


_CHOICES = _build_choices()

