"""The receiver's measurement chain, modeled as one complete projective
measurement.

Physically the chain is: a wavelength-division demultiplexer splits each
photon's two frequency bins, polarizing beam splitters route the four
(polarization, bin) modes pairwise onto detector ports, a wavelength
converter inside each port erases the bin distinction, and a rotated
analyzer measures the resulting polarization qubit diagonally.  Because
every element is passive and lossless here, the whole chain is equivalent
to a single 16-outcome rank-1 projective measurement, which is how this
module implements it: outcome = (port of photon a, port of photon b,
diagonal sign of photon a, diagonal sign of photon b).

On the eight entangled pair states the port pair identifies the family and
the two diagonal signs identify the sign, so the device distinguishes all
eight deterministically.  On arbitrary inputs (for example photons resent
by an eavesdropper) the same 16 outcomes remain a complete measurement.
The port routing and the device's rows are public: :mod:`depqkd.alphabet`
builds its tables from them and checks the routing for ``verify-tables``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .quantum import (
    POL_BASES,
    Freq,
    Pol,
    PolBasis,
    SeededGenerator,
    StateError,
    local_outcome,
    local_probabilities,
    mode_index,
    read_only,
)
from .states import DepLabel, Family, label_to_codeword


# Local mode indices collected by each port, as (H-like mode, V-like mode).
# The port's wavelength converter maps the first onto |H> and the second
# onto |V> of a bare polarization qubit.
PORT_MODES: dict[int, tuple[int, int]] = {
    1: (mode_index(Pol.H, Freq.LOW), mode_index(Pol.V, Freq.HIGH)),
    3: (mode_index(Pol.H, Freq.HIGH), mode_index(Pol.V, Freq.LOW)),
    2: (mode_index(Pol.H, Freq.LOW), mode_index(Pol.V, Freq.HIGH)),
    4: (mode_index(Pol.H, Freq.HIGH), mode_index(Pol.V, Freq.LOW)),
}

PORTS_A = (1, 3)
PORTS_B = (2, 4)


# Both photons' frequency bins erased: (pol_a, pol_b) from the 16 modes.
_ERASE = np.kron(np.kron(np.eye(2), np.ones(2)), np.kron(np.eye(2), np.ones(2)))


def wavelength_convert_global(state: np.ndarray) -> np.ndarray:
    """Erase both photons' frequency bins, combining amplitudes coherently,
    of a pair state or of each row of a stack of them.

    Models ideal wavelength converters applied to both photons outside the
    measurement chain.  Returns the renormalized two-qubit polarization
    amplitudes (HH, HV, VH, VV); a state whose polarization amplitudes
    cancel entirely cannot be converted and raises :class:`StateError`.
    """
    flat = state @ _ERASE.T
    norm = np.linalg.norm(flat, axis=-1, keepdims=True)
    if (norm < 1e-12).any():
        raise StateError("wavelength conversion annihilated the state")
    return flat / norm


class DeviceOutcome(NamedTuple):
    """One detector coincidence: ports and diagonal analyzer signs."""

    port_a: int
    port_b: int
    x_a: int
    x_b: int


def _port_diagonal_vector(port: int, sign: int) -> np.ndarray:
    # the diagonal state of the port's (H-like, V-like) modes
    vec = np.zeros(4, dtype=complex)
    vec[list(PORT_MODES[port])] = POL_BASES[PolBasis.X][0 if sign > 0 else 1]
    return vec


def _build_device_basis() -> tuple[tuple[DeviceOutcome, ...], np.ndarray]:
    outcomes = []
    rows = []
    for port_a in PORTS_A:
        for port_b in PORTS_B:
            for x_a in (+1, -1):
                for x_b in (+1, -1):
                    outcomes.append(DeviceOutcome(port_a, port_b, x_a, x_b))
                    rows.append(
                        np.kron(
                            _port_diagonal_vector(port_a, x_a),
                            _port_diagonal_vector(port_b, x_b),
                        )
                    )
    return tuple(outcomes), read_only(rows)


#: The 16 outcomes, in the order of :func:`device_probabilities`.
DEVICE_OUTCOMES, _DEVICE_MATRIX = _build_device_basis()
DEVICE_BRAS = _DEVICE_MATRIX.conj()


def device_probabilities(state: np.ndarray) -> np.ndarray:
    """Probabilities of the 16 device outcomes, in :data:`DEVICE_OUTCOMES`
    order."""
    return np.abs(DEVICE_BRAS @ state) ** 2


def device_measure(state: np.ndarray, g: SeededGenerator) -> DeviceOutcome:
    """Sample one detector coincidence.

    The pair collapses onto the outcome's row of the device matrix, so the
    outcome alone describes it.
    """
    return DEVICE_OUTCOMES[g.sample_index(device_probabilities(state))]


FAMILY_BY_PORTS: dict[tuple[int, int], Family] = {
    (1, 2): Family.PHI,
    (1, 4): Family.PSI,
    (3, 2): Family.GAMMA,
    (3, 4): Family.UPSILON,
}


def decode(outcome: DeviceOutcome) -> tuple[DepLabel, int]:
    """Pair state and codeword announced by a detector coincidence.

    The ports fix the family.  The sign rule is the same for every family:
    the plus state produces parallel analyzer signs and the minus state
    opposite signs (the tests recompute this from the amplitudes).
    """
    family = FAMILY_BY_PORTS[(outcome.port_a, outcome.port_b)]
    label = DepLabel.of(family, +1 if outcome.x_a == outcome.x_b else -1)
    return label, label_to_codeword(label)


def measure_single(
    state: np.ndarray, basis: PolBasis, g: SeededGenerator
) -> tuple[int, Freq]:
    """Measure a lone photon: frequency bin via the demultiplexer plus a
    polarization measurement in the chosen basis.

    Returns ``(comp, freq)`` where ``comp`` 0 means H or the +45 degree
    outcome and 1 means V or the -45 degree outcome.  Both photons share the
    same local mode layout, so the result does not depend on which photon
    is measured.
    """
    return local_outcome(g.sample_index(local_probabilities(state, basis)))
