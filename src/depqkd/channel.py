"""Transmission channel: optional photon loss and an intercept-resend
eavesdropper.

The eavesdropper measures each intercepted photon in a fixed or randomly
alternating basis (H/V or diagonal, always resolving the frequency bin)
and resends a fresh photon in the observed eigenstate.  On an entangled
pair this collapses the joint state to a product, so the original
correlations are destroyed even though every photon still arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .device import measure_single
from .quantum import (
    Freq,
    Photon,
    PolBasis,
    SeededGenerator,
    partial_measure,
    pol_freq_eigenstate,
)


class ConfigError(ValueError):
    """Raised for out-of-range or contradictory configuration values."""


class EveStrategy(Enum):
    """Basis policy of the intercept-resend eavesdropper."""

    Z = "ir-z"
    X = "ir-x"
    RANDOM_ZX = "ir-random"

    def __init__(self, value: str) -> None:
        #: the basis of every measurement, or None for a fair coin per photon
        self.basis = None if value == "ir-random" else PolBasis(value[-1].upper())


class EveTarget(Enum):
    """Which transmissions the eavesdropper intercepts."""

    B = "b"
    A = "a"
    BOTH = "both"

    def __init__(self, value: str) -> None:
        #: the photons whose transmissions are intercepted
        self.photons = tuple(p for p in Photon if value in (p.value, "both"))


@dataclass(frozen=True)
class EveRecord:
    """What the eavesdropper learned from one intercepted photon."""

    basis: PolBasis
    comp: int  # 0 = H or +45 degrees, 1 = V or -45 degrees
    freq: Freq


def apply_loss(loss_probability: float, g: SeededGenerator) -> bool:
    """Decide whether a photon survives the channel; True means delivered.

    ``loss_probability`` is taken as validated by
    :class:`~depqkd.protocol.ProtocolConfig`.
    """
    return not g.coin(loss_probability)


def _choose_basis(strategy: EveStrategy, g: SeededGenerator) -> PolBasis:
    if strategy.basis is None:
        return PolBasis.Z if g.coin(0.5) else PolBasis.X
    return strategy.basis


def ir_attack_entangled(
    state: np.ndarray, photon: Photon, strategy: EveStrategy, g: SeededGenerator
) -> tuple[np.ndarray, EveRecord]:
    """Intercept one photon of a pair, measure it, resend the eigenstate.

    Whatever the input, the output is a product of the resent eigenstate
    and the other photon's conditional state: the attack always leaves the
    pair disentangled.
    """
    basis = _choose_basis(strategy, g)
    (comp, freq), out = partial_measure(state, photon, basis, g)
    return out, EveRecord(basis, comp, freq)


def ir_attack_decoy(
    state: np.ndarray, strategy: EveStrategy, g: SeededGenerator
) -> tuple[np.ndarray, EveRecord]:
    """Intercept-resend on a lone photon; returns the resent state."""
    basis = _choose_basis(strategy, g)
    comp, freq = measure_single(state, basis, g)
    return pol_freq_eigenstate(basis, comp, freq), EveRecord(basis, comp, freq)
