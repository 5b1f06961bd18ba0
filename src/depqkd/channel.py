"""The scalar reference of the transmission channel, one photon at a time:
photon loss and the intercept-resend eavesdropper.

No session calls these functions: the phases of :mod:`depqkd.protocol`
draw losses and attacks for a whole batch through the tables of
:mod:`depqkd.alphabet`.  The benchmark's tracer times them by name, and
tests check them on single states.  The attacker's settings
(:class:`~depqkd.protocol.EveStrategy`, :class:`~depqkd.protocol.EveTarget`)
live beside the config in :mod:`depqkd.protocol`, so neither ``import
depqkd`` nor the command line loads this module.

The eavesdropper measures each intercepted photon in a fixed or randomly
alternating basis (H/V or diagonal, always resolving the frequency bin)
and resends a fresh photon in the observed eigenstate.  On an entangled
pair this collapses the joint state to a product, so the original
correlations are destroyed even though every photon still arrives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import measure_single
from .protocol import EveStrategy
from .quantum import (
    Freq,
    Photon,
    PolBasis,
    SeededGenerator,
    partial_measure,
    pol_freq_eigenstate,
)


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
