"""Receiver measurement chain: routing, conversion, decoding, sampling."""

import numpy as np
import pytest

import oracles
from depqkd.device import (
    _DEVICE_MATRIX,
    DEVICE_OUTCOMES,
    FAMILY_BY_PORTS,
    PORT_MODES,
    DeviceOutcome,
    decode,
    device_measure,
    device_probabilities,
    measure_single,
    wavelength_convert_global,
)
from depqkd.quantum import (
    Freq,
    Pol,
    PolBasis,
    SeededGenerator,
    StateError,
    mode_index,
)
from depqkd.states import _SUPPORT, DepLabel, Family, dep_basis, label_to_codeword


def random_joint(rng):
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    return vec / np.linalg.norm(vec)


# Each photon's two ports, photon a's first: a port collects the two modes
# whose polarization and bin indices agree (ports 1 and 2) or differ (3, 4).
PORTS = ((1, 3), (2, 4))


def test_port_routing_full_table():
    # a port lists its (H-like mode, V-like mode)
    assert sorted(PORT_MODES) == [1, 2, 3, 4]
    for ports in PORTS:
        for pol in Pol:
            for freq in Freq:
                port = ports[int(pol) ^ int(freq)]
                assert PORT_MODES[port][int(pol)] == mode_index(pol, freq)


def test_pair_supports_route_to_the_decoding_port_pair():
    # both product terms of a pair state land on one (port_a, port_b) pair,
    # and that pair is the one the decoder attributes to the family
    port_a, port_b = (
        {mode: port for port in ports for mode in PORT_MODES[port]} for ports in PORTS
    )
    for label in DepLabel:
        ports_seen = set()
        for joint_index in _SUPPORT[label.family]:
            mode_a, mode_b = divmod(joint_index, 4)
            ports_seen.add((port_a[mode_a], port_b[mode_b]))
        assert len(ports_seen) == 1
        assert FAMILY_BY_PORTS[ports_seen.pop()] is label.family


def test_wavelength_convert_global_on_pair_states():
    sq2 = np.sqrt(2.0)
    phi = wavelength_convert_global(dep_basis(DepLabel.PHI_PLUS))
    assert np.allclose(phi, [1 / sq2, 0, 0, 1 / sq2], atol=1e-12)
    psi_minus = wavelength_convert_global(dep_basis(DepLabel.PSI_MINUS))
    assert np.allclose(psi_minus, [0, 1 / sq2, -1 / sq2, 0], atol=1e-12)
    gamma = wavelength_convert_global(dep_basis(DepLabel.GAMMA_PLUS))
    assert np.allclose(gamma, [0, 1 / sq2, 1 / sq2, 0], atol=1e-12)
    upsilon = wavelength_convert_global(dep_basis(DepLabel.UPSILON_MINUS))
    assert np.allclose(upsilon, [-1 / sq2, 0, 0, 1 / sq2], atol=1e-12)


def test_wavelength_convert_global_matches_frequency_erasure_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        s = random_joint(rng)
        expected = oracles.erase_frequency(s)
        norm = np.linalg.norm(expected)
        if norm < 1e-6:
            continue
        assert np.allclose(
            wavelength_convert_global(s), expected / norm, atol=1e-12
        )


def test_wavelength_convert_global_rejects_cancelling_amplitudes():
    vec = np.zeros(16, dtype=complex)
    vec[0] = 1 / np.sqrt(2)  # a (H, LOW),  b (H, LOW)
    vec[4] = -1 / np.sqrt(2)  # a (H, HIGH), b (H, LOW)
    with pytest.raises(StateError):
        wavelength_convert_global(vec)


def test_device_measurement_is_complete_and_orthonormal():
    gram = _DEVICE_MATRIX @ _DEVICE_MATRIX.conj().T
    assert np.allclose(gram, np.eye(16), atol=1e-12)
    total = sum(oracles.projector(row) for row in _DEVICE_MATRIX)
    assert np.allclose(total, np.eye(16), atol=1e-12)
    assert len(DEVICE_OUTCOMES) == 16
    assert len(set(DEVICE_OUTCOMES)) == 16
    for outcome in DEVICE_OUTCOMES:
        assert outcome.port_a in (1, 3)
        assert outcome.port_b in (2, 4)
        assert outcome.x_a in (+1, -1)
        assert outcome.x_b in (+1, -1)


def test_device_distribution_matches_dense_projector_oracle():
    rng = np.random.default_rng(47)
    reference = dict()
    for outcome, proj in oracles.device_projectors():
        reference[outcome] = proj
    for _ in range(20):
        s = random_joint(rng)
        for outcome, prob in zip(DEVICE_OUTCOMES, device_probabilities(s)):
            expected = oracles.born_probability(s, reference[tuple(outcome)])
            assert prob == pytest.approx(expected, abs=1e-12)


def test_device_discriminates_all_eight_states_deterministically():
    for label in DepLabel:
        dist = zip(DEVICE_OUTCOMES, device_probabilities(dep_basis(label)))
        support = [(o, p) for o, p in dist if p > 1e-12]
        assert len(support) == 2
        for outcome, prob in support:
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert decode(outcome) == (label, label_to_codeword(label))
        signs = {outcome.x_a == outcome.x_b for outcome, _ in support}
        assert len(signs) == 1  # both branches agree on parallel vs opposite


def test_sign_rule_table_recomputed_from_amplitudes():
    # plus states give parallel analyzer signs, minus states opposite ones
    for family in Family:
        plus = dep_basis(DepLabel.of(family, +1))
        supported = [
            outcome
            for outcome, p in zip(DEVICE_OUTCOMES, device_probabilities(plus))
            if p > 1e-12
        ]
        parallel = {o.x_a == o.x_b for o in supported}
        assert parallel == {True}
        minus = dep_basis(DepLabel.of(family, -1))
        supported = [
            outcome
            for outcome, p in zip(DEVICE_OUTCOMES, device_probabilities(minus))
            if p > 1e-12
        ]
        parallel = {o.x_a == o.x_b for o in supported}
        assert parallel == {False}


def test_decode_examples():
    assert decode(DeviceOutcome(1, 2, +1, +1)) == (DepLabel.PHI_PLUS, 2)
    assert decode(DeviceOutcome(1, 2, -1, -1)) == (DepLabel.PHI_PLUS, 2)
    assert decode(DeviceOutcome(1, 4, -1, +1)) == (DepLabel.PSI_MINUS, 1)
    assert decode(DeviceOutcome(3, 2, +1, -1)) == (DepLabel.GAMMA_MINUS, 7)
    assert decode(DeviceOutcome(3, 4, -1, -1)) == (DepLabel.UPSILON_PLUS, 4)


def test_device_measure_collapses_onto_the_outcome_vector():
    # the post-measurement pair is the outcome's device row, which must
    # overlap the measured state
    g = SeededGenerator(12, 0)
    state = dep_basis(DepLabel.GAMMA_MINUS)
    rows = dict(zip(DEVICE_OUTCOMES, _DEVICE_MATRIX))
    for _ in range(50):
        outcome = device_measure(state, g)
        assert decode(outcome) == (DepLabel.GAMMA_MINUS, 7)
        overlap = abs(np.vdot(rows[outcome], state)) ** 2
        assert overlap == pytest.approx(0.5, abs=1e-12)


def test_measure_single_deterministic_cases():
    g = SeededGenerator(9, 0)
    for freq in (Freq.LOW, Freq.HIGH):
        comp, seen_freq = measure_single(
            oracles.local_z_vector(Pol.V, freq), PolBasis.Z, g
        )
        assert (comp, seen_freq) == (1, freq)
        comp, seen_freq = measure_single(
            oracles.local_x_vector(0, freq), PolBasis.X, g
        )
        assert (comp, seen_freq) == (0, freq)
        comp, seen_freq = measure_single(
            oracles.local_x_vector(1, freq), PolBasis.X, g
        )
        assert (comp, seen_freq) == (1, freq)


def test_measure_single_mismatched_basis_is_unbiased():
    g = SeededGenerator(10, 0)
    n = 4000
    comps = [
        measure_single(oracles.local_z_vector(Pol.H, Freq.HIGH), PolBasis.X, g)
        for _ in range(n)
    ]
    assert {freq for _, freq in comps} == {Freq.HIGH}
    ones = sum(comp for comp, _ in comps)
    assert ones / n == pytest.approx(0.5, abs=0.03)
