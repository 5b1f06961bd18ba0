"""Loss and intercept-resend attack behavior."""

import numpy as np
import pytest

import oracles
from depqkd import ConfigError, EveStrategy, EveTarget
from depqkd.channel import EveRecord, apply_loss, ir_attack_decoy, ir_attack_entangled
from depqkd.device import measure_single
from depqkd.protocol import ProtocolConfig
from depqkd.quantum import (
    Freq,
    Photon,
    Pol,
    PolBasis,
    SeededGenerator,
    pol_freq_eigenstate,
)
from depqkd.states import DepLabel, dep_basis


ORACLE_NAME = {
    EveStrategy.Z: "Z",
    EveStrategy.X: "X",
    EveStrategy.RANDOM_ZX: "RANDOM",
}


def test_apply_loss_extremes():
    g = SeededGenerator(1, 0)
    assert all(apply_loss(0.0, g) for _ in range(100))
    assert not any(apply_loss(1.0, g) for _ in range(100))


def test_apply_loss_rate():
    g = SeededGenerator(2, 0)
    n = 20_000
    delivered = sum(apply_loss(0.3, g) for _ in range(n))
    assert delivered / n == pytest.approx(0.7, abs=0.01)


def test_channel_config_validation():
    # the channel's settings are the loss and attacker fields of the config
    with pytest.raises(ConfigError):
        ProtocolConfig(loss=1.5)
    with pytest.raises(ConfigError):
        ProtocolConfig(loss=-0.01)
    cfg = ProtocolConfig()
    assert cfg.loss == 0.0
    assert cfg.eve is None


def test_eve_target_coverage():
    assert EveTarget.B.photons == (Photon.B,)
    assert EveTarget.A.photons == (Photon.A,)
    assert EveTarget.BOTH.photons == (Photon.A, Photon.B)
    assert ProtocolConfig(eve=EveStrategy.Z).eve_targets is EveTarget.B


def test_z_attack_on_entangled_pair_yields_the_two_product_states():
    g = SeededGenerator(3, 0)
    expected = {
        (1, Freq.LOW): np.kron(
            oracles.local_z_vector(Pol.H, Freq.LOW), oracles.local_z_vector(Pol.V, Freq.LOW)
        ),
        (0, Freq.HIGH): np.kron(
            oracles.local_z_vector(Pol.V, Freq.HIGH), oracles.local_z_vector(Pol.H, Freq.HIGH)
        ),
    }
    seen = {}
    n = 2000
    for _ in range(n):
        out, record = ir_attack_entangled(
            dep_basis(DepLabel.PSI_PLUS), Photon.B, EveStrategy.Z, g
        )
        assert record.basis is PolBasis.Z
        key = (record.comp, record.freq)
        assert key in expected
        assert np.allclose(out, expected[key], atol=1e-12)
        seen[key] = seen.get(key, 0) + 1
    assert seen[(1, Freq.LOW)] / n == pytest.approx(0.5, abs=0.04)


def test_x_attack_on_entangled_pair_resends_diagonal_states():
    g = SeededGenerator(4, 0)
    for _ in range(200):
        out, record = ir_attack_entangled(
            dep_basis(DepLabel.PSI_PLUS), Photon.B, EveStrategy.X, g
        )
        assert record.basis is PolBasis.X
        resent = pol_freq_eigenstate(PolBasis.X, record.comp, record.freq)
        remote = (
            oracles.local_z_vector(Pol.H, Freq.LOW)
            if record.freq is Freq.LOW
            else oracles.local_z_vector(Pol.V, Freq.HIGH)
        )
        assert np.allclose(
            np.abs(out), np.abs(np.kron(remote, resent)), atol=1e-12
        )


def test_attack_on_a_mirrors_attack_on_b():
    g = SeededGenerator(5, 0)
    expected = {
        (0, Freq.LOW): np.kron(
            oracles.local_z_vector(Pol.H, Freq.LOW), oracles.local_z_vector(Pol.V, Freq.LOW)
        ),
        (1, Freq.HIGH): np.kron(
            oracles.local_z_vector(Pol.V, Freq.HIGH), oracles.local_z_vector(Pol.H, Freq.HIGH)
        ),
    }
    for _ in range(500):
        out, record = ir_attack_entangled(
            dep_basis(DepLabel.PSI_PLUS), Photon.A, EveStrategy.Z, g
        )
        key = (record.comp, record.freq)
        assert key in expected
        assert np.allclose(out, expected[key], atol=1e-12)


def test_attack_passes_matched_eigenstates_through_unchanged():
    g = SeededGenerator(6, 0)
    probe = np.kron(
        oracles.local_z_vector(Pol.H, Freq.LOW),
        pol_freq_eigenstate(PolBasis.X, 0, Freq.HIGH),
    )
    for _ in range(20):
        out, record = ir_attack_entangled(probe, Photon.B, EveStrategy.X, g)
        assert record == EveRecord(PolBasis.X, 0, Freq.HIGH)
        assert np.allclose(np.abs(out), np.abs(probe), atol=1e-12)


def test_attack_always_disentangles_purity_of_both_photons():
    g = SeededGenerator(7, 0)
    for label in DepLabel:
        for strategy in EveStrategy:
            for photon in (Photon.A, Photon.B):
                out, record = ir_attack_entangled(
                    dep_basis(label), photon, strategy, g
                )
                assert oracles.is_normalized(out)
                for tag in ("a", "b"):
                    rho = oracles.reduced_density_matrix(out, tag)
                    assert oracles.purity(rho) == pytest.approx(1.0, abs=1e-9)
                if strategy is EveStrategy.Z:
                    assert record.basis is PolBasis.Z
                if strategy is EveStrategy.X:
                    assert record.basis is PolBasis.X


def test_random_strategy_alternates_bases():
    g = SeededGenerator(8, 0)
    bases = {
        ir_attack_entangled(
            dep_basis(DepLabel.PHI_PLUS), Photon.B, EveStrategy.RANDOM_ZX, g
        )[1].basis
        for _ in range(200)
    }
    assert bases == {PolBasis.Z, PolBasis.X}


def test_decoy_attack_in_matched_basis_is_transparent():
    g = SeededGenerator(9, 0)
    probe = oracles.local_z_vector(Pol.H, Freq.LOW)
    for _ in range(20):
        resent, record = ir_attack_decoy(probe, EveStrategy.Z, g)
        assert record == EveRecord(PolBasis.Z, 0, Freq.LOW)
        assert np.allclose(resent, probe, atol=1e-12)


def test_decoy_attack_in_mismatched_basis_randomizes_polarization():
    g = SeededGenerator(10, 0)
    probe = pol_freq_eigenstate(PolBasis.X, 0, Freq.HIGH)
    comps = []
    for _ in range(2000):
        resent, record = ir_attack_decoy(probe, EveStrategy.Z, g)
        assert record.basis is PolBasis.Z
        assert record.freq is Freq.HIGH
        expected = pol_freq_eigenstate(PolBasis.Z, record.comp, record.freq)
        assert np.allclose(resent, expected, atol=1e-12)
        comps.append(record.comp)
    assert sum(comps) / len(comps) == pytest.approx(0.5, abs=0.04)


def test_decoy_attack_error_rates_match_enumeration():
    # prepare uniformly, attack, remeasure in the preparation basis, and
    # compare the observed error rates with the exact outcome-tree values
    for stream, strategy in enumerate(EveStrategy):
        expected = oracles.decoy_expected_error_rates(ORACLE_NAME[strategy])
        g = SeededGenerator(11, stream)
        stats = {"Z": [0, 0], "X": [0, 0]}
        for _ in range(8000):
            basis = PolBasis.Z if g.coin(0.5) else PolBasis.X
            comp = int(g.uniform() * 2)
            freq = Freq.LOW if g.coin(0.5) else Freq.HIGH
            prepared = pol_freq_eigenstate(basis, comp, freq)
            resent, _ = ir_attack_decoy(prepared, strategy, g)
            seen_comp, seen_freq = measure_single(resent, basis, g)
            bad = seen_comp != comp or seen_freq != freq
            stats[basis.value][0] += 1
            stats[basis.value][1] += bad
        z_rate = stats["Z"][1] / stats["Z"][0]
        x_rate = stats["X"][1] / stats["X"][0]
        pooled = (stats["Z"][1] + stats["X"][1]) / 8000
        assert z_rate == pytest.approx(expected["z_prepared"], abs=0.025)
        assert x_rate == pytest.approx(expected["x_prepared"], abs=0.025)
        assert pooled == pytest.approx(expected["pooled"], abs=0.02)


def test_attacks_replay_identically_for_equal_seeds():
    def trace(seed):
        g = SeededGenerator(seed, 2)
        out = []
        for _ in range(50):
            state, record = ir_attack_entangled(
                dep_basis(DepLabel.UPSILON_MINUS), Photon.B, EveStrategy.RANDOM_ZX, g
            )
            out.append((record, tuple(np.round(state, 12))))
        return out

    assert trace(123) == trace(123)
    assert trace(123) != trace(124)
