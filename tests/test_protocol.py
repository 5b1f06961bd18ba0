"""Session steps, security checks, and full protocol runs."""

import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from depqkd import (
    ChannelConfig,
    CheckStrategy,
    ConfigError,
    DecoyPol,
    EncodingPair,
    EveConfig,
    EveStrategy,
    EveTarget,
    LOCAL_BASIS,
    JointState,
    LocalState,
    MessageKind,
    Pauli,
    Photon,
    PolBasis,
    ProtocolConfig,
    SeededGenerator,
    StateError,
    Transcript,
    classify,
    encoding_choices,
    encoding_to_label,
    local_outcome,
    protocol,
    run_session,
)
from depqkd.protocol import (
    ALPHABET,
    StateAlphabet,
    _channel,
    _sample,
    _smallest,
    decoy_check,
    insert_decoys,
    step1_prepare_and_encode,
    step4_encode_a,
    step5_decode_and_sift,
    transmit_b,
    wc_check,
)
from depqkd.quantum import cumulative, inverse_cdf

# Exact per-check error rates of an intercept-resend attack on photon b,
# frozen from the outcome-tree enumeration in oracles.py.
WC_RATES = {
    "Z": {"z": 0.0, "x": 0.5, "pooled": 0.25},
    "X": {"z": 0.5, "x": 0.5, "pooled": 0.5},
    "RANDOM": {"z": 0.25, "x": 0.5, "pooled": 0.375},
}
DECOY_POOLED_RATE = 0.25  # identical for all three basis policies

# Exact mutual information (bits) between the attacker's per-photon record
# and the three-bit codeword, also frozen from the enumeration.
EVE_CODEWORD_MI = {"Z": 1.0, "X": 0.0, "RANDOM": 0.5}

# chi-squared critical value, 7 degrees of freedom, 1% significance
CHI2_7_CRIT = 18.475

BASES = tuple(PolBasis)


def prepared(n, seed):
    """The pairs of step 1 for ``n`` pairs and a seed, on stream 0."""
    return step1_prepare_and_encode(n, [SeededGenerator(seed, 0)])


def no_decoys():
    _, decoys = insert_decoys(prepared(1, 0), 0.0, [SeededGenerator(0, 1)])
    assert len(decoys) == 0
    return decoys


def transmit_pairs_b(pairs, channel, g):
    """The first transmission of a sequence of pairs without decoys."""
    transmit_b(pairs, no_decoys(), np.zeros(len(pairs), dtype=bool), channel, [g])


def pair_state(pairs, i):
    return ALPHABET.states[pairs.state[i]]


def decoy_state(decoys, i):
    basis, k = divmod(int(decoys.state[i]), 4)
    return LocalState(LOCAL_BASIS[BASES[basis]][k])


def ideal_config(**overrides):
    base = dict(
        n_pairs=400,
        seed=7,
        decoy_fraction=0.2,
        check_strategy=CheckStrategy.BOTH,
        check_sample_fraction=0.2,
        qber_threshold=0.05,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def test_frozen_rates_match_the_enumeration_oracle():
    for name, rates in WC_RATES.items():
        computed = oracles.wc_expected_error_rates(name)
        for key, value in rates.items():
            assert computed[key] == pytest.approx(value, abs=1e-12)
    for name in WC_RATES:
        decoy = oracles.decoy_expected_error_rates(name)
        assert decoy["pooled"] == pytest.approx(DECOY_POOLED_RATE, abs=1e-12)
    for name, mi in EVE_CODEWORD_MI.items():
        assert oracles.eve_codeword_mutual_information(name) == pytest.approx(
            mi, abs=1e-9
        )
        assert oracles.eve_codeword_mutual_information(name) < 3.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(n_pairs=0)
    with pytest.raises(ConfigError):
        ProtocolConfig(decoy_fraction=1.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(decoy_fraction=-0.1)
    with pytest.raises(ConfigError):
        ProtocolConfig(check_sample_fraction=0.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(check_sample_fraction=1.5)
    with pytest.raises(ConfigError):
        ProtocolConfig(qber_threshold=0.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(qber_threshold=1.0)
    ProtocolConfig(decoy_fraction=0.0, check_sample_fraction=1.0)


def test_config_dict_echo():
    config = ProtocolConfig(
        n_pairs=50,
        seed=9,
        decoy_fraction=0.3,
        check_strategy=CheckStrategy.WAVELENGTH_CONVERTER,
        check_sample_fraction=0.4,
        qber_threshold=0.02,
        channel=ChannelConfig(
            loss_probability=0.1,
            eve=EveConfig(EveStrategy.RANDOM_ZX, EveTarget.BOTH),
        ),
    )
    assert config.to_dict() == {
        "pairs": 50,
        "seed": 9,
        "decoy_fraction": 0.3,
        "check": "wc",
        "sample_fraction": 0.4,
        "threshold": 0.02,
        "loss": 0.1,
        "eve": "ir-random",
        "eve_targets": "both",
    }
    assert ProtocolConfig().to_dict()["eve"] == "none"


def test_check_strategy_flags():
    assert CheckStrategy.DECOY.uses_decoy and not CheckStrategy.DECOY.uses_wc
    assert CheckStrategy.WAVELENGTH_CONVERTER.uses_wc
    assert not CheckStrategy.WAVELENGTH_CONVERTER.uses_decoy
    assert CheckStrategy.BOTH.uses_decoy and CheckStrategy.BOTH.uses_wc


def test_step1_draws_codewords_uniformly_and_encodes_photon_b():
    pairs = prepared(10_000, 3)
    assert len(pairs) == 10_000
    counts = np.bincount(pairs.codeword, minlength=8)
    assert np.all(np.abs(counts / 10_000 - 0.125) < 0.015)
    first_choice = 0
    for i in range(2000):
        options = encoding_choices(int(pairs.codeword[i]))
        encoding = pairs.encoding(i)
        assert encoding in options
        assert encoding == options[pairs.choice[i]]
        first_choice += encoding == options[0]
        produced = classify(pair_state(pairs, i))
        assert produced is encoding_to_label(EncodingPair(Pauli.I, encoding.op_b))
    assert first_choice / 2000 == pytest.approx(0.5, abs=0.04)


def test_insert_decoys_zero_fraction_changes_nothing():
    pairs = prepared(30, 1)
    codewords = pairs.codeword.copy()
    is_decoy, decoys = insert_decoys(pairs, 0.0, [SeededGenerator(1, 1)])
    assert len(decoys) == 0
    assert is_decoy.tolist() == [False] * 30
    assert np.array_equal(pairs.codeword, codewords)


def test_insert_decoys_count_positions_and_preparations():
    n = 5000
    pairs = prepared(n, 5)
    is_decoy, decoys = insert_decoys(pairs, 0.2, [SeededGenerator(5, 1)])
    count = len(decoys)
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert abs(count - n * 0.2) < 4 * sigma
    assert len(is_decoy) == n + count
    # the pairs fill the remaining slots, in order
    assert np.count_nonzero(~is_decoy) == len(pairs)
    # each decoy knows its slot in the mixed sequence
    assert np.array_equal(decoys.position, np.flatnonzero(is_decoy))
    # preparations are uniform over the eight (bin, polarization) choices
    combos = np.zeros(8)
    for freq, pol in zip(decoys.freq, decoys.pol):
        combos[int(freq) * 4 + int(pol)] += 1
    chi2 = float(np.sum((combos - count / 8) ** 2 / (count / 8)))
    assert chi2 < CHI2_7_CRIT
    pols = tuple(DecoyPol)
    for i in range(count):
        expected = pols[decoys.pol[i]]
        state = decoy_state(decoys, i)
        assert state.is_normalized(1e-12)
        if expected.basis is PolBasis.Z:
            idx = 2 * expected.comp + int(decoys.freq[i])
            assert abs(state.vec[idx]) == pytest.approx(1.0, abs=1e-12)


def test_decoy_slots_are_the_head_of_a_stable_argsort():
    # the replayed slot choice: the first `count` indices of a stable argsort
    rng = np.random.default_rng(12)
    for trial in range(500):
        n = int(rng.integers(1, 40))
        count = int(rng.integers(1, n + 1))
        keys = rng.integers(0, 4, n).astype(float) if trial % 2 else rng.random(n)
        expected = np.zeros(n, dtype=bool)
        expected[np.argsort(keys, kind="stable")[:count]] = True
        assert np.array_equal(_smallest(keys, count), expected)


def test_channel_draws_loss_coins_then_a_row_per_delivered_photon():
    # reference: n loss coins, then for each delivered photon in slot order
    # the attacker's basis coin (random policy only) and its measurement draw
    for strategy, target, loss, n in itertools.product(
        EveStrategy, EveTarget, (0.0, 0.3, 0.9, 1.0), (0, 1, 7, 500)
    ):
        channel = ChannelConfig(loss, EveConfig(strategy, target))
        g = SeededGenerator(n, 5)
        delivered, basis, u = _channel([n], channel, Photon.A, [g])
        ref = SeededGenerator(n, 5)
        coins = [not ref.coin(loss) for _ in range(n)]
        assert delivered.tolist() == coins
        if not target.covers(Photon.A):
            assert basis is None and u is None
        else:
            assert len(basis) == len(u) == sum(coins)
            for b, draw in zip(basis.tolist(), u.tolist()):
                if strategy is EveStrategy.RANDOM_ZX:
                    expected = PolBasis.Z if ref.coin(0.5) else PolBasis.X
                elif strategy is EveStrategy.Z:
                    expected = PolBasis.Z
                else:
                    expected = PolBasis.X
                assert BASES[b] is expected
                assert draw == ref.uniform()
        # both consumed the same draws, none more
        assert g.uniform() == ref.uniform()


def reference_transmit_b(pairs, decoys, is_decoy, channel, seeds):
    """Reference: slot by slot, each session's loss coins, then for each
    delivered slot in order the attacker's row, applied to the pair or the
    check photon in that slot.  Updates the batches in place and returns
    each session's stream, positioned after its last draw."""
    n = len(pairs) // len(seeds)
    eve = channel.eve
    attacked = eve is not None and eve.target.covers(Photon.B)
    gens, start, pair, decoy = [], 0, 0, 0
    for seed, count in zip(seeds, decoys.sizes):
        g = SeededGenerator(seed, 2)
        gens.append(g)
        slots = range(start, start + n + count)
        start += n + count
        items = []  # (is a decoy, index in its batch) of each slot
        for slot in slots:
            if is_decoy[slot]:
                items.append((True, decoy))
                decoy += 1
            else:
                items.append((False, pair))
                pair += 1
        arrived = [not g.coin(channel.loss_probability) for _ in slots]
        for (on_decoy, i), ok in zip(items, arrived):
            (decoys.delivered if on_decoy else pairs.b_delivered)[i] = ok
        if not attacked:
            continue
        for (on_decoy, i), ok in zip(items, arrived):
            if not ok:
                continue
            if eve.strategy is EveStrategy.RANDOM_ZX:
                basis = BASES.index(PolBasis.Z if g.coin(0.5) else PolBasis.X)
            else:
                basis = BASES.index(
                    PolBasis.Z if eve.strategy is EveStrategy.Z else PolBasis.X
                )
            u = np.array([g.uniform()])
            if on_decoy:
                cdf = ALPHABET.local_cdf(int(decoys.state[i]), basis)
                k = int(inverse_cdf(cdf, u)[0])
                decoys.eve_basis[i], decoys.eve_outcome[i] = basis, k
                decoys.state[i] = 4 * basis + k
            else:
                sid = int(pairs.state[i])
                k = int(inverse_cdf(ALPHABET.partial_cdf(sid, Photon.B, basis), u)[0])
                pairs.eve_b_basis[i], pairs.eve_b_outcome[i] = basis, k
                pairs.state[i] = ALPHABET.collapsed(sid, Photon.B, basis, k)
    return gens


def batch_fields(batch):
    """Every field of a batch, arrays as (dtype, values)."""
    out = {}
    for f in dataclasses.fields(batch):
        value = getattr(batch, f.name)
        out[f.name] = (
            (value.dtype, value.tolist()) if isinstance(value, np.ndarray) else value
        )
    return out


def test_transmit_b_routes_each_slot_to_its_pair_or_check_photon():
    cases = itertools.product(
        EveStrategy, EveTarget, (0.0, 0.3, 1.0), (0.0, 0.4, 0.85), (1, 2, 3)
    )
    for case, (strategy, target, loss, fraction, sessions) in enumerate(cases):
        seeds = [1000 * case + s for s in range(sessions)]
        n = 1 + case % 40
        pairs = step1_prepare_and_encode(n, [SeededGenerator(s, 0) for s in seeds])
        is_decoy, decoys = insert_decoys(
            pairs, fraction, [SeededGenerator(s, 1) for s in seeds]
        )
        ref_pairs, ref_decoys = (
            type(batch)(**{k: v.copy() for k, v in vars(batch).items()})
            for batch in (pairs, decoys)
        )
        channel = ChannelConfig(loss, EveConfig(strategy, target))
        gens = [SeededGenerator(s, 2) for s in seeds]
        transmit_b(pairs, decoys, is_decoy, channel, gens)
        ref_gens = reference_transmit_b(ref_pairs, ref_decoys, is_decoy, channel, seeds)
        assert batch_fields(pairs) == batch_fields(ref_pairs)
        assert batch_fields(decoys) == batch_fields(ref_decoys)
        # both consumed the same draws of every session's stream, none more
        assert [g.uniform() for g in gens] == [g.uniform() for g in ref_gens]


def reference_sample(keys, u, cdf_of):
    """Reference: one inverse CDF per distinct key over that key's draws."""
    k = np.zeros(len(keys), dtype=np.int64)
    for key in np.unique(keys).tolist():
        sel = keys == key
        k[sel] = inverse_cdf(cdf_of(key), u[sel])
    return k


def test_sample_matches_a_per_key_inverse_cdf():
    rng = np.random.default_rng(17)
    for trial in range(3000):
        length = (4, 16)[trial % 2]
        n_keys = int(rng.integers(1, 40))
        p = np.abs(rng.normal(size=(n_keys, length))) ** 2
        p[rng.random(p.shape) < 0.3] = 0.0  # zero entries, some rows all zero
        p *= rng.uniform(0.1, 3.0, size=(n_keys, 1))  # unnormalised rows
        cdfs = [cumulative(row) for row in p]
        # keys with gaps, each mapped to a row of the table
        key_values = np.sort(rng.choice(5 * n_keys, size=n_keys, replace=False))
        cdf_of = dict(zip(key_values.tolist(), cdfs)).__getitem__
        n = int(rng.integers(0, 200))
        keys = rng.choice(key_values, size=n)
        u = rng.random(n)
        u[rng.random(n) < 0.05] = 0.0
        got = _sample(keys, u, cdf_of)
        assert got.dtype == np.int8
        assert got.tolist() == reference_sample(keys, u, cdf_of).tolist()
    empty = _sample(np.zeros(0, dtype=np.int64), np.zeros(0), cdf_of)
    assert empty.dtype == np.int8 and empty.shape == (0,)


def test_decoy_check_clean_channel_reports_zero_error():
    pairs = step1_prepare_and_encode(500, [SeededGenerator(11, 0)])
    _, decoys = insert_decoys(pairs, 0.5, [SeededGenerator(11, 1)])
    transcript = Transcript()
    [result] = decoy_check(decoys, 0.05, transcript, [SeededGenerator(11, 3)])
    assert result.qber == 0.0
    assert result.proceed
    assert result.errors == result.pol_errors == result.freq_errors == 0
    assert result.compared > 0
    assert result.z_prepared_compared + result.x_prepared_compared == result.compared
    assert result.compared / len(decoys) == pytest.approx(0.5, abs=0.1)
    assert transcript.kinds() == (
        MessageKind.POSITIONS,
        MessageKind.BASIS_DECLARATION,
        MessageKind.OUTCOME_COMPARISON,
        MessageKind.PROCEED,
    )


def test_decoy_check_flags_shifted_bins_and_aborts():
    pairs = step1_prepare_and_encode(200, [SeededGenerator(13, 0)])
    _, decoys = insert_decoys(pairs, 0.5, [SeededGenerator(13, 1)])
    # swap every photon's frequency bin: the row of the other bin
    for i in range(len(decoys)):
        swapped = decoy_state(decoys, i).vec.reshape(2, 2)[:, ::-1].reshape(4)
        decoys.state[i] ^= 1
        assert np.array_equal(decoy_state(decoys, i).vec, swapped)
    transcript = Transcript()
    [result] = decoy_check(decoys, 0.05, transcript, [SeededGenerator(13, 3)])
    assert result.qber == 1.0
    assert result.freq_errors == result.compared
    assert result.pol_errors == 0
    assert not result.proceed
    assert transcript.kinds()[-1] is MessageKind.ABORT


def test_decoy_check_with_nothing_to_compare_is_indeterminate():
    transcript = Transcript()
    assert decoy_check(no_decoys(), 0.05, transcript, [SeededGenerator(1, 3)]) == [None]
    assert MessageKind.ABORT in transcript.kinds()


def test_wc_check_clean_channel_reports_zero_error():
    pairs = prepared(800, 17)
    transcript = Transcript()
    [result] = wc_check(pairs, 0.5, 0.05, transcript, [SeededGenerator(17, 4)])
    assert result.qber == 0.0
    assert result.proceed
    assert result.z_errors == result.x_errors == 0
    assert result.z_compared + result.x_compared == result.compared
    assert result.checked_count == np.count_nonzero(pairs.checked)
    assert result.checked_count / 800 == pytest.approx(0.5, abs=0.07)
    assert result.compared / result.checked_count == pytest.approx(0.5, abs=0.07)
    assert transcript.kinds() == (
        MessageKind.POSITIONS,
        MessageKind.BASIS_DECLARATION,
        MessageKind.OUTCOME_COMPARISON,
        MessageKind.PROCEED,
    )


def test_wc_check_skips_lost_pairs_and_marks_checked():
    pairs = prepared(100, 19)
    pairs.b_delivered[:30] = False
    wc_check(pairs, 1.0, 0.05, Transcript(), [SeededGenerator(19, 4)])
    assert not pairs.checked[:30].any()
    assert pairs.checked[30:].all()


def test_wc_check_error_rates_under_fixed_z_attack():
    pairs = prepared(6000, 23)
    channel = ChannelConfig(eve=EveConfig(EveStrategy.Z, EveTarget.B))
    transmit_pairs_b(pairs, channel, SeededGenerator(23, 2))
    [result] = wc_check(pairs, 1.0, 0.05, Transcript(), [SeededGenerator(23, 4)])
    rates = WC_RATES["Z"]
    assert result.z_errors / result.z_compared == pytest.approx(rates["z"], abs=0.01)
    assert result.x_errors / result.x_compared == pytest.approx(rates["x"], abs=0.03)
    assert result.qber == pytest.approx(rates["pooled"], abs=0.02)
    assert not result.proceed


def test_wc_check_error_rates_under_random_basis_attack():
    pairs = prepared(6000, 29)
    channel = ChannelConfig(eve=EveConfig(EveStrategy.RANDOM_ZX, EveTarget.B))
    transmit_pairs_b(pairs, channel, SeededGenerator(29, 2))
    [result] = wc_check(pairs, 1.0, 0.05, Transcript(), [SeededGenerator(29, 4)])
    rates = WC_RATES["RANDOM"]
    assert result.z_errors / result.z_compared == pytest.approx(rates["z"], abs=0.03)
    assert result.x_errors / result.x_compared == pytest.approx(rates["x"], abs=0.03)
    assert result.qber == pytest.approx(rates["pooled"], abs=0.02)


def test_wc_check_with_no_matched_bases_is_indeterminate():
    pairs = prepared(3, 31)
    pairs.b_delivered[:] = False
    transcript = Transcript()
    assert wc_check(pairs, 1.0, 0.05, transcript, [SeededGenerator(31, 4)]) == [None]
    assert transcript.kinds()[-1] is MessageKind.ABORT


def test_wc_check_surfaces_a_state_the_converters_annihilate():
    # (H,LOW)(H,LOW) - (H,HIGH)(H,LOW): conversion cancels every amplitude
    vec = np.zeros(16, dtype=complex)
    vec[0], vec[4] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    pairs = prepared(5, 43)
    pairs.state[:] = ALPHABET.intern(JointState(vec))
    transcript = Transcript()
    with pytest.raises(StateError):
        wc_check(pairs, 1.0, 0.05, transcript, [SeededGenerator(43, 4)])
    # raised after the sampled positions are announced, before any basis
    assert transcript.kinds() == (MessageKind.POSITIONS,)


def test_second_encoding_completes_every_codeword():
    pairs = prepared(200, 37)
    active = step4_encode_a(pairs)
    assert active.tolist() == list(range(200))
    for i in active:
        assert classify(pair_state(pairs, i)) is encoding_to_label(pairs.encoding(i))


def test_decode_step_recovers_every_codeword_without_noise():
    pairs = prepared(300, 41)
    step4_encode_a(pairs)
    transcript = Transcript()
    survivors = step5_decode_and_sift(pairs, transcript, [SeededGenerator(41, 6)])
    assert survivors.tolist() == list(range(300))
    assert np.array_equal(pairs.decoded, pairs.codeword)
    assert transcript.kinds() == (MessageKind.POSITIONS,)


def test_ideal_session_end_to_end():
    report = run_session(ideal_config())
    assert report.decoy_qber == 0.0
    assert report.wc_qber == 0.0
    assert not report.aborted
    assert report.final_qber == 0.0
    assert report.alice_key == report.bob_key
    assert len(report.alice_key) == 3 * report.counts["key_pairs"]
    assert report.counts["key_pairs"] == 400 - report.counts["checked"]
    assert report.counts["lost"] == 0
    assert report.counts["decoys_lost"] == 0
    assert report.seed == 7


def test_session_replays_byte_for_byte_and_tracks_seed():
    config = ideal_config(seed=99)
    first = run_session(config)
    second = run_session(config)
    assert first == second
    third = run_session(dataclasses.replace(config, seed=100))
    assert third.alice_key != first.alice_key


def test_session_transcript_shape():
    transcript = Transcript()
    run_session(ideal_config(), transcript)
    kinds = transcript.kinds()
    assert kinds.count(MessageKind.PROCEED) == 2
    assert MessageKind.ABORT not in kinds
    assert kinds[-1] is MessageKind.POSITIONS  # decoded positions announcement
    senders = {m.sender for m in transcript}
    assert senders == {"alice", "bob", "both"}


def test_session_aborts_on_random_basis_attack_via_decoys():
    config = ideal_config(
        n_pairs=4000,
        seed=43,
        decoy_fraction=0.25,
        check_strategy=CheckStrategy.DECOY,
        channel=ChannelConfig(eve=EveConfig(EveStrategy.RANDOM_ZX)),
    )
    transcript = Transcript()
    report = run_session(config, transcript)
    assert report.aborted
    assert report.decoy_qber == pytest.approx(DECOY_POOLED_RATE, abs=0.04)
    assert report.alice_key == b"" and report.bob_key == b""
    assert report.final_qber == 0.0
    assert report.counts["key_pairs"] == 0
    assert MessageKind.ABORT in transcript.kinds()


def test_session_aborts_on_fixed_z_attack_via_converted_pairs():
    config = ideal_config(
        n_pairs=3000,
        seed=47,
        check_strategy=CheckStrategy.WAVELENGTH_CONVERTER,
        check_sample_fraction=0.5,
        channel=ChannelConfig(eve=EveConfig(EveStrategy.Z)),
    )
    report = run_session(config)
    assert report.aborted
    assert report.decoy_qber is None
    assert report.wc_qber == pytest.approx(WC_RATES["Z"]["pooled"], abs=0.03)


def test_attack_on_second_transmission_corrupts_only_the_sign_bit():
    # the checks watch the first transmission, so a fixed H/V attack on the
    # second one slips through; it randomizes the sign bit of each codeword
    # (one of three key bits) and leaves the family bits intact
    config = ideal_config(
        n_pairs=6000,
        seed=53,
        check_strategy=CheckStrategy.DECOY,
        decoy_fraction=0.1,
        qber_threshold=0.3,
        channel=ChannelConfig(eve=EveConfig(EveStrategy.Z, EveTarget.A)),
    )
    report = run_session(config)
    assert not report.aborted
    assert report.decoy_qber == 0.0
    assert report.final_qber == pytest.approx(1 / 6, abs=0.02)
    mismatch_positions = [
        i
        for i, (a, b) in enumerate(zip(report.alice_key, report.bob_key))
        if a != b
    ]
    assert mismatch_positions
    assert all(i % 3 == 2 for i in mismatch_positions)


def test_attacker_record_gains_exactly_the_known_information():
    # empirical mutual information between the attack records and the
    # codewords, compared against the frozen exact values
    for stream, (strategy, expected_mi) in enumerate(
        ((EveStrategy.Z, 1.0), (EveStrategy.X, 0.0), (EveStrategy.RANDOM_ZX, 0.5))
    ):
        pairs = prepared(5000, 59 + stream)
        channel = ChannelConfig(eve=EveConfig(strategy, EveTarget.B))
        transmit_pairs_b(pairs, channel, SeededGenerator(59 + stream, 2))
        joint = {}
        for basis, k, codeword in zip(
            pairs.eve_b_basis.tolist(),
            pairs.eve_b_outcome.tolist(),
            pairs.codeword.tolist(),
        ):
            comp, freq = local_outcome(k)
            key = ((BASES[basis].value, comp, int(freq)), codeword)
            joint[key] = joint.get(key, 0.0) + 1.0 / len(pairs)
        mi = oracles.mutual_information_bits(joint)
        # finite sampling biases the plug-in estimate upward slightly
        assert mi == pytest.approx(expected_mi, abs=0.05)
        assert mi < 3.0


def test_session_with_loss_still_agrees_on_the_key():
    config = ideal_config(
        n_pairs=2000,
        seed=61,
        qber_threshold=0.2,
        channel=ChannelConfig(loss_probability=0.25),
    )
    report = run_session(config)
    assert not report.aborted
    assert report.final_qber == 0.0
    assert report.alice_key == report.bob_key
    assert report.counts["lost"] > 0
    assert report.counts["key_pairs"] < 2000
    assert len(report.alice_key) == 3 * report.counts["key_pairs"]
    survivors_bound = 2000 - report.counts["lost"] - report.counts["checked"]
    assert report.counts["key_pairs"] == survivors_bound


def test_session_aborts_when_no_decoys_could_be_compared():
    config = ideal_config(
        n_pairs=50, seed=67, decoy_fraction=0.0, check_strategy=CheckStrategy.DECOY
    )
    report = run_session(config)
    assert report.aborted
    assert report.decoy_qber is None
    assert report.alice_key == b""


def test_session_aborts_when_every_photon_is_lost():
    for strategy in (CheckStrategy.DECOY, CheckStrategy.WAVELENGTH_CONVERTER):
        config = ideal_config(
            n_pairs=50,
            seed=71,
            check_strategy=strategy,
            channel=ChannelConfig(loss_probability=1.0),
        )
        report = run_session(config)
        assert report.aborted
        assert report.alice_key == b""


def test_consuming_every_pair_in_the_check_leaves_an_empty_key():
    config = ideal_config(
        n_pairs=120,
        seed=73,
        check_strategy=CheckStrategy.WAVELENGTH_CONVERTER,
        check_sample_fraction=1.0,
    )
    report = run_session(config)
    assert not report.aborted
    assert report.wc_qber == 0.0
    assert report.counts["checked"] == 120
    assert report.counts["key_pairs"] == 0
    assert report.alice_key == b"" and report.bob_key == b""
    assert report.final_qber == 0.0


def test_batch_items_are_at_most_two_bytes_wide(monkeypatch):
    # every per-item array but the decoys' slot positions, after the phase
    # that last writes it, on a session that runs every phase
    seen = {}

    def keep(name, phase):
        def wrapper(batch, *args):
            result = phase(batch, *args)
            seen[name] = batch
            return result

        return wrapper

    monkeypatch.setattr(protocol, "decoy_check", keep("decoys", protocol.decoy_check))
    monkeypatch.setattr(
        protocol,
        "step5_decode_and_sift",
        keep("pairs", protocol.step5_decode_and_sift),
    )
    eve = EveConfig(EveStrategy.RANDOM_ZX, EveTarget.BOTH)
    [report] = protocol.run_sessions(
        [
            ideal_config(
                qber_threshold=0.9, channel=ChannelConfig(loss_probability=0.1, eve=eve)
            )
        ]
    )
    assert not report.aborted and len(seen) == 2
    for batch in seen.values():
        for f in dataclasses.fields(batch):
            value = getattr(batch, f.name)
            if isinstance(value, np.ndarray) and f.name != "position":
                assert value.itemsize <= 2, f.name


def test_state_alphabet_refuses_an_id_that_would_overflow_a_sampling_key():
    alphabet = StateAlphabet()
    states = [JointState(np.full(16, 1.0 + i)) for i in range(4100)]
    ids = [alphabet.intern(state) for state in states[:4096]]
    assert ids == list(range(4096))  # the largest key, 8 * 4095 + 7, fits int16
    with pytest.raises(OverflowError):
        alphabet.intern(states[4096])
    assert len(alphabet) == 4096
    assert alphabet.intern(states[17]) == 17  # known states still resolve


def test_state_alphabet_stays_small_and_normalized():
    # every pair state a session can reach is one of a small set
    for check in CheckStrategy:
        for strategy in (None, *EveStrategy):
            for target in EveTarget if strategy else (EveTarget.B,):
                eve = EveConfig(strategy, target) if strategy else None
                run_session(
                    ideal_config(
                        n_pairs=300,
                        check_strategy=check,
                        qber_threshold=0.9,
                        channel=ChannelConfig(loss_probability=0.2, eve=eve),
                    )
                )
    assert len(ALPHABET) <= 128
    assert all(state.is_normalized() for state in ALPHABET.states)
