"""Session steps, security checks, and full protocol runs."""

import compileall
import copy
import dataclasses
import hashlib
import inspect
import itertools
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
from depqkd import (
    CheckStrategy,
    ConfigError,
    EveStrategy,
    EveTarget,
    Message,
    MessageKind,
    ProtocolConfig,
    RunReport,
    Transcript,
    protocol,
    run_session,
)
from depqkd.alphabet import StateAlphabet, _lut
from depqkd.protocol import (
    PairBatch,
    _channel,
    _intercept_b,
    _sizes,
    _smallest,
    decoy_check,
    insert_decoys,
    step1_prepare_and_encode,
    step4_encode_a,
    step5_decode_and_sift,
    transmit_a,
    transmit_b,
    wc_check,
)
from depqkd.device import (
    DEVICE_OUTCOMES,
    decode,
    device_probabilities,
    wavelength_convert_global,
)
from depqkd.quantum import (
    LOCAL_BASIS,
    Pauli,
    Photon,
    BatchStream,
    PolBasis,
    SeededGenerator,
    StateError,
    apply_local,
    local_outcome,
    local_probabilities,
    partial_collapse,
    partial_probabilities,
)
from depqkd.states import (
    ENCODING_TABLE,
    DepLabel,
    EncodingPair,
    dep_basis,
    encoding_choices,
    label_to_codeword,
)
from depqkd.tables import ALPHABET, sample

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
PAULIS = tuple(Pauli)
# The states by id and their lookup, which no session reads: only a build
# of the alphabet holds them.
BUILT = StateAlphabet()


def prepared_batch(sizes, seeds):
    """The pairs of step 1 for sessions of ``sizes[s]`` pairs and seed
    ``seeds[s]``, each on its stream 0."""
    pairs = PairBatch(list(sizes))
    step1_prepare_and_encode(pairs, [True] * len(sizes), BatchStream(seeds, 0))
    return pairs


def prepared(n, seed):
    """The pairs of step 1 for ``n`` pairs and a seed, on stream 0."""
    return prepared_batch([n], [seed])


def no_decoys():
    _, decoys = insert_decoys(PairBatch([1]), [0.0], [True], BatchStream([0], 1))
    assert decoys.sizes == [0] and len(decoys.prepared) == 0
    return decoys


def transmit_pairs_b(pairs, eve, seed):
    """The first transmission of a sequence of pairs without decoys, without
    loss, under the attacker policy ``eve``, from stream 2 of ``seed``,
    with the attacker's measurement of the photons b applied."""
    attack = transmit_b(
        pairs,
        no_decoys(),
        np.zeros(len(pairs.codeword), dtype=bool),
        [0.0],
        [eve],
        BatchStream([seed], 2),
    )
    if attack is not None:
        _intercept_b(pairs, attack, [True])


def pair_state(pairs, i):
    return BUILT.states[pairs.state[i]]


def family_sign(label):
    """A pair state's label as the oracle's ``classify`` names it."""
    return label.family.value.lower(), label.sign


def decoy_state(decoys, i):
    basis, k = divmod(int(decoys.state[i]), 4)
    return LOCAL_BASIS[BASES[basis]][k]


def ideal_config(**overrides):
    base = dict(
        pairs=400,
        seed=7,
        decoy_fraction=0.2,
        check=CheckStrategy.BOTH,
        sample_fraction=0.2,
        threshold=0.05,
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
        ProtocolConfig(pairs=0)
    with pytest.raises(ConfigError):
        ProtocolConfig(decoy_fraction=1.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(decoy_fraction=-0.1)
    with pytest.raises(ConfigError):
        ProtocolConfig(sample_fraction=0.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(sample_fraction=1.5)
    with pytest.raises(ConfigError):
        ProtocolConfig(threshold=0.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(threshold=1.0)
    ProtocolConfig(decoy_fraction=0.0, sample_fraction=1.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("check", "both", "check must be a CheckStrategy, got 'both'"),
        ("check", None, "check must be a CheckStrategy, got None"),
        ("eve", "ir-z", "eve must be an EveStrategy or None, got 'ir-z'"),
        ("eve", EveTarget.A, "eve must be an EveStrategy or None, got <EveTarget.A"),
        ("eve_targets", "b", "eve_targets must be an EveTarget, got 'b'"),
        ("eve_targets", None, "eve_targets must be an EveTarget, got None"),
    ],
)
def test_config_refuses_a_choice_outside_its_enum(field, value, message):
    with pytest.raises(ConfigError) as info:
        ProtocolConfig(**{field: value})
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("pairs", 10.5, "pairs must be an int, got 10.5"),
        ("pairs", True, "pairs must be an int, got True"),
        ("pairs", "10", "pairs must be an int, got '10'"),
        ("pairs", np.int64(10), "pairs must be an int, got "),
        ("seed", -1, "seed must be an int in [0, 2**64), got -1"),
        ("seed", 2**64, f"seed must be an int in [0, 2**64), got {2**64}"),
        ("seed", True, "seed must be an int in [0, 2**64), got True"),
        ("seed", 1.0, "seed must be an int in [0, 2**64), got 1.0"),
        ("decoy_fraction", "0.1", "decoy_fraction must be a real number, got '0.1'"),
        ("sample_fraction", None, "sample_fraction must be a real number, got None"),
        ("threshold", 1j, "threshold must be a real number, got 1j"),
        ("loss", "0.1", "loss must be a real number, got '0.1'"),
        ("loss", False, "loss must be a real number, got False"),
    ],
)
def test_config_refuses_a_number_of_the_wrong_type(field, value, message):
    with pytest.raises(ConfigError) as info:
        ProtocolConfig(**{field: value})
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field, interval",
    [
        ("decoy_fraction", "[0, 1)"),
        ("sample_fraction", "(0, 1]"),
        ("threshold", "(0, 1)"),
        ("loss", "[0, 1]"),
    ],
)
def test_config_refuses_nan_and_infinities_in_every_range(field, interval, value):
    with pytest.raises(ConfigError) as info:
        ProtocolConfig(**{field: value})
    assert str(info.value) == f"{field} must lie in {interval}, got {value}"


def test_config_takes_any_int_or_float_number():
    # the edges of each range, as ints, floats and numpy floats
    config = ProtocolConfig(
        pairs=1, seed=2**64 - 1, decoy_fraction=0, sample_fraction=1,
        threshold=np.float64(0.5), loss=1,
    )
    assert (config.pairs, config.seed, config.loss) == (1, 2**64 - 1, 1)
    assert ProtocolConfig(seed=0, loss=np.float64(0.25)).loss == 0.25


def test_config_reports_the_first_bad_field_in_field_order():
    # each bad field in field order, with the start of its error: a wrong
    # type or a value out of range
    bad = [
        ("pairs", 2.0, "pairs "),
        ("seed", -1, "seed "),
        ("decoy_fraction", 1.0, "decoy_fraction "),
        ("check", "both", "check "),
        ("sample_fraction", 0.0, "sample_fraction must lie "),
        ("threshold", "0.1", "threshold "),
        ("loss", 2.0, "loss "),
        ("eve", "ir-z", "eve "),
        ("eve_targets", "a", "eve_targets "),
    ]
    for i, (_, _, start) in enumerate(bad):
        with pytest.raises(ConfigError) as info:
            ProtocolConfig(**{name: value for name, value, _ in bad[i:]})
        assert str(info.value).startswith(start)


def test_config_dict_echo():
    config = ProtocolConfig(
        pairs=50,
        seed=9,
        decoy_fraction=0.3,
        check=CheckStrategy.WAVELENGTH_CONVERTER,
        sample_fraction=0.4,
        threshold=0.02,
        loss=0.1,
        eve=EveStrategy.RANDOM_ZX,
        eve_targets=EveTarget.BOTH,
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
    # without an attacker the targets echo "b", whatever was asked
    assert ProtocolConfig(eve_targets=EveTarget.A).to_dict()["eve_targets"] == "b"


def test_check_strategy_flags():
    assert CheckStrategy.DECOY.uses_decoy and not CheckStrategy.DECOY.uses_wc
    assert CheckStrategy.WAVELENGTH_CONVERTER.uses_wc
    assert not CheckStrategy.WAVELENGTH_CONVERTER.uses_decoy
    assert CheckStrategy.BOTH.uses_decoy and CheckStrategy.BOTH.uses_wc


def test_step1_draws_codewords_uniformly_and_encodes_photon_b():
    pairs = prepared(10_000, 3)
    assert len(pairs.codeword) == 10_000
    counts = np.bincount(pairs.codeword, minlength=8)
    assert np.all(np.abs(counts / 10_000 - 0.125) < 0.015)
    first_choice = 0
    for i in range(2000):
        options = encoding_choices(int(pairs.codeword[i]))
        encoding = EncodingPair(PAULIS[pairs.op_a[i]], PAULIS[pairs.op_b[i]])
        assert encoding in options
        first_choice += encoding == options[0]
        produced = oracles.classify(pair_state(pairs, i))
        step1 = ENCODING_TABLE[EncodingPair(Pauli.I, encoding.op_b)]
        assert produced == family_sign(step1)
    assert first_choice / 2000 == pytest.approx(0.5, abs=0.04)


def test_step1_prepares_only_the_sessions_with_a_stream():
    # the middle session has no stream: its pairs keep -1 in every code,
    # and the others are prepared as if each ran alone
    pairs = PairBatch([30, 20, 25])
    streams = BatchStream([3, 4, 5], 0, [True, False, True])
    step1_prepare_and_encode(pairs, [True] * 3, streams)
    codes = ("codeword", "op_a", "op_b", "state")
    for name in codes:
        assert set(getattr(pairs, name)[30:50].tolist()) == {-1}, name
    for (start, end), seed in (((0, 30), 3), ((50, 75), 5)):
        alone = prepared(end - start, seed)
        for name in codes:
            assert np.array_equal(getattr(pairs, name)[start:end], getattr(alone, name))
    # each stream drew two words per pair of its own session, none more
    assert streams.positions == [2 * 30, None, 2 * 25]


def test_insert_decoys_zero_fraction_changes_nothing():
    pairs = prepared(30, 1)
    codewords = pairs.codeword.copy()
    is_decoy, decoys = insert_decoys(pairs, [0.0], [True], BatchStream([1], 1))
    assert decoys.sizes == [0]
    assert is_decoy.tolist() == [False] * 30
    assert np.array_equal(pairs.codeword, codewords)


def test_insert_decoys_count_positions_and_preparations():
    n = 5000
    pairs = prepared(n, 5)
    is_decoy, decoys = insert_decoys(pairs, [0.2], [True], BatchStream([5], 1))
    [count] = decoys.sizes
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert abs(count - n * 0.2) < 4 * sigma
    assert len(is_decoy) == n + count
    # the pairs fill the remaining slots, in order, and each check photon
    # has one entry per array, in slot order
    assert np.count_nonzero(~is_decoy) == len(pairs.codeword)
    assert np.count_nonzero(is_decoy) == count
    for name in ("prepared", "state", "delivered"):
        assert len(getattr(decoys, name)) == count, name
    # preparations are uniform over the eight (bin, polarization) choices,
    # and each photon starts in the state it was prepared in
    combos = np.bincount(decoys.prepared, minlength=8)
    chi2 = float(np.sum((combos - count / 8) ** 2 / (count / 8)))
    assert chi2 < CHI2_7_CRIT
    assert np.array_equal(decoys.state, decoys.prepared)
    for i in range(count):
        basis, k = divmod(int(decoys.prepared[i]), 4)
        state = decoy_state(decoys, i)
        assert oracles.is_normalized(state)
        if BASES[basis] is PolBasis.Z:  # row k is mode k = 2 * pol + freq
            assert abs(state[k]) == pytest.approx(1.0, abs=1e-12)


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
        streams = BatchStream([n], 5)
        eve = strategy if Photon.A in target.photons else None
        delivered, seen, basis, w = _channel([n], [loss], [eve], streams)
        ref = SeededGenerator(n, 5)
        coins = [not ref.coin(loss) for _ in range(n)]
        assert delivered.tolist() == seen.tolist() == coins
        if Photon.A not in target.photons:
            assert basis is None and w is None
        else:
            assert w.dtype == np.uint64
            assert len(basis) == len(w) == sum(coins)
            for b, draw in zip(basis.tolist(), w.tolist()):
                if strategy is EveStrategy.RANDOM_ZX:
                    expected = PolBasis.Z if ref.coin(0.5) else PolBasis.X
                elif strategy is EveStrategy.Z:
                    expected = PolBasis.Z
                else:
                    expected = PolBasis.X
                assert BASES[b] is expected
                assert draw == ref.words(1)[0]
        # both consumed the same draws, none more
        assert streams.positions == [ref.position]


def reference_transmit_b(pairs, decoys, is_decoy, losses, eves, seeds):
    """Reference in protocol order, on prepared pairs: slot by slot, each
    session's loss coins, then under its attacker, for each delivered slot
    in order the attacker's row, applied at once to the pair or the check
    photon in that slot.  Updates the batches in place and returns each
    session's stream, positioned after its last draw."""
    gens, start, pair, decoy = [], 0, 0, 0
    for seed, n, loss, eve, count in zip(
        seeds, pairs.sizes, losses, eves, decoys.sizes
    ):
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
        arrived = [not g.coin(loss) for _ in slots]
        for (on_decoy, i), ok in zip(items, arrived):
            (decoys.delivered if on_decoy else pairs.b_delivered)[i] = ok
        if eve is None:
            continue
        for (on_decoy, i), ok in zip(items, arrived):
            if not ok:
                continue
            if eve is EveStrategy.RANDOM_ZX:
                basis = BASES.index(PolBasis.Z if g.coin(0.5) else PolBasis.X)
            else:
                basis = BASES.index(PolBasis.Z if eve is EveStrategy.Z else PolBasis.X)
            word = int(g.words(1)[0])
            if on_decoy:
                p = local_probabilities(decoy_state(decoys, i), BASES[basis])
                k = oracles.grid_outcome(p, word)
                decoys.state[i] = 4 * basis + k
            else:
                state = pair_state(pairs, i)
                p = partial_probabilities(state, Photon.B, BASES[basis])
                k = oracles.grid_outcome(p, word)
                pairs.eve_b[i] = 4 * basis + k
                pairs.state[i] = BUILT.index(
                    partial_collapse(state, Photon.B, BASES[basis], k)
                )
    return gens


def batch_fields(batch):
    """Every field of a batch, arrays as (dtype, values)."""
    out = {}
    for name, value in vars(batch).items():
        out[name] = (
            (value.dtype, value.tolist()) if isinstance(value, np.ndarray) else value
        )
    return out


def test_transmit_b_routes_each_slot_to_its_pair_or_check_photon():
    # each session of a batch has its own pair count, loss, decoy fraction
    # and attacker: the first session the case's, the next ones the values
    # after it
    losses, fractions = (0.0, 0.3, 1.0), (0.0, 0.4, 0.85)
    policies = (None, *EveStrategy)
    cases = itertools.product(EveStrategy, EveTarget, range(3), range(3), (1, 2, 3))
    for case, (strategy, target, lo, fr, sessions) in enumerate(cases):
        seeds = [1000 * case + s for s in range(sessions)]
        loss = [losses[(lo + s) % 3] for s in range(sessions)]
        sizes = [1 + (case + 17 * s) % 40 for s in range(sessions)]
        first = policies.index(strategy if Photon.B in target.photons else None)
        eves = [policies[(first + s) % 4] for s in range(sessions)]
        # the pairs go out unprepared, as a session sends them, and are
        # prepared and measured by the attacker afterwards
        pairs = PairBatch(sizes)
        is_decoy, decoys = insert_decoys(
            pairs,
            [fractions[(fr + s) % 3] for s in range(sessions)],
            [True] * sessions,
            BatchStream(seeds, 1),
        )
        ref_pairs, ref_decoys = prepared_batch(sizes, seeds), copy.deepcopy(decoys)
        streams = BatchStream(seeds, 2)
        attack = transmit_b(pairs, decoys, is_decoy, loss, eves, streams)
        assert set(pairs.state.tolist()) == set(pairs.eve_b.tolist()) == {-1}
        assert (attack is None) == all(eve is None for eve in eves)
        step1_prepare_and_encode(pairs, [True] * sessions, BatchStream(seeds, 0))
        if attack is not None:
            _intercept_b(pairs, attack, [True] * sessions)
        ref_gens = reference_transmit_b(
            ref_pairs, ref_decoys, is_decoy, loss, eves, seeds
        )
        assert batch_fields(pairs) == batch_fields(ref_pairs)
        assert batch_fields(decoys) == batch_fields(ref_decoys)
        # both consumed the same draws of every session's stream, none more
        assert streams.positions == [g.position for g in ref_gens]


def test_the_attack_on_photon_b_reaches_only_the_sessions_given():
    # three attacked sessions among decoys, under loss: the middle one's
    # pairs keep their prepared states and get no attacker records, and
    # the others are measured as when every session is
    sizes, seeds = [40, 30, 50], [7, 8, 9]
    pairs = PairBatch(sizes)
    is_decoy, decoys = insert_decoys(
        pairs, [0.5] * 3, [True] * 3, BatchStream(seeds, 1)
    )
    attack = transmit_b(
        pairs,
        decoys,
        is_decoy,
        [0.2] * 3,
        [EveStrategy.RANDOM_ZX] * 3,
        BatchStream(seeds, 2),
    )
    step1_prepare_and_encode(pairs, [True] * 3, BatchStream(seeds, 0))
    every = copy.deepcopy(pairs)
    _intercept_b(every, attack, [True] * 3)
    prepared_state = pairs.state.copy()
    _intercept_b(pairs, attack, [True, False, True])
    for name in ("state", "eve_b"):
        got, whole = getattr(pairs, name), getattr(every, name)
        assert np.array_equal(got[:40], whole[:40]), name
        assert np.array_equal(got[70:], whole[70:]), name
    assert np.array_equal(pairs.state[40:70], prepared_state[40:70])
    assert set(pairs.eve_b[40:70].tolist()) == {-1}
    # the attacker measured some pairs of the middle session in the batch
    # where every session is live
    assert (every.eve_b[40:70] >= 0).any()


def tallies_of(check, tallies):
    """The one session's tallies of a check, by their report count keys."""
    [tally] = tallies
    return dict(zip(protocol._COUNT_KEYS[check], tally))


def test_decoy_check_clean_channel_reports_zero_error():
    _, decoys = insert_decoys(PairBatch([500]), [0.5], [True], BatchStream([11], 1))
    decoys.delivered[::7] = False
    tally = tallies_of("decoy", decoy_check(decoys, BatchStream([11], 3)))
    assert tally["decoy_errors"] == 0
    assert tally["decoy_pol_errors"] == tally["decoy_freq_errors"] == 0
    assert tally["decoy_compared"] > 0
    assert (
        tally["decoy_z_prepared_compared"] + tally["decoy_x_prepared_compared"]
        == tally["decoy_compared"]
    )
    delivered = np.count_nonzero(decoys.delivered)
    assert tally["decoy_compared"] / delivered == pytest.approx(0.5, abs=0.1)
    # the receiver's basis of each delivered check photon stays on the batch
    assert len(decoys.bob_basis) == delivered < decoys.sizes[0]


def test_decoy_check_flags_shifted_bins_and_aborts():
    _, decoys = insert_decoys(PairBatch([200]), [0.5], [True], BatchStream([13], 1))
    # swap every photon's frequency bin: the row of the other bin
    for i in range(decoys.sizes[0]):
        swapped = decoy_state(decoys, i).reshape(2, 2)[:, ::-1].reshape(4)
        decoys.state[i] ^= 1
        assert np.array_equal(decoy_state(decoys, i), swapped)
    tally = tallies_of("decoy", decoy_check(decoys, BatchStream([13], 3)))
    # an error rate of 1, above any threshold
    assert tally["decoy_compared"] > 0
    assert tally["decoy_errors"] == tally["decoy_compared"]
    assert tally["decoy_freq_errors"] == tally["decoy_compared"]
    assert tally["decoy_pol_errors"] == 0


def test_decoy_check_with_nothing_to_compare_is_indeterminate():
    assert decoy_check(no_decoys(), BatchStream([1], 3)) == [(0,) * 8]


def test_wc_check_clean_channel_reports_zero_error():
    pairs = prepared(800, 17)
    tally = tallies_of("wc", wc_check(pairs, [0.5], [True], BatchStream([17], 4)))
    assert tally["wc_errors"] == tally["wc_z_errors"] == tally["wc_x_errors"] == 0
    assert tally["wc_z_compared"] + tally["wc_x_compared"] == tally["wc_compared"]
    assert tally["checked"] == np.count_nonzero(pairs.checked)
    assert tally["checked"] / 800 == pytest.approx(0.5, abs=0.07)
    assert tally["wc_compared"] / tally["checked"] == pytest.approx(0.5, abs=0.07)
    # both parties' basis of each checked pair stays on the batch
    assert len(pairs.wc_basis_a) == len(pairs.wc_basis_b) == tally["checked"]


def test_wc_check_skips_lost_pairs_and_marks_checked():
    pairs = prepared(100, 19)
    pairs.b_delivered[:30] = False
    wc_check(pairs, [1.0], [True], BatchStream([19], 4))
    assert not pairs.checked[:30].any()
    assert pairs.checked[30:].all()


def test_wc_check_error_rates_under_fixed_z_attack():
    pairs = prepared(6000, 23)
    transmit_pairs_b(pairs, EveStrategy.Z, 23)
    tally = tallies_of("wc", wc_check(pairs, [1.0], [True], BatchStream([23], 4)))
    rates = WC_RATES["Z"]
    z_rate = tally["wc_z_errors"] / tally["wc_z_compared"]
    x_rate = tally["wc_x_errors"] / tally["wc_x_compared"]
    assert z_rate == pytest.approx(rates["z"], abs=0.01)
    assert x_rate == pytest.approx(rates["x"], abs=0.03)
    qber = tally["wc_errors"] / tally["wc_compared"]
    assert qber == pytest.approx(rates["pooled"], abs=0.02)


def test_wc_check_error_rates_under_random_basis_attack():
    pairs = prepared(6000, 29)
    transmit_pairs_b(pairs, EveStrategy.RANDOM_ZX, 29)
    tally = tallies_of("wc", wc_check(pairs, [1.0], [True], BatchStream([29], 4)))
    rates = WC_RATES["RANDOM"]
    z_rate = tally["wc_z_errors"] / tally["wc_z_compared"]
    x_rate = tally["wc_x_errors"] / tally["wc_x_compared"]
    assert z_rate == pytest.approx(rates["z"], abs=0.03)
    assert x_rate == pytest.approx(rates["x"], abs=0.03)
    qber = tally["wc_errors"] / tally["wc_compared"]
    assert qber == pytest.approx(rates["pooled"], abs=0.02)


def test_wc_check_with_no_matched_bases_is_indeterminate():
    pairs = prepared(3, 31)
    pairs.b_delivered[:] = False
    assert wc_check(pairs, [1.0], [True], BatchStream([31], 4)) == [(0,) * 7]


def test_wc_check_counts_untouched_sessions_as_their_states_would():
    # on pairs that step 1 alone prepared, skipping the state lookups of
    # the untouched sessions changes no tally, draw, checked pair or basis
    sizes, seeds = [300, 200, 250], [41, 42, 43]
    results = []
    for touched in ([True] * 3, [False, True, False], [False] * 3):
        pairs = prepared_batch(sizes, seeds)
        pairs.b_delivered[::5] = False
        streams = BatchStream(seeds, 4)
        tallies = wc_check(pairs, [0.5, 1.0, 0.3], touched, streams)
        bases = (pairs.wc_basis_a.tolist(), pairs.wc_basis_b.tolist())
        results.append((tallies, streams.positions, pairs.checked.tolist(), bases))
    assert results[0] == results[1] == results[2]
    assert all(tally[0] > 0 for tally in results[0][0])


def test_second_encoding_completes_every_codeword():
    # the second session of the batch was aborted and the third has no
    # attacker: the pairs of both stay as the first encoding left them, and
    # the third's are active all the same
    pairs = prepared_batch([200, 50, 30], [37, 38, 39])
    first = pairs.state.copy()
    active = step4_encode_a(pairs, [True, False, True], [True, True, False])
    assert active.tolist() == [*range(200), *range(250, 280)]
    assert np.array_equal(pairs.state[200:], first[200:])
    for i in active[:200]:
        encoding = EncodingPair(PAULIS[pairs.op_a[i]], PAULIS[pairs.op_b[i]])
        produced = oracles.classify(pair_state(pairs, i))
        assert produced == family_sign(ENCODING_TABLE[encoding])


def test_decode_step_recovers_every_codeword_without_noise():
    # no photon a was sent, so the active pairs are measured as the arrivals;
    # a touched session reads its encoded states, an untouched one its
    # codewords, and both give every codeword back
    for touched in ([True], [False]):
        pairs = prepared(300, 41)
        active = step4_encode_a(pairs, [True], touched)
        assert active.tolist() == list(range(300))
        decoded = step5_decode_and_sift(pairs, active, touched, BatchStream([41], 6))
        assert np.array_equal(decoded, pairs.codeword)


class LoggedStream(BatchStream):
    """A stream object that logs each session block it draws or skips as
    ``(kind, session, size)``, ``kind`` being ``"words"`` or ``"skip"``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def words(self, sessions, sizes):
        sessions, sizes = list(sessions), list(sizes)
        self.log += [("words", s, n) for s, n in zip(sessions, sizes)]
        return super().words(sessions, sizes)

    def skip(self, sessions, sizes):
        sessions, sizes = list(sessions), list(sizes)
        self.log += [("skip", s, n) for s, n in zip(sessions, sizes)]
        super().skip(sessions, sizes)


def test_decode_step_skips_only_the_sessions_their_states_decide():
    # by state id: a session decided throughout, one whose first arrival is
    # decided but a later one is not, one with no arrivals and another
    # decided one; no attacker of the protocol leaves the second one's mix
    basis_ids = [0, 1, 2, 3, 10, 11, 18, 19]
    undecided = int(ALPHABET.collapsed[Photon.A][0])
    assert ALPHABET.decided[undecided] == -1
    states = [basis_ids[:4], [18, 19, undecided, 0, 11], [], basis_ids[4:7]]
    pairs = PairBatch([len(s) for s in states])
    pairs.state[:] = np.concatenate(states)
    arrivals = np.arange(len(pairs.state))
    seeds = [51, 52, 53, 54]
    streams = LoggedStream(seeds, 6)
    decoded = step5_decode_and_sift(pairs, arrivals, [True] * 4, streams)
    # the mixed session draws its whole block, the others skip theirs
    assert streams.log == [
        ("skip", 0, 4), ("words", 1, 5), ("skip", 2, 0), ("skip", 3, 3)
    ]
    assert streams.positions == [4, 5, 0, 3]
    # every pair decodes as when every session draws its block
    words = np.concatenate(
        [SeededGenerator(seed, 6).words(len(s)) for seed, s in zip(seeds, states)]
    )
    drawn = ALPHABET.decoded.take(sample(ALPHABET.device, pairs.state, words))
    assert decoded.tolist() == drawn.tolist()


def test_an_index_list_of_every_entry_is_the_full_slice():
    # every entry true, an empty mask included, and nothing else
    for mask in ([], [True], [True] * 5):
        assert protocol._indices(np.array(mask, dtype=bool)) is protocol._EVERY
    for mask in ([False], [True, False, True], [False] * 3):
        idx = protocol._indices(np.array(mask, dtype=bool))
        assert idx.tolist() == np.flatnonzero(mask).tolist()
    assert PairBatch([2, 3]).of([True, True]) is protocol._EVERY


def test_transmit_a_returns_the_active_pairs_themselves_when_none_is_lost():
    # the rule reads the delivery mask, not the loss: a session of loss
    # 1e-9 loses nothing here and takes the same path as one of loss 0
    seeds = [5, 6]
    for losses in ([0.0, 0.0], [1e-9, 0.0]):
        pairs = prepared_batch([30, 20], seeds)
        active = step4_encode_a(pairs, [True, True], [True, False])
        streams = BatchStream(seeds, 5)
        arrivals = transmit_a(pairs, active, losses, [EveStrategy.Z, None], streams)
        assert arrivals is active
        assert pairs.a_delivered.all()
        assert (pairs.eve_a[:30] >= 0).all() and (pairs.eve_a[30:] == -1).all()
    # under loss, the arrivals are the active pairs whose photon a arrived
    pairs = prepared_batch([30, 20], seeds)
    active = step4_encode_a(pairs, [True, True], [False, False])
    arrivals = transmit_a(pairs, active, [0.5, 0.5], [None, None], BatchStream(seeds, 5))
    assert 0 < len(arrivals) < len(active)
    assert arrivals.tolist() == np.flatnonzero(pairs.a_delivered).tolist()


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
    assert report.config.seed == 7


def test_session_replays_byte_for_byte_and_tracks_seed():
    config = ideal_config(seed=99)
    first = run_session(config)
    second = run_session(config)
    assert first == second
    third = run_session(dataclasses.replace(config, seed=100))
    assert third.alice_key != first.alice_key


@pytest.mark.parametrize(
    "record, values",
    [
        (
            RunReport,
            dict(
                decoy_qber=0.0,
                wc_qber=None,
                aborted=False,
                alice_key=b"\x01\x00",
                bob_key=b"\x01\x00",
                final_qber=0.0,
                counts={"pairs": 1},
                config=ProtocolConfig(pairs=1),
            ),
        ),
        (
            Message,
            dict(sender="alice", kind=MessageKind.ABORT, payload={"reason": "r"}),
        ),
    ],
)
def test_the_records_keep_their_fields_equality_and_immutability(record, values):
    # what a library caller relies on: the field names in order, keyword
    # construction, equality of equal values, the repr and no assignment
    assert list(inspect.signature(record).parameters) == list(values)
    made = record(**values)
    assert made == record(**copy.deepcopy(values))
    assert [getattr(made, name) for name in values] == list(values.values())
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(made) == f"{record.__name__}({fields})"
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(made, first, values[first])


def test_session_transcript_shape():
    transcript = Transcript()
    run_session(ideal_config(), transcript)
    kinds = transcript.kinds()
    assert kinds.count(MessageKind.PROCEED) == 2
    assert MessageKind.ABORT not in kinds
    assert kinds[-1] is MessageKind.POSITIONS  # decoded positions announcement
    senders = {m.sender for m in transcript}
    assert senders == {"alice", "bob", "both"}


# The sha256 of the sender, kind and payload of every message, in order,
# of one session that ends in each way a session can: a kept key, an abort
# and an indeterminate result of either check, and a kept key under loss.
TRANSCRIPT_CASES = {
    "kept-both": (
        ideal_config(pairs=60),
        "d07f46f3fdc33fb3da5de0fb9ff906d068508cfe67a8b5fe64945773f96accc4",
    ),
    "decoy-abort": (
        ideal_config(pairs=60, eve=EveStrategy.RANDOM_ZX),
        "ab7dc36bc9f9a1e2dbdddcab42c3513f3fb5f5d3fa139c86c7a4e8de8628c095",
    ),
    "wc-abort": (
        ideal_config(
            pairs=60, check=CheckStrategy.WAVELENGTH_CONVERTER, eve=EveStrategy.Z
        ),
        "8beaf750c6e2bb2f79fd4316583deff7d685b925fe8e43f2e687c70d0e1936b8",
    ),
    "decoy-indeterminate": (
        ideal_config(pairs=60, decoy_fraction=0.0),
        "f84a96d5af7f28c4f610ba456a727cbe166b4d4e8b19f06b2aed55ab74f95b7b",
    ),
    "wc-indeterminate": (
        ProtocolConfig(
            pairs=2,
            seed=1,
            check=CheckStrategy.WAVELENGTH_CONVERTER,
            sample_fraction=1.0,
        ),
        "430caee48364ba6bfa99dfbb53c11c1319c0548c8e5a3c52e05cec181e21090b",
    ),
    "lossy-kept": (
        ideal_config(pairs=60, loss=0.25, threshold=0.2),
        "42d8c0ec8b5f64d30565ba3cce158a625ac57444b8bec3589846ac92932783e5",
    ),
    # the decoy check passes (0 errors of 3), so its verdict is read off
    # the converter check having run; that one reads 1.0 and aborts
    "decoy-pass-wc-abort": (
        ProtocolConfig(
            pairs=60,
            seed=1,
            check=CheckStrategy.BOTH,
            decoy_fraction=0.1,
            eve=EveStrategy.X,
        ),
        "6fc65b8b8167e564df390b07900b2ffab6dea14a644aceb4c0318d093c885232",
    ),
}


def hash_messages(h, transcript):
    for m in transcript:
        h.update(repr((m.sender, m.kind.value, m.payload)).encode())


@pytest.mark.parametrize("name", TRANSCRIPT_CASES)
def test_session_transcripts_keep_their_pinned_messages(name):
    config, digest = TRANSCRIPT_CASES[name]
    transcript = Transcript()
    run_session(config, transcript)
    h = hashlib.sha256()
    hash_messages(h, transcript)
    assert h.hexdigest() == digest


def test_a_grid_of_sessions_keeps_its_pinned_transcripts():
    # every check, attacker, target, a lossless and a lossy channel and two
    # seeds at 40 pairs, repeated configs dropped (no attacker forces
    # target b): 120 sessions, 7 message sequences, one digest of the
    # messages and one of the reports' counts
    configs = {}
    grid = itertools.product(
        CheckStrategy, (None, *EveStrategy), EveTarget, (0.0, 0.3), (1, 2)
    )
    for check, eve, targets, loss, seed in grid:
        config = ProtocolConfig(
            pairs=40, seed=seed, check=check, loss=loss, eve=eve, eve_targets=targets
        )
        configs.setdefault(config, None)
    assert len(configs) == 120
    h, shapes, counts = hashlib.sha256(), set(), hashlib.sha256()
    for config in configs:
        transcript = Transcript()
        report = run_session(config, transcript)
        hash_messages(h, transcript)
        shapes.add(tuple((m.sender, m.kind) for m in transcript))
        counts.update(repr(report.counts).encode())
    assert len(shapes) == 7
    assert h.hexdigest() == (
        "b36210209faff359f90648d7897ffd5d73923dbdf896ff656f5556f66a54e774"
    )
    # every tally, the decoy check's polarization, bin and basis splits too
    assert counts.hexdigest() == (
        "389e9f77e3d830482f28d1099256964062b9415debb05353846dbb02bb21059a"
    )


def test_session_aborts_on_random_basis_attack_via_decoys():
    config = ideal_config(
        pairs=4000,
        seed=43,
        decoy_fraction=0.25,
        check=CheckStrategy.DECOY,
        eve=EveStrategy.RANDOM_ZX,
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
        pairs=3000,
        seed=47,
        check=CheckStrategy.WAVELENGTH_CONVERTER,
        sample_fraction=0.5,
        eve=EveStrategy.Z,
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
        pairs=6000,
        seed=53,
        check=CheckStrategy.DECOY,
        decoy_fraction=0.1,
        threshold=0.3,
        eve=EveStrategy.Z,
        eve_targets=EveTarget.A,
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
        transmit_pairs_b(pairs, strategy, 59 + stream)
        joint = {}
        for record, codeword in zip(pairs.eve_b.tolist(), pairs.codeword.tolist()):
            basis, k = divmod(record, 4)
            comp, freq = local_outcome(k)
            key = ((BASES[basis].value, comp, int(freq)), codeword)
            joint[key] = joint.get(key, 0.0) + 1.0 / len(pairs.codeword)
        mi = oracles.mutual_information_bits(joint)
        # finite sampling biases the plug-in estimate upward slightly
        assert mi == pytest.approx(expected_mi, abs=0.05)
        assert mi < 3.0


def test_session_with_loss_still_agrees_on_the_key():
    config = ideal_config(
        pairs=2000,
        seed=61,
        threshold=0.2,
        loss=0.25,
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
        pairs=50, seed=67, decoy_fraction=0.0, check=CheckStrategy.DECOY
    )
    report = run_session(config)
    assert report.aborted
    assert report.decoy_qber is None
    assert report.alice_key == b""


def test_session_aborts_when_every_photon_is_lost():
    for strategy in (CheckStrategy.DECOY, CheckStrategy.WAVELENGTH_CONVERTER):
        config = ideal_config(
            pairs=50,
            seed=71,
            check=strategy,
            loss=1.0,
        )
        report = run_session(config)
        assert report.aborted
        assert report.alice_key == b""
        assert report.counts["lost"] == 50


def test_an_aborted_session_counts_the_b_photons_it_lost():
    # without decoys, the loss coins of the first transmission are the first
    # draws of each session's channel-b stream (2); in this batch the first
    # session keeps its key and the second aborts at the converter check
    configs = [
        ideal_config(
            pairs=200,
            seed=seed,
            check=CheckStrategy.WAVELENGTH_CONVERTER,
            threshold=threshold,
            loss=0.3,
            eve=EveStrategy.Z,
        )
        for seed, threshold in ((79, 0.9), (83, 0.05))
    ]
    kept, aborted = protocol.run_sessions(configs)
    assert not kept.aborted and aborted.aborted
    ref = SeededGenerator(83, 2)
    assert aborted.counts["lost"] == sum(ref.coin(0.3) for _ in range(200))


def test_consuming_every_pair_in_the_check_leaves_an_empty_key():
    config = ideal_config(
        pairs=120,
        seed=73,
        check=CheckStrategy.WAVELENGTH_CONVERTER,
        sample_fraction=1.0,
    )
    report = run_session(config)
    assert not report.aborted
    assert report.wc_qber == 0.0
    assert report.counts["checked"] == 120
    assert report.counts["key_pairs"] == 0
    assert report.alice_key == b"" and report.bob_key == b""
    assert report.final_qber == 0.0


def test_an_indeterminate_check_keeps_its_tallies():
    # both pairs are sampled, and neither's bases happen to match
    config = ProtocolConfig(
        pairs=2, seed=1, check=CheckStrategy.WAVELENGTH_CONVERTER, sample_fraction=1.0
    )
    report = run_session(config)
    assert report.aborted and report.wc_qber is None
    assert report.counts["checked"] == 2
    assert report.counts["wc_compared"] == report.counts["wc_errors"] == 0
    report = run_session(ideal_config(decoy_fraction=0.0))
    assert report.aborted and report.decoy_qber is None
    assert report.counts["decoy_compared"] == report.counts["decoys"] == 0


BASE_COUNT_KEYS = ("pairs", "decoys", "decoys_lost", "checked", "lost", "key_pairs")
DECOY_COUNT_KEYS = (
    "decoy_compared",
    "decoy_errors",
    "decoy_pol_errors",
    "decoy_freq_errors",
    "decoy_z_prepared_compared",
    "decoy_z_prepared_errors",
    "decoy_x_prepared_compared",
    "decoy_x_prepared_errors",
)
WC_COUNT_KEYS = (
    "wc_compared",
    "wc_errors",
    "wc_z_compared",
    "wc_z_errors",
    "wc_x_compared",
    "wc_x_errors",
)


@pytest.mark.parametrize(
    "overrides, keys",
    [
        (dict(check=CheckStrategy.DECOY), BASE_COUNT_KEYS + DECOY_COUNT_KEYS),
        (
            dict(check=CheckStrategy.WAVELENGTH_CONVERTER),
            BASE_COUNT_KEYS + WC_COUNT_KEYS,
        ),
        ({}, BASE_COUNT_KEYS + DECOY_COUNT_KEYS + WC_COUNT_KEYS),
        # aborted at the decoy check, so the converter check never ran
        (dict(eve=EveStrategy.RANDOM_ZX), BASE_COUNT_KEYS + DECOY_COUNT_KEYS),
    ],
    ids=["decoy", "wc", "both", "both-aborted-at-decoy"],
)
def test_report_counts_keep_their_documented_keys_in_order(overrides, keys):
    report = run_session(ideal_config(**overrides))
    assert report.aborted == ("eve" in overrides)
    assert tuple(report.counts) == keys
    assert len(keys) in (12, 14, 20)


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
    [report] = protocol.run_sessions(
        [
            ideal_config(
                threshold=0.9,
                loss=0.1,
                eve=EveStrategy.RANDOM_ZX,
                eve_targets=EveTarget.BOTH,
            )
        ]
    )
    assert not report.aborted and len(seen) == 2
    for batch in seen.values():
        # offsets holds one entry per session, not per item
        for name, value in vars(batch).items():
            if isinstance(value, np.ndarray) and name not in ("position", "offsets"):
                assert value.itemsize <= 2, name


def test_a_loss_sweep_batch_builds_one_philox_in_its_thread(monkeypatch):
    # twelve 1000-pair sessions attacked on photon a, three losses: every
    # stream of every session draws through the one Philox of the thread,
    # built on its first draw and re-keyed for each, and a second batch
    # builds none
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    configs = [
        ProtocolConfig(
            seed=seed,
            check=CheckStrategy.WAVELENGTH_CONVERTER,
            loss=loss,
            eve=EveStrategy.Z,
            eve_targets=EveTarget.A,
        )
        for seed, loss in enumerate(np.repeat([0.0, 0.1, 0.2], 4).tolist())
    ]
    with ThreadPoolExecutor(max_workers=1) as thread:  # a thread with no Philox yet
        first = thread.submit(protocol.run_sessions, configs).result()
        assert built == [1]
        built.clear()
        assert thread.submit(protocol.run_sessions, configs).result() == first
    assert built == []


def test_session_bounds_count_each_session_s_sorted_indices():
    rng = np.random.default_rng(2024)
    cases = [
        ([1], []),  # a batch of one with nothing selected
        ([5], [0, 2, 4]),
        ([4, 4, 4], []),  # an empty idx
        ([4, 4, 4], [4, 5, 6, 7]),  # empty first and last sessions
        ([1, 1, 1, 1], [0, 3]),
        ([2, 7, 1], [1, 2, 8, 9]),  # sessions of their own sizes
    ]
    for _ in range(200):
        sizes = rng.integers(1, 40, int(rng.integers(1, 9))).tolist()
        chosen = rng.random(sum(sizes)) < rng.choice([0.0, 0.1, 0.5, 1.0])
        if rng.random() < 0.5:  # leave whole sessions out
            chosen &= np.repeat(rng.random(len(sizes)) < 0.5, sizes)
        cases.append((sizes, np.flatnonzero(chosen).tolist()))
    for sizes, idx in cases:
        starts = np.cumsum([0, *sizes]).tolist()
        expected = [
            sum(start <= i < end for i in idx)
            for start, end in zip(starts, starts[1:])
        ]
        got = _sizes(np.cumsum([0, *sizes]), np.array(idx, dtype=np.intp))
        assert got == expected, (sizes, idx)


def test_an_empty_batch_gives_no_reports():
    assert protocol.run_sessions([]) == []


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="counts glibc's heap trimming"
)
def test_repeated_large_batches_do_not_re_fault_the_heap():
    # A fresh process, because freeing large arrays in earlier tests may
    # already have raised this process's trim threshold.  Compiling the
    # package at import and a multi-threaded OpenBLAS start-up free large
    # blocks too, which can hide a heap trimmed between batches, so the
    # child imports bytecode compiled beforehand and pins BLAS threads to 1,
    # as the benchmark's workers do.
    script = """
import resource
from depqkd import CheckStrategy, EveStrategy, ProtocolConfig
from depqkd.protocol import run_sessions
shapes = (
    dict(pairs=20_000, check=CheckStrategy.BOTH),
    dict(pairs=10_000, check=CheckStrategy.DECOY, decoy_fraction=0.85,
         eve=EveStrategy.RANDOM_ZX),
)
seed = 0
for shape in shapes:
    faults = []
    for call in range(13):
        seed += 1
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_sessions([ProtocolConfig(seed=seed, **shape)])
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(*faults[3:])  # after 3 warm-up calls
"""
    src = Path(__file__).resolve().parents[1] / "src"
    assert compileall.compile_dir(src, quiet=1)
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, **dict.fromkeys(threads, "1"), "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    per_shape = [list(map(int, line.split())) for line in result.stdout.splitlines()]
    assert len(per_shape) == 2
    for faults in per_shape:
        assert len(faults) == 10 and np.median(faults) <= 16, faults


def alphabet_tables(alphabet):
    """Every table of an alphabet by name."""
    return {
        "prepared": alphabet.prepared,
        "encoded": alphabet.encoded,
        **{f"collapsed[{p.value}]": alphabet.collapsed[p] for p in Photon},
        **{f"partial[{p.value}]": alphabet.partial[p] for p in Photon},
        "device": alphabet.device,
        "wc": alphabet.wc,
        "local": alphabet.local,
    }


def test_state_alphabet_stays_small_and_normalized():
    # the closed alphabet, as a build gives it
    assert len(BUILT.states) == 40
    for state in BUILT.states:
        assert oracles.is_normalized(state)
        lead = state[np.flatnonzero(np.abs(state) > 1e-9)[0]]
        assert lead.imag == 0 and lead.real > 0
    vecs = np.array([state for state in BUILT.states])
    overlaps = np.abs(vecs.conj() @ vecs.T)
    # no two ids hold the same state up to global phase
    assert (overlaps[~np.eye(40, dtype=bool)] < 1 - 1e-9).all()


def test_a_fresh_alphabet_equals_the_shared_one_id_for_id():
    fresh = StateAlphabet()
    assert [s.tobytes() for s in fresh.states] == [
        s.tobytes() for s in BUILT.states
    ]
    shared = alphabet_tables(ALPHABET)
    for name, table in alphabet_tables(fresh).items():
        assert table.dtype == shared[name].dtype, name
        assert table.tobytes() == shared[name].tobytes(), name


def test_the_alphabet_is_the_oracle_closure_of_psi_plus():
    closure = np.array(oracles.closure(oracles.pair_state("psi", +1)))
    assert len(closure) == 40
    vecs = np.array([state for state in BUILT.states])
    # one match per state and per closure vector: the same set up to phase
    same = np.abs(vecs.conj() @ closure.T) >= 1 - 1e-9
    assert (same.sum(axis=0) == 1).all() and (same.sum(axis=1) == 1).all()


def test_index_finds_a_state_up_to_global_phase_and_refuses_any_other():
    for sid, state in enumerate(BUILT.states):
        assert BUILT.index(np.exp(0.7j) * state) == sid
        assert BUILT.index(-state) == sid
    with pytest.raises(ValueError):
        BUILT.index(np.full(16, 0.25))


def test_the_alphabet_is_the_same_under_any_hash_seed():
    script = """
import hashlib
from depqkd.alphabet import StateAlphabet
ALPHABET = StateAlphabet()
h = hashlib.sha256()
for state in ALPHABET.states:
    h.update(state.tobytes())
for table in (
    ALPHABET.prepared, ALPHABET.encoded, *ALPHABET.collapsed.values(),
    *ALPHABET.partial.values(), ALPHABET.device, ALPHABET.wc, ALPHABET.local,
):
    h.update(table.dtype.str.encode() + table.tobytes())
print(len(ALPHABET.states), h.hexdigest())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0].startswith("40 ") and outputs[0] == outputs[1]


# sha256 of every alphabet state and table (dtype and bytes), both local
# measurement tables and the eight pair states, in that order.
TABLES_DIGEST = "e61b831e57451aa6b1ef0f8dac374aff1bd3fe941fce1a0f84d72432ec4e42bb"


def test_the_states_and_tables_keep_their_bytes():
    h = hashlib.sha256()
    h.update(b"".join(state.tobytes() for state in BUILT.states))
    for table in alphabet_tables(ALPHABET).values():
        h.update(table.dtype.str.encode() + table.tobytes())
    h.update(LOCAL_BASIS[PolBasis.Z].tobytes() + LOCAL_BASIS[PolBasis.X].tobytes())
    h.update(b"".join(dep_basis(label).tobytes() for label in DepLabel))
    assert h.hexdigest() == TABLES_DIGEST


# The codeword each alphabet state decides, by id, -1 where it decides none.
DECIDED = [0, 4, 1, 5, -1, -1, -1, -1, -1, -1, 2, 3] + [-1] * 6 + [6, 7] + [-1] * 20


def test_the_decided_codewords_keep_their_values():
    assert ALPHABET.decided.dtype == np.int8
    assert ALPHABET.decided.tolist() == DECIDED
    assert not ALPHABET.decided.flags.writeable
    assert StateAlphabet().decided.tobytes() == ALPHABET.decided.tobytes()


def alphabet_arrays(alphabet):
    """Every array of an alphabet, built or loaded, by name."""
    tables = {}
    for name, value in vars(alphabet).items():
        if name == "_ids":  # the id of each state's key bytes
            continue
        if isinstance(value, dict):
            tables.update((f"{name}[{key.value}]", v) for key, v in value.items())
        elif isinstance(value, np.ndarray):
            tables[name] = value
    return tables


def test_every_alphabet_table_is_read_only():
    # every session of a process reads the loaded tables, so a stray
    # in-place write must raise instead of changing the sessions after it;
    # a build's tables, the states included, are read-only as well
    tables = alphabet_arrays(StateAlphabet())
    assert len(tables) == 14 and {"collapsed[a]", "partial[b]"} <= set(tables)
    loaded = alphabet_arrays(ALPHABET)
    assert set(loaded) == set(tables) - {"states"}
    for name, table in [*tables.items(), *loaded.items()]:
        assert not table.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = table.flat[0]
    # and each loaded table starts at a multiple of its item size
    for name, table in loaded.items():
        assert table.flags.aligned and table.ctypes.data % table.itemsize == 0, name


def test_exactly_the_eight_basis_states_decide_their_codewords():
    decided = {int(sid): int(ALPHABET.decided[sid]) for sid in range(40)}
    expected = {
        BUILT.index(dep_basis(label)): label_to_codeword(label) for label in DepLabel
    }
    assert {sid: cw for sid, cw in decided.items() if cw >= 0} == expected
    # a state decides a codeword exactly when every outcome the scalar
    # device gives it decodes to that codeword
    for sid, state in enumerate(BUILT.states):
        p = device_probabilities(state)
        codes = {decode(DEVICE_OUTCOMES[o])[1] for o in np.flatnonzero(p > 1e-9)}
        assert decided[sid] == (codes.pop() if len(codes) == 1 else -1), sid


def test_no_state_an_intercept_leaves_decides_its_codeword():
    # so every pair the attacker measured draws its joint measurement
    for photon in Photon:
        reached = ALPHABET.collapsed[photon]
        reached = reached[reached >= 0]
        assert len(reached) and (ALPHABET.decided.take(reached) == -1).all()


def test_every_choice_of_each_codeword_encodes_a_state_that_decides_it():
    # the rule by which an untouched pair decodes to its own codeword, on
    # all 16 columns 2 * cw + c of choice_ops
    for column in range(16):
        cw, c = divmod(column, 2)
        op_a, op_b = ALPHABET.choice_ops[:, column].tolist()
        pair = encoding_choices(cw)[c]
        assert (PAULIS[op_a], PAULIS[op_b]) == (pair.op_a, pair.op_b), column
        state = ALPHABET.encoded[4 * ALPHABET.prepared[op_b] + op_a]
        assert ALPHABET.decided[state] == cw, column


def test_an_encoding_that_decides_another_codeword_fails_the_build(monkeypatch):
    # choice_ops columns 0 and 2, the first choices of codewords 0 and 1,
    # swapped: the build raises instead of giving keys that agree
    real = encoding_choices

    def swapped(cw):
        return (real(1 - cw)[0], real(cw)[1]) if cw < 2 else real(cw)

    monkeypatch.setattr("depqkd.alphabet.encoding_choices", swapped)
    with pytest.raises(ValueError, match="codeword 0 does not decide it"):
        StateAlphabet()


def test_a_converter_relation_that_a_prepared_pair_breaks_fails_the_build(monkeypatch):
    # step 1's sigma_x on photon b read as giving PSI+ (anticorrelated in
    # H/V) where it gives PHI+ (correlated): the build raises instead of
    # letting an untouched session count no converter-check error
    table = {**ENCODING_TABLE, EncodingPair(Pauli.I, Pauli.X): DepLabel.PSI_PLUS}
    monkeypatch.setattr("depqkd.alphabet.ENCODING_TABLE", table)
    with pytest.raises(ValueError, match="op_b sigma_x measured in basis Z can break"):
        StateAlphabet()


# States whose row of photon a measured in H/V lies off the 1/16 grid:
# p of (H, LOW) and (H, HIGH) of 0.3 and 0.7, 0.25 and 0.25 (a state of
# norm 1/2) and 0.5 +- 1e-7.  Every outcome table of the build is made by
# _lut, which raises on such a row, so no table is filled.
@pytest.mark.parametrize("p", [(0.3, 0.7), (0.25, 0.25), (0.5 + 1e-7, 0.5 - 1e-7)])
def test_a_row_off_the_sixteenths_grid_raises_and_stays_unfilled(p):
    vec = np.zeros(16, dtype=complex)
    vec[0], vec[5] = np.sqrt(p)  # |(H,LOW)(H,LOW)> and |(H,HIGH)(H,HIGH)>
    rows = partial_probabilities(vec, Photon.A, PolBasis.Z)[None]
    with pytest.raises(ValueError, match=r"of partial\[a\] row 0 are not multiples"):
        _lut("partial[a]", rows)


def test_wc_check_surfaces_a_state_the_converters_annihilate():
    # (H,LOW)(H,LOW) - (H,HIGH)(H,LOW): conversion cancels every amplitude;
    # the build converts every state of the alphabet in one such stack
    vec = np.zeros(16, dtype=complex)
    vec[0], vec[4] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    with pytest.raises(StateError, match="annihilated"):
        wavelength_convert_global(np.array([BUILT.states[0], vec]))


def outcome_tables():
    """Each outcome table of :data:`ALPHABET` with the scalar function of
    its rows, as ``(table, function)`` by name."""
    states = BUILT.states
    local = np.concatenate([LOCAL_BASIS[basis] for basis in BASES])

    def wc(key):
        converted = wavelength_convert_global(states[key >> 2])
        a, b = BASES[(key >> 1) & 1].value, BASES[key & 1].value
        return [
            oracles.two_qubit_prob(converted, a, ca, b, cb)
            for ca in (0, 1)
            for cb in (0, 1)
        ]

    functions = {
        **{
            f"partial[{photon.value}]": lambda key, photon=photon: partial_probabilities(
                states[key >> 1], photon, BASES[key & 1]
            )
            for photon in Photon
        },
        "device": lambda sid: device_probabilities(states[sid]),
        "wc": wc,
        "local": lambda key: local_probabilities(local[key >> 1], BASES[key & 1]),
    }
    tables = alphabet_tables(ALPHABET)
    return {name: (tables[name], function) for name, function in functions.items()}


# 0, 2**64 - 1, and every k * 2**60 with the words on either side of it
BOUNDARY_WORDS = np.array(
    sorted(
        w
        for k in range(17)
        for w in (k * 2**60 - 1, k * 2**60, k * 2**60 + 1)
        if 0 <= w < 2**64
    ),
    dtype=np.uint64,
)


def test_sample_reads_each_row_at_the_word_top_4_bits():
    assert BOUNDARY_WORDS[0] == 0 and BOUNDARY_WORDS[-1] == 2**64 - 1
    n = len(BOUNDARY_WORDS)
    for table, probabilities in outcome_tables().values():
        for key in range(len(table) // 16):
            got = sample(table, np.full(n, key, dtype=np.int16), BOUNDARY_WORDS)
            assert got.dtype == np.int8
            p = probabilities(key)
            expected = [oracles.grid_outcome(p, w) for w in BOUNDARY_WORDS.tolist()]
            assert got.tolist() == expected, key
        empty = sample(table, np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.uint64))
        assert empty.dtype == np.int8 and empty.shape == (0,)


def test_alphabet_tables_match_the_scalar_functions():
    states = BUILT.states
    assert len(ALPHABET.local) == 16 * 2 * 8
    for table, probabilities in outcome_tables().values():
        assert table.dtype == np.int8
        for key in range(len(table) // 16):
            p = probabilities(key)
            counts = np.rint(16 * np.asarray(p))
            # every row lies on the 1/16 grid and its counts sum to 16
            assert np.abs(16 * np.asarray(p) - counts).max() <= 1e-9
            assert counts.sum() == 16
            expected = [oracles.grid_outcome(p, j << 60) for j in range(16)]
            row = table[16 * key : 16 * (key + 1)]
            assert row.tobytes() == np.array(expected, dtype=np.int8).tobytes()
    source = dep_basis(DepLabel.PSI_PLUS)
    successors = {
        "prepared": lambda op: apply_local(PAULIS[op], Photon.B, source),
        "encoded": lambda key: apply_local(PAULIS[key & 3], Photon.A, states[key >> 2]),
        **{
            f"collapsed[{photon.value}]": lambda key, photon=photon: partial_collapse(
                states[key >> 3], photon, BASES[(key >> 2) & 1], key & 3
            )
            for photon in Photon
        },
    }
    tables = alphabet_tables(ALPHABET)
    assert len(tables["prepared"]) == 4 and len(tables["encoded"]) == 4 * 40
    for photon in Photon:
        table = tables[f"collapsed[{photon.value}]"]
        assert len(table) == 8 * 40
        # a -1 marks exactly the outcomes the matching partial row never gives
        partial = ALPHABET.partial[photon].reshape(-1, 16)
        for key, sid in enumerate(table.tolist()):
            assert (sid == -1) == (key & 3 not in partial[key >> 2]), key
    for name, successor in successors.items():
        for key, sid in enumerate(tables[name].tolist()):
            if sid != -1:
                assert sid == BUILT.index(successor(key)), (name, key)
